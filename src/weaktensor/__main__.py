"""The only program entry: ``python -m weaktensor`` and ``weaktensor`` run :func:`main`.

The CLI's only BLAS calls are reductions over at most 2**20 entries, which
gain nothing from threads, while an idle OpenBLAS helper thread spins on a
CPU before it sleeps in every short run. So the CLI loads numpy with one
BLAS thread unless the caller sets ``OPENBLAS_NUM_THREADS``. The setting is
made here, not on import, so the library never changes the environment.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads

from .cli import cli_main  # noqa: E402


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
