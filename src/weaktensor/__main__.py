"""The only program entry: ``python -m weaktensor`` and ``weaktensor`` run :func:`main`.

The library sums its BLAS reductions in blocks that OpenBLAS keeps on the
calling thread, so the output bits do not depend on the thread count. Yet
an OpenBLAS helper thread still spins on a CPU while numpy is imported
(``import numpy`` took about 0.12 s of CPU with one thread and 0.19 s
with two on a 2-CPU VM), and every short CLI run pays that. So the CLI
loads numpy with one BLAS thread unless the caller sets
``OPENBLAS_NUM_THREADS``. The setting is made here, not on import, so the
library never changes the environment.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads

from .cli import cli_main  # noqa: E402


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
