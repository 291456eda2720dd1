"""Program entry of ``python -m weaktensor`` and the ``weaktensor`` command.

The CLI's only BLAS calls are reductions over at most 2**20 entries, which
gain nothing from threads, while an idle OpenBLAS helper thread spins on a
CPU before it sleeps in every short run. So the CLI loads numpy with one
BLAS thread unless the caller sets ``OPENBLAS_NUM_THREADS``. The setting is
made here, not on import, so the library never changes the environment.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads

from .cli import main  # noqa: E402

if __name__ == "__main__":
    main()
