"""Point the interpreter at the promptlab sources of this checkout.

Every benchmark entry point calls :func:`prepare` before anything imports
numpy: BLAS reads its thread count once, when it loads.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread: on a 2-core x86-64 VM it gives the same digests as two
# threads and is no slower.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin the BLAS thread count and import promptlab from ``<root>/src``.

    Exits with status 1 when the sources are missing, so that a copy of the
    benchmark without the program never reports a result.
    """
    if not os.path.isfile(os.path.join(SRC, "promptlab", "__init__.py")):
        sys.exit(f"perfbench: no promptlab sources under {SRC}")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
