"""promptlab: a desk-scale laboratory for visual prompt tuning.

The package trains small prompt stacks against a frozen transformer encoder
on synthetic patch data, compares prompt-insertion strategies, and reports
base/novel accuracy tables. Everything is float64 numpy; the hot kernels
live in :mod:`promptlab.kernels`.

Importing the package asks glibc to keep freed heap pages (see
:func:`_keep_freed_heap_pages`).
"""

import ctypes

from .errors import (
    AggregationError,
    CheckpointError,
    ConfigError,
    DataError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    EvaluationError,
    InvariantError,
    PromptLabError,
)

__version__ = "0.1.0"

_M_TOP_PAD = -2  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_pages():
    """Keep up to 64 MiB of freed heap mapped, where libc has ``mallopt``.

    By default glibc returns the top of the heap to the kernel after a large
    free, so an array freed and allocated again, as every training step and
    evaluation tile does with its activations, faults all its pages back in.
    Setting M_TOP_PAD also turns off glibc's sliding mmap threshold, which
    would leave arrays over 128 KiB in mmap'd chunks that fault in on every
    allocation, so M_MMAP_THRESHOLD is pinned at that threshold's own ceiling
    on 64-bit glibc, 32 MiB.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_heap_pages()

__all__ = [
    "PromptLabError",
    "DimensionError",
    "DegenerateInputError",
    "EvaluationError",
    "ConfigError",
    "DataError",
    "CheckpointError",
    "InvariantError",
    "DivergenceError",
    "AggregationError",
    "__version__",
]
