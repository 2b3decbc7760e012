"""promptlab: a desk-scale laboratory for visual prompt tuning.

The package trains small prompt stacks against a frozen transformer encoder
on synthetic patch data, compares prompt-insertion strategies, and reports
base/novel accuracy tables. Everything is float64 numpy; the hot kernels
live in :mod:`promptlab.kernels`.
"""

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
