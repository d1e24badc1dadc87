"""Shared utilities: errors, validation helpers, RNG handling, formatting.

These are deliberately small and dependency-free (NumPy only) so that every
other subpackage can import them without cycles.
"""

from repro.util.errors import (
    ReproError,
    ShapeError,
    FormatError,
    ConfigError,
    DistributionError,
    NonFiniteError,
)
from repro.util.validation import (
    check_rank,
    check_mode,
    check_shape,
    as_index_array,
    as_value_array,
    require,
)
from repro.util.rng import resolve_rng, spawn_rngs
from repro.util.formatting import (
    format_bytes,
    format_count,
    format_seconds,
    format_table,
)
from repro.util.timer import Timer

__all__ = [
    "ReproError",
    "ShapeError",
    "FormatError",
    "ConfigError",
    "DistributionError",
    "NonFiniteError",
    "check_rank",
    "check_mode",
    "check_shape",
    "as_index_array",
    "as_value_array",
    "require",
    "resolve_rng",
    "spawn_rngs",
    "format_bytes",
    "format_count",
    "format_seconds",
    "format_table",
    "Timer",
]
