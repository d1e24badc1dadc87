"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` from misuse of NumPy, etc.)
propagate unchanged.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ShapeError(ReproError, ValueError):
    """An array or tensor has an incompatible shape or dimensionality."""


class FormatError(ReproError, ValueError):
    """A sparse-format invariant is violated (bad pointers, unsorted, ...)."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value (block size, machine spec, grid...)."""


class NonFiniteError(ReproError, ValueError):
    """A tensor value is NaN or infinite; rejected at construction so it
    cannot surface later as a ``LinAlgError`` from the ALS solve."""


class DistributionError(ReproError, RuntimeError):
    """An error in the simulated distributed substrate (bad grid, mismatched
    collective participation, ...)."""


class RegistrationError(ReproError, ValueError):
    """A kernel registration conflict (duplicate registry name, missing or
    invalid kernel name)."""


class ScheduleError(ReproError, RuntimeError):
    """A parallel schedule is unsound: its per-worker output row ranges
    leave a gap or overlap (PL401/PL402, see
    :func:`repro.perf.parallel.partition_rows`)."""


class CancelledError(ReproError, RuntimeError):
    """An execution was cancelled through a
    :class:`repro.exec.CancellationToken` before it completed."""


class ServeError(ReproError, RuntimeError):
    """Base class for errors raised by the :mod:`repro.serve` service
    layer (protocol violations, admission rejections, deadline expiry)."""
