"""Exception taxonomy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration problems from runtime-model violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed with invalid or inconsistent parameters."""


class PlatformError(ConfigurationError):
    """A platform/topology description is invalid (e.g. no host device)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SchedulingError(ReproError):
    """A scheduler produced an invalid decision (unknown device, etc.)."""


class DependenceError(ReproError):
    """Task dependence analysis failed (e.g. malformed data regions)."""


class MemoryModelError(ReproError):
    """The multi-memory-space coherence model was driven inconsistently."""


class PartitioningError(ReproError):
    """A partitioning strategy could not produce a valid plan."""


class StrategyInapplicableError(PartitioningError):
    """The requested strategy is not applicable to the application class.

    Raised for instance when ``SP-Single`` is requested for a multi-kernel
    application, or a static strategy for an MK-DAG application.
    """


class ClassificationError(ReproError):
    """An application kernel structure could not be classified."""


class ExperimentError(ReproError):
    """A benchmark/experiment driver was misconfigured."""


class DistributedSweepError(ReproError):
    """A distributed sweep could not complete (workers unreachable/failed)."""


class WorkerProtocolError(DistributedSweepError):
    """A distrib frame was malformed, truncated, or version-incompatible."""
