"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors such as
``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class LayerDefinitionError(ReproError):
    """A DNN layer was defined with inconsistent or non-physical dimensions."""


class GraphError(ReproError):
    """A model graph is malformed (cycles, unknown layer references, ...)."""


class MappingError(ReproError):
    """A dataflow mapping could not be constructed for a layer."""


class HardwareConfigError(ReproError):
    """An accelerator or sub-accelerator configuration is invalid."""


class PartitionError(ReproError):
    """A hardware resource partition violates the HDA definition constraints."""


class SchedulingError(ReproError):
    """A layer-execution schedule is invalid or could not be constructed."""


class WorkloadError(ReproError):
    """A multi-DNN workload specification is invalid."""


class SearchError(ReproError):
    """The design-space exploration was configured with invalid parameters."""


class SpecError(ReproError):
    """A declarative experiment spec is malformed.

    The message always starts with the dotted/indexed path of the offending
    value (``fleet.chips[2].num_pes: expected a positive int``), so a user can
    find the line in their experiment file without reading any source.
    """


class WorkerCrash(ReproError):
    """A worker process died.

    Classified as a ``"crash"`` :class:`~repro.exec.resilience.TaskFailure`:
    the task did not misbehave by itself — the process executing it went away
    — so retrying on a fresh worker is always legitimate.
    """


class WorkerHang(ReproError):
    """A task exceeded its execution-time budget.

    Classified as a ``"timeout"`` :class:`~repro.exec.resilience.TaskFailure`,
    the kind the process pool's stall watchdog and a chaos-injected hang
    record too.
    """


class TransientEvaluationError(ReproError):
    """A task evaluation failed in a way expected to succeed on retry.

    The canonical retryable error for evaluation code to raise.  Classified as an ``"error"``
    :class:`~repro.exec.resilience.TaskFailure` once retries are exhausted.
    """


class TaskExecutionError(ReproError):
    """One or more evaluation tasks failed after exhausting their retries.

    Raised by ``ExecutionBackend.run`` when failures remain after the retry
    budget (one attempt without a retry policy); carries the structured
    :class:`~repro.exec.resilience.TaskFailure` records so callers can log or
    surface exactly which tasks were lost.  Backends running in
    ``run_partial`` mode return the failures instead of raising.
    """

    def __init__(self, failures) -> None:
        self.failures = tuple(failures)
        preview = "; ".join(failure.describe() for failure in self.failures[:3])
        suffix = " ..." if len(self.failures) > 3 else ""
        super().__init__(
            f"{len(self.failures)} task(s) failed after retries: "
            f"{preview}{suffix}")


class CheckpointError(ReproError):
    """A sweep checkpoint file cannot be used (corrupted, wrong schema
    version, or recorded under a different sweep key)."""
