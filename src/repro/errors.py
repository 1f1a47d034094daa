"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this package derive from :class:`ReproError`, so
callers can catch everything from the library with one ``except`` clause
while still letting genuine programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class LaunchError(ReproError):
    """A simulated kernel launch was malformed (grid/block mismatch,
    missing buffers, over-subscribed shared memory, ...)."""


class MemoryModelError(ReproError):
    """An access fell outside an allocated simulated buffer, or an
    allocation could not be satisfied."""


class KernelDivergenceError(ReproError):
    """The kernel DSL was used outside a kernel context, or control-flow
    contexts were closed out of order."""


class VideoError(ReproError):
    """A frame source produced inconsistent frames (shape/dtype drift),
    or a scene configuration is unsatisfiable."""


class MetricError(ReproError, ValueError):
    """Inputs to a quality metric were unusable (wrong shape, too small
    for the requested number of scales, ...)."""


class BackpressureError(ReproError):
    """A frame could not be admitted to a stream's bounded input queue:
    the queue is full under the ``"reject"`` policy, or a ``"block"``
    submit did not find space within its timeout.

    Attributes
    ----------
    stream_id:
        Id of the stream whose queue rejected the frame.
    """

    def __init__(self, message: str, stream_id: str | None = None) -> None:
        super().__init__(message)
        self.stream_id = stream_id


class IntegrityError(ReproError):
    """Mixture-state integrity was violated: the validator found
    non-finite fields, weights outside their provable bounds, or
    variances outside the clamp range (a soft error reached the model),
    or the simulated ECC hit an uncorrectable multi-bit memory error.

    Attributes
    ----------
    frame_index:
        Frame at which the violation was detected, or ``None``.
    pixels:
        Number of pixels flagged, or ``None``.
    """

    def __init__(
        self,
        message: str,
        frame_index: int | None = None,
        pixels: int | None = None,
    ) -> None:
        super().__init__(message)
        self.frame_index = frame_index
        self.pixels = pixels


class CheckpointError(ReproError):
    """A durable checkpoint could not be written, or a checkpoint file
    failed validation on read: bad magic, unsupported schema version,
    truncation, CRC mismatch, or a configuration mismatch with the
    model being restored."""


class InjectedFault(ReproError):
    """An error deliberately raised by the fault-injection harness
    (:class:`repro.faults.FaultInjector` in serve-layer ``"raise"``
    mode) — lets tests distinguish injected failures from real ones."""


class WorkerError(ReproError):
    """A serving worker failed: a stream's pipeline raised and the
    fault policy marked the stream failed, a shard process died or did
    not answer within its timeout, or no shard is left to place a
    stream on."""
