"""Soft-error resilience: fault injection, integrity guards, durable
checkpoints.

Three cooperating pieces (see docs/architecture.md, "Soft errors,
integrity, and recovery"):

- :class:`FaultInjector` deterministically injects bit-flips / stuck
  values / stalls / raises across the gpusim, video, core and serve
  layers from a :class:`~repro.config.FaultPlan`;
- :class:`IntegrityGuard` validates MoG mixture-state invariants per
  frame under an :class:`~repro.config.IntegrityPolicy` and, in repair
  mode, re-initialises only the corrupted pixels from the current
  frame;
- :func:`write_checkpoint` / :func:`read_checkpoint` implement the
  CRC32-verified, schema-versioned, atomic-rename checkpoint files the
  serving path uses for crash-safe restore.
"""

from .checkpoint import (
    MAGIC,
    SCHEMA_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from .injector import FaultInjector, FaultyPipeline
from .integrity import (
    IntegrityGuard,
    IntegrityReport,
    find_corrupt_pixels,
    repair_pixels,
)

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "FaultInjector",
    "FaultyPipeline",
    "IntegrityGuard",
    "IntegrityReport",
    "find_corrupt_pixels",
    "read_checkpoint",
    "repair_pixels",
    "write_checkpoint",
]
