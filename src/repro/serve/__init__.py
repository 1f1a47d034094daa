"""Multi-stream serving layer.

:class:`StreamServer` multiplexes N independent
:class:`~repro.core.stream.SurveillancePipeline` instances over a
bounded worker pool — per-stream bounded queues with explicit
backpressure, admission control, round-robin scheduling and per-stream
fault isolation. :class:`ShardedStreamServer` splits that engine
across N shard processes (each one thread-pool ``StreamServer``)
behind a shared-memory ingest gateway with consistent-hash placement,
checkpoint-based rebalancing and load shedding.
:class:`ServerController` closes the loop between telemetry and
configuration: windowed signals drive a per-stream degradation ladder
(relax guards -> downshift level -> switch model -> shed) with
hysteresis, every move logged deterministically. See
:mod:`repro.serve.server`, :mod:`repro.serve.sharded`,
:mod:`repro.serve.controller`, docs/architecture.md ("Multi-stream
serving"), docs/sharding.md and docs/operations.md.
"""

from .controller import (
    Rung,
    ServerController,
    Transition,
    WindowSignals,
    build_ladder,
    decide,
    load_quality_matrix,
    model_switch_tolerated,
)
from .server import StreamServer, serve_sequences
from .sharded import ConsistentHashRing, ShardedStreamServer

__all__ = [
    "ConsistentHashRing",
    "Rung",
    "ServerController",
    "ShardedStreamServer",
    "StreamServer",
    "Transition",
    "WindowSignals",
    "build_ladder",
    "decide",
    "load_quality_matrix",
    "model_switch_tolerated",
    "serve_sequences",
]
