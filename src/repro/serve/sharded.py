"""Sharded multi-process serving: N shard processes behind a gateway.

:class:`ShardedStreamServer` splits :class:`~repro.serve.StreamServer`
across processes: the parent process is a thin *ingest gateway* and each of
``serve.shards`` child processes hosts one thread-pool ``StreamServer``
as its intra-shard engine — so every per-stream guarantee (strict
submission order, fault isolation, durable checkpoints) is inherited,
and masks stay bit-identical to a serial
:class:`~repro.core.stream.SurveillancePipeline` run.

Data plane
----------
Frames travel gateway -> shard over a per-shard shared-memory ring
(:class:`~repro.serve.ring.FrameRing`): one memcpy into the ring,
one out, no pickling, and polling-only synchronisation so a SIGKILLed
peer can never wedge a lock. Results (masks bit-packed 8:1), checkpoint
notices and failure notices return over a pipe, consumed by one
collector thread per shard.

Placement & rebalancing
-----------------------
Streams are placed on shards by consistent hashing over virtual nodes
(``serve.placement="hash"``; ``"round_robin"`` round-robins instead).
When a shard process dies, only *its* streams move: with durable
checkpoints enabled each victim stream is re-admitted on a surviving
shard, restored from its last checkpoint, and the gateway *replays*
every frame submitted after that checkpoint from its replay buffer —
the mask sequence each client observes is bit-identical to an
uninterrupted run. Without checkpoints, ``FaultPolicy.policy=
"restart"`` re-admits victims fresh (model state resets, counted in
``server.rebalanced_fresh``) and anything else fails them cleanly.

Admission control & shedding
----------------------------
``serve.max_streams`` is enforced gateway-wide (atomically, via the
same reservation scheme as the thread server). ``serve.shed_inflight``
caps each stream's in-flight frames at the gateway; over the cap,
``serve.shed_policy`` either rejects the submit or drops the frame
(``server.frames_shed``). Submission latency (submit -> result emitted)
is recorded in the ``server.latency_s`` histogram.

Telemetry: :meth:`ShardedStreamServer.snapshot` merges every shard's
snapshot re-keyed as ``server.shard.<k>.*`` (streams keep their
``stream.<id>.*`` keys) with the gateway's own rollups
(``server.rebalanced``, ``server.shard_deaths``, ``server.frames_shed``,
``server.shards_active``, ``server.latency_s``).
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing as mp
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..config import (
    FaultPolicy,
    MoGParams,
    RunConfig,
    ServeConfig,
    TelemetryConfig,
)
from ..core.stream import StreamResult
from ..errors import (
    BackpressureError,
    CheckpointError,
    ConfigError,
    WorkerError,
)
from .ring import FrameRing
from ..telemetry import MetricsRegistry

_RPC_ERRORS = {
    "ConfigError": ConfigError,
    "CheckpointError": CheckpointError,
    "BackpressureError": BackpressureError,
    "WorkerError": WorkerError,
}


def _stable_hash(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Stream -> shard placement with minimal movement on shard death.

    Each shard contributes ``vnodes`` virtual points on a hash ring;
    a stream lands on the first point clockwise of its own hash. When
    a shard is removed only the streams that hashed to *its* points
    move (to their next surviving neighbour) — the invariant the
    rebalance path relies on.
    """

    def __init__(self, nodes: Iterable[int], vnodes: int = 64) -> None:
        self._vnodes = vnodes
        self._points: list[tuple[int, int]] = []
        for node in nodes:
            self.add(node)

    def add(self, node: int) -> None:
        for v in range(self._vnodes):
            point = (_stable_hash(f"shard-{node}#{v}"), node)
            bisect.insort(self._points, point)

    def remove(self, node: int) -> None:
        self._points = [p for p in self._points if p[1] != node]

    @property
    def nodes(self) -> list[int]:
        return sorted({node for _, node in self._points})

    def place(self, key: str) -> int:
        if not self._points:
            raise WorkerError("no shards alive to place streams on")
        h = _stable_hash(key)
        idx = bisect.bisect_left(self._points, (h, -1))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]


class _RoundRobinPlacement:
    """Cycle over the alive shard set (fallback placement)."""

    def __init__(self, nodes: Iterable[int]) -> None:
        self._nodes = sorted(nodes)
        self._cursor = 0

    def add(self, node: int) -> None:
        if node not in self._nodes:
            self._nodes = sorted(self._nodes + [node])

    def remove(self, node: int) -> None:
        self._nodes = [n for n in self._nodes if n != node]

    @property
    def nodes(self) -> list[int]:
        return list(self._nodes)

    def place(self, key: str) -> int:
        if not self._nodes:
            raise WorkerError("no shards alive to place streams on")
        node = self._nodes[self._cursor % len(self._nodes)]
        self._cursor += 1
        return node


# ---------------------------------------------------------------------------
# Shard process
# ---------------------------------------------------------------------------

def _shard_main(index, ctrl, events, ring_name, shape, dtype_str,
                ring_slots, server_kwargs):
    """Shard body: pump the ingest ring and control pipe into an
    in-process :class:`StreamServer`, stream results/notices back.

    Protocol (gateway -> shard, over ``ctrl``; every request gets one
    ``("ok", payload)`` / ``("err", type_name, message)`` reply):
    ``("add_stream", sid, uid, model, scenario)``,
    ``("remove_stream", sid)``, ``("snapshot",)``, ``("status",)``,
    ``("controller_log",)``, ``("drain", timeout_s)``, ``("close",)``.
    Shard -> gateway, over ``events``:
    ``("res", [(sid, seq, frame_index, packed_mask, packed_raw,
    degraded, error, tracks), ...])`` (one message per pump pass),
    ``("ckpt", sid, frame_index, source_seq)``,
    ``("shed", sid, seq)`` (the shard's runtime controller shed the
    frame: consumed, no result coming),
    ``("failed", sid, error)``.
    """
    from .server import StreamServer

    try:
        ring = FrameRing.attach(
            ring_name, shape, np.dtype(dtype_str), ring_slots
        )
        server = StreamServer(**server_kwargs)
    except Exception as exc:
        try:
            ctrl.send(("init_error", repr(exc)))
        except Exception:
            pass
        return

    def _send(msg) -> None:
        try:
            events.send(msg)
        except Exception:
            pass

    server.on_checkpoint = lambda sid, fi, seq: _send(
        ("ckpt", sid, int(fi), int(seq))
    )
    uid_to_sid: dict[int, str] = {}
    pending: dict[str, deque[int]] = {}  # gateway seqs awaiting results
    known_failed: set[str] = set()

    def check_failures() -> None:
        for s in server.stream_status():
            sid = s["stream"]
            if s["failed"] and sid not in known_failed:
                known_failed.add(sid)
                if sid in pending:
                    pending[sid].clear()
                if sid in holdback:
                    holdback[sid].clear()
                _send(("failed", sid, s["failed"]))

    # Frames a full stream queue rejected, awaiting retry. Buffering
    # here instead of blocking in submit keeps one slow stream from
    # head-of-line-blocking every other stream on the shard.
    holdback: dict[str, deque] = {}

    def _try_submit(sid: str, seq: int, frame) -> bool:
        """Submit one frame; False means the queue is full (retry)."""
        try:
            admitted = server.submit(sid, frame)
        except BackpressureError:
            return False
        except Exception:
            check_failures()
            return True  # stream is gone/failed: the frame is consumed
        if not admitted:
            # Shards run backpressure="reject", so a False return can
            # only mean the runtime controller's shed rung dropped the
            # frame: consumed, no result coming. Tell the gateway so it
            # trims the frame from the stream's in-flight window
            # (otherwise drain would wait on it forever).
            _send(("shed", sid, seq))
            return True
        pending[sid].append(seq)
        return True

    def ingest(item) -> None:
        uid, seq, frame = item
        sid = uid_to_sid.get(uid)
        if sid is None or sid in known_failed:
            return
        hb = holdback.get(sid)
        if hb:  # keep per-stream order: older frames go first
            hb.append((seq, frame))
            return
        if not _try_submit(sid, seq, frame):
            holdback.setdefault(sid, deque()).append((seq, frame))

    def flush_holdback() -> int:
        moved = 0
        for sid, hb in holdback.items():
            if sid in known_failed:
                hb.clear()
                continue
            while hb:
                seq, frame = hb[0]
                if not _try_submit(sid, seq, frame):
                    break
                hb.popleft()
                moved += 1
        return moved

    def pump_results() -> int:
        # One pipe message per pump pass, not per result: each message
        # costs a shard-side write, a gateway collector wake-up and the
        # cache refills of two context switches, so batching results
        # (a worker finishing a batch_frames run produces several at
        # once) measurably lowers per-frame overhead.
        batch = []
        for sid, seqs in pending.items():
            if not seqs:
                continue  # nothing in flight for this stream
            for r in server.results(sid):
                seq = seqs.popleft() if seqs else -1
                batch.append((
                    sid, int(seq), int(r.frame_index),
                    np.packbits(r.mask), np.packbits(r.raw_mask),
                    bool(r.degraded), r.error, r.tracks,
                ))
        if batch:
            _send(("res", batch))
        return len(batch)

    ctrl.send(("ready", os.getpid()))
    running = True
    spins = 0
    idle_wait = 0.002
    while running:
        progress = 0
        try:
            while ctrl.poll(0):
                msg = ctrl.recv()
                progress += 1
                op = msg[0]
                if op == "add_stream":
                    _, sid, uid, model, scenario = msg
                    try:
                        server.add_stream(sid, model=model, scenario=scenario)
                        uid_to_sid[uid] = sid
                        pending.setdefault(sid, deque())
                        known_failed.discard(sid)
                        status = {
                            s["stream"]: s for s in server.stream_status()
                        }[sid]
                        ctrl.send(("ok", {
                            "frame_index": status["frame_index"],
                            "model": status["model"],
                            "resumed_source_seq":
                                status["resumed_source_seq"],
                            "resume_note": status["resume_note"],
                        }))
                    except Exception as exc:
                        ctrl.send(("err", type(exc).__name__, str(exc)))
                elif op == "remove_stream":
                    _, sid = msg
                    try:
                        pump_results()
                        server.remove_stream(sid)
                        pending.pop(sid, None)
                        holdback.pop(sid, None)
                        uid_to_sid = {
                            u: s for u, s in uid_to_sid.items() if s != sid
                        }
                        ctrl.send(("ok", None))
                    except Exception as exc:
                        ctrl.send(("err", type(exc).__name__, str(exc)))
                elif op == "snapshot":
                    ctrl.send(("ok", server.snapshot()))
                elif op == "status":
                    ctrl.send(("ok", server.stream_status()))
                elif op == "controller_log":
                    ctrl.send(("ok", server.controller_log()))
                elif op == "drain":
                    _, timeout_s = msg
                    try:
                        deadline = time.monotonic() + timeout_s
                        while True:
                            item = ring.pop(timeout_s=0)
                            if item is None:
                                break
                            ingest(item)
                        wait = 0.0005
                        while (any(holdback.values())
                               and time.monotonic() < deadline):
                            if flush_holdback():
                                wait = 0.0005
                            else:
                                # Queues are full: the worker needs the
                                # CPU more than this loop does.
                                time.sleep(wait)
                                wait = min(wait * 2, 0.008)
                            pump_results()
                        server.drain(
                            timeout_s=max(0.001, deadline - time.monotonic())
                        )
                        pump_results()
                        check_failures()
                        ctrl.send(("ok", None))
                    except Exception as exc:
                        ctrl.send(("err", type(exc).__name__, str(exc)))
                elif op == "close":
                    ctrl.send(("ok", None))
                    running = False
                else:
                    ctrl.send(("err", "ConfigError", f"unknown op {op!r}"))
        except (EOFError, OSError):
            running = False  # gateway is gone; shut down
        progress += flush_holdback()
        if sum(len(h) for h in holdback.values()) < 4 * ring.capacity:
            for _ in range(32):
                item = ring.pop(timeout_s=0)
                if item is None:
                    break
                progress += 1
                ingest(item)
        progress += pump_results()
        # Scanning stream status is cheap but not free; on a busy shard
        # the loop runs thousands of times per second and the scan would
        # compete with worker threads for the interpreter, so failures
        # are only checked every Nth quiet-ish iteration.
        spins += 1
        if spins >= 64:
            spins = 0
            check_failures()
        if not progress and running:
            # Idle: park on the control pipe so RPCs wake the loop
            # immediately while ring pushes are picked up at the next
            # wake. Repeated idles back off so a compute-bound worker
            # thread is not preempted twice a millisecond.
            try:
                ctrl.poll(idle_wait)
            except OSError:
                running = False
            idle_wait = min(idle_wait * 2, 0.016)
        else:
            idle_wait = 0.002
    try:
        server.close(drain=False)
    except Exception:
        pass
    ring.close()


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

class _ShardHandle:
    """Parent-side view of one shard process."""

    __slots__ = (
        "index", "ring", "process", "ctrl", "events",
        "rpc_lock", "producer_lock", "collector",
    )

    def __init__(self, ctx, index, ring, shard_args) -> None:
        self.index = index
        self.ring = ring
        parent_ctrl, child_ctrl = ctx.Pipe()
        ev_recv, ev_send = ctx.Pipe(duplex=False)
        self.ctrl = parent_ctrl
        self.events = ev_recv
        self.rpc_lock = threading.Lock()       # one RPC in flight
        self.producer_lock = threading.Lock()  # ring is single-producer
        self.collector: threading.Thread | None = None
        self.process = ctx.Process(
            target=_shard_main,
            args=(index, child_ctrl, ev_send, ring.name, *shard_args),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self.process.start()
        child_ctrl.close()
        ev_send.close()


class _GatewayStream:
    """Gateway book-keeping for one stream (guarded by the gateway
    lock except the ring push)."""

    __slots__ = (
        "stream_id", "uid", "shard", "seq_next", "inflight", "replay",
        "emitted_fi", "emitted", "results", "failed", "moving", "shed",
        "rebalances", "resumed_source_seq", "resume_note",
        "model", "model_override", "scenario",
    )

    def __init__(self, stream_id: str, uid: int, shard: int,
                 replay_enabled: bool,
                 model_override: str | None = None,
                 scenario: str | None = None) -> None:
        self.stream_id = stream_id
        self.uid = uid
        self.shard = shard
        # The model= argument passed at add_stream (re-sent verbatim on
        # rebalance) and the family the shard resolved it to.
        self.model_override = model_override
        self.model: str | None = None
        # Scenario tag for the shard's runtime controller (re-sent
        # verbatim on rebalance, like the model override).
        self.scenario = scenario
        self.seq_next = 0
        self.inflight: deque[tuple[int, float]] = deque()
        # seq -> frame, every frame since the last durable checkpoint
        # (trimmed on "ckpt" notices); None when checkpoints are off.
        self.replay: dict[int, np.ndarray] | None = (
            {} if replay_enabled else None
        )
        self.emitted_fi = -1
        self.emitted = 0
        self.results: deque[StreamResult] = deque()
        self.failed: str | None = None
        self.moving = False
        self.shed = 0
        self.rebalances = 0
        self.resumed_source_seq = -1
        self.resume_note: str | None = None


class ShardedStreamServer:
    """N shard processes, each a thread-pool :class:`StreamServer`,
    behind an ingest gateway.

    Construction mirrors :class:`StreamServer` (``serve.shards`` must
    be >= 1); ``frame_dtype`` fixes the wire dtype of the shared-memory
    rings (frames are converted on submit — pick the dtype your source
    produces to keep masks bit-identical with a serial run feeding the
    same frames).

    Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: MoGParams | None = None,
        level: str = "F",
        backend: str | None = None,
        model: str | None = None,
        run_config: RunConfig | None = None,
        serve: ServeConfig | None = None,
        fault_policy: FaultPolicy | None = None,
        telemetry: TelemetryConfig | None = None,
        warmup_frames: int = 15,
        integrity=None,
        frame_dtype=np.float64,
    ) -> None:
        self.shape = tuple(shape)
        self.serve_config = serve or ServeConfig(shards=2)
        if self.serve_config.shards < 1:
            raise ConfigError(
                "ShardedStreamServer requires serve.shards >= 1 "
                f"(got {self.serve_config.shards})"
            )
        self.backend = backend or self.serve_config.backend or "cpu"
        self.model = model or self.serve_config.model
        self.fault_policy = fault_policy or FaultPolicy(stage_error="degrade")
        self.telemetry_config = telemetry or TelemetryConfig()
        self.registry = MetricsRegistry(self.telemetry_config)
        self._dtype = np.dtype(frame_dtype)
        self._ckpt_enabled = bool(
            self.serve_config.checkpoint_every
            and self.serve_config.checkpoint_dir
        )
        self._checkpoint_dir: Path | None = (
            Path(self.serve_config.checkpoint_dir)
            if self.serve_config.checkpoint_dir is not None
            else None
        )

        # The intra-shard engine config: in-process thread server,
        # rejecting backpressure (the shard loop holds rejected frames
        # back locally and retries, so one full stream queue never
        # head-of-line-blocks the other streams on the shard; pressure
        # still propagates ring -> gateway once the holdback fills),
        # no nested sharding/shedding. Shards resume whenever durable
        # checkpoints are enabled so a rebalanced stream restores even
        # if the gateway itself was started without --resume.
        shard_serve = self.serve_config.replace(
            shards=0,
            shard_backend=None,
            backend=self.serve_config.shard_backend or self.backend,
            backpressure="reject",
            shed_inflight=0,
            resume=self.serve_config.resume or self._ckpt_enabled,
        )
        server_kwargs = dict(
            shape=self.shape,
            params=params,
            level=level,
            model=self.model,
            run_config=run_config,
            serve=shard_serve,
            fault_policy=self.fault_policy,
            telemetry=self.telemetry_config,
            warmup_frames=warmup_frames,
            integrity=integrity,
        )

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self._lock = threading.Lock()
        self._moved = threading.Condition(self._lock)  # rebalance done
        self._streams: dict[str, _GatewayStream] = {}
        self._reserved: set[str] = set()
        self._uid_next = 0
        self._closed = False
        self._closing = False
        self._shards: list[_ShardHandle | None] = []
        self._dead: list[_ShardHandle] = []

        shard_args = (
            self.shape, self._dtype.str, self.serve_config.ring_slots,
            server_kwargs,
        )
        try:
            for k in range(self.serve_config.shards):
                ring = FrameRing.create(
                    self.shape, self._dtype, self.serve_config.ring_slots
                )
                self._shards.append(
                    _ShardHandle(self._ctx, k, ring, shard_args)
                )
            for handle in self._shards:
                self._probe(handle)
        except BaseException:
            self._teardown_processes()
            raise

        if self.serve_config.placement == "round_robin":
            self._placement = _RoundRobinPlacement(range(len(self._shards)))
        else:
            self._placement = ConsistentHashRing(range(len(self._shards)))
        self.registry.gauge("server.shards_active").set(len(self._shards))
        for handle in self._shards:
            t = threading.Thread(
                target=self._collect_loop,
                args=(handle.index, handle),
                name=f"repro-shard-collect-{handle.index}",
                daemon=True,
            )
            handle.collector = t
            t.start()

    # -- shard plumbing ------------------------------------------------
    def _probe(self, handle: _ShardHandle) -> None:
        if not handle.ctrl.poll(30.0):
            raise WorkerError(
                f"shard {handle.index} did not come up within 30s"
            )
        msg = handle.ctrl.recv()
        if msg[0] != "ready":
            raise WorkerError(
                f"shard {handle.index} failed to initialise: {msg[1]}"
            )

    def _rpc(self, handle: _ShardHandle, msg: tuple, timeout_s: float):
        """One control-plane request/reply on a shard; raises the typed
        error a shard reports, or :class:`WorkerError` if the shard is
        unresponsive/dead."""
        with handle.rpc_lock:
            try:
                handle.ctrl.send(msg)
                if not handle.ctrl.poll(timeout_s):
                    raise WorkerError(
                        f"shard {handle.index} did not answer {msg[0]!r} "
                        f"within {timeout_s:g}s"
                    )
                reply = handle.ctrl.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise WorkerError(
                    f"shard {handle.index} is unreachable: {exc!r}"
                ) from exc
        if reply[0] == "ok":
            return reply[1]
        _, type_name, message = reply
        raise _RPC_ERRORS.get(type_name, WorkerError)(message)

    def _teardown_processes(self) -> None:
        for handle in list(self._shards) + self._dead:
            if handle is None:
                continue
            proc = handle.process
            if proc.is_alive():
                proc.terminate()
                proc.join(2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
            for conn in (handle.ctrl, handle.events):
                try:
                    conn.close()
                except Exception:
                    pass
            handle.ring.close()

    # -- collector thread ----------------------------------------------
    def _collect_loop(self, k: int, handle: _ShardHandle) -> None:
        conn = handle.events
        while True:
            try:
                if conn.poll(0.05):
                    msg = conn.recv()
                elif not handle.process.is_alive() and not conn.poll(0):
                    break
                else:
                    continue
            except (EOFError, OSError):
                break
            try:
                self._on_event(msg)
            except Exception:
                self.registry.counter("server.collector_errors").inc()
        if not self._closing:
            self._on_shard_death(k, handle)

    def _on_event(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "res":
            for item in msg[1]:
                self._on_result(item)
        elif kind == "shed":
            _, sid, seq = msg
            with self._lock:
                st = self._streams.get(sid)
                if st is not None:
                    st.inflight = deque(
                        (s, t) for s, t in st.inflight if s != seq
                    )
            self.registry.counter("server.frames_shed").inc()
        elif kind == "ckpt":
            _, sid, _fi, source_seq = msg
            with self._lock:
                st = self._streams.get(sid)
                if st is not None and st.replay is not None:
                    for seq in [s for s in st.replay if s <= source_seq]:
                        del st.replay[seq]
        elif kind == "failed":
            _, sid, err = msg
            with self._lock:
                st = self._streams.get(sid)
                if st is not None:
                    self._fail_stream_locked(st, err)

    def _on_result(self, msg: tuple) -> None:
        sid, seq, fi, packed, packed_raw, degraded, error, tracks = msg
        npix = self.shape[0] * self.shape[1]
        mask = np.unpackbits(packed, count=npix).astype(bool)
        mask = mask.reshape(self.shape)
        raw = np.unpackbits(packed_raw, count=npix).astype(bool)
        raw = raw.reshape(self.shape)
        now = time.monotonic()
        with self._lock:
            st = self._streams.get(sid)
            if st is None or st.failed is not None:
                return
            while st.inflight and st.inflight[0][0] <= seq:
                s2, t2 = st.inflight.popleft()
                if s2 == seq:
                    self.registry.histogram("server.latency_s").observe(
                        now - t2
                    )
            if fi <= st.emitted_fi:
                return  # duplicate from a rebalance replay
            st.emitted_fi = fi
            st.emitted += 1
            st.results.append(StreamResult(
                frame_index=fi, raw_mask=raw, mask=mask, tracks=tracks,
                degraded=degraded, error=error,
            ))
            self.registry.counter("server.frames_total").inc()

    def _fail_stream_locked(self, st: _GatewayStream, err: str) -> None:
        if st.failed is not None:
            return
        st.failed = err
        st.inflight.clear()
        if st.replay is not None:
            st.replay.clear()
        self.registry.counter("server.streams_failed").inc()

    # -- shard death & rebalancing -------------------------------------
    def _on_shard_death(self, k: int, handle: _ShardHandle) -> None:
        with self._lock:
            if self._closing or self._shards[k] is None:
                return
            self._shards[k] = None
            # Ring/pipes are reclaimed at close(): a submitter may still
            # be blocked inside the dead ring's buffer.
            self._dead.append(handle)
            self._placement.remove(k)
            self.registry.counter("server.shard_deaths").inc()
            self.registry.gauge("server.shards_active").set(
                sum(h is not None for h in self._shards)
            )
            victims = [
                st for st in self._streams.values()
                if st.shard == k and st.failed is None
            ]
            for st in victims:
                st.moving = True
        for st in victims:
            try:
                self._rebalance_stream(st)
            except Exception as exc:
                with self._lock:
                    self._fail_stream_locked(
                        st, f"rebalance failed: {exc!r}"
                    )
        with self._lock:
            for st in victims:
                st.moving = False
            self._moved.notify_all()

    def _rebalance_stream(self, st: _GatewayStream) -> None:
        """Move one victim stream to a surviving shard per the fault
        policy: checkpoint-restore + replay (bit-identical), fresh
        re-admission (no checkpoints), or clean failure."""
        policy = self.fault_policy
        with self._lock:
            alive = any(h is not None for h in self._shards)
        if (
            not alive
            or policy.policy != "restart"
            or st.rebalances >= policy.max_restarts
        ):
            with self._lock:
                self._fail_stream_locked(
                    st, "shard died (fault policy does not rebalance)"
                )
            return
        new_k = self._placement.place(st.stream_id)
        with self._lock:
            handle = self._shards[new_k]
        if handle is None:
            raise WorkerError(f"placement chose dead shard {new_k}")
        reply = self._rpc(
            handle,
            ("add_stream", st.stream_id, st.uid, st.model_override,
             st.scenario),
            timeout_s=self.serve_config.drain_timeout_s,
        )
        restored_seq = int(reply["resumed_source_seq"])
        now = time.monotonic()
        if self._ckpt_enabled and st.replay is not None:
            pending = sorted(s for s in st.replay if s > restored_seq)
            expected = list(range(restored_seq + 1, st.seq_next))
            if pending != expected:
                raise WorkerError(
                    f"replay gap for stream {st.stream_id!r}: checkpoint "
                    f"is at seq {restored_seq}, replay buffer holds "
                    f"{pending[:4]}..."
                )
            with self._lock:
                for seq in [s for s in st.replay if s <= restored_seq]:
                    del st.replay[seq]
                st.inflight = deque((s, now) for s in pending)
                st.shard = new_k
                # Snapshot now: the new shard's collector may trim the
                # replay buffer (checkpoint notices) while we push.
                to_push = [(s, st.replay[s]) for s in pending]
            for seq, frame in to_push:
                with handle.producer_lock:
                    ok = handle.ring.push(
                        st.uid, seq, frame,
                        timeout_s=self.serve_config.submit_timeout_s,
                    )
                if not ok:
                    raise WorkerError(
                        f"replay into shard {new_k} timed out at seq {seq}"
                    )
        else:
            # No durable state to restore: the stream restarts fresh on
            # the new shard (frame_index and model state reset).
            with self._lock:
                st.inflight.clear()
                st.seq_next = 0
                st.emitted_fi = -1
                st.shard = new_k
                st.resume_note = "rebalanced fresh (no checkpoint)"
            self.registry.counter("server.rebalanced_fresh").inc()
        with self._lock:
            st.rebalances += 1
        self.registry.counter("server.rebalanced").inc()

    # -- stream registration -------------------------------------------
    def add_stream(self, stream_id: str, model: str | None = None,
                   scenario: str | None = None) -> None:
        """Register a stream on its placed shard; raises on duplicates
        or over-admission (gateway-wide ``max_streams``). Injected
        pipelines are not supported across process boundaries — shards
        always build their own. ``model`` overrides the server's
        default background-model family for this stream; ``scenario``
        tags its content class for the shard's runtime controller
        (both re-sent verbatim when the stream is rebalanced to
        another shard)."""
        if not stream_id or not isinstance(stream_id, str):
            raise ConfigError(
                f"stream id must be a non-empty string, got {stream_id!r}"
            )
        if "." in stream_id:
            raise ConfigError(
                f"stream id must not contain '.', got {stream_id!r} "
                "(ids become telemetry label segments)"
            )
        with self._lock:
            if self._closed:
                raise ConfigError("ShardedStreamServer is closed")
            if stream_id in self._streams or stream_id in self._reserved:
                raise ConfigError(f"stream {stream_id!r} already registered")
            if (
                len(self._streams) + len(self._reserved)
                >= self.serve_config.max_streams
            ):
                raise ConfigError(
                    f"cannot admit stream {stream_id!r}: server is at its "
                    f"max_streams limit ({self.serve_config.max_streams})"
                )
            self._reserved.add(stream_id)
            uid = self._uid_next
            self._uid_next += 1
        try:
            if (
                self._ckpt_enabled
                and not self.serve_config.resume
                and self._checkpoint_dir is not None
            ):
                # Shards resume whenever checkpointing is on (for the
                # rebalance path); without --resume a stale file from a
                # previous run must not leak into this one.
                try:
                    (self._checkpoint_dir / f"{stream_id}.ckpt").unlink()
                except OSError:
                    pass
            shard = self._placement.place(stream_id)
            with self._lock:
                handle = self._shards[shard]
            if handle is None:
                raise WorkerError(f"placement chose dead shard {shard}")
            reply = self._rpc(
                handle, ("add_stream", stream_id, uid, model, scenario),
                timeout_s=self.serve_config.drain_timeout_s,
            )
        except BaseException:
            with self._lock:
                self._reserved.discard(stream_id)
            raise
        with self._lock:
            self._reserved.discard(stream_id)
            if self._closed:
                raise ConfigError("ShardedStreamServer is closed")
            st = _GatewayStream(
                stream_id, uid, shard, replay_enabled=self._ckpt_enabled,
                model_override=model, scenario=scenario,
            )
            st.model = reply.get("model")
            if self.serve_config.resume:
                st.resumed_source_seq = int(reply["resumed_source_seq"])
                st.resume_note = reply["resume_note"]
                if st.resumed_source_seq >= 0:
                    st.seq_next = st.resumed_source_seq + 1
                    st.emitted_fi = int(reply["frame_index"])
            self._streams[stream_id] = st
            self.registry.gauge("server.streams_active").set(
                len(self._streams)
            )

    def remove_stream(self, stream_id: str) -> list[StreamResult]:
        """Deregister a stream, returning its uncollected results."""
        with self._lock:
            st = self._require_locked(stream_id)
            while st.moving:
                self._moved.wait(self.serve_config.drain_timeout_s)
            handle = self._shards[st.shard] if st.failed is None else None
        if handle is not None:
            try:
                self._rpc(
                    handle, ("remove_stream", stream_id),
                    timeout_s=self.serve_config.drain_timeout_s,
                )
            except WorkerError:
                pass  # shard died; collector handles the fallout
        with self._lock:
            st = self._streams.pop(stream_id, st)
            self.registry.gauge("server.streams_active").set(
                len(self._streams)
            )
            return list(st.results)

    def _require_locked(self, stream_id: str) -> _GatewayStream:
        st = self._streams.get(stream_id)
        if st is None:
            raise ConfigError(f"unknown stream {stream_id!r}")
        return st

    # -- submission ----------------------------------------------------
    def submit(
        self, stream_id: str, frame: np.ndarray,
        timeout_s: float | None = None,
    ) -> bool:
        """Queue one frame for ``stream_id`` on its shard.

        Returns ``True`` when the frame was admitted, ``False`` when
        the gateway shed it (``shed_policy="drop"`` over
        ``shed_inflight``). Raises
        :class:`~repro.errors.BackpressureError` under
        ``shed_policy="reject"`` or when the shard's ring stays full
        past the timeout, and :class:`~repro.errors.WorkerError` for a
        failed stream.
        """
        cfg = self.serve_config
        if timeout_s is None:
            timeout_s = cfg.submit_timeout_s
        deadline = time.monotonic() + timeout_s
        frame = np.asarray(frame)
        if (frame.dtype != self._dtype
                and not np.can_cast(frame.dtype, self._dtype,
                                    casting="safe")):
            raise ConfigError(
                f"frame dtype {frame.dtype} cannot be carried losslessly "
                f"on a {self._dtype} ring (pass frame_dtype="
                f"{frame.dtype} at construction)"
            )
        frame = np.ascontiguousarray(frame, dtype=self._dtype)
        if frame.shape != self.shape:
            raise ConfigError(
                f"frame shape {frame.shape} != server shape {self.shape}"
            )
        with self._lock:
            if self._closed:
                raise ConfigError("ShardedStreamServer is closed")
            st = self._require_locked(stream_id)
            while st.moving:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._moved.wait(remaining):
                    raise BackpressureError(
                        f"stream {stream_id!r} is rebalancing",
                        stream_id=stream_id,
                    )
            if st.failed is not None:
                raise WorkerError(
                    f"stream {stream_id!r} has failed: {st.failed}"
                )
            if cfg.shed_inflight and len(st.inflight) >= cfg.shed_inflight:
                self.registry.counter("server.frames_shed").inc()
                if cfg.shed_policy == "drop":
                    st.shed += 1
                    return False
                raise BackpressureError(
                    f"stream {stream_id!r} has {len(st.inflight)} frames "
                    f"in flight (shed_inflight={cfg.shed_inflight})",
                    stream_id=stream_id,
                )
            seq = st.seq_next
            st.seq_next += 1
            st.inflight.append((seq, time.monotonic()))
            if st.replay is not None:
                st.replay[seq] = frame
            handle = self._shards[st.shard]
        if handle is None:
            return True  # shard died under us; replay/rebalance delivers
        with handle.producer_lock:
            ok = handle.ring.push(
                st.uid, seq, frame,
                timeout_s=max(0.001, deadline - time.monotonic()),
            )
        if not ok:
            with self._lock:
                # The frame never entered the ring. If the shard just
                # died, leave the bookkeeping: the frame is in the
                # replay buffer and the rebalance will deliver it.
                if self._shards[st.shard] is handle and st.failed is None:
                    if st.seq_next == seq + 1:
                        st.seq_next = seq
                    if st.replay is not None:
                        st.replay.pop(seq, None)
                    st.inflight = deque(
                        (s, t) for s, t in st.inflight if s != seq
                    )
                    raise BackpressureError(
                        f"shard {st.shard} ring stayed full for "
                        f"{timeout_s:g}s (stream {stream_id!r})",
                        stream_id=stream_id,
                    )
        return True

    def results(self, stream_id: str) -> list[StreamResult]:
        """Pop every completed result for ``stream_id`` (in order)."""
        with self._lock:
            st = self._require_locked(stream_id)
            out = list(st.results)
            st.results.clear()
            return out

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> None:
        """Block until every stream's in-flight frames have produced
        results (failed streams excluded). Raises
        :class:`~repro.errors.WorkerError` on timeout."""
        if timeout_s is None:
            timeout_s = self.serve_config.drain_timeout_s
        deadline = time.monotonic() + timeout_s
        while True:
            with self._lock:
                handles = [h for h in self._shards if h is not None]
            for handle in handles:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    self._rpc(handle, ("drain", remaining), remaining + 5.0)
                except WorkerError:
                    pass  # death mid-drain: the rebalance path takes over
            with self._lock:
                backlog = {
                    st.stream_id: len(st.inflight)
                    for st in self._streams.values()
                    if st.failed is None and (st.inflight or st.moving)
                }
            if not backlog:
                return
            if time.monotonic() >= deadline:
                raise WorkerError(
                    f"sharded server did not drain within {timeout_s:g}s "
                    f"(backlog: {backlog})"
                )
            time.sleep(0.01)

    def close(self, drain: bool = True, timeout_s: float | None = None) -> None:
        """Shut every shard down (draining first by default)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            if drain:
                self.drain(timeout_s)
        finally:
            self._closing = True
            with self._lock:
                handles = [h for h in self._shards if h is not None]
            for handle in handles:
                try:
                    self._rpc(handle, ("close",), 5.0)
                except Exception:
                    pass
            for handle in handles:
                handle.process.join(self.serve_config.drain_timeout_s)
            self._teardown_processes()
            for handle in handles:
                if handle.collector is not None:
                    handle.collector.join(2.0)
            with self._lock:
                self._shards = [None] * len(self._shards)
                self.registry.gauge("server.shards_active").set(0)

    def __enter__(self) -> "ShardedStreamServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=False)

    # -- introspection -------------------------------------------------
    @property
    def stream_ids(self) -> list[str]:
        with self._lock:
            return list(self._streams)

    def shard_pids(self) -> list[int | None]:
        """Live shard process ids (None for dead shards) — what the
        chaos tests SIGKILL."""
        with self._lock:
            return [
                h.process.pid if h is not None else None
                for h in self._shards
            ]

    def stream_status(self) -> list[dict]:
        """Gateway-side supervision view (one dict per stream)."""
        with self._lock:
            return [
                {
                    "stream": st.stream_id,
                    "shard": st.shard,
                    "model": st.model,
                    "frame_index": st.emitted_fi,
                    "queued": len(st.inflight),
                    "frames_in": st.seq_next,
                    "frames_done": st.emitted,
                    "frames_dropped": st.shed,
                    "restarts": st.rebalances,
                    "failed": st.failed,
                    "source_seq": st.seq_next - 1,
                    "resumed_source_seq": st.resumed_source_seq,
                    "resume_note": st.resume_note,
                }
                for st in self._streams.values()
            ]

    def controller_log(self) -> list[dict]:
        """Every live shard's controller transition log, each entry
        annotated with its shard index. Entries keep their per-shard
        order (each shard's log is deterministic on its own schedule);
        dead shards contribute nothing — a rebalanced stream's new
        shard starts it back at its baseline rung."""
        with self._lock:
            handles = [h for h in self._shards if h is not None]
        merged: list[dict] = []
        for handle in handles:
            try:
                entries = self._rpc(
                    handle, ("controller_log",),
                    self.serve_config.drain_timeout_s,
                )
            except WorkerError:
                continue  # died under us; the collector will rebalance
            for entry in entries:
                entry = dict(entry)
                entry["shard"] = handle.index
                merged.append(entry)
        return merged

    def snapshot(self) -> dict:
        """Gateway rollups plus every live shard's snapshot, with
        shard-level server metrics re-keyed ``server.shard.<k>.*`` and
        per-stream metrics kept as ``stream.<id>.*``."""
        with self._lock:
            self.registry.gauge("server.streams_active").set(
                len([
                    s for s in self._streams.values() if s.failed is None
                ])
            )
            self.registry.gauge("server.shards_active").set(
                sum(h is not None for h in self._shards)
            )
            handles = [h for h in self._shards if h is not None]
        combined = self.registry.snapshot()
        for handle in handles:
            try:
                snap = self._rpc(
                    handle, ("snapshot",),
                    self.serve_config.drain_timeout_s,
                )
            except WorkerError:
                continue  # died under us; the collector will rebalance
            for kind in ("counters", "gauges", "histograms"):
                for name, value in snap.get(kind, {}).items():
                    if name.startswith("server."):
                        name = (
                            f"server.shard.{handle.index}."
                            + name[len("server."):]
                        )
                    combined.setdefault(kind, {})[name] = value
        for kind in ("counters", "gauges", "histograms"):
            combined[kind] = dict(sorted(combined.get(kind, {}).items()))
        return combined
