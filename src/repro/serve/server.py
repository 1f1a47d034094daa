"""Multi-stream serving: N pipelines multiplexed over a worker pool.

The ROADMAP's target deployment is many cameras, not one —
:class:`StreamServer` is the multi-tenant layer above
:class:`~repro.core.stream.SurveillancePipeline`. Each registered
stream id owns one pipeline (and therefore its own mixture state,
cleaner and tracker), a bounded input queue, and a result queue; a
shared pool of worker threads moves frames through the pipelines.

Design points, in the order they matter:

* **Per-stream serialisation.** A stream is only ever scheduled on one
  worker at a time and its frames run strictly in submission order, so
  the masks a stream produces are bit-identical to running its frames
  through a lone ``SurveillancePipeline`` — regardless of the worker
  count or how streams interleave.
* **Round-robin batch scheduling.** A worker takes at most
  ``batch_frames`` from one stream per turn, then the cursor advances,
  so a hot stream (deep queue) cannot starve its neighbours.
* **Admission control.** Registering more than ``max_streams`` streams,
  a duplicate id, or submitting to an unknown stream raises a clear
  :class:`~repro.errors.ConfigError`.
* **Backpressure.** A full input queue engages the configured policy:
  ``block`` (bounded wait), ``drop_oldest`` (evict + count), or
  ``reject`` (raise :class:`~repro.errors.BackpressureError`).
* **Fault isolation.** A stream whose pipeline raises is handled per
  its :class:`~repro.config.FaultPolicy`: ``restart`` rebuilds the
  pipeline (fresh model state) and keeps serving; ``fail`` /
  exhausted restart budget marks only that stream failed — siblings
  keep serving. Stage-level errors inside a step are already absorbed
  by the pipeline itself when ``fault_policy.stage_error="degrade"``.
* **Telemetry.** Each stream records into its own registry; the server
  snapshot re-keys those as ``stream.<id>.*`` and adds rollups
  (``server.frames_total``, ``server.streams_active``,
  ``server.queue_depth``, ``server.step_s``).
* **Closed-loop control.** With ``serve.controller`` set, a
  :class:`~repro.serve.controller.ServerController` evaluates each
  stream at frame-count window boundaries and walks its degradation
  ladder (relax guards -> downshift level -> switch model -> shed)
  with hysteresis, recording every move in a deterministic transition
  log (:meth:`StreamServer.controller_log`).
"""

from __future__ import annotations

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
from ..core.stream import StreamResult, SurveillancePipeline
from ..errors import BackpressureError, CheckpointError, ConfigError, WorkerError
from ..telemetry import MetricsRegistry
from .controller import Rung, ServerController, Transition, ensure_same_family


class _StreamState:
    """Book-keeping for one registered stream (guarded by the server
    lock except where noted)."""

    __slots__ = (
        "stream_id", "pipeline", "factory", "queue", "results",
        "busy", "failed", "restarts", "frames_in", "frames_done",
        "frames_dropped", "registry", "seq_next", "last_seq",
        "resumed_source_seq", "resume_note", "scenario", "shedding",
        "frames_shed", "reconfigurable",
    )

    def __init__(
        self,
        stream_id: str,
        pipeline: SurveillancePipeline,
        factory: Callable[[], SurveillancePipeline] | None,
        registry: MetricsRegistry,
    ) -> None:
        self.stream_id = stream_id
        self.pipeline = pipeline
        self.factory = factory
        self.registry = registry
        self.queue: deque[tuple[int, np.ndarray]] = deque()
        self.results: deque[StreamResult] = deque()
        self.busy = False          # a worker currently owns this stream
        self.failed: str | None = None  # repr of the fatal error
        self.restarts = 0
        self.frames_in = 0
        self.frames_done = 0
        self.frames_dropped = 0
        # Submission-sequence cursor. ``seq_next`` numbers every
        # *submitted* frame (dropped ones included), ``last_seq`` is the
        # sequence number of the last frame the pipeline consumed —
        # under ``drop_oldest`` this runs ahead of ``frame_index``, and
        # it is what checkpoints record so a resume replays the source
        # from the right position (not a frame an eviction already
        # skipped past).
        self.seq_next = 0
        self.last_seq = -1
        self.resumed_source_seq = -1   # -1 = started fresh
        self.resume_note: str | None = None
        # Controller-facing fields. ``scenario`` gates quality-aware
        # model switches; ``shedding`` flips submit's full-queue policy
        # to drop-and-count; ``reconfigurable`` marks a default-built
        # pipeline the server may rebuild at a different rung.
        self.scenario: str | None = None
        self.shedding = False
        self.frames_shed = 0
        self.reconfigurable = False


class StreamServer:
    """N surveillance streams over a bounded worker pool.

    Parameters
    ----------
    shape, params, level, backend, model, run_config:
        Defaults for every stream's
        :class:`~repro.core.stream.SurveillancePipeline`.
        ``backend=None`` resolves to ``serve.backend`` when that is
        set, else ``"cpu"``; ``"jit"`` is an alias of ``"cpu"``.
        ``model=None`` resolves to ``serve.model`` when that is set,
        else the level's model family (MoG for bare letters); streams
        can override it per-stream via :meth:`add_stream`.
    serve:
        :class:`~repro.config.ServeConfig` — pool size, admission
        limits, queue depth and backpressure policy.
    fault_policy:
        :class:`~repro.config.FaultPolicy` applied per stream.
        ``policy="restart"`` rebuilds a crashed stream's pipeline up to
        ``max_restarts`` times; anything else marks the stream failed on
        the first unhandled error. ``stage_error`` is forwarded to each
        pipeline (``"degrade"`` keeps a stream alive through isolated
        bad frames).
    telemetry:
        :class:`~repro.config.TelemetryConfig` for the server registry
        and every per-stream registry.
    warmup_frames:
        Forwarded to each pipeline.
    integrity:
        Optional :class:`~repro.config.IntegrityPolicy` forwarded to
        every default-built pipeline (mixture-state guard per frame).

    Durable checkpoints: when ``serve.checkpoint_every > 0`` each
    stream's pipeline is checkpointed to
    ``<serve.checkpoint_dir>/<stream_id>.ckpt`` every N frames (atomic
    write — a crash mid-write leaves the previous checkpoint intact);
    with ``serve.resume=True``, :meth:`add_stream` restores a stream
    from its checkpoint file when one exists, resuming bit-identically
    from the checkpoint frame.

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
    ) -> None:
        self.shape = tuple(shape)
        self.params = params
        self.level = level
        self.serve_config = serve or ServeConfig()
        # Explicit argument wins, then the serve config's default, then
        # the interpreted cpu path.
        self.backend = backend or self.serve_config.backend or "cpu"
        # Explicit argument wins, then the serve config's default, then
        # whatever the level expression implies (MoG for bare letters).
        self.model = model or self.serve_config.model
        self.run_config = run_config
        self.fault_policy = fault_policy or FaultPolicy(stage_error="degrade")
        self.telemetry_config = telemetry or TelemetryConfig()
        self.warmup_frames = warmup_frames
        self.integrity = integrity
        self.registry = MetricsRegistry(self.telemetry_config)
        self.controller: ServerController | None = None
        if self.serve_config.controller is not None:
            self.controller = ServerController(
                self.serve_config.controller,
                queue_capacity=self.serve_config.queue_capacity,
                registry=self.registry,
            )
        self._checkpoint_dir: Path | None = None
        if self.serve_config.checkpoint_dir is not None:
            self._checkpoint_dir = Path(self.serve_config.checkpoint_dir)
            self._checkpoint_dir.mkdir(parents=True, exist_ok=True)

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)   # frames queued
        self._space = threading.Condition(self._lock)  # queue slot freed
        self._idle = threading.Condition(self._lock)   # a batch finished
        self._streams: dict[str, _StreamState] = {}
        # Admissions in flight: ids whose pipeline is still being built
        # (outside the lock) but whose capacity slot is already claimed.
        self._reserved: set[str] = set()
        #: Optional hook, called as ``(stream_id, frame_index,
        #: source_seq)`` after every successful durable checkpoint
        #: write (the sharded gateway uses it to trim replay buffers).
        self.on_checkpoint: Callable[[str, int, int], None] | None = None
        self._rr_cursor = 0
        self._closed = False
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{i}",
                daemon=True,
            )
            for i in range(self.serve_config.workers)
        ]
        for t in self._threads:
            t.start()

    # -- stream registration -------------------------------------------
    def _default_factory(
        self, registry: MetricsRegistry, model: str | None = None,
    ) -> Callable[[], SurveillancePipeline]:
        model = model or self.model

        def build() -> SurveillancePipeline:
            return SurveillancePipeline(
                self.shape,
                self.params,
                level=self.level,
                backend=self.backend,
                model=model,
                run_config=self.run_config,
                warmup_frames=self.warmup_frames,
                on_error=self.fault_policy.stage_error,
                telemetry=registry,
                integrity=self.integrity,
            )

        return build

    def _checkpoint_path(self, stream_id: str) -> Path | None:
        if self._checkpoint_dir is None:
            return None
        return self._checkpoint_dir / f"{stream_id}.ckpt"

    def add_stream(
        self,
        stream_id: str,
        pipeline: SurveillancePipeline | None = None,
        pipeline_factory: Callable[
            [MetricsRegistry], SurveillancePipeline
        ] | None = None,
        model: str | None = None,
        scenario: str | None = None,
    ) -> None:
        """Register a stream; raises on over-admission or duplicates.

        ``pipeline`` injects a prebuilt pipeline (its own telemetry
        registry is used for the stream's metrics); ``pipeline_factory``
        is called with the stream's registry, and is also what a
        ``restart`` fault policy uses to rebuild a crashed stream.
        ``model`` overrides the server's default background-model
        family for this stream's default-built pipeline (a fleet can
        mix MoG and DMSG cameras on one server); it cannot be combined
        with an injected pipeline or factory, which carry their own.
        ``scenario`` tags the stream's content class (one of the
        quality-matrix scenarios, e.g. ``"static"``/``"ptz"``) so the
        runtime controller can offer the cheap-model rung only where
        the committed matrix shows the fallback holds quality; untagged
        streams never switch model.

        Admission is atomic: the capacity/duplicate check *reserves*
        the slot under one lock acquisition before the (slow, unlocked)
        pipeline build, so concurrent calls can neither overshoot
        ``max_streams`` nor double-restore a checkpoint; a build or
        resume failure releases the reservation.

        With ``serve.resume=True``: a missing checkpoint file admits
        the stream fresh (counted in ``server.resume_fresh``, noted in
        stream status); an unusable one raises
        :class:`~repro.errors.CheckpointError` under the default
        ``resume_mismatch="fail"``, or admits fresh with a note under
        ``"fresh"`` (counted in ``server.resume_fallbacks``).
        """
        if not stream_id or not isinstance(stream_id, str):
            raise ConfigError(
                f"stream id must be a non-empty string, got {stream_id!r}"
            )
        if "." in stream_id:
            raise ConfigError(
                f"stream id must not contain '.', got {stream_id!r} "
                "(ids become telemetry label segments)"
            )
        if pipeline is not None and pipeline_factory is not None:
            raise ConfigError("pass pipeline or pipeline_factory, not both")
        if model is not None and (
            pipeline is not None or pipeline_factory is not None
        ):
            raise ConfigError(
                "model= applies to default-built pipelines only; an "
                "injected pipeline/factory already fixes its own model"
            )
        if scenario is not None and not isinstance(scenario, str):
            raise ConfigError(
                f"scenario must be a string or None, got {scenario!r}"
            )
        # Default-built pipelines are the only ones the controller may
        # rebuild at a different rung; injected ones keep their owner's
        # configuration and only ever gain the shed rung.
        reconfigurable = pipeline is None and pipeline_factory is None
        with self._lock:
            if self._closed:
                raise ConfigError("StreamServer is closed")
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
            # Claim the slot now: concurrent admissions see it and fail
            # fast instead of racing the build below (TOCTOU).
            self._reserved.add(stream_id)
        try:
            # Pipeline construction can be slow (backend warm-up); keep
            # it outside the lock. The reservation holds the slot.
            if pipeline is not None:
                registry = pipeline.telemetry
                factory = None  # cannot rebuild an injected pipeline
            else:
                registry = MetricsRegistry(self.telemetry_config)
                factory = (
                    (lambda: pipeline_factory(registry))
                    if pipeline_factory is not None
                    else self._default_factory(registry, model=model)
                )
                pipeline = factory()
            pipeline, resumed_seq, resume_note = self._maybe_resume(
                stream_id, pipeline, factory
            )
        except BaseException:
            with self._lock:
                self._reserved.discard(stream_id)
            raise
        with self._lock:
            self._reserved.discard(stream_id)
            if self._closed:
                raise ConfigError("StreamServer is closed")
            state = _StreamState(stream_id, pipeline, factory, registry)
            state.resumed_source_seq = resumed_seq
            state.resume_note = resume_note
            state.scenario = scenario
            state.reconfigurable = reconfigurable
            if resumed_seq >= 0:
                # Continue the submission-sequence space where the
                # checkpoint left off, so replayed source frames line
                # up with the cursor the checkpoint recorded.
                state.seq_next = resumed_seq + 1
                state.last_seq = resumed_seq
            self._streams[stream_id] = state
            if self.controller is not None:
                # Injected pipeline doubles may lack a subtractor; they
                # are non-reconfigurable, so the labels are cosmetic.
                sub = getattr(pipeline, "subtractor", None)
                self.controller.register(
                    stream_id,
                    base_level=(
                        sub.spec.letter if sub is not None else self.level
                    ),
                    base_model=(
                        sub.model.name if sub is not None else self.model
                    ),
                    scenario=scenario,
                    reconfigurable=reconfigurable,
                    # The guards rung only exists where there is
                    # something to relax: an active integrity guard or
                    # a profiled (sim) backend.
                    guards_apply=(
                        (self.integrity is not None and self.integrity.active)
                        or self.backend == "sim"
                    ),
                )
            self.registry.gauge("server.streams_active").set(
                len(self._streams)
            )

    def _maybe_resume(
        self,
        stream_id: str,
        pipeline: SurveillancePipeline,
        factory: Callable[[], SurveillancePipeline] | None,
    ) -> tuple[SurveillancePipeline, int, str | None]:
        """Restore ``pipeline`` from its checkpoint per the resume
        policy. Returns ``(pipeline, resumed_source_seq, note)`` with
        ``resumed_source_seq=-1`` when the stream starts fresh."""
        if not self.serve_config.resume:
            return pipeline, -1, None
        path = self._checkpoint_path(stream_id)
        if path is None or not path.exists():
            note = f"no checkpoint for {stream_id!r}; started fresh"
            self.registry.counter("server.resume_fresh").inc()
            return pipeline, -1, note
        try:
            pipeline.restore_checkpoint(path)
        except CheckpointError as exc:
            salvaged = self._salvage_degraded_checkpoint(pipeline, path)
            if salvaged is not None:
                return salvaged
            if self.serve_config.resume_mismatch != "fresh":
                # Default: a corrupt/mismatched file fails admission
                # loudly rather than resuming a wrong model.
                raise
            self.registry.counter("server.resume_fallbacks").inc()
            if factory is not None:
                pipeline = factory()  # discard any partial restore
            return pipeline, -1, f"checkpoint unusable, started fresh: {exc}"
        meta = getattr(pipeline, "last_restore_meta", None) or {}
        resumed_seq = int(meta.get("source_seq", pipeline.frame_index))
        self.registry.counter("server.checkpoints_restored").inc()
        return pipeline, resumed_seq, None

    def _salvage_degraded_checkpoint(
        self, pipeline: SurveillancePipeline, path
    ) -> tuple[SurveillancePipeline, int, str] | None:
        """Resume a checkpoint written while the controller held the
        stream on a degraded rung.

        The pass-stack levels are decision-preserving within a model
        family, so a checkpoint written at a cheaper level carries
        exactly the state a baseline run would have — it restores into
        the baseline pipeline directly. A cross-family checkpoint hits
        the same contract as any cross-family restore: fresh model
        state, continuity of the frame index and last good mask. Only
        applies on a controller-governed server; any other mismatch
        (shape, params, corruption) returns ``None`` and the normal
        resume policy decides.
        """
        if self.controller is None:
            return None
        from ..faults.checkpoint import read_checkpoint

        try:
            arrays, meta = read_checkpoint(path)
        except Exception:
            return None
        import dataclasses as _dc

        sub = pipeline.subtractor
        if (
            meta.get("kind") != "surveillance_pipeline"
            or meta.get("shape") != list(sub.shape)
            or meta.get("params") != _dc.asdict(sub.params)
            or not all(k in arrays for k in ("w", "m", "sd"))
        ):
            return None
        file_model = meta.get("model", "mog")
        file_level = meta.get("level")
        if file_model == sub.model.name:
            pipeline.subtractor.restore_state(
                (arrays["w"], arrays["m"], arrays["sd"],
                 int(meta["frames_processed"]))
            )
            note = (
                f"checkpoint written at degraded level {file_level!r}; "
                "state restored at baseline (levels are "
                "decision-preserving)"
            )
        else:
            # Cross-family rung: the planes stay behind, the cursor
            # moves forward — same answer admission gives a foreign
            # checkpoint under the durable-checkpoint contract.
            pipeline.telemetry.counter(
                "controller.model_fresh_starts"
            ).inc()
            note = (
                f"checkpoint holds {file_model!r} state from a "
                f"controller model rung; {sub.model.name!r} restarted "
                "fresh at the checkpoint's cursor"
            )
        pipeline.frame_index = int(meta["frame_index"])
        mask = arrays.get("last_good_mask")
        pipeline._last_good_mask = (
            mask.astype(bool) if mask is not None else None
        )
        resumed_seq = int(meta.get("source_seq", pipeline.frame_index))
        self.registry.counter("server.checkpoints_restored").inc()
        self.registry.counter("server.resume_degraded_salvaged").inc()
        return pipeline, resumed_seq, note

    def remove_stream(self, stream_id: str) -> list[StreamResult]:
        """Deregister a stream, returning its uncollected results.

        Pending (unprocessed) frames are discarded and counted as
        dropped.
        """
        with self._lock:
            state = self._require(stream_id)
            while state.busy:  # let an in-flight batch finish
                self._idle.wait()
            dropped = len(state.queue)
            state.frames_dropped += dropped
            if dropped:
                self.registry.counter("server.frames_dropped").inc(dropped)
            del self._streams[stream_id]
            if self.controller is not None:
                self.controller.forget(stream_id)
            self.registry.gauge("server.streams_active").set(
                len(self._streams)
            )
            self._set_queue_depth_locked()
            self._space.notify_all()
            return list(state.results)

    def _require(self, stream_id: str) -> _StreamState:
        state = self._streams.get(stream_id)
        if state is None:
            raise ConfigError(f"unknown stream {stream_id!r}")
        return state

    # -- submission ----------------------------------------------------
    def submit(
        self, stream_id: str, frame: np.ndarray,
        timeout_s: float | None = None,
    ) -> bool:
        """Queue one frame for ``stream_id``.

        Returns ``True`` when the frame was admitted without touching
        any other frame, ``False`` when admission evicted the oldest
        queued frame (``drop_oldest`` policy) or the frame was shed
        outright (a stream the controller moved onto its shed rung
        drops overflow frames, counted in ``frames_shed``, instead of
        engaging backpressure). Raises
        :class:`~repro.errors.BackpressureError` when the queue stays
        full (``reject``, or ``block`` past its timeout) and
        :class:`~repro.errors.WorkerError` for a failed stream.
        """
        cfg = self.serve_config
        if timeout_s is None:
            timeout_s = cfg.submit_timeout_s
        deadline = time.monotonic() + timeout_s
        with self._lock:
            if self._closed:
                raise ConfigError("StreamServer is closed")
            state = self._require(stream_id)
            if state.failed is not None:
                raise WorkerError(
                    f"stream {stream_id!r} has failed: {state.failed}"
                )
            evicted = False
            while len(state.queue) >= cfg.queue_capacity:
                if state.shedding:
                    # Controller shed rung: the overflow frame is
                    # dropped and counted instead of engaging the
                    # backpressure policy — the stream keeps emitting
                    # for the frames that do fit, and no caller ever
                    # sees a BackpressureError. The shed frame still
                    # consumes a sequence number: the source moved on,
                    # and a checkpoint cursor must record that.
                    state.seq_next += 1
                    state.frames_shed += 1
                    state.registry.counter("stream.frames_shed").inc()
                    self.registry.counter("server.frames_shed").inc()
                    return False
                if cfg.backpressure == "reject":
                    raise BackpressureError(
                        f"stream {stream_id!r} queue is full "
                        f"({cfg.queue_capacity} frames)",
                        stream_id=stream_id,
                    )
                if cfg.backpressure == "drop_oldest":
                    # The evicted frame keeps its sequence number: the
                    # stream's cursor advances past it, so a checkpoint
                    # written later records the true source position.
                    state.queue.popleft()
                    state.frames_dropped += 1
                    evicted = True
                    state.registry.counter("stream.frames_dropped").inc()
                    self.registry.counter("server.frames_dropped").inc()
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._space.wait(remaining):
                    raise BackpressureError(
                        f"stream {stream_id!r} queue still full after "
                        f"{timeout_s:g}s (block policy)",
                        stream_id=stream_id,
                    )
                # Re-check liveness after the wait.
                state = self._require(stream_id)
                if state.failed is not None:
                    raise WorkerError(
                        f"stream {stream_id!r} has failed: {state.failed}"
                    )
            seq = state.seq_next
            state.seq_next += 1
            state.queue.append((seq, np.asarray(frame)))
            state.frames_in += 1
            self._set_queue_depth_locked()
            self._work.notify()
            return not evicted

    def results(self, stream_id: str) -> list[StreamResult]:
        """Pop every completed result for ``stream_id`` (in order)."""
        with self._lock:
            state = self._require(stream_id)
            out = list(state.results)
            state.results.clear()
            return out

    # -- scheduling ----------------------------------------------------
    def _set_queue_depth_locked(self) -> None:
        self.registry.gauge("server.queue_depth").set(
            sum(len(s.queue) for s in self._streams.values())
        )

    def _next_batch_locked(
        self,
    ) -> tuple[_StreamState, list[tuple[int, np.ndarray]]] | None:
        """Round-robin pick: the next non-busy, non-failed stream with
        queued frames, taking at most ``batch_frames`` from it."""
        ids = list(self._streams)
        n = len(ids)
        for off in range(n):
            sid = ids[(self._rr_cursor + off) % n]
            state = self._streams[sid]
            if state.busy or state.failed is not None or not state.queue:
                continue
            self._rr_cursor = (self._rr_cursor + off + 1) % n
            batch = []
            for _ in range(
                min(self.serve_config.batch_frames, len(state.queue))
            ):
                batch.append(state.queue.popleft())
            state.busy = True
            self._set_queue_depth_locked()
            self._space.notify_all()
            return state, batch
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                picked = self._next_batch_locked()
                while picked is None:
                    if self._shutdown:
                        return
                    self._work.wait()
                    picked = self._next_batch_locked()
            state, batch = picked
            for seq, frame in batch:
                self._process_one(state, seq, frame)
            with self._lock:
                state.busy = False
                if state.queue:
                    self._work.notify()
                self._idle.notify_all()

    def _process_one(
        self, state: _StreamState, seq: int, frame: np.ndarray
    ) -> None:
        """Run one frame through the stream's pipeline, applying the
        fault policy to unhandled errors. Called with ``state.busy``
        held, so the pipeline is touched by one worker only."""
        t0 = time.perf_counter()
        try:
            result = state.pipeline.step(frame)
        except Exception as exc:
            result = self._handle_stream_fault(state, frame, exc)
        state.last_seq = seq  # this submission cursor is now consumed
        self.registry.histogram("server.step_s").observe(
            time.perf_counter() - t0
        )
        self._maybe_checkpoint(state, result)
        with self._lock:
            state.frames_done += 1
            if result is not None:
                state.results.append(result)
            self.registry.counter("server.frames_total").inc()
            transition = None
            if (
                self.controller is not None
                and state.failed is None
                and state.frames_done
                    % self.controller.config.window_frames == 0
            ):
                # Window boundary: evaluate under the lock (queue depth
                # and the log order are consistent and deterministic),
                # apply outside it (this worker still owns the stream
                # via ``state.busy``, so the pipeline swap is safe).
                transition = self.controller.observe_locked(
                    state.stream_id,
                    state.registry,
                    queue_depth=len(state.queue),
                    frames_done=state.frames_done,
                )
        if transition is not None:
            self._apply_transition(state, transition)

    # -- controller reconfiguration ------------------------------------
    def _apply_transition(
        self, state: _StreamState, transition: Transition
    ) -> None:
        """Apply a committed controller transition to one stream.

        Called from the worker that just finished the stream's frame,
        with ``state.busy`` still held — the pipeline is owned by this
        thread, so a swap needs no lock. A reconfiguration failure is
        counted, never fatal: the stream keeps serving on its previous
        pipeline and the shed flag still tracks the target rung.
        """
        rung = transition.target
        if transition.pipeline_changed and state.reconfigurable:
            try:
                self._reconfigure_pipeline(state, rung)
            except Exception:
                self.registry.counter(
                    "server.controller.reconfigure_errors"
                ).inc()
        with self._lock:
            state.shedding = rung.shed

    def _build_rung_pipeline(
        self, state: _StreamState, rung: Rung
    ) -> SurveillancePipeline:
        """A default-built pipeline at the rung's effective config,
        reusing the stream's registry so its metrics stay continuous."""
        integrity = self.integrity
        if integrity is not None and rung.guard_relax > 1:
            integrity = integrity.replace(
                check_every=integrity.check_every * rung.guard_relax
            )
        profile_every = None
        if rung.guard_relax > 1:
            base = self.run_config.profile_every if self.run_config else 1
            profile_every = max(base, 1) * rung.guard_relax
        return SurveillancePipeline(
            self.shape,
            self.params,
            level=rung.level,
            backend=self.backend,
            model=rung.model,
            run_config=self.run_config,
            warmup_frames=self.warmup_frames,
            on_error=self.fault_policy.stage_error,
            telemetry=state.registry,
            profile_every=profile_every,
            integrity=integrity,
        )

    def _reconfigure_pipeline(self, state: _StreamState, rung: Rung) -> None:
        """Swap the stream onto a pipeline built for ``rung``.

        Within a model family the warm mixture state transfers
        (``state_snapshot``/``restore_state``; the pass stacks are
        decision-preserving, so masks are bit-identical across the
        swap). Across families the durable-checkpoint contract applies
        (:func:`~repro.serve.controller.ensure_same_family` raises the
        same typed :class:`~repro.errors.CheckpointError` admission
        sees): the new family starts from fresh state, keeping the
        frame index and last good mask so downstream consumers always
        see well-defined masks — warm-up quality while the new model
        converges.
        """
        old = state.pipeline
        new = self._build_rung_pipeline(state, rung)
        try:
            ensure_same_family(
                old.subtractor.model.name, new.subtractor.model.name
            )
            snapshot = old.subtractor.state_snapshot()
            if snapshot is not None:
                new.subtractor.restore_state(snapshot)
        except CheckpointError:
            state.registry.counter("controller.model_fresh_starts").inc()
        new.frame_index = old.frame_index
        new._last_good_mask = old._last_good_mask
        new.tracker = old.tracker  # track ids survive the swap
        state.pipeline = new
        # Fault restarts must rebuild at the *current* rung, not the
        # admission-time one.
        state.factory = lambda: self._build_rung_pipeline(state, rung)

    def controller_log(self) -> list[dict]:
        """The controller's transition log (empty without a
        controller). Deterministic for a deterministic stream schedule;
        see :mod:`repro.serve.controller`."""
        if self.controller is None:
            return []
        with self._lock:
            return self.controller.log()

    def _maybe_checkpoint(self, state: _StreamState, result) -> None:
        """Periodic durable checkpoint after a successful step. A
        checkpoint failure is counted, never fatal: the stream keeps
        serving from memory and the previous on-disk checkpoint (atomic
        rename) stays valid."""
        every = self.serve_config.checkpoint_every
        if not every or result is None:
            return
        frame_index = getattr(state.pipeline, "frame_index", None)
        if frame_index is None or (frame_index + 1) % every != 0:
            return
        path = self._checkpoint_path(state.stream_id)
        if path is None:
            return
        try:
            state.pipeline.save_checkpoint(
                path, extra_meta={"source_seq": state.last_seq}
            )
            self.registry.counter("server.checkpoints_written").inc()
        except Exception:
            self.registry.counter("server.checkpoint_errors").inc()
            return
        hook = self.on_checkpoint
        if hook is not None:
            try:
                hook(state.stream_id, frame_index, state.last_seq)
            except Exception:
                pass

    def _handle_stream_fault(
        self, state: _StreamState, frame: np.ndarray, exc: Exception,
    ) -> StreamResult | None:
        """Restart the stream's pipeline or mark the stream failed.
        Only this stream is affected either way."""
        self.registry.counter("server.stream_errors").inc()
        policy = self.fault_policy
        while (
            policy.policy == "restart"
            and state.factory is not None
            and state.restarts < policy.max_restarts
        ):
            state.restarts += 1
            self.registry.counter("server.stream_restarts").inc()
            state.registry.counter("stream.restarts").inc()
            try:
                state.pipeline = state.factory()
                result = state.pipeline.step(frame)
            except Exception as retry_exc:  # keep consuming the budget
                exc = retry_exc
                continue
            # The rebuilt pipeline starts from fresh model state; its
            # first masks are warm-up quality, but the stream lives on.
            return result
        with self._lock:
            state.failed = repr(exc)
            dropped = len(state.queue)
            state.queue.clear()
            state.frames_dropped += dropped
            if dropped:
                self.registry.counter("server.frames_dropped").inc(dropped)
            self.registry.counter("server.streams_failed").inc()
            self._set_queue_depth_locked()
            self._space.notify_all()
            self._idle.notify_all()
        return None

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> None:
        """Block until every queue is empty and no batch is in flight.

        Raises :class:`~repro.errors.WorkerError` if the backlog does
        not clear within ``timeout_s`` (default
        ``serve.drain_timeout_s``).
        """
        if timeout_s is None:
            timeout_s = self.serve_config.drain_timeout_s
        deadline = time.monotonic() + timeout_s
        with self._lock:
            while any(
                s.queue or s.busy for s in self._streams.values()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._idle.wait(remaining):
                    backlog = {
                        s.stream_id: len(s.queue)
                        for s in self._streams.values() if s.queue or s.busy
                    }
                    raise WorkerError(
                        f"server did not drain within {timeout_s:g}s "
                        f"(backlog: {backlog})"
                    )

    def close(self, drain: bool = True, timeout_s: float | None = None) -> None:
        """Stop accepting frames and shut the worker pool down.

        With ``drain=True`` (default) queued frames are processed
        first; otherwise they are abandoned.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self.drain(timeout_s)
        with self._lock:
            self._shutdown = True
            if not drain:
                for state in self._streams.values():
                    state.queue.clear()
                self._set_queue_depth_locked()
            self._work.notify_all()
        for t in self._threads:
            t.join(self.serve_config.drain_timeout_s)

    def __enter__(self) -> "StreamServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=False)

    # -- introspection -------------------------------------------------
    @property
    def stream_ids(self) -> list[str]:
        with self._lock:
            return list(self._streams)

    def stream_status(self) -> list[dict]:
        """Per-stream supervision view: model, level, queue and frame
        counts, restarts, failure and controller rung of every stream."""
        with self._lock:
            return [
                {
                    "stream": s.stream_id,
                    "model": getattr(
                        getattr(s.pipeline, "subtractor", None), "model", None
                    )
                    and s.pipeline.subtractor.model.name,
                    "level": getattr(
                        getattr(s.pipeline, "subtractor", None), "spec", None
                    )
                    and s.pipeline.subtractor.spec.letter,
                    "frame_index": getattr(s.pipeline, "frame_index", None),
                    "queued": len(s.queue),
                    "frames_in": s.frames_in,
                    "frames_done": s.frames_done,
                    "frames_dropped": s.frames_dropped,
                    "frames_shed": s.frames_shed,
                    "restarts": s.restarts,
                    "failed": s.failed,
                    "source_seq": s.last_seq,
                    "resumed_source_seq": s.resumed_source_seq,
                    "resume_note": s.resume_note,
                    "scenario": s.scenario,
                    "controller_rung": (
                        self.controller.rung_of(s.stream_id)
                        if self.controller is not None else None
                    ),
                }
                for s in self._streams.values()
            ]

    def snapshot(self) -> dict:
        """Aggregated telemetry: server rollups plus every stream's
        metrics re-keyed as ``stream.<id>.<metric>``."""
        with self._lock:
            streams = list(self._streams.values())
            self.registry.gauge("server.streams_active").set(
                len([s for s in streams if s.failed is None])
            )
            self._set_queue_depth_locked()
        combined = self.registry.snapshot()
        for state in streams:
            snap = state.registry.snapshot()
            for kind in ("counters", "gauges", "histograms"):
                for name, value in snap.get(kind, {}).items():
                    if name.startswith("stream."):
                        name = name[len("stream."):]
                    combined.setdefault(kind, {})[
                        f"stream.{state.stream_id}.{name}"
                    ] = value
        for kind in ("counters", "gauges", "histograms"):
            combined[kind] = dict(sorted(combined.get(kind, {}).items()))
        return combined


def serve_sequences(
    shape: tuple[int, int],
    sequences: dict[str, Iterable[np.ndarray]],
    **server_kwargs,
) -> dict[str, list[StreamResult]]:
    """Convenience: serve whole sequences through a temporary server.

    Frames are submitted round-robin across streams (frame 0 of every
    stream, then frame 1, ...) to exercise real multiplexing; the
    server is drained and closed before returning every stream's
    results in order.
    """
    server = StreamServer(shape, **server_kwargs)
    try:
        iters = {}
        for sid, frames in sequences.items():
            server.add_stream(sid)
            iters[sid] = iter(frames)
        pending = dict(iters)
        while pending:
            done = []
            for sid, it in pending.items():
                frame = next(it, None)
                if frame is None:
                    done.append(sid)
                    continue
                server.submit(sid, frame)
            for sid in done:
                del pending[sid]
        server.drain()
        return {sid: server.results(sid) for sid in sequences}
    finally:
        server.close(drain=False)
