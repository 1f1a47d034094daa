"""Span tracing for the traced benchmark pass.

The tracer installs class-level wrappers around the public entry points
of each layer, from outside the package: ``src/repro`` carries no
instrumentation of its own. Class-level wrappers also cover pipelines
the runtime controller swaps in and, because shard processes are forked
after installation, the pipelines inside shards. Each process keeps its
spans in memory; a forked shard writes its spans to
``<out_dir>/spans-<pid>.json`` when it exits, and the parent reads them
back with :meth:`Tracer.collect`.

A span is ``(layer, stream, seq, t0, t1, child_s, extra)``. Times come
from ``time.perf_counter``, which is system-wide monotonic on Linux, so
spans of different processes share one time base. ``child_s`` is the
time the span's nested spans covered, so self time is
``t1 - t0 - child_s``. Stage spans (model, post, track) carry the
stream and sequence number of the ``core.step`` span they ran in; a
``core.step`` span's ``extra`` is the time the server's ``submit``
returned for that frame (``None`` when no server fed it).

Next to each ``core.step`` span the tracer records a
``pipeline.timers`` entry with the same key and times, whose ``extra``
lists how much each of the pipeline's own stage timers
(:data:`PIPELINE_TIMERS`) grew during that step. Those come from the
program's clock, not the tracer's, so the benchmark can check the
stage spans against them.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict, deque
from pathlib import Path

import numpy as np

#: The pipeline's own per-stage timers, cumulative per stream registry.
PIPELINE_TIMERS = ("stream.subtract_s", "stream.clean_s", "stream.track_s")


class Tracer:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._needs_finalizer = False
        self._patches: list[tuple[type, str, object]] = []
        # id(frame) -> [stream, seq, submit_return_time] records of
        # frames admitted by StreamServer.submit, claimed by the step
        # that consumes the same array object.
        self._pending: dict[int, deque] = defaultdict(deque)
        self._seq: dict[tuple[str, str], int] = defaultdict(int)
        # id(registry) -> PIPELINE_TIMERS totals after its last step.
        self._timers: dict[int, list[float]] = {}
        os.register_at_fork(after_in_child=self._after_fork)

    # -- process handling ----------------------------------------------
    def _after_fork(self) -> None:
        if not self._patches:
            return
        # A forked shard starts with an empty span store; its
        # multiprocessing bootstrap clears finalizers registered before
        # the target runs, so the dump hook is registered on first use.
        self.spans = []
        self._pending = defaultdict(deque)
        self._seq = defaultdict(int)
        self._timers = {}
        self._needs_finalizer = True

    def _register_dump(self) -> None:
        from multiprocessing import util

        self._needs_finalizer = False
        util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def collect(self) -> list[tuple]:
        """This process's spans plus those every exited shard dumped."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.json")):
            spans.extend(tuple(s) for s in json.loads(path.read_text()))
        return spans

    # -- recording -----------------------------------------------------
    def _record(self, layer, stream, seq, t0, t1, child_s=0.0, extra=None):
        if self._needs_finalizer:
            self._register_dump()
        self.spans.append((layer, stream, seq, t0, t1, child_s, extra))

    def _record_timers(self, pipe, res, sid, seq, t0, t1) -> None:
        """Record how much the pipeline's stage timers grew in this step:
        the totals in the result's telemetry minus those after the
        registry's previous step. A step that raised leaves no totals,
        so the next step of that registry has no baseline."""
        key = id(pipe.telemetry)
        prev = self._timers.pop(key, None)
        if res is None:
            return
        hists = res.telemetry.get("histograms", {})
        cur = [hists.get(name, {}).get("total_s", 0.0)
               for name in PIPELINE_TIMERS]
        self._timers[key] = cur
        if prev is not None:
            self._record("pipeline.timers", sid, seq, t0, t1, 0.0,
                         [c - p for c, p in zip(cur, prev)])

    def _stack(self) -> list[float]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _leave(self, t0: float) -> tuple[float, float]:
        t1 = time.perf_counter()
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += t1 - t0
        return t1, child

    def _claim(self, frame) -> tuple[str, int, float | None]:
        queue = self._pending.get(id(frame))
        if queue:
            try:
                sid, seq, t_ret = queue.popleft()
                return sid, seq, t_ret
            except IndexError:
                pass
        # A step no server fed (the single-pipeline workload).
        seq = self._seq[("step", "")]
        self._seq[("step", "")] = seq + 1
        return "", seq, None

    # -- wrappers ------------------------------------------------------
    def _patch(self, cls: type, attr: str, make) -> None:
        orig = getattr(cls, attr)
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, functools.wraps(orig)(make(orig)))

    def install(self) -> None:
        from repro.core.stream import SurveillancePipeline
        from repro.core.subtractor import BackgroundSubtractor
        from repro.post.morphology import MaskCleaner
        from repro.serve import ShardedStreamServer, StreamServer
        from repro.track.tracker import CentroidTracker

        self._patch(SurveillancePipeline, "step", self._wrap_step)
        self._patch(
            SurveillancePipeline, "save_checkpoint", self._wrap_checkpoint
        )
        self._patch(
            BackgroundSubtractor, "apply",
            self._stage(lambda sub, out: out.size,
                        lambda sub: f"model.{sub.model.name}"),
        )
        self._patch(
            MaskCleaner, "__call__",
            self._stage(lambda _, out: np.count_nonzero(out) / out.size,
                        lambda _: "post.clean"),
        )
        self._patch(
            CentroidTracker, "update",
            self._stage(lambda _, out: len(out), lambda _: "track.update"),
        )
        self._patch(StreamServer, "submit", self._wrap_serve_submit)
        self._patch(ShardedStreamServer, "submit", self._wrap_shard_submit)

    def uninstall(self) -> None:
        for cls, attr, orig in reversed(self._patches):
            setattr(cls, attr, orig)
        self._patches.clear()

    def _wrap_step(self, orig):
        tracer = self

        def step(pipe, frame, *args, **kwargs):
            sid, seq, t_ret = tracer._claim(frame)
            tracer._tls.key = (sid, seq)
            t0 = tracer._enter()
            res = None
            try:
                res = orig(pipe, frame, *args, **kwargs)
                return res
            finally:
                t1, child = tracer._leave(t0)
                tracer._tls.key = ("", -1)  # stage calls outside a step
                tracer._record("core.step", sid, seq, t0, t1, child, t_ret)
                tracer._record_timers(pipe, res, sid, seq, t0, t1)

        return step

    def _stage(self, extra_of, layer_of):
        tracer = self

        def make(orig):
            def stage(obj, *args, **kwargs):
                t0 = tracer._enter()
                out = None
                try:
                    out = orig(obj, *args, **kwargs)
                    return out
                finally:
                    t1, child = tracer._leave(t0)
                    sid, seq = getattr(tracer._tls, "key", ("", -1))
                    extra = None if out is None else extra_of(obj, out)
                    tracer._record(
                        layer_of(obj), sid, seq, t0, t1, child, extra
                    )

            return stage

        return make

    def _wrap_checkpoint(self, orig):
        tracer = self

        def save_checkpoint(pipe, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(pipe, *args, **kwargs)
            finally:
                tracer._record(
                    "faults.checkpoint", "", pipe.frame_index, t0,
                    time.perf_counter(),
                )

        return save_checkpoint

    def _wrap_serve_submit(self, orig):
        tracer = self

        def submit(server, stream_id, frame, *args, **kwargs):
            seq = tracer._seq[("serve", stream_id)]
            # Registered before the call: a worker may start the step
            # before submit returns to this thread.
            entry = [stream_id, seq, None]
            queue = tracer._pending[id(frame)]
            queue.append(entry)
            t0 = time.perf_counter()
            try:
                ok = orig(server, stream_id, frame, *args, **kwargs)
            except Exception as exc:
                _discard(queue, entry)
                tracer._record(
                    "serve.submit", stream_id, -1, t0, time.perf_counter(),
                    0.0, type(exc).__name__,
                )
                raise
            t1 = time.perf_counter()
            entry[2] = t1
            tracer._seq[("serve", stream_id)] = seq + 1
            if not ok:  # shed: the frame never entered the queue
                _discard(queue, entry)
            tracer._record("serve.submit", stream_id, seq, t0, t1, 0.0, ok)
            return ok

        return submit

    def _wrap_shard_submit(self, orig):
        tracer = self

        def submit(server, stream_id, frame, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                ok = orig(server, stream_id, frame, *args, **kwargs)
            except Exception as exc:
                tracer._record(
                    "shard.submit", stream_id, -1, t0, time.perf_counter(),
                    0.0, type(exc).__name__,
                )
                raise
            seq = tracer._seq[("shard", stream_id)]
            tracer._seq[("shard", stream_id)] = seq + 1
            tracer._record(
                "shard.submit", stream_id, seq, t0, time.perf_counter(),
                0.0, ok,
            )
            return ok

        return submit


def _discard(queue: deque, entry: list) -> None:
    try:
        queue.remove(entry)
    except ValueError:
        pass  # already claimed by a step
