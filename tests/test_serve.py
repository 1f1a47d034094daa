"""Multi-stream StreamServer: scheduling, admission, backpressure,
fault isolation, telemetry aggregation.

Tiny frames or stub pipelines keep every test deterministic and fast.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import FaultPolicy, ServeConfig, TelemetryConfig
from repro.core.stream import StreamResult, SurveillancePipeline
from repro.errors import BackpressureError, ConfigError, WorkerError
from repro.serve import StreamServer, serve_sequences
from repro.telemetry import MetricsRegistry
from repro.video.scenes import evaluation_scene

SHAPE = (24, 32)


def scene_frames(seed: int, num_frames: int = 10, shape=SHAPE):
    video = evaluation_scene(height=shape[0], width=shape[1], seed=seed)
    return [video.frame(t) for t in range(num_frames)]


def tagged_frame(tag: int, shape=SHAPE) -> np.ndarray:
    """A frame whose identity survives the queue (pixel [0, 0])."""
    frame = np.zeros(shape, dtype=np.float64)
    frame[0, 0] = tag
    return frame


class StubPipeline:
    """Minimal pipeline double: records the frames it steps, can block
    on a gate, and can raise on chosen step numbers."""

    def __init__(self, gate: threading.Event | None = None,
                 fail_on: set[int] | None = None):
        self.telemetry = MetricsRegistry(TelemetryConfig())
        self.gate = gate
        self.fail_on = fail_on or set()
        self.seen: list[int] = []
        self.calls = 0

    def step(self, frame: np.ndarray) -> StreamResult:
        call = self.calls
        self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(30.0), "test gate never opened"
        if call in self.fail_on:
            raise RuntimeError(f"stub failure at step {call}")
        self.seen.append(int(frame[0, 0]))
        mask = np.zeros(frame.shape, dtype=bool)
        return StreamResult(
            frame_index=len(self.seen) - 1, raw_mask=mask, mask=mask,
            tracks=[],
        )


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"workers": 0}, {"max_streams": 0}, {"queue_capacity": 0},
        {"backpressure": "spill"}, {"batch_frames": 0},
        {"submit_timeout_s": 0.0}, {"drain_timeout_s": -1.0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            ServeConfig(**kw)

    def test_replace(self):
        cfg = ServeConfig().replace(workers=7)
        assert cfg.workers == 7


class TestAdmission:
    def test_max_streams_enforced(self):
        with StreamServer(
            SHAPE, serve=ServeConfig(max_streams=2)
        ) as server:
            server.add_stream("a")
            server.add_stream("b")
            with pytest.raises(ConfigError, match="max_streams"):
                server.add_stream("c")

    def test_duplicate_and_bad_ids_rejected(self):
        with StreamServer(SHAPE) as server:
            server.add_stream("a")
            with pytest.raises(ConfigError, match="already registered"):
                server.add_stream("a")
            with pytest.raises(ConfigError):
                server.add_stream("")
            with pytest.raises(ConfigError, match=r"'\.'"):
                server.add_stream("cam.0")

    def test_unknown_stream_rejected(self):
        with StreamServer(SHAPE) as server:
            with pytest.raises(ConfigError, match="unknown stream"):
                server.submit("ghost", tagged_frame(0))
            with pytest.raises(ConfigError, match="unknown stream"):
                server.results("ghost")

    def test_closed_server_rejects_everything(self):
        server = StreamServer(SHAPE)
        server.add_stream("a")
        server.close()
        with pytest.raises(ConfigError, match="closed"):
            server.submit("a", tagged_frame(0))
        with pytest.raises(ConfigError, match="closed"):
            server.add_stream("b")

    def test_remove_stream_frees_a_slot(self):
        with StreamServer(
            SHAPE, serve=ServeConfig(max_streams=1)
        ) as server:
            stub = StubPipeline()
            server.add_stream("a", pipeline=stub)
            server.submit("a", tagged_frame(7))
            wait_until(lambda: stub.seen == [7])
            leftovers = server.remove_stream("a")
            assert [int(r.frame_index) for r in leftovers] == [0]
            server.add_stream("b")  # slot is free again


class TestScheduling:
    def test_masks_bit_identical_to_serial(self, params):
        """The acceptance scenario: 8 streams multiplexed over a small
        pool produce exactly the masks of 8 serial pipeline runs."""
        sequences = {
            f"cam{i}": scene_frames(seed=20 + i, num_frames=10)
            for i in range(8)
        }
        served = serve_sequences(
            SHAPE, sequences, params=params,
            serve=ServeConfig(workers=3, queue_capacity=4),
        )
        for sid, frames in sequences.items():
            serial = SurveillancePipeline(SHAPE, params).run(frames)
            assert len(served[sid]) == len(serial)
            for got, want in zip(served[sid], serial):
                assert got.frame_index == want.frame_index
                assert np.array_equal(got.mask, want.mask)
                assert np.array_equal(got.raw_mask, want.raw_mask)

    def test_per_stream_order_preserved(self):
        with StreamServer(
            SHAPE, serve=ServeConfig(workers=4, queue_capacity=32)
        ) as server:
            stubs = {sid: StubPipeline() for sid in ("a", "b", "c")}
            for sid, stub in stubs.items():
                server.add_stream(sid, pipeline=stub)
            for t in range(20):
                for sid in stubs:
                    server.submit(sid, tagged_frame(t))
            server.drain()
            for stub in stubs.values():
                assert stub.seen == list(range(20))

    def test_round_robin_shares_a_single_worker(self):
        """A hot stream with a deep queue cannot starve a sibling: with
        one worker, the sibling's lone frame is served after at most
        ``batch_frames`` of the hot stream's backlog."""
        gate = threading.Event()
        hot = StubPipeline(gate=gate)
        cold = StubPipeline(gate=gate)
        with StreamServer(
            SHAPE,
            serve=ServeConfig(workers=1, queue_capacity=16, batch_frames=2),
        ) as server:
            server.add_stream("hot", pipeline=hot)
            server.add_stream("cold", pipeline=cold)
            for t in range(10):
                server.submit("hot", tagged_frame(t))
            server.submit("cold", tagged_frame(99))
            gate.set()
            server.drain()
            assert cold.seen == [99]
            # The cold frame was served before the hot backlog finished:
            # the worker had at most one batch in flight plus one batch
            # taken before the cold frame's turn.
            assert hot.seen == list(range(10))


class TestBackpressure:
    def _gated_server(self, policy: str, capacity: int = 2):
        gate = threading.Event()
        stub = StubPipeline(gate=gate)
        server = StreamServer(
            SHAPE,
            serve=ServeConfig(
                workers=1, queue_capacity=capacity, backpressure=policy,
                submit_timeout_s=0.2,
            ),
        )
        server.add_stream("s", pipeline=stub)
        # Occupy the only worker so queued frames stay queued.
        server.submit("s", tagged_frame(0))
        wait_until(lambda: stub.calls >= 1)  # worker is inside step()
        return server, stub, gate

    def test_reject_raises_when_full(self):
        server, stub, gate = self._gated_server("reject")
        try:
            server.submit("s", tagged_frame(1))
            server.submit("s", tagged_frame(2))
            with pytest.raises(BackpressureError) as err:
                server.submit("s", tagged_frame(3))
            assert err.value.stream_id == "s"
            gate.set()
            server.drain()
            assert stub.seen == [0, 1, 2]
        finally:
            gate.set()
            server.close(drain=False)

    def test_drop_oldest_evicts_and_counts(self):
        server, stub, gate = self._gated_server("drop_oldest")
        try:
            assert server.submit("s", tagged_frame(1))
            assert server.submit("s", tagged_frame(2))
            assert not server.submit("s", tagged_frame(3))  # evicts 1
            gate.set()
            server.drain()
            assert stub.seen == [0, 2, 3]
            snap = server.snapshot()
            assert snap["counters"]["server.frames_dropped"] == 1
            assert snap["counters"]["stream.s.frames_dropped"] == 1
        finally:
            gate.set()
            server.close(drain=False)

    def test_block_times_out_under_slow_consumer(self):
        server, stub, gate = self._gated_server("block")
        try:
            server.submit("s", tagged_frame(1))
            server.submit("s", tagged_frame(2))
            t0 = time.monotonic()
            with pytest.raises(BackpressureError, match="still full"):
                server.submit("s", tagged_frame(3))
            assert 0.1 < time.monotonic() - t0 < 5.0
        finally:
            gate.set()
            server.close(drain=False)

    def test_block_admits_once_consumer_catches_up(self):
        server, stub, gate = self._gated_server("block")
        try:
            server.submit("s", tagged_frame(1))
            server.submit("s", tagged_frame(2))
            threading.Timer(0.05, gate.set).start()
            # Space frees as the worker drains; the blocked submit lands.
            server.submit("s", tagged_frame(3), timeout_s=10.0)
            server.drain()
            assert stub.seen == [0, 1, 2, 3]
        finally:
            gate.set()
            server.close(drain=False)


class TestFaultIsolation:
    def test_failed_stream_does_not_touch_siblings(self, params):
        """One stream's pipeline raises mid-run under policy="fail":
        that stream is marked failed, its backlog is dropped, and the
        sibling streams' results are complete and correct."""
        bad = StubPipeline(fail_on={2})
        with StreamServer(
            SHAPE, params=params,
            serve=ServeConfig(workers=2, queue_capacity=16),
            fault_policy=FaultPolicy(policy="fail", stage_error="degrade"),
        ) as server:
            good = StubPipeline()
            server.add_stream("bad", pipeline=bad)
            server.add_stream("good", pipeline=good)
            for t in range(6):
                try:
                    server.submit("bad", tagged_frame(t))
                except WorkerError:
                    pass  # workers may mark 'bad' failed mid-loop
                server.submit("good", tagged_frame(t))
            server.drain()
            assert good.seen == list(range(6))
            status = {s["stream"]: s for s in server.stream_status()}
            assert status["bad"]["failed"] is not None
            assert status["good"]["failed"] is None
            with pytest.raises(WorkerError, match="has failed"):
                server.submit("bad", tagged_frame(9))
            server.submit("good", tagged_frame(6))  # sibling still serves
            server.drain()
            snap = server.snapshot()
            assert snap["counters"]["server.streams_failed"] == 1
            assert snap["counters"]["server.stream_errors"] == 1

    def test_restart_policy_rebuilds_the_pipeline(self):
        built = []

        def factory(registry):
            stub = StubPipeline(fail_on={1} if not built else set())
            built.append(stub)
            return stub

        with StreamServer(
            SHAPE,
            serve=ServeConfig(workers=1, queue_capacity=16),
            fault_policy=FaultPolicy(policy="restart", max_restarts=2,
                                     stage_error="degrade"),
        ) as server:
            server.add_stream("s", pipeline_factory=factory)
            for t in range(4):
                server.submit("s", tagged_frame(t))
            server.drain()
            status = server.stream_status()[0]
            assert status["failed"] is None
            assert status["restarts"] == 1
            assert len(built) == 2
            # Frame 1 crashed the first stub and was replayed on its
            # replacement; no frame was lost.
            assert built[0].seen == [0]
            assert built[1].seen == [1, 2, 3]
            snap = server.snapshot()
            assert snap["counters"]["server.stream_restarts"] == 1
            assert snap["counters"]["stream.s.restarts"] == 1


class TestTelemetry:
    def test_snapshot_has_per_stream_and_rollups(self, params):
        sequences = {
            "a": scene_frames(seed=5, num_frames=4),
            "b": scene_frames(seed=6, num_frames=4),
        }
        with StreamServer(
            SHAPE, params=params, serve=ServeConfig(workers=2)
        ) as server:
            for sid, frames in sequences.items():
                server.add_stream(sid)
                for frame in frames:
                    server.submit(sid, frame)
            server.drain()
            snap = server.snapshot()
        counters = snap["counters"]
        assert counters["server.frames_total"] == 8
        assert counters["stream.a.frames_total"] == 4
        assert counters["stream.b.frames_total"] == 4
        assert snap["gauges"]["server.streams_active"] == 2
        assert snap["gauges"]["server.queue_depth"] == 0
        hists = snap["histograms"]
        assert hists["server.step_s"]["count"] == 8
        assert hists["stream.a.step_s"]["count"] == 4
        assert hists["stream.b.subtract_s"]["count"] == 4

    def test_disabled_telemetry_is_empty(self, params):
        with StreamServer(
            SHAPE, params=params,
            telemetry=TelemetryConfig(enabled=False),
        ) as server:
            server.add_stream("a")
            server.submit("a", scene_frames(seed=5, num_frames=1)[0])
            server.drain()
            snap = server.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


class TestDurableCheckpoints:
    def _config(self, tmp_path, **kw):
        base = dict(
            workers=1, queue_capacity=32,
            checkpoint_dir=str(tmp_path),
        )
        base.update(kw)
        return ServeConfig(**base)

    def test_periodic_checkpoints_written(self, params, tmp_path):
        frames = scene_frames(seed=3, num_frames=10)
        cfg = self._config(tmp_path, checkpoint_every=5)
        with StreamServer(SHAPE, params=params, serve=cfg) as server:
            server.add_stream("cam")
            for f in frames:
                server.submit("cam", f)
            server.drain()
            snap = server.snapshot()["counters"]
        assert (tmp_path / "cam.ckpt").exists()
        # Frames 0..9 with a period of 5: after frame indices 4 and 9.
        assert snap["server.checkpoints_written"] == 2
        assert snap["stream.cam.checkpoint.written"] == 2

    def test_resume_continues_bit_identically(self, params, tmp_path):
        """Serving acceptance: kill a server after frame 9, bring up a
        fresh one with ``resume=True``, feed the remaining frames — the
        masks match an uninterrupted server run bit for bit."""
        frames = scene_frames(seed=5, num_frames=16)
        with StreamServer(
            SHAPE, params=params, serve=ServeConfig(workers=1)
        ) as server:
            server.add_stream("cam")
            for f in frames:
                server.submit("cam", f)
            server.drain()
            expected = server.results("cam")

        cfg = self._config(tmp_path, checkpoint_every=5)
        with StreamServer(SHAPE, params=params, serve=cfg) as first:
            first.add_stream("cam")
            for f in frames[:10]:
                first.submit("cam", f)
            first.drain()  # last checkpoint covers frames 0..9

        resumed_cfg = self._config(tmp_path, resume=True)
        with StreamServer(SHAPE, params=params, serve=resumed_cfg) as second:
            second.add_stream("cam")
            status = next(
                s for s in second.stream_status() if s["stream"] == "cam"
            )
            assert status["frame_index"] == 9  # restored, not fresh
            for f in frames[10:]:
                second.submit("cam", f)
            second.drain()
            got = second.results("cam")
            snap = second.snapshot()["counters"]
        assert snap["server.checkpoints_restored"] == 1
        assert [r.frame_index for r in got] == list(range(10, 16))
        for res, want in zip(got, expected[10:]):
            assert np.array_equal(res.mask, want.mask)

    def test_resume_without_file_starts_fresh(self, params, tmp_path):
        cfg = self._config(tmp_path, resume=True)
        with StreamServer(SHAPE, params=params, serve=cfg) as server:
            server.add_stream("cam")  # no checkpoint on disk: fresh
            server.submit("cam", scene_frames(seed=1, num_frames=1)[0])
            server.drain()
            results = server.results("cam")
        assert results[0].frame_index == 0

    def test_corrupt_checkpoint_fails_admission_loudly(
        self, params, tmp_path
    ):
        """A stream must not silently start from scratch when its
        checkpoint is unreadable — that would violate the resume
        contract without anyone noticing."""
        from repro.errors import CheckpointError

        (tmp_path / "cam.ckpt").write_bytes(b"JUNKJUNKJUNK")
        cfg = self._config(tmp_path, resume=True)
        with StreamServer(SHAPE, params=params, serve=cfg) as server:
            with pytest.raises(CheckpointError):
                server.add_stream("cam")

    def test_checkpoint_config_requires_dir(self):
        with pytest.raises(ConfigError):
            ServeConfig(checkpoint_every=5)
        with pytest.raises(ConfigError):
            ServeConfig(resume=True)


class TestLifecycle:
    def test_close_drains_by_default(self):
        server = StreamServer(SHAPE, serve=ServeConfig(workers=1))
        stub = StubPipeline()
        server.add_stream("a", pipeline=stub)
        for t in range(5):
            server.submit("a", tagged_frame(t))
        server.close()
        assert stub.seen == list(range(5))
        server.close()  # idempotent

    def test_close_without_drain_abandons_backlog(self):
        gate = threading.Event()
        stub = StubPipeline(gate=gate)
        server = StreamServer(
            SHAPE, serve=ServeConfig(workers=1, queue_capacity=8)
        )
        server.add_stream("a", pipeline=stub)
        for t in range(5):
            server.submit("a", tagged_frame(t))
        gate.set()
        server.close(drain=False)
        assert len(stub.seen) <= 5

    def test_drain_timeout_raises(self):
        gate = threading.Event()
        stub = StubPipeline(gate=gate)
        server = StreamServer(
            SHAPE, serve=ServeConfig(workers=1, queue_capacity=8)
        )
        try:
            server.add_stream("a", pipeline=stub)
            server.submit("a", tagged_frame(0))
            with pytest.raises(WorkerError, match="did not drain"):
                server.drain(timeout_s=0.2)
        finally:
            gate.set()
            server.close(drain=False)


class TestAdmissionAtomicity:
    """Regression tests for the add_stream TOCTOU race: the capacity /
    duplicate check and the registration used to happen under separate
    lock acquisitions with the (slow) pipeline build in between."""

    def test_concurrent_admissions_cannot_overshoot(self):
        """Two adds racing for the last slot: exactly one wins, and the
        loser fails fast instead of both passing the pre-build check."""
        with StreamServer(
            SHAPE, serve=ServeConfig(max_streams=2)
        ) as server:
            server.add_stream("a")
            errors: list[str] = []
            admitted: list[str] = []

            def slow_factory(registry):
                time.sleep(0.25)  # keep both builds overlapped
                return StubPipeline()

            def admit(sid: str) -> None:
                try:
                    server.add_stream(sid, pipeline_factory=slow_factory)
                    admitted.append(sid)
                except ConfigError as exc:
                    errors.append(str(exc))

            threads = [
                threading.Thread(target=admit, args=(sid,))
                for sid in ("b", "c")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(admitted) == 1
            assert len(errors) == 1 and "max_streams" in errors[0]
            assert len(server.stream_status()) == 2

    def test_concurrent_duplicate_admission_single_winner(self):
        """The same id admitted from two threads: one registration, one
        'already registered' error — never two pipelines built into the
        same slot."""
        with StreamServer(SHAPE) as server:
            outcomes: list[str] = []

            def admit() -> None:
                try:
                    server.add_stream(
                        "cam",
                        pipeline_factory=lambda reg: (
                            time.sleep(0.25), StubPipeline()
                        )[1],
                    )
                    outcomes.append("ok")
                except ConfigError:
                    outcomes.append("dup")

            threads = [
                threading.Thread(target=admit) for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(outcomes) == ["dup", "ok"]
            assert len(server.stream_status()) == 1

    def test_failed_resume_releases_the_slot(self, params, tmp_path):
        """A resume failure must not leak the reserved admission slot."""
        from repro.errors import CheckpointError

        (tmp_path / "cam.ckpt").write_bytes(b"JUNKJUNKJUNK")
        cfg = ServeConfig(
            workers=1, max_streams=1,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        with StreamServer(SHAPE, params=params, serve=cfg) as server:
            with pytest.raises(CheckpointError):
                server.add_stream("cam")
            server.add_stream("other")  # slot was released


class TestDropCheckpointCursor:
    """Regression tests for drop_oldest vs checkpoint replay: the
    checkpoint must record the *submission cursor* (the sequence number
    of the last frame actually consumed), not the processed-frame
    count, or a resume after drops replays frames the live run never
    saw twice."""

    def test_drop_then_crash_then_resume_bit_identical(
        self, params, tmp_path
    ):
        frames = scene_frames(seed=9, num_frames=8)
        cfg = ServeConfig(
            workers=1, queue_capacity=2, backpressure="drop_oldest",
            checkpoint_every=1, checkpoint_dir=str(tmp_path),
        )
        gate = threading.Event()
        stub = StubPipeline(gate=gate)
        with StreamServer(SHAPE, params=params, serve=cfg) as server:
            server.add_stream("cam")
            server.add_stream("gate", pipeline=stub)
            # Phase 1: two frames flow through normally.
            server.submit("cam", frames[0])
            server.submit("cam", frames[1])
            wait_until(lambda: next(
                s for s in server.stream_status() if s["stream"] == "cam"
            )["frames_done"] == 2)
            # Phase 2: park the single worker on the gated stream, then
            # overflow cam's 2-deep queue so drops are deterministic.
            server.submit("gate", tagged_frame(1))
            wait_until(lambda: stub.calls == 1)
            for f in frames[2:6]:          # seqs 2..5; 2 and 3 evicted
                server.submit("cam", f)
            gate.set()
            server.drain()
            live = server.results("cam")
            status = {
                s["stream"]: s for s in server.stream_status()
            }["cam"]
            assert status["frames_dropped"] == 2
            # The cursor is the *source* sequence (5), not the number
            # of frames processed (4).
            assert status["source_seq"] == 5

        # The frames the live run actually consumed, serially.
        consumed = [frames[0], frames[1], frames[4], frames[5]]
        tail = frames[6:]
        pipe = SurveillancePipeline(
            SHAPE, params=params, backend="cpu", level="F"
        )
        reference = [pipe.step(f) for f in consumed + tail]
        for got, want in zip(live, reference[: len(live)]):
            assert np.array_equal(got.mask, want.mask)

        # Crash + resume: the new server must continue at source frame
        # source_seq + 1 = 6, not at frame_index + 1 = 4.
        resumed_cfg = ServeConfig(
            workers=1, checkpoint_dir=str(tmp_path), resume=True,
        )
        with StreamServer(
            SHAPE, params=params, serve=resumed_cfg
        ) as server:
            server.add_stream("cam")
            status = {
                s["stream"]: s for s in server.stream_status()
            }["cam"]
            assert status["resumed_source_seq"] == 5
            for f in frames[status["resumed_source_seq"] + 1:]:
                server.submit("cam", f)
            server.drain()
            resumed = server.results("cam")
        assert len(resumed) == len(tail)
        for got, want in zip(resumed, reference[len(consumed):]):
            assert np.array_equal(got.mask, want.mask)
