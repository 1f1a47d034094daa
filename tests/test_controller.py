"""Closed-loop serving controller: pure policy, ladder construction,
quality-matrix gating, deterministic transition replay, overload
degradation + recovery, sibling isolation, sharded composition.

The replay tests use a *plug* stream — an injected stub pipeline
blocked on an event — to pin the worker while a target stream's whole
frame schedule is enqueued. With one worker, every window boundary
then sees an exact, replayable queue depth, so two runs of the same
schedule must produce byte-identical transition logs.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.config import (
    ControllerConfig,
    FaultPolicy,
    ServeConfig,
    TelemetryConfig,
)
from repro.core.stream import StreamResult, SurveillancePipeline
from repro.errors import CheckpointError, ConfigError
from repro.serve import ShardedStreamServer, StreamServer
from repro.serve.controller import (
    REASON_INTEGRITY,
    REASON_OVERLOAD,
    REASON_RECOVERED,
    Rung,
    WindowSignals,
    build_ladder,
    decide,
    load_quality_matrix,
    model_switch_tolerated,
    ensure_same_family,
)
from repro.telemetry import MetricsRegistry
from repro.video.scenes import evaluation_scene

SHAPE = (24, 32)

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="shard-process tests prefer fork workers"
)


def scene_frames(seed: int, num_frames: int = 10, shape=SHAPE):
    video = evaluation_scene(height=shape[0], width=shape[1], seed=seed)
    return [video.frame(t) for t in range(num_frames)]


def wait_until(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class GatedPipeline:
    """Stub pipeline that blocks on a gate — the worker plug."""

    def __init__(self, gate: threading.Event):
        self.telemetry = MetricsRegistry(TelemetryConfig())
        self.gate = gate

    def step(self, frame: np.ndarray) -> StreamResult:
        assert self.gate.wait(60.0), "plug gate never opened"
        mask = np.zeros(frame.shape, dtype=bool)
        return StreamResult(
            frame_index=0, raw_mask=mask, mask=mask, tracks=[],
        )


# A synthetic matrix where "tolerant" allows the mog->dmsg switch and
# "fragile" does not (dmsg loses 0.4 F1).
FAKE_MATRIX = {
    "cells": [
        {"model": "mog", "scenario": "tolerant", "f1": 0.90},
        {"model": "dmsg", "scenario": "tolerant", "f1": 0.92},
        {"model": "mog", "scenario": "fragile", "f1": 0.90},
        {"model": "dmsg", "scenario": "fragile", "f1": 0.50},
    ]
}


def make_ladder(**kw):
    cfg = kw.pop("config", ControllerConfig())
    defaults = dict(
        base_level="F", base_model="mog", scenario="tolerant",
        matrix=FAKE_MATRIX, reconfigurable=True, guards_apply=True,
    )
    defaults.update(kw)
    return build_ladder(cfg, **defaults)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestControllerConfig:
    def test_defaults_valid(self):
        cfg = ControllerConfig()
        assert cfg.window_frames >= 1
        assert 0.0 <= cfg.queue_low < cfg.queue_high <= 1.0

    @pytest.mark.parametrize("kw", [
        {"window_frames": 0},
        {"queue_low": 0.8, "queue_high": 0.5},
        {"queue_high": 1.5},
        {"degrade_after": 0},
        {"recover_after": 0},
        {"level_ladder": ()},
        {"level_ladder": ("F", "F")},
        {"model_fallback": "nope"},
        {"guard_relax": 0},
        {"max_log": 0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            ControllerConfig(**kw)

    def test_replace(self):
        cfg = ControllerConfig().replace(window_frames=4)
        assert cfg.window_frames == 4
        with pytest.raises(ConfigError):
            cfg.replace(queue_low=0.9)

    def test_serve_config_carries_controller(self):
        serve = ServeConfig(controller=ControllerConfig())
        assert serve.controller is not None
        with pytest.raises(ConfigError):
            ServeConfig(controller="yes please")


# ----------------------------------------------------------------------
# Ladder construction
# ----------------------------------------------------------------------
class TestLadder:
    def test_full_ladder_shape(self):
        ladder = make_ladder()
        assert [r.kind for r in ladder] == [
            "baseline", "guards", "level", "level", "model", "shed",
        ]
        # Rungs accumulate: the level rungs keep the guard relaxation,
        # the shed rung keeps the deepest level and model.
        assert ladder[2].guard_relax == ladder[1].guard_relax
        assert [r.level for r in ladder] == ["F", "F", "D", "A", "A", "A"]
        assert ladder[-1].model == "dmsg" and ladder[-1].shed

    def test_non_reconfigurable_keeps_baseline_and_shed(self):
        ladder = make_ladder(reconfigurable=False)
        assert [r.kind for r in ladder] == ["baseline", "shed"]

    def test_guards_rung_gated(self):
        assert "guards" not in [
            r.kind for r in make_ladder(guards_apply=False)
        ]
        cfg = ControllerConfig(guard_relax=1)
        assert "guards" not in [
            r.kind for r in make_ladder(config=cfg)
        ]

    def test_base_level_outside_ladder_descends_all(self):
        ladder = make_ladder(base_level="G")
        assert [r.level for r in ladder if r.kind == "level"] == [
            "F", "D", "A",
        ]

    def test_base_level_mid_ladder_descends_rest(self):
        ladder = make_ladder(base_level="D")
        assert [r.level for r in ladder if r.kind == "level"] == ["A"]

    def test_model_rung_needs_tolerant_scenario(self):
        assert "model" not in [
            r.kind for r in make_ladder(scenario="fragile")
        ]
        assert "model" not in [r.kind for r in make_ladder(scenario=None)]
        assert "model" not in [r.kind for r in make_ladder(matrix=None)]

    def test_no_shed_rung_when_disallowed(self):
        cfg = ControllerConfig(allow_shed=False)
        assert "shed" not in [r.kind for r in make_ladder(config=cfg)]


# ----------------------------------------------------------------------
# Quality-matrix gating
# ----------------------------------------------------------------------
class TestMatrixGating:
    def test_committed_matrix_loads(self):
        matrix = load_quality_matrix()
        assert matrix is not None and matrix["cells"]

    def test_missing_matrix_is_none(self, tmp_path):
        assert load_quality_matrix(str(tmp_path / "nope.json")) is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_quality_matrix(str(bad)) is None

    def test_committed_matrix_verdicts(self):
        """The committed artifact's own numbers decide the model rung:
        dmsg holds F1 on the static control but collapses on the
        illumination step and the PTZ pan."""
        matrix = load_quality_matrix()
        margin = ControllerConfig().model_margin
        tol = {
            s: model_switch_tolerated(matrix, s, "mog", "dmsg", margin)
            for s in ("static", "jitter", "illumination", "ptz")
        }
        assert tol["static"] and tol["jitter"]
        assert not tol["illumination"] and not tol["ptz"]

    def test_unknown_scenario_never_switches(self):
        assert not model_switch_tolerated(
            FAKE_MATRIX, "underwater", "mog", "dmsg", 0.5
        )

    def test_ensure_same_family(self):
        ensure_same_family("mog", "mog")
        with pytest.raises(CheckpointError, match="model-family mismatch"):
            ensure_same_family("mog", "dmsg")


# ----------------------------------------------------------------------
# The pure policy
# ----------------------------------------------------------------------
class TestDecide:
    CFG = ControllerConfig(degrade_after=2, recover_after=2)
    LADDER = make_ladder(config=CFG)

    def sig(self, depth, capacity=8, **kw):
        return WindowSignals(
            queue_depth=depth, queue_capacity=capacity, **kw
        )

    def test_band_resets_streaks_and_holds(self):
        # capacity 8: high = ceil(.75*8) = 6, low = floor(.25*8) = 2.
        hot, cool, target, reason = decide(
            0, self.LADDER, self.sig(4), 5, 5, self.CFG
        )
        assert (hot, cool, target, reason) == (0, 0, 0, None)

    def test_degrade_needs_streak(self):
        hot, cool, target, reason = decide(
            0, self.LADDER, self.sig(8), 0, 0, self.CFG
        )
        assert (target, reason) == (0, None) and hot == 1
        hot, cool, target, reason = decide(
            0, self.LADDER, self.sig(8), hot, cool, self.CFG
        )
        assert (target, reason) == (1, REASON_OVERLOAD)
        assert (hot, cool) == (0, 0)  # streaks reset after a move

    def test_shed_activity_counts_hot(self):
        hot, _, _, _ = decide(
            0, self.LADDER, self.sig(0, shed_delta=3), 0, 0, self.CFG
        )
        assert hot == 1

    def test_recover_needs_streak(self):
        hot, cool, target, reason = decide(
            3, self.LADDER, self.sig(0), 0, 1, self.CFG
        )
        assert (target, reason) == (2, REASON_RECOVERED)
        assert (hot, cool) == (0, 0)

    def test_ladder_ends_hold(self):
        top = len(self.LADDER) - 1
        _, _, target, _ = decide(
            top, self.LADDER, self.sig(8), 9, 0, self.CFG
        )
        assert target == top
        _, _, target, _ = decide(
            0, self.LADDER, self.sig(0), 0, 9, self.CFG
        )
        assert target == 0

    def test_integrity_restores_guards_immediately(self):
        guards = [r.kind for r in self.LADDER].index("guards")
        hot, cool, target, reason = decide(
            guards, self.LADDER, self.sig(8, integrity_delta=1),
            0, 0, self.CFG,
        )
        assert (target, reason) == (guards - 1, REASON_INTEGRITY)
        assert (hot, cool) == (0, 0)

    def test_integrity_skips_guards_on_the_way_down(self):
        guards = [r.kind for r in self.LADDER].index("guards")
        _, _, target, reason = decide(
            guards - 1, self.LADDER,
            self.sig(8, integrity_delta=1), 9, 0, self.CFG,
        )
        assert target == guards + 1 and reason == REASON_OVERLOAD

    def test_integrity_skips_guards_on_the_way_up(self):
        guards = [r.kind for r in self.LADDER].index("guards")
        _, _, target, reason = decide(
            guards + 1, self.LADDER,
            self.sig(0, integrity_delta=1), 0, 9, self.CFG,
        )
        assert target == guards - 1 and reason == REASON_RECOVERED

    def test_pure_fold_is_replayable(self):
        """The whole trajectory is a fold over the window signals."""
        windows = [8, 8, 4, 8, 8, 0, 0, 0, 0, 4, 0, 0]

        def run():
            rung, hot, cool, trace = 0, 0, 0, []
            for depth in windows:
                hot, cool, target, reason = decide(
                    rung, self.LADDER, self.sig(depth),
                    hot, cool, self.CFG,
                )
                if target != rung:
                    trace.append((rung, target, reason))
                rung = target
            return trace

        first, second = run(), run()
        assert first == second
        assert first == [
            (0, 1, REASON_OVERLOAD),
            (1, 2, REASON_OVERLOAD),
            (2, 1, REASON_RECOVERED),
            (1, 0, REASON_RECOVERED),
        ]


# ----------------------------------------------------------------------
# The controlled thread server
# ----------------------------------------------------------------------
def plugged_run(serve, schedule_frames, scenario="static", extra=None):
    """Run one deterministic controlled-server schedule.

    A gated plug stream pins the single worker while ``cam0``'s whole
    schedule is enqueued; once the gate opens the worker alternates
    between the (empty) plug queue and cam0, so the queue depth at
    every window boundary is exact. Returns (log, status, results,
    counters) for cam0.
    """
    gate = threading.Event()
    server = StreamServer(SHAPE, serve=serve)
    try:
        server.add_stream("plug", pipeline=GatedPipeline(gate))
        server.add_stream("cam0", scenario=scenario)
        server.submit("plug", np.zeros(SHAPE))
        for frame in schedule_frames:
            server.submit("cam0", frame)
        gate.set()
        server.drain()
        if extra is not None:
            extra(server)
        log = server.controller_log()
        status = {s["stream"]: s for s in server.stream_status()}
        results = server.results("cam0")
        counters = server.snapshot()["counters"]
    finally:
        server.close(drain=False)
    return log, status, results, counters


class TestControlledServer:
    def controlled_serve(self, **ctrl_kw):
        defaults = dict(
            window_frames=8, degrade_after=1, recover_after=2,
            queue_high=0.5, queue_low=0.25,
        )
        defaults.update(ctrl_kw)
        return ServeConfig(
            workers=1, queue_capacity=64,
            controller=ControllerConfig(**defaults),
        )

    def test_transition_log_replays_identically(self):
        """The acceptance pin: the same stream schedule, run twice
        through real pipelines, yields byte-identical transition logs
        — depths, windows, rungs, reasons and all."""
        frames = scene_frames(seed=7, num_frames=48)
        runs = [
            plugged_run(self.controlled_serve(), frames) for _ in range(2)
        ]
        (log_a, status_a, results_a, _), (log_b, _, results_b, _) = runs
        assert log_a == log_b
        assert log_a, "schedule produced no transitions"
        # Depths at the boundaries are exact: 48 queued frames drain
        # through windows of 8, so hot (40, 32), band (24), cool
        # (16, 8) — two downshifts, then one recovery.
        assert [
            (e["action"], e["queue_depth"], e["reason"]) for e in log_a
        ] == [
            ("downshift", 40, REASON_OVERLOAD),
            ("downshift", 32, REASON_OVERLOAD),
            ("upshift", 8, REASON_RECOVERED),
        ]
        assert len(results_a) == len(results_b) == len(frames)
        assert status_a["cam0"]["controller_rung"] == 1

    def test_level_downshift_keeps_masks_well_formed(self):
        """Across the D/A downshifts every frame still emits a mask of
        the right geometry, in order."""
        frames = scene_frames(seed=9, num_frames=48)
        _, _, results, _ = plugged_run(self.controlled_serve(), frames)
        assert [r.frame_index for r in results] == list(range(48))
        assert all(r.mask.shape == SHAPE for r in results)

    def test_model_switch_preserves_continuity(self):
        """Descending to the model rung is a cross-family swap: fresh
        model state (counted), continuous frame indices, new family
        visible in status."""
        frames = scene_frames(seed=11, num_frames=48)
        serve = self.controlled_serve(
            window_frames=4, recover_after=99, allow_shed=False,
        )
        log, status, results, counters = plugged_run(serve, frames)
        assert status["cam0"]["model"] == "dmsg"
        assert status["cam0"]["level"] == "A"
        assert [r.frame_index for r in results] == list(range(48))
        assert counters["stream.cam0.controller.model_fresh_starts"] == 1
        kinds = [e["to"]["kind"] for e in log if e["action"] == "downshift"]
        assert kinds[-1] == "model"

    def test_model_rung_checkpoint_resumes_on_baseline(self, tmp_path):
        """A checkpoint written while the controller held the stream on
        the dmsg model rung resumes on a fresh server: the stream is
        admitted on the mog baseline at the checkpoint's cursor, the
        model restarts fresh (counted), and frame indices continue."""
        frames = scene_frames(seed=11, num_frames=56)
        serve = self.controlled_serve(
            window_frames=4, recover_after=99, allow_shed=False,
        ).replace(checkpoint_every=1, checkpoint_dir=str(tmp_path))
        _, status, results, _ = plugged_run(serve, frames[:48])
        assert status["cam0"]["model"] == "dmsg"
        assert (tmp_path / "cam0.ckpt").exists()

        server = StreamServer(SHAPE, serve=serve.replace(resume=True))
        try:
            server.add_stream("cam0", scenario="static")
            resumed = {s["stream"]: s for s in server.stream_status()}
            for frame in frames[48:]:
                server.submit("cam0", frame)
            server.drain()
            after = server.results("cam0")
            counters = server.snapshot()["counters"]
        finally:
            server.close(drain=False)
        assert resumed["cam0"]["model"] == "mog"
        assert resumed["cam0"]["resumed_source_seq"] == 47
        assert counters["server.resume_degraded_salvaged"] == 1
        assert counters["stream.cam0.controller.model_fresh_starts"] == 1
        assert [r.frame_index for r in results + after] == list(range(56))

    def test_untagged_stream_never_switches_model(self):
        frames = scene_frames(seed=13, num_frames=48)
        serve = self.controlled_serve(
            window_frames=4, recover_after=99, allow_shed=False,
        )
        log, status, _, _ = plugged_run(serve, frames, scenario=None)
        assert status["cam0"]["model"] == "mog"
        assert all(e["to"]["kind"] != "model" for e in log)

    def test_calm_sibling_masks_bit_identical_to_serial(self, params):
        """A degraded stream must not perturb its sibling: a stream
        that never crosses a watermark stays at rung 0 and its masks
        match an uninterrupted serial run."""
        hot_frames = scene_frames(seed=17, num_frames=48)
        calm_frames = scene_frames(seed=19, num_frames=12)
        serve = ServeConfig(
            workers=1, queue_capacity=64,
            controller=ControllerConfig(
                window_frames=8, degrade_after=1, recover_after=2,
                queue_high=0.5, queue_low=0.25,
            ),
        )
        gate = threading.Event()
        server = StreamServer(SHAPE, params=params, serve=serve)
        try:
            server.add_stream("plug", pipeline=GatedPipeline(gate))
            server.add_stream("hot", scenario="static")
            server.add_stream("calm", scenario="static")
            server.submit("plug", np.zeros(SHAPE))
            for frame in hot_frames:
                server.submit("hot", frame)
            gate.set()
            server.drain()
            # The calm stream arrives as a trickle after the burst:
            # one window per wave, fully drained, so its depth at
            # every boundary is 0.
            for frame in calm_frames:
                server.submit("calm", frame)
                server.drain()
            log = server.controller_log()
            got = server.results("calm")
            status = {s["stream"]: s for s in server.stream_status()}
        finally:
            server.close(drain=False)
        assert any(e["stream"] == "hot" for e in log)
        assert all(e["stream"] != "calm" for e in log)
        assert status["calm"]["controller_rung"] == 0
        pipe = SurveillancePipeline(SHAPE, params)
        for r, frame in zip(got, calm_frames):
            assert np.array_equal(r.mask, pipe.step(frame).mask)

    def test_overload_sheds_bounded_and_recovers(self):
        """The acceptance scenario: 2x overload with the controller on
        keeps every stream emitting (bounded shed, no unhandled
        BackpressureError), then a light load walks every stream back
        to baseline."""
        ctrl = ControllerConfig(
            window_frames=4, degrade_after=1, recover_after=2,
            queue_high=0.5, queue_low=0.25,
        )
        serve = ServeConfig(
            workers=2, queue_capacity=4, controller=ctrl,
        )
        streams = [f"cam{i}" for i in range(8)]
        frames = scene_frames(seed=23, num_frames=40, shape=SHAPE)
        server = StreamServer(SHAPE, serve=serve)
        try:
            for sid in streams:
                server.add_stream(sid, scenario="static")
            for frame in frames:  # the burst: 8 streams over 2 workers
                for sid in streams:
                    server.submit(sid, frame)
            server.drain()
            snap = server.snapshot()["counters"]
            shed = snap.get("server.frames_shed", 0)
            submitted = len(frames) * len(streams)
            assert shed < submitted // 2, "shed more than half the load"
            done = {
                s["stream"]: s["frames_done"]
                for s in server.stream_status()
            }
            assert all(done[sid] > 0 for sid in streams)
            assert snap["server.controller.transitions"] > 0
            # Load drops: a one-frame-at-a-time trickle (shed frames
            # during the burst leave frames_done unaligned with the
            # window, so fixed-size waves could skip every boundary).
            # Each boundary now sees an empty queue, so every stream
            # climbs back to rung 0.
            for _ in range(80):
                for sid in streams:
                    server.submit(sid, frames[-1])
                server.drain()
                status = server.stream_status()
                if all(s["controller_rung"] == 0 for s in status):
                    break
            status = {s["stream"]: s for s in server.stream_status()}
            for sid in streams:
                assert status[sid]["controller_rung"] == 0, sid
        finally:
            server.close(drain=False)

    def test_log_is_bounded(self):
        cfg = ControllerConfig(max_log=2)
        serve = ServeConfig(
            workers=1, queue_capacity=64,
            controller=cfg.replace(
                window_frames=4, degrade_after=1, recover_after=1,
                queue_high=0.5, queue_low=0.25,
            ),
        )
        frames = scene_frames(seed=29, num_frames=48)
        log, _, _, _ = plugged_run(serve, frames)
        assert len(log) <= 2

    def test_server_without_controller_has_empty_log(self):
        server = StreamServer(SHAPE, serve=ServeConfig(workers=1))
        try:
            assert server.controller_log() == []
            status = server.stream_status()
            assert status == []
        finally:
            server.close(drain=False)


# ----------------------------------------------------------------------
# Sharded composition
# ----------------------------------------------------------------------
@needs_fork
class TestShardedController:
    def test_controller_rides_into_shards_and_survives_sigkill(
        self, params, tmp_path
    ):
        """Controller + shard death compose: the burst degrades
        streams inside the shards, a SIGKILL rebalances the victims
        (scenario tags re-sent), and the merged transition log stays
        bounded — no oscillation storm."""
        ctrl = ControllerConfig(
            window_frames=4, degrade_after=1, recover_after=2,
            queue_high=0.5, queue_low=0.25,
        )
        streams = {
            f"cam{i}": scene_frames(seed=50 + i, num_frames=24)
            for i in range(4)
        }
        with ShardedStreamServer(
            SHAPE, params=params,
            serve=ServeConfig(
                shards=2, workers=1, queue_capacity=4,
                checkpoint_every=1, checkpoint_dir=str(tmp_path),
                controller=ctrl,
            ),
            fault_policy=FaultPolicy(
                policy="restart", stage_error="degrade"
            ),
            frame_dtype=np.uint8,
        ) as server:
            for sid in streams:
                server.add_stream(sid, scenario="static")
            for sid, frames in streams.items():
                for f in frames[:12]:
                    server.submit(sid, f)
            server.drain()

            by_shard: dict[int, list[str]] = {}
            for row in server.stream_status():
                by_shard.setdefault(row["shard"], []).append(row["stream"])
            victim = max(by_shard, key=lambda k: len(by_shard[k]))
            pid = server.shard_pids()[victim]
            assert pid is not None
            os.kill(pid, signal.SIGKILL)
            wait_until(lambda: server.shard_pids()[victim] is None)
            wait_until(lambda: all(
                r["failed"] is None for r in server.stream_status()
            ))

            for sid, frames in streams.items():
                for f in frames[12:]:
                    server.submit(sid, f)
            server.drain()

            log = server.controller_log()
            snap = server.snapshot()
            for entry in log:
                assert "shard" in entry
                assert entry["stream"] in streams
            # No oscillation: each stream commits at most one full
            # descent + one full climb per life (two lives for the
            # victims after the rebalance).
            ladder_span = 6
            per_stream: dict[str, int] = {}
            for entry in log:
                per_stream[entry["stream"]] = (
                    per_stream.get(entry["stream"], 0) + 1
                )
            for sid, count in per_stream.items():
                assert count <= 4 * ladder_span, (sid, count)
            assert snap["counters"].get("server.shard_deaths") == 1
            # Every stream kept emitting through the burst and the
            # shard death: results flow for all of them.
            for sid in streams:
                assert server.results(sid), sid

    def test_sharded_controller_log_merges_and_counts(self, params):
        """Under steady overload the per-shard governors degrade their
        streams and the gateway rolls the counters up per shard."""
        ctrl = ControllerConfig(
            window_frames=4, degrade_after=1, recover_after=99,
        )
        streams = {
            f"cam{i}": scene_frames(seed=70 + i, num_frames=20)
            for i in range(4)
        }
        with ShardedStreamServer(
            SHAPE, params=params,
            serve=ServeConfig(
                shards=2, workers=1, queue_capacity=4, controller=ctrl,
            ),
            frame_dtype=np.uint8,
        ) as server:
            for sid in streams:
                server.add_stream(sid, scenario="static")
            for sid, frames in streams.items():
                for f in frames:
                    server.submit(sid, f)
            server.drain()
            log = server.controller_log()
            snap = server.snapshot()
        if log:  # overload on tiny frames is scheduling-dependent
            total = sum(
                v for k, v in snap["counters"].items()
                if k.endswith("controller.transitions")
                and k.startswith("server.shard.")
            )
            assert total == len(log)
