"""The CPU engine contract (:mod:`repro.cpu.engine`).

The engines are what ``backend="cpu"`` (and the jit fallback) runs at
MoG levels D-G and every DMSG level, so they are pinned bit-identical
to the readable oracles, across block boundaries, through integrity
guarding, and under the two hazards in-place state and shared
per-thread scratch introduce: aliased snapshots/masks and interleaved
or concurrent engines.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.config import IntegrityPolicy, MoGParams
from repro.core.subtractor import BackgroundSubtractor
from repro.cpu.engine import (
    BLOCK_PIXELS,
    ENGINE_VARIANTS,
    DmsgEngine,
    MoGEngine,
)
from repro.dmsg import DmsgVectorized
from repro.errors import ConfigError, IntegrityError
from repro.mog import MoGVectorized
from repro.telemetry import MetricsRegistry
from repro.video.scenes import evaluation_scene, illumination_scene

PARAMS = MoGParams(learning_rate=0.08, initial_sd=8.0)
#: Below one block, one full block plus a partial one, and exactly
#: three blocks.
PIXEL_SHAPES = [(7, 13), (90, 100), (3 * BLOCK_PIXELS // 128, 128)]
SHAPE = PIXEL_SHAPES[1]


def _frames(n, shape=SHAPE, seed=5):
    video = evaluation_scene(height=shape[0], width=shape[1], seed=seed)
    return [video.frame(t) for t in range(n)]


def _step_frames(n, shape=SHAPE, seed=9):
    """Noisy frames whose left half jumps by 90 grey levels at frame 3,
    so DMSG candidates take over the background (the swap path)."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(40, 120, size=shape)
    out = []
    for t in range(n):
        f = base + rng.normal(0, 2, size=shape)
        if t >= 3:
            f[:, : shape[1] // 2] += 90
        out.append(np.clip(f, 0, 255).astype(np.uint8))
    return out


def _assert_same_state(a, b):
    for name in ("w", "m", "sd"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name


def _run(model, frames):
    return [model.apply(f) for f in frames]


class TestBitIdentity:
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    @pytest.mark.parametrize("variant", ENGINE_VARIANTS)
    def test_mog_matches_oracle(self, variant, dtype, k):
        p = PARAMS.replace(num_gaussians=k)
        oracle = MoGVectorized(SHAPE, p, variant=variant, dtype=dtype)
        engine = MoGEngine(SHAPE, p, dtype=dtype)
        for t, f in enumerate(_frames(14)):
            assert np.array_equal(oracle.apply(f), engine.apply(f)), t
        _assert_same_state(oracle, engine)

    @pytest.mark.parametrize("shape", PIXEL_SHAPES)
    def test_block_boundaries(self, shape):
        oracle = MoGVectorized(shape, PARAMS, variant="regopt")
        engine = MoGEngine(shape, PARAMS)
        for t, f in enumerate(_frames(10, shape)):
            assert np.array_equal(oracle.apply(f), engine.apply(f)), t
        _assert_same_state(oracle, engine)

    @pytest.mark.parametrize("dtype", ["double", "float"])
    @pytest.mark.parametrize("shape", PIXEL_SHAPES)
    def test_dmsg_matches_oracle(self, shape, dtype):
        oracle = DmsgVectorized(shape, PARAMS, dtype=dtype)
        engine = DmsgEngine(shape, PARAMS, dtype=dtype)
        frames = _step_frames(12, shape)
        for t, f in enumerate(frames):
            assert np.array_equal(oracle.apply(f), engine.apply(f)), t
        _assert_same_state(oracle, engine)
        # The step was absorbed by candidate swaps, not by drift.
        jumped = engine.state.m[0].reshape(shape)[:, : shape[1] // 2]
        assert jumped.min() > 120

    def test_dmsg_illumination_scene(self):
        video = illumination_scene(height=30, width=40)
        oracle = DmsgVectorized((30, 40), PARAMS)
        engine = DmsgEngine((30, 40), PARAMS)
        for t in range(48):
            f = video.frame(t)
            assert np.array_equal(oracle.apply(f), engine.apply(f)), t
        _assert_same_state(oracle, engine)

    def test_float_frames(self):
        frames = [f.astype(np.float32) + 0.25 for f in _frames(6)]
        oracle = MoGVectorized(SHAPE, PARAMS, variant="nosort")
        engine = MoGEngine(SHAPE, PARAMS)
        for f in frames:
            assert np.array_equal(oracle.apply(f), engine.apply(f))
        _assert_same_state(oracle, engine)


class TestSubtractorWiring:
    @pytest.mark.parametrize("level", ["D", "E", "F", "G"])
    def test_mog_levels_d_to_g_run_the_engine(self, level):
        bs = BackgroundSubtractor(SHAPE, PARAMS, level=level, backend="cpu")
        assert isinstance(bs._impl, MoGEngine)

    @pytest.mark.parametrize("level", ["A", "B", "C"])
    def test_sorted_levels_keep_the_oracle(self, level):
        bs = BackgroundSubtractor(SHAPE, PARAMS, level=level, backend="cpu")
        assert isinstance(bs._impl, MoGVectorized)

    @pytest.mark.parametrize("level", ["A", "F"])
    def test_dmsg_levels_run_the_engine(self, level):
        bs = BackgroundSubtractor(
            SHAPE, PARAMS, level=level, model="dmsg", backend="cpu"
        )
        assert isinstance(bs._impl, DmsgEngine)


class TestIntegrity:
    def test_repair_matches_oracle(self):
        policy = IntegrityPolicy(mode="repair")
        reg = MetricsRegistry()
        oracle = MoGVectorized(SHAPE, PARAMS, variant="nosort", integrity=policy)
        engine = MoGEngine(SHAPE, PARAMS, integrity=policy, telemetry=reg)
        frames = _frames(6)
        for t, f in enumerate(frames):
            if t == 3:
                # Soft errors between frames; repair rebinds the arrays,
                # so the engine must read the state after the guard.
                for model in (oracle, engine):
                    model.state.sd[0, 13] = 1e12
                    model.state.w[1, 40] = np.nan
            assert np.array_equal(oracle.apply(f), engine.apply(f)), t
        _assert_same_state(oracle, engine)
        assert reg.snapshot()["counters"]["integrity.pixels_repaired"] == 2

    def test_dmsg_repair_matches_oracle(self):
        policy = IntegrityPolicy(mode="repair")
        oracle = DmsgVectorized(SHAPE, PARAMS, integrity=policy)
        engine = DmsgEngine(SHAPE, PARAMS, integrity=policy)
        for t, f in enumerate(_step_frames(6)):
            if t == 4:
                for model in (oracle, engine):
                    model.state.w[0, 7] = -5.0
            assert np.array_equal(oracle.apply(f), engine.apply(f)), t
        _assert_same_state(oracle, engine)

    def test_detect_raises_before_any_update(self):
        engine = MoGEngine(
            SHAPE, PARAMS, integrity=IntegrityPolicy(mode="detect")
        )
        frames = _frames(3)
        engine.apply(frames[0])
        engine.state.m[2, 5] = np.inf
        before = engine.state_snapshot()
        with pytest.raises(IntegrityError):
            engine.apply(frames[1])
        after = engine.state_snapshot()
        for a, b in zip(before[:3], after[:3]):
            assert np.array_equal(a, b)
        assert after[3] == before[3] == 1

    # The downcast itself warns before the validator rejects the frame.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_frame_rejected_before_state(self):
        engine = MoGEngine(SHAPE, PARAMS)
        bad = np.zeros(SHAPE)
        bad[3, 4] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            engine.apply(bad)
        assert engine.state is None
        # Finite in float64, inf after the cast to the float32 run dtype.
        with pytest.raises(ConfigError, match="finite"):
            MoGEngine(SHAPE, PARAMS, dtype="float").apply(
                np.full(SHAPE, 1e300)
            )


class TestAliasing:
    @pytest.mark.parametrize("cls", [MoGEngine, DmsgEngine])
    def test_snapshot_is_not_live(self, cls):
        engine = cls(SHAPE, PARAMS)
        frames = _step_frames(4)
        engine.apply(frames[0])
        snap = engine.state_snapshot()
        kept = [a.copy() for a in snap[:3]]
        for f in frames[1:]:
            engine.apply(f)
        for a, b in zip(snap[:3], kept):
            assert np.array_equal(a, b)

    def test_subtractor_snapshot_is_not_live(self):
        bs = BackgroundSubtractor(SHAPE, PARAMS, level="F", backend="cpu")
        frames = _frames(3)
        bs.apply(frames[0])
        w = bs.state_snapshot()[0]
        kept = w.copy()
        bs.apply(frames[1])
        assert np.array_equal(w, kept)

    @pytest.mark.parametrize("cls", [MoGEngine, DmsgEngine])
    def test_masks_are_fresh(self, cls):
        engine = cls(SHAPE, PARAMS)
        frames = _step_frames(5)
        masks = [engine.apply(f) for f in frames]
        kept = [m.copy() for m in masks]
        assert not np.array_equal(kept[2], kept[3])  # the step changed it
        for m, k in zip(masks, kept):
            assert np.array_equal(m, k)

    def test_restore_copies(self):
        frames = _frames(8)
        a = MoGEngine(SHAPE, PARAMS)
        _run(a, frames[:4])
        snap = a.state_snapshot()
        b = MoGEngine(SHAPE, PARAMS)
        b.restore_state(snap)
        snap[0][:] = 0.5  # the caller's arrays are not the engine's
        assert np.array_equal(_run(a, frames[4:]), _run(b, frames[4:]))
        _assert_same_state(a, b)
        b.restore_state(None)
        assert b.state is None and b.frames_processed == 0

    def test_restore_rejects_wrong_shape(self):
        snap = MoGEngine(SHAPE, PARAMS.replace(num_gaussians=5))
        snap.apply(_frames(1)[0])
        with pytest.raises(ConfigError):
            MoGEngine(SHAPE, PARAMS).restore_state(snap.state_snapshot())


class TestSharedScratch:
    """Scratch is per thread, shared by every engine of one (K, dtype):
    engines stepped alternately, or on concurrent threads, must match
    serial runs."""

    def test_interleaved_on_one_thread(self):
        scene_a, scene_b = _frames(8, seed=5), _frames(8, seed=6)
        small = _frames(8, shape=(7, 13), seed=7)
        serial = (
            _run(MoGEngine(SHAPE, PARAMS), scene_a),
            _run(MoGEngine(SHAPE, PARAMS), scene_b),
            _run(MoGEngine((7, 13), PARAMS), small),
            _run(DmsgEngine(SHAPE, PARAMS.replace(num_gaussians=2)), scene_a),
        )
        engines = (
            MoGEngine(SHAPE, PARAMS),
            MoGEngine(SHAPE, PARAMS),
            MoGEngine((7, 13), PARAMS),
            DmsgEngine(SHAPE, PARAMS.replace(num_gaussians=2)),
        )
        inputs = (scene_a, scene_b, small, scene_a)
        mixed = ([], [], [], [])
        for t in range(8):
            for eng, src, out in zip(engines, inputs, mixed):
                out.append(eng.apply(src[t]))
        for want, got in zip(serial, mixed):
            assert np.array_equal(want, got)

    def test_concurrent_threads(self):
        """More threads than cores and a short switch interval, so the
        threads' block loops interleave inside one ``apply``."""
        shape = (192, 256)  # six blocks per frame
        scenes = [_frames(12, shape, seed=s) for s in (11, 12, 13, 14)]
        serial = [_run(MoGEngine(shape, PARAMS), fr) for fr in scenes]
        got = [None] * len(scenes)
        barrier = threading.Barrier(len(scenes), timeout=30)

        def work(i):
            engine = MoGEngine(shape, PARAMS)
            barrier.wait()
            got[i] = _run(engine, scenes[i])

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(len(scenes))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for want, have in zip(serial, got):
            assert np.array_equal(want, have)


def _numpy_twin(engine):
    """Force ``engine`` onto its NumPy block loop: the oracle the
    compiled kernel is pinned against."""
    engine._kernel = None
    return engine


def _assert_same_bits(a, b):
    """Masks or state planes equal bit for bit (NaN payloads too)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _assert_same_state_bits(a, b):
    for name in ("w", "m", "sd"):
        _assert_same_bits(getattr(a.state, name), getattr(b.state, name))


def _engine_pair(cls, shape, params=PARAMS, dtype="double"):
    compiled = cls(shape, params, dtype=dtype)
    if not compiled.compiled:
        pytest.skip("no C compiler: the compiled path did not build")
    return compiled, _numpy_twin(cls(shape, params, dtype=dtype))


def _run_pair(pair, frames):
    for t, f in enumerate(frames):
        a, b = (e.apply(f) for e in pair)
        _assert_same_bits(a, b)
    _assert_same_state_bits(*pair)


class TestCompiledOracle:
    """The compiled kernels (:mod:`repro.cpu.native`) against the NumPy
    block loop, bit for bit: masks and the full ``w/m/sd`` state."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    @pytest.mark.parametrize("level", ["D", "E", "F", "G"])
    def test_mog_levels(self, level, dtype, k):
        from repro.config import RunConfig

        def make():
            return BackgroundSubtractor(
                SHAPE, PARAMS.replace(num_gaussians=k), level=level,
                backend="cpu",
                run_config=RunConfig(
                    height=SHAPE[0], width=SHAPE[1], dtype=dtype
                ),
            )

        compiled, oracle = make(), make()
        if not compiled.compiled:
            pytest.skip("no C compiler: the compiled path did not build")
        _numpy_twin(oracle._impl)
        _run_pair((compiled._impl, oracle._impl), _frames(10))

    @pytest.mark.parametrize("dtype", ["double", "float"])
    def test_dmsg(self, dtype):
        _run_pair(
            _engine_pair(DmsgEngine, SHAPE, dtype=dtype), _step_frames(12)
        )

    @pytest.mark.parametrize("frame_dtype", [np.uint8, np.int16,
                                             np.float32, np.float64])
    @pytest.mark.parametrize("cls", [MoGEngine, DmsgEngine])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    def test_frame_dtypes(self, dtype, cls, frame_dtype):
        frames = [f.astype(frame_dtype) for f in _step_frames(8)]
        if np.dtype(frame_dtype).kind == "f":
            frames = [f + frame_dtype(0.375) for f in frames]
        else:
            frames = [f - frame_dtype(0) for f in frames]
        _run_pair(_engine_pair(cls, SHAPE, dtype=dtype), frames)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 13), (96, 256)])
    @pytest.mark.parametrize("cls", [MoGEngine, DmsgEngine])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    def test_pixel_counts(self, dtype, cls, shape):
        _run_pair(
            _engine_pair(cls, shape, dtype=dtype), _step_frames(8, shape)
        )

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e300],
        ids=["nan", "inf", "-inf", "0", "-1", "1e300"],
    )
    @pytest.mark.parametrize("cls", [MoGEngine, DmsgEngine])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    def test_poisoned_state(self, dtype, cls, value):
        """No integrity guard: poisoned planes flow through the update
        and must do so identically — NaN propagation of min/max, and
        the virtual component's first-minimum rule when a poisoned
        weight meets a total miss."""
        pair = _engine_pair(cls, SHAPE, dtype=dtype)
        frames = _step_frames(8)
        for e in pair:
            e.apply(frames[0])
        n = pair[0].num_pixels
        with np.errstate(over="ignore", invalid="ignore"):
            for e in pair:
                st = e.state
                st.w[:, 0:n:5] = value
                st.m[:, 1:n:5] = value
                st.sd[:, 2:n:5] = value
                # A poisoned weight where nothing can match.
                st.w[1, 3:n:5] = value
                st.m[:, 3:n:5] = 1e30
                st.w[0, 4:n:5] = value
            _run_pair(pair, frames[1:])

    @pytest.mark.parametrize("cls", [MoGEngine, DmsgEngine])
    def test_restore_from_noncontiguous_snapshot(self, cls):
        frames = _step_frames(10)
        source = cls(SHAPE, PARAMS)
        for f in frames[:4]:
            source.apply(f)
        w, m, sd, t = source.state_snapshot()
        snap = (np.asfortranarray(w), m[:, ::-1][:, ::-1], sd, t)
        assert not snap[0].flags.c_contiguous
        pair = _engine_pair(cls, SHAPE)
        for e in pair:
            e.restore_state(snap)
        _run_pair(pair, frames[4:])
        for plane in ("w", "m", "sd"):
            assert getattr(pair[0].state, plane).flags.c_contiguous

    def test_four_threads(self):
        """The kernel releases the GIL, so four compiled engines step
        truly concurrently; each must match its own NumPy run."""
        shape = (96, 128)
        scenes = [_frames(10, shape, seed=s) for s in (21, 22, 23, 24)]
        if not MoGEngine(shape, PARAMS).compiled:
            pytest.skip("no C compiler: the compiled path did not build")
        oracles = [_numpy_twin(MoGEngine(shape, PARAMS)) for _ in scenes]
        serial = [_run(e, fr) for e, fr in zip(oracles, scenes)]
        engines = [MoGEngine(shape, PARAMS) for _ in scenes]
        got = [None] * len(scenes)
        barrier = threading.Barrier(len(scenes), timeout=30)

        def work(i):
            barrier.wait()
            got[i] = _run(engines[i], scenes[i])

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(len(scenes))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for want, have in zip(serial, got):
            assert np.array_equal(want, have)
        for oracle, engine in zip(oracles, engines):
            _assert_same_state_bits(oracle, engine)
