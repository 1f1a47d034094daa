"""The ``jit`` spelling of the cpu backend and the compiled kernels it
runs (:mod:`repro.cpu.native`): source rendering, fingerprint and disk
cache, bit identity against the cpu and sim oracles at every level,
and checkpoint interop.

``backend="jit"`` is an alias of ``"cpu"``: MoG levels D-G and every
DMSG level run C rendered from the :mod:`repro.cudagen` fragments;
levels A-C run the vectorized oracle.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import IntegrityPolicy, MoGParams, RunConfig
from repro.core.subtractor import BackgroundSubtractor
from repro.core.variants import resolve_level_spec
from repro.cpu import native
from repro.errors import ConfigError
from repro.mog.vectorized import MoGVectorized
from repro.telemetry import MetricsRegistry
from repro.video.scenes import evaluation_scene

SHAPE = (8, 10)
PARAMS = MoGParams(learning_rate=0.08, initial_sd=8.0)
LEVELS = list("ABCDEFG") + ["A+predication"]
DTYPES = ("double", "float")


def _frames(n, shape=SHAPE, seed=3):
    video = evaluation_scene(height=shape[0], width=shape[1], seed=seed)
    return [video.frame(t) for t in range(n)]


def _jit(level, dtype="double", params=PARAMS, **kw):
    return BackgroundSubtractor(
        SHAPE, params, level=level, backend="jit",
        run_config=RunConfig(height=SHAPE[0], width=SHAPE[1], dtype=dtype),
        **kw,
    )


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache and no in-process memo: the next load
    behaves like the first one in a new process."""
    monkeypatch.setenv("REPRO_JIT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", {})
    return tmp_path


# ----------------------------------------------------------------------
# Source rendering and the compile cache
# ----------------------------------------------------------------------
class TestEmitter:
    def test_fingerprint_stable_and_discriminating(self):
        def fp(family="mog", k=3, dtype="float64", compiler="cc 12"):
            source = native.render_source(family, k, dtype)
            return native.kernel_fingerprint(
                family, k, dtype, source, compiler
            )

        a = fp()
        assert a == fp()
        for other in (fp(k=4), fp(dtype="float32"), fp(family="dmsg"),
                      fp(compiler="cc 13")):
            assert other != a

    def test_layout_axes_do_not_change_fingerprint(self):
        # D-G differ in GPU residency and update style, never in state:
        # one branchy kernel serves all four.
        kernels = {id(_jit(level)._impl._kernel) for level in "DEFG"}
        assert len(kernels) == 1

    def test_source_shape(self):
        src = native.render_source("mog", 3, "float64")
        assert "typedef double scalar_t;" in src
        assert "#define NUM_GAUSSIANS 3" in src
        assert "for (long pix = lo; pix < hi; ++pix)" in src
        assert "repro_update_u8(const unsigned char *frame" in src
        assert "repro_update_run(const scalar_t *frame" in src
        assert "g[HOST_IDX(k, P_W, pix)]" in src  # the CUDA fragment
        assert "ARGMIN_LT(wk, min_w)" in src
        assert "threadIdx" not in src and "__global__" not in src
        for i, name in enumerate(native.CONSTANTS):
            assert f"#define {name} cst[{i}]" in src
        # Constants arrive pre-cast; no decimal literal to re-round.
        assert "0.92" not in src and "2.5" not in src
        assert "typedef float scalar_t;" in native.render_source(
            "dmsg", 2, "float32"
        )

    def test_k_validation(self):
        for bad in (0, 9):
            with pytest.raises(ConfigError):
                native.render_source("mog", bad, "float64")

    def test_engine_validation(self):
        with pytest.raises(ConfigError):
            native.render_source("gmm", 3, "float64")
        with pytest.raises(ConfigError):
            native.render_source("mog", 3, "int32")

    def test_cache_hit_costs_nothing(self, fresh_cache, monkeypatch):
        if not native.compiler_status()[0]:
            pytest.skip("no C compiler on PATH")
        kernel, cold = native.load_kernel("mog", 2, "float64")
        assert kernel is not None and cold > 0.0
        (so,) = fresh_cache.glob("*.so")
        again, warm = native.load_kernel("mog", 2, "float64")
        assert again is kernel and warm == 0.0
        # A new process (empty memo) loads the published file.
        monkeypatch.setattr(native, "_loaded", {})
        reloaded, warm = native.load_kernel("mog", 2, "float64")
        assert reloaded is not None and warm == 0.0
        assert list(fresh_cache.glob("*.so")) == [so]

    def test_source_file_not_rewritten_when_identical(
        self, fresh_cache, monkeypatch
    ):
        if not native.compiler_status()[0]:
            pytest.skip("no C compiler on PATH")
        native.load_kernel("dmsg", 2, "float32")
        (so,) = fresh_cache.glob("*.so")
        mtime = so.stat().st_mtime_ns
        monkeypatch.setattr(native, "_loaded", {})
        native.load_kernel("dmsg", 2, "float32")
        native.load_kernel("dmsg", 2, "float64")  # its own file
        assert so.stat().st_mtime_ns == mtime
        assert len(list(fresh_cache.glob("*.so"))) == 2


# ----------------------------------------------------------------------
# Bit-identity oracle vs the cpu and sim backends
# ----------------------------------------------------------------------
class TestOracle:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_masks_and_state_match_cpu(self, level, dtype):
        spec = resolve_level_spec(level)
        frames = _frames(7)
        jit = _jit(level, dtype)
        cpu = MoGVectorized(SHAPE, PARAMS, variant=spec.mog_variant,
                            dtype=dtype)
        for frame in frames:
            assert np.array_equal(jit.apply(frame), cpu.apply(frame)), level
        for name in ("w", "m", "sd"):
            assert np.array_equal(
                getattr(jit._impl.state, name), getattr(cpu.state, name)
            ), (level, dtype, name)

    @pytest.mark.parametrize("level", ["F+fusion", "A+fusion"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fused_outputs_match_cpu(self, level, dtype):
        frames = _frames(7)
        jit = _jit(level, dtype)
        cpu = BackgroundSubtractor(
            SHAPE, PARAMS, level=level, backend="cpu",
            run_config=RunConfig(
                height=SHAPE[0], width=SHAPE[1], dtype=dtype
            ),
        )
        # The reference runs the NumPy block loop (or the oracle at A).
        cpu._impl._kernel = None
        for frame in frames:
            assert np.array_equal(jit.apply(frame), cpu.apply(frame))
            assert np.array_equal(jit.shadow_map(), cpu.shadow_map())
            assert np.array_equal(jit.class_map(), cpu.class_map())

    def test_masks_match_sim(self):
        frames = _frames(6)
        jit = _jit("F")
        sim = BackgroundSubtractor(SHAPE, PARAMS, level="F", backend="sim")
        for frame in frames:
            assert np.array_equal(jit.apply(frame), sim.apply(frame))

    def test_background_image_matches_cpu(self):
        frames = _frames(6)
        jit = _jit("F")
        cpu = MoGVectorized(SHAPE, PARAMS, variant="regopt")
        for frame in frames:
            jit.apply(frame)
        cpu.apply_sequence(frames)
        assert np.array_equal(jit.background_image(), cpu.background_image())

    def test_num_gaussians_sweep(self):
        frames = _frames(5)
        for k in (1, 2, 5):
            params = PARAMS.replace(num_gaussians=k)
            jit = _jit("F", params=params)
            cpu = MoGVectorized(SHAPE, params, variant="sorted")
            for frame in frames:
                assert np.array_equal(jit.apply(frame), cpu.apply(frame)), k


# ----------------------------------------------------------------------
# The compiled model behind the jit spelling
# ----------------------------------------------------------------------
class TestMoGJit:
    """The compiled engine behind the ``jit`` spelling: masks, snapshots,
    restore, integrity repair and frame validation."""

    def test_returned_mask_is_not_a_live_buffer(self):
        frames = _frames(3)
        jit = _jit("F")
        first = jit.apply(frames[0])
        kept = first.copy()
        jit.apply(frames[1])
        assert np.array_equal(first, kept)

    def test_snapshot_is_a_copy(self):
        frames = _frames(4)
        jit = _jit("F")
        jit.apply(frames[0])
        w, m, sd, n = jit.state_snapshot()
        w0 = w.copy()
        jit.apply(frames[1])
        assert np.array_equal(w, w0)  # kernel mutated state, not the copy

    def test_snapshot_roundtrip_resumes_bit_identically(self):
        frames = _frames(8)
        a = _jit("F")
        for f in frames[:4]:
            a.apply(f)
        snap = a.state_snapshot()
        b = _jit("F")
        b.restore_state(snap)
        tail_a = [a.apply(f) for f in frames[4:]]
        tail_b = [b.apply(f) for f in frames[4:]]
        assert all(np.array_equal(x, y) for x, y in zip(tail_a, tail_b))

    def test_cross_backend_snapshot_interop(self):
        # oracle -> compiled and back: one snapshot format, so
        # checkpoints interoperate across backends.
        frames = _frames(8)
        cpu = MoGVectorized(SHAPE, PARAMS, variant="regopt")
        for f in frames[:4]:
            cpu.apply(f)
        jit = _jit("F")
        jit.restore_state(cpu.state_snapshot())
        for f in frames[4:]:
            assert np.array_equal(jit.apply(f), cpu.apply(f))
        cpu2 = MoGVectorized(SHAPE, PARAMS, variant="regopt")
        cpu2.restore_state(jit.state_snapshot())
        assert np.array_equal(cpu2.state.w, jit._impl.state.w)

    def test_restore_none_resets(self):
        jit = _jit("F")
        jit.apply(_frames(1)[0])
        jit.restore_state(None)
        assert jit._impl.state is None and jit._impl.frames_processed == 0

    def test_restore_rejects_wrong_shape(self):
        jit = _jit("F")
        bad = np.zeros((2, 3))
        with pytest.raises(ConfigError):
            jit.restore_state((bad, bad, bad, 1))

    def test_integrity_repair_parity_with_cpu(self):
        frames = _frames(6)
        policy = IntegrityPolicy(mode="repair")
        jit = _jit("F", integrity=policy)
        cpu = MoGVectorized(SHAPE, PARAMS, variant="regopt",
                            integrity=policy)
        for i, frame in enumerate(frames):
            if i == 3:  # corrupt both models identically mid-stream
                jit._impl.state.sd[0, 5] = np.nan
                cpu.state.sd[0, 5] = np.nan
            assert np.array_equal(jit.apply(frame), cpu.apply(frame)), i
        assert np.array_equal(jit._impl.state.sd, cpu.state.sd)

    def test_frame_validation(self):
        jit = _jit("F")
        with pytest.raises(ConfigError):
            jit.apply(np.zeros((4, 4)))
        with pytest.raises(ConfigError):
            jit.apply(np.full(SHAPE, np.nan))
        with pytest.raises(ConfigError):
            jit.apply(np.zeros(SHAPE, dtype=complex))
        with pytest.raises(ConfigError):
            jit.process([])

    def test_telemetry_counters(self):
        tel = MetricsRegistry()
        jit = _jit("F", telemetry=tel)
        for f in _frames(3):
            jit.apply(f)
        snap = tel.snapshot()
        assert snap["gauges"]["jit.compile_s"] == jit.compile_s
        assert snap["counters"].get("jit.fallbacks", 0) == (
            0 if jit.compiled else 1
        )


# ----------------------------------------------------------------------
# Checkpoint files across backends
# ----------------------------------------------------------------------
class TestCheckpointInterop:
    def test_cpu_checkpoint_restores_into_jit_pipeline(self, tmp_path):
        from repro.core.stream import SurveillancePipeline

        frames = _frames(10, shape=(16, 20))
        ckpt = tmp_path / "p.ckpt"
        a = SurveillancePipeline((16, 20), PARAMS, backend="cpu",
                                 warmup_frames=2)
        for f in frames[:5]:
            a.step(f)
        a.save_checkpoint(ckpt)
        b = SurveillancePipeline((16, 20), PARAMS, backend="jit",
                                 warmup_frames=2)
        assert b.restore_checkpoint(ckpt) == 4
        for f, r in zip(frames[5:], [a.step(x) for x in frames[5:]]):
            assert np.array_equal(b.step(f).mask, r.mask)


def test_cache_dir_is_private_by_default(monkeypatch, tmp_path):
    import tempfile

    monkeypatch.delenv("REPRO_JIT_CACHE_DIR", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = native.jit_cache_dir()
    assert path.parent == tmp_path
    st = path.stat()
    assert st.st_uid == os.getuid()
    assert st.st_mode & 0o077 == 0


_LOADER = """
import numpy as np
from repro.cpu.engine import MoGEngine
e = MoGEngine((6, 7))
assert e.compiled
f = np.arange(42, dtype=np.uint8).reshape(6, 7)
print(e.compile_s, int(e.apply(f).sum()), int(e.apply(f[::-1]).sum()))
"""


def _spawn_loader():
    """A fresh process that loads the K=3 double MoG kernel from the
    cache ``REPRO_JIT_CACHE_DIR`` names."""
    import subprocess
    import sys

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", _LOADER],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    compile_s, *sums = out.split()
    return float(compile_s), *map(int, sums)


def _overwrite(path, data):
    """Replace ``path`` with a new file: writing into a library this
    process has mapped would crash it, not test the loader."""
    tmp = path.with_name(path.name + ".new")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class TestPrivateCache:
    """The cache holds code this process will ``dlopen``: it must be
    safe against concurrent builders, damaged files and directories
    other users can write to."""

    @pytest.fixture(autouse=True)
    def _needs_cc(self):
        if not native.compiler_status()[0]:
            pytest.skip("no C compiler on PATH")

    def test_concurrent_processes_share_one_fingerprint(self, fresh_cache):
        procs = [_spawn_loader() for _ in range(2)]
        outs = [_finish(p) for p in procs]
        assert outs[0][1:] == outs[1][1:]  # the same masks
        assert len(list(fresh_cache.glob("*.so"))) == 1
        assert not list(fresh_cache.glob(".*"))  # no temp file left

    def test_truncated_library_is_rebuilt(self, fresh_cache):
        assert _finish(_spawn_loader())[0] > 0.0  # cold build
        (so,) = fresh_cache.glob("*.so")
        _overwrite(so, so.read_bytes()[:100])
        assert _finish(_spawn_loader())[0] > 0.0  # rebuilt, not crashed
        assert so.stat().st_size > 100
        assert _finish(_spawn_loader())[0] == 0.0  # warm again

    def test_world_writable_cache_is_never_loaded_from(
        self, fresh_cache, monkeypatch
    ):
        native.load_kernel("dmsg", 2, "float64")
        (so,) = fresh_cache.glob("*.so")
        _overwrite(so, b"not a library")  # would fail to load if used
        fresh_cache.chmod(0o777)
        try:
            monkeypatch.setattr(native, "_loaded", {})
            opened = []
            real_open = native._open
            monkeypatch.setattr(
                native, "_open",
                lambda path, *a: opened.append(path) or real_open(path, *a),
            )
            kernel, compile_s = native.load_kernel("dmsg", 2, "float64")
        finally:
            fresh_cache.chmod(0o700)
        assert kernel is not None and compile_s > 0.0
        assert opened and all(p.parent != fresh_cache for p in opened)
        assert so.read_bytes() == b"not a library"  # left untouched
