"""Graceful degradation without a C compiler: the cpu backend (either
spelling) must warn once, count the event, run the NumPy block loop
with masks and state bit-identical to the compiled kernel — never
crash. ``PATH`` is pointed at an empty directory so these tests mean
the same thing on every machine.
"""

import numpy as np
import pytest

from repro.config import MoGParams, RunConfig, ServeConfig
from repro.core.subtractor import BackgroundSubtractor
from repro.core.variants import backend_availability
from repro.cpu import native
from repro.cpu.engine import MoGEngine
from repro.errors import ConfigError
from repro.telemetry import MetricsRegistry
from repro.video.scenes import evaluation_scene

SHAPE = (8, 10)
PARAMS = MoGParams(learning_rate=0.08, initial_sd=8.0)


def _hide_compiler(monkeypatch, tmp_path):
    empty = tmp_path / "empty-path"
    empty.mkdir(exist_ok=True)
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("REPRO_JIT_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture()
def no_compiler(monkeypatch, tmp_path):
    _hide_compiler(monkeypatch, tmp_path)


def _frames(n, shape=SHAPE):
    video = evaluation_scene(height=shape[0], width=shape[1], seed=3)
    return [video.frame(t) for t in range(n)]


class TestProbe:
    def test_forced_status_is_visible(self, no_compiler):
        ok, reason = native.compiler_status()
        assert ok is False and "'cc'" in reason
        jit = backend_availability("F")["jit"]
        assert jit == {"available": False, "reason": reason}

    def test_reset_hook_reprobes(self, monkeypatch, tmp_path):
        # The probe reads PATH on every call; nothing stale is kept.
        original = native.compiler_status()
        _hide_compiler(monkeypatch, tmp_path)
        assert native.compiler_status()[0] is False
        monkeypatch.undo()
        assert native.compiler_status() == original


class TestModelFallback:
    def test_python_engine_unaffected(self, no_compiler):
        with pytest.warns(RuntimeWarning, match="NumPy block loop"):
            engine = MoGEngine(SHAPE, PARAMS)
        assert not engine.compiled and engine.compile_s == 0.0
        mask = engine.apply(_frames(1)[0])
        assert mask.shape == SHAPE


class TestSubtractorFallback:
    def test_warns_counts_and_matches_cpu(self, monkeypatch, tmp_path):
        frames = _frames(6)
        compiled = BackgroundSubtractor(SHAPE, PARAMS, level="F",
                                        backend="cpu")
        _hide_compiler(monkeypatch, tmp_path)
        tel = MetricsRegistry()
        with pytest.warns(RuntimeWarning) as caught:
            jit = BackgroundSubtractor(
                SHAPE, PARAMS, level="F", backend="jit", telemetry=tel
            )
        assert len(caught) == 1 and "NumPy block loop" in str(
            caught[0].message
        )
        assert jit.backend == "jit"  # what was asked for
        assert jit.active_backend == "cpu"  # what actually runs
        assert not jit.compiled and jit.compile_s == 0.0
        assert tel.snapshot()["counters"]["jit.fallbacks"] == 1
        for frame in frames:
            assert np.array_equal(jit.apply(frame), compiled.apply(frame))
        for name in ("w", "m", "sd"):
            assert np.array_equal(
                getattr(jit._impl.state, name),
                getattr(compiled._impl.state, name),
            )

    def test_fused_level_falls_back_with_full_outputs(
        self, monkeypatch, tmp_path
    ):
        frames = _frames(5)
        compiled = BackgroundSubtractor(
            SHAPE, PARAMS, level="F+fusion", backend="cpu"
        )
        _hide_compiler(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning):
            jit = BackgroundSubtractor(
                SHAPE, PARAMS, level="F+fusion", backend="jit"
            )
        for frame in frames:
            assert np.array_equal(jit.apply(frame), compiled.apply(frame))
            assert np.array_equal(jit.shadow_map(), compiled.shadow_map())
            assert np.array_equal(jit.class_map(), compiled.class_map())

    def test_run_config_backend_selects_jit(self):
        cfg = RunConfig(height=SHAPE[0], width=SHAPE[1], backend="jit")
        bs = BackgroundSubtractor(SHAPE, PARAMS, run_config=cfg)
        assert bs.backend == "jit"
        assert bs.active_backend == "cpu"

    def test_report_error_names_active_backend(self):
        bs = BackgroundSubtractor(SHAPE, PARAMS, backend="jit")
        with pytest.raises(ConfigError, match="'cpu' backend"):
            bs.report()


class TestConfigValidation:
    def test_backends_tuple(self):
        from repro.config import BACKENDS

        assert BACKENDS == ("cpu", "sim", "jit")

    def test_run_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            RunConfig(backend="gpu")

    def test_serve_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            ServeConfig(backend="gpu")

    def test_subtractor_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            BackgroundSubtractor(SHAPE, PARAMS, backend="gpu")


class TestServerFallback:
    def test_serve_config_jit_serves_identical_masks(
        self, monkeypatch, tmp_path
    ):
        from repro.serve import StreamServer

        shape = (16, 20)
        frames = _frames(8, shape=shape)

        def run(serve_cfg):
            server = StreamServer(
                shape, params=PARAMS,
                serve=serve_cfg,
            )
            try:
                server.add_stream("cam")
                for f in frames:
                    server.submit("cam", f)
                server.drain()
                return [r.mask for r in server.results("cam")]
            finally:
                server.close(drain=False)

        cpu_masks = run(ServeConfig(workers=1, backend="cpu"))
        _hide_compiler(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning):
            jit_masks = run(ServeConfig(workers=1, backend="jit"))
        assert len(jit_masks) == len(frames)
        for a, b in zip(jit_masks, cpu_masks):
            assert np.array_equal(a, b)

