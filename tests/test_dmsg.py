"""The dual-mode single Gaussian (DMSG) model family.

Covers the model-family axis of the kernel IR (registry, per-family
pass applicability, ``model:`` level expressions), the cross-emitter
bit-identity pin — gpusim vs the :mod:`repro.dmsg` NumPy oracle vs the
compiled kernel the ``jit`` spelling of the cpu backend runs, both
dtypes — and the checkpoint /
serving interop rules (cross-family restore fails typed; per-stream
model choice on the thread server).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MoGParams, RunConfig, ServeConfig
from repro.core.stream import SurveillancePipeline
from repro.core.subtractor import BackgroundSubtractor
from repro.core.variants import (
    backend_availability,
    custom_level,
    level_spec_for,
    resolve_level_spec,
)
from repro.cpu.native import kernel_fingerprint, render_source
from repro.dmsg import DmsgVectorized, dmsg_state_from_first_frame
from repro.errors import CheckpointError, ConfigError
from repro.kernels.ir import (
    DMSG_FAMILY,
    MODEL_FAMILIES,
    MOG_FAMILY,
    KernelSpec,
    applicable_passes,
    base_spec_for,
    resolve_model,
    spec_for_level,
)
from repro.serve import StreamServer
from repro.video.scenes import evaluation_scene

SHAPE = (8, 10)
PARAMS = MoGParams(initial_sd=8.0)
#: Levels the cross-emitter suite pins (the satellite's floor: A, F and
#: the explicit custom stack).
LEVELS = ["A", "F", "A+predication"]
DTYPES = ("double", "float")


def _frames(n, shape=SHAPE, seed=3):
    video = evaluation_scene(height=shape[0], width=shape[1], seed=seed)
    return [video.frame(t) for t in range(n)]


def _dmsg_jit(level, dtype="double"):
    """The ``jit`` spelling of the cpu backend: the compiled DMSG
    kernel (the NumPy block loop without a C compiler)."""
    return BackgroundSubtractor(
        SHAPE, PARAMS, level=level, model="dmsg", backend="jit",
        run_config=RunConfig(height=SHAPE[0], width=SHAPE[1], dtype=dtype),
    )._impl


# ----------------------------------------------------------------------
# Model-family registry and spec axis
# ----------------------------------------------------------------------
class TestModelFamilies:
    def test_registry(self):
        assert set(MODEL_FAMILIES) == {"mog", "dmsg"}
        assert MODEL_FAMILIES["mog"] is MOG_FAMILY
        assert MODEL_FAMILIES["dmsg"] is DMSG_FAMILY

    def test_resolve_model(self):
        assert resolve_model("dmsg") is DMSG_FAMILY
        assert resolve_model(" MOG ") is MOG_FAMILY
        assert resolve_model(DMSG_FAMILY) is DMSG_FAMILY
        with pytest.raises(ConfigError, match="unknown model family"):
            resolve_model("knn")

    def test_component_count(self):
        assert MOG_FAMILY.component_count(PARAMS) == PARAMS.num_gaussians
        assert DMSG_FAMILY.component_count(PARAMS) == 2

    def test_base_spec_for_dmsg_is_unsorted_flat(self):
        spec = base_spec_for("dmsg")
        assert spec.model is DMSG_FAMILY
        assert spec.name == "dmsg_base"
        assert spec.sort is False and spec.scan == "flat"

    def test_default_model_shim_keeps_mog(self):
        # The pre-family signature must keep returning MoG specs so
        # existing callers see no change.
        assert spec_for_level("F").model is MOG_FAMILY
        assert spec_for_level("F") == spec_for_level("F", MOG_FAMILY)

    def test_sort_invalid_without_sort_semantics(self):
        with pytest.raises(ConfigError, match="no rank/sort"):
            KernelSpec(model=DMSG_FAMILY, sort=True).validate()

    def test_kernel_names_derive_from_family(self):
        assert spec_for_level("F", "dmsg").name == "dmsg_regopt"
        assert spec_for_level("F", "mog").name == "mog_regopt"
        assert spec_for_level("B", "dmsg").name == "dmsg_coalesced"

    def test_fingerprint_discriminates_families(self):
        def fingerprint(family):
            source = render_source(family, 2, "float64")
            return kernel_fingerprint(family, 2, "float64", source, "cc")

        assert fingerprint("mog") != fingerprint("dmsg")


class TestPassApplicability:
    def test_sort_elimination_is_mog_only(self):
        from repro.kernels.ir import PASS_REGISTRY

        assert PASS_REGISTRY["sort-elimination"].families == ("mog",)
        for name in ("soa-layout", "predication", "fusion"):
            assert "dmsg" in PASS_REGISTRY[name].families
            assert "mog" in PASS_REGISTRY[name].families

    def test_inapplicable_pass_is_noop_with_warning(self):
        from repro.kernels.ir import PASS_REGISTRY

        spec = base_spec_for("dmsg")
        with pytest.warns(RuntimeWarning, match="does not apply"):
            out = PASS_REGISTRY["sort-elimination"](spec)
        assert out == spec

    def test_applicable_passes_filters(self):
        stack = ("soa-layout", "sort-elimination", "predication")
        assert applicable_passes(stack, "dmsg") == (
            "soa-layout", "predication",
        )
        assert applicable_passes(stack, "mog") == stack

    def test_cumulative_levels_filter_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = spec_for_level("D", "dmsg")
        assert spec.sort is False

    def test_custom_level_warns_on_explicit_request(self):
        with pytest.warns(RuntimeWarning, match="sort-elimination"):
            custom_level(["sort-elimination"], model="dmsg")


class TestLevelExpressions:
    def test_model_prefix_resolves(self):
        spec = resolve_level_spec("dmsg:F")
        assert spec.model is DMSG_FAMILY and spec.letter == "F"
        custom = resolve_level_spec("dmsg:A+predication")
        assert custom.model is DMSG_FAMILY
        assert custom.kernel.update == "predicated"

    def test_prefix_and_model_must_agree(self):
        with pytest.raises(ConfigError):
            resolve_level_spec("dmsg:F", model="mog")
        spec = resolve_level_spec("dmsg:F", model="dmsg")
        assert spec.model is DMSG_FAMILY

    def test_dmsg_levels_have_no_paper_speedup(self):
        assert level_spec_for("F", "dmsg").paper_speedup is None
        assert level_spec_for("F", "mog").paper_speedup is not None

    def test_tiled_dmsg_has_no_cuda_rendering(self):
        avail = backend_availability("dmsg:G")
        assert avail["cpu"]["available"] and avail["sim"]["available"]
        assert not avail["cuda-text"]["available"]
        assert "dmsg" in avail["cuda-text"]["reason"]


# ----------------------------------------------------------------------
# Oracle behaviour
# ----------------------------------------------------------------------
class TestDmsgOracle:
    def test_variant_validation(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            DmsgVectorized(SHAPE, PARAMS, variant="sorted")

    def test_first_frame_is_all_background(self):
        model = DmsgVectorized(SHAPE, PARAMS)
        mask = model.apply(_frames(1)[0])
        assert mask.dtype == np.bool_ and not mask.any()

    def test_candidate_age_never_exceeds_background(self):
        model = DmsgVectorized(SHAPE, PARAMS)
        for frame in _frames(12):
            model.apply(frame)
            ages = model.state.w
            assert (ages[1] <= ages[0]).all()

    def test_scene_change_swaps_candidate_in(self):
        # A hard global scene change: the candidate mode accumulates
        # age on the new plateau and swaps in, so the model re-learns
        # instead of flagging foreground forever.
        model = DmsgVectorized(SHAPE, PARAMS)
        dark = np.full(SHAPE, 30.0)
        bright = np.full(SHAPE, 200.0)
        for _ in range(6):
            model.apply(dark)
        masks = [model.apply(bright) for _ in range(10)]
        assert masks[0].all()        # the step itself is foreground
        assert not masks[-1].any()   # absorbed after the swap
        assert float(model.background_image().mean()) == pytest.approx(
            200.0, abs=1.0
        )

    def test_state_initialiser_matches_first_apply(self):
        frame = _frames(1)[0]
        state = dmsg_state_from_first_frame(
            frame.reshape(-1), PARAMS, dtype=np.float64
        )
        model = DmsgVectorized(SHAPE, PARAMS)
        model.apply(frame)
        # Background mode mean is the first frame; candidate is dormant.
        np.testing.assert_array_equal(state.m[0], frame.reshape(-1))
        assert (state.w[1] == 0).all()


# ----------------------------------------------------------------------
# Cross-emitter bit-identity (the oracle pin)
# ----------------------------------------------------------------------
class TestCrossEmitterBitIdentity:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_jit_masks_and_state_match_oracle(self, level, dtype):
        frames = _frames(7)
        jit = _dmsg_jit(level, dtype)
        cpu = DmsgVectorized(SHAPE, PARAMS, dtype=dtype)
        for frame in frames:
            assert np.array_equal(jit.apply(frame), cpu.apply(frame)), level
        # Full state identity in BOTH dtypes (stronger than the MoG
        # float suite): every DMSG intermediate stays in the run dtype.
        for name in ("w", "m", "sd"):
            assert np.array_equal(
                getattr(jit.state, name), getattr(cpu.state, name)
            ), (level, dtype, name)

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sim_masks_match_oracle(self, level, dtype):
        frames = _frames(6)
        run_config = RunConfig(
            height=SHAPE[0], width=SHAPE[1], dtype=dtype
        )
        sim = BackgroundSubtractor(
            SHAPE, PARAMS, level=level, model="dmsg", backend="sim",
            run_config=run_config,
        )
        cpu = DmsgVectorized(SHAPE, PARAMS, dtype=dtype)
        for frame in frames:
            assert np.array_equal(sim.apply(frame), cpu.apply(frame)), level

    def test_all_dmsg_levels_agree(self):
        # DMSG ignores the sort/scan axes entirely, so every level's
        # masks (not just the decision-preserving pairs) are identical.
        frames = _frames(6)
        reference = None
        for letter in "ABCDEFG":
            sub = BackgroundSubtractor(
                SHAPE, PARAMS, level=letter, model="dmsg", backend="cpu"
            )
            masks = np.stack([sub.apply(f) for f in frames])
            if reference is None:
                reference = masks
            else:
                assert np.array_equal(masks, reference), letter

    def test_subtractor_model_resolution(self):
        sub = BackgroundSubtractor(SHAPE, level="dmsg:F", backend="cpu")
        assert sub.model is DMSG_FAMILY
        cfg = RunConfig(height=8, width=10, model="dmsg")
        sub2 = BackgroundSubtractor(
            SHAPE, level="F", backend="cpu", run_config=cfg
        )
        assert sub2.model is DMSG_FAMILY
        with pytest.raises(ConfigError):
            BackgroundSubtractor(
                SHAPE, level="dmsg:F", model="mog", backend="cpu"
            )


# ----------------------------------------------------------------------
# Checkpoint interop
# ----------------------------------------------------------------------
def _pipeline(model, **kw):
    return SurveillancePipeline(
        SHAPE, PARAMS, warmup_frames=0, backend="cpu", model=model, **kw
    )


class TestCheckpointInterop:
    def _checkpoint(self, tmp_path, model):
        pipe = _pipeline(model)
        for frame in _frames(4):
            pipe.step(frame)
        path = tmp_path / f"{model}.ckpt"
        pipe.save_checkpoint(path)
        return path

    @pytest.mark.parametrize(
        "saved,restored", [("dmsg", "mog"), ("mog", "dmsg")]
    )
    def test_cross_family_restore_fails_typed(
        self, tmp_path, saved, restored
    ):
        path = self._checkpoint(tmp_path, saved)
        victim = _pipeline(restored)
        with pytest.raises(CheckpointError) as err:
            victim.restore_checkpoint(path)
        message = str(err.value)
        assert "model-family mismatch" in message
        assert saved in message and restored in message

    def test_same_family_roundtrip(self, tmp_path):
        path = self._checkpoint(tmp_path, "dmsg")
        frames = _frames(8)
        resumed = _pipeline("dmsg")
        resumed.restore_checkpoint(path)
        baseline = _pipeline("dmsg")
        for frame in frames[:4]:
            baseline.step(frame)
        for frame in frames[4:]:
            assert np.array_equal(
                resumed.step(frame).mask, baseline.step(frame).mask
            )

    def test_serve_resume_mismatch_fresh_readmits_and_counts(
        self, tmp_path
    ):
        # A DMSG checkpoint on disk, a MoG server resuming over it:
        # the default policy fails admission; "fresh" re-admits the
        # stream fresh and counts the fallback in telemetry.
        path = tmp_path / "cam.ckpt"
        donor = _pipeline("dmsg")
        for frame in _frames(4):
            donor.step(frame)
        donor.save_checkpoint(path)

        with StreamServer(
            SHAPE,
            serve=ServeConfig(
                resume=True, checkpoint_dir=str(tmp_path),
            ),
        ) as server:
            with pytest.raises(CheckpointError, match="model-family"):
                server.add_stream("cam")

        with StreamServer(
            SHAPE,
            serve=ServeConfig(
                resume=True, checkpoint_dir=str(tmp_path),
                resume_mismatch="fresh",
            ),
        ) as server:
            server.add_stream("cam")
            status = server.stream_status()[0]
            assert status["model"] == "mog"
            assert "started fresh" in status["resume_note"]
            snap = server.registry.snapshot()
            assert snap["counters"]["server.resume_fallbacks"] == 1


# ----------------------------------------------------------------------
# Per-stream model choice on the thread server
# ----------------------------------------------------------------------
class TestServeModels:
    def test_mixed_models_serve_bit_identical(self):
        frames = _frames(8, shape=SHAPE)
        with StreamServer(SHAPE, params=PARAMS) as server:
            server.add_stream("mog-cam")
            server.add_stream("dmsg-cam", model="dmsg")
            by_model = {
                row["stream"]: row["model"]
                for row in server.stream_status()
            }
            assert by_model == {"mog-cam": "mog", "dmsg-cam": "dmsg"}
            for frame in frames:
                server.submit("mog-cam", frame)
                server.submit("dmsg-cam", frame)
            server.drain()
            dmsg_masks = [r.mask for r in server.results("dmsg-cam")]
            mog_masks = [r.mask for r in server.results("mog-cam")]
        serial = _pipeline("dmsg")
        for frame, mask in zip(frames, dmsg_masks):
            assert np.array_equal(serial.step(frame).mask, mask)
        # The two families genuinely diverge on this scene.
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(dmsg_masks, mog_masks)
        )

    def test_model_conflicts_with_injected_pipeline(self):
        with StreamServer(SHAPE) as server:
            with pytest.raises(ConfigError, match="default-built"):
                server.add_stream(
                    "cam", pipeline=_pipeline("dmsg"), model="dmsg"
                )

    def test_server_default_model(self):
        with StreamServer(
            SHAPE, serve=ServeConfig(model="dmsg")
        ) as server:
            server.add_stream("cam")
            assert server.stream_status()[0]["model"] == "dmsg"


# ----------------------------------------------------------------------
# Family-aware integrity guard
# ----------------------------------------------------------------------
class TestDmsgIntegrity:
    def test_healthy_dmsg_state_passes(self):
        from repro.config import IntegrityPolicy
        from repro.faults.integrity import find_corrupt_pixels

        model = DmsgVectorized(SHAPE, PARAMS)
        for frame in _frames(6):
            model.apply(frame)
        # Ages exceed 1.0 — the MoG weight rule would flag every pixel;
        # the DMSG rule must not.
        assert float(model.state.w[0].max()) > 1.0
        report = find_corrupt_pixels(
            model.state, PARAMS, IntegrityPolicy(mode="detect"),
            model="dmsg",
        )
        assert report.corrupt.size == 0

    def test_repair_reinitialises_corrupt_pixels(self):
        from repro.config import IntegrityPolicy
        from repro.telemetry import MetricsRegistry

        policy = IntegrityPolicy(mode="repair", check_every=1)
        registry = MetricsRegistry()
        model = DmsgVectorized(
            SHAPE, PARAMS, integrity=policy, telemetry=registry,
        )
        frames = _frames(6)
        for frame in frames[:3]:
            model.apply(frame)
        w = model.state.w.copy()
        w[0, 5] = -4.0  # negative age: impossible
        model.restore_state((w, model.state.m, model.state.sd, 3))
        model.apply(frames[3])
        snap = registry.snapshot()
        assert snap["counters"]["integrity.pixels_repaired"] >= 1
        assert (model.state.w[0] >= 1.0).all()
