"""Vectorized MoG: equivalence to the scalar reference and variant
relationships."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mog import MoGReference, MoGVectorized
from repro.video.scenes import evaluation_scene

SHAPE = (16, 32)


@pytest.fixture(scope="module")
def frames():
    video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
    return [video.frame(t) for t in range(10)]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("variant,ref_kwargs", [
        ("sorted", dict(sort=True)),
        ("nosort", dict(sort=False)),
        ("predicated", dict(sort=False)),
        ("regopt", dict(sort=False, recompute_diff=True)),
    ])
    def test_masks_match_reference(self, frames, params, variant, ref_kwargs):
        vec = MoGVectorized(SHAPE, params, variant=variant)
        ref = MoGReference(SHAPE, params, **ref_kwargs)
        for t, frame in enumerate(frames):
            assert np.array_equal(vec.apply(frame), ref.apply(frame)), (
                f"{variant} diverged from reference at frame {t}"
            )

    def test_state_matches_reference_exactly(self, frames, params):
        vec = MoGVectorized(SHAPE, params, variant="sorted")
        ref = MoGReference(SHAPE, params, sort=True)
        for frame in frames:
            vec.apply(frame)
            ref.apply(frame)
        st_ref = ref.state()
        assert np.array_equal(st_ref.w, vec.state.w)
        assert np.array_equal(st_ref.m, vec.state.m)
        assert np.array_equal(st_ref.sd, vec.state.sd)


class TestVariantRelationships:
    def test_sorted_nosort_predicated_identical(self, frames, params):
        mogs = {
            v: MoGVectorized(SHAPE, params, variant=v)
            for v in ("sorted", "nosort", "predicated")
        }
        for frame in frames:
            masks = {v: m.apply(frame) for v, m in mogs.items()}
            assert np.array_equal(masks["sorted"], masks["nosort"])
            assert np.array_equal(masks["nosort"], masks["predicated"])

    def test_nosort_predicated_bitwise_state(self, frames, params):
        a = MoGVectorized(SHAPE, params, variant="nosort")
        b = MoGVectorized(SHAPE, params, variant="predicated")
        for frame in frames:
            a.apply(frame)
            b.apply(frame)
        assert np.array_equal(a.state.w, b.state.w)
        assert np.array_equal(a.state.m, b.state.m)
        assert np.array_equal(a.state.sd, b.state.sd)

    def test_regopt_provably_equivalent(self, params):
        """The level-F restructuring (diff recomputed from updated
        means) cannot change any decision: for a matched component,
        ``diff >= Gamma1 * sd_post`` is algebraically impossible given
        the match condition and the sd update, and unmatched components
        keep their diffs (see repro.mog.update, step 6 note). This test
        pins that proof empirically over a long multimodal run."""
        video = evaluation_scene(height=32, width=64, seed=9)
        a = MoGVectorized((32, 64), params, variant="nosort")
        b = MoGVectorized((32, 64), params, variant="regopt")
        for t in range(40):
            frame = video.frame(t)
            assert np.array_equal(a.apply(frame), b.apply(frame)), t
        assert np.array_equal(a.state.m, b.state.m)
        assert np.array_equal(a.state.w, b.state.w)
        assert np.array_equal(a.state.sd, b.state.sd)


class TestApi:
    def test_frame_shape_validated(self, params):
        mog = MoGVectorized(SHAPE, params)
        with pytest.raises(ConfigError):
            mog.apply(np.zeros((8, 8), dtype=np.uint8))

    def test_unknown_variant(self, params):
        with pytest.raises(ConfigError):
            MoGVectorized(SHAPE, params, variant="fancy")

    def test_invalid_shape(self, params):
        with pytest.raises(ConfigError):
            MoGVectorized((0, 4), params)

    def test_apply_sequence_stacks(self, frames, params):
        mog = MoGVectorized(SHAPE, params)
        masks = mog.apply_sequence(frames)
        assert masks.shape == (len(frames), *SHAPE)
        assert masks.dtype == np.bool_

    def test_apply_sequence_empty(self, params):
        with pytest.raises(ConfigError):
            MoGVectorized(SHAPE, params).apply_sequence([])

    def test_background_before_frames_rejected(self, params):
        with pytest.raises(ConfigError):
            MoGVectorized(SHAPE, params).background_image()

    def test_background_image_converges(self, params):
        video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
        mog = MoGVectorized(SHAPE, params)
        for t in range(30):
            mog.apply(video.frame(t))
        bg = mog.background_image()
        # The estimated background tracks the true noiseless scene to
        # within the bimodal amplitude.
        truth = video.background(29)
        close = np.abs(bg - truth) < 30.0
        assert close.mean() > 0.9

    def test_frames_processed_counter(self, frames, params):
        mog = MoGVectorized(SHAPE, params)
        mog.apply_sequence(frames)
        assert mog.frames_processed == len(frames)

    def test_float32_runs(self, frames, params):
        mog = MoGVectorized(SHAPE, params, dtype="float")
        masks = mog.apply_sequence(frames)
        assert mog.state.dtype == np.float32
        assert masks.any() or True  # runs to completion

    def test_float32_close_to_float64(self, frames, params):
        d = MoGVectorized(SHAPE, params, dtype="double")
        f = MoGVectorized(SHAPE, params, dtype="float")
        agree = 0
        total = 0
        for frame in frames:
            md, mf = d.apply(frame), f.apply(frame)
            agree += np.count_nonzero(md == mf)
            total += md.size
        assert agree / total > 0.98

    def test_first_frame_is_background(self, params):
        """Component 0 owns the first frame with full weight, so the
        first mask is (almost) everywhere background."""
        video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
        mog = MoGVectorized(SHAPE, params)
        mask = mog.apply(video.frame(0))
        assert mask.mean() < 0.05


    def test_restore_state_copies_snapshot_arrays(self, params, frames):
        """Regression: ``restore_state`` must deep-copy. A snapshot is
        the *live* state of the source model (``state_snapshot`` hands
        out references); a restore that aliased those arrays would
        couple the two models' histories."""
        source = MoGVectorized(SHAPE, params)
        for f in frames[:3]:
            source.apply(f)
        snap = source.state_snapshot()
        w0, m0, sd0 = (np.array(a, copy=True) for a in snap[:3])

        restored = MoGVectorized(SHAPE, params)
        restored.restore_state(snap)
        assert restored.frames_processed == 3
        for ours, theirs in zip(
            (restored.state.w, restored.state.m, restored.state.sd), snap
        ):
            assert ours is not theirs
            assert not np.shares_memory(ours, theirs)
        # Mutation after restore: the checkpoint must not move.
        restored.state.w += 0.25
        restored.state.sd *= 2.0
        assert np.array_equal(snap[0], w0)
        assert np.array_equal(snap[1], m0)
        assert np.array_equal(snap[2], sd0)


class TestFiveGaussians:
    def test_runs_and_matches_reference(self, params):
        p5 = params.replace(num_gaussians=5)
        video = evaluation_scene(height=12, width=32)
        vec = MoGVectorized((12, 32), p5)
        ref = MoGReference((12, 32), p5)
        for t in range(6):
            frame = video.frame(t)
            assert np.array_equal(vec.apply(frame), ref.apply(frame))
