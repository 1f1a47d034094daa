"""The CPU engine (the cpu backend's MoG path at levels D-G) must be
bit-identical to the `nosort` oracle."""

import numpy as np
import pytest

from repro.cpu.engine import MoGEngine
from repro.errors import ConfigError
from repro.mog import MoGVectorized
from repro.video.scenes import evaluation_scene

SHAPE = (32, 64)


class TestEquivalence:
    @pytest.mark.parametrize("dtype", ["double", "float"])
    def test_bitwise_masks_and_state(self, params, dtype):
        video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
        clear = MoGVectorized(SHAPE, params, variant="nosort", dtype=dtype)
        fast = MoGEngine(SHAPE, params, dtype=dtype)
        for t in range(20):
            frame = video.frame(t)
            assert np.array_equal(clear.apply(frame), fast.apply(frame)), t
        assert np.array_equal(clear.state.w, fast.state.w)
        assert np.array_equal(clear.state.m, fast.state.m)
        assert np.array_equal(clear.state.sd, fast.state.sd)

    def test_five_gaussians(self, params):
        p5 = params.replace(num_gaussians=5)
        video = evaluation_scene(height=16, width=32)
        clear = MoGVectorized((16, 32), p5, variant="nosort")
        fast = MoGEngine((16, 32), p5)
        for t in range(8):
            frame = video.frame(t)
            assert np.array_equal(clear.apply(frame), fast.apply(frame))

    def test_returned_masks_independent(self, params):
        """apply() must hand out masks the caller can keep."""
        video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
        fast = MoGEngine(SHAPE, params)
        m1 = fast.apply(video.frame(0))
        snapshot = m1.copy()
        fast.apply(video.frame(1))
        assert np.array_equal(m1, snapshot)


class TestApi:
    def test_shape_validated(self, params):
        fast = MoGEngine(SHAPE, params)
        with pytest.raises(ConfigError):
            fast.apply(np.zeros((4, 4), dtype=np.uint8))

    def test_empty_sequence(self, params):
        with pytest.raises(ConfigError):
            MoGEngine(SHAPE, params).apply_sequence([])

    def test_background_image(self, params):
        video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
        fast = MoGEngine(SHAPE, params)
        clear = MoGVectorized(SHAPE, params, variant="nosort")
        for t in range(6):
            fast.apply(video.frame(t))
            clear.apply(video.frame(t))
        assert np.array_equal(fast.background_image(), clear.background_image())

    def test_background_before_frames(self, params):
        with pytest.raises(ConfigError):
            MoGEngine(SHAPE, params).background_image()
