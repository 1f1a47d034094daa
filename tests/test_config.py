"""Validation behaviour of MoGParams / RunConfig / FaultPolicy / dtype
resolution."""

import numpy as np
import pytest

from repro.config import (
    FULL_HD,
    PAPER_NUM_FRAMES,
    FaultPolicy,
    MoGParams,
    RunConfig,
    resolve_dtype,
)
from repro.errors import ConfigError


class TestResolveDtype:
    def test_cuda_names(self):
        assert resolve_dtype("double") == np.dtype(np.float64)
        assert resolve_dtype("float") == np.dtype(np.float32)

    def test_numpy_names(self):
        assert resolve_dtype("float64") == np.dtype(np.float64)
        assert resolve_dtype(np.float32) == np.dtype(np.float32)
        assert resolve_dtype(np.dtype(np.float64)) == np.dtype(np.float64)

    @pytest.mark.parametrize("bad", ["int32", "float16", int, "complex128"])
    def test_rejects_non_float32_64(self, bad):
        with pytest.raises(ConfigError):
            resolve_dtype(bad)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            resolve_dtype("not-a-dtype")


class TestMoGParams:
    def test_defaults_valid(self):
        p = MoGParams()
        assert p.num_gaussians == 3
        assert 0 < p.learning_rate < 1

    @pytest.mark.parametrize("k", [0, -1, 9])
    def test_num_gaussians_bounds(self, k):
        with pytest.raises(ConfigError):
            MoGParams(num_gaussians=k)

    @pytest.mark.parametrize("lr", [0.0, 1.0, -0.1, 2.0])
    def test_learning_rate_bounds(self, lr):
        with pytest.raises(ConfigError):
            MoGParams(learning_rate=lr)

    @pytest.mark.parametrize("g1", [0.0, -2.5])
    def test_match_threshold_positive(self, g1):
        with pytest.raises(ConfigError):
            MoGParams(match_threshold=g1)

    @pytest.mark.parametrize("g2", [0.0, 1.0, 1.5])
    def test_background_weight_bounds(self, g2):
        with pytest.raises(ConfigError):
            MoGParams(background_weight=g2)

    def test_sd_fields_positive(self):
        with pytest.raises(ConfigError):
            MoGParams(initial_sd=0.0)
        with pytest.raises(ConfigError):
            MoGParams(sd_floor=-1.0)

    def test_initial_weight_bounds(self):
        with pytest.raises(ConfigError):
            MoGParams(initial_weight=0.0)
        MoGParams(initial_weight=1.0)  # inclusive upper bound

    def test_replace(self):
        p = MoGParams().replace(num_gaussians=5)
        assert p.num_gaussians == 5
        assert MoGParams().num_gaussians == 3  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            MoGParams().num_gaussians = 4


class TestRunConfig:
    def test_defaults(self):
        rc = RunConfig()
        assert rc.num_pixels == rc.height * rc.width
        assert rc.np_dtype == np.dtype(np.float64)
        assert rc.itemsize == 8

    def test_float_itemsize(self):
        assert RunConfig(dtype="float").itemsize == 4

    @pytest.mark.parametrize("h,w", [(0, 10), (10, 0), (-1, 5)])
    def test_geometry_validation(self, h, w):
        with pytest.raises(ConfigError):
            RunConfig(height=h, width=w)

    @pytest.mark.parametrize("tpb", [0, 31, 100, -32])
    def test_threads_per_block_warp_multiple(self, tpb):
        with pytest.raises(ConfigError):
            RunConfig(threads_per_block=tpb)

    @pytest.mark.parametrize("tile", [0, 100, -64])
    def test_tile_pixels_validation(self, tile):
        with pytest.raises(ConfigError):
            RunConfig(tile_pixels=tile)

    def test_frame_group_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(frame_group=0)

    def test_gaussian_bytes_matches_paper(self):
        """The paper quotes 149 MB for full HD, 3 components, double."""
        rc = RunConfig(height=FULL_HD[0], width=FULL_HD[1])
        assert rc.gaussian_bytes(3) == 1080 * 1920 * 3 * 3 * 8
        assert rc.gaussian_bytes(3) / 2**20 == pytest.approx(142.4, abs=1.0)

    def test_paper_constants(self):
        assert FULL_HD == (1080, 1920)
        assert PAPER_NUM_FRAMES == 450

    def test_replace(self):
        rc = RunConfig().replace(dtype="float")
        assert rc.dtype == "float"


class TestFaultPolicy:
    def test_policy_validated(self):
        with pytest.raises(ConfigError):
            FaultPolicy(policy="retry")
        with pytest.raises(ConfigError):
            FaultPolicy(policy="serial_fallback")
        with pytest.raises(ConfigError):
            FaultPolicy(max_restarts=-1)
        with pytest.raises(ConfigError):
            FaultPolicy(stage_error="ignore")
