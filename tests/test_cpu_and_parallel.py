"""CPU baselines: the analytic time model and the timed reference run."""

import pytest

from repro.config import FULL_HD, PAPER_NUM_FRAMES
from repro.cpu import CpuTimeModel, PAPER_BASELINES, run_cpu_reference
from repro.errors import ConfigError


class TestCpuTimeModel:
    @pytest.mark.parametrize("key,expected", list(PAPER_BASELINES.items()))
    def test_reproduces_every_paper_anchor(self, key, expected):
        k, dtype, mode = key
        model = CpuTimeModel()
        assert model.paper_reference_time(k, dtype, mode) == pytest.approx(
            expected, rel=1e-9
        )

    def test_linear_in_workload(self):
        model = CpuTimeModel()
        t1 = model.time(1000, 10)
        t2 = model.time(2000, 10)
        t3 = model.time(1000, 20)
        assert t2 == pytest.approx(2 * t1)
        assert t3 == pytest.approx(2 * t1)

    def test_cycles_per_pixel_plausible(self):
        model = CpuTimeModel()
        cyc = model.cycles_per_pixel(3, "double")
        # 227.3 s for 450 full-HD frames at 2.5 GHz.
        expected = 227.3 * 2.5e9 / (FULL_HD[0] * FULL_HD[1] * PAPER_NUM_FRAMES)
        assert cyc == pytest.approx(expected)

    def test_component_count_monotone(self):
        model = CpuTimeModel()
        times = [model.time(1000, 1, k) for k in (1, 3, 5, 8)]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_workload_validation(self):
        with pytest.raises(ConfigError):
            CpuTimeModel().time(0, 10)
        with pytest.raises(ConfigError):
            CpuTimeModel().cycles_per_pixel(0)


class TestRunCpuReference:
    def test_timed_run(self, small_frames, params):
        result = run_cpu_reference(small_frames, params)
        assert result.num_frames == len(small_frames)
        assert result.elapsed_s > 0
        assert result.time_per_frame > 0
        assert result.megapixels_per_second > 0
        assert result.masks.shape == (len(small_frames), 24, 64)

    def test_variant_validation(self, small_frames):
        with pytest.raises(ConfigError):
            run_cpu_reference(small_frames, variant="bogus")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            run_cpu_reference([])

