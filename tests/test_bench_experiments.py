"""The experiment layer itself: context memoisation, formatting, and
fast-scale sanity of each experiment function."""

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    Experiment,
    ExperimentContext,
    camera_jitter_study,
    cpu_baselines,
    embedded_study,
    table1,
    table2,
    table3,
)


@pytest.fixture(scope="module")
def fast_ctx():
    return ExperimentContext(shape=(48, 64), num_frames=14, warmup=8)


class TestExperimentContext:
    def test_frames_cached(self, fast_ctx):
        a = fast_ctx.frames()
        b = fast_ctx.frames()
        assert a is b

    def test_runs_memoised(self, fast_ctx):
        r1 = fast_ctx.run("D")
        r2 = fast_ctx.run("D")
        assert r1 is r2

    def test_distinct_configs_not_conflated(self, fast_ctx):
        r3 = fast_ctx.run("D", num_gaussians=3)
        r5 = fast_ctx.run("D", num_gaussians=5)
        assert r3 is not r5
        rd = fast_ctx.run("D", dtype="float")
        assert rd is not r3

    def test_g_frames_rounded_to_groups(self, fast_ctx):
        r = fast_ctx.run("G", frame_group=4)
        assert r.report.num_frames % 4 == 0


class TestExperimentFormatting:
    def test_format_contains_title_and_rows(self):
        exp = Experiment(
            "Fig X", "Demo", ["a", "b"], [[1, 2], [3, 4]], notes="note!"
        )
        text = exp.format()
        assert "Fig X: Demo" in text
        assert "note!" in text
        assert "3" in text

    def test_registry_complete(self):
        expected = {
            "table1", "table2", "table3", "table4", "fig6", "fig7",
            "fig8", "fig10", "fig11", "fig12", "cpu_baselines",
            "embedded", "jitter", "fusion", "models",
        }
        assert set(ALL_EXPERIMENTS) == expected


class TestStaticExperiments:
    def test_table1(self):
        assert len(table1().rows) == 7

    def test_table2_table3(self):
        assert len(table2().rows) == 3
        assert len(table3().rows) == 3

    def test_cpu_baselines(self):
        exp = cpu_baselines()
        assert len(exp.rows) == 5
        for row in exp.rows:
            assert row[1] == row[2]  # model reproduces every anchor


class TestDynamicExperimentsFastScale:
    """Smoke the expensive experiments at a small context — shapes are
    asserted for real in benchmarks/."""

    def test_embedded(self, fast_ctx):
        exp = embedded_study(fast_ctx)
        assert len(exp.rows) == 8
        assert {row[3] for row in exp.rows} <= {"60 Hz", "30 Hz", "below RT"}

    def test_jitter(self, fast_ctx):
        exp = camera_jitter_study(fast_ctx)
        rates = [float(r[1].rstrip("%")) for r in exp.rows]
        assert rates[0] <= rates[-1]

    def test_fusion_counters(self):
        from repro.bench.experiments import fusion_counters

        exp = fusion_counters()
        assert len(exp.rows) == 3
        eliminated = []
        for row in exp.rows:
            unfused, fused, delta = (float(c) for c in row[1:])
            assert fused < unfused
            assert delta == pytest.approx(unfused - fused)
            eliminated.append(delta)
        # Each additional fused stage eliminates strictly more traffic.
        assert eliminated == sorted(eliminated) and len(set(eliminated)) == 3
