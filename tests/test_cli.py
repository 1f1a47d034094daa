"""The `repro` command-line interface, end to end on tmp files."""

import numpy as np
import pytest

from repro.cli import main
from repro.video.io import load_sequence


@pytest.fixture()
def clip(tmp_path):
    path = tmp_path / "clip.npz"
    code = main([
        "synthesize", str(path), "--scene", "surveillance",
        "--frames", "12", "--height", "32", "--width", "48",
    ])
    assert code == 0
    return path


class TestSynthesize:
    def test_writes_sequence_with_truth(self, clip):
        source, truth, _ = load_sequence(clip)
        assert source.num_frames == 12
        assert source.shape == (32, 48)
        assert truth is not None and truth.shape == (12, 32, 48)

    def test_scene_choices(self, tmp_path, capsys):
        for scene in ("evaluation", "traffic", "patient-room"):
            path = tmp_path / f"{scene}.npz"
            assert main([
                "synthesize", str(path), "--scene", scene,
                "--frames", "2", "--height", "24", "--width", "24",
            ]) == 0

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        for path in (a, b):
            main(["synthesize", str(path), "--frames", "3",
                  "--height", "24", "--width", "24", "--seed", "9"])
        fa, _, _ = load_sequence(a)
        fb, _, _ = load_sequence(b)
        assert np.array_equal(fa._frames, fb._frames)


class TestSubtract:
    def test_cpu_backend(self, clip, tmp_path, capsys):
        out = tmp_path / "masks.npz"
        code = main(["subtract", str(clip), str(out),
                     "--learning-rate", "0.08"])
        assert code == 0
        masks, _, _ = load_sequence(out)
        assert masks.num_frames == 12
        assert "foreground share" in capsys.readouterr().out

    def test_sim_backend_with_report(self, clip, tmp_path, capsys):
        out = tmp_path / "masks.npz"
        code = main([
            "subtract", str(clip), str(out),
            "--backend", "sim", "--level", "D", "--report",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "level D" in text
        assert "occupancy" in text

    def test_cpu_report_notice(self, clip, tmp_path, capsys):
        out = tmp_path / "masks.npz"
        main(["subtract", str(clip), str(out), "--report"])
        assert "no report" in capsys.readouterr().out

    def test_backends_agree(self, clip, tmp_path):
        out_cpu = tmp_path / "cpu.npz"
        out_sim = tmp_path / "sim.npz"
        main(["subtract", str(clip), str(out_cpu), "--level", "F"])
        main(["subtract", str(clip), str(out_sim), "--level", "F",
              "--backend", "sim"])
        a, _, _ = load_sequence(out_cpu)
        b, _, _ = load_sequence(out_sim)
        assert np.array_equal(a._frames, b._frames)

    def test_invalid_level_reports_error(self, clip, tmp_path, capsys):
        code = main(["subtract", str(clip), str(tmp_path / "x.npz"),
                     "--level", "Q"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEvaluate:
    def test_scores_masks(self, clip, tmp_path, capsys):
        out = tmp_path / "masks.npz"
        main(["subtract", str(clip), str(out), "--learning-rate", "0.08"])
        code = main(["evaluate", str(out), str(clip), "--skip", "6"])
        assert code == 0
        text = capsys.readouterr().out
        assert "precision" in text and "F1" in text

    def test_missing_truth_is_error(self, clip, tmp_path, capsys):
        masks = tmp_path / "masks.npz"
        main(["subtract", str(clip), str(masks)])
        # masks.npz itself has no truth channel:
        code = main(["evaluate", str(masks), str(masks)])
        assert code == 2
        assert "ground truth" in capsys.readouterr().err


class TestExperiments:
    def test_static_tables(self, capsys):
        assert main(["experiments", "table1", "table2"]) == 0
        text = capsys.readouterr().out
        assert "Tesla C2075" in text
        assert "Memory Coalescing" in text

    def test_unknown_name(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestLevels:
    def test_all_levels(self, capsys):
        assert main(["levels"]) == 0
        out = capsys.readouterr().out
        for letter in "ABCDEFG":
            assert f"{letter}: " in out
        assert "soa-layout" in out
        assert "paper speedup : 101x" in out

    def test_single_level(self, capsys):
        assert main(["levels", "F"]) == 0
        out = capsys.readouterr().out
        assert "F: register reduction" in out
        assert "register-reduction" in out

    def test_custom_pass_expression(self, capsys):
        assert main(["levels", "A+predication"]) == 0
        out = capsys.readouterr().out
        assert "custom" in out
        assert "layout=aos" in out
        assert "paper speedup : n/a" in out

    def test_json_payload(self, capsys):
        import json

        assert main(["levels", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["letter"] for d in data] == list("ABCDEFG")
        assert data[6]["group_structured"] is True
        assert data[0]["passes"] == []

    def test_unknown_level(self, capsys):
        assert main(["levels", "Z"]) == 1
        assert "error" in capsys.readouterr().err

    def test_text_output_lists_backends(self, capsys):
        assert main(["levels", "F"]) == 0
        out = capsys.readouterr().out
        assert "backends" in out
        assert "cpu" in out and "sim" in out and "jit" in out

    def test_json_backend_availability(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("PATH", "")
        assert main(["levels", "F", "--json"]) == 0
        (data,) = json.loads(capsys.readouterr().out)
        backends = data["backends"]
        assert backends["cpu"] == {"available": True}
        assert backends["sim"] == {"available": True}
        assert backends["jit"]["available"] is False
        assert "'cc'" in backends["jit"]["reason"]
        assert backends["cuda-text"] == {"available": True}

    def test_register_tiling_has_no_cuda_rendering(self, capsys):
        import json

        assert main(["levels", "F+register-tiling", "--json"]) == 0
        (data,) = json.loads(capsys.readouterr().out)
        cuda = data["backends"]["cuda-text"]
        assert cuda["available"] is False
        assert "simulator-only" in cuda["reason"]

    def test_subtract_accepts_pass_expression(self, clip, tmp_path):
        out = tmp_path / "masks.npz"
        code = main(["subtract", str(clip), str(out),
                     "--level", "A+predication",
                     "--learning-rate", "0.08"])
        assert code == 0
        masks, _, _ = load_sequence(out)
        assert masks.num_frames == 12


class TestBench:
    def test_cpu_smoke(self, capsys):
        code = main(["bench", "--backend", "cpu", "--frames", "4",
                     "--height", "16", "--width", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frames/s" in out
        assert "warmup" in out

    def test_jit_reports_fallback(
        self, capsys, monkeypatch, recwarn, tmp_path
    ):
        monkeypatch.setenv("PATH", "")
        monkeypatch.setenv("REPRO_JIT_CACHE_DIR", str(tmp_path))
        code = main(["bench", "--backend", "jit", "--frames", "6",
                     "--height", "16", "--width", "20"])
        assert code == 0
        assert "no compiled kernel" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        import json

        code = main(["bench", "--backend", "cpu", "--frames", "4",
                     "--height", "16", "--width", "20", "--json"])
        assert code == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["backend"] == "cpu"
        assert entry["frames_timed"] == 3
        assert "warmup_s" in entry and "compile_s" in entry


class TestTrack:
    def test_prints_track_summary(self, clip, capsys):
        code = main(["track", str(clip), "--warmup", "4",
                     "--learning-rate", "0.1"])
        assert code == 0
        assert "confirmed tracks" in capsys.readouterr().out


class TestTrackChaos:
    def test_injection_with_repair_reports_metrics(self, clip, tmp_path,
                                                   capsys):
        metrics = tmp_path / "metrics.json"
        code = main([
            "track", str(clip), "--warmup", "2",
            "--integrity", "repair",
            "--inject-target", "state", "--inject-frames", "5",
            "--inject-flips", "64", "--inject-seed", "7",
            "--metrics-json", str(metrics),
        ])
        assert code == 0
        import json

        snap = json.loads(metrics.read_text())
        assert snap["counters"]["faults.injected"] == 64
        assert snap["counters"]["integrity.checks"] >= 1

    def test_checkpoint_then_resume(self, clip, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        code = main([
            "track", str(clip), "--warmup", "2",
            "--checkpoint-dir", str(ckpts), "--checkpoint-every", "5",
        ])
        assert code == 0
        assert (ckpts / "clip.ckpt").exists()
        capsys.readouterr()
        code = main([
            "track", str(clip), "--warmup", "2",
            "--checkpoint-dir", str(ckpts), "--resume",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "at frame 10" in out  # 12 frames, period 5: last at idx 9

    def test_resume_requires_checkpoint_dir(self, clip, capsys):
        code = main(["track", str(clip), "--resume"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err


class TestServe:
    def test_synthetic_streams(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = main([
            "serve", "--streams", "3", "--frames", "8",
            "--height", "32", "--width", "48", "--workers", "2",
            "--warmup", "4", "--metrics-json", str(metrics),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "served 24 frames across 3 streams" in text
        assert "cam0: 8 frames" in text
        import json

        snap = json.loads(metrics.read_text())
        assert snap["counters"]["server.frames_total"] == 24
        assert snap["counters"]["stream.cam2.frames_total"] == 8
        assert "stream.cam0.step_s" in snap["histograms"]

    def test_npz_inputs(self, clip, capsys):
        code = main(["serve", str(clip), "--warmup", "4"])
        assert code == 0
        text = capsys.readouterr().out
        assert "clip: 12 frames" in text
        assert "across 1 streams" in text

    def test_npz_inputs_same_file_conflict(self, clip, capsys):
        # Two streams from the same file share a stem -> duplicate id.
        code = main(["serve", str(clip), str(clip)])
        assert code == 2
        assert "duplicate stream id" in capsys.readouterr().err

    def test_mismatched_shapes_rejected(self, clip, tmp_path, capsys):
        other = tmp_path / "other.npz"
        main(["synthesize", str(other), "--frames", "4",
              "--height", "24", "--width", "24"])
        code = main(["serve", str(clip), str(other)])
        assert code == 2
        assert "all streams must match" in capsys.readouterr().err

    def test_sharded_smoke(self, capsys):
        code = main([
            "serve", "--streams", "4", "--frames", "6",
            "--height", "24", "--width", "32", "--workers", "1",
            "--warmup", "4", "--shards", "2",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "served 24 frames across 4 streams" in text
        assert "2 shards x 1 workers" in text
        assert "latency p50" in text


class TestServeResume:
    """`repro serve --resume` against missing, partial, and mismatched
    checkpoint state."""

    def _serve(self, *extra):
        return main([
            "serve", "--streams", "1", "--frames", "6",
            "--height", "24", "--width", "32", "--workers", "1",
            "--warmup", "4", "--checkpoint-every", "2",
            *extra,
        ])

    def test_missing_checkpoint_dir_starts_fresh(self, tmp_path, capsys):
        ckpts = tmp_path / "never_written"
        code = self._serve("--checkpoint-dir", str(ckpts), "--resume")
        assert code == 0
        text = capsys.readouterr().out
        assert "no checkpoint for 'cam0'; started fresh" in text
        assert "cam0: 6 frames" in text

    def test_missing_stream_checkpoint_in_partial_dir(
        self, tmp_path, capsys
    ):
        ckpts = tmp_path / "ckpts"
        assert self._serve("--checkpoint-dir", str(ckpts)) == 0
        capsys.readouterr()
        # Second run adds a stream the first never checkpointed.
        code = main([
            "serve", "--streams", "2", "--frames", "6",
            "--height", "24", "--width", "32", "--workers", "1",
            "--warmup", "4", "--checkpoint-every", "2",
            "--checkpoint-dir", str(ckpts), "--resume",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "cam0: resumed at source frame 6" in text
        assert "no checkpoint for 'cam1'; started fresh" in text

    def test_wrong_model_params_fresh_by_default(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        assert self._serve(
            "--checkpoint-dir", str(ckpts), "--learning-rate", "0.2"
        ) == 0
        capsys.readouterr()
        code = self._serve("--checkpoint-dir", str(ckpts), "--resume")
        assert code == 0
        text = capsys.readouterr().out
        assert "checkpoint unusable, started fresh" in text
        assert "cam0: 6 frames" in text

    def test_wrong_model_params_fail_policy(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        assert self._serve(
            "--checkpoint-dir", str(ckpts), "--learning-rate", "0.2"
        ) == 0
        capsys.readouterr()
        code = self._serve(
            "--checkpoint-dir", str(ckpts), "--resume",
            "--resume-mismatch", "fail",
        )
        assert code == 1
        assert "mismatch" in capsys.readouterr().err


class TestExportCuda:
    def test_writes_project(self, tmp_path, capsys):
        out = tmp_path / "cuda"
        code = main(["export-cuda", str(out), "--height", "240",
                     "--width", "320", "--dtype", "float"])
        assert code == 0
        assert (out / "mog_kernel_F.cu").exists()
        header = (out / "mog_common.cuh").read_text()
        assert "typedef float scalar_t;" in header
        assert "#define NUM_PIXELS 76800" in header
        assert "Makefile" in capsys.readouterr().out


class TestModelFlag:
    def test_levels_model_column(self, capsys):
        assert main(["levels", "F"]) == 0
        assert "model         : mog" in capsys.readouterr().out
        assert main(["levels", "--model", "dmsg"]) == 0
        out = capsys.readouterr().out
        assert "model         : dmsg" in out
        assert "dmsg_regopt" in out

    def test_levels_json_model_key(self, capsys):
        import json

        assert main(["levels", "dmsg:A+predication", "--json"]) == 0
        (spec,) = json.loads(capsys.readouterr().out)
        assert spec["model"] == "dmsg"
        assert spec["kernel"] == "dmsg_predicated"

    def test_subtract_model_flag(self, clip, tmp_path):
        out_flag = tmp_path / "flag.npz"
        out_prefix = tmp_path / "prefix.npz"
        assert main(["subtract", str(clip), str(out_flag),
                     "--model", "dmsg"]) == 0
        assert main(["subtract", str(clip), str(out_prefix),
                     "--level", "dmsg:F"]) == 0
        flag = np.load(out_flag)["frames"]
        prefix = np.load(out_prefix)["frames"]
        assert np.array_equal(flag, prefix)

    def test_bench_model_flag(self, capsys):
        code = main(["bench", "--backend", "cpu", "--frames", "4",
                     "--warmup", "2", "--height", "16", "--width", "16",
                     "--model", "dmsg", "--json"])
        assert code == 0
        import json

        entry = json.loads(capsys.readouterr().out)
        assert entry["model"] == "dmsg"

    def test_serve_model_flag(self, capsys):
        code = main([
            "serve", "--streams", "2", "--frames", "4",
            "--height", "16", "--width", "16", "--model", "dmsg",
        ])
        assert code == 0

    def test_stressor_scenes_synthesize(self, tmp_path):
        for scene in ("static", "jitter", "illumination", "rain",
                      "shadows"):
            path = tmp_path / f"{scene}.npz"
            assert main([
                "synthesize", str(path), "--scene", scene,
                "--frames", "2", "--height", "24", "--width", "24",
            ]) == 0
