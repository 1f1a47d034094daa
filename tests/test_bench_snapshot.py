"""Throughput-snapshot path resolution and merge semantics."""

import json

import pytest

from repro.bench.snapshot import (
    BENCH_DIR_ENV,
    SNAPSHOT_NAME,
    measure_controlled_overload,
    resolve_snapshot_dir,
    update_snapshot,
)
from repro.errors import ConfigError


class TestResolveDir:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        target = tmp_path / "bench" / "nested"
        monkeypatch.setenv(BENCH_DIR_ENV, str(target))
        assert resolve_snapshot_dir() == target.resolve()
        assert target.is_dir()  # created on demand

    def test_checkout_found_from_cwd(self, tmp_path, monkeypatch):
        root = tmp_path / "checkout"
        (root / "src" / "repro").mkdir(parents=True)
        (root / "pyproject.toml").write_text("[project]\n")
        inner = root / "docs"
        inner.mkdir()
        monkeypatch.delenv(BENCH_DIR_ENV, raising=False)
        monkeypatch.chdir(inner)
        assert resolve_snapshot_dir() == root.resolve()

    def test_non_checkout_cwd_raises(self, tmp_path, monkeypatch):
        """Regression: the snapshot path used to be derived from
        ``__file__`` (``parents[3]``), which points into site-packages
        once the package is installed — the file silently landed next
        to the installed library. A cwd with no checkout in sight must
        be a clear ConfigError naming the env override instead."""
        monkeypatch.delenv(BENCH_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match=BENCH_DIR_ENV):
            resolve_snapshot_dir()

    def test_update_snapshot_honours_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BENCH_DIR_ENV, str(tmp_path))
        path = update_snapshot({"x": {"frames_per_s": 1.0}})
        assert path == tmp_path / SNAPSHOT_NAME
        data = json.loads(path.read_text())
        assert data["entries"]["x"]["frames_per_s"] == 1.0


class TestMerge:
    def test_merge_preserves_other_entries(self, tmp_path):
        path = tmp_path / SNAPSHOT_NAME
        update_snapshot({"a": {"v": 1}}, path)
        update_snapshot({"b": {"v": 2}}, path)
        data = json.loads(path.read_text())
        assert set(data["entries"]) == {"a", "b"}
        assert data["schema"] == 1

    def test_corrupt_snapshot_rewritten(self, tmp_path):
        path = tmp_path / SNAPSHOT_NAME
        path.write_text("{not json")
        update_snapshot({"a": {"v": 1}}, path)
        data = json.loads(path.read_text())
        assert data["entries"] == {"a": {"v": 1}}


class TestControlledOverload:
    def test_frames_per_s_counts_only_served_frames(self, monkeypatch):
        """Shed frames produce no result, so they must not count as
        throughput: frames/s x elapsed equals the results emitted."""
        import repro.config as config
        from repro.serve import StreamServer

        # A one-frame queue keeps every stream hot, so the controller
        # walks the whole ladder down to its shed rung within the burst.
        real_config = config.ServeConfig
        monkeypatch.setattr(
            config, "ServeConfig",
            lambda **kw: real_config(**{**kw, "queue_capacity": 1}),
        )
        emitted = []
        real_results = StreamServer.results

        def counting_results(self, stream_id):
            out = real_results(self, stream_id)
            if self.controller is not None:
                emitted.extend(r for r in out if r.frame_index > 0)
            return out

        monkeypatch.setattr(StreamServer, "results", counting_results)
        entry = measure_controlled_overload(
            num_streams=8, num_frames=49, shape=(48, 64),
            max_recover_windows=0,
        )
        assert entry["frames_shed"] > 0
        assert entry["frames_offered"] == 48 * 8
        assert entry["frames_timed"] == len(emitted)
        assert entry["frames_per_s"] * entry["elapsed_s"] == pytest.approx(
            len(emitted), abs=0.5
        )
