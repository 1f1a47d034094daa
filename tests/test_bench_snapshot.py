"""Where the committed quality matrix is looked up
(``REPRO_BENCH_DIR``, else the nearest repo checkout)."""

import pytest

from repro.errors import ConfigError
from repro.serve.controller import BENCH_DIR_ENV, resolve_bench_dir


class TestResolveDir:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        target = tmp_path / "bench" / "nested"
        monkeypatch.setenv(BENCH_DIR_ENV, str(target))
        assert resolve_bench_dir() == target.resolve()
        assert target.is_dir()  # created on demand

    def test_checkout_found_from_cwd(self, tmp_path, monkeypatch):
        root = tmp_path / "checkout"
        (root / "src" / "repro").mkdir(parents=True)
        (root / "pyproject.toml").write_text("[project]\n")
        inner = root / "docs"
        inner.mkdir()
        monkeypatch.delenv(BENCH_DIR_ENV, raising=False)
        monkeypatch.chdir(inner)
        assert resolve_bench_dir() == root.resolve()

    def test_non_checkout_cwd_raises(self, tmp_path, monkeypatch):
        """Regression: the lookup path used to be derived from
        ``__file__`` (``parents[3]``), which points into site-packages
        once the package is installed — the file was silently looked
        for next to the installed library. A cwd with no checkout in
        sight must be a clear ConfigError naming the env override
        instead."""
        monkeypatch.delenv(BENCH_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match=BENCH_DIR_ENV):
            resolve_bench_dir()
