"""Text-table rendering and example-script health."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.bench.reporting import format_table, millions, pct

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        # Columns align: every row has the separator at the same offset.
        sep_col = lines[0].index("v")
        assert lines[2][sep_col] in "1 "
        assert lines[3].index("22") == sep_col

    def test_title_underlined(self):
        text = format_table(["a"], [[1]], title="My Title")
        lines = text.splitlines()
        assert lines[0] == "My Title"
        assert lines[1] == "=" * len("My Title")

    def test_empty_rows(self):
        text = format_table(["col1", "col2"], [])
        assert "col1" in text

    def test_cells_stringified(self):
        text = format_table(["x"], [[3.14159]])
        assert "3.14159" in text

    def test_pct_and_millions(self):
        assert pct(0.1234) == "12.3%"
        assert millions(6_700_000) == "6.70M"


class TestExamples:
    """Every example must at least import cleanly and expose main()."""

    @pytest.mark.parametrize(
        "script", sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    )
    def test_importable_with_main(self, script):
        path = EXAMPLES_DIR / script
        spec = importlib.util.spec_from_file_location(
            f"example_{script[:-3]}", path
        )
        module = importlib.util.module_from_spec(spec)
        # Register so dataclasses/typing introspection inside works.
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            assert callable(getattr(module, "main", None)), script
        finally:
            sys.modules.pop(spec.name, None)

    def test_expected_example_set(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "optimization_tour.py",
            "surveillance_quality.py",
            "tiled_window_sweep.py",
            "precision_and_components.py",
            "color_subtraction.py",
            "parameter_study.py",
            "profiler_deep_dive.py",
            "surveillance_pipeline.py",
        } <= names
