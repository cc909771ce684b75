"""Tests for reporting and tracing."""

import pytest

from repro.core.reporting import bar_chart, boxplot, figure_header, format_table
from repro.core.trace import TraceReader, TraceWriter, compare_traces


class TestFormatTable:
    def test_alignment_and_headers(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]
        assert "2.50" in lines[3]

    def test_title(self):
        out = format_table(["x"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_none_renders_dash(self):
        out = format_table(["x"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_table(["x"], [])


class TestBarChart:
    def test_bars_scale(self):
        out = bar_chart({"a": 10.0, "b": 5.0}, width=20)
        lines = out.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_unit_suffix(self):
        out = bar_chart({"a": 1.0}, unit="%")
        assert "1.00%" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})


class TestBoxplot:
    def test_render_contains_median_markers(self):
        out = boxplot({"g1": [1, 2, 3, 4, 5], "g2": [2, 4, 6, 8, 10]}, width=30)
        assert out.count("|") >= 2
        assert "med=3.00" in out
        assert "n=5" in out

    def test_shared_axis(self):
        out = boxplot({"low": [0, 1], "high": [9, 10]}, width=40)
        lines = out.splitlines()
        # low group's box must start left of high group's.
        low_start = lines[0].index("-")
        high_start = lines[1].index("-")
        assert low_start < high_start

    def test_skips_empty_groups(self):
        out = boxplot({"a": [1.0, 2.0], "b": []})
        assert "a" in out and "b [" not in out

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot({"a": []})


class TestFigureHeader:
    def test_banner(self):
        out = figure_header("Figure 2", "Mission success rate")
        assert "Figure 2" in out
        assert out.splitlines()[0] == "=" * 72


class TestTrace:
    def _write(self, path, states, violations=(), injections=()):
        with TraceWriter(path, header={"scenario": "s0"}) as tw:
            for frame, x in states:
                tw.state(frame, x, 0.0, 0.0, 1.0)
            for frame in violations:
                tw.violation(frame, "lane")
            for frame in injections:
                tw.injection(frame, "gaussian")
        return path

    def test_roundtrip(self, tmp_path):
        path = self._write(tmp_path / "t.jsonl", [(0, 1.0), (1, 2.0)], [1], [0])
        reader = TraceReader(path)
        assert reader.header["scenario"] == "s0"
        assert len(reader.states) == 2
        assert reader.violations[0]["type"] == "lane"
        assert reader.injections[0]["fault"] == "gaussian"
        assert reader.trajectory() == [(1.0, 0.0), (2.0, 0.0)]

    def test_footer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tw = TraceWriter(path)
        tw.state(0, 0, 0, 0, 0)
        tw.close(footer={"success": True})
        reader = TraceReader(path)
        assert reader.footer["success"] is True

    def test_write_after_close_rejected(self, tmp_path):
        tw = TraceWriter(tmp_path / "t.jsonl")
        tw.close()
        with pytest.raises(RuntimeError):
            tw.state(0, 0, 0, 0, 0)

    def test_compare_identical(self, tmp_path):
        a = TraceReader(self._write(tmp_path / "a.jsonl", [(0, 1.0), (1, 2.0)]))
        b = TraceReader(self._write(tmp_path / "b.jsonl", [(0, 1.0), (1, 2.0)]))
        assert compare_traces(a, b) is None

    def test_compare_divergence_field(self, tmp_path):
        a = TraceReader(self._write(tmp_path / "a.jsonl", [(0, 1.0), (1, 2.0)]))
        b = TraceReader(self._write(tmp_path / "b.jsonl", [(0, 1.0), (1, 9.0)]))
        div = compare_traces(a, b)
        assert div is not None
        assert div.frame == 1
        assert div.field == "x"

    def test_compare_length_mismatch(self, tmp_path):
        a = TraceReader(self._write(tmp_path / "a.jsonl", [(0, 1.0)]))
        b = TraceReader(self._write(tmp_path / "b.jsonl", [(0, 1.0), (1, 2.0)]))
        div = compare_traces(a, b)
        assert div is not None
        assert div.field == "length"

