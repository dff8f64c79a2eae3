"""Tests for the ASCII chart rendering."""

from repro.experiments.charts import line_chart


class TestLineChart:
    def test_empty(self):
        assert line_chart({}) == "(no data)"
        assert line_chart({"a": []}) == "(no data)"

    def test_contains_legend_and_markers(self):
        chart = line_chart({"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]})
        assert "o = up" in chart
        assert "+ = down" in chart
        assert "o" in chart and "+" in chart

    def test_axis_limits_printed(self):
        chart = line_chart({"s": [(2.0, 5.0), (8.0, 9.0)]})
        assert "2" in chart and "8" in chart

    def test_constant_series_does_not_crash(self):
        chart = line_chart({"flat": [(0, 3.0), (1, 3.0), (2, 3.0)]})
        assert "flat" in chart

    def test_y_label(self):
        chart = line_chart({"a": [(0, 0), (1, 1)]}, y_label="success rate")
        assert "[success rate]" in chart

    def test_size_controls(self):
        chart = line_chart({"a": [(0, 0), (1, 1)]}, width=30, height=8)
        body = [line for line in chart.splitlines() if "|" in line]
        assert len(body) == 8
