"""Tests for benchmark table/series formatting."""

import pytest

from repro.bench.tables import cdf, format_table, percent, percentile


class TestFormatTable(object):
    def test_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert all(len(line) >= 6 for line in lines[2:])
        # Columns align: 'value' header position matches cell positions.
        header_col = lines[1].index("value")
        assert lines[3][header_col - 2] in " r"  # padded

    def test_handles_numbers_and_strings(self):
        text = format_table(["a"], [[1.5], ["x"]])
        assert "1.5" in text and "x" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestSeriesAndStats(object):
    def test_percent(self):
        assert percent(0.123) == "+12.3%"
        assert percent(-0.05) == "-5.0%"

    def test_cdf_monotone(self):
        points = cdf([3.0, 1.0, 2.0])
        values = [v for v, _f in points]
        fractions = [f for _v, f in points]
        assert values == sorted(values)
        assert fractions == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_percentile(self):
        values = list(range(100))
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.0) == 0
        assert percentile([], 0.5) == 0.0
