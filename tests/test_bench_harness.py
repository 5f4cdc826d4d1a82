"""Tests for the table reporting ``repro compare`` and the examples print."""

from repro.bench import format_cell, format_row, format_table


class TestReporting:
    def test_format_cell(self):
        assert format_cell(0.123456) == "0.123"
        assert format_cell(42) == "42"
        assert format_cell("text") == "text"

    def test_format_row_widths(self):
        row = format_row(["ab", 3], [5, 4])
        assert row.startswith("ab   ")
        assert row.endswith("3")

    def test_format_table_structure(self):
        table = format_table(
            "Title", ["col1", "column2"], [["a", 1], ["bb", 22]]
        )
        lines = table.splitlines()
        assert lines[1] == "Title"
        assert "col1" in lines[3]
        assert "bb" in lines[5]

    def test_format_table_widens_for_long_cells(self):
        table = format_table("T", ["c"], [["very-long-cell-content"]])
        assert "very-long-cell-content" in table

    def test_empty_rows(self):
        table = format_table("Empty", ["a", "b"], [])
        assert "Empty" in table and "a" in table
