"""Fixed-width table formatting for the CLI and the examples."""

from repro.bench.reporting import format_table, format_row

__all__ = ["format_table", "format_row"]
