"""Shared helpers for the benchmark suite.

Every benchmark prints its experiment table to stdout (visible with
``pytest benchmarks/ --benchmark-only -s``) and writes it to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md numbers can be
regenerated and diffed.  Benchmarks that pass their structured rows also
get ``benchmarks/results/<name>.json`` — machine-readable output that CI
uploads as a workflow artifact, so run-to-run regressions diff without
parsing fixed-width tables.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Sequence

RESULTS_DIR = Path(__file__).parent / "results"

#: REPRO_BENCH_SMOKE=1 shrinks network sizes to CI scale
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in (
    "1", "true", "yes", "on",
)


def write_results(
    name: str,
    table: str,
    headers: Optional[Sequence[str]] = None,
    rows: Optional[Sequence[Sequence]] = None,
) -> None:
    """Print the table and persist it under benchmarks/results/.

    With ``headers``/``rows`` the structured data is also written as
    ``<name>.json`` (one object per row, keyed by header).
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table, encoding="utf-8")
    if headers is not None and rows is not None:
        payload = {
            "benchmark": name,
            "headers": list(headers),
            "rows": [dict(zip(headers, row)) for row in rows],
        }
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    print()
    print(table)
