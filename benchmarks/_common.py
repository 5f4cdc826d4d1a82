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
import resource
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

RESULTS_DIR = Path(__file__).parent / "results"

#: REPRO_BENCH_SMOKE=1 shrinks network sizes to CI scale
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in (
    "1", "true", "yes", "on",
)


def cpu_count() -> int:
    """Cores available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident-set high-water mark in MiB.

    ``children=True`` reads the reaped-children maximum (the mp executor's
    forked shard workers).  Both values are monotone high-water marks for
    the whole process lifetime, so per-row numbers in a multi-row benchmark
    read as "peak so far", not per-run peaks — still exactly what a
    trajectory diff needs to catch a memory regression.
    """
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kb = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes
        kb /= 1024
    return round(kb / 1024.0, 2)


def write_bench_trajectory(
    name: str, entries: Sequence[Dict], context: Optional[Dict] = None
) -> Path:
    """Write ``benchmarks/results/BENCH_<name>.json`` — the performance
    trajectory record.

    One object per measured configuration (wall seconds, peak RSS, shape
    identifiers), plus the machine context the numbers were taken on.  The
    file is checked in as the baseline and refreshed by every benchmark
    run, so a future PR's regression shows up as a reviewable diff and CI
    uploads the fresh copy as an artifact.
    """
    import numpy

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "benchmark": name,
        "context": {
            "cpus": cpu_count(),
            "python": "%d.%d" % sys.version_info[:2],
            # the columnar exchange path's hot loops are numpy kernels, so
            # trajectory diffs need the version the numbers were taken on
            "numpy": numpy.__version__,
            **(context or {}),
        },
        "entries": list(entries),
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


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
