"""Compare two ``run.py`` records: ``compare.py A.json B.json``.

A is the base, B the candidate.  One row per (workload, end-to-end metric)
with both values, the ratio B ÷ A and the bound from ``BENCHMARK.json``;
B breaches when it is worse than A by more than the bound in the metric's
direction.  Exits 1 on any breach or on a pair missing from either record.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def worse_by(base: float, candidate: float, better: str) -> float:
    """Share of ``base`` by which ``candidate`` is worse (negative: better)."""
    if base == 0:
        return 0.0 if candidate == 0 else float("inf")
    change = (candidate - base) / abs(base)
    return change if better == "lower" else -change


def compare(base: dict, candidate: dict, declared: dict) -> List[tuple]:
    """Rows ``(workload, metric, base, candidate, ratio, bound, verdict)``."""
    rows = []
    for workload in (entry["name"] for entry in declared["workloads"]):
        ours = base["workloads"].get(workload, {}).get("end_to_end", {})
        theirs = candidate["workloads"].get(workload, {}).get("end_to_end", {})
        for metric in declared["end_to_end"]:
            name = metric["name"]
            if name not in ours or name not in theirs:
                rows.append((workload, name, ours.get(name), theirs.get(name),
                             None, metric["bound"], "MISSING"))
                continue
            a, b = ours[name], theirs[name]
            breach = worse_by(a, b, metric["better"]) > metric["bound"]
            rows.append((workload, name, a, b, b / a if a else None,
                         metric["bound"], "BREACH" if breach else "ok"))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    rows = compare(records[0], records[1], declared)
    print(f"{'workload':16s} {'metric':20s} {'A (base)':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for workload, name, a, b, ratio, bound, verdict in rows:
        shown = [f"{value:14.6g}" if value is not None else f"{'-':>14s}"
                 for value in (a, b)]
        ratio_shown = f"{ratio:8.4f}" if ratio is not None else f"{'-':>8s}"
        print(f"{workload:16s} {name:20s} {shown[0]} {shown[1]} "
              f"{ratio_shown} {bound:6.2f}  {verdict}")
    bad = [row for row in rows if row[-1] != "ok"]
    print(f"{len(rows)} pairs, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
