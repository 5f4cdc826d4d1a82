"""Contract of the repo benchmark, at ``--smoke`` sizes (tier-1, ~10 s).

What a later PR can break without noticing: a metric declared in
``BENCHMARK.json`` that a workload stops emitting, a wrapper target that
``src/`` renamed, an exact metric that stopped repeating, a shard executor
whose digest left the all-equal set, a process that outlives its run.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _session_members(session):
    """Command lines of the processes still in ``session`` (from /proc)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", encoding="utf-8",
                      errors="replace") as handle:
                command = handle.read().replace("\0", " ")
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session:
            members.append(f"{entry} {fields[0]} {command}")
    return members


def _run_both(workload):
    """The untraced and the traced smoke run, each in a fresh interpreter
    (side by side: they share nothing but the output directory) and in a
    session of its own, which must be empty once the run has returned."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    started = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--smoke", "--trace", str(trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        for trace in (0, 1)
    ]
    runs = []
    for trace, process in enumerate(started):
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stdout[-2000:] + stderr[-2000:]
        assert _session_members(process.pid) == [], "left running"
        with open(os.path.join(HERE, "out", f"{workload}.trace{trace}.json"),
                  encoding="utf-8") as handle:
            runs.append((json.loads(stdout.strip().splitlines()[-1]),
                         json.load(handle)))
    return runs


def test_benchmark_json_is_within_the_driver_limits(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/perf"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_benchmark_json_and_the_ledger_agree(declared):
    assert {w["name"]: w["why"] for w in declared["workloads"]} == layers.WORKLOADS
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in layers.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.PER_LAYER
    ]
    span_names = {name for name, _, _ in layers.TARGETS}
    for metric in layers.PER_LAYER:
        assert metric.source in ("T", "M", "P", "C")
        if metric.source == "T" and not metric.name.startswith("trace."):
            assert layers.span_metric(metric.name)[0] in span_names, metric.name


def test_every_wrapper_target_exists_in_src():
    for name, module, qualname in layers.TARGETS:
        spans.resolve(module, qualname)


@pytest.mark.parametrize("workload", list(layers.WORKLOADS))
def test_smoke_run_emits_every_declared_metric_and_repeats(workload, declared):
    (untraced, first), (traced, second) = _run_both(workload)
    for result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(m["value"] != 0 for m in untraced["metrics"].values())
    # exact values (digests, simulated bytes, accuracy, store rows) repeat
    # across interpreters; the sharded run has already checked flat == mp ==
    # tcp == durable mp inside each repetition, and flat == serial in the
    # traced unit, so one digest stands for all of them
    assert first["exact"] == second["exact"]
    assert first["exact"]["digest"]
    assert (traced["metrics"]["sim.stats.bytes_per_peer"]["value"]
            == first["exact"]["sim_bytes_per_peer"])
    assert traced["metrics"]["trace.spans"]["value"] > 0
