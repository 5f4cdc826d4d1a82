"""The repo benchmark: four workloads, end-to-end metrics, per-layer ledger.

    python3 benchmarks/perf/run.py                      # all four, untraced
    python3 benchmarks/perf/run.py --trace              # ... plus the ledger
    python3 benchmarks/perf/run.py --workload storm-flat --seed 3 \
        --seconds 20 --trace 0                          # one run, driver form

With ``--workload`` it runs that workload in this interpreter and prints, as
the last line of stdout, one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Without it, it starts one fresh interpreter per
workload, one after the other, and writes ``out/latest.json``.

The loop is closed (one caller, next operation after the previous returns).
A run is one untimed warm-up at ``--smoke`` size, then repetitions until
``--seconds`` have been measured; each repetition builds its system from
scratch.  Timings are medians over repetitions; AutoTag percentiles pool
the samples of all repetitions.  End-to-end metrics always come from
untraced repetitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Any, Dict, List, Optional

from stopwatch import REFERENCE_CALIBRATION_S, Stopwatch, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

MIN_REPETITIONS = 3
#: share of --seconds a traced run spends on untraced repetitions before
#: the traced unit and the micro-timings
TRACED_RUN_REPETITION_SHARE = 0.4


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds to measure (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two repetitions (contract test)")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json from this run (seed 0)")
    parser.add_argument("--out", default=os.path.join(OUT, "latest.json"),
                        help="where the all-workloads run writes its record")
    args = parser.parse_args(argv)
    if args.repin and (args.seed != 0 or args.smoke):
        parser.error("--repin pins seed 0 at full size only")
    return args


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _git_commit() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None  # the driver's checkout is not a git repository


def context(seed: int, scrubbed: List[str]) -> Dict[str, Any]:
    import sqlite3

    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "loadavg_1min_at_start": os.getloadavg()[0],
        "git_commit": _git_commit(),
        "seed": seed,
        # REPRO_* variables found set (and removed) at start; [] = none was
        "repro_env_scrubbed": scrubbed,
    }


def _percentile(samples: List[float], percent: int) -> float:
    return quantiles(samples, n=100, method="inclusive")[percent - 1]


class Repetition:
    """One repetition, timed off a stopwatch; every time is at the
    reference machine speed (see ``stopwatch.py``), raw wall seconds beside."""

    def __init__(self, workload_class, shape, seed, scratch, checks) -> None:
        watch = Stopwatch()
        workload = workload_class(shape, seed, scratch, checks, watch)
        watch.start()
        workload.setup()
        setup = watch.split()
        workload.load()
        load = watch.split()
        workload.query()
        query = watch.split()
        workload.finish()
        #: dropped once a later repetition exists: only the last one feeds
        #: the counts and the micro-timings
        self.workload = workload
        self.phases = workload.phases
        self.latencies_ms = workload.latencies_ms
        self.exact = workload.exact
        self.raw = {"setup_s": setup.raw_seconds, "load_s": load.raw_seconds,
                    "query_s": query.raw_seconds}
        self.timings = {
            "setup_s": setup.seconds,
            "load_s": load.seconds,
            "query_s": query.seconds,
            "wall_s": load.seconds + query.seconds,
            "cpu_s": load.cpu_seconds + query.cpu_seconds,
            "sim_msgs_per_s": workload.load_messages / load.seconds,
        }


def _slowdown(before: float, after: float) -> float:
    """Machine slowdown between two ``calibrate()`` samples."""
    return (before + after) / 2.0 / REFERENCE_CALIBRATION_S


def _run_unit(workload_class, shape, seed, scratch, checks):
    """One run of the workload's unit: ``(start_ns, end_ns)``, its slowdown
    and its lap labels.  No lap is calibrated inside the unit (a calibration
    would sit in the traced window, covered by no span); the run is
    calibrated around its window instead."""
    watch = Stopwatch(calibrated=False)
    workload = workload_class(shape, seed, scratch, checks, watch)
    workload.prepare_unit()
    before = calibrate()
    watch.start()
    start_ns = time.perf_counter_ns()
    workload.unit()
    end_ns = time.perf_counter_ns()
    return (start_ns, end_ns), _slowdown(before, calibrate()), watch.phases


def traced_unit(workload_class, shape, seed, scratch, name, checks):
    """Time the workload's unit once untraced and once traced: the reduced
    spans, the untraced seconds, the unit's lap labels (both at the
    reference speed) and the traced run's slowdown."""
    import layers
    import spans

    unit = (workload_class, shape, seed, scratch, checks)
    (start_ns, end_ns), slowdown, phases = _run_unit(*unit)
    untraced_s = (end_ns - start_ns) / 1e9 / slowdown
    unit_phases = {key: value / slowdown for key, value in phases.items()}
    gc.collect()

    recorder = spans.Recorder()
    recorder.install(layers.TARGETS)
    try:
        window_ns, slowdown, _ = _run_unit(*unit)
    finally:
        recorder.uninstall()
    recorder.save(os.path.join(OUT, f"trace_{name}.npz"))
    return recorder.reduce(window_ns), untraced_s, unit_phases, slowdown


def per_layer(workload_class, shape, seed, scratch, name, checks, smoke,
              repetitions: List[Repetition]) -> Dict[str, float]:
    import layers
    import micro

    reduced, untraced_s, unit_phases, slowdown = traced_unit(
        workload_class, shape, seed, scratch, name, checks
    )
    last = repetitions[-1].workload
    phases: Dict[str, float] = dict(unit_phases)
    for key in {key for rep in repetitions for key in rep.phases}:
        phases[key] = median(
            rep.phases[key] for rep in repetitions if key in rep.phases
        )
    latencies = [ms for rep in repetitions for ms in rep.latencies_ms]
    if latencies:
        phases["core.autotag_ms_p50"] = _percentile(latencies, 50)
        phases["core.autotag_ms_p95"] = _percentile(latencies, 95)
    if "sim.shard.serial_leg_s" in phases:
        serial = phases["sim.shard.serial_leg_s"]
        phases["sim.shard.coord_overhead_share"] = (
            serial / phases["sim.shard.flat_reference_s"] - 1.0
        )
        # like against like: both legs write the WAL and the stores
        phases["sim.shard.mp_speedup"] = (
            serial / phases["phase.durable_wall_s"]
        )
        phases["sim.shard.worker_peak_rss_mb"] = _rss_mb(
            resource.RUSAGE_CHILDREN
        )
    before = calibrate()
    micro_timings = micro.run(last.micro_inputs(), batches=1 if smoke else 5)
    micro_slowdown = _slowdown(before, calibrate())
    measured = {**phases, **last.counts, **{
        key: value / micro_slowdown for key, value in micro_timings.items()
    }}

    window = reduced.window_s

    def share(*prefixes: str) -> float:
        # threads that wait (the coordinator joining its workers, a worker
        # at the barrier) are not a layer at work
        return sum(
            seconds for span, seconds in reduced.self_s.items()
            if span.startswith(prefixes) and span not in layers.WAIT_SPANS
        ) / window

    measured.update({
        "trace.ml_share": share("ml."),
        "trace.sim_share": share("sim."),
        "trace.p2pclass_core_share": share("p2pclass.", "core."),
        "trace.overhead_share": window / slowdown / untraced_s - 1.0,
        "trace.unattributed_share": reduced.unattributed_share,
        "trace.spans": reduced.spans,
    })
    metrics: Dict[str, float] = {}
    for layer in layers.PER_LAYER:
        if layer.name in measured:
            metrics[layer.name] = measured[layer.name]
        elif layer.source == "T":
            span, reduction = layers.span_metric(layer.name)
            value = getattr(reduced, reduction).get(span, 0)
            metrics[layer.name] = (
                value if reduction == "calls" else value / slowdown
            )
        else:
            metrics[layer.name] = 0  # the workload never enters this layer
    return metrics


def verify_exact(name, args, repetitions, checks) -> Dict[str, Any]:
    """Exact values repeat across repetitions and, on seed 0, match the pins."""
    exact = repetitions[0].exact
    for index, rep in enumerate(repetitions[1:], start=2):
        checks.equal(rep.exact, exact, f"repetition {index} exact values")
    pinned = not args.smoke and args.seed == 0
    if pinned and args.repin:
        pins = {}
        if os.path.exists(EXPECTED):
            with open(EXPECTED, encoding="utf-8") as handle:
                pins = json.load(handle)
        pins[name] = exact
        with open(EXPECTED, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=2, sort_keys=True)
            handle.write("\n")
    elif pinned:
        with open(EXPECTED, encoding="utf-8") as handle:
            checks.equal(exact, json.load(handle).get(name),
                         "seed-0 pins (expected.json; --repin rewrites)")
    return exact


def run_one(args: argparse.Namespace, scrubbed: List[str]) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    import layers
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    record: Dict[str, Any] = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "context": context(args.seed, scrubbed),
    }
    workload_class = WORKLOADS[args.workload]
    scratch = os.path.join(OUT, "scratch", f"{args.workload}.{os.getpid()}")
    shape = workload_class.SMOKE if args.smoke else workload_class.FULL
    record["shape"] = shape

    checks = Checks()
    if args.smoke:
        # the warm-up is this size already; one repetition more would only
        # repeat it, and two are enough to compare exact values
        seconds, minimum = 0.0, 1 if args.trace else 2
    else:
        # warm-up: imports, sqlite, first-call caches; its checks do not count
        Repetition(workload_class, workload_class.SMOKE, args.seed, scratch,
                   Checks())
        minimum = 2 if args.trace else MIN_REPETITIONS
        if args.trace:
            seconds *= TRACED_RUN_REPETITION_SHARE
    records: List[Repetition] = []
    began = time.perf_counter()
    while len(records) < minimum or time.perf_counter() - began < seconds:
        if records:
            records[-1].workload = None
        gc.collect()  # garbage of the previous repetition is not this one's cost
        records.append(Repetition(
            workload_class, shape, args.seed, scratch, checks
        ))
    record["exact"] = verify_exact(args.workload, args, records, checks)
    record["repetitions"] = [
        {**rep.timings, "raw": rep.raw, "phases": rep.phases}
        for rep in records
    ]

    metrics = {
        name: median(rep.timings[name] for rep in records)
        for name in records[0].timings
    }
    units = {metric["name"]: metric["unit"] for metric in declared["end_to_end"]}
    if args.trace:
        metrics = per_layer(
            workload_class, shape, args.seed, scratch, args.workload, checks,
            args.smoke, records,
        )
        units = {layer.name: layer.unit for layer in layers.PER_LAYER}
    else:
        metrics["peak_rss_mb"] = max(
            _rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN)
        )
    shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    record.update(result, failures=checks.failures,
                  measured_seconds=time.perf_counter() - began)
    detail = os.path.join(OUT, f"{args.workload}.trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    print(f"== {args.workload}  seed={args.seed}  "
          f"repetitions={len(records)}  trace={args.trace}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """One fresh interpreter per workload, sequentially; writes ``--out``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    latest: Dict[str, Any] = {"seed": args.seed, "smoke": args.smoke,
                              "workloads": {}}
    status = 0
    for workload in (entry["name"] for entry in declared["workloads"]):
        entry: Dict[str, Any] = {}
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(args.seed),
                       "--trace", str(trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            command += ["--smoke"] * args.smoke + ["--repin"] * args.repin
            code = subprocess.run(command, cwd=ROOT).returncode
            status = status or code
            detail = os.path.join(OUT, f"{workload}.trace{trace}.json")
            if code in (0, 1) and os.path.exists(detail):
                with open(detail, encoding="utf-8") as handle:
                    run = json.load(handle)
                latest.setdefault("context", run["context"])
                entry["per_layer" if trace else "end_to_end"] = {
                    name: metric["value"]
                    for name, metric in run["metrics"].items()
                }
                entry.setdefault("runs", []).append(run)
        latest["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(latest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return status


def _child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included (from /proc)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces and ")"
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone between listdir and open
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The program reaps its own shard workers; what outlives it is
    ``multiprocessing``'s resource tracker, started by the first
    ``SharedMemory`` ring: it ends only when its parent closes the pipe,
    which without this is *after* the benchmark has exited.  Whatever else
    is still a child here (a worker a failed leg left behind) is killed.
    """
    gc.collect()  # a ring released now does not restart the tracker later
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes the pipe, then waitpid
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped by its owner in the meantime


def _terminated(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through main()'s finally


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # every REPRO_* knob at its default: the benchmark measures one program
    scrubbed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    signal.signal(signal.SIGTERM, _terminated)
    try:
        if args.workload is None:
            return run_all(args)
        return run_one(args, scrubbed)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
