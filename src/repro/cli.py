"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

- ``corpus``   — generate a synthetic Delicious-like corpus to JSONL;
- ``run``      — train + evaluate one algorithm on a corpus (generated or
  loaded) and print the evaluation report;
- ``compare``  — run several algorithms on the same corpus and print the
  comparison table;
- ``suggest``  — train, then print the Suggestion Cloud for the first few
  held-out documents (the Fig. 3 interaction, in a terminal);
- ``overlay``  — build an overlay at a given size and print routing and
  connectivity statistics;
- ``analyze``  — run canned window-function analytics (or raw SQL) against
  a trace store written by :class:`repro.sim.tracestore.TraceStore`.

All commands accept ``--seed`` and are fully reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench import format_table
from repro.core.tagger import ALGORITHMS, P2PDocTaggerSystem, SystemConfig
from repro.data.delicious import DeliciousGenerator
from repro.data.loaders import load_corpus, save_corpus
from repro.errors import ConfigurationError, ReproError


def _corpus_from_args(args: argparse.Namespace):
    if getattr(args, "load", None):
        return load_corpus(args.load)
    return DeliciousGenerator(
        num_users=args.users,
        seed=args.seed,
        num_tags=args.tags,
        docs_per_user_range=(args.docs, args.docs),
    ).generate()


def _add_corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=12, help="number of users")
    parser.add_argument("--docs", type=int, default=40, help="documents per user")
    parser.add_argument("--tags", type=int, default=10, help="tag universe size")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--load", type=str, default=None, help="load a JSONL corpus instead"
    )


def cmd_corpus(args: argparse.Namespace) -> int:
    corpus = DeliciousGenerator(
        num_users=args.users,
        seed=args.seed,
        num_tags=args.tags,
        docs_per_user_range=(args.docs, args.docs),
    ).generate()
    count = save_corpus(corpus, args.output)
    print(f"wrote {count} documents to {args.output}")
    print(corpus.summary())
    return 0


def _build_system(args: argparse.Namespace, algorithm: str) -> P2PDocTaggerSystem:
    corpus = _corpus_from_args(args)
    return P2PDocTaggerSystem(
        corpus,
        SystemConfig(
            algorithm=algorithm,
            overlay=args.overlay,
            churn=args.churn,
            codec=args.codec,
            train_fraction=args.train_fraction,
            threshold=args.threshold,
            seed=args.seed,
        ),
    )


def _overlay_choices() -> tuple:
    from repro.overlay import overlay_names

    return overlay_names()


def _codec_choices() -> tuple:
    from repro.sim.codec import codec_names

    return codec_names()


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--overlay", choices=_overlay_choices(), default="chord",
    )
    parser.add_argument(
        "--churn", choices=("none", "exponential", "weibull", "pareto"),
        default="none",
    )
    parser.add_argument(
        "--codec", choices=_codec_choices(), default="identity",
        help="wire-format codec table for traffic accounting",
    )
    parser.add_argument("--train-fraction", type=float, default=0.2)
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--max-eval", type=int, default=80)


def cmd_run(args: argparse.Namespace) -> int:
    system = _build_system(args, args.algorithm)
    system.train()
    if args.tune_thresholds:
        system.tune_thresholds()
    report = system.evaluate(max_documents=args.max_eval)
    print(report.summary())
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a window range from a simulation WAL in isolation."""
    from repro.sim.wal import WalReader, replay_windows

    reader = WalReader(args.path)
    status = "committed" if reader.commit is not None else (
        "torn tail discarded" if reader.truncated else "open"
    )
    print(
        f"[wal] {args.path}: shards={reader.num_shards} "
        f"lookahead={reader.lookahead:.4f}s windows={len(reader.windows)} "
        f"({status})"
    )
    stop = args.to_window
    total_deliveries = 0
    for window in replay_windows(args.path, start=args.from_window, stop=stop):
        total_deliveries += len(window.deliveries)
        print(
            f"window {window.barrier}: start={window.window_start:.4f} "
            f"deliveries={len(window.deliveries)} "
            f"control={len(window.control)} "
            f"executed_total={window.total_executed}"
        )
        if args.records:
            for (time, src, dst, msg_type, size, wire, hops) in (
                window.deliveries
            ):
                print(
                    f"  t={time:.6f} {msg_type} {src}->{dst} "
                    f"{size}B/{wire}B hops={hops}"
                )
            for record in window.control:
                print(f"  control t={record[0]:.6f} {record[1]}")
    print(f"[wal] replayed {total_deliveries} cross-shard deliveries")
    if reader.commit is not None:
        print(
            f"[wal] commit: digest={reader.commit['digest'][:16]}… "
            f"now={reader.commit['now']:.6f} "
            f"windows={reader.commit['windows']}"
        )
    return 0


_ANALYZE_REPORTS = ("summary", "traffic", "peers", "routes", "churn", "codec")

_ANALYZE_TITLES = {
    "summary": "Store summary",
    "traffic": "Traffic by message type",
    "peers": "Per-peer sent-traffic percentiles",
    "routes": "Route length distribution over time",
    "churn": "Churn-phase breakdown by window",
    "codec": "Raw vs wire bytes by traffic class",
}


def cmd_analyze(args: argparse.Namespace) -> int:
    """Query a trace store: canned analytics or passthrough SQL."""
    from pathlib import Path

    from repro.sim.tracestore import TraceStore

    if not Path(args.path).exists():
        # Opening would create an empty store — catch the typo instead.
        raise ConfigurationError(f"no trace store at {args.path}")
    with TraceStore(args.path) as store:
        if args.sql:
            headers, rows = store.sql(args.sql)
            print(format_table("SQL", list(headers), [list(r) for r in rows]))
            return 0
        reports = args.report or ["summary", "traffic"]
        for name in reports:
            if name == "routes":
                headers, rows = store.report_routes(args.bucket)
            elif name == "summary":
                headers, rows = store.summary()
            else:
                headers, rows = getattr(store, f"report_{name}")()
            print(
                format_table(
                    _ANALYZE_TITLES[name], list(headers),
                    [list(r) for r in rows],
                )
            )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    algorithms = args.algorithms or list(ALGORITHMS)
    rows = []
    for algorithm in algorithms:
        system = _build_system(args, algorithm)
        system.train()
        report = system.evaluate(max_documents=args.max_eval)
        rows.append(
            [
                algorithm,
                report.metrics.micro_f1,
                report.metrics.macro_f1,
                report.total_messages,
                report.total_bytes,
            ]
        )
    print(
        format_table(
            "Algorithm comparison",
            ["algorithm", "microF1", "macroF1", "messages", "bytes"],
            rows,
        )
    )
    return 0


def cmd_suggest(args: argparse.Namespace) -> int:
    system = _build_system(args, args.algorithm)
    system.train()
    for document in system.test_corpus.documents[: args.count]:
        peer = system.peer_of(document)
        suggestions = peer.suggest_tags(
            document, confidence_threshold=args.confidence
        )
        rendered = "  ".join(s.render() for s in suggestions)
        print(f"doc {document.doc_id} (true: {', '.join(sorted(document.tags))})")
        print(f"  {rendered}")
    return 0


def cmd_overlay(args: argparse.Namespace) -> int:
    import statistics

    from repro.overlay import make_overlay
    from repro.overlay.idspace import key_id_for
    from repro.sim.visualize import ascii_summary

    if args.size < 1:
        raise ConfigurationError(f"--size must be >= 1, got {args.size}")
    overlay = make_overlay(args.type, seed=args.seed, degree=4)
    for address in range(args.size):
        overlay.join(address)
    overlay.stabilize()
    print(ascii_summary(overlay))
    results = [
        overlay.route(i % args.size, key_id_for(f"key{i}")) for i in range(100)
    ]
    hops = [r.hops for r in results]
    success = sum(r.success for r in results)
    print(
        f"lookups: mean hops {statistics.mean(hops):.2f}, "
        f"max {max(hops)}, success {success}/100"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="P2PDocTagger command-line interface"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_corpus = subparsers.add_parser(
        "corpus", help="generate a synthetic corpus to JSONL"
    )
    p_corpus.add_argument("output", help="output JSONL path")
    p_corpus.add_argument("--users", type=int, default=12)
    p_corpus.add_argument("--docs", type=int, default=40)
    p_corpus.add_argument("--tags", type=int, default=10)
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.set_defaults(func=cmd_corpus)

    p_run = subparsers.add_parser("run", help="train + evaluate one algorithm")
    p_run.add_argument(
        "--algorithm", choices=ALGORITHMS, default="pace"
    )
    p_run.add_argument(
        "--tune-thresholds", action="store_true",
        help="use per-tag F1-optimal thresholds",
    )
    _add_corpus_options(p_run)
    _add_system_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_compare = subparsers.add_parser(
        "compare", help="compare algorithms on one corpus"
    )
    p_compare.add_argument(
        "--algorithms", nargs="*", choices=ALGORITHMS, default=None
    )
    _add_corpus_options(p_compare)
    _add_system_options(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_suggest = subparsers.add_parser(
        "suggest", help="print Suggestion Clouds for held-out documents"
    )
    p_suggest.add_argument(
        "--algorithm", choices=ALGORITHMS, default="cempar"
    )
    p_suggest.add_argument("--count", type=int, default=3)
    p_suggest.add_argument("--confidence", type=float, default=0.3)
    _add_corpus_options(p_suggest)
    _add_system_options(p_suggest)
    p_suggest.set_defaults(func=cmd_suggest)

    p_replay = subparsers.add_parser(
        "replay",
        help="re-execute a window range from a simulation WAL "
        "(time-travel debugging)",
    )
    p_replay.add_argument("path", help="write-ahead log file")
    p_replay.add_argument(
        "--from", type=int, default=0, dest="from_window",
        help="first window to replay (default 0)",
    )
    p_replay.add_argument(
        "--to", type=int, default=None, dest="to_window",
        help="stop before this window (default: end of log)",
    )
    p_replay.add_argument(
        "--records", action="store_true",
        help="print every re-executed delivery and control record",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_analyze = subparsers.add_parser(
        "analyze",
        help="query a trace store: canned window-function analytics "
        "(traffic, peers, routes, churn, codec) or raw SQL",
    )
    p_analyze.add_argument("path", help="trace store file (sqlite)")
    p_analyze.add_argument(
        "--report", action="append", choices=_ANALYZE_REPORTS, default=None,
        help="canned report to print (repeatable; default: summary, traffic)",
    )
    p_analyze.add_argument(
        "--bucket", type=float, default=1.0,
        help="virtual-time bucket width for --report routes",
    )
    p_analyze.add_argument(
        "--sql", default=None, metavar="QUERY",
        help="run one SQL query against the store instead of canned reports",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_overlay = subparsers.add_parser(
        "overlay", help="build an overlay and report routing statistics"
    )
    p_overlay.add_argument(
        "--type", choices=_overlay_choices(), default="chord",
    )
    p_overlay.add_argument("--size", type=int, default=64)
    p_overlay.add_argument("--seed", type=int, default=0)
    p_overlay.set_defaults(func=cmd_overlay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A user error (a bad option mix, a missing or damaged log): one
        # line on stderr and status 2, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
