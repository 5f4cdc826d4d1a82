#!/usr/bin/env python3
"""P2PDMT showcase: churn models, overlay topologies, data distributions.

The paper demonstrates "how to setup these different simulation
environments for realistic P2P data mining simulations" — this example
sweeps the same knobs: churn model and rate, overlay topology, and the
size/class distribution of training data, reporting tagging accuracy and
network behaviour for each.

Run:  python examples/churn_study.py
"""

from repro.bench.reporting import format_table
from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
from repro.data import DeliciousGenerator
from repro.sim.visualize import ascii_summary, connectivity_report

SEED = 1


def make_system(algorithm: str, interest_concentration: float = 0.5,
                 **config) -> P2PDocTaggerSystem:
    corpus = DeliciousGenerator(
        num_users=10,
        seed=SEED,
        num_tags=8,
        docs_per_user_range=(30, 30),
        vocabulary_size=600,
        topic_words_per_tag=35,
        doc_length_range=(30, 70),
        interest_concentration=interest_concentration,
    ).generate()
    return P2PDocTaggerSystem(
        corpus,
        SystemConfig(
            algorithm=algorithm, train_fraction=0.2, seed=SEED, **config
        ),
    )


def churn_sweep() -> None:
    rows = []
    for churn, session in (
        ("none", 0.0),
        ("exponential", 900.0),
        ("exponential", 300.0),
        ("weibull", 300.0),
        ("pareto", 300.0),
    ):
        system = make_system(
            "cempar",
            churn=churn,
            mean_session=session or 600.0,
            mean_downtime=60.0,
        )
        system.train()
        report = system.evaluate(max_documents=40)
        counters = system.scenario.stats.counters
        rows.append(
            [
                churn,
                f"{session:.0f}" if session else "-",
                report.metrics.micro_f1,
                counters.get("churn_leaves", 0),
                counters.get("cempar_upload_skipped", 0),
                counters.get("stabilize_rounds", 0),
            ]
        )
    print(
        format_table(
            "Churn model sweep (CEMPaR over Chord)",
            ["churn", "mean_session", "microF1", "leaves", "lost_uploads",
             "stabilizations"],
            rows,
        )
    )


def overlay_sweep() -> None:
    rows = []
    for overlay in ("chord", "kademlia", "unstructured"):
        system = make_system("pace", overlay=overlay)
        system.train()
        report = system.evaluate(max_documents=40)
        connectivity = connectivity_report(system.scenario.overlay)
        rows.append(
            [
                overlay,
                report.metrics.micro_f1,
                report.total_messages,
                int(connectivity["components"]),
            ]
        )
    print(
        format_table(
            "Overlay topology sweep (PACE propagation)",
            ["overlay", "microF1", "messages", "components"],
            rows,
        )
    )


def distribution_sweep() -> None:
    rows = []
    for label, concentration in (("iid-ish", 50.0), ("moderate", 0.5),
                                 ("sharp", 0.1)):
        for algorithm in ("cempar", "local"):
            system = make_system(
                algorithm, interest_concentration=concentration
            )
            system.train()
            report = system.evaluate(max_documents=40)
            rows.append([label, algorithm, report.metrics.micro_f1,
                         report.metrics.macro_f1])
    print(
        format_table(
            "Class-distribution sweep: collaboration vs isolation",
            ["user_skew", "algorithm", "microF1", "macroF1"],
            rows,
        )
    )


def show_one_overlay() -> None:
    system = make_system("local")
    print("Overlay summary for the scenario network:")
    print(ascii_summary(system.scenario.overlay))
    print()


def main() -> None:
    show_one_overlay()
    churn_sweep()
    overlay_sweep()
    distribution_sweep()


if __name__ == "__main__":
    main()
