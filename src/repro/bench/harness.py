"""End-to-end experiment harness: corpus -> system -> train -> evaluate.

One :class:`ExperimentSetting` fully determines a run (including seeds), so
every number in EXPERIMENTS.md regenerates bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.tagger import EvaluationReport, P2PDocTaggerSystem, SystemConfig
from repro.data.corpus import Corpus
from repro.data.delicious import DeliciousGenerator


def standard_corpus(
    num_users: int = 12,
    seed: int = 0,
    num_tags: int = 8,
    docs_per_user: int = 16,
    interest_concentration: float = 0.5,
) -> Corpus:
    """The shared benchmark corpus: Delicious-like, modest size.

    The paper's demonstration range (50-200 documents/user, 500+ peers) is
    exercised by ``examples/large_network.py``; benchmarks use a scaled-down
    corpus so the full table regenerates in seconds while preserving the
    comparative shape.
    """
    return DeliciousGenerator(
        num_users=num_users,
        seed=seed,
        num_tags=num_tags,
        docs_per_user_range=(docs_per_user, docs_per_user),
        vocabulary_size=600,
        topic_words_per_tag=35,
        doc_length_range=(30, 70),
        interest_concentration=interest_concentration,
    ).generate()


@dataclass
class ExperimentSetting:
    """Everything one experiment run depends on."""

    algorithm: str = "pace"
    num_users: int = 12
    num_tags: int = 8
    docs_per_user: int = 16
    interest_concentration: float = 0.5
    overlay: str = "chord"
    churn: str = "none"
    codec: str = "identity"
    mean_session: float = 600.0
    mean_downtime: float = 60.0
    train_fraction: float = 0.2
    threshold: float = 0.5
    max_eval_documents: Optional[int] = 60
    seed: int = 0
    algorithm_options: dict = field(default_factory=dict)

    def label(self) -> str:
        return (
            f"{self.algorithm}/N={self.num_users}/churn={self.churn}/"
            f"seed={self.seed}"
        )


@dataclass
class ExperimentResult:
    """One row of an experiment table."""

    setting: ExperimentSetting
    report: EvaluationReport

    @property
    def micro_f1(self) -> float:
        return self.report.metrics.micro_f1

    @property
    def macro_f1(self) -> float:
        return self.report.metrics.macro_f1

    @property
    def hamming(self) -> float:
        return self.report.metrics.hamming_loss

    @property
    def total_bytes(self) -> int:
        return self.report.total_bytes

    @property
    def total_messages(self) -> int:
        return self.report.total_messages


def run_experiment(setting: ExperimentSetting) -> ExperimentResult:
    """Generate the corpus, build and train the system, evaluate, report."""
    system = build_system(setting)
    system.train()
    report = system.evaluate(max_documents=setting.max_eval_documents)
    return ExperimentResult(setting=setting, report=report)


def build_system(setting: ExperimentSetting) -> P2PDocTaggerSystem:
    """System construction only (for benchmarks that measure phases)."""
    corpus = standard_corpus(
        num_users=setting.num_users,
        seed=setting.seed,
        num_tags=setting.num_tags,
        docs_per_user=setting.docs_per_user,
        interest_concentration=setting.interest_concentration,
    )
    return P2PDocTaggerSystem(
        corpus,
        SystemConfig(
            algorithm=setting.algorithm,
            overlay=setting.overlay,
            churn=setting.churn,
            codec=setting.codec,
            mean_session=setting.mean_session,
            mean_downtime=setting.mean_downtime,
            train_fraction=setting.train_fraction,
            threshold=setting.threshold,
            seed=setting.seed,
            algorithm_options=dict(setting.algorithm_options),
        ),
    )
