"""Every numeric field of every config refuses an edge value by name, or
admits it and a bounded run over the config finishes with finite scores.

The configs and their numeric fields are discovered, not listed: a config
dataclass is one under ``src/repro`` whose name ends in ``Config`` or
``Spec``, or one that declares a constraint (``repro.constraints``).  Each
has a smoke run in :data:`SMOKES`: a ``train()`` at the
``tests/test_classifiers.py`` fixture size, a ``Scenario`` run, a
``DataDistributor``, a tiny ``generate()`` or a ``QueryWorkload``.
"""

import dataclasses
import functools
import importlib
import math
import pkgutil
import signal
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.centralized import CentralizedConfig, CentralizedTagger
from repro.baselines.localonly import LocalOnlyConfig, LocalOnlyTagger
from repro.constraints import below, constraints_of
from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
from repro.data.delicious import DeliciousGenerator, GeneratorConfig
from repro.data.splits import per_user_split
from repro.errors import ReproError
from repro.p2pclass.base import corpus_to_peer_data
from repro.p2pclass.cempar import CemparClassifier, CemparConfig
from repro.p2pclass.nbagg import NBAggClassifier, NBAggConfig
from repro.p2pclass.pace import PaceClassifier, PaceConfig
from repro.p2pclass.private import PrivatePaceClassifier, PrivatePaceConfig
from repro.sim.distribution import DataDistributor, ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.workload import QueryWorkload, WorkloadConfig
from repro.text.vectorizer import PreprocessingPipeline

EDGE_VALUES = (math.nan, math.inf, -math.inf, -1, 0, 2.5, 2 ** 63)

#: a smoke run that takes longer than this is a hang
SMOKE_SECONDS = 20


@functools.lru_cache(maxsize=None)
def config_classes():
    """Every config dataclass defined under ``src/repro``, by name."""
    found = {}
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        for value in vars(importlib.import_module(module.name)).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.name
                and (
                    value.__name__.endswith(("Config", "Spec"))
                    or any(map(constraints_of, dataclasses.fields(value)))
                )
            ):
                found[value.__name__] = value
    return found


def _numeric(annotation):
    if annotation in (int, float):
        return True
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) in (tuple, typing.Union):
        return bool(args) and all(
            arg in (int, float, type(None), Ellipsis) for arg in args
        ) and any(arg in (int, float) for arg in args)
    return False


def numeric_fields(cls):
    """The fields of ``cls`` annotated ``int`` or ``float``, optionally, or
    as a tuple of them (a ``(lo, hi)`` range)."""
    hints = typing.get_type_hints(cls)
    return [f for f in dataclasses.fields(cls) if _numeric(hints[f.name])]


# -- smoke runs ---------------------------------------------------------------

NUM_PEERS = 6


@functools.lru_cache(maxsize=None)
def _corpus():
    """The ``tests/test_classifiers.py`` fixture corpus."""
    return DeliciousGenerator(
        num_users=NUM_PEERS, seed=0, num_tags=6, docs_per_user_range=(14, 18),
        vocabulary_size=400, topic_words_per_tag=30, doc_length_range=(30, 60),
    ).generate()


@functools.lru_cache(maxsize=None)
def _setting():
    train, test = per_user_split(_corpus(), train_fraction=0.35, seed=0)
    pipeline = PreprocessingPipeline(dimension=2 ** 16)
    probes = [(pipeline.process(d.text), d.owner) for d in test.documents[:12]]
    return corpus_to_peer_data(train, pipeline), probes, _corpus().tag_universe()


def _scenario():
    return Scenario(
        ScenarioConfig(num_peers=NUM_PEERS, shard=ShardSpec(num_peers=NUM_PEERS))
    )


def _classifier_smoke(classifier_class):
    def run(config):
        peer_data, probes, tags = _setting()
        classifier = classifier_class(_scenario(), peer_data, tags, config)
        classifier.train()
        scores = [
            score for vector, owner in probes
            for score in classifier.predict_scores(owner, vector).values()
        ]
        # a model that scores every tag of every probe alike learned nothing
        assert len(set(scores)) > 1, f"every score is {scores[0]}"
        return scores
    return run


def _scenario_smoke(config):
    scenario = Scenario(config)
    scenario.start_churn()
    scenario.run(duration=60.0)
    return [scenario.simulator.now, float(scenario.stats.total_bytes)]


def _distribute_smoke(spec):
    corpus = DataDistributor(spec).distribute(_corpus())
    return [float(len(corpus.owners))]


def _generate_smoke(config):
    corpus = DeliciousGenerator(config=config).generate()
    return [float(len(corpus))]


def _workload_smoke(config):
    events = QueryWorkload(config).generate()
    return [float(len(events))] + [event.time for event in events]


def _system_smoke(config):
    system = P2PDocTaggerSystem(_corpus(), config)
    system.train()
    report = system.evaluate(max_documents=12)
    return [report.metrics.micro_f1, report.metrics.macro_f1] + [
        score for document in system.test_corpus.documents[:12]
        for score in system.predict_scores(
            system.peer_of(document).owner, document
        ).values()
    ]


def _pipeline_smoke(pipeline):
    return list(pipeline.process(_corpus().documents[0].text).values())


#: config name -> (its settings beside the field under test, its smoke run)
SMOKES = {
    "ScenarioConfig": (
        dict(num_peers=4, shard=ShardSpec(num_peers=4), churn="exponential",
             overlay="unstructured"),
        _scenario_smoke,
    ),
    "ShardSpec": (dict(num_peers=NUM_PEERS), _distribute_smoke),
    "WorkloadConfig": (dict(peers=[0, 1]), _workload_smoke),
    "GeneratorConfig": (
        dict(num_users=2, num_tags=4, docs_per_user_range=(2, 3),
             vocabulary_size=200, topic_words_per_tag=10,
             doc_length_range=(5, 10), num_tag_groups=2),
        _generate_smoke,
    ),
    "SystemConfig": (dict(algorithm="local"), _system_smoke),
    "PaceConfig": ({}, _classifier_smoke(PaceClassifier)),
    "PrivatePaceConfig": ({}, _classifier_smoke(PrivatePaceClassifier)),
    "CemparConfig": ({}, _classifier_smoke(CemparClassifier)),
    "NBAggConfig": ({}, _classifier_smoke(NBAggClassifier)),
    "CentralizedConfig": ({}, _classifier_smoke(CentralizedTagger)),
    "LocalOnlyConfig": ({}, _classifier_smoke(LocalOnlyTagger)),
    "PreprocessingPipeline": ({}, _pipeline_smoke),
}

CASES = [
    (name, field.name)
    for name, cls in sorted(config_classes().items())
    for field in numeric_fields(cls)
]


def test_every_config_has_a_smoke_run_and_the_fields_were_found():
    assert set(SMOKES) == set(config_classes())
    assert len(CASES) >= 70


class _Hang(Exception):
    pass


def _alarm(signum, frame):
    raise _Hang(f"the smoke run took over {SMOKE_SECONDS} s")


def _outcome(name, field, value):
    """Refused naming ``field``; else admitted by its declaration and the
    smoke run finished with finite scores."""
    cls = config_classes()[name]
    base, smoke = SMOKES[name]
    declared = constraints_of(cls.__dataclass_fields__[field])
    if typing.get_origin(typing.get_type_hints(cls)[field]) is tuple:
        value = (value, value)  # both ends of a (lo, hi) range
    overrides = {**base, field: value}
    if name == "ScenarioConfig" and field == "num_peers":
        overrides["shard"] = ShardSpec(num_peers=value)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(SMOKE_SECONDS)
    try:
        config = cls(**overrides)
        scores = smoke(config)
    except ReproError as error:
        assert field in str(error), f"{name}.{field}={value!r}: {error}"
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert all(c.admits(v) for c in declared for v in (
        value if isinstance(value, tuple) else (value,)
    )), f"{name}.{field}={value!r} ran though its declaration refuses it"
    assert scores and all(math.isfinite(score) for score in scores), (
        f"{name}.{field}={value!r}: non-finite scores"
    )


@pytest.mark.parametrize("name, field", CASES, ids=[f"{n}.{f}" for n, f in CASES])
# seven values to sample from: hypothesis runs each once, then stops
@settings(
    max_examples=len(EDGE_VALUES), database=None, deadline=None,
    derandomize=True, suppress_health_check=list(HealthCheck),
)
@given(value=st.sampled_from(EDGE_VALUES))
def test_an_edge_value_is_refused_by_name_or_runs_to_finite_scores(
    name, field, value
):
    _outcome(name, field, value)


@pytest.mark.parametrize("value", (1.0, 0.0, 1.5, math.nan), ids=str)
def test_train_fraction_is_refused_where_it_is_declared_and_where_it_is_used(
    value
):
    """A split that trains on every document leaves nothing to tag: the
    config refuses ``train_fraction=1.0`` by name, as the split does, from
    the one declared constraint."""
    from repro.errors import ConfigurationError, DataError

    with pytest.raises(ConfigurationError, match="train_fraction must be"):
        SystemConfig(train_fraction=value).validate()
    with pytest.raises(DataError, match="train_fraction must be"):
        per_user_split(_corpus(), train_fraction=value)
    SystemConfig(train_fraction=0.999).validate()


@pytest.mark.parametrize("value,admitted", [
    (0.999, True), (-3, True), (1, False), (1.0, False), (1.5, False),
    (math.inf, False), (math.nan, False), (True, False),
], ids=str)
def test_below_admits_only_numbers_under_its_bound(value, admitted):
    """``below(1)`` is exclusive; NaN is under no bound, and a bool is no
    number."""
    assert below(1).admits(value) is admitted
