"""Repo-hygiene ratchets: things a fresh clone and a reviewer rely on.

(a) ``benchmarks/`` tracks ``benchmarks/perf/`` and nothing else — the one
perf harness; a paper claim is a tier-1 test listed in ``docs/CLAIMS.md``,
not a script beside it that nothing runs.

(b) The runtime ``REPRO_*`` env knobs under ``src/`` are exactly the list
below — a new knob cannot arrive without editing it — and the ``REPRO_*``
names CI sets in ``env:`` blocks are exactly the test-tier flags.

(c) Every third-party module imported under ``tests/`` or ``src/`` —
function-level imports included — is installed by every CI job that runs
anything under ``tests/``: an import the runner lacks stops collection at
the first suite that needs it, or fails the first test that reaches it.

(d) Nothing under ``src/`` outside ``ml/sparse.py`` assigns to, or through,
a ``SparseVector``'s ``_data`` / ``_squared_norm`` — the cached norm is only
right while vectors are immutable.

(e) Nothing under ``repro/sim/`` or ``repro/overlay/`` imports ``repro.ml``
— it is why the two storm workloads of the repo benchmark cannot move when
the ml layer changes.

(f) ``import repro.cli`` does not load ``networkx`` — every tcp shard worker
is ``python -m repro.cli worker`` and pays that import on each (re)spawn.

(g) Every ``executemany(`` in ``repro/sim/tracestore.py`` sits inside a
``with ..._transaction():`` block — the connection is in autocommit mode,
so an unbracketed ``executemany`` commits once per row.

(h) The send core is written once.  In ``repro/sim/network.py`` the charge
(``record_message*``) and the observation (``_notify``) are called from
``PhysicalNetwork.send`` and ``_send_block`` only, and the kernel's
``schedule*`` from ``send`` and ``_schedule_block`` only; ``ShardNetwork``
defines ``__init__``, ``_owns`` and ``_schedule_block``, names the base's
three entry points as its own attributes (``benchmarks/perf`` wraps them
through the class ``__dict__``) and never charges or observes;
``Transport.broadcast`` builds no ``Message`` and takes no second path.  A
second copy of any of these is how the flat and sharded networks drifted
apart before.

(i) Every ``tests/...py::name`` id that ``docs/CLAIMS.md`` names resolves to
a function or class defined in that file, and every test of
``tests/test_claims.py`` is named there — the index of the paper's claims
cannot point at a test that was renamed away, nor a claim test exist
without its row.

(j) ``repro.bench`` exports the two table formatters and nothing else.

(k) Nothing under ``src/repro`` tests membership with ``x in
….members()`` — that builds an N-element list per test; ``x in overlay`` is
one dict lookup.  The single exception is the base class's own default
``Overlay.__contains__``, which every overlay here overrides.

(l) ``ChordOverlay``'s state slots are exactly the six tables: the reach
index is derived from them and is never exported, diffed or logged.  And
``route`` / ``stabilize`` stay methods defined on ``ChordOverlay`` itself in
``repro.overlay.chord``: ``benchmarks/perf/layers.TARGETS`` wraps them
through the class ``__dict__``, so moving either blinds the ledger's
``overlay.*`` rows without failing anything else.

(m) The array kernels declare the plain left-to-right sum their contract,
so neither they (``gram_matrix``, ``KernelSVM.fit``, ``LinearSVM.fit``,
``RowTable.dots``, PACE's ``predict_scores`` and its prediction block), nor
the three ``SparseVector`` sums every digest hangs on (``dot``,
``dot_dense``, ``squared_norm``), nor their oracles in
``tests/reference/ml_scalar.py`` call the builtin ``sum`` — CPython >= 3.12
compensates it, and an oracle written with it would agree with the kernels
on one interpreter and not on the next.

(n) The local-column packing loop (``columns.setdefault(feature_id,
len(columns))``) is written once under ``src/repro/ml`` — ``pack_rows`` —
however many kernels pack a block.

(o) ``PaceModelBundle`` has exactly the five wire fields: whatever a sender
computes about its bundle (its centroids' bucket keys) does not ride on it.

(p) The worker half of the window protocol is written once.  Under
``src/repro/sim`` there is one ``def sync`` and it lives in ``barrier.py``;
``SyncStatus(`` is constructed at one call site and ``encode_outbound_blobs(``
called from one function (that ``sync``); there is no ``_Decision`` class and
``Verdict`` is a class, not a tuple alias; the three executors' endpoints
define a wire (``_send``, ``_recv``; mp also ``_route``, ``_frame``) and
nothing else of the protocol; ``_ThreadChannel`` names the endpoint's
``sync`` as its own attribute (``benchmarks/perf`` wraps it through the
class ``__dict__``); and ``tcpexec.py`` re-inflates no status
(``SyncStatus(*``) and reaches into ``repro.sim.shard`` for ``_run_worker``
only.  Three copies of ``sync`` is how the executors' envelopes drifted apart
before.

(q) PACE predicts from its block.  ``PaceClassifier.predict_scores`` calls
no ``.decision(`` and no ``.probability(`` — one per model is the loop the
block replaced — the block's table is built from ``pack_rows``, and for 60
bundles its arrays stay within ``2 * rows * columns + 24 * stored entries``
bytes: a float64 ``rows x columns`` table is the same kernel at +10% peak
RSS on ``tag-pace-churn``, over the benchmark's bound.

(r) The support-vector kernel is written once and CEMPaR scores its
regional models as one block.  ``ml/kernel_svm.py`` calls ``bincount``
once — in ``PackedSupport.decisions`` — and ``KernelSVMModel.decision`` is
a call of that; neither ``predict_scores`` nor ``_scores_held_by`` in
``p2pclass/cempar.py`` calls ``.decision(`` or ``.probability(`` — one per
model is the loop the block replaced.
"""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNTIME_KNOBS = {
    "REPRO_EXCHANGE_TIMEOUT_S",
    "REPRO_WAL_CURSORS_EVERY",
    "REPRO_TCP_TIMEOUT_S",
    "REPRO_TCP_RETRIES",
    "REPRO_TCP_MAX_RESPAWNS",
}

TIER_FLAGS = {
    "REPRO_LARGE_GOLDEN",
    "REPRO_CHAOS_FULL",
    "REPRO_SHARD_MP_FULL",
    "REPRO_SHARD_TCP_FULL",
    "REPRO_WAL_FUZZ",
}

WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def test_benchmarks_tracks_only_the_perf_harness():
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    tracked = subprocess.run(
        ["git", "ls-files", "benchmarks"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert tracked  # the listing works
    strays = [p for p in tracked if not p.startswith("benchmarks/perf/")]
    assert not strays, strays


def test_runtime_env_knobs_are_exactly_the_listed_ones():
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        found.update(
            re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8"))
        )
    assert found == RUNTIME_KNOBS, (
        f"unlisted: {sorted(found - RUNTIME_KNOBS)}, "
        f"gone: {sorted(RUNTIME_KNOBS - found)}"
    )


def test_ci_sets_exactly_the_test_tier_flags():
    set_in_ci = set(re.findall(
        r"(?m)^\s+(REPRO_[A-Z_]+):", WORKFLOW.read_text(encoding="utf-8")
    ))
    assert set_in_ci == TIER_FLAGS, (
        f"unlisted: {sorted(set_in_ci - TIER_FLAGS)}, "
        f"never set: {sorted(TIER_FLAGS - set_in_ci)}"
    )


_VECTOR_STATE = {"_data", "_squared_norm"}


def _vector_state_writes(text):
    """Line numbers in ``text`` that assign, augment, delete or
    item-assign an attribute named like ``SparseVector``'s state."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Subscript):
            target, ctx = node.value, node.ctx
        else:
            target, ctx = node, getattr(node, "ctx", None)
        if (
            isinstance(target, ast.Attribute)
            and target.attr in _VECTOR_STATE
            and isinstance(ctx, (ast.Store, ast.Del))
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_sparse_vector_state_is_written_only_in_its_own_module():
    assert _vector_state_writes(
        "v._data = {}\nv._data[3] = 1.0\ndel v._data[3]\n"
        "v._squared_norm += 1\nx = v._data.get(3)\n"
    ) == [1, 2, 3, 4]  # the scanner sees writes, not reads
    own = ROOT / "src" / "repro" / "ml" / "sparse.py"
    assert _vector_state_writes(own.read_text(encoding="utf-8"))
    offenders = {
        str(path.relative_to(ROOT)): lines
        for path in (ROOT / "src").rglob("*.py") if path != own
        if (lines := _vector_state_writes(path.read_text(encoding="utf-8")))
    }
    assert not offenders, f"SparseVector state written outside sparse.py: {offenders}"


def _imported_modules(text):
    """Absolute module names ``text`` imports (``from a.b import c`` counts
    as ``a.b`` and ``a.b.c``)."""
    modules = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_sim_and_overlay_do_not_import_ml():
    assert "repro.ml" in _imported_modules("from repro import ml\n")
    assert "repro.ml.sparse" in _imported_modules(
        "def f():\n    from repro.ml.sparse import SparseVector\n"
    )
    scanned = 0
    for package in ("sim", "overlay"):
        for path in (ROOT / "src" / "repro" / package).rglob("*.py"):
            scanned += 1
            uses = {
                name for name in _imported_modules(path.read_text(encoding="utf-8"))
                if name == "repro.ml" or name.startswith("repro.ml.")
            }
            assert not uses, f"{path.relative_to(ROOT)} imports {sorted(uses)}"
    assert scanned >= 20  # both packages were found


def test_importing_the_cli_does_not_load_networkx():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + [
                entry for entry in [os.environ.get("PYTHONPATH")] if entry
            ]
        )},
    )
    assert probe.stdout.strip() == "False"


def _unbracketed_executemany(text):
    """Line numbers of ``.executemany(`` calls in ``text`` that are not
    lexically inside a ``with <something>._transaction():`` block."""

    def is_bracket(item):
        call = item.context_expr
        return (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "_transaction"
        )

    lines = []

    def visit(node, bracketed):
        if isinstance(node, ast.With) and any(map(is_bracket, node.items)):
            bracketed = True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "executemany"
            and not bracketed
        ):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, bracketed)

    visit(ast.parse(text), False)
    return lines


def test_trace_store_bulk_writes_are_bracketed_by_a_transaction():
    assert _unbracketed_executemany(
        "conn.executemany(q, rows)\n"
        "with store._transaction():\n"
        "    conn.executemany(q, rows)\n"
        "    if rows:\n"
        "        conn.executemany(q, rows)\n"
        "with open(p) as f:\n"
        "    conn.executemany(q, rows)\n"
    ) == [1, 7]
    text = (ROOT / "src" / "repro" / "sim" / "tracestore.py").read_text(
        encoding="utf-8"
    )
    assert text.count("executemany(") >= 3  # flush, record_stats, merge
    assert _unbracketed_executemany(text) == []
    bracket = next(
        node for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and node.name == "_transaction"
    )
    issued = [
        node.value for node in ast.walk(bracket)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert {"BEGIN", "COMMIT", "ROLLBACK"} <= set(issued)


def _own_methods(text, class_name):
    """name -> ``FunctionDef`` of every function defined in the body of
    ``class_name`` itself."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                item.name: item for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
    raise AssertionError(f"class {class_name} not found")


def _names_used(function):
    """Every bare name and every ``x.<attribute>`` inside ``function``."""
    return {
        getattr(node, "id", None) or node.attr for node in ast.walk(function)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


_CHARGE = {"record_message", "record_messages", "record_message_block"}


def _schedules(name):
    return name.startswith("schedule")


def _methods_using(methods, wanted):
    return {
        name for name, function in methods.items()
        if any(wanted(used) for used in _names_used(function))
    }


def test_the_send_core_is_written_once():
    from repro.sim.network import PhysicalNetwork
    from repro.sim.shard import ShardNetwork

    sim = ROOT / "src" / "repro" / "sim"
    base = _own_methods(
        (sim / "network.py").read_text(encoding="utf-8"), "PhysicalNetwork"
    )
    assert _methods_using(base, _CHARGE.__contains__) == {"send", "_send_block"}
    assert _methods_using(base, "_notify".__eq__) == {"send", "_send_block"}
    assert _methods_using(base, _schedules) == {"send", "_schedule_block"}

    shard = _own_methods(
        (sim / "shard.py").read_text(encoding="utf-8"), "ShardNetwork"
    )
    assert set(shard) == {"__init__", "_owns", "_schedule_block"}
    assert not _methods_using(
        shard, lambda name: name.startswith("record_") or name == "_notify"
    )
    assert _methods_using(shard, _schedules) == {"_schedule_block"}
    for entry_point in ("send", "send_batch", "broadcast_block"):
        assert (
            ShardNetwork.__dict__[entry_point]
            is PhysicalNetwork.__dict__[entry_point]
        ), entry_point

    broadcast = _own_methods(
        (sim / "transport.py").read_text(encoding="utf-8"), "Transport"
    )["broadcast"]
    assert not _names_used(broadcast) & {"Message", "send_batch"}
    assert "broadcast_block" in _names_used(broadcast)


def _third_party_imports():
    """Top-level module names imported anywhere under ``tests/`` or
    ``src/`` that are neither stdlib, nor ``repro``, nor a module that
    lives in ``tests/``."""
    tests = ROOT / "tests"
    local = {"tests", "repro"} | {
        path.stem for path in tests.iterdir()
        if path.suffix == ".py" or path.is_dir()
    }
    imported = {
        name.split(".")[0]
        for root in (tests, ROOT / "src")
        for path in root.rglob("*.py")
        for name in _imported_modules(path.read_text(encoding="utf-8"))
    }
    return imported - local - set(sys.stdlib_module_names)


def _ci_jobs():
    """(name, non-comment lines) per job of the workflow."""
    text = WORKFLOW.read_text(encoding="utf-8")
    blocks = re.split(r"(?m)^  (?=[\w-]+:$)", text.split("\njobs:\n", 1)[1])
    return [
        (block.split(":", 1)[0], [
            line for line in block.splitlines()
            if not line.strip().startswith("#")
        ])
        for block in blocks if block.strip()
    ]


def test_every_third_party_test_import_is_installed_in_ci():
    needed = _third_party_imports()
    # the scanner sees real imports, function-level ones in src/ included
    assert {"pytest", "numpy", "networkx"} <= needed
    checked = 0
    for name, lines in _ci_jobs():
        if not any("tests/" in line or "pytest -x -q" in line
                   for line in lines):
            continue
        installs = [
            set(line.split("pip install", 1)[1].split())
            for line in lines if "pip install" in line
        ]
        assert installs, f"job {name} runs tests/ but installs nothing"
        installed = set().union(*installs)
        assert needed <= installed, (
            f"job {name} runs tests/ without installing "
            f"{sorted(needed - installed)}"
        )
        checked += 1
    assert checked >= 2  # tier1 and nightly


_TEST_ID = re.compile(
    r"\b((?:tests|benchmarks/perf)/[\w/]+\.py)((?:::\w+)+)"
)


def test_every_test_id_in_the_claims_index_resolves():
    index = (ROOT / "docs" / "CLAIMS.md").read_text(encoding="utf-8")
    ids = set(_TEST_ID.findall(index))
    assert len(ids) >= 30  # the pattern still matches the index
    dangling = []
    for path, names in sorted(ids):
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names.split("::")[1:]:
            found = [
                node for node in scope
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name
            ]
            if not found:
                dangling.append(path + names)
                break
            scope = found[0].body
    assert not dangling, dangling
    # and back: a claim test the index does not name has no row to justify it
    claims = ast.parse(
        (ROOT / "tests" / "test_claims.py").read_text(encoding="utf-8")
    ).body
    unindexed = {
        node.name for node in claims
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    } - {names[2:] for path, names in ids if path == "tests/test_claims.py"}
    assert not unindexed, unindexed


def test_repro_bench_exports_the_two_formatters():
    import repro.bench

    assert sorted(repro.bench.__all__) == ["format_row", "format_table"]


def _members_membership_tests(text):
    """(line, enclosing function) of every ``x in <expr>.members()`` /
    ``x not in <expr>.members()`` comparison in ``text``."""
    hits = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if (
                    isinstance(op, (ast.In, ast.NotIn))
                    and isinstance(right, ast.Call)
                    and isinstance(right.func, ast.Attribute)
                    and right.func.attr == "members"
                ):
                    hits.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), None)
    return hits


def test_membership_is_never_tested_against_a_members_list():
    assert _members_membership_tests(
        "def f(o, a):\n"
        "    if a not in o.overlay.members():\n"
        "        return a in o\n"
        "    return [m for m in o.members() if a in o.members()]\n"
    ) == [(2, "f"), (4, "f")]  # comparisons, not iteration
    offenders = {
        str(path.relative_to(ROOT)): [name for _, name in hits]
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if (hits := _members_membership_tests(path.read_text(encoding="utf-8")))
    }
    assert offenders == {"src/repro/overlay/base.py": ["__contains__"]}


def test_chord_state_is_six_slots_and_the_ledger_still_sees_it():
    from repro.overlay.chord import ChordOverlay

    assert list(ChordOverlay()._state_slots()) == [
        "ids", "ring_ids", "ring_addresses",
        "fingers", "successors", "predecessors",
    ]
    assert ChordOverlay.__module__ == "repro.overlay.chord"
    for name in ("route", "stabilize"):
        assert callable(ChordOverlay.__dict__.get(name)), name


def _builtin_sum_calls(text, qualname):
    """Line numbers of ``sum(...)`` calls inside the function ``qualname``
    (``function`` or ``Class.method``) of ``text``."""
    scope = ast.parse(text).body
    for name in qualname.split("."):
        (node,) = [
            item for item in scope
            if isinstance(item, (ast.FunctionDef, ast.ClassDef))
            and item.name == name
        ]
        scope = node.body
    return [
        inner.lineno for inner in ast.walk(node)
        if isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name) and inner.func.id == "sum"
    ]


def test_training_kernels_and_their_oracles_never_call_builtin_sum():
    assert _builtin_sum_calls(
        "class A:\n    def f(self, xs):\n        return sum(x for x in xs)\n"
        "    def g(self, xs):\n        return xs.sum() + np.sum(xs)\n", "A.f",
    ) == [3]  # the builtin, inside the named function only
    assert _builtin_sum_calls(
        "class A:\n    def g(self, xs):\n        return xs.sum() + np.sum(xs)\n",
        "A.g",
    ) == []
    ml = ROOT / "src" / "repro" / "ml"
    pace = ROOT / "src" / "repro" / "p2pclass" / "pace.py"
    cempar = ROOT / "src" / "repro" / "p2pclass" / "cempar.py"
    oracles = ROOT / "tests" / "reference" / "ml_scalar.py"
    for path, qualname in [
        (ml / "kernels.py", "gram_matrix"),
        (ml / "kernel_svm.py", "KernelSVM.fit"),
        (ml / "kernel_svm.py", "PackedSupport"),
        (ml / "kernel_svm.py", "KernelSVMModel.decision"),
        (ml / "linear_svm.py", "LinearSVM.fit"),
        (ml / "sparse.py", "SparseVector.dot"),
        (ml / "sparse.py", "SparseVector.dot_dense"),
        (ml / "sparse.py", "SparseVector.squared_norm"),
        (ml / "sparse.py", "RowTable"),
        (pace, "_PredictionBlock"),
        (pace, "PaceClassifier.predict_scores"),
        (cempar, "_PredictionBlock"),
        (cempar, "CemparClassifier.predict_scores"),
        (cempar, "CemparClassifier._scores_held_by"),
        (oracles, "squared_norm"),
        (oracles, "dot"),
        (oracles, "gram_matrix"),
        (oracles, "smo_fit"),
        (oracles, "pegasos_fit"),
        (oracles, "probability"),
        (oracles, "predict_scores"),
        (oracles, "packed_decision"),
        (oracles, "regional_probabilities"),
    ]:
        calls = _builtin_sum_calls(path.read_text(encoding="utf-8"), qualname)
        assert not calls, f"{path.relative_to(ROOT)}:{qualname} calls sum() at {calls}"


def test_the_column_packing_loop_is_written_once():
    packing = re.compile(r"\.setdefault\(\s*feature_id\s*,\s*len\(columns\)\s*\)")
    found = {
        str(path.relative_to(ROOT)): count
        for path in (ROOT / "src" / "repro" / "ml").rglob("*.py")
        if (count := len(packing.findall(path.read_text(encoding="utf-8"))))
    }
    assert sum(found.values()) == 1, found


def test_pace_bundles_carry_exactly_the_five_wire_fields():
    from repro.p2pclass.pace import PaceModelBundle

    assert [field.name for field in dataclasses.fields(PaceModelBundle)] == [
        "origin", "models", "accuracies", "calibration", "centroids",
    ]


def test_pace_predicts_from_a_compact_block_built_by_pack_rows():
    import numpy as np

    from repro.ml.linear_svm import LinearSVMModel
    from repro.ml.sparse import SparseVector
    from repro.p2pclass.pace import PaceModelBundle, _PredictionBlock

    pace = ROOT / "src" / "repro" / "p2pclass" / "pace.py"
    sparse = ROOT / "src" / "repro" / "ml" / "sparse.py"
    (predict,) = [
        node for node in ast.walk(ast.parse(pace.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "predict_scores"
    ]
    called = {
        node.func.attr for node in ast.walk(predict)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert called >= {"candidates", "distances", "vote"}  # the calls were found
    assert not called & {"decision", "probability", "query", "distance"}
    assert _calls_to(
        ast.parse(sparse.read_text(encoding="utf-8")), "pack_rows"
    ) == ["__init__"]  # RowTable's, the table the block is laid out in
    assert "RowTable(" in pace.read_text(encoding="utf-8")

    rng = np.random.default_rng(0)
    tags = [f"tag{number}" for number in range(6)]

    def vector(size):
        return SparseVector(zip(rng.choice(1000, size, replace=False).tolist(),
                                rng.standard_normal(size).tolist()))

    bundles = {
        origin: PaceModelBundle(
            origin=origin,
            models={tag: LinearSVMModel(vector(150), 0.1) for tag in tags},
            accuracies=dict.fromkeys(tags, 0.9),
            calibration=dict.fromkeys(tags, (-2.0, 0.0)),
            centroids=[vector(300), vector(300)],
        )
        for origin in range(60)
    }
    block = _PredictionBlock([bundles, dict(bundles)], tags)
    rows, columns = block.table.slots.shape
    entries = int(block.table.lengths.sum())
    assert (rows, entries) == (60 * 8, 60 * (6 * 150 + 2 * 300))
    held = [
        value for owner in (block, block.table) for value in vars(owner).values()
        if isinstance(value, np.ndarray)
    ] + list(block.model_rows.values())
    assert len(held) >= 8
    budget = 2 * rows * columns + 24 * entries
    assert sum(array.nbytes for array in held) <= budget < 8 * rows * columns


def test_cempar_scores_its_regional_models_as_one_block():
    src = ROOT / "src" / "repro"
    kernel_svm = ast.parse((src / "ml" / "kernel_svm.py").read_text(encoding="utf-8"))
    assert _calls_to(kernel_svm, "bincount") == ["decisions"]  # one, in the block
    assert _calls_to(kernel_svm, "decisions") == ["decision"]
    cempar = ast.parse((src / "p2pclass" / "cempar.py").read_text(encoding="utf-8"))
    per_query = {"predict_scores", "_scores_held_by"}
    assert "predict_scores" in _calls_to(cempar, "probabilities")  # calls are found
    for loop in ("decision", "probability"):
        assert not per_query & set(_calls_to(cempar, loop)), loop


def _calls_to(tree, name):
    """name of the enclosing function (None at module level) per call of
    ``name(...)`` / ``x.name(...)`` in ``tree``."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and name == (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        ):
            sites.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_the_worker_half_of_the_window_protocol_is_written_once():
    from repro.sim.barrier import WorkerEndpoint
    from repro.sim.shard import _ThreadChannel

    sim = ROOT / "src" / "repro" / "sim"
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sim.glob("*.py")
    }
    assert len(trees) >= 15  # the package was found
    nodes = [
        (name, node) for name, tree in trees.items() for node in ast.walk(tree)
    ]
    assert [
        name for name, node in nodes
        if isinstance(node, ast.FunctionDef) and node.name == "sync"
    ] == ["barrier.py"]
    for called in ("SyncStatus", "encode_outbound_blobs"):
        assert [
            (name, function) for name, tree in trees.items()
            for function in _calls_to(tree, called)
        ] == [("barrier.py", "sync")], called
    classes = {
        node.name for _, node in nodes if isinstance(node, ast.ClassDef)
    }
    assert "_Decision" not in classes and "Verdict" in classes
    assert not [
        name for name, node in nodes if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "id", None) == "Verdict"
    ]
    assert _ThreadChannel.__dict__["sync"] is WorkerEndpoint.sync

    # an executor's endpoint is its wire: no sync, finish or fail body
    for module, wire, extra in (
        ("shard.py", "_ThreadChannel", set()),
        ("shard.py", "_ProcessChannel", {"_route", "_frame"}),
        ("tcpexec.py", "_TcpChannel", {"_recv_protocol"}),
    ):
        own = _own_methods((sim / module).read_text(encoding="utf-8"), wire)
        assert set(own) == {"__init__", "_send", "_recv"} | extra, wire

    tcpexec = (sim / "tcpexec.py").read_text(encoding="utf-8")
    assert "SyncStatus(*" not in tcpexec
    private = {
        alias.name
        for node in ast.walk(trees["tcpexec.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "repro.sim.shard"
        for alias in node.names if alias.name.startswith("_")
    }
    assert private == {"_run_worker"}
