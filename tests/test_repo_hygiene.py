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

(f) ``import repro.cli`` does not load ``networkx`` — every ``repro``
command would pay that import (~0.2 s) before parsing its first option,
and only the commands that draw a graph need it.

(g) Every ``executemany(`` in ``repro/sim/tracestore.py`` sits inside a
``with ..._transaction():`` block — the connection is in autocommit mode,
so an unbracketed ``executemany`` commits once per row.

(h) The send core is written once.  In ``repro/sim/network.py`` the charge
(``record_message*``) and the observation (``_notify``) are called from
``PhysicalNetwork.send`` and ``_send_block`` only, and the kernel's
``schedule*`` from ``send`` and ``_schedule_block`` only; ``ShardNetwork``
defines ``__init__``, ``_owns`` and ``_schedule_block`` (which reaches the
kernel only through the base's ``_schedule_block``), names the base's
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
``RowTable.dots``, the k-means block down to its inertia, PACE's
``predict_scores`` and its prediction block), nor
the three ``SparseVector`` sums every digest hangs on (``dot``,
``squared_norm`` and the norm ``from_weights`` divides every document
vector by), nor their oracles in
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
``Verdict`` is a class, not a tuple alias; the two executor endpoints
(serial's ``_ThreadChannel``, the tcp fleet's ``_TcpChannel``) define a wire (``_send``, ``_recv``) and nothing else of the protocol —
every frame rides the sync up and the verdict down, and no module under
``src/repro`` but ``sim/exchange.py`` names the shared-memory ring grid;
``_ThreadChannel`` names the endpoint's
``sync`` as its own attribute (``benchmarks/perf`` wraps it through the
class ``__dict__``); and ``tcpexec.py`` re-inflates no status
(``SyncStatus(*``) and reaches into ``repro.sim.shard`` for ``_run_worker``
and ``_mp_context`` only.  Three copies of ``sync`` is how the executors'
envelopes drifted apart before.

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

(s) There is one fork.  ``get_context("fork")`` and ``os.fork`` appear under
``src/repro`` only inside ``shard._mp_context``; every fleet worker is forked
through it (``TcpCoordinator._spawn``), and ``tcpexec.py`` never names
``sys.executable`` — a worker exec'ing a fresh interpreter paid interpreter
start-up and every import on each (re)spawn.

(t) Every public function, class and method of a public class under
``src/repro`` is named somewhere else in ``src/`` — a package ``__init__``
re-exporting it does not count — or is listed in
``REACHED_FROM_OUTSIDE_SRC`` with the reason it stays; the list only shrinks.
Its ``_UNIT`` group (held by its own unit tests alone) is exactly
``SimNode.on``, and no name in ``CUT_BY_CENSUS`` is defined again.  The
name scan alone misses both: a name reached only through another unit-only
name (all of ``Lexicon`` hung on ``build_lexicon``), and a method whose name
something else shares (``predict``, ``fit``, ``keys``, ``remove``).  Those
were found by the call recorder's ``--unreached`` census over every
workload, example, CLI command and claim.

(u) A package ``__init__`` re-exports a ``repro`` name only if some module
under ``src/``, ``tests/``, ``examples/`` or ``benchmarks/`` imports it
through the package.

(v) No module under ``src/repro`` imports a name it never uses.

(w) One place couples to PCG64's internals: ``random_raw``, ``has_uint32``
and ``uinteger`` appear under ``src/repro`` only in ``data/delicious.py``,
whose replay of numpy's scalar draws ``tests/test_delicious_replay.py`` pins
against numpy itself.  Saving and restoring a whole ``bit_generator.state``
(the resumable overlays do) stays allowed: it names no internal.

(x) One multi-process fleet.  No module under ``src/repro`` uses a
``multiprocessing`` ``Pipe`` or ``Connection`` — the mp executor's workers
talk to the coordinator over socketpairs — and ``sim/shard.py`` defines
exactly one barrier link (a class with a ``collect``): the serial
executor's ``_ThreadLink``.  A pipe link beside the socket one is how mp
and tcp came to handle a dead worker two ways.

(y) One text path.  Under ``src/repro`` only ``text/vectorizer.py`` calls
``tokenize``, ``stable_word_id`` or a stemmer's ``stem`` — by bare name or
as an attribute.  ``PreprocessingPipeline`` memoises each word's feature
id and drops the memo when the sensitive-word filter changes; a second
caller of the chain would hold its own verdicts that nothing invalidates.

(z) The fleet's supervision is one sans-IO machine.  In ``sim/tcpexec.py``
the ``Supervisor`` class imports nothing and names no ``socket``,
``select``, ``time`` or ``subprocess``, and no ``TcpCoordinator`` method
compares a frame kind, subscripts ``faults`` or names the respawn
budget: the shell carries out decisions, it never takes one.  Decisions
spread over read loops in the shell are how a silent connection came to
stall the fleet twice.

(aa) Churn has no off switch and events no cancel handle.
``repro.sim.engine`` defines no ``Event``; a queued entry is the 4-tuple
``(time, seq, callback, args)`` and ``schedule`` / ``schedule_at`` return
nothing; no function in ``sim/churn.py`` is named ``stop``; and the
directory plane's ``handle_requests`` accepts ``start_churn`` alone.  Ratchet
(t) cannot see these: ``stop`` and ``clear`` share their names with
``_Heartbeat.stop`` and ``dict.clear``.  A stop nothing called is what
kept the directory plane refusing what the replicated plane accepted.

(bb) One control plane.  Under ``src/repro`` only ``ScenarioConfig`` (its
vestigial field and ``validate``) and ``wal.config_fingerprint`` name
``control_plane``; nothing defines ``directory_mode`` or ``materializes``;
no ``build_parser()`` subcommand has a ``--control-plane``; and the
sharded runners (``coordinate``, ``_run_serial``, ``run_tcp``,
``TcpCoordinator``) take a ``plane`` with no default.  Every sharded run
is one writer and K readers; a second plane is what every sharded suite,
fault matrix and WAL matrix paid for twice.

(cc) One randomness object per run.  No parameter under ``src/repro/sim``
or ``src/repro/p2pclass`` is named ``rng_for*`` or annotated with an
``Optional`` generator, and under ``src/repro`` only
``ScenarioConfig.validate`` and ``Scenario.__init__`` read an ``rng_mode``
attribute: the scenario picks ``PeerStreams`` or ``SharedStream`` once and
every network, churn and activation draw asks that object for a peer's
stream.  The layout chosen again at six sites, each with its own
``None`` fallback, is what this replaced.

(dd) The product trains once.  No ``build_parser()`` subcommand offers
``--shards``, ``--executor``, ``--wal``, ``--resume`` or ``--faults``;
``SystemConfig`` has none of the matching fields; and no module under
``src/repro/core`` imports ``repro.sim.shard``, ``tcpexec``, ``wal`` or
``faults``.  The sharded kernel is ``ShardedScenario``'s API, proven by
the sharded suites and the storm benchmark; a tagger that replayed its
training through the fleet, only to serve every prediction from the flat
replica, is what this replaced.

(ee) SMO makes no numpy call per KKT violator.  In ``KernelSVM._smo``
(the sweep ``fit_block`` runs for each two-class problem) every
``integers(...)`` call passes ``size=`` — second indices are drawn a
block at a time, and the generator rewound to where one scalar draw per
violator leaves it — and nothing calls ``np.dot``: a row's dot is the bound
``signed.dot`` over rows split once per fit, the same ``ddot`` without the
dispatcher.  A ``tag-cempar`` ``train()`` made ~22k scalar draws and ~65k
dispatched dots at a few microseconds of numpy each, the sweep's largest
cost after its own Python.

(ff) CEMPaR trains from tables of dot products.  The one ``.decision(``
call in ``p2pclass/cascade.py`` is ``CascadeModel.probability``'s, a
query's: ``cascade_merge`` scores its training set off the table it trained
from.  And ``p2pclass/cempar.py`` constructs no ``KernelSVM`` inside a loop
or comprehension: a peer's per-tag problems are one ``fit_block``, whose
Grams share one table.  1,216 packed ``decision`` calls per ``tag-cempar``
``train()``, and ~7 fits per peer each re-summing the dots of the same
documents, are what this replaced.

(gg) Every fleet worker is a forked child on a socketpair.  No module under
``src/repro/sim`` names ``ssh``, ``.listen(``, ``.accept(``, ``.bind(``,
``create_connection`` or ``subprocess``; ``build_parser()`` has no
``worker`` subcommand; and ``ScenarioConfig`` has no ``tcp_*`` field.  Remote
placement (``wait`` / ``ssh:HOST`` slots, ``repro worker``, a listener, a
four-frame HELLO handshake, reconnect backoff) is what this replaced: no
benchmark leg, example or CLI path reached it, and a one-host fleet bound at
fork has no handshake to get wrong.

(hh) Every config declares its constraints once.  Each numeric field of
each config dataclass under ``src/repro`` (found as
``tests/test_config_constraints.py`` finds them) names its constraints in
its ``field(metadata=...)`` through ``repro.constraints.setting``, and no
``validate`` or ``__post_init__`` compares a field of ``self`` to a number
literal: ``repro.constraints.check`` does that, naming the field and the
value.  Eleven hand-written ``validate`` bodies, each checking a different
subset of "finite, positive, integer, in range", are what this replaced;
the fields they skipped let a NaN smoothing constant, a fractional epoch
count or a negative seed reach training.

(ii) The fault plane lives in the tests.  ``repro.sim.faults`` does not
exist, ``ScenarioConfig`` has no ``faults`` field, and no name under
``src/repro/sim`` — a definition, parameter, attribute, variable or import
— is ``fault_hook``, ``injector``, ``FaultPlan`` or ``recovering``.  A test
makes a forked worker misbehave by patching the fleet before it forks
(``tests/misbehave.py``); a spec grammar, a seeded schedule and a
fresh-or-recovering flag threaded through the worker, which no product
run set, are what this replaced.
"""

import argparse
import ast
import dataclasses
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNTIME_KNOBS = {
    "REPRO_TCP_TIMEOUT_S",
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
    # the shard reaches the kernel only through the base's _schedule_block
    assert not _methods_using(shard, _schedules)
    assert _methods_using(shard, "_schedule_block".__eq__) == {
        "_schedule_block"
    }
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


def _definition(text, qualname):
    """The node of the function or class ``qualname`` (``function`` or
    ``Class.method``) of ``text``."""
    scope = ast.parse(text).body
    for name in qualname.split("."):
        (node,) = [
            item for item in scope
            if isinstance(item, (ast.FunctionDef, ast.ClassDef))
            and item.name == name
        ]
        scope = node.body
    return node


def _builtin_sum_calls(text, qualname):
    """Line numbers of ``sum(...)`` calls inside the function ``qualname``
    of ``text``."""
    return [
        inner.lineno for inner in ast.walk(_definition(text, qualname))
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
        (ml / "kernels.py", "PairDots"),
        (ml / "kernels.py", "gram_matrix"),
        (ml / "kernel_svm.py", "KernelSVM.fit"),
        (ml / "kernel_svm.py", "KernelSVM.fit_block"),
        (ml / "kernel_svm.py", "KernelSVM._smo"),
        (ml / "kernel_svm.py", "KernelSVMModel.decisions_from"),
        (ml / "kernel_svm.py", "PackedSupport"),
        (ml / "kernel_svm.py", "KernelSVMModel.decision"),
        (ml / "linear_svm.py", "LinearSVM.fit"),
        (ml / "linear_svm.py", "pegasos_block"),
        (ml / "linear_svm.py", "_train"),  # the steps, emission and margins
        (ml / "linear_svm.py", "_chunks"),
        (ml / "lsh.py", "RandomHyperplaneLSH.candidates"),
        (ml / "lsh.py", "RandomHyperplaneLSH.probe"),
        (ml / "kmeans.py", "kmeans_block"),
        (ml / "kmeans.py", "_Chunk"),
        (ml / "kmeans.py", "_kmeanspp"),
        (ml / "kmeans.py", "_lloyd"),
        (ml / "kmeans.py", "_results"),
        (ml / "kmeans.py", "KMeans.fit"),
        (ml / "sparse.py", "SparseVector.dot"),
        (ml / "sparse.py", "SparseVector.squared_norm"),
        (ml / "sparse.py", "SparseVector.from_weights"),
        (ml / "sparse.py", "RowTable"),
        (pace, "_PredictionBlock"),
        (pace, "_ReceiverIndex"),  # the shared probe
        (pace, "PaceClassifier.predict_scores"),
        (cempar, "_PredictionBlock"),
        (cempar, "CemparClassifier.predict_scores"),
        (cempar, "CemparClassifier._scores_held_by"),
        (oracles, "squared_norm"),
        (oracles, "dot"),
        (oracles, "gram_matrix"),
        (oracles, "smo_fit"),
        (oracles, "fit_block"),
        (oracles, "pegasos_fit"),
        (oracles, "pegasos_block"),
        (oracles, "kmeans_fit"),
        (oracles, "kmeanspp_init"),
        (oracles, "mean_vector"),
        (oracles, "probability"),
        (oracles, "predict_scores"),
        (oracles, "PerReceiverStore"),
        (oracles, "candidates"),
        (oracles, "per_receiver_predict_scores"),
        (oracles, "packed_decision"),
        (oracles, "regional_probabilities"),
    ]:
        calls = _builtin_sum_calls(path.read_text(encoding="utf-8"), qualname)
        assert not calls, f"{path.relative_to(ROOT)}:{qualname} calls sum() at {calls}"


def _numpy_calls_per_step(text):
    """Line numbers in ``KernelSVM._smo`` of ``text`` of a scalar draw (an
    ``integers(...)`` call without ``size=``) or a dispatched ``np.dot``."""
    return [
        node.lineno for node in ast.walk(_definition(text, "KernelSVM._smo"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and (
            node.func.attr == "integers"
            and "size" not in {keyword.arg for keyword in node.keywords}
            or node.func.attr == "dot"
            and getattr(node.func.value, "id", None) in {"np", "numpy"}
        )
    ]


def test_smo_makes_no_scalar_draw_and_no_dispatched_dot():
    assert _numpy_calls_per_step(
        "class KernelSVM:\n    def _smo(self):\n"
        "        j = int(rng.integers(0, n - 1))\n"
        "        drawn = rng.integers(0, n - 1, size=64)\n"
        "        out = float(np.dot(signed, K[i]))\n"
        "        out = signed.dot(rows[i])\n"
    ) == [3, 5]  # the scalar draw and the dispatched dot, not their blocks
    path = ROOT / "src" / "repro" / "ml" / "kernel_svm.py"
    assert _numpy_calls_per_step(path.read_text(encoding="utf-8")) == []


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
    block = _PredictionBlock(list(bundles.values()), tags)
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


def _calls_in_loops(tree, name):
    """Line numbers of the calls of ``name(...)`` / ``x.name(...)`` in
    ``tree`` made once per turn of a loop or comprehension (a ``for``'s
    iterable is evaluated once, so it does not count)."""
    lines = []

    def visit(node, looped):
        if looped and isinstance(node, ast.Call) and name == (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        ):
            lines.append(node.lineno)
        for field, value in ast.iter_fields(node):
            inner = looped or isinstance(
                node, (ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ) or isinstance(node, ast.For) and field in ("body", "orelse")
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner)

    visit(tree, False)
    return lines


def test_cempar_trains_from_tables_of_dot_products():
    assert _calls_in_loops(ast.parse(
        "for tag in tags(KernelSVM()):\n"
        "    svm = KernelSVM(C=1)\n"
        "models = [m.KernelSVM() for _ in range(3)]\n"
        "one = KernelSVM().fit_block(problems)\n"
    ), "KernelSVM") == [2, 3]  # in the body and the comprehension only
    p2pclass = ROOT / "src" / "repro" / "p2pclass"
    cascade = ast.parse((p2pclass / "cascade.py").read_text(encoding="utf-8"))
    assert _calls_to(cascade, "decision") == ["probability"]
    assert "cascade_merge" in _calls_to(cascade, "decisions_from")
    cempar = ast.parse((p2pclass / "cempar.py").read_text(encoding="utf-8"))
    assert _calls_to(cempar, "KernelSVM") == ["_upload_one"]  # the call is found
    assert _calls_in_loops(cempar, "KernelSVM") == []


def _sites(tree, matches):
    """name of the enclosing function (None at module level) per node of
    ``tree`` that ``matches``."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            sites.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def _calls_to(tree, name):
    """name of the enclosing function (None at module level) per call of
    ``name(...)`` / ``x.name(...)`` in ``tree``."""
    return _sites(tree, lambda node: isinstance(node, ast.Call) and name == (
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    ))


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
        ("tcpexec.py", "_TcpChannel", {"_recv_protocol"}),
    ):
        own = _own_methods((sim / module).read_text(encoding="utf-8"), wire)
        assert set(own) == {"__init__", "_send", "_recv"} | extra, wire
    ring_grid = {"RingExchange", "ShardRing", "shared_memory"}
    assert [
        path for path in sorted(ROOT.joinpath("src", "repro").rglob("*.py"))
        if ring_grid & _references(ast.parse(path.read_text(encoding="utf-8")))
    ] == [sim / "exchange.py"]

    tcpexec = (sim / "tcpexec.py").read_text(encoding="utf-8")
    assert "SyncStatus(*" not in tcpexec
    private = {
        alias.name
        for node in ast.walk(trees["tcpexec.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "repro.sim.shard"
        for alias in node.names if alias.name.startswith("_")
    }
    assert private == {"_run_worker", "_mp_context"}


def _is_fork(node):
    """``get_context("fork")``, ``os.fork`` or ``from os import fork``."""
    if isinstance(node, ast.Call) and "get_context" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    ):
        return [getattr(arg, "value", None) for arg in node.args] == ["fork"]
    if isinstance(node, ast.Attribute):
        return node.attr == "fork" and getattr(node.value, "id", None) == "os"
    return isinstance(node, ast.ImportFrom) and node.module == "os" and (
        "fork" in [alias.name for alias in node.names]
    )


def test_there_is_one_fork_and_tcp_local_workers_use_it():
    src = ROOT / "src" / "repro"
    forks = [
        (path.relative_to(src).as_posix(), function)
        for path in sorted(src.rglob("*.py"))
        for function in _sites(
            ast.parse(path.read_text(encoding="utf-8")), _is_fork
        )
    ]
    assert forks == [("sim/shard.py", "_mp_context")]
    tcpexec = ast.parse((src / "sim" / "tcpexec.py").read_text(encoding="utf-8"))
    assert _calls_to(tcpexec, "_mp_context") == ["_spawn"]
    assert not _sites(tcpexec, lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "executable")


def _public_definitions(tree):
    """Qualified names of the public functions and classes at module level
    of ``tree`` and of the public methods of its public classes."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                found.append(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return found


def _references(tree, imports=True):
    """Every bare name and ``x.<attribute>`` in ``tree``, plus (with
    ``imports``) the last component of every imported name."""
    names = _names_used(tree)
    if imports:
        names |= {
            node.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
            if isinstance(node, ast.alias)
        }
    return names


def _unreached(trees):
    """``path:qualname`` of each public definition in ``trees`` (path ->
    module tree) whose name nothing in ``trees`` references — a package
    ``__init__`` re-exporting a name does not count."""
    referenced = set().union(*(
        _references(tree, imports=not path.endswith("__init__.py"))
        for path, tree in trees.items()
    ))
    return {
        f"{path}:{qualname}"
        for path, tree in trees.items()
        for qualname in _public_definitions(tree)
        if qualname.rsplit(".", 1)[-1] not in referenced
    }


def _src_trees():
    src = ROOT / "src" / "repro"
    return {
        path.relative_to(src).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.rglob("*.py"))
    }


#: Public definitions under ``src/repro`` that nothing under ``src/`` calls,
#: each with the reason it stays.  The list only shrinks: an entry that src/
#: starts to reference, or whose definition goes, fails the ratchet too.
_BENCH = "benchmarks/perf calls it"
_ANALYZE = "`repro analyze --report NAME` calls `report_NAME` by name"
_EXAMPLE = "an example calls it (tests/test_examples.py runs every example)"
_CLAIM = "a docs/CLAIMS.md row's test calls it"
_OBSERVED = "an observable the tier-1 suites assert on; no run needs it"
_DEMO = "a paper demo operation (Figs. 3-4) that only its unit tests drive"
_UNIT = "only its own unit tests call it; deleting it deletes them"
_RING = ("benchmarks/perf's sim.exchange.ring_roundtrip_us times it; no "
         "executor uses the ring grid")

REACHED_FROM_OUTSIDE_SRC = {
    "core/tagger.py:P2PDocTaggerSystem.from_corpus": _BENCH,
    "core/tagger.py:P2PDocTaggerSystem.global_tag_cloud": _BENCH,
    "sim/engine.py:Simulator.events_processed": _BENCH,
    "sim/scenario.py:Scenario.construction_cost": _BENCH,
    "sim/scenario.py:Scenario.live_peers": _BENCH,
    "sim/scenario.py:Scenario.register_peer": _BENCH,
    "sim/shard.py:ShardedScenario": _BENCH,
    "sim/stats.py:StatsCollector.exchange_summary": _BENCH,
    "sim/stats.py:StatsCollector.messages_for": _BENCH,
    "sim/tracestore.py:TraceStore.attach_scenario": _BENCH,
    "sim/tracestore.py:merge_stores": _BENCH,
    "sim/exchange.py:RingExchange": _RING,
    "sim/exchange.py:RingExchange.destroy": _RING,
    "sim/exchange.py:ShardRing.try_push": _RING,
    "sim/exchange.py:ShardRing.try_pop": _RING,
    "sim/tracestore.py:TraceStore.report_churn": _ANALYZE,
    "sim/tracestore.py:TraceStore.report_codec": _ANALYZE,
    "sim/tracestore.py:TraceStore.report_peers": _ANALYZE,
    "sim/tracestore.py:TraceStore.report_traffic": _ANALYZE,
    "core/filebrowser.py:FileBrowser": _EXAMPLE,
    "core/filebrowser.py:FileBrowser.cd": _EXAMPLE,
    "core/filebrowser.py:FileBrowser.ls": _EXAMPLE,
    "core/filebrowser.py:FileBrowser.selected_documents": _EXAMPLE,
    "core/filebrowser.py:VirtualFileSystem.from_documents": _EXAMPLE,
    "core/library.py:Library.browse_by_tag": _EXAMPLE,
    "core/refinement.py:RefinementLoop.pending_count": _EXAMPLE,
    "core/tagcloud.py:TagCloud.ascii_cloud": _EXAMPLE,
    "core/tagcloud.py:TagCloud.cooccurrence": _EXAMPLE,
    "core/tagger.py:P2PDocTaggerPeer.manual_tag": _EXAMPLE,
    "core/tagger.py:P2PDocTaggerSystem.auto_tag_all": _EXAMPLE,
    "p2pclass/base.py:P2PTagClassifier.predict_tags": _EXAMPLE,
    "p2pclass/base.py:corpus_to_peer_data": _EXAMPLE,
    "p2pclass/private.py:PrivatePaceClassifier": _EXAMPLE,
    "core/multilabel.py:TopKPolicy": _CLAIM,
    "data/delicious.py:DeliciousGenerator.groups_of": _CLAIM,
    "ml/metrics.py:mean_precision_at_k": _CLAIM,
    "overlay/chord.py:ChordOverlay.staleness": _CLAIM,
    "overlay/unstructured.py:UnstructuredOverlay.gossip": _CLAIM,
    "sim/distribution.py:DataDistributor": _CLAIM,
    "sim/distribution.py:DataDistributor.distribute": _CLAIM,
    "text/vectorizer.py:PreprocessingPipeline.fit_tfidf": _CLAIM,
    "data/corpus.py:Corpus.user_profile": _OBSERVED,
    "ml/calibration.py:PlattCalibrator.is_fitted": _OBSERVED,
    "ml/kernel_svm.py:KernelSVMModel.num_support_vectors": _OBSERVED,
    "overlay/kademlia.py:KademliaOverlay.staleness": _OBSERVED,
    "overlay/kademlia.py:KademliaOverlay.true_owner": _OBSERVED,
    "overlay/pastry.py:PastryOverlay.staleness": _OBSERVED,
    "overlay/pastry.py:PastryOverlay.true_owner": _OBSERVED,
    "overlay/superpeer.py:SuperPeerOverlay.super_peers": _OBSERVED,
    "overlay/unstructured.py:BroadcastResult.coverage": _OBSERVED,
    "p2pclass/pace.py:PaceClassifier.models_indexed_at": _OBSERVED,
    "sim/codec.py:registered_codecs": _OBSERVED,
    "sim/network.py:PhysicalNetwork.has_block_listeners": _OBSERVED,
    "sim/network.py:PhysicalNetwork.live_nodes": _OBSERVED,
    "sim/network.py:PhysicalNetwork.registered_nodes": _OBSERVED,
    "sim/stats.py:StatsCollector.bytes_for": _OBSERVED,
    "sim/stats.py:StatsCollector.has_compressed_traffic": _OBSERVED,
    "sim/stats.py:StatsCollector.wire_bytes_for": _OBSERVED,
    "sim/tracestore.py:TraceStore.rows_written": _OBSERVED,
    "sim/transport.py:BroadcastOutcome.delivered_count": _OBSERVED,
    "sim/workload.py:QueryWorkload": _OBSERVED,
    "sim/workload.py:QueryWorkload.expected_total": _OBSERVED,
    "sim/workload.py:QueryWorkload.replay": _OBSERVED,
    "core/filebrowser.py:FileBrowser.clear_selection": _DEMO,
    "core/filebrowser.py:FileBrowser.deselect": _DEMO,
    "core/library.py:Library.search": _DEMO,
    "core/library.py:Library.search_tag_names": _DEMO,
    "core/metadata.py:TagMetadataStore.iter_assignments": _DEMO,
    "core/metadata.py:TagMetadataStore.save": _DEMO,
    "core/suggestions.py:SuggestionEngine.render_cloud": _DEMO,
    "core/suggestions.py:SuggestionEngine.top_tags": _DEMO,
    "core/tagger.py:P2PDocTaggerPeer.tag_cloud": _DEMO,
    "sim/node.py:SimNode.on": _UNIT,
}


#: Definitions the call census found no product run reaching, deleted with
#: the unit tests whose only subject they were.  None comes back: not under
#: its old name, and not on another module.
CUT_BY_CENSUS = {
    "data/delicious.py:DeliciousGenerator.topic_words_of",
    "data/splits.py:train_test_split",
    "ml/evaluation.py:CurvePoint.fpr",
    "ml/evaluation.py:auc",
    "ml/evaluation.py:average_precision",
    "ml/evaluation.py:precision_recall_curve",
    "ml/evaluation.py:roc_curve",
    "ml/kernel_svm.py:KernelSVM.accuracy",
    "ml/kernel_svm.py:KernelSVM.predict",
    "ml/kernel_svm.py:KernelSVMModel.predict",
    "ml/kmeans.py:KMeans.predict",
    "ml/kmeans.py:KMeans.result",
    "ml/lsh.py:RandomHyperplaneLSH.bucket_sizes",
    "ml/lsh.py:RandomHyperplaneLSH.remove",
    "ml/metrics.py:recall_at_k",
    "ml/naive_bayes.py:MultinomialNB.accuracy",
    "ml/naive_bayes.py:MultinomialNB.fit",
    "ml/naive_bayes.py:MultinomialNB.predict",
    "ml/sparse.py:SparseVector.cosine_similarity",
    "ml/sparse.py:SparseVector.dot_dense",
    "ml/sparse.py:SparseVector.from_dense",
    "ml/sparse.py:SparseVector.keys",
    "ml/sparse.py:SparseVector.max_index",
    "ml/sparse.py:SparseVector.to_dense",
    "p2pclass/cascade.py:support_vectors_payload",
    "p2pclass/voting.py:majority_vote",
    "p2pclass/voting.py:weighted_majority_vote",
    "sim/network.py:PhysicalNetwork.unregister",
    "sim/network.py:pair_seed",
    "sim/node.py:SimNode.send",
    "sim/node.py:SimNode.shutdown",
    "sim/shard.py:shard_of",
    "sim/stats.py:StatsCollector.digest",
    "sim/stats.py:StatsCollector.traffic_table",
    "text/lexicon.py:Lexicon",
    "text/stopwords.py:is_stop_word",
    "text/stopwords.py:remove_stop_words",
    "text/tokenizer.py:sentence_split",
    "text/vectorizer.py:PreprocessingPipeline.process_many",
    "text/vectorizer.py:PreprocessingPipeline.uses_tfidf",
    "text/vectorizer.py:build_lexicon",
}


def test_every_public_definition_is_reached_from_src_or_listed():
    assert _unreached({
        "a.py": ast.parse(
            "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
            "class Box:\n    def open(self): pass\n    def shut(self): pass\n"
            "used()\nBox().open()\n"
        ),
        "__init__.py": ast.parse("from a import unused\n"),
    }) == {"a.py:unused", "a.py:Box.shut"}
    unreached = _unreached(_src_trees())
    assert len(unreached) >= 20  # the scan still finds the listed ones
    unlisted = sorted(unreached - set(REACHED_FROM_OUTSIDE_SRC))
    assert not unlisted, (
        "no code under src/ references these; call them, delete them, or "
        f"list each with its reason: {unlisted}"
    )
    stale = sorted(set(REACHED_FROM_OUTSIDE_SRC) - unreached)
    assert not stale, f"listed but now referenced from src/ or gone: {stale}"
    unit_only = {
        name for name, why in REACHED_FROM_OUTSIDE_SRC.items() if why is _UNIT
    }
    assert unit_only == {"sim/node.py:SimNode.on"}, (
        "a definition only its own unit tests call: give it a product "
        f"caller or delete it with them: {sorted(unit_only)}"
    )
    defined = {
        qualname
        for tree in _src_trees().values()
        for qualname in _public_definitions(tree)
    }
    cut = {name.split(":", 1)[1] for name in CUT_BY_CENSUS}
    assert not cut & defined, f"no run reaches these: {sorted(cut & defined)}"


def _re_exports(package_dir):
    """Names ``package_dir/__init__.py`` binds with ``from repro… import
    name`` where ``name`` is not a submodule of the package."""
    tree = ast.parse((package_dir / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro")
        for alias in node.names
        if not (package_dir / f"{alias.name}.py").exists()
        and not (package_dir / alias.name).is_dir()
    }


def _taken_from(package, trees):
    """Names any of ``trees`` imports as ``from <package> import name``."""
    return {
        alias.name
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == package
        for alias in node.names
    }


def test_packages_re_export_only_what_callers_import():
    callers = [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "tests", "examples", "benchmarks")
        for path in (ROOT / folder).rglob("*.py")
    ]
    src = ROOT / "src"
    packages = sorted(path.parent for path in (src / "repro").rglob("__init__.py"))
    assert len(packages) >= 9  # every package was found
    # the scanner sees re-exports, not the submodules an __init__ imports
    assert _re_exports(src / "repro" / "overlay") == {"make_overlay", "overlay_names"}
    unused = {}
    for package_dir in packages:
        package = ".".join(package_dir.relative_to(src).parts)
        extra = _re_exports(package_dir) - _taken_from(package, callers)
        if extra:
            unused[package] = sorted(extra)
    assert not unused, f"re-exported but imported by no caller: {unused}"


def _unused_imports(tree):
    """Names ``tree`` imports at module level (or under a module-level
    ``if``) and never mentions again — in code, annotations or strings."""
    imported = {}
    for node in tree.body:
        for statement in [node] + (node.body if isinstance(node, ast.If) else []):
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                for alias in statement.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = statement.lineno
    mentioned = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    } | {
        word for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for word in re.findall(r"\w+", node.value)
    }
    return sorted(
        (line, name) for name, line in imported.items()
        if name not in mentioned and name != "annotations"
    )


def test_no_module_under_src_imports_a_name_it_never_uses():
    assert _unused_imports(ast.parse(
        "from __future__ import annotations\nimport os, re\n"
        "from typing import TYPE_CHECKING, List\nif TYPE_CHECKING:\n"
        "    import numpy as np\ndef f(x: 'np.ndarray') -> List[int]:\n"
        "    return os.sep\n"
    )) == [(2, "re")]
    offenders = {
        path: found for path, tree in _src_trees().items()
        if not path.endswith("__init__.py") and (found := _unused_imports(tree))
    }
    assert not offenders, offenders


_PCG64_INTERNALS = re.compile(r"\b(random_raw|has_uint32|uinteger)\b")


def _pcg64_internals(text):
    """Line numbers of ``text`` that name a PCG64 internal."""
    return [
        number for number, line in enumerate(text.splitlines(), 1)
        if _PCG64_INTERNALS.search(line)
    ]


def test_one_place_couples_to_pcg64_internals():
    assert _pcg64_internals(
        "words = rng.bit_generator.random_raw(8)\n"
        "rng.bit_generator.state = saved\n"
        'buffered = state["has_uint32"], state["uinteger"]\n'
    ) == [1, 3]  # a whole-state save / restore is not an internal
    src = ROOT / "src" / "repro"
    coupled = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if _pcg64_internals(path.read_text(encoding="utf-8"))
    }
    assert coupled == {"data/delicious.py"}


def _pipe_uses(text):
    """Line numbers in ``text`` that name a ``multiprocessing`` pipe or
    connection: ``Pipe`` as a name or attribute, the
    ``multiprocessing.connection`` module, or an import of ``Pipe`` /
    ``Connection`` from ``multiprocessing``."""
    lines = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            hit = node.id == "Pipe"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "Pipe" or (
                node.attr == "connection"
                and getattr(node.value, "id", None) == "multiprocessing"
            )
        elif isinstance(node, ast.Import):
            hit = "multiprocessing.connection" in [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("multiprocessing") and (
                node.module == "multiprocessing.connection"
                or {"Pipe", "Connection", "connection"}
                & {alias.name for alias in node.names}
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_one_multi_process_fleet_and_no_pipe_link():
    assert _pipe_uses(
        "parent, child = context.Pipe()\n"
        "from multiprocessing.connection import Connection\n"
        "import multiprocessing.connection\n"
        "wait = multiprocessing.connection.wait\n"
        "from multiprocessing import Pipe, Process\n"
        "db = sqlite3.connect(path)\n"
        "from multiprocessing import get_context\n"
    ) == [1, 2, 3, 4, 5]
    src = ROOT / "src" / "repro"
    piped = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        if _pipe_uses(path.read_text(encoding="utf-8"))
    ]
    assert piped == []
    shard = ast.parse((src / "sim" / "shard.py").read_text(encoding="utf-8"))
    links = [
        node.name for node in ast.walk(shard)
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "collect"
            for item in node.body
        )
    ]
    assert links == ["_ThreadLink"]


_TEXT_CHAIN = {"tokenize", "stable_word_id", "stem"}


def _text_chain_calls(text):
    """Line numbers of ``text`` that call ``tokenize``, ``stable_word_id``
    or ``stem``, as a bare name or as an attribute."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in _TEXT_CHAIN
            or getattr(node.func, "attr", None) in _TEXT_CHAIN
        )
    })


def test_one_text_path():
    assert _text_chain_calls(
        "words = tokenize(text, min_length=2)\n"
        "feature = lexicon.stable_word_id(word, 64)\n"
        "root = self._stemmer.stem(word)\n"
        "name = path.stem\n"
        "stem = PorterStemmer().stem\n"
        "root = stem(word)\n"
    ) == [1, 2, 3, 6]  # calls, not mentions
    src = ROOT / "src" / "repro"
    calling = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if _text_chain_calls(path.read_text(encoding="utf-8"))
    }
    assert calling == {"text/vectorizer.py"}


_IO_MODULES = {"socket", "select", "time", "subprocess"}


def _supervision_leaks(text):
    """Line numbers in ``text`` (a ``tcpexec.py``) that break ratchet (z):
    an import or an I/O module named inside ``Supervisor``; a frame-kind
    comparison, a ``faults[...]`` subscript or a respawn budget inside a
    ``TcpCoordinator`` method.  A missing ``Supervisor`` is line 0."""
    classes = {
        node.name: node for node in ast.parse(text).body
        if isinstance(node, ast.ClassDef)
    }
    if "Supervisor" not in classes:
        return [0]
    lines = [
        node.lineno for node in ast.walk(classes["Supervisor"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        or (isinstance(node, ast.Name) and node.id in _IO_MODULES)
    ]
    shell = classes.get("TcpCoordinator")
    for node in ast.walk(shell) if shell is not None else ():
        if isinstance(node, ast.Compare):
            hit = any(
                isinstance(name, ast.Name) and name.id.startswith("_K_")
                for name in ast.walk(node)
            )
        elif isinstance(node, ast.Subscript):
            hit = getattr(node.value, "attr", None) == "faults" or (
                getattr(node.value, "id", None) == "faults"
            )
        else:
            named = getattr(node, "id", None) or getattr(node, "attr", "")
            hit = "budget" in str(named)
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_fleet_supervision_is_one_sans_io_machine():
    assert _supervision_leaks(
        "class Supervisor:\n"
        "    def frame(self, conn):\n"
        "        return select.select([conn], [], [], 0.0)\n"
        "class TcpCoordinator:\n"
        "    def collect(self, kind, faults):\n"
        "        if kind in (_K_SYNC, _K_DONE):\n"
        "            self.supervisor.faults['heartbeats'] += 1\n"
        "        self.supervisor.budget -= len(faults['x'])\n"
    ) == [3, 6, 7, 8]
    assert _supervision_leaks("class TcpCoordinator:\n    pass\n") == [0]
    tcpexec = ROOT / "src" / "repro" / "sim" / "tcpexec.py"
    assert _supervision_leaks(tcpexec.read_text(encoding="utf-8")) == []


def _stop_definitions(text):
    """Line numbers of every function named ``stop`` in ``text``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "stop"
    )


def test_churn_has_no_off_switch_and_events_no_cancel_handle():
    from repro.errors import SimulationError
    from repro.sim import engine
    from repro.sim.shard import DirectoryControlPlane

    assert not hasattr(engine, "Event")
    simulator = engine.Simulator()
    assert simulator.schedule(1.0, print) is None
    assert simulator.schedule_at(2.0, print, args=("x",)) is None
    assert [len(entry) for entry in simulator._queue] == [4, 4]

    assert _stop_definitions(
        "class Driver:\n    def start(self):\n        pass\n"
        "    def stop(self):\n        pass\n"
        "def stop():\n    pass\n"
    ) == [4, 6]
    churn = ROOT / "src" / "repro" / "sim" / "churn.py"
    assert _stop_definitions(churn.read_text(encoding="utf-8")) == []

    class _Plane:
        """Stands in for the plane: records what ``_start`` is handed."""

        def __init__(self):
            self.started = []

        def _start(self, time):
            self.started.append(time)

    plane = _Plane()
    DirectoryControlPlane.handle_requests(plane, [("start_churn", 3.0)])
    assert plane.started == [3.0]
    for kind in ("stop_churn", "pause_churn"):
        with pytest.raises(SimulationError, match=f"request '{kind}'"):
            DirectoryControlPlane.handle_requests(plane, [(kind, 4.0)])
    assert plane.started == [3.0]


def _cli_options():
    """Each ``repro`` subcommand's option strings."""
    from repro.cli import build_parser

    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    return {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
        }
        for name, parser in subcommands.items()
    }


_PLANE_SCOPES = {"ScenarioConfig", "ScenarioConfig.validate",
                 "config_fingerprint"}


def _plane_mentions(text):
    """``(line, scope)`` of every place ``text`` names ``control_plane`` —
    a name, attribute, argument, keyword or the string itself — where
    ``scope`` is the dotted chain of enclosing classes and functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        named = (
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "arg", None), getattr(node, "value", None),
        )
        if "control_plane" in named:
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "")
    return found


def test_one_control_plane():
    import inspect

    from repro.sim import barrier, shard, tcpexec

    assert _plane_mentions(
        "class ScenarioConfig:\n"
        "    control_plane: str = None\n"
        "def run(config, control_plane='directory'):\n"
        "    return replace(config, control_plane=config.control_plane)\n"
        "fields.pop('control_plane')\n"
        "plane = 'directory'\n"
    ) == [(2, "ScenarioConfig"), (3, "run"), (4, "run"), (4, "run"),
          (5, "")]
    src = ROOT / "src" / "repro"
    stray = []
    definitions = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        name = path.relative_to(src).as_posix()
        stray += [
            f"{name}:{line} {scope or '<module>'}"
            for line, scope in _plane_mentions(text)
            if scope not in _PLANE_SCOPES
        ]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                defined = node.name
            elif isinstance(getattr(node, "ctx", None), ast.Store):
                defined = getattr(node, "id", None) or getattr(
                    node, "attr", None
                )
            else:
                continue
            if defined in ("directory_mode", "materializes"):
                definitions.append(f"{name}:{node.lineno} {defined}")
    assert stray == []
    assert definitions == []

    options = set().union(*_cli_options().values())
    assert "--control-plane" not in options and "--overlay" in options

    for runner in (barrier.coordinate, shard._run_serial, tcpexec.run_tcp,
                   tcpexec.TcpCoordinator.__init__):
        plane = inspect.signature(runner).parameters["plane"]
        assert plane.default is inspect.Parameter.empty, runner.__qualname__


_MODE_SCOPES = {"ScenarioConfig.validate", "Scenario.__init__"}


def _rng_parameters(text):
    """``(line, name)`` of every parameter in ``text`` named ``rng_for*``
    or annotated with an optional generator."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.arg):
            continue
        note = ast.unparse(node.annotation) if node.annotation else ""
        optional = "Optional" in note or "None" in note
        generator = optional and "Generator" in note
        if node.arg.startswith("rng_for") or generator:
            found.append((node.lineno, node.arg))
    return found


def _mode_reads(text):
    """``(line, scope)`` of every read of an ``rng_mode`` attribute in
    ``text``, ``scope`` being the dotted chain of enclosing classes and
    functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr == "rng_mode"
                and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "")
    return found


def test_one_randomness_object_per_run():
    from repro.sim.distribution import ShardSpec
    from repro.sim.network import PeerStreams, SharedStream
    from repro.sim.scenario import Scenario, ScenarioConfig

    assert _rng_parameters(
        "def send(a, rng_for_src=None,\n"
        "         b: Optional[np.random.Generator] = None,\n"
        "         c: np.random.Generator = None, d: Optional[int] = None):\n"
        "    pass\n"
    ) == [(1, "rng_for_src"), (2, "b")]
    assert _mode_reads(
        "class Scenario:\n"
        "    def __init__(self, config):\n"
        "        self.perpeer = config.rng_mode == 'perpeer'\n"
        "def pick(scenario):\n"
        "    return scenario.config.rng_mode\n"
        "config = replace(config, rng_mode='perpeer')\n"
    ) == [(3, "Scenario.__init__"), (5, "pick")]
    src = ROOT / "src" / "repro"
    parameters, reads = [], []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        name = path.relative_to(src).as_posix()
        if name.startswith(("sim/", "p2pclass/")):
            parameters += [
                f"{name}:{line} {arg}" for line, arg in _rng_parameters(text)
            ]
        reads += [
            f"{name}:{line} {scope or '<module>'}"
            for line, scope in _mode_reads(text)
            if scope not in _MODE_SCOPES
        ]
    assert parameters == []
    assert reads == []

    for mode, layout in (("stream", SharedStream), ("perpeer", PeerStreams)):
        scenario = Scenario(ScenarioConfig(
            num_peers=4, shard=ShardSpec(num_peers=4), rng_mode=mode,
            churn="exponential",
        ))
        assert type(scenario.streams) is layout
        assert scenario.network.streams is scenario.streams
        assert scenario.churn_driver.streams is scenario.streams


_SHARDED_RUN_FIELDS = ("shards", "executor", "wal", "resume", "faults")
_SHARDED_RUN_MODULES = {
    f"repro.sim.{name}" for name in ("shard", "tcpexec", "wal", "faults")
}


def _sharded_run_imports(text):
    """``(line, module)`` of every import in ``text`` of a sharded-run
    module, function-level imports included."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module]
            names += [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, name) for name in names
            if name in _SHARDED_RUN_MODULES
        ]
    return sorted(found)


def test_the_product_trains_once():
    from repro.core.tagger import SystemConfig

    assert _sharded_run_imports(
        "from repro.sim.shard import ShardedScenario\n"
        "def train():\n"
        "    from repro.sim import network, wal\n"
        "import repro.sim.faults as plan, repro.sim.scenario\n"
    ) == [(1, "repro.sim.shard"), (3, "repro.sim.wal"),
          (4, "repro.sim.faults")]
    flags = {f"--{field}" for field in _SHARDED_RUN_FIELDS}
    commands = _cli_options()
    assert "--overlay" in commands["run"]  # the scan sees the options
    offered = {
        name: sorted(options & flags) for name, options in commands.items()
    }
    assert offered == dict.fromkeys(commands, [])

    fields = {field.name for field in dataclasses.fields(SystemConfig)}
    assert "overlay" in fields
    assert fields.isdisjoint(_SHARDED_RUN_FIELDS)

    core = ROOT / "src" / "repro" / "core"
    imports = [
        f"{path.name}:{line} {module}"
        for path in sorted(core.rglob("*.py"))
        for line, module in _sharded_run_imports(
            path.read_text(encoding="utf-8")
        )
    ]
    assert imports == []


_REMOTE_FLEET = re.compile(
    r"\bssh\b|\.listen\(|\.accept\(|\.bind\(|create_connection|subprocess"
)


def _remote_fleet_lines(text):
    """Line numbers of ``text`` that name a piece of remote placement."""
    return [
        number for number, line in enumerate(text.splitlines(), 1)
        if _REMOTE_FLEET.search(line)
    ]


#: one planted line per piece of remote placement (each must be caught),
#: and lines a forked fleet writes that merely look alike (none may be)
_PLANTED_REMOTE_LINES = {
    "ssh": "argv = ['ssh', host, 'repro', 'worker']",
    "listen": "listener.listen(4)",
    "accept": "conn, _ = listener.accept()",
    "bind": "sock.bind(('127.0.0.1', 0))",
    "create_connection": "socket.create_connection((host, port))",
    "subprocess": "import subprocess",
}
_FORKED_FLEET_LINES = {
    "bind_heartbeat": "injector.bind_heartbeat(heartbeat)",
    "socketpair": "ours, theirs = socket.socketpair()",
    "ssh-substring": "sshd = classhash = None",
}


@pytest.mark.parametrize(
    "line, caught",
    [(line, True) for line in _PLANTED_REMOTE_LINES.values()]
    + [(line, False) for line in _FORKED_FLEET_LINES.values()],
    ids=[*_PLANTED_REMOTE_LINES, *_FORKED_FLEET_LINES],
)
def test_the_remote_fleet_pattern_catches_each_planted_line(line, caught):
    text = f"import socket\n{line}\n"
    assert _remote_fleet_lines(text) == ([2] if caught else [])


def test_every_fleet_worker_is_a_forked_child_on_a_socketpair():
    from repro.sim.scenario import ScenarioConfig

    sim = ROOT / "src" / "repro" / "sim"
    offenders = {
        path.name: lines for path in sorted(sim.glob("*.py"))
        if (lines := _remote_fleet_lines(path.read_text(encoding="utf-8")))
    }
    assert len(list(sim.glob("*.py"))) >= 15  # the package was found
    assert not offenders, offenders
    commands = _cli_options()
    assert "run" in commands and "worker" not in commands
    fields = [field.name for field in dataclasses.fields(ScenarioConfig)]
    assert "shards" in fields
    assert not [name for name in fields if name.startswith("tcp_")]


def _is_self_field(node):
    while isinstance(node, ast.Attribute):
        node = node.value
        if isinstance(node, ast.Name) and node.id == "self":
            return True
    return False


def _is_number(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_number, node.elts))
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _numeric_branches(text, configs):
    """``(line, method)`` of every comparison of a ``self`` field with a
    number literal inside a ``validate`` or ``__post_init__`` of a class
    named in ``configs``."""
    return [
        (compare.lineno, f"{config.name}.{method.name}")
        for config in ast.walk(ast.parse(text))
        if isinstance(config, ast.ClassDef) and config.name in configs
        for method in config.body
        if isinstance(method, ast.FunctionDef)
        and method.name in ("validate", "__post_init__")
        for compare in ast.walk(method)
        if isinstance(compare, ast.Compare)
        and any(map(_is_self_field, [compare.left, *compare.comparators]))
        and any(map(_is_number, [compare.left, *compare.comparators]))
    ]


def _undeclared_numeric_fields(classes):
    from repro.constraints import constraints_of
    from test_config_constraints import numeric_fields

    return [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        for field in numeric_fields(cls)
        if not constraints_of(field)
    ]


def test_every_config_declares_its_constraints_once():
    from repro.constraints import at_least, setting
    from test_config_constraints import config_classes

    assert _numeric_branches(
        "class C:\n"
        "    def validate(self):\n"
        "        check(self)\n"
        "        if self.x <= 0:\n"
        "            raise ValueError\n"
        "        if not 0 < self.rate.value < math.inf or self.k in (1, 2):\n"
        "            raise ValueError\n"
        "        if self.shards and self.rng_mode != 'perpeer':\n"
        "            raise ValueError\n"
        "    def rule(self):\n"
        "        return self.x < 1\n"
        "class Message:\n"
        "    def __post_init__(self):\n"
        "        if self.size_bytes < 0:\n"
        "            raise ValueError\n",
        {"C"},
    ) == [(4, "C.validate"), (6, "C.validate"), (6, "C.validate")]

    @dataclasses.dataclass
    class Planted:
        declared: int = setting(1, at_least(1))
        window: float = 60.0
        spans: typing.Tuple[int, int] = (1, 2)
        name: str = "x"
        flag: bool = False

    assert _undeclared_numeric_fields([Planted]) == [
        "Planted.window", "Planted.spans",
    ]

    classes = config_classes()
    assert {"ScenarioConfig", "ShardSpec", "WorkloadConfig", "GeneratorConfig",
            "SystemConfig", "PaceConfig", "PrivatePaceConfig", "CemparConfig",
            "NBAggConfig", "CentralizedConfig", "LocalOnlyConfig",
            "PreprocessingPipeline"} <= set(classes)
    assert _undeclared_numeric_fields(classes.values()) == []
    src = ROOT / "src" / "repro"
    branches = [
        f"{path.relative_to(src).as_posix()}:{line} {method}"
        for path in sorted(src.rglob("*.py"))
        for line, method in _numeric_branches(
            path.read_text(encoding="utf-8"), set(classes)
        )
    ]
    assert branches == []


_FAULT_PLANE_NAMES = {"fault_hook", "injector", "FaultPlan", "recovering"}


def _fault_plane_names(text):
    """``(line, name)`` of every name in ``text`` that is one of the fault
    plane's: identifiers, attributes, definitions, parameters, keywords
    and imports — not comments or strings."""
    found = []
    for node in ast.walk(ast.parse(text)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.keyword):
            names = [node.arg]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
            names += [alias.name for alias in node.names]
        found += [
            (node.lineno, name) for name in names if name in _FAULT_PLANE_NAMES
        ]
    return sorted(set(found))


#: one planted line per way a fault-plane name comes back (each must be
#: caught), and lines that only mention one (none may be)
_PLANTED_FAULT_LINES = {
    "attribute": "runtime.fault_hook = None",
    "parameter": "def worker_main(sock, recovering): pass",
    "import": "from repro.sim.faults import FaultPlan",
    "keyword": "_run_worker(channel, fault_hook=hook)",
    "variable": "injector = None",
    "class": "class FaultPlan: pass",
}
_MENTION_LINES = {
    "comment": "x = 1  # a recovering worker arms no injector",
    "string": "x = 'fault_hook'",
    "prefix": "recovering_slots = injectors = None",
}


@pytest.mark.parametrize(
    "line, caught",
    [(line, True) for line in _PLANTED_FAULT_LINES.values()]
    + [(line, False) for line in _MENTION_LINES.values()],
    ids=[*_PLANTED_FAULT_LINES, *_MENTION_LINES],
)
def test_the_fault_plane_scan_catches_each_planted_line(line, caught):
    text = f"import os\n{line}\n"
    assert bool(_fault_plane_names(text)) is caught
    assert all(number == 2 for number, _ in _fault_plane_names(text))


def test_the_fault_plane_lives_in_the_tests():
    import importlib.util

    from repro.sim.scenario import ScenarioConfig

    assert importlib.util.find_spec("repro.sim.scenario") is not None
    assert importlib.util.find_spec("repro.sim.faults") is None
    fields = [field.name for field in dataclasses.fields(ScenarioConfig)]
    assert "wal" in fields and "faults" not in fields
    sim = ROOT / "src" / "repro" / "sim"
    offenders = {
        path.name: names for path in sorted(sim.glob("*.py"))
        if (names := _fault_plane_names(path.read_text(encoding="utf-8")))
    }
    assert len(list(sim.glob("*.py"))) >= 15  # the package was found
    assert not offenders, offenders
