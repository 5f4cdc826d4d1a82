"""The call recorder in ``tests/tools/sitecustomize.py`` sees a ``repro`` run
whole: a CLI process, a sharded fleet's parent and every shard worker the
fleet forks report their own (caller, callee) pairs, and no worker repeats
the pairs its parent made before the fork.  Its ``--unreached`` census
lists what the runs never called."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CLI = ("main", "cmd_run")
FLEET = ("run_training_sharded", "ShardedScenario.run")
WORKER = ("TcpCoordinator._forked_worker", "worker_main")


def _pairs(dump):
    """The (caller, callee) qualname pairs one process wrote."""
    return {
        tuple(side.rsplit(":", 1)[-1] for side in row.split("\t")[:2])
        for row in dump.read_text(encoding="utf-8").splitlines()
    }


def test_the_recorder_sees_the_cli_and_its_forked_workers(tmp_path):
    shutil.copy(ROOT / "tests" / "tools" / "sitecustomize.py", tmp_path)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(tmp_path), str(ROOT / "src"), str(ROOT / "tests")]
        ),
    )
    cli = [
        "-m", "repro.cli", "run", "--algorithm", "local",
        "--users", "4", "--docs", "6", "--tags", "4",
    ]
    fleet = [
        "-c", "from determinism_fixtures import run_training_sharded; "
        "run_training_sharded('local', 'chord', 'none', 2, executor='mp')",
    ]
    for argv in (cli, fleet):
        subprocess.run(
            [sys.executable, *argv], cwd=tmp_path, env=env, check=True,
            capture_output=True, timeout=120,
        )
    dumps = [_pairs(dump) for dump in sorted((tmp_path / "calls").iterdir())]
    assert len(dumps) == 4  # the CLI, the fleet and its two forked workers
    assert sum(CLI in pairs for pairs in dumps) == 1
    assert sum(FLEET in pairs for pairs in dumps) == 1
    workers = [pairs for pairs in dumps if WORKER in pairs]
    assert len(workers) == 2
    assert not any(CLI in pairs or FLEET in pairs for pairs in workers)
    # the census mode: every function under src/repro that no dump calls
    census = subprocess.run(
        [
            sys.executable, str(tmp_path / "sitecustomize.py"),
            str(tmp_path / "calls"), "--unreached", str(ROOT / "src" / "repro"),
        ],
        check=True, capture_output=True, text=True, timeout=120,
    )
    unreached = {line.rsplit(":", 1)[-1] for line in census.stdout.splitlines()}
    assert "cmd_overlay" in unreached  # neither run calls that command
    assert "cmd_run" not in unreached
    assert "TcpCoordinator._forked_worker" not in unreached  # seen in a child


def _load_recorder():
    """The recorder as a plain module: loaded, it installs no hooks."""
    spec = importlib.util.spec_from_file_location(
        "call_recorder", ROOT / "tests" / "tools" / "sitecustomize.py"
    )
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


class _Code310:
    """A code object as Python 3.10 shows it: no ``co_qualname``."""

    def __init__(self, code):
        self.co_filename = code.co_filename
        self.co_firstlineno = code.co_firstlineno
        self.co_name = code.co_name


def test_without_co_qualname_a_live_function_keeps_its_full_name():
    from repro.sim.tcpexec import TcpCoordinator

    recorder = _load_recorder()
    code = TcpCoordinator._forked_worker.__code__
    live = recorder._live_qualnames()
    assert live[code] == "TcpCoordinator._forked_worker"
    old = _Code310(code)
    where = recorder._where(old, {old: live[code]})
    assert where.endswith(":TcpCoordinator._forked_worker")
    assert recorder._where(old, {}).endswith(":_forked_worker")


def test_a_failed_dump_still_exits():
    recorder = _load_recorder()
    exits = []

    def broken_dump():
        raise OSError("disk full")

    recorder._dump = broken_dump
    with pytest.raises(OSError):
        recorder._exit(3, _real_exit=exits.append)
    assert exits == [3]
