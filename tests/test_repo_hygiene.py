"""Repo-hygiene ratchets: things a fresh clone and a reviewer rely on.

(a) Every ``benchmarks/results/`` file that a test, a benchmark script or
the CI workflow *reads* is tracked by git — the directory is ignored by
default, so a file read unconditionally but never checked in passes on
the author's machine and dies with ``FileNotFoundError`` in a clone.

(b) The runtime ``REPRO_*`` env knobs under ``src/`` are exactly the list
below — a new knob cannot arrive without editing it.
"""

import ast
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNTIME_KNOBS = {
    "REPRO_SCALAR_ROUNDS",
    "REPRO_SCALAR_BROADCAST",
    "REPRO_EXCHANGE_TIMEOUT_S",
    "REPRO_WAL_CURSORS_EVERY",
    "REPRO_TCP_TIMEOUT_S",
    "REPRO_TCP_RETRIES",
    "REPRO_TCP_MAX_RESPAWNS",
    "REPRO_TRACE_BACKEND",
    "REPRO_TRACE_BATCH",
}

_RESULT_NAME = re.compile(
    r'results"\s*/\s*"([\w.-]+)"|benchmarks/results/([\w.-]+)'
)
_READ_CALL = re.compile(r"\bread_text\(|\bread_bytes\(|\bopen\(|\bload\(")


def _python_reads():
    """Result files named inside a statement that also reads a file."""
    reads = set()
    sources = sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "benchmarks").rglob("*.py")
    )
    for path in sources:
        text = path.read_text(encoding="utf-8")
        if "results" not in text:
            continue
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Assign, ast.Expr, ast.Return)):
                continue
            segment = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if _READ_CALL.search(segment):
                for match in _RESULT_NAME.finditer(segment):
                    reads.add(match.group(1) or match.group(2))
    return reads


def _ci_reads():
    """Result files the workflow names outside comments and outside
    upload-artifact ``path:`` lists (those are outputs of the job)."""
    reads = set()
    uploading = False
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    for line in workflow.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if stripped.startswith("- "):
            uploading = False
        if stripped.startswith("path:"):
            uploading = True
        if not uploading:
            reads.update(
                name for _, name in _RESULT_NAME.findall(line) if name
            )
    return reads


def test_every_results_file_that_is_read_is_tracked():
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listing = subprocess.run(
        ["git", "ls-files", "benchmarks/results"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    tracked = {Path(entry).name for entry in listing}
    reads = _python_reads() | _ci_reads()
    # The scanner itself must keep seeing the one known unconditional read.
    assert "e3_smoke_digest.json" in reads
    assert reads <= tracked, (
        f"read by a test/benchmark/CI step but not tracked by git: "
        f"{sorted(reads - tracked)} — re-include them in .gitignore and "
        "check them in"
    )


def test_runtime_env_knobs_are_exactly_the_listed_ones():
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        found.update(
            re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8"))
        )
    found.discard("REPRO_X")  # docstring placeholder in repro.envutil
    assert found == RUNTIME_KNOBS, (
        f"unlisted: {sorted(found - RUNTIME_KNOBS)}, "
        f"gone: {sorted(RUNTIME_KNOBS - found)}"
    )
