"""Every script under ``examples/`` runs to completion at a small size.

An example that nothing runs breaks unseen; a new example needs a row in
``SMOKES`` before this suite passes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: script -> (arguments that keep it small, a line its output must contain)
SMOKES = {
    "delicious_demo.py": (["--users", "6", "--docs", "15"], "-- Library browsing --"),
    "filebrowser_workflow.py": ([], "approved & tagged:"),
    "large_network.py": (["--peers", "40"], "-- P2PDocTagger over 40 peers --"),
    "privacy_demo.py": ([], "Privacy/utility trade-off"),
    "quickstart.py": ([], "global tag cloud:"),
    "tagcloud_explorer.py": ([], "planted bridge recovered:"),
}


def test_every_example_has_a_smoke():
    assert sorted(path.name for path in (ROOT / "examples").glob("*.py")) == sorted(
        SMOKES
    )


@pytest.mark.parametrize("script", sorted(SMOKES))
def test_example_runs_to_completion(script):
    arguments, expected = SMOKES[script]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")]
        + [entry for entry in [os.environ.get("PYTHONPATH")] if entry]
    ))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *arguments],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert expected in result.stdout
