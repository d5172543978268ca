"""Every script in ``examples/`` runs to completion as a user would run it.

Each example is executed in its own interpreter (``python examples/x.py``
with ``src`` on ``PYTHONPATH``) and must exit 0: the examples are the
documented extension points, so a crash there is a broken public API.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}"
    )
