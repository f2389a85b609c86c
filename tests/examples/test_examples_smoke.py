"""Smoke-run every example script at reduced scale.

The README promises that each walkthrough under ``examples/`` is runnable;
this module holds the promise.  Every script honours the
``REPRO_EXAMPLE_SMOKE`` environment variable (smaller swarms, fewer stream
windows, shorter sweeps), so the whole set executes in seconds while still
driving the real code paths end to end — scenario registry, session
wiring, metrics reporting and the real-network backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _smoke_env() -> dict:
    env = dict(os.environ)
    env["REPRO_EXAMPLE_SMOKE"] = "1"
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


def test_every_example_is_covered():
    names = {path.stem for path in EXAMPLES}
    # The scripts the documentation points at must exist and be picked up.
    assert {"quickstart", "realnet_quickstart"} <= names


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_clean(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        env=_smoke_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited with {completed.returncode}\n"
        f"--- stdout ---\n{completed.stdout}\n--- stderr ---\n{completed.stderr}"
    )
    assert completed.stdout.strip(), f"{script.name} printed nothing"
