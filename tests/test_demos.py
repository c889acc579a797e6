"""The demo scripts run cleanly and reproduce their tracked outputs.

The demos run from a copy of ``demos/`` so the repository's own
``demos/output/`` is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Run every demo once in a fresh copy; returns the copy and each
    script's completed process."""
    copy = tmp_path_factory.mktemp("demos") / "demos"
    shutil.copytree(DEMOS, copy, ignore=shutil.ignore_patterns("output", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {script: subprocess.run([sys.executable, script], cwd=copy, env=env,
                                   capture_output=True, text=True, timeout=120)
            for script in SCRIPTS}
    return copy, runs


def test_all_four_demos_found():
    assert SCRIPTS == ["custom_metric.py", "debug_captures.py",
                       "genre_separation.py", "quickstart.py"]


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_exits_cleanly(demo_runs, script):
    proc = demo_runs[1][script]
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["notes.debug.csv", "quickstart_vectors.csv"])
def test_demo_output_matches_tracked_file(demo_runs, name):
    produced = demo_runs[0] / "output" / name
    assert produced.read_bytes() == (DEMOS / "output" / name).read_bytes()
