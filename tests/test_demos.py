"""Every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    tmpdir = tmp_path / "tmpdir"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert list(tmpdir.iterdir()) == []  # a demo leaves no temporary files behind
