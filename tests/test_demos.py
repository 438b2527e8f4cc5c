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


def run_demo(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    tmpdir = tmp_path / "tmpdir"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert list(tmpdir.iterdir()) == []  # a demo leaves no temporary files behind
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_layout_dp_demo_prints_its_assignments(tmp_path):
    assert run_demo(ROOT / "demos" / "07_layout_dp.py", tmp_path) == (
        "cheap transforms: each node takes its best layout, one repack on the first edge\n"
        "  conv0: NCHW\n"
        "  conv1: NCHWc4\n"
        "  conv2: NCHWc4\n"
        "total cost: 21.5\n"
        "100-unit transforms: the chain settles on one layout, NCHWc4 / NCHWc4 / NCHWc4, total 22.5\n"
    )
