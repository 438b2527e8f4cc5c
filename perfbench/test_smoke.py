"""Smoke test of the benchmark: every metric it declares shows up, checked.

Runs perfbench/run.py briefly in both modes and compares the printed
metrics with BENCHMARK.json and perfbench/metrics.json, and checks that
a traced request counts the program's work and not its output checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DOC = json.loads((HERE / "metrics.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_docs_cover_every_declared_name():
    assert [w["name"] for w in SPEC["workloads"]] == list(DOC["workloads"])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(DOC["end_to_end"])
    layered = [name for layer in DOC["layers"].values() for name in layer["metrics"]]
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(layered)
    for m in DOC["end_to_end"].values():
        assert m["workload"] in set(DOC["workloads"]) | {"all"}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric(trace, section):
    proc = bench("--workload", "detect", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name in want:
        assert any(line.startswith(name + " ") for line in lines[:-1]), name
    notes = json.loads(lines[-2])
    assert {"python", "numpy", "machine", "nproc", "commit", "seed"} <= set(notes["stamp"])
    assert all(t["failed"] == 0 for t in notes["requests"].values())


def test_traced_nms_request_counts_only_the_program_call():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads as W
    from clock import Clock
    from tracing import Tracer

    def traced_iou_calls(fn):
        tracer = Tracer(W.NODE_OF_KEY)
        tracer.install()
        try:
            fn()
        finally:
            tracer.uninstall()
        return tracer.count["boxes.iou_calls"]

    ops = W.Ops(5, Clock())
    j = W.OPS_ROUND.index("nms")
    # the first, untraced, request computes the reference outputs it is checked against
    ops.request(j)
    _, call, _, _ = ops.case(j)
    alone = traced_iou_calls(call)
    assert alone > 0
    assert traced_iou_calls(lambda: ops.request(j)) == W.OPS_REPEATS["nms"] * alone


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "ops", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
