"""Write tests/golden/fixture.json, the fixture graph's outputs and launch records,
and tests/golden/tune.json, the trials of tuning jobs on its conv workloads.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/make_fixture_golden.py

For each seed 0-19 of ``fixtures.ssd_like_inputs``, then each seed 0-1
of the tied draw (:func:`tied_inputs`, whose NMS candidates share
scores), and each placement (all-GPU, fallback with multibox and NMS on
the CPU, all-CPU) it keeps:

- each output's dtype, shape and the sha256 of its bytes;
- each launch record as (kernel, [grid, block, shared_slots], sha256 of
  the little-endian int64 work counts, barriers, divergence events);
- each GPU conv node's ``tune.proxy_timer`` cost as ``float.hex``.

Every fifth seed runs race-checked.

For each of the graph's conv workloads (c1, c2, cls and loc) it runs
``tune_model`` jobs of the benchmark's shape, under ``tune.proxy_timer``:
budget 8 in batches of 4 at tuner seeds 0-2, and one random-search job
(batch 8) at seed 0, each into a fresh records file. Per job it keeps
each trial's config, ``float.hex`` of its cost mean and std, its repeats,
failure flag and error, and the records file's lines with each record's
``created_at`` cut out.

``test_golden_fixture.py`` recomputes the entries and names the first
that differs. Rewriting the file is a
deliberate act: the change that does it says which entries moved and why.
"""

import hashlib
import json
import platform
import re
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from edgegraph import graph
from edgegraph.conv import ConvWorkload
from edgegraph.graph import DEFAULT_GPU_OPS, assign_devices, insert_copies, load_graph, run_graph
from edgegraph.simt import GPU, Session
from edgegraph.tensor import Tensor
from edgegraph.tune import proxy_timer, records_load, tune_model
from fixtures import ssd_like_doc, ssd_like_inputs

GOLDEN = Path(__file__).resolve().parent / "golden" / "fixture.json"
TUNE_GOLDEN = GOLDEN.with_name("tune.json")
SEEDS = range(20)
TIED_SEEDS = range(2)
RACE_CHECK_EVERY = 5
PLACEMENTS = {
    "all_gpu": DEFAULT_GPU_OPS,
    "fallback": DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"},
    "all_cpu": frozenset(),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def _conv_proxy_costs(costs: list):
    """Append the proxy cost of each conv the graph launches to ``costs``."""
    scheduled = graph.conv2d_scheduled

    def timed(inp, wgt, wl, cfg, session=None):
        out = scheduled(inp, wgt, wl, cfg, session=session)
        costs.append(float.hex(proxy_timer(lambda: session, wl, cfg)))
        return out

    graph.conv2d_scheduled = timed
    try:
        yield
    finally:
        graph.conv2d_scheduled = scheduled


def tied_inputs(seed: int) -> dict:
    """``ssd_like_inputs(seed)`` with the image and the weights that feed the
    class scores rounded to multiples of 0.5. The scores are then exact sums
    of few terms, so dozens of NMS candidates tie, and the kept rows and
    their order rest on the sort's tie order."""
    inputs = ssd_like_inputs(seed)
    for name in ("data", "w1", "w2", "w_cls"):
        inputs[name] = Tensor.from_array(np.round(inputs[name].to_array() * 2) / 2)
    return inputs


def _entries(placed: dict, inputs, seeds, **label) -> list:
    entries = []
    for seed in seeds:
        race_check = seed % RACE_CHECK_EVERY == 0
        for name, g in placed.items():
            sess, costs = Session(race_check), []
            with _conv_proxy_costs(costs):
                outs = run_graph(g, inputs(seed), sess)
            gpu_convs = [n.id for n in graph.topo_order(g) if n.op == "conv2d" and n.device == GPU]
            entries.append({
                **label,
                "seed": seed,
                "placement": name,
                "race_check": race_check,
                "outputs": {k: {"dtype": t.dtype, "shape": list(t.shape),
                                "sha256": _sha(t.to_array().tobytes())} for k, t in outs.items()},
                "launches": [[r.kernel, [r.config.grid, r.config.block, r.config.shared_slots],
                              _sha(r.work.astype("<i8").tobytes()), r.barriers, r.divergence_events]
                             for r in sess.records],
                "conv_proxy": dict(zip(gpu_convs, costs, strict=True)),
            })
    return entries


def fixture_entries() -> list:
    """One entry per (seed, placement), in seed then placement order: the
    ssd_like draws, then the tied draws, labelled ``"draw": "tied"``."""
    doc = ssd_like_doc()
    placed = {name: insert_copies(assign_devices(load_graph(doc), ops))
              for name, ops in PLACEMENTS.items()}
    return _entries(placed, ssd_like_inputs, SEEDS) + _entries(placed, tied_inputs, TIED_SEEDS, draw="tied")


# the fixture graph's conv workloads (tests/fixtures.py)
TUNE_CONVS = {
    "c1": ConvWorkload(n=1, c=3, h=16, w=16, k=8, r=3, s=3, pad=(1, 1)),
    "c2": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1)),
    "cls": ConvWorkload(n=1, c=8, h=8, w=8, k=6, r=1, s=1),
    "loc": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=1, s=1),
}
TUNE_BUDGET, TUNE_BATCH = 8, 4
# (batch, tuner seed) of each job: model-guided at seeds 0-2, then random search
TUNE_JOBS = [(TUNE_BATCH, seed) for seed in range(3)] + [(TUNE_BUDGET, 0)]
_CREATED_AT = re.compile(r'"created_at": [^,]*, ')


def _hex(x):
    return None if x is None else float.hex(x)


def tune_entries() -> list:
    """One entry per (workload, job), in workload then job order."""
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for node, wl in TUNE_CONVS.items():
            for batch, seed in TUNE_JOBS:
                path = Path(tmp, f"{node}-{batch}-{seed}.jsonl")
                tune_model(wl, TUNE_BUDGET, batch=batch, seed=seed, timer=proxy_timer, records_path=path)
                entries.append({
                    "node": node,
                    "batch": batch,
                    "seed": seed,
                    "trials": [[r.config.as_dict(), _hex(r.cost_mean), _hex(r.cost_std), r.repeats,
                                r.failed, r.error] for r in records_load(path)],
                    "lines": [_CREATED_AT.sub("", line)
                              for line in path.read_text(encoding="utf-8").splitlines()],
                })
    return entries


def _stamped(entries: list) -> dict:
    return {
        "written_by": "tests/make_fixture_golden.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entries": entries,
    }


def golden() -> dict:
    return _stamped(fixture_entries())


def tune_golden() -> dict:
    return _stamped(tune_entries())


def _write(path: Path, doc: dict) -> None:
    entries = doc.pop("entries")
    # one line per entry, so a diff names the entry that moved
    head = json.dumps(doc, indent=1)[:-2]
    body = ",\n  ".join(json.dumps(e) for e in entries)
    path.write_text(f'{head},\n "entries": [\n  {body}\n ]\n}}\n')
    print(f"wrote {path}")


def main() -> int:
    _write(GOLDEN, golden())
    _write(TUNE_GOLDEN, tune_golden())
    return 0


if __name__ == "__main__":
    sys.exit(main())
