"""Write tests/golden/fixture.json, the fixture graph's outputs and launch records.

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

Every fifth seed runs race-checked. ``test_golden_fixture.py`` recomputes
the entries and names the first that differs. Rewriting the file is a
deliberate act: the change that does it says which entries moved and why.
"""

import hashlib
import json
import platform
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from edgegraph import graph
from edgegraph.graph import DEFAULT_GPU_OPS, assign_devices, insert_copies, load_graph, run_graph
from edgegraph.simt import GPU, Session
from edgegraph.tensor import Tensor
from edgegraph.tune import proxy_timer
from fixtures import ssd_like_doc, ssd_like_inputs

GOLDEN = Path(__file__).resolve().parent / "golden" / "fixture.json"
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


def golden() -> dict:
    return {
        "written_by": "tests/make_fixture_golden.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entries": fixture_entries(),
    }


def main() -> int:
    doc = golden()
    entries = doc.pop("entries")
    # one line per entry, so a diff names the (seed, placement) that moved
    head = json.dumps(doc, indent=1)[:-2]
    body = ",\n  ".join(json.dumps(e) for e in entries)
    GOLDEN.write_text(f'{head},\n "entries": [\n  {body}\n ]\n}}\n')
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
