"""Operators launched through ``simt.launch_rows``: race-checked and
unchecked runs agree exactly, and each launch is named after its operator."""

import numpy as np
import pytest

from edgegraph import vision
from edgegraph.graph import assign_devices, load_graph, run_graph
from edgegraph.simt import LaunchConfig, Session
from edgegraph.tensor import Tensor
from fixtures import records_of


def _one_node(op, attrs, *shapes):
    names = [f"x{i}" for i in range(len(shapes))]
    doc = {"nodes": [{"id": "y", "op": op, "attrs": attrs, "inputs": names}],
           "inputs": {n: {"shape": list(s), "dtype": "f32"} for n, s in zip(names, shapes)},
           "outputs": ["y"]}
    g = assign_devices(load_graph(doc), {op})

    def run(sess, rng):
        feeds = {n: Tensor.from_array(rng.standard_normal(s).astype(np.float32))
                 for n, s in zip(names, shapes)}
        return [run_graph(g, feeds, sess)["y"].to_array()]

    return run


def _box_nms(sess, rng):
    n = 150
    rows = np.zeros((n, 6), np.float32)
    rows[:, 0] = rng.integers(-1, 3, n)
    rows[:, 1] = rng.random(n)
    xy = rng.random((n, 2)) * 0.7
    rows[:, 2:4], rows[:, 4:] = xy, xy + rng.random((n, 2)) * 0.3
    return [vision.box_nms(vision.BoxSet.from_array(rows), 0.5, 0.1, session=sess).to_array()]


def _multibox(sess, rng):
    b, a = 2, 45
    probs = rng.random((b, 3, a)).astype(np.float32)
    locs = (rng.standard_normal((b, 4 * a)) * 0.5).astype(np.float32)
    x1 = rng.random((a, 2)) * 0.6
    anchors = np.concatenate([x1, x1 + 0.05 + rng.random((a, 2)) * 0.3], axis=1)[None]
    return [r.to_array() for r in vision.multibox_detection(probs, locs, anchors, session=sess)]


def _roi_align(sess, rng):
    feats = rng.standard_normal((1, 3, 9, 8)).astype(np.float32)
    feats[0, 1, 2, 3] = np.nan
    p = rng.random((21, 2)) * 7
    rois = np.concatenate([p, p + rng.random((21, 2)) * 3], axis=1)
    return [vision.roi_align(feats, rois, (2, 3), 2, session=sess)]


# operator -> (run(session, rng) -> outputs, the names of its launch_rows kernels)
CASES = {
    "relu": (_one_node("relu", {}, (2, 3, 4, 5)), {"_relu.<locals>.<lambda>"}),
    "add": (_one_node("add", {}, (3, 7), (3, 7)), {"add"}),
    "pool": (_one_node("pool", {"kernel": 3, "stride": 2}, (1, 5, 9, 7)), {"_pool.<locals>.<lambda>"}),
    "box_nms": (_box_nms, {"_nms_pass.<locals>.fill_mask", "_nms_pass.<locals>.write_out"}),
    "multibox": (_multibox, {"_multibox.<locals>.decode",
                             "_nms_pass.<locals>.fill_mask", "_nms_pass.<locals>.write_out"}),
    "roi_align": (_roi_align, {"_roi_align.<locals>.pool"}),
}


def _run(run, race_check):
    """Output bits plus the launch records, as tuples."""
    sess = Session(race_check=race_check)
    outs = run(sess, np.random.default_rng(11))
    return [o.view(np.uint32).tobytes() for o in outs], records_of(sess)


@pytest.mark.parametrize("op", sorted(CASES))
def test_row_launches_agree_race_checked_and_unchecked(op):
    run, names = CASES[op]
    unchecked, checked = _run(run, False), _run(run, True)
    assert checked == unchecked
    seen = {name for name, *_ in unchecked[1]}
    # each of the operator's row launches ran, named after it, not after the helper
    assert names <= seen and not any("launch_rows" in n for n in seen)


# sort block -> (grid, block) of each launch over 100 elements: the block sort, one lane per
# sort block, then one merge pass of the 100, 50, 15 or 2 sort blocks in one block
ARGSORT_LAUNCHES = {1: [(100, 1), (1, 100)], 2: [(50, 1), (1, 50)], 7: [(15, 1), (1, 15)],
                    64: [(2, 1), (1, 2)]}


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_segmented_argsort_row_launches_agree_race_checked_and_unchecked(block):
    offsets = np.array([0, 9, 9, 40, 41, 100])  # an empty and a one-element segment
    n = int(offsets[-1])

    def run(sess, rng):
        vals = rng.integers(-3, 3, n).astype(np.float32)  # many ties
        vals[rng.integers(0, n, 8)] = np.nan
        sa = vision.SegmentedArray(values=vals, offsets=offsets)
        outs = [vision.segmented_argsort(sa, order, block=block, session=sess)
                for order in ("ascending", "descending")]
        for order, got in zip(("ascending", "descending"), outs):
            assert np.array_equal(got, vision.argsort_sequential(vals, order, offsets))
        return outs

    unchecked, checked = _run(run, False), _run(run, True)
    assert checked == unchecked
    passes = [LaunchConfig(grid=g, block=b) for g, b in ARGSORT_LAUNCHES[block]]
    launches = unchecked[1]
    assert [config for _, config, *_ in launches] == 2 * passes
    for name, config, items, _, _ in launches:
        assert name == "segmented_argsort.<locals>.rank"
        # lane g stores sort block g: the block sort and the merge pass alike
        lanes = config.grid * config.block
        assert items == [max(0, min(block, n - g * block)) for g in range(lanes)]

