"""Differential test of the executor: random graphs over every op kind,
random GPU subsets, race-checked, against all-CPU placement."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegraph.graph import OPS, assign_devices, insert_copies, load_graph, run_graph
from edgegraph.simt import Session


@st.composite
def graphs(draw):
    """A graph document using every op kind, with its inputs."""
    c = draw(st.integers(1, 2))
    h, w = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    k = draw(st.integers(1, 3))
    groups = draw(st.sampled_from([g for g in (1, 2) if c % g == k % g == 0]))
    r = draw(st.sampled_from([1, 3]))
    pad = draw(st.integers(0, r // 2))
    # a dilated filter still fits the padded map: (r - 1) * dilation <= extent + 2 * pad - 1
    dilation = [draw(st.integers(1, 2 if r == 1 or (e + 2 * pad - 1) // (r - 1) >= 2 else 1)) for e in (h, w)]
    stride = [draw(st.integers(1, 2)), draw(st.integers(1, 2))]
    oh, ow = ((e + 2 * pad - d * (r - 1) - 1) // sd + 1 for e, d, sd in zip((h, w), dilation, stride))
    kh, kw = draw(st.integers(1, oh)), draw(st.integers(1, ow))
    pool = {"kernel": kh, "kernel_w": kw, "stride": draw(st.integers(1, 3)), "stride_w": draw(st.integers(1, 3))}
    ph, pw = (oh - kh) // pool["stride"] + 1, (ow - kw) // pool["stride_w"] + 1
    kinds = st.sampled_from(["inclusive", "exclusive"])
    anchors = draw(st.integers(1, 12))
    boxes = draw(st.integers(1, 12))
    nms = lambda: {
        "iou_threshold": draw(st.sampled_from([0.3, 0.5, 1.0])),
        "score_threshold": draw(st.sampled_from([0.0, 0.2])),
        "top_k": draw(st.none() | st.integers(1, 8)),
        "max_output": draw(st.none() | st.integers(1, 8)),
    }
    nodes = [
        {"id": "conv", "op": "conv2d", "inputs": ["x", "w"],
         "attrs": {"pad": [pad, pad], "stride": stride, "dilation": dilation, "groups": groups}},
        {"id": "act", "op": "relu", "inputs": ["conv"]},
        {"id": "sum", "op": "add", "inputs": ["conv", "act"]},
        {"id": "pool", "op": "pool", "attrs": pool, "inputs": ["sum"]},
        {"id": "flat", "op": "reshape", "attrs": {"shape": [k * ph * pw]}, "inputs": ["pool"]},
        {"id": "moved", "op": "copy", "inputs": ["flat"]},
        {"id": "same", "op": "identity", "inputs": ["moved"]},
        {"id": "rank", "op": "argsort", "inputs": ["same"], "attrs": {
            "order": draw(st.sampled_from(["ascending", "descending"])), "block": draw(st.integers(1, 16))}},
        {"id": "fsum", "op": "scan", "inputs": ["same"],
         "attrs": {"kind": draw(kinds), "p": draw(st.integers(1, 9))}},
        {"id": "isum", "op": "scan", "inputs": ["rank"],
         "attrs": {"kind": draw(kinds), "p": draw(st.integers(1, 9))}},
        {"id": "roi", "op": "roi_align", "inputs": ["act", "rois"], "attrs": {
            "output_size": [draw(st.integers(1, 3)), draw(st.integers(1, 3))],
            "sampling_ratio": draw(st.integers(1, 3))}},
        {"id": "mbx", "op": "multibox_detection", "inputs": ["probs", "locs", "anchors"],
         "attrs": {**nms(), "variances": [draw(st.sampled_from([0.1, 0.2, 1.0])) for _ in range(4)]}},
        {"id": "mnms", "op": "box_nms", "inputs": ["mbx"], "attrs": nms()},
        {"id": "nms", "op": "box_nms", "inputs": ["boxes"], "attrs": nms()},
    ]
    assert {n["op"] for n in nodes} == set(OPS)
    # and every attr of every kind, but the label insert_copies writes on a copy
    assert ({(n["op"], a) for n in nodes for a in n.get("attrs", {})}
            == {(op, a) for op, kind in OPS.items() for a in kind.attrs} - {("copy", "direction")})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f32 = lambda a: np.asarray(a, np.float32)
    corners = lambda m, span: np.sort(rng.random((m, 2, 2)) * span, axis=1).reshape(m, 4)  # x1 y1 x2 y2
    probs = rng.random((1, 3, anchors))
    inputs = {
        "x": f32(rng.standard_normal((1, c, h, w))),
        "w": f32(rng.standard_normal((k, c // groups, r, r)) * 0.5),
        "rois": f32(corners(draw(st.integers(1, 3)), max(ph, 1) * 2)),
        "probs": f32(probs / probs.sum(axis=1, keepdims=True)),
        "locs": f32(rng.standard_normal((1, 4 * anchors)) * 0.2),
        "anchors": f32(corners(anchors, 1.0)[None]),
        "boxes": f32(np.concatenate([rng.integers(-1, 3, (boxes, 1)), rng.random((boxes, 1)),
                                     corners(boxes, 1.0)], axis=1)),
    }
    spec = {name: {"shape": list(a.shape), "dtype": "f32"} for name, a in inputs.items()}
    outputs = ["fsum", "isum", "roi", "mnms", "nms"]
    return json.dumps({"nodes": nodes, "inputs": spec, "outputs": outputs}), inputs


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(graphs(), st.sets(st.sampled_from(sorted(OPS))))
def test_random_graphs_bitwise_equal_to_all_cpu(case, gpu_ops):
    text, inputs = case
    want = run_graph(insert_copies(assign_devices(load_graph(text), set())), inputs)
    placed = insert_copies(assign_devices(load_graph(text), gpu_ops))
    got = run_graph(placed, inputs, Session(race_check=True))
    for name, t in want.items():
        assert got[name].dtype == t.dtype and got[name].shape == t.shape, name
        assert got[name].data.tobytes() == t.data.tobytes(), name
