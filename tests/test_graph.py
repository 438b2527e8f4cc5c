"""Graph loading, two-pass placement, copy insertion, executor."""

import json
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from edgegraph.graph import (
    DEFAULT_GPU_OPS,
    OPS,
    GraphError,
    GraphExecutionError,
    assign_devices,
    count_copies,
    insert_copies,
    load_graph,
    run_graph,
    topo_order,
)
from edgegraph.simt import CPU, GPU, DeviceBuffer, Session
from edgegraph.tensor import Tensor

from fixtures import records_of, ssd_like_doc, ssd_like_inputs


def doc(nodes, inputs=None, outputs=None):
    return json.dumps({"nodes": nodes, "inputs": inputs or {}, "outputs": outputs or []})


def independent_topo_check(g):
    """Every node appears after all of its producers."""
    pos = {n.id: i for i, n in enumerate(topo_order(g))}
    ids = {n.id for n in g.nodes}
    for n in g.nodes:
        for ref in n.inputs:
            if ref in ids:
                assert pos[ref] < pos[n.id]


def test_minimal_identity_graph():
    g = load_graph(doc(
        [{"id": "a", "op": "identity", "inputs": ["x"]}],
        inputs={"x": {"shape": [2, 2], "dtype": "f32"}},
        outputs=["a"],
    ))
    assert len(g.nodes) == 1
    assert g.nodes[0].device == "unassigned"


def test_missing_reference_names_node():
    with pytest.raises(GraphError, match="a"):
        load_graph(doc([{"id": "a", "op": "relu", "inputs": ["ghost"]}]))


def test_unknown_op_kind_rejected():
    with pytest.raises(GraphError, match="warp_drive"):
        load_graph(doc([{"id": "a", "op": "warp_drive", "inputs": []}]))


def test_cycle_rejected():
    with pytest.raises(GraphError, match="cycle"):
        load_graph(doc([
            {"id": "a", "op": "relu", "inputs": ["b"]},
            {"id": "b", "op": "relu", "inputs": ["a"]},
        ]))


def test_duplicate_id_rejected():
    with pytest.raises(GraphError, match="duplicate"):
        load_graph(doc([
            {"id": "a", "op": "relu", "inputs": []},
            {"id": "a", "op": "relu", "inputs": []},
        ]))


XY = {"x": {"shape": [2]}, "y": {"shape": [2]}}
RELU_A = {"id": "a", "op": "relu", "inputs": ["x"]}


@pytest.mark.parametrize("document, message", [
    ({"nodes": [{"id": "a", "op": "add", "inputs": "xy"}], "inputs": XY}, "node 'a': .* 'inputs' a list"),
    ({"nodes": [RELU_A, dict(RELU_A, id="b")], "inputs": XY, "outputs": "ab"}, "'outputs' list"),
    ({"nodes": [RELU_A, 5], "inputs": XY}, "node is not an object with a string id: 5"),
    ({"nodes": [dict(RELU_A, attrs=[1])], "inputs": XY}, "node 'a': 'attrs' must be an object"),
    ({"nodes": [RELU_A], "inputs": {"x": {"shape": 2}}}, "graph input 'x' must be an object whose 'shape' is a list"),
    ({"nodes": [RELU_A], "inputs": {"x": [2]}}, "graph input 'x' must be an object"),
    ({"nodes": [RELU_A], "inputs": ["x"]}, "'inputs' object"),
    ({"nodes": {"a": RELU_A}, "inputs": XY}, "'nodes' list"),
    ({"nodes": [dict(RELU_A, inputs=[["x"]])], "inputs": XY}, "node 'a': reference to missing tensor \\['x'\\]"),
    ({"nodes": [dict(RELU_A, op=["relu"])], "inputs": XY}, "node 'a': unknown op kind \\['relu'\\]"),
    ({"nodes": [RELU_A], "inputs": XY, "outputs": [["a"]]}, "graph output \\['a'\\] is not a node id"),
], ids=["node-inputs-string", "outputs-string", "node-not-object", "attrs-list", "input-shape-int",
        "input-spec-list", "inputs-list", "nodes-object", "node-input-list", "op-list", "output-list"])
def test_a_part_of_the_wrong_json_type_is_rejected_by_name(document, message):
    with pytest.raises(GraphError, match=message):
        load_graph(json.dumps(document))


def test_ssd_fixture_loads_with_stable_topo_order():
    g = load_graph(ssd_like_doc())
    assert len(g.nodes) == 12
    independent_topo_check(g)
    assert [n.id for n in topo_order(g)] == [n.id for n in topo_order(g)]


def test_assign_devices_all_gpu_and_all_cpu():
    g = load_graph(ssd_like_doc())
    all_gpu = assign_devices(g, DEFAULT_GPU_OPS)
    assert all(n.device == GPU for n in all_gpu.nodes)
    all_cpu = assign_devices(g, set())
    assert all(n.device == CPU for n in all_cpu.nodes)


def test_assign_devices_by_op_kind():
    g = load_graph(doc([
        {"id": "a", "op": "conv2d", "inputs": ["x", "w"]},
        {"id": "b", "op": "box_nms", "inputs": ["a"]},
        {"id": "c", "op": "relu", "inputs": ["b"]},
    ], inputs={"x": {"shape": [1]}, "w": {"shape": [1]}}))
    placed = assign_devices(g, {"conv2d", "relu"})
    assert [n.device for n in placed.nodes] == [GPU, CPU, GPU]


def test_assign_devices_requires_fresh_graph():
    g = assign_devices(load_graph(ssd_like_doc()), DEFAULT_GPU_OPS)
    with pytest.raises(GraphError):
        assign_devices(g, DEFAULT_GPU_OPS)


def test_insert_copies_homogeneous_unchanged():
    g = assign_devices(load_graph(ssd_like_doc()), DEFAULT_GPU_OPS)
    placed = insert_copies(g)
    assert count_copies(placed) == 0
    assert len(placed.nodes) == len(g.nodes)


def test_insert_copies_counts_cross_device_edges():
    g = load_graph(doc([
        {"id": "a", "op": "conv2d", "inputs": ["x", "w"]},
        {"id": "b", "op": "box_nms", "inputs": ["a"]},
        {"id": "c", "op": "relu", "inputs": ["b"]},
    ], inputs={"x": {"shape": [1]}, "w": {"shape": [1]}}))
    placed = insert_copies(assign_devices(g, {"conv2d", "relu"}))
    # oracle: count device-differing edges of the pass-1 graph
    pass1 = assign_devices(g, {"conv2d", "relu"})
    dev = {n.id: n.device for n in pass1.nodes}
    want = sum(1 for u, v in pass1.edges() if dev[u] != dev[v])
    assert want == 2
    assert count_copies(placed) == want
    directions = sorted(n.attrs["direction"] for n in placed.nodes if n.op == "copy")
    assert directions == ["CPU->GPU", "GPU->CPU"]
    independent_topo_check(placed)


def test_one_copy_per_edge_for_multi_consumer_producer():
    g = load_graph(doc([
        {"id": "prod", "op": "box_nms", "inputs": ["boxes"]},
        {"id": "use1", "op": "relu", "inputs": ["prod"]},
        {"id": "use2", "op": "relu", "inputs": ["prod"]},
    ], inputs={"boxes": {"shape": [4, 6]}}))
    placed = insert_copies(assign_devices(g, {"relu"}))
    assert count_copies(placed) == 2  # one per device-differing edge, not per producer
    copy_inputs = sorted(n.inputs[0] for n in placed.nodes if n.op == "copy")
    assert copy_inputs == ["prod", "prod"]


def test_insert_copies_idempotent():
    g = load_graph(ssd_like_doc())
    placed = insert_copies(assign_devices(g, DEFAULT_GPU_OPS - {"box_nms"}))
    again = insert_copies(placed)
    assert count_copies(again) == count_copies(placed) == 2
    assert [n.id for n in again.nodes] == [n.id for n in placed.nodes]


def test_insert_copies_requires_devices():
    with pytest.raises(GraphError):
        insert_copies(load_graph(ssd_like_doc()))


def test_run_identity_graph():
    g = load_graph(doc(
        [{"id": "a", "op": "identity", "inputs": ["x"]}],
        inputs={"x": {"shape": [2, 3], "dtype": "f32"}},
        outputs=["a"],
    ))
    x = Tensor.from_array(np.arange(6, dtype=np.float32).reshape(2, 3))
    out = run_graph(g, {"x": x})
    assert np.array_equal(out["a"].data, x.data)


def test_conv_relu_chain_matches_composed_oracle():
    g = load_graph(doc(
        [
            {"id": "conv", "op": "conv2d", "attrs": {"pad": [1, 1]}, "inputs": ["x", "w"]},
            {"id": "act", "op": "relu", "inputs": ["conv"]},
        ],
        inputs={"x": {"shape": [1, 2, 5, 5], "dtype": "f32"}, "w": {"shape": [3, 2, 3, 3], "dtype": "f32"}},
        outputs=["act"],
    ))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    from edgegraph.conv import ConvWorkload, conv2d_reference

    wl = ConvWorkload(n=1, c=2, h=5, w=5, k=3, r=3, s=3, pad=(1, 1))
    want = np.maximum(conv2d_reference(x, w, wl), 0.0)
    for gpu_ops in (DEFAULT_GPU_OPS, set()):
        placed = insert_copies(assign_devices(g, gpu_ops))
        got = run_graph(placed, {"x": x, "w": w})["act"]
        assert np.array_equal(got.to_array(), want)


def test_fixture_outputs_bitwise_independent_of_placement():
    g = load_graph(ssd_like_doc())
    inputs = ssd_like_inputs()
    runs = {}
    for name, ops in (
        ("all_gpu", DEFAULT_GPU_OPS),
        ("nms_fallback", DEFAULT_GPU_OPS - {"box_nms"}),
        ("vision_fallback", DEFAULT_GPU_OPS - {"box_nms", "multibox_detection"}),
        ("all_cpu", set()),
    ):
        placed = insert_copies(assign_devices(g, ops))
        runs[name] = run_graph(placed, inputs)["r3"]
    base = runs["all_gpu"]
    for name, t in runs.items():
        assert np.array_equal(t.data, base.data), name


def test_gpu_run_goes_through_emulator():
    g = load_graph(ssd_like_doc())
    placed = insert_copies(assign_devices(g, DEFAULT_GPU_OPS))
    sess = Session()
    run_graph(placed, ssd_like_inputs(), session=sess)
    assert sess.stats().launches > 5
    cpu_sess = Session()
    cpu = insert_copies(assign_devices(g, set()))
    run_graph(cpu, ssd_like_inputs(), session=cpu_sess)
    assert cpu_sess.stats().launches == 0


def test_partially_placed_graph_rejected():
    g = load_graph(ssd_like_doc())
    half = assign_devices(g, DEFAULT_GPU_OPS)
    half.nodes[3] = type(half.nodes[3])(
        id=half.nodes[3].id, op=half.nodes[3].op, attrs=half.nodes[3].attrs,
        inputs=half.nodes[3].inputs, device="unassigned",
    )
    with pytest.raises(GraphError, match="placement incomplete"):
        run_graph(half, ssd_like_inputs())


def test_missing_input_names_it():
    g = load_graph(doc(
        [{"id": "a", "op": "identity", "inputs": ["x"]}],
        inputs={"x": {"shape": [2]}},
        outputs=["a"],
    ))
    with pytest.raises(GraphExecutionError, match="x"):
        run_graph(g, {})


def test_shape_mismatch_names_node():
    g = load_graph(doc(
        [{"id": "bad_add", "op": "add", "inputs": ["x", "y"]}],
        inputs={"x": {"shape": [2]}, "y": {"shape": [3]}},
        outputs=["bad_add"],
    ))
    with pytest.raises(GraphExecutionError, match="bad_add"):
        run_graph(g, {"x": np.zeros(2, np.float32), "y": np.zeros(3, np.float32)})


def test_scan_and_argsort_ops_device_transparent():
    g = load_graph(doc(
        [
            {"id": "sorted", "op": "argsort", "attrs": {"order": "descending", "block": 3},
             "inputs": ["x"]},
            {"id": "summed", "op": "scan", "attrs": {"kind": "exclusive", "p": 4}, "inputs": ["x"]},
        ],
        inputs={"x": {"shape": [50], "dtype": "f32"}},
        outputs=["sorted", "summed"],
    ))
    x = np.random.default_rng(1).standard_normal(50).astype(np.float32)
    gpu = run_graph(insert_copies(assign_devices(g, DEFAULT_GPU_OPS)), {"x": x})
    cpu = run_graph(insert_copies(assign_devices(g, set())), {"x": x})
    assert np.array_equal(gpu["sorted"].data, cpu["sorted"].data)
    assert np.array_equal(gpu["summed"].data, cpu["summed"].data)


def test_roi_align_op_device_transparent():
    g = load_graph(doc(
        [{"id": "pooled", "op": "roi_align", "attrs": {"output_size": [2, 2], "sampling_ratio": 2}, "inputs": ["f", "r"]}],
        inputs={"f": {"shape": [1, 2, 6, 6], "dtype": "f32"}, "r": {"shape": [2, 4], "dtype": "f32"}},
        outputs=["pooled"],
    ))
    rng = np.random.default_rng(2)
    f = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
    r = np.array([[0.5, 0.5, 4, 4], [1, 1, 5, 5]], np.float32)
    gpu = run_graph(insert_copies(assign_devices(g, DEFAULT_GPU_OPS)), {"f": f, "r": r})
    cpu = run_graph(insert_copies(assign_devices(g, set())), {"f": f, "r": r})
    assert np.array_equal(gpu["pooled"].data, cpu["pooled"].data)


def test_roi_align_node_rejects_batched_features_on_every_placement():
    g = load_graph(doc(
        [{"id": "pooled", "op": "roi_align", "attrs": {"output_size": [2, 2]}, "inputs": ["f", "r"]}],
        inputs={"f": {"shape": [2, 2, 6, 6], "dtype": "f32"}, "r": {"shape": [1, 4], "dtype": "f32"}},
        outputs=["pooled"],
    ))
    f = np.ones((2, 2, 6, 6), np.float32)
    r = np.array([[0.5, 0.5, 4, 4]], np.float32)
    errors = []
    for gpu_ops in (DEFAULT_GPU_OPS, set()):
        with pytest.raises(GraphExecutionError, match=r"features must be \(1, C, H, W\)") as e:
            run_graph(insert_copies(assign_devices(g, gpu_ops)), {"f": f, "r": r})
        errors.append(str(e.value))
    assert errors[0] == errors[1]


def test_box_nms_node_runs_each_image_of_a_batch_separately():
    g = load_graph(doc(
        [{"id": "kept", "op": "box_nms", "attrs": {"iou_threshold": 0.5}, "inputs": ["boxes"]}],
        inputs={"boxes": {"shape": [2, 1, 6], "dtype": "f32"}},
        outputs=["kept"],
    ))
    row = [0.0, 0.9, 0.1, 0.1, 0.5, 0.5]
    boxes = np.array([[row], [row]], np.float32)
    for gpu_ops in (DEFAULT_GPU_OPS, set()):
        out = run_graph(insert_copies(assign_devices(g, gpu_ops)), {"boxes": boxes})["kept"]
        assert out.shape == (2, 1, 6)
        assert np.array_equal(out.to_array(), boxes)


def test_input_dtype_must_match_declaration():
    g = load_graph(doc(
        [{"id": "a", "op": "identity", "inputs": ["x"]}],
        inputs={"x": {"shape": [3], "dtype": "i32"}},
        outputs=["a"],
    ))
    with pytest.raises(GraphExecutionError, match="dtype"):
        run_graph(g, {"x": np.array([1.5, 2.0, 3.0], np.float32)})
    out = run_graph(g, {"x": np.array([1, 2, 3], np.int32)})["a"]
    assert out.dtype == "i32"


CONV, RELU = "conv2d_scheduled.<locals>.kernel", "_relu.<locals>.<lambda>"
# box_nms on the GPU: the argsort's block sort and one merge, then the mask and the output
NMS = ["segmented_argsort.<locals>.rank"] * 2 + ["_nms_pass.<locals>.fill_mask",
                                                  "_nms_pass.<locals>.write_out"]
FIXTURE_KERNELS = [CONV, RELU, "_pool.<locals>.<lambda>", CONV, RELU, CONV, CONV,
                   "_multibox.<locals>.decode", *NMS, *NMS, RELU]


def test_all_gpu_fixture_inference_launches_and_barriers():
    from test_row_launches import CASES

    g = insert_copies(assign_devices(load_graph(ssd_like_doc()), DEFAULT_GPU_OPS))
    sess = Session()
    run_graph(g, ssd_like_inputs(0), sess)
    st = sess.stats()
    assert st.launches == 17
    assert st.barriers == 0
    assert [r.kernel for r in sess.records] == FIXTURE_KERNELS
    # each name but conv's and the argsort's is one that the row-launch cases pin
    assert set(FIXTURE_KERNELS) - {CONV, NMS[0]} <= set().union(*(names for _, names in CASES.values()))
    log = sess.launch_log
    assert log == [r.config for r in sess.records]
    log.clear()  # a fresh list each time
    assert len(sess.launch_log) == 17


@pytest.mark.parametrize("race_check", [False, True])
def test_record_counters_sum_to_the_session_stats(race_check):
    from edgegraph.conv import conv2d_scheduled, schedule_space
    from edgegraph.vision import scan
    from test_conv import DIFFERENTIAL_WORKLOADS

    sess = Session(race_check)
    g = insert_copies(assign_devices(load_graph(ssd_like_doc()), DEFAULT_GPU_OPS))
    run_graph(g, ssd_like_inputs(1), sess)
    scan(np.arange(18, dtype=np.int32), p=5, session=sess)  # coop_scan passes 3 barriers
    wl = DIFFERENTIAL_WORKLOADS["loc"]
    cfg = next(c for c in schedule_space(wl) if c.w_tile * c.vec > wl.ow)  # lanes past ow are idle
    rng = np.random.default_rng(2)
    conv2d_scheduled(rng.standard_normal((1, 8, 8, 8)).astype(np.float32),
                     rng.standard_normal((8, 8, 1, 1)).astype(np.float32), wl, cfg, session=sess)
    st, recs = sess.stats(), sess.records
    assert st.launches == len(recs) == 17 + 3 + 1
    assert st.barriers == sum(r.barriers for r in recs) == recs[18].barriers == 3
    idle = cfg.oc_split * cfg.h_split * (cfg.w_tile * cfg.vec - wl.ow)
    assert st.divergence_events == sum(r.divergence_events for r in recs) == recs[-1].divergence_events == idle
    assert st.per_thread_items == recs[-1].work.tolist()


@pytest.mark.parametrize("seed", range(4))
def test_lane_form_launches_record_what_per_lane_launches_record(seed):
    # the unchecked run calls each lane-form kernel once over every lane;
    # the race-checked run calls it once per lane
    g = load_graph(ssd_like_doc())
    for ops in (DEFAULT_GPU_OPS, DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"}):
        placed = insert_copies(assign_devices(g, ops))
        runs = [Session(race_check) for race_check in (False, True)]
        outs = [run_graph(placed, ssd_like_inputs(seed), sess)["r3"].to_array().tobytes()
                for sess in runs]
        assert outs[0] == outs[1]
        assert records_of(runs[0]) == records_of(runs[1])
        assert len(runs[0].records) == (17 if ops == DEFAULT_GPU_OPS else 8)


def pool_oracle(x, kh, kw, sh, sw):
    """Max pooling by a plain loop over output cells."""
    n, c, h, w = x.shape
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.empty((n, c, oh, ow), np.float32)
    for i in range(oh):
        for j in range(ow):
            out[:, :, i, j] = x[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw].max(axis=(2, 3))
    return out


def pool_graph(attrs, shape):
    return load_graph(doc(
        [{"id": "p", "op": "pool", "attrs": attrs, "inputs": ["x"]}],
        inputs={"x": {"shape": list(shape), "dtype": "f32"}},
        outputs=["p"],
    ))


POOL_WINDOWS = [
    {"kernel": 2, "stride": 2},
    {"kernel": 3, "stride": 2},
    {"kernel": 3, "stride": 1},
    {"kernel": 2, "stride": 3},
    {"kernel": 3, "kernel_w": 2, "stride": 1, "stride_w": 2},
    {"kernel": 2, "kernel_w": 4, "stride": 2, "stride_w": 1},
    {"kernel": 2, "kernel_w": 3, "stride": 1, "stride_w": 1},
]


@pytest.mark.parametrize("attrs", POOL_WINDOWS)
def test_pool_windows_equal_loop_oracle_on_every_placement(attrs):
    x = np.random.default_rng(3).standard_normal((2, 3, 7, 7)).astype(np.float32)
    g = pool_graph(attrs, x.shape)
    kh = attrs["kernel"]
    kw = attrs.get("kernel_w", kh)
    want = pool_oracle(x, kh, kw, attrs["stride"], attrs.get("stride_w", attrs["stride"]))
    got = [run_graph(insert_copies(assign_devices(g, ops)), {"x": x}, Session(race_check=True))["p"]
           for ops in (DEFAULT_GPU_OPS, set())]
    assert got[0].data.tobytes() == got[1].data.tobytes()
    assert np.array_equal(got[0].to_array(), want)


def window_max_oracle(x, kh, kw, sh, sw):
    """Max pooling as one max over a sliding-window view's window axes."""
    win = sliding_window_view(x, (kh, kw), axis=(-2, -1))
    return win[..., ::sh, ::sw, :, :].max(axis=(-2, -1))


@pytest.mark.parametrize("attrs", POOL_WINDOWS)
@pytest.mark.parametrize("seed", range(3))
def test_pool_of_signed_zeros_nans_and_infs_is_bitwise_the_window_max(attrs, seed):
    # which of +0.0 and -0.0 wins a tie, and that NaN wins, must not move
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0], np.float32)
    x = specials[np.random.default_rng(seed).integers(0, specials.size, (2, 3, 7, 7))]
    g = pool_graph(attrs, x.shape)
    kh, sh = attrs["kernel"], attrs["stride"]
    want = window_max_oracle(x, kh, attrs.get("kernel_w", kh), sh, attrs.get("stride_w", sh))
    for ops in (DEFAULT_GPU_OPS, set()):
        got = run_graph(insert_copies(assign_devices(g, ops)), {"x": x}, Session(race_check=True))["p"]
        assert got.to_array().tobytes() == want.tobytes(), ops


@pytest.mark.parametrize("attrs, match", [
    ({"kernel": 8}, "larger than the 7x7 map"),
    ({"kernel": 2, "kernel_w": 8}, "larger than the 7x7 map"),
    ({"kernel": 2, "stride": 0}, "must be >= 1"),
    ({"kernel": 2, "stride_w": 0}, "must be >= 1"),
])
def test_pool_bad_window_raises_on_every_placement(attrs, match):
    g = pool_graph(attrs, (1, 1, 7, 7))
    for ops in (DEFAULT_GPU_OPS, set()):
        with pytest.raises(GraphExecutionError, match=match):
            run_graph(insert_copies(assign_devices(g, ops)), {"x": np.ones((1, 1, 7, 7), np.float32)})


@pytest.mark.parametrize("op, attrs, match", [
    ("scan", {"kind": "bogus"}, "kind must be"),
    ("argsort", {"order": "desc"}, "order must be"),
    ("argsort", {"block": 0}, "block must be >= 1"),
])
def test_bad_vision_attrs_raise_the_same_error_on_every_placement(op, attrs, match):
    g = load_graph(doc(
        [{"id": "v", "op": op, "attrs": attrs, "inputs": ["x"]}],
        inputs={"x": {"shape": [5], "dtype": "f32"}},
        outputs=["v"],
    ))
    errors = []
    for ops in (DEFAULT_GPU_OPS, set()):
        with pytest.raises(GraphExecutionError, match=match) as e:
            run_graph(insert_copies(assign_devices(g, ops)), {"x": np.arange(5, dtype=np.float32)})
        errors.append(str(e.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("op, attrs, bad", [
    ("pool", {"kernel": 2.5}, "kernel"),
    ("pool", {"kernel": 2, "stride": 1.9}, "stride"),
    ("pool", {"kernel": True}, "kernel"),
    ("pool", {"kernel": 2, "kernel_w": "2"}, "kernel_w"),
    ("pool", {"kernel": 2, "stride_w": float("nan")}, "stride_w"),
    ("roi_align", {"sampling_ratio": 1.5}, "sampling_ratio"),
    ("roi_align", {"output_size": [2, 2.5]}, "output_size"),
    ("scan", {"p": 2.7}, "p"),
    ("argsort", {"block": 2.5}, "block"),
    ("conv2d", {"groups": 1.5}, "groups"),
    ("conv2d", {"stride": [1.9, 1]}, "stride"),
    ("conv2d", {"pad": [0.5, 0]}, "pad"),
    ("conv2d", {"dilation": [1, 1.5]}, "dilation"),
])
def test_integer_attrs_are_checked_not_truncated_on_every_placement(op, attrs, bad):
    """A non-integral integer attribute is a node error naming the
    attribute, alike on both placements, never a truncated value."""
    feeds = {
        "pool": ({"x": np.ones((1, 1, 6, 6), np.float32)}, ["x"]),
        "roi_align": ({"x": np.ones((1, 2, 6, 6), np.float32),
                       "r": np.array([[0.5, 0.5, 4, 4]], np.float32)}, ["x", "r"]),
        "scan": ({"x": np.arange(9, dtype=np.float32)}, ["x"]),
        "argsort": ({"x": np.arange(9, dtype=np.float32)}, ["x"]),
        "conv2d": ({"x": np.ones((1, 2, 4, 4), np.float32), "r": np.ones((2, 2, 1, 1), np.float32)},
                   ["x", "r"]),
    }
    inputs, refs = feeds[op]
    g = load_graph(doc(
        [{"id": "y", "op": op, "attrs": attrs, "inputs": refs}],
        inputs={k: {"shape": list(v.shape), "dtype": "f32"} for k, v in inputs.items()},
        outputs=["y"],
    ))
    errors = []
    for ops in (DEFAULT_GPU_OPS, set()):
        with pytest.raises(GraphExecutionError, match=rf"node 'y' \({op}\): {bad}\S* must be") as e:
            run_graph(insert_copies(assign_devices(g, ops)), inputs)
        errors.append(str(e.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("size", [7, None])
def test_a_non_sequence_output_size_is_a_named_error_on_every_placement(size):
    g = load_graph(doc(
        [{"id": "y", "op": "roi_align", "attrs": {"output_size": size}, "inputs": ["x", "r"]}],
        inputs={"x": {"shape": [1, 2, 6, 6], "dtype": "f32"}, "r": {"shape": [1, 4], "dtype": "f32"}},
        outputs=["y"],
    ))
    inputs = {"x": np.ones((1, 2, 6, 6), np.float32), "r": np.array([[0.5, 0.5, 4, 4]], np.float32)}
    for ops in (DEFAULT_GPU_OPS, set()):
        with pytest.raises(GraphExecutionError) as e:
            run_graph(insert_copies(assign_devices(g, ops)), inputs)
        assert str(e.value) == f"node 'y' (roi_align): output_size must be two ints >= 1, got {size}"


def test_integral_float_attrs_run_as_ints():
    x = np.random.default_rng(6).standard_normal((1, 2, 7, 7)).astype(np.float32)
    want = pool_oracle(x, 3, 2, 2, 1)
    g = pool_graph({"kernel": 3.0, "kernel_w": 2, "stride": 2.0, "stride_w": 1.0}, x.shape)
    for ops in (DEFAULT_GPU_OPS, set()):
        assert np.array_equal(run_graph(insert_copies(assign_devices(g, ops)), {"x": x})["p"].to_array(), want)


def test_executor_looks_up_vision_and_conv_functions_when_called(monkeypatch):
    # per-layer tracing wraps these module attributes; the executor must
    # call through them, not through references taken at import
    import edgegraph.graph
    import edgegraph.vision

    calls = {"box_nms_batch": 0, "conv2d_scheduled": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(edgegraph.vision, "box_nms_batch")
    counting(edgegraph.graph, "conv2d_scheduled")
    g = insert_copies(assign_devices(load_graph(ssd_like_doc()), DEFAULT_GPU_OPS))
    run_graph(g, ssd_like_inputs(0))
    assert calls == {"box_nms_batch": 1, "conv2d_scheduled": 4}


@pytest.mark.parametrize("stride", [[2], 2, [1, 1, 3]])
def test_conv_pair_attrs_must_be_pairs_on_every_placement(stride):
    g = load_graph(doc(
        [{"id": "y", "op": "conv2d", "attrs": {"stride": stride}, "inputs": ["x", "r"]}],
        inputs={"x": {"shape": [1, 2, 4, 4], "dtype": "f32"}, "r": {"shape": [2, 2, 1, 1], "dtype": "f32"}},
        outputs=["y"],
    ))
    inputs = {"x": np.ones((1, 2, 4, 4), np.float32), "r": np.ones((2, 2, 1, 1), np.float32)}
    for ops in (DEFAULT_GPU_OPS, set()):
        with pytest.raises(GraphExecutionError, match=r"node 'y' \(conv2d\): stride must be a pair"):
            run_graph(insert_copies(assign_devices(g, ops)), inputs)


def test_missing_attr_names_the_node():
    g = load_graph(doc(
        [{"id": "flat", "op": "reshape", "inputs": ["x"]}],
        inputs={"x": {"shape": [2, 3], "dtype": "f32"}},
        outputs=["flat"],
    ))
    with pytest.raises(GraphExecutionError, match=r"node 'flat' \(reshape\): 'shape'"):
        run_graph(g, {"x": np.zeros((2, 3), np.float32)})


@pytest.mark.parametrize("x, message", [
    (np.array([2**40, 3]), "int64 value 1099511627776 does not fit i32"),
    (np.array([5, 2**31], np.uint32), "uint32 value 2147483648 does not fit i32"),
])
def test_graph_inputs_that_do_not_fit_i32_are_rejected(x, message):
    g = load_graph(doc(
        [{"id": "a", "op": "identity", "inputs": ["x"]}],
        inputs={"x": {"shape": [2], "dtype": "i32"}},
        outputs=["a"],
    ))
    with pytest.raises(ValueError, match=message):
        run_graph(g, {"x": x})
    out = run_graph(g, {"x": np.array([7, 2**31 - 1], np.uint32)})["a"]
    assert out.dtype == "i32" and out.to_array().tolist() == [7, 2**31 - 1]


@pytest.mark.parametrize("x, message", [
    (np.array(["a", "b"]), "no tensor dtype for <U1 values"),
    (np.array([1 + 2j, 3]), "no tensor dtype for complex128 values"),
    (np.zeros((2, 0), np.float32), "extents must be positive, got (2, 0)"),
])
def test_graph_input_that_fails_to_convert_names_the_input(x, message):
    g = load_graph(doc(
        [{"id": "a", "op": "identity", "inputs": ["x"]}],
        inputs={"x": {"shape": [2], "dtype": "f32"}},
        outputs=["a"],
    ))
    with pytest.raises(GraphExecutionError, match=re.escape(f"input 'x': {message}")):
        run_graph(g, {"x": x})


@pytest.mark.parametrize("ops", [DEFAULT_GPU_OPS, DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"}])
def test_fixture_run_converts_only_graph_inputs_and_outputs(ops, monkeypatch):
    g = insert_copies(assign_devices(load_graph(ssd_like_doc()), ops))
    inputs = ssd_like_inputs(0)
    calls = {"from_array": 0, "to_array": 0}
    from_array, to_array = Tensor.from_array.__func__, Tensor.to_array

    def counted_from_array(cls, *args, **kwargs):
        calls["from_array"] += 1
        return from_array(cls, *args, **kwargs)

    def counted_to_array(self):
        calls["to_array"] += 1
        return to_array(self)

    monkeypatch.setattr(Tensor, "from_array", classmethod(counted_from_array))
    monkeypatch.setattr(Tensor, "to_array", counted_to_array)
    run_graph(g, inputs)
    assert calls == {"from_array": len(g.outputs), "to_array": len(inputs)}


@pytest.mark.parametrize("ops", [DEFAULT_GPU_OPS, set()])
@pytest.mark.parametrize("target", ["x", "p"])
def test_runner_that_writes_its_input_fails_and_other_consumers_keep_the_value(ops, target, monkeypatch):
    g = load_graph(doc(
        [
            {"id": "p", "op": "relu", "inputs": ["x"]},
            {"id": "seen", "op": "identity", "inputs": [target]},
            {"id": "w", "op": "scan", "inputs": [target]},
        ],
        inputs={"x": {"shape": [4], "dtype": "f32"}},
        outputs=["w"],
    ))
    seen = []

    def spy(node, args, gpu):
        seen.append(args[0])
        return args[0]

    def writer(node, args, gpu):
        args[0][0] = 99.0
        return args[0]

    monkeypatch.setitem(OPS, "identity", spy)
    monkeypatch.setitem(OPS, "scan", writer)
    x = np.array([-1.0, 2.0, -3.0, 4.0], np.float32)
    with pytest.raises(GraphExecutionError, match=r"node 'w' \(scan\): .*read-only"):
        run_graph(insert_copies(assign_devices(g, ops)), {"x": x})
    want = x if target == "x" else np.maximum(x, 0)
    assert np.array_equal(seen[0], want) and seen[0][0] != 99.0
    assert x.tolist() == [-1.0, 2.0, -3.0, 4.0] and x.flags.writeable


@pytest.mark.parametrize("value, dtype, want", [
    (np.array([0.1, -2.5]), np.float32, np.float32([0.1, -2.5])),
    (np.array([7, 2**31 - 1], np.int64), np.int32, np.int32([7, 2**31 - 1])),
])
def test_runner_results_take_the_tensor_dtypes(value, dtype, want, monkeypatch):
    g = load_graph(doc(
        [
            {"id": "y", "op": "identity", "inputs": ["x"]},
            {"id": "z", "op": "copy", "inputs": ["y"]},
        ],
        inputs={"x": {"shape": [2], "dtype": "f32"}},
        outputs=["z"],
    ))
    seen = []

    def spy(node, args, gpu):
        seen.append(args[0])
        return args[0]

    monkeypatch.setitem(OPS, "identity", lambda node, args, gpu: value)
    monkeypatch.setitem(OPS, "copy", spy)
    out = run_graph(g, {"x": np.zeros(2, np.float32)})["z"]
    assert seen[0].dtype == dtype and not seen[0].flags.writeable
    assert np.array_equal(seen[0], want) and np.array_equal(out.to_array(), want)


def test_runner_result_that_does_not_fit_i32_names_the_node(monkeypatch):
    g = load_graph(doc(
        [{"id": "y", "op": "identity", "inputs": ["x"]}],
        inputs={"x": {"shape": [2], "dtype": "f32"}},
        outputs=["y"],
    ))
    monkeypatch.setitem(OPS, "identity", lambda node, args, gpu: np.array([2**40, 3]))
    with pytest.raises(GraphExecutionError, match=r"node 'y' \(identity\): int64 value 1099511627776 does not fit i32"):
        run_graph(g, {"x": np.zeros(2, np.float32)})


def test_executor_holds_the_conv_functions_the_tracer_patches():
    """perfbench/tracing.py patches ``conv2d_reference`` and
    ``conv2d_scheduled`` on ``graph`` and on ``conv`` together, and refuses
    to trace when the two modules hold different objects. So graph keeps
    both names bound to conv's functions, ``conv2d_reference`` too, though
    no placement calls it."""
    from edgegraph import conv, graph

    assert graph.conv2d_reference is conv.conv2d_reference
    assert graph.conv2d_scheduled is conv.conv2d_scheduled


def _with_conv_outputs(doc_text):
    d = json.loads(doc_text)
    d["outputs"] += [n["id"] for n in d["nodes"] if n["op"] == "conv2d"]
    return load_graph(d)


def test_all_cpu_fixture_equals_a_run_on_the_reference_conv(monkeypatch):
    # the CPU conv runner shares the kernel's arithmetic, so the oracle
    # checks it here: every output, conv outputs included, is unchanged
    # when the runner calls the reference instead
    import edgegraph.graph
    from edgegraph.conv import conv2d_reference

    placed = insert_copies(assign_devices(_with_conv_outputs(ssd_like_doc()), set()))
    runs = []
    for host in (edgegraph.graph.conv2d_host, conv2d_reference):
        monkeypatch.setattr(edgegraph.graph, "conv2d_host", host)
        sess = Session()
        runs.append([{k: t.to_array().tobytes() for k, t in run_graph(placed, ssd_like_inputs(seed), sess).items()}
                     for seed in range(20)])
        assert sess.stats().launches == 0
    assert runs[0] == runs[1]


def test_argsort_node_keys_integers_the_same_way_on_every_placement():
    def run(x, ops):
        g = load_graph(doc([{"id": "order", "op": "argsort", "attrs": {"block": 2}, "inputs": ["x"]}],
                           inputs={"x": {"shape": [x.size], "dtype": "i32"}}, outputs=["order"]))
        return run_graph(insert_copies(assign_devices(g, ops)), {"x": x})["order"].to_array()

    errors = []
    for ops in (DEFAULT_GPU_OPS, set()):
        # 2**24 + 1 rounds to 2**24 in float32, the argsort key, so the two would tie
        with pytest.raises(GraphExecutionError, match=r"node 'order' \(argsort\): integer value 16777217 "
                                                      r"does not round-trip through float32") as e:
            run(np.array([16777217, 16777216], np.int32), ops)
        errors.append(str(e.value))
        x = np.array([3, -(1 << 24), 3, 1 << 24, -7, 0, 3], np.int32)
        assert run(x, ops).tolist() == np.argsort(x, kind="stable").tolist()
    assert errors[0] == errors[1]


@pytest.mark.parametrize("race_check", [False, True])
def test_conv_node_schedules_change_launches_not_outputs(race_check):
    # nothing else sets Node.schedule; the runner must honour it on the GPU
    from edgegraph.conv import ScheduleConfig, schedule_space
    from test_conv import DIFFERENTIAL_WORKLOADS

    g = _with_conv_outputs(ssd_like_doc())
    inputs = ssd_like_inputs(3)
    cfgs = {}
    for name in ("c1", "c2", "cls", "loc"):  # in topological order
        space = schedule_space(DIFFERENTIAL_WORKLOADS[name])
        cfgs[name] = space[len(space) // 2]
        assert cfgs[name] != ScheduleConfig()
    want = {k: t.to_array().tobytes()
            for k, t in run_graph(insert_copies(assign_devices(g, set())), inputs).items()}
    for ops, launches in ((DEFAULT_GPU_OPS, 17), (DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"}, 8)):
        placed = insert_copies(assign_devices(g, ops))
        default = run_graph(placed, inputs, Session(race_check))
        for node in placed.nodes:
            node.schedule = cfgs.get(node.id)
        sess = Session(race_check)
        tuned = run_graph(placed, inputs, sess)
        for k in want:
            assert tuned[k].to_array().tobytes() == default[k].to_array().tobytes() == want[k], k
        assert len(sess.records) == launches
        convs = [(r.config.grid, r.config.block) for r in sess.records
                 if r.kernel.startswith("conv2d_scheduled.")]
        assert convs == [(c.oc_split * c.h_split, c.w_tile * c.vec) for c in cfgs.values()]


MALFORMED_CONV_ATTRS = [
    ({"pad": {"a": 1}}, "pad must be a pair, got {'a': 1}"),
    ({"pad": [[1], [1]]}, "pad[0] must be >= 0 and an integer, got [1]"),
    ({"pad": [True, 1]}, "pad[0] must be >= 0 and an integer, got True"),
    ({"pad": [1, 1, 1]}, "pad must be a pair, got [1, 1, 1]"),
    ({"pad": (1, 1.5)}, "pad[1] must be >= 0 and an integer, got 1.5"),
    ({"pad": [-1, 0]}, "pad[0] must be >= 0 and an integer, got -1"),
    ({"stride": 1}, "stride must be a pair, got 1"),
    ({"dilation": [1, np.int64(0)]}, "dilation[1] must be >= 1 and an integer, got np.int64(0)"),
    ({"groups": True}, "groups must be >= 1 and an integer, got True"),
    ({"groups": 2}, "c=2 and k=3 must be divisible by groups=2"),
]


@pytest.mark.parametrize("attrs, message", MALFORMED_CONV_ATTRS)
def test_a_malformed_conv_attr_raises_its_own_error_on_every_placement(attrs, message):
    # a well-formed run of the same attr first, so a key equal to the bad one
    # (True == 1) would be in any memo of the conv's workload
    good = {a: 1 if a == "groups" else [1, 1] for a in attrs}
    doc = lambda at: {"nodes": [{"id": "c", "op": "conv2d", "attrs": at, "inputs": ["x", "w"]}],
                      "inputs": {"x": {"shape": [1, 2, 5, 5]}, "w": {"shape": [3, 2, 3, 3]}}, "outputs": ["c"]}
    rng = np.random.default_rng(0)
    feed = {"x": rng.standard_normal((1, 2, 5, 5)).astype(np.float32),
            "w": rng.standard_normal((3, 2, 3, 3)).astype(np.float32)}
    for ops in (DEFAULT_GPU_OPS, DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"}, set()):
        run_graph(insert_copies(assign_devices(load_graph(doc(good)), ops)), feed)
        bad = insert_copies(assign_devices(load_graph(doc(attrs)), ops))
        for _ in range(2):
            with pytest.raises(GraphExecutionError) as err:
                run_graph(bad, feed)
            assert str(err.value) == f"node 'c' (conv2d): {message}"


def test_conv_workload_memo_holds_at_most_32_and_keys_pairs_by_type():
    from edgegraph import graph
    from edgegraph.conv import ConvWorkload

    for h in range(33):
        wl = graph._conv_workload((1, 1, h + 1, 1), (1, 1, 1, 1), (("pad", (0, 0)),))
        assert graph._conv_workload.cache_info().currsize == min(h + 1, 32)
    assert wl == ConvWorkload(1, 1, 33, 1, 1, 1, 1) and wl.pad == (0, 0)
    with pytest.raises(AttributeError):  # a frozen dataclass, shared by every hit
        wl.h = 1
    # the fixture's list pairs hit one entry per conv node shape after the first run
    g = insert_copies(assign_devices(load_graph(ssd_like_doc()), DEFAULT_GPU_OPS))
    graph._conv_workload.cache_clear()
    for seed in range(3):
        run_graph(g, ssd_like_inputs(seed))
    assert graph._conv_workload.cache_info()[:2] == (8, 4)


# per fixture run: buffers allocated, loads into them and copies out of them. Every
# GPU conv loads data and weights and copies its output out, and every GPU relu and
# pool loads its input, so each GPU-to-GPU edge goes through the host
FIXTURE_TRAFFIC = {"all-GPU": (29, 12, 15), "fallback": (20, 12, 8), "all-CPU": (0, 0, 0)}


def test_fixture_runs_make_a_fixed_number_of_allocs_loads_and_copy_outs(monkeypatch):
    counts = dict.fromkeys(("alloc", "load", "to_numpy"), 0)
    for owner, name in ((Session, "alloc"), (DeviceBuffer, "load"), (DeviceBuffer, "to_numpy")):
        def counted(*args, _call=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    fallback = DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"}
    for placement, gpu_ops in (("all-GPU", DEFAULT_GPU_OPS), ("fallback", fallback), ("all-CPU", set())):
        g = insert_copies(assign_devices(load_graph(ssd_like_doc()), gpu_ops))
        for seed in range(4):
            counts.update(dict.fromkeys(counts, 0))
            run_graph(g, ssd_like_inputs(seed), Session())
            assert tuple(counts.values()) == FIXTURE_TRAFFIC[placement], (placement, seed)
