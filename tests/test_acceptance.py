"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from edgegraph.cli import main
from edgegraph.conv import ConvWorkload, conv2d_reference, conv2d_scheduled, schedule_space
from edgegraph.graph import (
    DEFAULT_GPU_OPS,
    Graph,
    Node,
    assign_devices,
    count_copies,
    insert_copies,
    load_graph,
    run_graph,
)
from edgegraph.simt import Session, log2_ceil
from edgegraph.tune import (
    TuningRecord,
    graph_tune_dp,
    query_best,
    records_append,
    records_load,
    records_save,
    tune_model,
    tune_random,
)
from edgegraph.vision import (
    ScanPlan,
    SegmentedArray,
    box_nms,
    multibox_detection,
    partition_chunks,
    roi_align,
    scan,
    segmented_argsort,
)

from fixtures import ssd_like_doc, ssd_like_inputs
from test_sort import stable_sort_oracle
from test_vision_boxes import oracle_multibox, oracle_nms, rand_boxset
from test_vision_roi import oracle_roi_align


def report(line):
    print(f"\nACCEPTANCE PASS: {line}")


def test_segmented_argsort_thousand_randomized_instances():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    count = 0

    def run_instance(offsets, vals, order, block):
        sa = SegmentedArray(values=vals, offsets=offsets)
        sess = Session()
        got = segmented_argsort(sa, order, block=block, session=sess)
        want = stable_sort_oracle(vals, offsets, order)
        assert np.array_equal(got, want)
        # a block sort, then one merge pass if there is more than one sort block
        assert len(sess.records) == min(2, -(-vals.size // block))

    def random_values(n):
        vals = rng.standard_normal(n).astype(np.float32)
        if n > 8:
            vals[rng.integers(0, n, max(1, n // 50))] = np.nan
            dup = vals[int(rng.integers(0, n))]
            vals[rng.integers(0, n, max(1, n // 20))] = dup
        return vals

    small_blocks = [1, 2, 7, 16, 64, 256, 1024]
    big_blocks = [64, 256, 1024]  # tiny blocks on huge arrays only burn emulator overhead
    # bulk: many small segmented instances, all block sizes
    for trial in range(900):
        nseg = int(rng.integers(1, 40))
        lens = rng.integers(0, 60, nseg)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        vals = random_values(int(offsets[-1]))
        run_instance(offsets, vals, ("ascending", "descending")[trial % 2],
                     small_blocks[trial % len(small_blocks)])
        count += 1
    # medium: up to a thousand segments
    for trial in range(90):
        nseg = 1000 if trial == 0 else int(rng.integers(50, 1000))
        lens = rng.integers(0, 40, nseg)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        vals = random_values(int(offsets[-1]))
        run_instance(offsets, vals, ("ascending", "descending")[trial % 2],
                     big_blocks[trial % len(big_blocks)])
        count += 1
    # large: few segments, n up to 1e5
    for trial in range(10):
        n = 100_000 if trial == 0 else int(rng.integers(30_000, 100_001))
        cuts = np.sort(rng.integers(0, n, int(rng.integers(0, 4))))
        offsets = np.concatenate([[0], cuts, [n]])
        vals = random_values(n)
        run_instance(offsets, vals, ("ascending", "descending")[trial % 2],
                     big_blocks[trial % len(big_blocks)] * 4)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 1000
    assert elapsed < 60.0
    report(f"segmented argsort == stable-sort oracle on {count} instances in {elapsed:.1f}s")


def test_scan_oracle_equality_and_launch_structure():
    rng = np.random.default_rng(7)
    exact_p_cases = 0
    for _ in range(120):
        n = int(rng.integers(2, 5000))
        p = int(rng.integers(1, min(n, 64) + 1))
        vals = rng.integers(-10_000, 10_000, n).astype(np.int32)
        sess = Session()
        got = scan(vals, "inclusive", p=p, session=sess)
        assert np.array_equal(got, np.cumsum(vals.astype(np.int64)).astype(np.int32))
        plan = ScanPlan.for_size(n, p)
        if n > p:
            assert sess.stats().launches == 3
            assert sess.stats().barriers == plan.num_coop_passes == log2_ceil(plan.p)
            if plan.p == p:  # requested processor count used as-is
                assert sess.stats().barriers == log2_ceil(p)
                exact_p_cases += 1
        ex = scan(vals, "exclusive", p=p)
        assert np.array_equal(ex, np.concatenate([[0], np.cumsum(vals.astype(np.int64))[:-1]]).astype(np.int32))
    assert exact_p_cases > 50
    for _ in range(30):
        n = int(rng.integers(2, 20_000))
        p = int(rng.integers(1, min(n, 64) + 1))
        vals = (rng.random(n) + 0.01).astype(np.float32)
        got = scan(vals, "inclusive", p=p)
        want = np.cumsum(vals.astype(np.float64))
        assert np.max(np.abs(got - want) / want) < 1e-5
    report("scan exact on i32, f32 within 1e-5 relative, 3 launches + ceil(log2 p) coop passes")


def test_partition_chunks_reproduces_fixed_assignment():
    lengths = [b - a for a, b in partition_chunks(18, 5)]
    assert lengths == [4, 4, 4, 4, 2]
    report("partition_chunks(18, 5) == [4, 4, 4, 4, 2]")


def test_box_nms_five_hundred_randomized_instances():
    rng = np.random.default_rng(11)
    for trial in range(500):
        n = 500 if trial % 100 == 0 else int(rng.integers(1, 80))
        b = rand_boxset(rng, n)
        thr = float(rng.uniform(0.2, 1.0))
        st = float(rng.uniform(0.0, 0.4))
        top_k = None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        mo = None if rng.random() < 0.7 else int(rng.integers(1, n + 1))
        got = box_nms(b, thr, st, top_k=top_k, max_output=mo).to_array()
        want = oracle_nms(b.to_array(), thr, st, top_k=top_k, max_output=mo)
        assert np.array_equal(got, want), f"trial {trial}"
    report("box_nms == greedy oracle on 500 instances, exact")


def test_multibox_five_hundred_randomized_instances():
    rng = np.random.default_rng(12)
    for trial in range(500):
        cl = int(rng.integers(2, 6))
        a = int(rng.integers(2, 48))
        probs = rng.random((1, cl, a)).astype(np.float32)
        locs = (rng.standard_normal((1, 4 * a)) * 0.5).astype(np.float32)
        x1 = rng.random(a).astype(np.float32) * 0.5
        y1 = rng.random(a).astype(np.float32) * 0.5
        anchors = np.stack(
            [x1, y1, x1 + 0.02 + rng.random(a).astype(np.float32) * 0.45,
             y1 + 0.02 + rng.random(a).astype(np.float32) * 0.45], axis=1
        )[None]
        st = float(rng.uniform(0.05, 0.4))
        thr = float(rng.uniform(0.3, 0.7))
        got = multibox_detection(probs, locs, anchors, score_threshold=st, iou_threshold=thr)[0].to_array()
        want = oracle_multibox(probs[0], locs[0], anchors[0], (0.1, 0.1, 0.2, 0.2), st, thr)
        assert got.dtype == want.dtype and got.shape == want.shape, f"trial {trial}"
        assert got.tobytes() == want.tobytes(), f"trial {trial}"
    report("multibox_detection == decode+NMS oracle bitwise on 500 instances")


def test_roi_align_five_hundred_randomized_instances():
    rng = np.random.default_rng(13)
    for trial in range(500):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(3, 11))
        w = int(rng.integers(3, 11))
        feats = rng.standard_normal((1, c, h, w)).astype(np.float32)
        nroi = int(rng.integers(1, 5))
        x1 = rng.random(nroi) * (w - 1)
        y1 = rng.random(nroi) * (h - 1)
        rois = np.stack(
            [x1, y1, x1 + rng.random(nroi) * (w - x1), y1 + rng.random(nroi) * (h - y1)], axis=1
        ).astype(np.float32)
        size = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        ratio = int(rng.integers(1, 3))
        got = roi_align(feats, rois, size, sampling_ratio=ratio)
        want = oracle_roi_align(feats, rois.tolist(), size, ratio)
        assert got.dtype == want.dtype and got.shape == want.shape, f"trial {trial}"
        assert got.tobytes() == want.tobytes(), f"trial {trial}"
    report("roi_align == per-sample bilinear oracle bitwise on 500 instances")


CONV_WORKLOADS = (
    ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1)),
    ConvWorkload(n=1, c=4, h=9, w=9, k=6, r=3, s=3, stride=(2, 2), pad=(1, 1)),
    ConvWorkload(n=2, c=3, h=6, w=10, k=4, r=1, s=1),
    ConvWorkload(n=1, c=6, h=6, w=6, k=6, r=3, s=3, pad=(1, 1), groups=3),
    ConvWorkload(n=1, c=2, h=12, w=5, k=9, r=3, s=3, pad=(0, 1), dilation=(2, 1)),
)


def test_conv_schedule_space_sweeps_match_reference():
    rng = np.random.default_rng(14)
    assert len(CONV_WORKLOADS) >= 5
    for wl in CONV_WORKLOADS:
        space = schedule_space(wl)
        assert 0 < len(space) <= 2000
        x = rng.standard_normal((wl.n, wl.c, wl.h, wl.w)).astype(np.float32)
        w = rng.standard_normal((wl.k, wl.c // wl.groups, wl.r, wl.s)).astype(np.float32)
        ref = conv2d_reference(x, w, wl)
        for cfg in space:
            sess = Session(race_check=True)
            got = conv2d_scheduled(x, w, wl, cfg, session=sess)
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32)), (wl.key(), cfg)
            assert sess.launch_log[-1].grid == cfg.oc_split * cfg.h_split, (wl.key(), cfg)
    total = sum(len(schedule_space(wl)) for wl in CONV_WORKLOADS)
    report(f"conv2d_scheduled == reference bitwise, race-checked, over {total} configs "
           f"on {len(CONV_WORKLOADS)} workloads")


def test_placement_fallback_structure_and_transparency():
    g = load_graph(ssd_like_doc())
    inputs = ssd_like_inputs()
    fallback = insert_copies(assign_devices(g, DEFAULT_GPU_OPS - {"box_nms"}))
    assert count_copies(fallback) == 2
    again = insert_copies(fallback)
    assert count_copies(again) == 2 and len(again.nodes) == len(fallback.nodes)
    all_gpu = insert_copies(assign_devices(g, DEFAULT_GPU_OPS))
    out_gpu = run_graph(all_gpu, inputs)["r3"]
    out_fb = run_graph(fallback, inputs)["r3"]
    assert np.array_equal(out_gpu.data, out_fb.data)
    report("fallback placement: 2 copy nodes, idempotent, outputs bit-identical")


def test_graph_tune_dp_exhaustive_on_200_chains():
    rng = np.random.default_rng(15)
    layouts = ["NCHW", "NCHWc2", "NCHWc4", "OIHW"]
    for trial in range(200):
        n = int(rng.integers(1, 11))
        nl = int(rng.integers(1, 5))
        nodes = [
            Node(id=f"n{i}", op="relu", inputs=([] if i == 0 else [f"n{i-1}"])) for i in range(n)
        ]
        g = Graph(nodes=nodes, inputs={}, outputs=[f"n{n-1}"])
        cost_arr = rng.integers(0, 50, (n, nl)).astype(float)
        table = rng.integers(0, 25, (nl, nl)).astype(float)
        np.fill_diagonal(table, 0.0)
        costs = {f"n{i}": {layouts[j]: cost_arr[i, j] for j in range(nl)} for i in range(n)}
        idx = {layouts[j]: j for j in range(nl)}

        def tc(s, d, shape):
            return table[idx[s], idx[d]]

        _, total = graph_tune_dp(g, costs, tc)
        combos = np.stack(np.unravel_index(np.arange(nl**n), (nl,) * n), axis=1)
        brute = np.zeros(len(combos))
        for i in range(n):
            brute += cost_arr[i, combos[:, i]]
        for i in range(n - 1):
            brute += table[combos[:, i], combos[:, i + 1]]
        assert total == pytest.approx(float(brute.min())), f"trial {trial}"
    report("graph_tune_dp == exhaustive optimum on 200 random chains")


def test_search_reaches_optimum_and_model_needs_half_the_trials():
    wl = ConvWorkload(n=1, c=4, h=6, w=6, k=4, r=3, s=3, pad=(1, 1))
    target = (2, 3, 6, 1)

    def surface(run, wl_, cfg):
        cost = 0.1 + 0.05 * (1 - cfg.unroll)
        for v, t in zip((cfg.oc_split, cfg.h_split, cfg.w_tile, cfg.vec), target):
            cost += (math.log2(v) - math.log2(t)) ** 2
        return cost

    space = schedule_space(wl)
    exhaustive = min(space, key=lambda c: surface(None, wl, c))
    best_cost = surface(None, wl, exhaustive)

    rec = tune_random(wl, budget=len(space), seed=0, repeats=1, timer=surface)
    assert rec.config == exhaustive and rec.cost_mean == pytest.approx(best_cost)

    # trials random search needed = optimum's position in its visit order
    rng = np.random.default_rng(0)
    visit = [space[i] for i in rng.permutation(len(space))]
    random_needed = visit.index(exhaustive) + 1
    model_budget = max(2, random_needed // 2)
    rec_m = tune_model(wl, budget=model_budget, batch=8, seed=0, repeats=1, timer=surface)
    assert rec_m.config == exhaustive and rec_m.cost_mean == pytest.approx(best_cost)
    report(
        f"tune_random exhaustive optimum; tune_model found it in {model_budget} trials "
        f"(random needed {random_needed})"
    )


def test_records_database_round_trip_and_monotone_best(tmp_path):
    wl = ConvWorkload(n=1, c=4, h=6, w=6, k=4, r=3, s=3, pad=(1, 1))
    space = schedule_space(wl)
    rng = np.random.default_rng(16)
    records = [
        TuningRecord(wl.key(), space[int(rng.integers(0, len(space)))],
                     float(rng.random()), float(rng.random()) * 1e-3, 3, "emu", 1700000000.0 + i)
        for i in range(10_000)
    ]
    path = tmp_path / "records.jsonl"
    records_save(records, str(path))
    blob = path.read_bytes()
    loaded = records_load(str(path))
    assert loaded == records
    records_save(loaded, str(path))
    assert path.read_bytes() == blob

    path2 = tmp_path / "grow.jsonl"
    best_seen = math.inf
    for i in range(0, 2000, 100):
        records_append(records[i : i + 100], str(path2))
        best = query_best(records_load(str(path2)), wl.key()).cost_mean
        assert best <= best_seen
        best_seen = best
    report("records DB: 10k-record byte round trip, best query monotone under appends")


def test_cmd_bench_reproduces_paper_speedup_arithmetic(capsys):
    assert main(["bench", "6429.69", "1097.47"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[-1].split()[-1]) == 5.86

    assert main(["bench", "1045", "26.58"]) == 0
    out = capsys.readouterr().out
    speedup = float(out.splitlines()[-1].split()[-1])
    assert round(speedup, 1) == 39.3
    report("cmd_bench: 6429.69/1097.47 -> 5.86; 1045/26.58 -> 39.3 at 1 decimal")
