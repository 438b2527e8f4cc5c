"""NMS over (image, class) segments: one pass per batch, equal to the
greedy oracles and to per-image calls, with a mask of candidates x widest
segment and a launch count that does not grow with the batch."""

import json

import numpy as np
import pytest

from edgegraph import vision
from edgegraph.graph import (
    DEFAULT_GPU_OPS,
    GraphExecutionError,
    assign_devices,
    insert_copies,
    load_graph,
    run_graph,
)
from edgegraph.simt import Session
from edgegraph.vision import (
    BoxSet,
    iou,
    box_nms,
    box_nms_batch,
    box_nms_batch_sequential,
    box_nms_sequential,
    multibox_detection,
    multibox_detection_sequential,
)
from edgegraph.vision import boxes as boxes_mod
from edgegraph.vision.boxes import _sources
from fixtures import ssd_like_doc, ssd_like_inputs
from test_vision_boxes import iou_cases, oracle_iou, oracle_multibox, oracle_nms, same_iou


def _rows(rng, n, classes, case=""):
    """(n, 6) float32 box rows of ``classes`` classes, shaped by ``case``."""
    cls = rng.integers(0, classes, n).astype(np.float32)
    score = rng.random(n).astype(np.float32)
    if case == "ties":
        score = np.round(score * 3) / 3
    if case == "nan":
        score[rng.random(n) < 0.2] = np.nan
    if case == "distinct":
        cls = np.arange(n, dtype=np.float32)
    if case == "invalid":
        cls[:] = -1
    xy = rng.random((n, 2)) * 0.6
    corners = np.concatenate([xy, xy + 0.05 + rng.random((n, 2)) * 0.4], axis=1)
    return np.column_stack([cls, score, corners]).astype(np.float32)


def _same(a, b):
    return np.array_equal(np.asarray(a).view(np.uint32), np.asarray(b).view(np.uint32))


# (classes, case, top_k, max_output): a cut by max_output inside a class, a
# top_k cut, NaN and tied scores, one class, all-distinct and all-invalid
CASES = [
    (3, "", None, None),
    (3, "", None, 2),
    (2, "", 5, None),
    (3, "nan", None, 4),
    (3, "ties", 7, 3),
    (1, "", None, None),
    (1, "ties", None, 1),
    (1, "distinct", None, None),
    (3, "invalid", None, None),
]


@pytest.mark.parametrize("race_check", [False, True])
@pytest.mark.parametrize("classes, case, top_k, max_output", CASES)
def test_batch_equals_oracle_and_per_image_calls(classes, case, top_k, max_output, race_check):
    rng = np.random.default_rng(classes * 31 + len(case) + (top_k or 0) + (max_output or 0))
    b, n = 3, 40
    rows = np.stack([_rows(rng, n, classes, case) for _ in range(b)])
    rows[1, :, 1] = 0.01  # an image with no candidate above the threshold
    args = (0.45, 0.05, top_k, max_output)
    want = np.concatenate([oracle_nms(r, *args) for r in rows])
    flat = BoxSet.from_array(rows)
    got = [box_nms_batch(flat, b, *args, session=Session(race_check=race_check)),
           box_nms_batch_sequential(flat, b, *args)]
    singles = [box_nms(BoxSet.from_array(r), *args, session=Session(race_check=race_check))
               for r in rows]
    twins = [box_nms_sequential(BoxSet.from_array(r), *args) for r in rows]
    for out in got:
        assert _same(out.to_array(), want)
    assert _same(np.concatenate([s.to_array() for s in singles]), want)
    assert _same(np.concatenate([s.to_array() for s in twins]), want)
    assert (want[n : 2 * n, 0] == -1).all()


@pytest.mark.parametrize("race_check", [False, True])
def test_multibox_batch_equals_oracles_and_per_image_nms(race_check):
    rng = np.random.default_rng(21)
    b, a = 4, 70
    probs = rng.random((b, 4, a)).astype(np.float32)
    probs[2, 1:] = 0.001  # image 2 has no candidate
    locs = (rng.standard_normal((b, 4 * a)) * 0.4).astype(np.float32)
    xy = rng.random((a, 2)) * 0.6
    anchors = np.concatenate([xy, xy + 0.05 + rng.random((a, 2)) * 0.3], axis=1)[None]
    anchors = anchors.astype(np.float32)
    kwargs = dict(score_threshold=0.1, iou_threshold=0.45, max_output=5)
    outs = [multibox_detection(probs, locs, anchors, session=Session(race_check=race_check),
                               **kwargs),
            multibox_detection_sequential(probs, locs, anchors, **kwargs)]
    for i in range(b):
        decoded = np.column_stack([*vision.boxes.best_foreground_class(probs[i]),
                                   vision.decode_boxes(locs[i], anchors[0])]).astype(np.float32)
        want = oracle_nms(decoded, 0.45, 0.1, max_output=5)
        single = box_nms(BoxSet.from_array(decoded), 0.45, 0.1, max_output=5)
        near = oracle_multibox(probs[i], locs[i], anchors[0], (0.1, 0.1, 0.2, 0.2), 0.1, 0.45)
        for out in outs:
            assert _same(out[i].to_array(), want)
            assert _same(out[i].to_array(), single.to_array())
            kept = out[i].to_array()[:5]
            assert kept.dtype == np.float32 and kept.tobytes() == near[:5].astype(np.float32).tobytes()
    assert (outs[0][2].class_ids == -1).all()


def _launches(run) -> tuple:
    sess = Session()
    run(sess)
    st = sess.stats()
    return st.launches, st.barriers


def test_batched_detection_launch_count_does_not_depend_on_batch():
    rng = np.random.default_rng(3)
    a, n = 100, 90  # past one 64-slot sort block, so the argsort merges
    xy = rng.random((a, 2)) * 0.6
    anchors = np.concatenate([xy, xy + 0.1], axis=1)[None].astype(np.float32)

    def multibox(b):
        probs = rng.random((b, 3, a)).astype(np.float32)
        locs = np.zeros((b, 4 * a), np.float32)
        return _launches(lambda s: multibox_detection(probs, locs, anchors, session=s))

    def graph_nms(b):
        g = insert_copies(assign_devices(load_graph(json.dumps({
            "nodes": [{"id": "y", "op": "box_nms", "attrs": {"iou_threshold": 0.5},
                       "inputs": ["x"]}],
            "inputs": {"x": {"shape": [b, n, 6], "dtype": "f32"}}, "outputs": ["y"]})),
            DEFAULT_GPU_OPS))
        boxes = np.stack([_rows(rng, n, 3) for _ in range(b)])
        return _launches(lambda s: run_graph(g, {"x": boxes}, s))

    for run in (multibox, graph_nms):
        counts = {run(b) for b in (1, 2, 5)}
        assert len(counts) == 1, counts
    assert multibox(1) == (1 + 2 + 2, 0)  # decode, argsort block sort + 1 merge, mask, output
    fixture = insert_copies(assign_devices(load_graph(ssd_like_doc()), DEFAULT_GPU_OPS))
    assert _launches(lambda s: run_graph(fixture, ssd_like_inputs(0), s)) == (17, 0)


def test_mask_is_candidates_by_widest_segment():
    # classes 0/1/2 with 4/3/2 candidates, interleaved in score order
    cls = [0, 1, 0, 2, 1, 0, 2, 1, 0]
    n = len(cls)
    corners = [[0.1 * i, 0.0, 0.1 * i + 0.15, 0.5] for i in range(n)]
    boxes = BoxSet(class_ids=cls, scores=np.linspace(0.9, 0.1, n), corners=corners)
    sess = Session()
    sizes = {}
    alloc = sess.alloc

    def recording(length, dtype="f32", name=""):
        sizes[name] = length
        return alloc(length, dtype, name)

    sess.alloc = recording
    out = box_nms(boxes, 0.3, session=sess)
    assert sizes["nms_mask"] == 9 * 4  # not 9 x 9
    assert [r.work.tolist() for r in sess.records if r.kernel.endswith(".fill_mask")] == [[36]]
    assert _same(out.to_array(), oracle_nms(boxes.to_array(), 0.3, 0.0))


BAD_COUNTS = [True, False, np.nan, float("inf"), 2.5, -3, "3", np.float32(np.nan)]


@pytest.mark.parametrize("param", ["top_k", "max_output"])
@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
def test_top_k_and_max_output_share_one_check(param, bad):
    rows = _rows(np.random.default_rng(0), 12, 2)
    boxes = BoxSet.from_array(rows)
    probs, locs = np.full((1, 3, 4), 0.5, np.float32), np.zeros((1, 16), np.float32)
    anchors = np.full((1, 4, 4), 0.25, np.float32)
    calls = [
        lambda: box_nms(boxes, 0.5, **{param: bad}),
        lambda: box_nms_sequential(boxes, 0.5, **{param: bad}),
        lambda: box_nms_batch(boxes, 2, 0.5, **{param: bad}),
        lambda: box_nms_batch_sequential(boxes, 2, 0.5, **{param: bad}),
        lambda: multibox_detection(probs, locs, anchors, **{param: bad}),
        lambda: multibox_detection_sequential(probs, locs, anchors, **{param: bad}),
    ]
    message = f"{param} must be None or an integer >= 0, got {bad!r}"
    for call in calls:
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == message
    attr = bad.item() if isinstance(bad, np.generic) else bad
    g = load_graph(json.dumps({
        "nodes": [{"id": "y", "op": "box_nms", "attrs": {param: attr}, "inputs": ["x"]}],
        "inputs": {"x": {"shape": [12, 6], "dtype": "f32"}}, "outputs": ["y"]}))
    for gpu_ops in (DEFAULT_GPU_OPS, set()):
        with pytest.raises(GraphExecutionError, match="node 'y'") as e:
            run_graph(insert_copies(assign_devices(g, gpu_ops)), {"x": rows})
        assert f"{param} must be None or an integer >= 0, got {attr!r}" in str(e.value)


@pytest.mark.parametrize("good", [None, 0, 3, np.int64(3), np.int32(2), 4.0])
def test_top_k_and_max_output_accept_counts(good):
    rows = _rows(np.random.default_rng(1), 30, 2)
    boxes = BoxSet.from_array(rows)
    want = oracle_nms(rows, 0.5, 0.0, top_k=good, max_output=good)
    for out in (box_nms(boxes, 0.5, top_k=good, max_output=good),
                box_nms_sequential(boxes, 0.5, top_k=good, max_output=good)):
        assert _same(out.to_array(), want)


@pytest.mark.parametrize("nan", [float("nan"), np.float32("nan")], ids=repr)
def test_a_nan_score_threshold_is_rejected_by_name(nan):
    # NaN fails every score test, so it would suppress every box without a word
    rows = _rows(np.random.default_rng(2), 12, 2)
    boxes = BoxSet.from_array(rows)
    probs, locs = np.full((1, 3, 4), 0.5, np.float32), np.zeros((1, 16), np.float32)
    anchors = np.full((1, 4, 4), 0.25, np.float32)
    calls = [
        lambda: box_nms(boxes, 0.5, nan),
        lambda: box_nms_sequential(boxes, 0.5, nan),
        lambda: box_nms_batch(boxes, 2, 0.5, nan),
        lambda: box_nms_batch_sequential(boxes, 2, 0.5, nan),
        lambda: multibox_detection(probs, locs, anchors, score_threshold=nan),
        lambda: multibox_detection_sequential(probs, locs, anchors, score_threshold=nan),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="score_threshold must not be NaN, got nan"):
            call()
    graphs = {"box_nms": {"x": rows}, "multibox_detection": {"c": probs, "l": locs, "a": anchors}}
    for op, feeds in graphs.items():
        declared = {name: {"shape": list(v.shape), "dtype": "f32"} for name, v in feeds.items()}
        g = load_graph({"nodes": [{"id": "y", "op": op, "attrs": {"score_threshold": float("nan")},
                                   "inputs": list(declared)}], "inputs": declared, "outputs": ["y"]})
        for gpu_ops in (DEFAULT_GPU_OPS, set()):
            with pytest.raises(GraphExecutionError, match="node 'y'.*score_threshold must not be NaN"):
                run_graph(insert_copies(assign_devices(g, gpu_ops)), feeds)


@pytest.mark.parametrize("threshold", [float("inf"), float("-inf")])
def test_infinite_score_thresholds_keep_their_meaning(threshold):
    # +inf keeps only +inf scores, -inf every valid score that is not NaN
    rows = _rows(np.random.default_rng(3), 30, 2)
    rows[[4, 9], 1] = np.inf, -np.inf
    rows[12, 1] = np.nan
    boxes = BoxSet.from_array(rows)
    want = oracle_nms(rows, 0.5, threshold)
    if threshold > 0:
        assert np.count_nonzero(want[:, 0] >= 0) == 1  # row 4 alone
    for out in (box_nms(boxes, 0.5, threshold), box_nms_sequential(boxes, 0.5, threshold)):
        assert _same(out.to_array(), want)


def test_iou_fast_min_max_path_matches_the_scalar_rule():
    # with no NaN in ``a`` iou takes np.fmin/np.fmax; NaN, signed zeros,
    # infinities and zero-width boxes in either side must not show
    rng = np.random.default_rng(8)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1e-300, 0.5, 1.0])
    a = rng.random((60, 4))
    a[:, 2:] = a[:, :2] + rng.random((60, 2)) * 0.5
    b = a[rng.permutation(60)] + rng.normal(0.0, 0.1, (60, 4))
    for side, with_nan in ((a, False), (b, True)):
        hit = rng.random(side.shape) < 0.15
        side[hit] = rng.choice(np.append(special, np.nan) if with_nan else special, hit.sum())
    a[:10, 2] = a[:10, 0]  # zero width
    assert not np.isnan(a).any() and np.isnan(b).any()
    want = [[oracle_iou(p.tolist(), q.tolist()) for q in b] for p in a]
    assert same_iou(iou(a[:, None], b), want)
    assert same_iou([[iou(p, q) for q in b[:5]] for p in a[:5]], [row[:5] for row in want[:5]])


def walk_every_row(mask, first, cands, g, n, rows, max_output):
    """_sources by the plain greedy walk: every mask row in order, each
    segment's removed set restarting at its first row, then each image's
    kept candidates in score order, the first max_output of them; ``rows``,
    the appended all-invalid row, where no candidate is kept."""
    removed, kept = 0, []
    for k, s in enumerate(first.tolist()):
        if k == s:
            removed = 0
        if not removed >> (k - s) & 1:
            kept.append(int(g[k]))
            removed |= sum(1 << t for t in np.flatnonzero(mask[k]).tolist())
    src, slots = [rows] * rows, {}
    for p in sorted(kept):
        img = cands[p] // n
        slot = slots[img] = slots.get(img, -1) + 1
        if max_output is None or slot < max_output:
            src[img * n + slot] = cands[p]
    return src


def sweep_case(rng, images, n, classes, density, most):
    """A random _sources input: up to ``most`` candidates per image in a random score
    order, grouped by (image, class) as _nms_pass groups them, and a mask
    with random bits in each row's part of its segment's upper triangle."""
    cands = np.array([i * n + r for i in range(images)
                      for r in rng.permutation(n)[: rng.integers(0, most + 1)]], np.int64)
    key = (cands // n << 32) | rng.integers(0, classes, len(cands))
    g = np.argsort(key, kind="stable")
    first, end = np.searchsorted(key[g], key[g], "left"), np.searchsorted(key[g], key[g], "right")
    mask = np.zeros((len(cands), int(np.max(end - first, initial=0))), bool)
    for k in range(len(cands)):
        t = np.arange(k + 1 - first[k], end[k] - first[k])
        mask[k, t] = rng.random(len(t)) < density
    return mask, first, cands, g


@pytest.mark.parametrize("density", [0.0, 0.02, 0.2, 0.7])
def test_sweep_of_hit_rows_equals_the_walk_of_every_row(density):
    rng = np.random.default_rng(int(density * 100))
    widths = set()
    for trial in range(60):
        images, n = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        most = 0 if trial % 20 == 0 else n  # no candidate: a 0 x 0 mask
        mask, first, cands, g = sweep_case(rng, images, n, int(rng.integers(1, 5)), density, most)
        widths.add(mask.shape[1])
        for max_output in (None, 0, 1, 3):
            args = (mask, first, cands, g, n, images * n, max_output)
            got = _sources(*args)
            assert got.tolist() == walk_every_row(*args), (trial, max_output)
    assert 0 in widths and len(widths) > 10


@pytest.mark.parametrize("case", ["all_below_threshold", "all_invalid", "max_output_0", "one_kept"])
def test_sources_mark_all_invalid_rows_with_the_appended_row_not_a_negative_index(case, monkeypatch):
    # the output's all-invalid rows read the row appended after the input, by
    # its own index: a device read has no wraparound for -1
    rng = np.random.default_rng(3)
    rows = _rows(rng, 40, 2, "invalid" if case == "all_invalid" else "")
    rows[:, 2:] = [0.1, 0.1, 0.5, 0.5]  # one spot: every pair of a class overlaps
    boxes = BoxSet.from_array(rows)
    threshold = 2.0 if case == "all_below_threshold" else 0.0
    max_output = 0 if case == "max_output_0" else None
    seen = []
    monkeypatch.setattr(boxes_mod, "_sources", lambda *a: seen.append(_sources(*a)) or seen[-1])
    outs = [nms(boxes, 2, 0.5, threshold, None, max_output, **kw).to_array()
            for nms, kw in ((box_nms_batch, {}), (box_nms_batch, {"session": Session(race_check=True)}),
                            (box_nms_batch_sequential, {}))]
    assert len(seen) == 3 and all(np.array_equal(src, seen[0]) for src in seen)
    assert seen[0].min() >= 0 and seen[0].max() <= len(rows)
    kept = {"one_kept": 4}.get(case, 0)  # per image, the top box of each of its 2 classes
    assert np.count_nonzero(seen[0] < len(rows)) == kept
    for got in outs:
        assert _same(got, outs[0])
        assert _same(got[seen[0] == len(rows)], np.full((len(rows) - kept, 6), -1.0, np.float32))
    want = [oracle_nms(rows[i : i + 20], 0.5, threshold, max_output=max_output) for i in (0, 20)]
    assert _same(outs[0], np.concatenate(want))


def test_a_suppressed_box_suppresses_nothing():
    # A removes B; B would remove C, but A and C only touch, so C is kept
    boxes = BoxSet(class_ids=[0, 0, 0], scores=[0.9, 0.8, 0.7],
                   corners=[[0.0, 0.0, 1.0, 1.0], [0.5, 0.0, 1.5, 1.0], [1.0, 0.0, 2.0, 1.0]])
    want = np.concatenate([boxes.to_array()[[0, 2]], np.full((1, 6), -1.0, np.float32)])
    for got in (box_nms(boxes, 0.3), box_nms(boxes, 0.3, session=Session(race_check=True)),
                box_nms_sequential(boxes, 0.3)):
        assert _same(got.to_array(), want)
    assert _same(want, oracle_nms(boxes.to_array(), 0.3, 0.0))


def test_iou_equals_the_scalar_rule_on_special_corners_and_column_major_input():
    rng = np.random.default_rng(12)
    special = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan, 1e-200])
    a, b = iou_cases(rng, 240)
    for side in (a, b):
        hit = rng.random(side.shape) < 0.12
        side[hit] = rng.choice(special, hit.sum())
    # zero area: zero height, and boxes whose area underflows to 0 (union 0)
    a[:12, 3] = a[:12, 1]
    a[12:24] = b[12:24] = [0.0, 0.0, 1e-200, 1e-200]
    a[24:36] = [0.0, 0.0, np.inf, np.inf]
    for x, y in ((a, b), (b, a)):
        want = [oracle_iou(p.tolist(), q.tolist()) for p, q in zip(x, y)]
        assert same_iou(iou(x, y), want)
        assert same_iou(iou(np.asfortranarray(x), np.asfortranarray(y)), want)
    # _suppression_rows' call: a tile of a column-major array against the rest
    xy = np.asfortranarray(np.concatenate([a[:40], b[:40]]))
    want = [[oracle_iou(p.tolist(), q.tolist()) for q in xy[31:]] for p in xy[:30]]
    assert same_iou(iou(xy[:30, None], xy[31:]), want)


@pytest.mark.parametrize("images", [True, False, 2.5, "2", 0, -1, np.nan, None], ids=repr)
def test_images_is_checked_before_anything_else(images):
    # an iou_threshold out of range too: the images check comes first
    boxes = BoxSet.from_array(_rows(np.random.default_rng(2), 12, 2))
    calls = [lambda: box_nms_batch(boxes, images, 1.5),
             lambda: box_nms_batch(boxes, images, 1.5, session=Session(race_check=True)),
             lambda: box_nms_batch_sequential(boxes, images, 1.5)]
    for call in calls:
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == f"images must be >= 1 and an integer, got {images!r}"


@pytest.mark.parametrize("images", [2.0, np.int64(2), np.int32(2), np.float32(2)], ids=repr)
def test_images_accepts_integral_counts(images):
    rows = _rows(np.random.default_rng(3), 12, 2)
    boxes = BoxSet.from_array(rows)
    want = box_nms_batch_sequential(boxes, 2, 0.5).to_array()
    assert _same(want, np.concatenate([oracle_nms(r, 0.5, 0.0) for r in rows.reshape(2, 6, 6)]))
    for got in (box_nms_batch(boxes, images, 0.5),
                box_nms_batch(boxes, images, 0.5, session=Session(race_check=True)),
                box_nms_batch_sequential(boxes, images, 0.5)):
        assert _same(got.to_array(), want)
    for call in (lambda: box_nms_batch(boxes, 5, 0.5), lambda: box_nms_batch_sequential(boxes, 5, 0.5)):
        with pytest.raises(ValueError, match="12 rows do not split into 5 images of equal size"):
            call()


def _broad_phase_rows(rng, n, classes, kind):
    """(n, 6) box rows of ``classes`` classes with distinct scores: ``sparse``
    boxes scattered over the unit square, a ``cluster`` of boxes around one
    point (nearly every pair overlaps along x, and many pairs hit), or
    ``special`` ones: sparse, with NaN, +-inf and -0.0 corners planted, and
    zero-width boxes, boxes that touch along x and duplicates."""
    if kind == "cluster":
        xy = rng.random(2) * 0.5 + rng.normal(0.0, 0.04, (n, 2))
        wh = 0.2 + rng.random((n, 2)) * 0.02
    else:
        xy = rng.random((n, 2))
        wh = 0.04 + rng.random((n, 2)) * 0.12
    corners = np.concatenate([xy, xy + wh], axis=1).astype(np.float32)
    if kind == "special":
        hit = rng.random(corners.shape) < 0.08
        corners[hit] = rng.choice(np.float32([np.nan, np.inf, -np.inf, -0.0, 0.0]), hit.sum())
        corners[: n // 8, 2] = corners[: n // 8, 0]  # zero width
        corners[n // 8 : n // 4, 0] = corners[n // 4 : 3 * n // 8, 2]  # touching along x
        corners[-n // 8 :] = corners[-n // 4 : -n // 8]  # duplicates
        swap = corners[:, :2] > corners[:, 2:]  # keep valid rows ordered, NaN included
        corners[:, :2], corners[:, 2:] = (np.where(swap, corners[:, 2:], corners[:, :2]),
                                          np.where(swap, corners[:, :2], corners[:, 2:]))
    cls = rng.integers(0, classes, n).astype(np.float32)
    return np.column_stack([cls, rng.permutation(n) / np.float32(n), corners]).astype(np.float32)


def _mixed_rows(rng):
    """A tight cluster in class 0 beside sparse classes 1-3, in one call."""
    rows = np.concatenate([_broad_phase_rows(rng, 70, 1, "cluster"),
                           _broad_phase_rows(rng, 90, 3, "sparse") + [1, 0, 0, 0, 0, 0]])
    rows[:, 1] = rng.permutation(len(rows)) / np.float32(len(rows))
    return rows


BROAD_PHASE_LAYOUTS = {
    "sparse, one class": lambda rng: _broad_phase_rows(rng, 150, 1, "sparse"),
    "sparse, many classes": lambda rng: _broad_phase_rows(rng, 160, 6, "sparse"),
    "cluster, one class": lambda rng: _broad_phase_rows(rng, 130, 1, "cluster"),
    "cluster, two classes": lambda rng: _broad_phase_rows(rng, 140, 2, "cluster"),
    "cluster beside sparse classes": _mixed_rows,
    "special corners, one class": lambda rng: _broad_phase_rows(rng, 150, 1, "special"),
    "special corners, many classes": lambda rng: _broad_phase_rows(rng, 160, 5, "special"),
}


def _segments(rows):
    """Candidate corners (float64) in mask-row order, each row's segment
    start and end, and each segment's share of pairs that overlap along x:
    score order, grouped stably by class, as box_nms orders its candidates
    for a score threshold of 0."""
    order = np.argsort(-rows[:, 1].astype(np.float64), kind="stable")
    g = order[np.argsort(rows[order, 0], kind="stable")]
    cls, xy = rows[g, 0], rows[g, 2:].astype(np.float64)
    first, end = np.searchsorted(cls, cls, "left"), np.searchsorted(cls, cls, "right")
    shares = []
    for s in np.unique(first):
        x1, x2 = xy[s : end[s], 0], xy[s : end[s], 2]
        over = np.triu((x1[:, None] < x2) & (x1 < x2[:, None]), 1)
        m = end[s] - s
        shares.append(over.sum() / max(1, m * (m - 1) // 2))
    return xy, first, end, shares


def _all_pairs_mask(rows, thr):
    """The suppression mask from every pair: bit [k, t] iff j = first[k] + t
    is a later box of k's segment and iou(box k, box j) >= thr."""
    xy, first, end, _ = _segments(rows)
    mask = np.zeros((len(xy), int(np.max(end - first, initial=0))), bool)
    for k in range(len(xy)):
        for j in range(k + 1, end[k]):
            mask[k, j - first[k]] = iou(xy[k], xy[j]) >= thr
    return mask


def _mask_range_function(rows, thr):
    """The fill_mask range function and mask width box_nms_sequential builds for ``rows``."""
    caught = {}
    run_rows = vision.boxes.run_rows

    def catch(sess, config, dtype, n, width, fn, name, tile=1):
        if name == "nms_mask":
            caught.update(fn=fn, width=width)
        return run_rows(sess, config, dtype, n, width, fn, name, tile)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vision.boxes, "run_rows", catch)
        box_nms_sequential(BoxSet.from_array(rows), thr)
    return caught["fn"], caught["width"]


@pytest.mark.parametrize("chunk", [7, vision.boxes.PAIR_CHUNK])
@pytest.mark.parametrize("layout", BROAD_PHASE_LAYOUTS)
def test_broad_phase_mask_equals_the_all_pairs_mask(layout, chunk, monkeypatch):
    monkeypatch.setattr(vision.boxes, "PAIR_CHUNK", chunk)  # 7 cuts the pairs mid-window
    rng = np.random.default_rng(sorted(BROAD_PHASE_LAYOUTS).index(layout) + 40)
    rows = BROAD_PHASE_LAYOUTS[layout](rng)
    for thr in (0.2, 0.5):
        want = _all_pairs_mask(rows, thr)
        fill_mask, width = _mask_range_function(rows, thr)
        c = len(want)
        assert width == want.shape[1] and want[:, 1:].any(), layout
        assert np.array_equal(fill_mask(0, c), want)
        for lo in range(0, c, 64):  # each lane's range, as the race-checked launch runs it
            assert np.array_equal(fill_mask(lo, min(c, lo + 64)), want[lo : lo + 64]), lo


def test_broad_phase_layouts_hold_sparse_and_tight_segments():
    rng = np.random.default_rng(7)
    shares = {name: _segments(make(rng))[3] for name, make in BROAD_PHASE_LAYOUTS.items()
              if not name.startswith("special")}
    assert max(shares["sparse, one class"] + shares["sparse, many classes"]) < 0.4
    assert min(shares["cluster, one class"] + shares["cluster, two classes"]) > 0.9
    mixed = sorted(shares["cluster beside sparse classes"])
    assert mixed[-1] > 0.9 and mixed[-2] < 0.4


@pytest.mark.parametrize("layout", BROAD_PHASE_LAYOUTS)
def test_broad_phase_nms_equals_the_oracle(layout):
    rng = np.random.default_rng(sorted(BROAD_PHASE_LAYOUTS).index(layout) + 60)
    rows = BROAD_PHASE_LAYOUTS[layout](rng)
    boxes = BoxSet.from_array(rows)
    for thr in (0.2, 0.5):
        want = oracle_nms(rows.astype(np.float64).tolist(), thr, 0.0)
        for got in (box_nms(boxes, thr), box_nms(boxes, thr, session=Session(race_check=True)),
                    box_nms_sequential(boxes, thr)):
            assert _same(got.to_array(), want)
        half = len(rows) // 2  # two images of the first 2 * half rows
        want = np.concatenate([oracle_nms(r.astype(np.float64).tolist(), thr, 0.0)
                               for r in (rows[:half], rows[half : 2 * half])])
        batch = BoxSet.from_array(rows[: 2 * half])
        for got in (box_nms_batch(batch, 2, thr),
                    box_nms_batch(batch, 2, thr, session=Session(race_check=True)),
                    box_nms_batch_sequential(batch, 2, thr)):
            assert _same(got.to_array(), want)


def _iou_pairs(monkeypatch):
    """Box pairs of each call that reaches iou through the boxes module global."""
    pairs = []
    real = vision.boxes.iou

    def counting(a, b):
        pairs.append(np.broadcast(a, b).size // 4)  # four corners a pair
        return real(a, b)

    monkeypatch.setattr(vision.boxes, "iou", counting)
    return pairs


def test_boxes_apart_along_x_reach_iou_in_no_pair(monkeypatch):
    n = 100
    x = np.arange(n, dtype=np.float32)
    rows = np.column_stack([np.zeros(n), np.linspace(1, 0.01, n), x, np.zeros(n), x + 0.5,
                            np.ones(n)]).astype(np.float32)
    pairs = _iou_pairs(monkeypatch)
    for got in (box_nms(BoxSet.from_array(rows), 0.5), box_nms_sequential(BoxSet.from_array(rows), 0.5)):
        assert _same(got.to_array(), rows)
    assert sum(pairs) == 0


def test_a_sparse_layout_reaches_iou_in_at_most_its_x_overlapping_pairs(monkeypatch):
    rows = _broad_phase_rows(np.random.default_rng(9), 300, 1, "sparse")
    overlapping = sum(s * (300 * 299 // 2) for s in _segments(rows)[3])
    pairs = _iou_pairs(monkeypatch)
    got = box_nms(BoxSet.from_array(rows), 0.5)
    assert 0 < sum(pairs) <= round(overlapping) < 300 * 299 // 8
    assert _same(got.to_array(), oracle_nms(rows.astype(np.float64).tolist(), 0.5, 0.0))


@pytest.mark.parametrize("kind", ["sparse", "cluster"])
def test_nms_host_peak_stays_bounded_on_sparse_and_clustered_layouts(kind):
    """Pair lists go a bounded chunk at a time, so the traced host peak of a
    2,000-box single-class box_nms stays within 1.1x of the 14,571,648
    bytes that 64-row dense tiles peaked at on both layouts, though nearly
    every pair of the tight cluster overlaps along x and y."""
    import tracemalloc

    boxes = BoxSet.from_array(_broad_phase_rows(np.random.default_rng(11), 2000, 1, kind))
    box_nms(boxes, 0.5, session=Session())  # imports and first-call set-up
    tracemalloc.start()
    try:
        box_nms(boxes, 0.5, session=Session())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 14_571_648, f"{peak} bytes"
