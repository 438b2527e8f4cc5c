"""box_nms and multibox detection against straight-line oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegraph.simt import Session
from edgegraph.vision import BoxSet, box_nms, iou, multibox_detection, multibox_detection_sequential
from edgegraph.vision.boxes import _check_multibox, _checked_rows, _detection_rows

INVALID_ROW = [-1.0] * 6


def oracle_iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return 0.0 if union <= 0 else inter / union


def oracle_nms(rows, iou_thr, score_thr, top_k=None, max_output=None):
    """Greedy NMS over (n, 6) rows, written as the plainest possible loop."""
    n = len(rows)
    order = sorted(
        range(n),
        key=lambda i: (math.isnan(rows[i][1]), -rows[i][1] if not math.isnan(rows[i][1]) else 0.0, i),
    )
    cands = []
    for i in order:
        if top_k is not None and len(cands) >= top_k:
            break
        if rows[i][0] < 0 or math.isnan(rows[i][1]) or rows[i][1] < score_thr:
            continue
        cands.append(i)
    cap = len(cands) if max_output is None else min(max_output, len(cands))
    kept = []
    for c in cands:
        if len(kept) >= cap:
            break
        if all(
            not (rows[k][0] == rows[c][0] and oracle_iou(rows[k][2:], rows[c][2:]) >= iou_thr)
            for k in kept
        ):
            kept.append(c)
    out = [INVALID_ROW[:] for _ in range(n)]
    for slot, i in enumerate(kept):
        out[slot] = list(rows[i])
    return np.array(out, np.float32)


def oracle_multibox(probs, locs, anchors, variances, score_thr, iou_thr):
    """Straight-line decode + greedy NMS for one batch element."""
    cl, a = probs.shape
    rows = []
    for i in range(a):
        fg = [float(probs[c, i]) for c in range(1, cl)]
        best = max(range(len(fg)), key=lambda j: (fg[j], -j)) if fg else -1
        score = fg[best] if fg else 0.0
        dx, dy, dw, dh = (float(locs[4 * i + q]) for q in range(4))
        x1, y1, x2, y2 = (float(v) for v in anchors[i])
        aw, ah = x2 - x1, y2 - y1
        ax, ay = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        cx = ax + dx * variances[0] * aw
        cy = ay + dy * variances[1] * ah
        w = aw * math.exp(dw * variances[2])
        h = ah * math.exp(dh * variances[3])
        box = [cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2]
        box = [min(max(v, 0.0), 1.0) for v in box]
        rows.append([float(best), score] + box)
    return oracle_nms(np.array(rows, np.float32), iou_thr, score_thr)


def rand_boxset(rng, n, classes=4):
    cls = rng.integers(0, classes, n).astype(np.int32)
    cls[rng.random(n) < 0.1] = -1
    sc = rng.random(n).astype(np.float32)
    sc[rng.random(n) < 0.05] = np.nan
    x1 = rng.random(n).astype(np.float32)
    y1 = rng.random(n).astype(np.float32)
    wid = rng.random(n).astype(np.float32) * 0.5
    hei = rng.random(n).astype(np.float32) * 0.5
    corners = np.stack([x1, y1, x1 + wid, y1 + hei], axis=1)
    return BoxSet(class_ids=cls, scores=sc, corners=corners)


def test_single_valid_box_kept_in_row_zero():
    b = BoxSet(class_ids=[2], scores=[0.9], corners=[[0.1, 0.2, 0.4, 0.5]])
    out = box_nms(b, iou_threshold=0.5)
    assert out.class_ids[0] == 2
    assert out.scores[0] == np.float32(0.9)


def test_identical_pair_suppresses_lower_score():
    b = BoxSet(
        class_ids=[0, 0],
        scores=[0.9, 0.8],
        corners=[[0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5]],
    )
    out = box_nms(b, iou_threshold=0.5)
    assert out.class_ids.tolist() == [0, -1]
    assert out.to_array()[1].tolist() == INVALID_ROW


def test_different_classes_do_not_suppress():
    b = BoxSet(
        class_ids=[0, 1],
        scores=[0.9, 0.8],
        corners=[[0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5]],
    )
    out = box_nms(b, iou_threshold=0.5)
    assert out.class_ids.tolist() == [0, 1]


def test_invalid_iou_threshold():
    b = BoxSet(class_ids=[0], scores=[0.5], corners=[[0, 0, 1, 1]])
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            box_nms(b, iou_threshold=bad)


def test_output_rows_are_kept_inputs_or_invalid_marker():
    rng = np.random.default_rng(0)
    b = rand_boxset(rng, 40)
    out = box_nms(b, 0.5, 0.2).to_array()
    inputs = {tuple(r) for r in b.to_array().tolist()}
    for row in out.tolist():
        assert row == INVALID_ROW or tuple(row) in inputs


def test_nms_randomized_against_oracle():
    rng = np.random.default_rng(1)
    for trial in range(120):
        n = int(rng.integers(1, 80))
        b = rand_boxset(rng, n)
        thr = float(rng.uniform(0.2, 1.0))
        st = float(rng.uniform(0.0, 0.4))
        top_k = None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        mo = None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        got = box_nms(b, thr, st, top_k=top_k, max_output=mo).to_array()
        want = oracle_nms(b.to_array(), thr, st, top_k=top_k, max_output=mo)
        assert np.array_equal(got, want), f"trial {trial}"


def test_all_rows_invalid_or_below_threshold():
    b = BoxSet(
        class_ids=[-1, 0, 0],
        scores=[0.9, 0.05, np.nan],
        corners=[[0, 0, 0.2, 0.2], [0.4, 0.4, 0.6, 0.6], [0.1, 0.1, 0.3, 0.3]],
    )
    out = box_nms(b, 0.5, score_threshold=0.1)
    assert (out.class_ids == -1).all()
    assert np.array_equal(out.to_array(), np.full((3, 6), -1.0, np.float32))


def test_empty_boxset():
    out = box_nms(BoxSet(class_ids=[], scores=[], corners=np.zeros((0, 4))), 0.5)
    assert len(out) == 0


def test_top_k_truncates_before_suppression():
    b = BoxSet(
        class_ids=[0, 0, 0],
        scores=[0.9, 0.8, 0.7],
        corners=[[0.0, 0.0, 0.2, 0.2], [0.5, 0.5, 0.7, 0.7], [0.1, 0.8, 0.3, 0.9]],
    )
    out = box_nms(b, 0.5, top_k=2)
    assert (out.class_ids >= 0).sum() == 2


def test_top_k_and_max_output_zero_keep_nothing():
    b = BoxSet(class_ids=[0, 1], scores=[0.9, 0.8],
               corners=[[0, 0, 0.2, 0.2], [0.5, 0.5, 0.7, 0.7]])
    for kwargs in ({"top_k": 0}, {"max_output": 0}):
        out = box_nms(b, 0.5, **kwargs)
        assert (out.class_ids == -1).all()


def test_multibox_zero_offsets_decode_to_anchors():
    rng = np.random.default_rng(2)
    a = 12
    x1 = rng.random(a, dtype=np.float32) * 0.5
    y1 = rng.random(a, dtype=np.float32) * 0.5
    anchors = np.stack([x1, y1, x1 + 0.3, y1 + 0.3], axis=1)[None]
    probs = np.zeros((1, 3, a), np.float32)
    probs[0, 1] = np.linspace(0.9, 0.3, a)
    locs = np.zeros((1, 4 * a), np.float32)
    out = multibox_detection(probs, locs, anchors, score_threshold=0.0, iou_threshold=1.0)[0]
    kept = out.class_ids >= 0
    assert kept.sum() == a
    order = np.argsort(-out.scores[kept], kind="stable")
    corners = np.asarray(out.corners[kept])[order][np.argsort(np.argsort(-probs[0, 1]))]
    assert corners.dtype == np.float32 and corners.tobytes() == anchors[0].astype(np.float32).tobytes()


def test_multibox_all_background_yields_nothing():
    a = 6
    probs = np.zeros((1, 2, a), np.float32)
    probs[0, 0] = 1.0
    anchors = np.tile(np.array([0.1, 0.1, 0.4, 0.4], np.float32), (a, 1))[None]
    out = multibox_detection(probs, np.zeros((1, 4 * a), np.float32), anchors, score_threshold=0.01)[0]
    assert (out.class_ids >= 0).sum() == 0


def test_multibox_randomized_against_oracle():
    rng = np.random.default_rng(3)
    for trial in range(60):
        cl = int(rng.integers(2, 5))
        a = int(rng.integers(2, 40))
        probs = rng.random((1, cl, a)).astype(np.float32)
        locs = (rng.standard_normal((1, 4 * a)) * 0.6).astype(np.float32)
        x1 = rng.random(a).astype(np.float32) * 0.5
        y1 = rng.random(a).astype(np.float32) * 0.5
        anchors = np.stack(
            [x1, y1, x1 + 0.05 + rng.random(a).astype(np.float32) * 0.4,
             y1 + 0.05 + rng.random(a).astype(np.float32) * 0.4], axis=1
        )[None]
        got = multibox_detection(probs, locs, anchors, score_threshold=0.1, iou_threshold=0.45)[0]
        want = oracle_multibox(probs[0], locs[0], anchors[0], (0.1, 0.1, 0.2, 0.2), 0.1, 0.45)
        got_rows = got.to_array()
        assert got_rows.dtype == want.dtype and got_rows.shape == want.shape, f"trial {trial}"
        assert got_rows.tobytes() == want.tobytes(), f"trial {trial}"


def test_multibox_shape_mismatch():
    with pytest.raises(ValueError):
        multibox_detection(
            np.zeros((1, 3, 8), np.float32),
            np.zeros((1, 30), np.float32),
            np.zeros((1, 8, 4), np.float32),
        )


@pytest.mark.parametrize("classes", [1, 3])  # background only, and with foreground classes
@pytest.mark.parametrize("row, corners", [(2, [0.5, 0.1, 0.4, 0.3]), (0, [0.1, 0.5, 0.3, 0.4])])
def test_multibox_names_an_inverted_anchor(classes, row, corners):
    anchors = np.full((1, 4, 4), 0.25, np.float32)
    anchors[0, row] = corners
    args = (np.full((1, classes, 4), 0.5, np.float32), np.zeros((1, 16), np.float32), anchors)
    want = f"anchor {row} must satisfy x1 <= x2 and y1 <= y2, got {anchors[0, row].tolist()}"
    for run in (lambda: multibox_detection(*args, session=Session()),
                lambda: multibox_detection_sequential(*args)):
        with pytest.raises(ValueError) as e:
            run()
        assert str(e.value) == want


@pytest.mark.parametrize("variances", [(0.1, 0.2), (0.1, 0.1, 0.2, 0.2, 0.2), (0.1, np.nan, 0.2, 0.2),
                                       (0.1, 0.1, np.inf, 0.2), ("a", "b", "c", "d"), 0.1, None], ids=repr)
def test_multibox_rejects_variances_that_are_not_four_finite_numbers(variances):
    args = (np.full((1, 3, 4), 0.5, np.float32), np.zeros((1, 16), np.float32),
            np.full((1, 4, 4), 0.25, np.float32))
    for run in (lambda: multibox_detection(*args, variances=variances, session=Session()),
                lambda: multibox_detection_sequential(*args, variances=variances)):
        with pytest.raises(ValueError) as e:
            run()
        assert str(e.value) == f"variances must be 4 finite numbers, got {variances!r}"


F32 = dict(width=32, allow_nan=True, allow_infinity=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp overflows on large offsets
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.floats(**F32) | st.sampled_from([0.0, -0.0, 0.5, 1.0])] * 4,
                          *[st.floats(**F32)] * 4), min_size=1, max_size=12),
       st.lists(st.floats(-4, 4, width=32), min_size=4, max_size=4))
def test_rows_decoded_from_checked_anchors_pass_the_boxset_check(draws, variances):
    # any anchor that passes the multibox check, NaN and infinite corners too, decoded
    # with any offsets, NaN and infinities too, gives rows BoxSet's own check passes,
    # so the NMS pass may take them without it
    raw = np.array(draws, np.float32)
    a = len(raw)
    lo, hi = np.fmin(raw[:, :2], raw[:, 2:4]), np.fmax(raw[:, :2], raw[:, 2:4])
    anchors = np.concatenate([lo, hi], axis=1)[None]
    probs = np.full((1, 3, a), 0.5, np.float32)
    probs, locs, anchors, _, _, variances = _check_multibox(probs, raw[:, 4:].reshape(1, 4 * a), anchors,
                                                             variances)
    rows = _detection_rows(probs, locs, anchors, variances, 0, a)
    checked, trusted = BoxSet.from_array(rows), _checked_rows(rows)
    for field in ("class_ids", "scores", "corners"):
        assert getattr(checked, field).tobytes() == getattr(trusted, field).tobytes()


def test_multibox_batched():
    rng = np.random.default_rng(4)
    a = 10
    probs = rng.random((3, 3, a)).astype(np.float32)
    locs = (rng.standard_normal((3, 4 * a)) * 0.3).astype(np.float32)
    x1 = rng.random(a).astype(np.float32) * 0.4
    y1 = rng.random(a).astype(np.float32) * 0.4
    anchors = np.stack([x1, y1, x1 + 0.3, y1 + 0.3], axis=1)[None]
    outs = multibox_detection(probs, locs, anchors, score_threshold=0.2, iou_threshold=0.5)
    assert len(outs) == 3
    for bi, out in enumerate(outs):
        want = oracle_multibox(probs[bi], locs[bi], anchors[0], (0.1, 0.1, 0.2, 0.2), 0.2, 0.5)
        got = out.to_array()
        assert got.dtype == np.float32 and got.tobytes() == want.astype(np.float32).tobytes()


def iou_cases(rng, n):
    """(n, 4) float64 box pairs: random, touching edges, zero-area, NaN corners."""
    a = np.concatenate([rng.random((n, 2)), rng.random((n, 2)) * 0.5], axis=1)
    a[:, 2:] += a[:, :2]
    b = a + rng.normal(0.0, 0.2, (n, 4))
    b[:, 2:] = np.maximum(b[:, 2:], b[:, :2])
    q = n // 4
    b[:q, 0] = a[:q, 2]  # b starts where a ends: iw == 0
    b[q : 2 * q, 2] = b[q : 2 * q, 0]  # zero-width b
    nan = rng.random((n, 4)) < 0.05
    a[nan] = np.nan
    b[np.roll(nan, 1, axis=0)] = np.nan
    # Python's max(nan, 2.0) is nan but max(2.0, nan) is 2.0: NaN one way, 0 the other
    a[-1], b[-1] = [np.nan, 0.0, 1.0, 1.0], [2.0, 0.0, 3.0, 1.0]
    return a, b


def same_iou(got, want):
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_array_iou_bitwise_equals_scalar_oracle_pair_by_pair():
    rng = np.random.default_rng(5)
    a, b = iou_cases(rng, 400)
    for x, y in ((a, b), (b, a)):
        want = [oracle_iou(p.tolist(), q.tolist()) for p, q in zip(x, y)]
        assert same_iou(iou(x, y), want)
        assert same_iou([iou(p, q) for p, q in zip(x, y)], want)
    m = 30
    pairwise = iou(a[:m, None], b[None, :m])
    assert pairwise.shape == (m, m)
    want = [[oracle_iou(p.tolist(), q.tolist()) for q in b[:m]] for p in a[:m]]
    assert same_iou(pairwise, want)


def test_nms_and_multibox_race_checked_against_oracles():
    rng = np.random.default_rng(6)
    for trial in range(12):
        n = int(rng.integers(1, 200))  # past one 64-row mask tile
        b = rand_boxset(rng, n)
        corners = b.corners.copy()
        corners[rng.random(corners.shape) < 0.03] = np.nan  # pairs with a NaN corner never suppress
        b = BoxSet(class_ids=b.class_ids, scores=b.scores, corners=corners)
        thr = float(rng.uniform(0.2, 1.0))
        got = box_nms(b, thr, 0.1, session=Session(race_check=True)).to_array()
        assert np.array_equal(got, oracle_nms(b.to_array(), thr, 0.1), equal_nan=True), f"trial {trial}"
    for trial in range(6):
        a = int(rng.integers(2, 150))
        probs = rng.random((2, 3, a)).astype(np.float32)
        locs = (rng.standard_normal((2, 4 * a)) * 0.6).astype(np.float32)
        x1 = rng.random(a).astype(np.float32) * 0.5
        y1 = rng.random(a).astype(np.float32) * 0.5
        anchors = np.stack([x1, y1, x1 + 0.3, y1 + 0.3], axis=1)[None]
        outs = multibox_detection(probs, locs, anchors, score_threshold=0.1, iou_threshold=0.45,
                                  session=Session(race_check=True))
        for bi, out in enumerate(outs):
            want = oracle_multibox(probs[bi], locs[bi], anchors[0], (0.1, 0.1, 0.2, 0.2), 0.1, 0.45)
            got = out.to_array()
            assert got.dtype == np.float32, f"trial {trial}"
            assert got.tobytes() == want.astype(np.float32).tobytes(), f"trial {trial}"


@pytest.mark.parametrize("probs_shape, locs_shape, anchors_shape", [
    ((1, 3, 4), (1, 16), (2, 4, 4)),  # anchors shared across the batch have a leading 1
    ((1, 3, 4), (1, 12), (1, 4, 4)),
    ((1, 3, 4), (1, 16), (1, 4, 3)),
    ((3, 4), (1, 16), (1, 4, 4)),
])
def test_multibox_kernel_and_twin_reject_bad_shapes_alike(probs_shape, locs_shape, anchors_shape):
    args = (np.full(probs_shape, 0.5, np.float32), np.zeros(locs_shape, np.float32),
            np.full(anchors_shape, 0.25, np.float32))
    errors = []
    for run in (lambda: multibox_detection(*args, session=Session()),
                lambda: multibox_detection_sequential(*args)):
        with pytest.raises(ValueError) as e:
            run()
        errors.append(str(e.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("b, a", [(0, 5), (2, 0)])
def test_multibox_kernel_and_twin_agree_on_empty_batches_and_anchor_sets(b, a):
    args = (np.zeros((b, 3, a), np.float32), np.zeros((b, 4 * a), np.float32),
            np.full((1, a, 4), 0.25, np.float32))
    got = [[r.to_array().shape for r in run(*args)]
           for run in (multibox_detection, multibox_detection_sequential)]
    assert got[0] == got[1] == [(0, 6)] * b


def test_box_set_rows_of_unequal_count_are_rejected():
    with pytest.raises(ValueError, match=r"^class_ids, scores and corners must have equal row counts$"):
        BoxSet(np.zeros(2), np.zeros(3), np.zeros((2, 4)))


@pytest.mark.parametrize("corners", [[0.5, 0, 0.4, 1], [0, 0.5, 1, 0.4]], ids=["x1>x2", "y1>y2"])
def test_a_valid_box_row_with_crossed_corners_is_rejected_but_an_invalid_one_passes(corners):
    with pytest.raises(ValueError, match=r"^valid rows must satisfy x1 <= x2 and y1 <= y2$"):
        BoxSet(np.array([0]), np.array([0.5]), np.array([corners]))
    assert len(BoxSet(np.array([-1]), np.array([0.5]), np.array([corners])).scores) == 1


def test_best_foreground_class_of_background_only_probs_marks_every_anchor_invalid():
    from edgegraph.vision.boxes import best_foreground_class

    cls, score = best_foreground_class(np.full((1, 5), 0.5, np.float32))
    assert (cls.dtype, cls.tolist(), score.dtype, score.tolist()) == (np.int32, [-1] * 5, np.float32, [0.0] * 5)
