"""Box-level detection operators: greedy NMS and SSD-style decoding.

box_nms(..., images=) keeps greedy NMS semantics for a batch of images while
running the GPU-unfriendly parts the GPU way. No class suppresses another,
so each (image, class) segment of the candidates is independent, as in
torchvision's batched_nms. One segmented argsort orders each image by
score and a stable host grouping orders the candidates by (image, class).
One launch fills the suppression mask, a row per candidate as wide as the
widest segment, holding only its segment's upper triangle. A sort-and-sweep
broad phase hands iou only the pairs that overlap along x and y: any other
pair has no positive overlap width or height, so its IoU is 0 or NaN and
its bit is clear anyway. The host's greedy sweep visits only mask rows
that hold a bit, so it costs what the suppressions cost.
Kept rows merge back into each image's score order, and a last launch
writes them first, then all-invalid rows. images=1, the default, is one image.

multibox_detection decodes the batch's anchors in flat (image, anchor)
order, one contiguous slice per thread, then calls box_nms(..., images=b),
or box_nms_sequential for the twin, on the decoded rows. Kernel and twin
share one body, _nms_pass or _multibox, whose simt.run_rows calls launch
or, for the twin, call each range function once on the host.
Boxes are checked once, where they enter: a BoxSet's rows, and multibox's
anchors and variances. Rows an NMS pass writes, and rows decoded from checked
anchors, pass BoxSet's check by construction, so they become BoxSets without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simt import LaunchConfig, Session, as_dtype, ceil_div, check_count, check_int, run_rows
from .sort import SegmentedArray, ordered_bits, segmented_argsort

INVALID = -1.0  # marker filled into every field of a suppressed row
TILE = 64  # suppression-mask rows one NMS thread fills
PAIR_CHUNK = 1 << 14  # window pairs per chunk, plus at most one box's window


@dataclass(frozen=True)
class BoxSet:
    """Rows of (class_id, score, x1, y1, x2, y2); class_id == -1 marks invalid. Class ids
    enter as i32 and the rest as f32 by :func:`simt.as_dtype`, so a fractional, NaN or
    out-of-range class id raises."""

    class_ids: np.ndarray
    scores: np.ndarray
    corners: np.ndarray

    def __post_init__(self):
        cls = as_dtype(self.class_ids, "i32")[1].reshape(-1)
        sc = as_dtype(self.scores, "f32")[1].reshape(-1)
        xy = as_dtype(self.corners, "f32")[1].reshape(-1, 4)
        if not (len(cls) == len(sc) == len(xy)):
            raise ValueError("class_ids, scores and corners must have equal row counts")
        if np.count_nonzero((xy[:, :2] > xy[:, 2:])[cls >= 0]):  # x1 > x2 or y1 > y2 in a valid row
            raise ValueError("valid rows must satisfy x1 <= x2 and y1 <= y2")
        object.__setattr__(self, "class_ids", cls)
        object.__setattr__(self, "scores", sc)
        object.__setattr__(self, "corners", xy)

    def __len__(self) -> int:
        return len(self.class_ids)

    def to_array(self) -> np.ndarray:
        """Packed (n, 6) float32 rows: class, score, x1, y1, x2, y2."""
        out = np.empty((len(self), 6), np.float32)
        out[:, 0] = self.class_ids
        out[:, 1] = self.scores
        out[:, 2:] = self.corners
        return out

    @classmethod
    def from_array(cls, rows) -> "BoxSet":
        rows = as_dtype(rows, "f32")[1].reshape(-1, 6)
        return cls(class_ids=rows[:, 0], scores=rows[:, 1], corners=rows[:, 2:])


def _checked_rows(rows: np.ndarray) -> BoxSet:
    """``BoxSet.from_array`` of float32 (n, 6) ``rows`` that pass its check by construction, unchecked."""
    boxes = object.__new__(BoxSet)
    boxes.__dict__.update(class_ids=rows[:, 0].astype(np.int32), scores=rows[:, 1], corners=rows[:, 2:])
    return boxes


def iou(a, b):
    """Corner-coordinate intersection over union of (..., 4) box arrays.

    ``a`` and ``b`` broadcast against each other. The arithmetic is float64
    in the order of the scalar rule, with Python's min/max semantics (which
    matter for NaN corners), so every value is bitwise what the scalar rule
    gives for that pair. Pairs with no positive width, height or union give
    0. Two single boxes give a float.

    Python's min(x, y) is y if y < x else x, so x wins against a NaN. With
    x from ``a``, np.fmin and np.fmax agree with that unless ``a`` holds a
    NaN, so only then do they give way to np.where. They may differ in the
    sign of a zero, which only changes a width or height that is zero, and
    such a pair gives 0 either way.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a).any()
    lo = (lambda x, y: np.where(y < x, y, x)) if nan else np.fmin
    hi = (lambda x, y: np.where(y > x, y, x)) if nan else np.fmax
    with np.errstate(all="ignore"):
        over = lo(a[..., 2:], b[..., 2:]) - hi(a[..., :2], b[..., :2])  # x and y side by side
        da, db = a[..., 2:] - a[..., :2], b[..., 2:] - b[..., :2]
        iw, ih = over[..., 0], over[..., 1]
        inter = iw * ih
        union = da[..., 0] * da[..., 1] + db[..., 0] * db[..., 1] - inter
        # fmin skips a NaN, so this is (iw <= 0) | (ih <= 0) | (union <= 0) in one test
        out = np.where(np.fmin(np.fmin(iw, ih), union) <= 0.0, 0.0, inter / union)
    return float(out) if out.ndim == 0 else out


def _suppression_rows(xy: np.ndarray, xk: np.ndarray, first: np.ndarray, end: np.ndarray,
                      width: int, lo: int, hi: int, iou_threshold: float) -> np.ndarray:
    """Rows lo:hi of the segment suppression mask: entry [k, t] is True iff
    candidate first[k] + t comes after k in k's segment and iou(box k, that
    box) >= iou_threshold. xk[:, k] is first[k] << 32 | ordered_bits(x1, x2).
    Both boxes of a pair in these rows lie at or after lo, so rows
    lo:end[hi - 1] alone, sorted by x1 key, give each box a window: the later
    boxes whose x1 is below its x2, all its later x-overlapping partners.
    Window pairs that overlap along y go to iou PAIR_CHUNK or so at a time."""
    s1 = int(end[hi - 1]) if hi > lo else lo
    out = np.zeros((s1 - lo, width), bool)  # rows lo:s1 of the mask
    cols, fs = xy[lo:s1].T, first[lo:s1] - lo  # the touched rows' corners and segment starts
    order = xk[0, lo:s1].argsort(kind="stable")
    ks = xk[:, lo:s1].take(order, axis=1)
    # window lengths; a NaN corner can end one before it starts
    wins = np.maximum(ks[0].searchsorted(ks[1]) - np.arange(1, s1 - lo + 1), 0)
    pairs = int(wins.sum())  # np.unique would import numpy.ma on its first call, in every process
    cuts = [0] if 0 < pairs <= PAIR_CHUNK else sorted(set(  # one chunk from box 0 has the same pairs
        np.cumsum(wins).searchsorted(np.arange(0, pairs, PAIR_CHUNK), "right").tolist()))
    y1, y2 = cols[1::2].take(order, axis=1)  # in x order
    for b0, b1 in zip(cuts, cuts[1:] + [s1 - lo]):
        k = wins[b0:b1]  # pair q of box b is (b, b + 1 + q) in x order
        ia = np.arange(b0, b1).repeat(k)
        ja = np.arange(len(ia)) - (k.cumsum() - k - np.arange(b0 + 1, b1 + 1)).repeat(k)
        near = ((y1.take(ja) < y2.take(ia)) & (y1.take(ia) < y2.take(ja))).nonzero()[0]
        i, j = order.take(ia.take(near)), order.take(ja.take(near))
        row, col = np.minimum(i, j), np.maximum(i, j)  # the earlier box's row holds the bit
        hit = iou(cols.take(row, axis=1).T, cols.take(col, axis=1).T) >= iou_threshold
        out.reshape(-1)[row * width + col - fs.take(row)] = hit  # out starts all False
    return out[: hi - lo]


def _sources(mask: np.ndarray, first: np.ndarray, cands: np.ndarray, g: np.ndarray, n: int,
             rows: int, max_output) -> np.ndarray:
    """Input row of each output row, ``rows`` for an all-invalid one (the
    all-invalid row that the caller appends to the input): greedy NMS
    over each segment of the mask in score order, and the kept rows merged
    back into each n-row image's score order, cut to max_output.

    Only rows that hold a bit can remove anything, so the sweep visits
    those alone, in ascending order, with one bit set ``drop`` over all
    candidates: hit row k is kept iff bit k is clear, and a kept one adds
    its bits from its segment's start. Bit k comes only from a row of k's
    segment before k, so it is final when row k is reached, and ``drop``
    ends as exactly the suppressed candidates.
    """
    # no row's bit is in column 0, a segment's first candidate; argmax costs a fraction of any
    hits = mask.argmax(axis=1).nonzero()[0] if mask.size else np.zeros(0, np.intp)
    drop = 0
    for k, s, row in zip(hits.tolist(), first[hits].tolist(),
                         np.packbits(mask[hits], axis=1, bitorder="little")):
        if not drop >> k & 1:
            drop |= int.from_bytes(row, "little") << s
    c = len(first)
    dropped = np.unpackbits(np.frombuffer(drop.to_bytes(ceil_div(c, 8), "little"), np.uint8),
                            count=c, bitorder="little")
    kept = cands[np.sort(g[dropped == 0])]
    img = kept // n
    slot = np.arange(len(kept)) - img.searchsorted(img)
    cut = slot < (len(kept) if max_output is None else max_output)
    src = np.full(rows, rows)
    src[(img * n + slot)[cut]] = kept[cut]
    return src


def _number(name: str, value) -> float:
    """``value``, an int or a float (numpy's too), as a float; a bool or a value
    that float() cannot take raises."""
    if type(value) is not bool and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _nms_pass(boxes: BoxSet, images: int, iou_threshold: float, score_threshold: float, top_k,
              max_output, sess: Session | None) -> np.ndarray:
    """box_nms's packed rows on session ``sess``, or the CPU twin's if sess is None."""
    images = check_int("images", images, 1)
    iou_threshold = _number("iou_threshold", iou_threshold)
    score_threshold = _number("score_threshold", score_threshold)
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if np.isnan(score_threshold):  # it would fail every score; +-inf keep their meaning
        raise ValueError(f"score_threshold must not be NaN, got {score_threshold}")
    top_k, max_output = check_count("top_k", top_k), check_count("max_output", max_output)
    if len(boxes) == 0:
        return np.zeros((0, 6), np.float32)
    if len(boxes) % images:
        raise ValueError(f"{len(boxes)} rows do not split into {images} images of equal size")
    n = len(boxes) // images
    offsets = np.arange(0, len(boxes) + 1, n)
    if sess is None:  # stable descending order with NaN scores last, ties by row index
        order = (-boxes.scores.astype(np.float64).reshape(-1, n)).argsort(axis=1, kind="stable")
    else:  # a 64-slot sort block per image keeps the launches those of one image
        order = segmented_argsort(SegmentedArray(values=boxes.scores, offsets=offsets),
                                  "descending", block=64 * images, session=sess)
    order = order.reshape(-1) + offsets[:-1].repeat(n)
    # candidates, in score order: valid, score >= score_threshold (not NaN), top_k per image
    ok = (boxes.class_ids[order] >= 0) & (boxes.scores[order].astype(np.float64) >= score_threshold)
    if top_k is not None:
        ok &= (ok.reshape(-1, n).cumsum(axis=1) <= top_k).reshape(-1)
    cands = order[ok]
    # g: stable (image, class) grouping, group position -> score position;
    # first and end: the span of each group position's segment
    key = (cands // n << 32) | boxes.class_ids[cands]
    g = key.argsort(kind="stable")
    key = key[g]
    first, end = key.searchsorted(key, "left"), key.searchsorted(key, "right")
    xy = np.asfortranarray(corners := boxes.corners[cands[g]], dtype=np.float64)  # iou reads columns
    xk = (first << 32) | ordered_bits(corners[:, ::2].T + np.float32(0))
    c, width = len(g), int((end - first).max(initial=0))

    def fill_mask(lo, hi):
        return _suppression_rows(xy, xk, first, end, width, lo, hi, iou_threshold)

    mask = run_rows(sess, LaunchConfig(grid=1, block=max(1, ceil_div(c, TILE))), "bool", c, width,
                    fill_mask, "nms_mask", TILE)
    src = _sources(mask, first, cands, g, n, len(boxes), max_output)
    packed = np.full((len(boxes) + 1, 6), INVALID, np.float32)  # src len(boxes) is its last row
    packed[:-1, 0], packed[:-1, 1], packed[:-1, 2:] = boxes.class_ids, boxes.scores, boxes.corners

    def write_out(lo, hi):
        return packed[src[lo:hi]]

    return run_rows(sess, LaunchConfig(grid=images, block=min(32, n)), "f32", len(boxes), 6,
                    write_out, "nms_out")


def box_nms(boxes: BoxSet, iou_threshold: float = 0.5, score_threshold: float = 0.0,
            top_k: int | None = None, max_output: int | None = None,
            session: Session | None = None, images: int = 1) -> BoxSet:
    """Greedy NMS of ``images`` equal images stored one after another.

    Per image, candidates are the valid rows with score >= score_threshold
    (NaN counts as below any threshold) in descending score order, cut to
    top_k. A candidate is kept iff its IoU with every kept box of its class
    stays below iou_threshold, up to max_output. Each image keeps its
    capacity: kept rows first, in score order, the rest all-invalid.
    """
    return _checked_rows(_nms_pass(boxes, images, iou_threshold, score_threshold, top_k, max_output,
                                   session if session is not None else Session()))


def box_nms_sequential(boxes: BoxSet, iou_threshold: float = 0.5, score_threshold: float = 0.0,
                       top_k: int | None = None, max_output: int | None = None,
                       images: int = 1) -> BoxSet:
    """box_nms through the same mask rows, sweep and merge, no emulator."""
    return _checked_rows(_nms_pass(boxes, images, iou_threshold, score_threshold, top_k, max_output,
                                   None))


DEFAULT_VARIANCES = (0.1, 0.1, 0.2, 0.2)


def decode_boxes(loc: np.ndarray, anchors: np.ndarray, variances=DEFAULT_VARIANCES) -> np.ndarray:
    """Center-form offset decoding of (A, 4) offsets against (A, 4) corner anchors.

    cx = ax + dx*v0*aw, cy = ay + dy*v1*ah, w = aw*exp(dw*v2),
    h = ah*exp(dh*v3); the result is corner form, clipped to [0, 1].
    """
    loc = np.asarray(loc, dtype=np.float64).reshape(-1, 4)
    anc = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    aw = anc[:, 2] - anc[:, 0]
    ah = anc[:, 3] - anc[:, 1]
    ax = (anc[:, 0] + anc[:, 2]) / 2.0
    ay = (anc[:, 1] + anc[:, 3]) / 2.0
    v0, v1, v2, v3 = (float(v) for v in variances)
    cx = ax + loc[:, 0] * v0 * aw
    cy = ay + loc[:, 1] * v1 * ah
    w = aw * np.exp(loc[:, 2] * v2)
    h = ah * np.exp(loc[:, 3] * v3)
    out = np.empty((len(loc), 4))
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def best_foreground_class(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per anchor: best non-background class (0-based) and its probability.

    ``probs`` is (classes, anchors) with class 0 = background. With no
    foreground classes every anchor is invalid (class -1, score 0).
    """
    probs = np.asarray(probs, dtype=np.float32)
    if probs.shape[0] <= 1:
        a = probs.shape[1]
        return np.full(a, -1, np.int32), np.zeros(a, np.float32)
    fg = probs[1:]
    cls = fg.argmax(axis=0).astype(np.int32)  # ties -> lowest class id
    score = fg[cls, np.arange(fg.shape[1])]
    return cls, score.astype(np.float32)


def _detection_rows(probs: np.ndarray, locs: np.ndarray, anchors: np.ndarray, variances,
                    lo: int, hi: int) -> np.ndarray:
    """Packed (hi - lo, 6) detection rows of anchors lo..hi-1.

    The inputs are in flat (image, anchor) order: ``probs`` is
    (classes, anchors), ``locs`` and ``anchors`` (anchors, 4).
    """
    cls, score = best_foreground_class(probs[:, lo:hi])
    rows = np.empty((hi - lo, 6), np.float32)
    rows[:, 0] = cls
    rows[:, 1] = score
    rows[:, 2:] = decode_boxes(locs[lo:hi], anchors[lo:hi], variances)
    return rows


def _check_multibox(class_probs, loc_preds, anchors, variances):
    """The batch as float32 (cls, b * a) probs, (b * a, 4) offsets and
    (b * a, 4) anchors in flat (image, anchor) order, plus b, a and variances;
    rejects shapes that do not fit, x1 > x2 or y1 > y2 in an anchor and variances not 4 finite numbers."""
    probs, locs, ancs = (as_dtype(x, "f32")[1] for x in (class_probs, loc_preds, anchors))
    if probs.ndim != 3 or locs.ndim != 2 or ancs.shape[:1] != (1,) or ancs.ndim != 3:
        raise ValueError(
            f"expected class_probs (b, cls, a), loc_preds (b, 4a), anchors (1, a, 4); "
            f"got {probs.shape}, {locs.shape}, {ancs.shape}"
        )
    b, k, a = probs.shape
    if ancs.shape[1] != a or ancs.shape[2] != 4 or locs.shape != (b, 4 * a):
        raise ValueError(
            f"shape mismatch: {probs.shape} probs vs {locs.shape} loc_preds vs {ancs.shape} anchors"
        )
    if (bad := (ancs[0, :, :2] > ancs[0, :, 2:]).nonzero()[0]).size:  # rows of x1 > x2 or y1 > y2
        raise ValueError(f"anchor {bad[0]} must satisfy x1 <= x2 and y1 <= y2, got {ancs[0, bad[0]].tolist()}")
    if (var := np.asarray(variances)).shape != (4,) or var.dtype.kind not in "iuf" or not np.isfinite(var).all():
        raise ValueError(f"variances must be 4 finite numbers, got {variances!r}")
    flat_probs = probs.transpose(1, 0, 2).reshape(k, b * a)
    return flat_probs, locs.reshape(b * a, 4), ancs.repeat(b, axis=0).reshape(b * a, 4), b, a, var


def _multibox(class_probs, loc_preds, anchors, variances, score_threshold: float,
              iou_threshold: float, top_k, max_output, sess: Session | None) -> list[BoxSet]:
    """multibox_detection's BoxSets on session ``sess``, or the CPU twin's if sess is None."""
    probs, locs, ancs, b, a, variances = _check_multibox(class_probs, loc_preds, anchors, variances)

    def decode(lo, hi):
        return _detection_rows(probs, locs, ancs, variances, lo, hi)

    rows = _checked_rows(run_rows(sess, LaunchConfig(grid=max(1, b), block=min(32, max(1, a))), "f32",
                                  b * a, 6, decode, "mbx_decoded"))
    if sess is None:
        kept = box_nms_sequential(rows, iou_threshold, score_threshold, top_k, max_output, images=max(1, b))
    else:
        kept = box_nms(rows, iou_threshold, score_threshold, top_k, max_output, session=sess, images=max(1, b))
    return [_checked_rows(r) for r in kept.to_array().reshape(b, a, 6)]


def multibox_detection(class_probs, loc_preds, anchors, variances=DEFAULT_VARIANCES,
                       score_threshold: float = 0.01, iou_threshold: float = 0.5,
                       top_k: int | None = None, max_output: int | None = None,
                       session: Session | None = None) -> list[BoxSet]:
    """SSD-style detection: per-anchor class selection, offset decoding, NMS.

    class_probs is (batch, classes, anchors) with class 0 = background,
    loc_preds is (batch, anchors*4), anchors is (1, anchors, 4) in corner
    form within [0, 1]. Returns one BoxSet of capacity ``anchors`` per
    batch element.
    """
    return _multibox(class_probs, loc_preds, anchors, variances, score_threshold, iou_threshold,
                     top_k, max_output, session if session is not None else Session())


def multibox_detection_sequential(class_probs, loc_preds, anchors, variances=DEFAULT_VARIANCES,
                                  score_threshold: float = 0.01, iou_threshold: float = 0.5,
                                  top_k: int | None = None,
                                  max_output: int | None = None) -> list[BoxSet]:
    """multibox_detection through the same decode rows and NMS pass, no emulator."""
    return _multibox(class_probs, loc_preds, anchors, variances, score_threshold, iou_threshold,
                     top_k, max_output, None)
