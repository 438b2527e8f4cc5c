"""Box-level detection operators: greedy NMS and SSD-style decoding.

box_nms keeps the standard sequential-greedy semantics while running the
GPU-unfriendly parts the GPU way, in the layout of torchvision's CUDA
NMS. Scores go through the segmented argsort. One launch then fills a
candidate x candidate "suppresses" mask, each thread a tile of TILE rows
computed with the array form of ``iou``. The greedy sweep over that mask
is a single pass on the host, and a last launch writes the output in one
pass: kept rows first, then all-invalid rows. Both launches go through
``simt.launch_rows``, and the sequential twin calls the same range
functions over all rows.

multibox_detection decodes the batch's anchors in flat (image, anchor)
order, one contiguous slice per thread, with the same range function as
its sequential twin, then runs box_nms per batch element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..simt import GPU, LaunchConfig, Session, ceil_div, launch_rows
from .sort import SegmentedArray, segmented_argsort

INVALID = -1.0  # marker filled into every field of a suppressed row
TILE = 64  # suppression-mask rows one NMS thread fills


@dataclass(frozen=True)
class BoxSet:
    """Rows of (class_id, score, x1, y1, x2, y2); class_id == -1 marks invalid."""

    class_ids: np.ndarray
    scores: np.ndarray
    corners: np.ndarray

    def __post_init__(self):
        cls = np.asarray(self.class_ids, dtype=np.int32).reshape(-1)
        sc = np.asarray(self.scores, dtype=np.float32).reshape(-1)
        xy = np.asarray(self.corners, dtype=np.float32).reshape(-1, 4)
        if not (len(cls) == len(sc) == len(xy)):
            raise ValueError("class_ids, scores and corners must have equal row counts")
        valid = cls >= 0
        if np.any(valid & ((xy[:, 0] > xy[:, 2]) | (xy[:, 1] > xy[:, 3]))):
            raise ValueError("valid rows must satisfy x1 <= x2 and y1 <= y2")
        object.__setattr__(self, "class_ids", cls)
        object.__setattr__(self, "scores", sc)
        object.__setattr__(self, "corners", xy)

    def __len__(self) -> int:
        return len(self.class_ids)

    @classmethod
    def invalid(cls, n: int) -> "BoxSet":
        return cls(
            class_ids=np.full(n, -1, np.int32),
            scores=np.full(n, INVALID, np.float32),
            corners=np.full((n, 4), INVALID, np.float32),
        )

    def to_array(self) -> np.ndarray:
        """Packed (n, 6) float32 rows: class, score, x1, y1, x2, y2."""
        out = np.empty((len(self), 6), np.float32)
        out[:, 0] = self.class_ids
        out[:, 1] = self.scores
        out[:, 2:] = self.corners
        return out

    @classmethod
    def from_array(cls, rows) -> "BoxSet":
        rows = np.asarray(rows, dtype=np.float32).reshape(-1, 6)
        return cls(class_ids=rows[:, 0].astype(np.int32), scores=rows[:, 1], corners=rows[:, 2:])


def _pymin(x, y):
    """Elementwise ``min(x, y)`` as Python computes it: y if y < x else x."""
    return np.where(y < x, y, x)


def _pymax(x, y):
    """Elementwise ``max(x, y)`` as Python computes it: y if y > x else x."""
    return np.where(y > x, y, x)


def iou(a, b):
    """Corner-coordinate intersection over union of (..., 4) box arrays.

    ``a`` and ``b`` broadcast against each other. The arithmetic is float64
    in the order of the scalar rule, with Python's min/max semantics (which
    matter for NaN corners), so every value is bitwise what the scalar rule
    gives for that pair. Pairs with no positive width, height or union give
    0. Two single boxes give a float.
    """
    ax1, ay1, ax2, ay2 = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bx1, by1, bx2, by2 = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    with np.errstate(all="ignore"):
        iw = _pymin(ax2, bx2) - _pymax(ax1, bx1)
        ih = _pymin(ay2, by2) - _pymax(ay1, by1)
        inter = iw * ih
        union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
        out = np.where((iw <= 0.0) | (ih <= 0.0) | (union <= 0.0), 0.0, inter / union)
    return float(out) if out.ndim == 0 else out


def _live(boxes: BoxSet, order: np.ndarray, score_threshold: float, top_k):
    """The rows of ``order`` that are valid and score >= score_threshold
    (NaN never does), at most the first top_k of them, with their class
    ids and float64 corners."""
    ok = (boxes.class_ids[order] >= 0) & (boxes.scores[order].astype(np.float64) >= score_threshold)
    cands = order[ok] if top_k is None else order[ok][: max(math.ceil(top_k), 0)]
    return cands, boxes.class_ids[cands], boxes.corners[cands].astype(np.float64)


def _suppression_rows(cls: np.ndarray, xy: np.ndarray, lo: int, hi: int,
                      iou_threshold: float) -> np.ndarray:
    """Rows lo:hi of the candidate x candidate suppression mask.

    Entry [k, j] is True iff candidate k, once kept, suppresses candidate
    j: same class and iou(box k, box j) >= iou_threshold. The rows are
    computed TILE at a time from ``lo``, which bounds the float64
    temporaries.
    """
    out = np.empty((hi - lo, len(cls)), dtype=bool)
    for a in range(lo, hi, TILE):
        z = min(a + TILE, hi)
        out[a - lo : z - lo] = (cls[a:z, None] == cls) & (iou(xy[a:z, None], xy) >= iou_threshold)
    return out


def _greedy_sweep(mask: np.ndarray, max_output) -> list[int]:
    """Candidate positions greedy NMS keeps, walking them in score order.

    A candidate is kept iff no already kept candidate suppresses it;
    the walk stops once max_output candidates are kept.
    """
    removed = np.zeros(len(mask), dtype=bool)
    kept = []
    for j in range(len(mask)):
        if max_output is not None and len(kept) >= max_output:
            break
        if not removed[j]:
            kept.append(j)
            removed |= mask[j]
    return kept


def _result_rows(packed: np.ndarray, kept: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the NMS output: row r is ``packed[kept[r]]`` for
    r < len(kept), in score order, and all-invalid past them."""
    rows = np.full((hi - lo, 6), INVALID, np.float32)
    ours = kept[lo:hi]
    rows[: len(ours)] = packed[ours]
    return rows


def box_nms(boxes: BoxSet, iou_threshold: float, score_threshold: float = 0.0,
            top_k: int | None = None, max_output: int | None = None,
            session: Session | None = None) -> BoxSet:
    """Greedy non-maximum suppression.

    Candidates are the valid rows with score >= score_threshold (NaN
    counts as below any threshold), sorted by descending score and
    truncated to top_k. A candidate is kept iff its IoU with every
    previously kept box of the same class stays below iou_threshold.
    The result has the same capacity: kept rows first, in score order,
    the rest all-invalid.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    n = len(boxes)
    if n == 0:
        return BoxSet.invalid(0)
    sess = session if session is not None else Session()
    seg = SegmentedArray(values=boxes.scores, offsets=np.array([0, n]))
    cands, cls, xy = _live(boxes, segmented_argsort(seg, order="descending", session=sess),
                           score_threshold, top_k)
    c = len(cands)
    mask_buf = sess.alloc(max(1, c * c), "bool", device=GPU, name="nms_mask")

    def fill_mask(lo, hi):
        return _suppression_rows(cls, xy, lo, hi, iou_threshold)

    launch_rows(sess, LaunchConfig(grid=1, block=max(1, ceil_div(c, TILE))), mask_buf, c,
                fill_mask, tile=TILE)
    mask = mask_buf.to_numpy()[: c * c].reshape(c, c)
    kept = cands[_greedy_sweep(mask, max_output)]

    packed = boxes.to_array()
    out_rows = sess.alloc(n * 6, "f32", device=GPU, name="nms_out")

    def write_out(lo, hi):
        return _result_rows(packed, kept, lo, hi)

    launch_rows(sess, LaunchConfig(grid=1, block=min(32, n)), out_rows, n, write_out)
    return BoxSet.from_array(out_rows.to_numpy().reshape(n, 6))


def box_nms_sequential(boxes: BoxSet, iou_threshold: float, score_threshold: float = 0.0,
                       top_k: int | None = None, max_output: int | None = None) -> BoxSet:
    """Greedy NMS through the same suppression mask and sweep as box_nms, no emulator."""
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    n = len(boxes)
    # stable descending order with NaN scores last, ties by row index
    order = np.argsort(-boxes.scores.astype(np.float64), kind="stable")
    cands, cls, xy = _live(boxes, order, score_threshold, top_k)
    kept = cands[_greedy_sweep(_suppression_rows(cls, xy, 0, len(cands), iou_threshold), max_output)]
    return BoxSet.from_array(_result_rows(boxes.to_array(), kept, 0, n))


DEFAULT_VARIANCES = (0.1, 0.1, 0.2, 0.2)


def decode_boxes(loc: np.ndarray, anchors: np.ndarray, variances=DEFAULT_VARIANCES,
                 clip: bool = True) -> np.ndarray:
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
    out = np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)
    if clip:
        out = np.clip(out, 0.0, 1.0)
    return out.astype(np.float32)


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
    cls = np.argmax(fg, axis=0).astype(np.int32)  # ties -> lowest class id
    score = fg[cls, np.arange(fg.shape[1])]
    return cls, score.astype(np.float32)


def _detection_rows(probs: np.ndarray, locs: np.ndarray, anchors: np.ndarray, variances,
                    clip: bool, lo: int, hi: int) -> np.ndarray:
    """Packed (hi - lo, 6) detection rows of anchors lo..hi-1.

    The inputs are in flat (image, anchor) order: ``probs`` is
    (classes, anchors), ``locs`` and ``anchors`` (anchors, 4).
    """
    cls, score = best_foreground_class(probs[:, lo:hi])
    rows = np.empty((hi - lo, 6), np.float32)
    rows[:, 0] = cls
    rows[:, 1] = score
    rows[:, 2:] = decode_boxes(locs[lo:hi], anchors[lo:hi], variances, clip)
    return rows


def _check_multibox(class_probs, loc_preds, anchors):
    """The batch as float32 (cls, b * a) probs, (b * a, 4) offsets and
    (b * a, 4) anchors in flat (image, anchor) order, plus b and a;
    rejects inputs whose shapes do not fit together."""
    probs = np.asarray(class_probs, dtype=np.float32)
    locs = np.asarray(loc_preds, dtype=np.float32)
    ancs = np.asarray(anchors, dtype=np.float32)
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
    flat_probs = probs.transpose(1, 0, 2).reshape(k, b * a)
    return flat_probs, locs.reshape(b * a, 4), np.tile(ancs[0], (b, 1)), b, a


def multibox_detection(class_probs, loc_preds, anchors, variances=DEFAULT_VARIANCES,
                       score_threshold: float = 0.01, iou_threshold: float = 0.5,
                       top_k: int | None = None, max_output: int | None = None,
                       clip: bool = True, session: Session | None = None) -> list[BoxSet]:
    """SSD-style detection: per-anchor class selection, offset decoding, NMS.

    class_probs is (batch, classes, anchors) with class 0 = background,
    loc_preds is (batch, anchors*4), anchors is (1, anchors, 4) in corner
    form within [0, 1]. Returns one BoxSet of capacity ``anchors`` per
    batch element.
    """
    probs, locs, ancs, b, a = _check_multibox(class_probs, loc_preds, anchors)
    sess = session if session is not None else Session()
    decoded = sess.alloc(b * a * 6, "f32", device=GPU, name="mbx_decoded")

    def decode(lo, hi):
        return _detection_rows(probs, locs, ancs, variances, clip, lo, hi)

    launch_rows(sess, LaunchConfig(grid=b, block=min(32, max(1, a))), decoded, b * a, decode)
    return [box_nms(BoxSet.from_array(r), iou_threshold, score_threshold, top_k, max_output, sess)
            for r in decoded.to_numpy().reshape(b, a, 6)]


def multibox_detection_sequential(class_probs, loc_preds, anchors, variances=DEFAULT_VARIANCES,
                                  score_threshold: float = 0.01, iou_threshold: float = 0.5,
                                  top_k: int | None = None, max_output: int | None = None,
                                  clip: bool = True) -> list[BoxSet]:
    """Straight-line decode + greedy NMS, no emulator; same input check as
    multibox_detection."""
    probs, locs, ancs, b, a = _check_multibox(class_probs, loc_preds, anchors)
    rows = _detection_rows(probs, locs, ancs, variances, clip, 0, b * a).reshape(b, a, 6)
    return [box_nms_sequential(BoxSet.from_array(r), iou_threshold, score_threshold, top_k, max_output)
            for r in rows]
