"""ROIAlign: average-pooled bilinear sampling over regions of interest.

Each output cell averages sampling_ratio**2 bilinear samples placed on a
regular grid inside the cell. Sample coordinates use the half-pixel
convention (pixel (i, j) sits at continuous coordinate (i, j), so an ROI
covering an integer-aligned region samples exactly on pixel centers) and
are clamped to the feature map. A zero-area ROI degenerates to repeated
sampling at its origin, which is well defined, not an error.

A launch sets up once: it casts the map to float64 (exact), plans each
ROI's sample rows and columns (``_plan``) and turns the plan into flat
per-sample corner indices and weights (``_sample_planes``). Tiles of
``TILE`` consecutive ROIs then pool all channels in place in two float64
workspaces that a range call allocates once (``_pool_tiles``): a gather
per bilinear corner, then a plane-wise cell mean in numpy's sum order
(``_cell_mean``). Kernel and twin are one body, ``_roi_align``: its
``simt.run_rows`` call is a launch whose threads each pool tiles and write
them with one slice store, or for the twin one host call over every ROI.
Both pool the same tiles, so they agree bit for bit, NaNs included.
"""

from __future__ import annotations

import numpy as np

from ..simt import LaunchConfig, Session, ceil_div, check_int, run_rows

# ROIs pooled together in two (C, TILE * ratio**2 * ph * pw) float64 workspaces.
# On 16 channels, 7x7 cells and ratio 2, 8 pooled faster than 4 or 16.
TILE = 8


def _check_inputs(features, rois, output_size, sampling_ratio):
    """Validated (features, rois, (ph, pw), ratio) shared by kernel and twin.

    ``features`` must be (1, C, H, W); ``rois`` one (x1, y1, x2, y2) box
    of shape (4,), or (n, 4) boxes (an empty sequence is zero boxes), all
    finite. Raises ``ValueError`` otherwise.
    """
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 4 or feats.shape[0] != 1 or 0 in feats.shape[2:]:
        raise ValueError(f"features must be (1, C, H, W) with H, W >= 1, got {feats.shape}")
    boxes = np.asarray(rois, dtype=np.float32)
    if boxes.shape in ((4,), (0,)):
        boxes = boxes.reshape(-1, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"rois must have shape (4,) or (n, 4), got {boxes.shape}")
    bad = np.flatnonzero(~np.isfinite(boxes).all(axis=1))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"roi row {row} has a non-finite coordinate: {boxes[row].tolist()}")
    size = tuple(output_size)
    if len(size) != 2:
        raise ValueError(f"output_size must be two ints >= 1, got {output_size!r}")
    size = tuple(check_int(f"output_size[{i}]", v, 1) for i, v in enumerate(size))
    return feats, boxes, size, check_int("sampling_ratio", sampling_ratio, 1)


def _axis_plan(start, stop, bins, ratio, limit):
    """Corner indices and weights along one axis: each of shape (n, bins, ratio)."""
    step = (stop - start) / bins
    offs = np.arange(bins, dtype=np.float64)[:, None] + (np.arange(ratio, dtype=np.float64) + 0.5) / ratio
    # half-pixel aligned, in the same float64 operation order as the scalar rule
    s = start[:, None, None] + offs[None] * step[:, None, None] - 0.5
    s = np.clip(s, 0.0, limit - 1.0)
    lo = np.floor(s).astype(np.int64)
    return lo, np.minimum(lo + 1, limit - 1), s - lo


def _plan(rois: np.ndarray, output_size, ratio: int, h: int, w: int):
    """Sampling plan of every ROI of a launch in one float64 pass.

    Returns ``((y0, y1, wy), (x0, x1, wx))``: for each ROI, sample row
    and sample column, the two rows (columns) it blends and the weight of
    the second, of shapes (n, ph, ratio) and (n, pw, ratio).
    """
    r = rois.astype(np.float64)
    ph, pw = output_size
    return (_axis_plan(r[:, 1], r[:, 3], ph, ratio, h),
            _axis_plan(r[:, 0], r[:, 2], pw, ratio, w))


def _sample_planes(plan, w: int):
    """``((ratio**2, ph, pw), corners)``: per bilinear corner, in the scalar
    rule's order, its flat map index, row weight and column weight, each a
    flat array over the samples of every ROI. An ROI's samples run in (ry,
    rx, ph, pw) order, so each (ry, rx) sample is one plane of its cells.
    """
    (y0, y1, fy), (x0, x1, fx) = plan
    (n, ph, ratio), pw = y0.shape, x0.shape[1]
    shape = (n, ratio, ratio, ph, pw)

    def spread(a, axes):  # (n, bins, ratio) -> one value per sample
        return np.broadcast_to(np.expand_dims(a.transpose(0, 2, 1), axes), shape).reshape(-1)

    r0, r1, gy, ky = (spread(a, (2, 4)) for a in (y0 * w, y1 * w, 1 - fy, fy))
    c0, c1, gx, kx = (spread(a, (1, 3)) for a in (x0, x1, 1 - fx, fx))
    corners = (r0 + c0, gy, gx), (r0 + c1, gy, kx), (r1 + c0, ky, gx), (r1 + c1, ky, kx)
    return (ratio * ratio, ph, pw), corners


def _cell_mean(v: np.ndarray) -> np.ndarray:
    """``v.mean(axis=-2)`` of float64 ``v`` (..., k, m) in place, bit for bit
    as numpy means a contiguous row: +0.0 plus a pairwise sum, which adds
    under 8 values in turn, up to 128 in 8 running sums combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) then the rest, more in two halves."""
    def total(v):
        k, s = v.shape[-2], v[..., 0, :]
        if k > 128:
            half = k // 2 - k // 2 % 8
            total(v[..., :half, :])
            s += total(v[..., half:, :])
            return s
        if k >= 8:
            r = v[..., :8, :]
            for i in range(8, k - k % 8, 8):
                r += v[..., i : i + 8, :]
            for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
                r[..., a, :] += r[..., b, :]
        for i in range(k - k % 8 if k >= 8 else 1, k):
            s += v[..., i, :]
        return s

    s = total(v)
    s += 0.0  # a cell of -0.0 samples means +0.0
    s /= v.shape[-2]
    return s


def _pool_tiles(flat: np.ndarray, planes, lo: int, hi: int) -> np.ndarray:
    """Pooled (hi - lo, C, ph, pw) float32 maps of ROIs lo..hi-1, from the
    float64 (C, H * W) map ``flat`` and ``_sample_planes``, one tile of
    ``TILE`` ROIs at a time from ``lo``, in place in two float64 workspaces.
    """
    (k, ph, pw), corners = planes
    c, size = flat.shape[0], k * ph * pw
    out = np.empty((hi - lo, c, ph, pw), np.float32)
    work = np.empty((2, c * TILE * size))
    for a in range(lo, hi, TILE):
        b = min(a + TILE, hi)
        v, t = (ws[: c * (b - a) * size].reshape(c, -1) for ws in work)
        for j, (idx, ky, kx) in enumerate(corners):  # v += f[idx] * ky * kx
            term = t if j else v
            # every index is in range; mode="raise" would gather into a buffer
            np.take(flat, idx[a * size : b * size], axis=1, out=term, mode="clip")
            term *= ky[a * size : b * size]
            term *= kx[a * size : b * size]
            if j:
                v += t
        cells = _cell_mean(v.reshape(c, b - a, k, ph * pw)).reshape(c, b - a, ph, pw)
        out[a - lo : b - lo] = cells.transpose(1, 0, 2, 3)
    return out


def _roi_align(features, rois, output_size, sampling_ratio, sess: Session | None) -> np.ndarray:
    """roi_align's pooled maps on session ``sess``, or the CPU twin's if sess is None."""
    feats, boxes, (ph, pw), ratio = _check_inputs(features, rois, output_size, sampling_ratio)
    _, c, h, w = feats.shape
    r = boxes.shape[0]
    if r == 0 or c == 0:  # nothing to pool: no launch
        return np.zeros((r, c, ph, pw), np.float32)
    planes = _sample_planes(_plan(boxes, (ph, pw), ratio, h, w), w)
    flat = feats[0].reshape(c, h * w).astype(np.float64)
    tiles = ceil_div(r, TILE)
    block = min(4, tiles)

    def pool(lo, hi):
        return _pool_tiles(flat, planes, lo, hi)

    return run_rows(sess, LaunchConfig(grid=ceil_div(tiles, block), block=block), "f32", r,
                    c * ph * pw, pool, "roi_out", TILE).reshape(r, c, ph, pw)


def roi_align(features, rois, output_size, sampling_ratio: int = 2,
              session: Session | None = None) -> np.ndarray:
    """ROIAlign over a (1, C, H, W) feature map.

    ``rois`` is a sequence of (x1, y1, x2, y2) in feature coordinates;
    returns a (len(rois), C, ph, pw) float32 array. One launch: each
    thread pools one tile of ``TILE`` ROIs across all channels.
    """
    return _roi_align(features, rois, output_size, sampling_ratio,
                      session if session is not None else Session())


def roi_align_sequential(features, rois, output_size, sampling_ratio: int = 2) -> np.ndarray:
    """Same pooling without the emulator, over the kernel's tiles."""
    return _roi_align(features, rois, output_size, sampling_ratio, None)
