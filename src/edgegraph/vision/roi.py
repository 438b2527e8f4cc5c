"""ROIAlign: average-pooled bilinear sampling over regions of interest.

Each output cell averages sampling_ratio**2 bilinear samples placed on a
regular grid inside the cell. Sample coordinates use the half-pixel
convention (pixel (i, j) sits at continuous coordinate (i, j), so an ROI
covering an integer-aligned region samples exactly on pixel centers) and
are clamped to the feature map. A zero-area ROI degenerates to repeated
sampling at its origin, which is well defined, not an error.

A launch casts the map once to float64 with its last row and column
repeated, (C, H + 1, W + 1): exact, as a sample on the map's last row or
column reads that row or column as its far corner too. A range call plans
its own ROIs as one flat top-left index and four bilinear weights per
sample (``_sample_planes``), the corners at that index plus 0, 1, W + 1
and W + 2, then pools them ``PASS`` float64 elements' worth of channels
at a time in two float64 workspaces (``_pool``): a gather per corner,
then a plane-wise cell mean in numpy's sum order (``_cell_mean``).
Kernel and twin are one body, ``_roi_align``: a ``simt.run_rows`` launch
whose lanes own tiles of ``TILE`` ROIs, or one host call over every ROI.
Every NaN output is the one quiet NaN, whose bits would otherwise tell a
pass's shape, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..simt import LaunchConfig, Session, as_dtype, canonical_nan, ceil_div, check_int, run_rows

# ROIs per lane tile: a launch has ceil(n / TILE) tiles, up to 4 per block.
TILE = 8
PASS = 2**15  # float64 elements per channel pass: beat 2**13 and 2**14, tied with 2**16


def _check_inputs(features, rois, output_size, sampling_ratio):
    """Validated (features, rois, (ph, pw), ratio) shared by kernel and twin.

    ``features`` must be (1, C, H, W); ``rois`` one (x1, y1, x2, y2) box
    of shape (4,), or (n, 4) boxes (an empty sequence is zero boxes), all
    finite. Raises ``ValueError`` otherwise.
    """
    feats = as_dtype(features, "f32")[1]
    if feats.ndim != 4 or feats.shape[0] != 1 or 0 in feats.shape[2:]:
        raise ValueError(f"features must be (1, C, H, W) with H, W >= 1, got {feats.shape}")
    boxes = as_dtype(rois, "f32")[1]
    if boxes.shape in ((4,), (0,)):
        boxes = boxes.reshape(-1, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"rois must have shape (4,) or (n, 4), got {boxes.shape}")
    bad = np.flatnonzero(~np.isfinite(boxes).all(axis=1))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"roi row {row} has a non-finite coordinate: {boxes[row].tolist()}")
    size = tuple(output_size) if np.iterable(output_size) else ()
    if len(size) != 2:
        raise ValueError(f"output_size must be two ints >= 1, got {output_size!r}")
    size = tuple(check_int(f"output_size[{i}]", v, 1) for i, v in enumerate(size))
    return feats, boxes, size, check_int("sampling_ratio", sampling_ratio, 1)


def _axis_plan(start, stop, bins, ratio, limit):
    """Near corner index and far corner weight along one axis: each (n, bins, ratio)."""
    step = (stop - start) / bins
    offs = np.arange(bins, dtype=np.float64)[:, None] + (np.arange(ratio, dtype=np.float64) + 0.5) / ratio
    # half-pixel aligned, in the same float64 operation order as the scalar rule
    s = start[:, None, None] + offs[None] * step[:, None, None] - 0.5
    s = np.clip(s, 0.0, limit - 1.0)
    lo = np.floor(s).astype(np.int64)
    return lo, s - lo


def _sample_planes(rois: np.ndarray, output_size, ratio: int, h: int, w: int):
    """The sampling plan of ``rois`` in one float64 pass: ``(index, gy, ky, gx, kx)``,
    flat over the samples in (ry, rx, roi, ph, pw) order, so each (ry, rx) sample is
    one plane of every cell: a sample's top-left corner in the padded map, whose rows
    hold w + 1 values, then the weights of its first and second row and of its first
    and second column.
    """
    r = rois.astype(np.float64)
    (ph, pw), n = output_size, rois.shape[0]
    (y0, fy), (x0, fx) = _axis_plan(r[:, 1], r[:, 3], ph, ratio, h), _axis_plan(r[:, 0], r[:, 2], pw, ratio, w)
    shape = (ratio, ratio, n, ph, pw)

    def spread(a, axes):  # (n, bins, ratio) -> one value per sample
        return np.broadcast_to(np.expand_dims(a.transpose(2, 0, 1), axes), shape).reshape(-1)

    rows, gy, ky = (spread(a, (1, 4)) for a in (y0 * (w + 1), 1 - fy, fy))
    cols, gx, kx = (spread(a, (0, 3)) for a in (x0, 1 - fx, fx))
    return rows + cols, gy, ky, gx, kx


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


def _pool(padded: np.ndarray, rois: np.ndarray, size, ratio: int, h: int, w: int) -> np.ndarray:
    """Pooled (n, C, ph, pw) float32 maps of the n ``rois`` from the padded
    float64 map, one channel pass at a time in two float64 workspaces."""
    index, gy, ky, gx, kx = _sample_planes(rois, size, ratio, h, w)
    c, n, samples = padded.shape[0], rois.shape[0], index.size
    step = min(c, max(1, PASS // samples))
    out = np.empty((n, c, *size), np.float32)
    work = np.empty((2, step * samples))
    corners = (0, gy, gx), (1, gy, kx), (w + 1, ky, gx), (w + 2, ky, kx)
    for c0 in range(0, c, step):
        c1 = min(c0 + step, c)
        v, t = (ws[: (c1 - c0) * samples].reshape(c1 - c0, samples) for ws in work)
        for j, (shift, wy, wx) in enumerate(corners):  # v += f[index + shift] * wy * wx
            term = t if j else v
            # every index is in range; mode="raise" would gather into a buffer
            np.take(padded[c0:c1, shift:], index, axis=1, out=term, mode="clip")
            term *= wy
            term *= wx
            if j:
                v += t
        cells = _cell_mean(v.reshape(c1 - c0, ratio * ratio, -1))
        out[:, c0:c1] = cells.reshape(c1 - c0, n, *size).transpose(1, 0, 2, 3)
    return canonical_nan(out)


def _roi_align(features, rois, output_size, sampling_ratio, sess: Session | None) -> np.ndarray:
    """roi_align's pooled maps on session ``sess``, or the CPU twin's if sess is None."""
    feats, boxes, (ph, pw), ratio = _check_inputs(features, rois, output_size, sampling_ratio)
    _, c, h, w = feats.shape
    r = boxes.shape[0]
    if r == 0 or c == 0:  # nothing to pool: no launch
        return np.zeros((r, c, ph, pw), np.float32)
    padded = np.empty((c, h + 1, w + 1))
    padded[:, :h, :w], padded[:, :h, w] = feats[0], feats[0, :, :, w - 1]
    padded[:, h] = padded[:, h - 1]
    tiles = ceil_div(r, TILE)
    block = min(4, tiles)

    def pool(lo, hi):
        return _pool(padded.reshape(c, -1), boxes[lo:hi], (ph, pw), ratio, h, w)

    return run_rows(sess, LaunchConfig(grid=ceil_div(tiles, block), block=block), "f32", r,
                    c * ph * pw, pool, "roi_out", TILE).reshape(r, c, ph, pw)


def roi_align(features, rois, output_size, sampling_ratio: int = 2,
              session: Session | None = None) -> np.ndarray:
    """ROIAlign over a (1, C, H, W) feature map.

    ``rois`` is a sequence of (x1, y1, x2, y2) in feature coordinates;
    returns a (len(rois), C, ph, pw) float32 array. One launch: each
    thread owns one tile of ``TILE`` ROIs across all channels.
    """
    return _roi_align(features, rois, output_size, sampling_ratio,
                      session if session is not None else Session())


def roi_align_sequential(features, rois, output_size, sampling_ratio: int = 2) -> np.ndarray:
    """Same pooling without the emulator, in one call over every ROI."""
    return _roi_align(features, rois, output_size, sampling_ratio, None)
