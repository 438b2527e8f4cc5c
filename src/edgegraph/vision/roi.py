"""ROIAlign: average-pooled bilinear sampling over regions of interest.

Each output cell averages sampling_ratio**2 bilinear samples placed on a
regular grid inside the cell. Sample coordinates use the half-pixel
convention (pixel (i, j) sits at continuous coordinate (i, j), so an ROI
covering an integer-aligned region samples exactly on pixel centers) and
are clamped to the feature map. A zero-area ROI degenerates to repeated
sampling at its origin, which is well defined, not an error.

Sample rows and columns depend only on the ROI, so a launch first builds
its sampling plan for every ROI in one vectorized float64 pass
(``_plan``). The pooling then runs on tiles of ``TILE`` consecutive ROIs:
each tile takes all channels at once, with one gather per bilinear corner
(``_pool_many``). The kernel is one ``simt.launch_rows`` launch whose
threads each pool one tile (``_pool_tiles``) and write it with one slice
store; the sequential twin runs ``_pool_tiles`` over every ROI, so it
pools the same tiles and the two agree bit for bit, NaNs included.
"""

from __future__ import annotations

import numpy as np

from ..simt import GPU, LaunchConfig, Session, ceil_div, launch_rows

# ROIs pooled together. It bounds a tile's float64 temporaries, each
# C x TILE x ph x pw x ratio**2 values. With 16 channels, 7x7 cells and
# ratio 2, a tile of 4 pooled faster per ROI than tiles of 1, 2 or 8,
# and keeps each temporary under glibc's 128 KiB mmap threshold.
TILE = 4


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
    if len(size) != 2 or not all(map(_positive_int, size)):
        raise ValueError(f"output_size must be two ints >= 1, got {output_size!r}")
    if not _positive_int(sampling_ratio):
        raise ValueError(f"sampling_ratio must be an int >= 1, got {sampling_ratio!r}")
    return feats, boxes, (int(size[0]), int(size[1])), int(sampling_ratio)


def _positive_int(v) -> bool:
    whole = isinstance(v, (int, np.integer)) or (isinstance(v, float) and v.is_integer())
    return whole and v >= 1


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


def _pool_many(flat: np.ndarray, w: int, plan, lo: int, hi: int) -> np.ndarray:
    """Pooled (hi - lo, C, ph, pw) float32 maps of ROIs lo..hi-1.

    ``flat`` is the float32 feature map as (C, H * W); products run in
    float64, which holds every float32 value exactly. The tile's samples
    are laid out flat in (roi, ph, pw, ry, rx) order, so each bilinear
    corner is one gather and every product runs along one long axis.
    """
    (y0, y1, wy), (x0, x1, wx) = plan
    n, ph, ratio = y0[lo:hi].shape
    pw = x0.shape[1]
    shape = (n, ph, pw, ratio, ratio)

    def rows(a):
        return np.broadcast_to(a[lo:hi, :, None, :, None], shape).reshape(-1)

    def cols(a):
        return np.broadcast_to(a[lo:hi, None, :, None, :], shape).reshape(-1)

    r0, r1, fy = rows(y0) * w, rows(y1) * w, rows(wy)
    c0, c1, fx = cols(x0), cols(x1), cols(wx)
    gy, gx = 1 - fy, 1 - fx
    # the scalar rule's four corner terms f * wy * wx, summed in its order,
    # in place: a tile holds two float64 (C, samples) arrays at a time
    v = np.take(flat, r0 + c0, axis=1) * gy
    v *= gx
    t = np.empty_like(v)
    for idx, ky, kx in ((r0 + c1, gy, fx), (r1 + c0, fy, gx), (r1 + c1, fy, fx)):
        np.multiply(np.take(flat, idx, axis=1), ky, out=t)
        t *= kx
        v += t
    # mean over a last, contiguous (ry, rx) axis, as the scalar rule sums it
    cells = v.reshape(flat.shape[0], n, ph, pw, ratio * ratio)
    return cells.mean(axis=-1).astype(np.float32).transpose(1, 0, 2, 3)


def _pool_tiles(flat: np.ndarray, w: int, plan, lo: int, hi: int) -> np.ndarray:
    """Pooled (hi - lo, C, ph, pw) maps of ROIs lo..hi-1, one tile of
    ``TILE`` ROIs at a time from ``lo``."""
    (y0, _, _), (x0, _, _) = plan
    out = np.empty((hi - lo, flat.shape[0], y0.shape[1], x0.shape[1]), np.float32)
    for a in range(lo, hi, TILE):
        out[a - lo : a - lo + TILE] = _pool_many(flat, w, plan, a, min(a + TILE, hi))
    return out


def roi_align(features, rois, output_size, sampling_ratio: int = 2,
              session: Session | None = None) -> np.ndarray:
    """ROIAlign over a (1, C, H, W) feature map.

    ``rois`` is a sequence of (x1, y1, x2, y2) in feature coordinates;
    returns a (len(rois), C, ph, pw) float32 array. One launch: each
    thread pools one tile of ``TILE`` ROIs across all channels.
    """
    feats, boxes, (ph, pw), ratio = _check_inputs(features, rois, output_size, sampling_ratio)
    _, c, h, w = feats.shape
    r = boxes.shape[0]
    if r == 0:
        return np.zeros((0, c, ph, pw), np.float32)
    plan = _plan(boxes, (ph, pw), ratio, h, w)
    flat = feats[0].reshape(c, h * w)
    sess = session if session is not None else Session()
    out = sess.alloc(r * c * ph * pw, "f32", device=GPU, name="roi_out")
    tiles = ceil_div(r, TILE)
    block = min(4, tiles)

    def pool(lo, hi):
        return _pool_tiles(flat, w, plan, lo, hi)

    launch_rows(sess, LaunchConfig(grid=ceil_div(tiles, block), block=block), out, r, pool,
                tile=TILE)
    return out.to_numpy().reshape(r, c, ph, pw)


def roi_align_sequential(features, rois, output_size, sampling_ratio: int = 2) -> np.ndarray:
    """Same pooling without the emulator, over the kernel's tiles."""
    feats, boxes, (ph, pw), ratio = _check_inputs(features, rois, output_size, sampling_ratio)
    _, c, h, w = feats.shape
    plan = _plan(boxes, (ph, pw), ratio, h, w)
    return _pool_tiles(feats[0].reshape(c, h * w), w, plan, 0, boxes.shape[0])
