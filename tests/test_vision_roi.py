"""ROIAlign against a per-sample scalar bilinear oracle."""

import numpy as np
import pytest

from edgegraph.simt import Session
from edgegraph.vision import roi_align, roi_align_sequential
from edgegraph.vision.roi import TILE, _cell_mean


def oracle_bilinear(fm, y, x):
    h, w = fm.shape
    y = min(max(y, 0.0), h - 1.0)
    x = min(max(x, 0.0), w - 1.0)
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    wy, wx = y - y0, x - x0
    return (
        float(fm[y0, x0]) * (1 - wy) * (1 - wx)
        + float(fm[y0, x1]) * (1 - wy) * wx
        + float(fm[y1, x0]) * wy * (1 - wx)
        + float(fm[y1, x1]) * wy * wx
    )


def oracle_roi_align(feats, rois, output_size, ratio):
    """Scalar loops over every roi, channel, cell and sample."""
    ph, pw = output_size
    r = len(rois)
    c = feats.shape[1]
    out = np.zeros((r, c, ph, pw), np.float64)
    for ri, (x1, y1, x2, y2) in enumerate(rois):
        bin_h = (y2 - y1) / ph
        bin_w = (x2 - x1) / pw
        for ci in range(c):
            fm = feats[0, ci].astype(np.float64)
            for py in range(ph):
                for px in range(pw):
                    total = 0.0
                    for iy in range(ratio):
                        for ix in range(ratio):
                            sy = y1 + (py + (iy + 0.5) / ratio) * bin_h - 0.5
                            sx = x1 + (px + (ix + 0.5) / ratio) * bin_w - 0.5
                            total += oracle_bilinear(fm, sy, sx)
                    out[ri, ci, py, px] = total / (ratio * ratio)
    return out.astype(np.float32)


def per_channel_reference(feats, rois, output_size, ratio):
    """The pooling one (roi, channel) at a time, with the kernel's float64
    operations in the kernel's order, so results must match bitwise."""
    ph, pw = output_size
    h, w = feats.shape[2:]
    out = np.zeros((len(rois), feats.shape[1], ph, pw), np.float32)
    offs = lambda n: np.arange(n, dtype=np.float64)[:, None] + (np.arange(ratio) + 0.5) / ratio
    for ri, (x1, y1, x2, y2) in enumerate(np.asarray(rois, np.float32).tolist()):
        ys = np.clip(y1 + offs(ph) * ((y2 - y1) / ph) - 0.5, 0.0, h - 1.0)
        xs = np.clip(x1 + offs(pw) * ((x2 - x1) / pw) - 0.5, 0.0, w - 1.0)
        y0, x0 = np.floor(ys).astype(np.int64), np.floor(xs).astype(np.int64)
        y1i, x1i = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
        wy, wx = (ys - y0)[:, :, None, None], (xs - x0)[None, None]
        y0, y1i, x0, x1i = y0[:, :, None, None], y1i[:, :, None, None], x0[None, None], x1i[None, None]
        for ci in range(feats.shape[1]):
            f = feats[0, ci].astype(np.float64)
            v = (
                f[y0, x0] * (1 - wy) * (1 - wx)
                + f[y0, x1i] * (1 - wy) * wx
                + f[y1i, x0] * wy * (1 - wx)
                + f[y1i, x1i] * wy * wx
            )
            cells = v.transpose(0, 2, 1, 3).reshape(ph, pw, ratio * ratio)
            out[ri, ci] = cells.mean(axis=2).astype(np.float32)
    return out


def random_case(rng):
    """Features spread over many decades, half of them with a fifth of
    their values NaN or +-inf; ROIs partly outside the map, some of zero
    width or height, in counts below three tiles that may or may not fill
    their last tile. Float32 rounding would hide a float64 sum taken in
    another order; across many decades its cancellations show it."""
    c = int(rng.choice([1, int(rng.integers(2, 20))]))
    h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    feats = rng.standard_normal((1, c, h, w)) * 10.0 ** rng.integers(-6, 7, (1, c, h, w))
    feats = feats.astype(np.float32)
    if rng.random() < 0.5:
        k = max(1, feats.size // 5)
        feats.reshape(-1)[rng.integers(0, feats.size, k)] = rng.choice([np.nan, np.inf, -np.inf], k)
    n = int(rng.integers(1, 3 * TILE))
    xy = rng.random((n, 2)) * (max(h, w) + 4) - 2
    wh = rng.random((n, 2)) * 8
    wh[rng.random((n, 2)) < 0.1] = 0
    rois = np.concatenate([xy, xy + wh], axis=1).astype(np.float32)
    size = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    return feats, rois, size, int(rng.integers(1, 7))


def test_kernel_twin_and_per_channel_reference_agree_bitwise():
    """Kernel and twin match bit for bit, NaNs included. The reference
    matches them in every bit of every non-NaN output and in where the
    NaNs are. A NaN's sign can differ where a sample adds NaNs of both
    signs (inf * 0 makes a negative one): which one an add keeps depends
    on the element's place in numpy's vector loop, so on the array shape."""
    rng = np.random.default_rng(7)
    ratios = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for trial in range(80):
            feats, rois, size, ratio = random_case(rng)
            ratios.add(ratio)
            sess = Session(race_check=trial % 4 == 0)
            got = roi_align(feats, rois, size, ratio, session=sess)
            twin = roi_align_sequential(feats, rois, size, ratio)
            want = per_channel_reference(feats, rois, size, ratio)
            assert got.shape == want.shape == (len(rois), feats.shape[1]) + size
            assert np.array_equal(got.view(np.uint32), twin.view(np.uint32)), f"trial {trial}"
            same = (twin.view(np.uint32) == want.view(np.uint32)) | (np.isnan(twin) & np.isnan(want))
            assert same.all(), f"trial {trial}"
    assert ratios == {1, 2, 3, 4, 5, 6}


def test_sums_run_in_the_scalar_rules_order():
    """Cancelling terms make the order of a float64 sum show in float32:
    the four corner terms add in the scalar rule's order, and a cell's
    samples in numpy's pairwise order over one contiguous row."""
    # one sample midway between the four pixels
    corners = np.array([[1e8, 1e-3], [-1e8, 0.0]], np.float32).reshape(1, 1, 2, 2)
    # ratio 3 over a 3x3 ROI puts the nine samples on the nine pixels; two
    # channels, so a gather that is not C-contiguous sums in another order
    row = [1e17, 1, -1e17, 1, 3, 1, 1, 1, 1]
    samples = np.array([row, row[::-1]], np.float32).reshape(1, 2, 3, 3)
    for feats, roi, ratio in ((corners, [0, 0, 2, 2], 1), (samples, [0, 0, 3, 3], 3)):
        want = per_channel_reference(feats, [roi], (1, 1), ratio).view(np.uint32)
        for fn in (roi_align, roi_align_sequential):
            assert np.array_equal(fn(feats, [roi], (1, 1), ratio).view(np.uint32), want)


def test_corner_terms_multiply_row_weight_first():
    """A corner term is (f * row weight) * column weight. On this map the
    four terms of the one sample cancel to about 4e-11 of their size, so
    the other product order, which rounds differently in float64, shows in
    the float32 output."""
    feats = np.array([[7314499, -2977657], [11885623, 33707068]], np.float32).reshape(1, 1, 2, 2)
    roi = [0.704, 0.007, 1.837, 1.035]
    want = per_channel_reference(feats, [roi], (1, 1), 1).view(np.uint32)
    for fn in (roi_align, roi_align_sequential):
        assert np.array_equal(fn(feats, [roi], (1, 1), 1).view(np.uint32), want)
    x1, y1, x2, y2 = np.float32(roi).tolist()
    wy, wx = y1 + 0.5 * (y2 - y1) - 0.5, x1 + 0.5 * (x2 - x1) - 0.5
    f = feats[0, 0].astype(np.float64)
    swapped = (f[0, 0] * (1 - wx) * (1 - wy) + f[0, 1] * wx * (1 - wy)
               + f[1, 0] * (1 - wx) * wy + f[1, 1] * wx * wy)
    assert np.float32(swapped).view(np.uint32) != want.item()


def decades_case(rng, c, n, ratio, size=(3, 2)):
    """Finite features over 19 decades with some -0.0 values, and n ROIs
    partly outside the map: the kernel, twin and reference must then agree
    in every bit, NaN signs never coming into it."""
    feats = rng.standard_normal((1, c, 9, 7)) * 10.0 ** rng.integers(-9, 10, (1, c, 9, 7))
    feats = feats.astype(np.float32)
    feats.reshape(-1)[rng.integers(0, feats.size, feats.size // 7)] = -0.0
    xy = rng.random((n, 2)) * 11 - 1
    rois = np.concatenate([xy, xy + rng.random((n, 2)) * 6], axis=1).astype(np.float32)
    return feats, rois, size, ratio


@pytest.mark.parametrize("ratio", [1, 3, 6])
@pytest.mark.parametrize("nroi", sorted({1, max(1, TILE - 1), TILE, TILE + 1, 5 * TILE - 3}))
def test_tile_edges_agree_bitwise_with_the_reference(nroi, ratio):
    """Full and partial tiles, on every path, bit for bit."""
    feats, rois, size, ratio = decades_case(np.random.default_rng(nroi * 10 + ratio), 5, nroi, ratio)
    want = per_channel_reference(feats, rois, size, ratio).view(np.uint32)
    for got in (roi_align(feats, rois, size, ratio, session=Session()),
                roi_align(feats, rois, size, ratio, session=Session(race_check=True)),
                roi_align_sequential(feats, rois, size, ratio)):
        assert got.shape == (nroi, 5) + size
        assert np.array_equal(got.view(np.uint32), want)


def test_successive_calls_share_no_workspace():
    """Calls that grow, then shrink, in channels, samples and ROIs each
    match the reference, so no call reuses another's workspaces."""
    rng = np.random.default_rng(4)
    for c, ratio, nroi in ((2, 2, TILE + 2), (9, 5, 2 * TILE + 1), (6, 3, 1)):
        feats, rois, size, ratio = decades_case(rng, c, nroi, ratio, size=(2, 4))
        want = per_channel_reference(feats, rois, size, ratio).view(np.uint32)
        for fn in (roi_align, roi_align_sequential):
            assert np.array_equal(fn(feats, rois, size, ratio).view(np.uint32), want)


@pytest.mark.parametrize("k", list(range(1, 37)) + [128, 129, 200])
def test_cell_mean_is_numpys_mean_bitwise(k):
    """The plane-wise mean equals .mean(axis=-1) over contiguous rows in
    every bit, on values spread over 19 decades whose cancellations show a
    sum taken in any other order; rows of -0.0 mean +0.0, as numpy's do."""
    rng = np.random.default_rng(k)
    rows = rng.standard_normal((3, 40, k)) * 10.0 ** rng.integers(-9, 10, (3, 40, k))
    rows[0, :4] = -0.0
    want = rows.mean(axis=-1)
    got = _cell_mean(np.ascontiguousarray(np.swapaxes(rows, -1, -2)))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("nroi", [1, TILE, TILE + 1, 5 * TILE - 3])
def test_one_launch_per_call(nroi):
    sess = Session()
    feats = np.ones((1, 3, 5, 5), np.float32)
    roi_align(feats, np.tile([[0.5, 0.5, 3.0, 4.0]], (nroi, 1)), (2, 2), 2, session=sess)
    assert sess.stats().launches == 1
    assert sum(sess.stats().per_thread_items) == nroi * 3 * 2 * 2


def test_constant_feature_map_gives_constant_output():
    feats = np.full((1, 3, 6, 6), 2.75, np.float32)
    out = roi_align(feats, [[0.5, 0.5, 4.0, 5.0]], (3, 3), sampling_ratio=2)
    assert out.dtype == np.float32 and out.tobytes() == np.full(out.shape, 2.75, np.float32).tobytes()


def test_integer_aligned_region_returns_underlying_values():
    feats = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = roi_align(feats, [[0.0, 0.0, 2.0, 2.0]], (2, 2), sampling_ratio=1)
    assert out.reshape(-1).tolist() == [0.0, 1.0, 4.0, 5.0]


def test_degenerate_roi_is_not_an_error():
    feats = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = roi_align(feats, [[1.5, 2.0, 1.5, 2.0]], (2, 2), sampling_ratio=2)
    want = oracle_roi_align(feats, [[1.5, 2.0, 1.5, 2.0]], (2, 2), 2)
    assert out.dtype == np.float32 and out.tobytes() == want.astype(np.float32).tobytes()


def test_randomized_against_scalar_oracle():
    rng = np.random.default_rng(0)
    for trial in range(60):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(3, 10))
        w = int(rng.integers(3, 10))
        feats = rng.standard_normal((1, c, h, w)).astype(np.float32)
        nroi = int(rng.integers(1, 5))
        x1 = rng.random(nroi) * (w - 1)
        y1 = rng.random(nroi) * (h - 1)
        rois = np.stack(
            [x1, y1, x1 + rng.random(nroi) * (w - x1), y1 + rng.random(nroi) * (h - y1)], axis=1
        ).astype(np.float32)
        size = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        ratio = int(rng.integers(1, 4))
        got = roi_align(feats, rois, size, sampling_ratio=ratio)
        want = oracle_roi_align(feats, rois.tolist(), size, ratio)
        assert got.dtype == want.dtype and got.shape == want.shape, f"trial {trial}"
        assert got.tobytes() == want.tobytes(), f"trial {trial}"


def test_output_shape():
    feats = np.zeros((1, 5, 8, 8), np.float32)
    out = roi_align(feats, [[0, 0, 4, 4], [1, 1, 3, 3], [2, 2, 6, 7]], (3, 4), 2)
    assert out.shape == (3, 5, 3, 4)


def test_bad_arguments():
    feats = np.zeros((1, 2, 4, 4), np.float32)
    with pytest.raises(ValueError):
        roi_align(np.zeros((2, 2, 4, 4), np.float32), [[0, 0, 1, 1]], (2, 2))
    with pytest.raises(ValueError):
        roi_align(feats, [[0, 0, 1, 1]], (0, 2))
    with pytest.raises(ValueError):
        roi_align(feats, [[0, 0, 1, 1]], (2, 2), sampling_ratio=0)


def test_single_roi_and_empty_roi_list():
    feats = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    for fn in (roi_align, roi_align_sequential):
        assert fn(feats, [0.0, 0.0, 2.0, 2.0], (2, 2), 1).reshape(-1).tolist() == [0.0, 1.0, 4.0, 5.0]
        assert fn(feats, [], (2, 3), 1).shape == (0, 1, 2, 3)


@pytest.mark.parametrize("args, match", [
    ((np.zeros((2, 2, 4, 4)), [[0, 0, 1, 1]], (2, 2), 2), "features"),
    ((np.zeros((2, 4, 4)), [[0, 0, 1, 1]], (2, 2), 2), "features"),
    ((np.zeros((1, 2, 0, 4)), [[0, 0, 1, 1]], (2, 2), 2), "features"),
    ((np.zeros((1, 2, 4, 4)), np.zeros((4, 5)), (2, 2), 2), "rois"),
    ((np.zeros((1, 2, 4, 4)), np.zeros((2, 4, 1)), (2, 2), 2), "rois"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1], [0, np.nan, 1, 1]], (2, 2), 2), "row 1"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, np.inf, 1]], (2, 2), 2), "row 2"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, 0), 2), "output_size"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, 2, 2), 2), "output_size"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, 2), 0), "sampling_ratio"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, 2), 1.5), "sampling_ratio"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, 2), float("inf")), "sampling_ratio"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, float("nan")), 2), "output_size"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, 2), True), "sampling_ratio"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (True, 2), 2), "output_size"),
    ((np.zeros((1, 2, 4, 4)), [[0, 0, 1, 1]], (2, 2), "2"), "sampling_ratio"),
])
def test_kernel_and_twin_reject_bad_inputs_alike(args, match):
    for fn in (roi_align, roi_align_sequential):
        with pytest.raises(ValueError, match=match):
            fn(*args)


@pytest.mark.parametrize("count", [0, 1, 9])
def test_zero_channel_map_pools_nothing_on_kernel_and_twin(count):
    feats = np.zeros((1, 0, 5, 5), np.float32)
    rois = np.tile(np.float32([0.5, 1.0, 3.0, 4.0]), (count, 1))
    sess = Session()
    for got in (roi_align(feats, rois, (2, 3), session=sess), roi_align_sequential(feats, rois, (2, 3))):
        assert got.shape == (count, 0, 2, 3) and got.dtype == np.float32
    assert sess.launch_log == []
