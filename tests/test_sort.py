"""Segmented argsort: stability, segment isolation, merge-tree launches."""

import math

import numpy as np
import pytest

from edgegraph.simt import Session, ceil_div, log2_ceil
from edgegraph.vision import SegmentedArray, segmented_argsort


def stable_sort_oracle(values, offsets, order):
    """Per-segment stable sort written with plain Python sorted()."""
    out = np.zeros(len(values), np.int32)
    for s in range(len(offsets) - 1):
        a, b = int(offsets[s]), int(offsets[s + 1])
        seg = values[a:b]

        def key(j):
            v = float(seg[j])
            if math.isnan(v):
                return (1, 0.0, j)
            return (0, v if order == "ascending" else -v, j)

        out[a:b] = sorted(range(b - a), key=key)
    return out


def random_segmented(rng, max_segments=20, max_len=60):
    nseg = int(rng.integers(1, max_segments))
    lens = rng.integers(0, max_len, nseg)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    vals = rng.standard_normal(int(offsets[-1])).astype(np.float32)
    return SegmentedArray(values=vals, offsets=offsets)


def test_single_segment_hand_case():
    sa = SegmentedArray(values=np.array([3, 1, 2], np.float32), offsets=np.array([0, 3]))
    assert segmented_argsort(sa, "ascending").tolist() == [1, 2, 0]
    gathered = sa.values[segmented_argsort(sa, "ascending")]
    assert gathered.tolist() == [1.0, 2.0, 3.0]


def test_five_blocks_three_merge_passes():
    # coop widths double 2, 4, 8 across the merge tree
    vals = np.arange(50, dtype=np.float32)[::-1].copy()
    sa = SegmentedArray(values=vals, offsets=np.array([0, 50]))
    sess = Session()
    got = segmented_argsort(sa, "ascending", block=10, session=sess)
    assert ceil_div(50, 10) == 5
    assert sess.stats().launches == 1 + 3
    assert got.tolist() == list(range(49, -1, -1))


def test_launch_count_is_one_plus_log2_blocks():
    rng = np.random.default_rng(0)
    for block in (1, 3, 7, 16, 50):
        vals = rng.standard_normal(97).astype(np.float32)
        sa = SegmentedArray(values=vals, offsets=np.array([0, 97]))
        sess = Session()
        segmented_argsort(sa, "ascending", block=block, session=sess)
        assert sess.stats().launches == 1 + log2_ceil(ceil_div(97, block))


def test_randomized_against_oracle():
    rng = np.random.default_rng(1)
    for trial in range(150):
        sa = random_segmented(rng)
        n = sa.values.size
        vals = sa.values.copy()
        if n > 6:
            vals[rng.integers(0, n, 2)] = np.nan
            vals[rng.integers(0, n, 3)] = vals[int(rng.integers(0, n))]  # force ties
            sa = SegmentedArray(values=vals, offsets=sa.offsets)
        order = "ascending" if trial % 2 else "descending"
        block = int(rng.integers(1, 24))
        got = segmented_argsort(sa, order, block=block)
        assert np.array_equal(got, stable_sort_oracle(sa.values, sa.offsets, order))


def test_race_checked_merges_against_oracle():
    # the merges stage their windows in shared storage behind one barrier;
    # the race checker sees every buffer and shared-slot access
    rng = np.random.default_rng(5)
    for trial in range(24):
        sa = random_segmented(rng, max_segments=8, max_len=30)
        n = sa.values.size
        vals = sa.values.copy()
        if n > 6:
            vals[rng.integers(0, n, 2)] = np.nan
            vals[rng.integers(0, n, 3)] = vals[int(rng.integers(0, n))]
        order = ("ascending", "descending")[trial % 2]
        block = (1, 2, 7, 16)[trial % 4]
        sess = Session(race_check=True)
        got = segmented_argsort(SegmentedArray(values=vals, offsets=sa.offsets), order,
                                block=block, session=sess)
        assert np.array_equal(got, stable_sort_oracle(vals, sa.offsets, order))
        if n == 0:
            continue
        passes = log2_ceil(ceil_div(n, block))
        st = sess.stats()
        assert st.launches == 1 + passes
        merge_blocks = sum(cfg.grid for cfg in sess.launch_log[1:])
        assert st.barriers <= merge_blocks


def test_two_hundred_segments_of_lengths_up_to_thousand():
    rng = np.random.default_rng(9)
    lens = rng.integers(0, 1000, 200)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    vals = rng.standard_normal(int(offsets[-1])).astype(np.float32)
    sa = SegmentedArray(values=vals, offsets=offsets)
    for order in ("ascending", "descending"):
        got = segmented_argsort(sa, order, block=128)
        assert np.array_equal(got, stable_sort_oracle(vals, offsets, order))


def test_output_independent_of_block_size():
    rng = np.random.default_rng(2)
    sa = random_segmented(rng, max_segments=10, max_len=120)
    results = [segmented_argsort(sa, "descending", block=b) for b in (1, 2, 5, 16, 64, 1000)]
    for r in results[1:]:
        assert np.array_equal(results[0], r)


def test_stability_on_equal_keys():
    vals = np.array([5, 5, 5, 5, 5], np.float32)
    sa = SegmentedArray(values=vals, offsets=np.array([0, 5]))
    for order in ("ascending", "descending"):
        assert segmented_argsort(sa, order, block=2).tolist() == [0, 1, 2, 3, 4]


def test_nan_sorts_last_in_both_orders():
    vals = np.array([np.nan, 1.0, np.nan, -2.0, 0.5], np.float32)
    sa = SegmentedArray(values=vals, offsets=np.array([0, 5]))
    asc = segmented_argsort(sa, "ascending", block=2)
    assert asc.tolist() == [3, 4, 1, 0, 2]
    desc = segmented_argsort(sa, "descending", block=2)
    assert desc.tolist() == [1, 4, 3, 0, 2]


def test_merges_never_cross_segments():
    # identical values everywhere: ranks must stay segment-relative identity
    vals = np.ones(40, np.float32)
    offsets = np.array([0, 7, 7, 19, 40])
    sa = SegmentedArray(values=vals, offsets=offsets)
    got = segmented_argsort(sa, "ascending", block=4)
    for s in range(4):
        a, b = int(offsets[s]), int(offsets[s + 1])
        assert got[a:b].tolist() == list(range(b - a))


def test_ranks_are_segment_relative_permutations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sa = random_segmented(rng)
        got = segmented_argsort(sa, "ascending", block=8)
        for s in range(sa.num_segments):
            a, b = int(sa.offsets[s]), int(sa.offsets[s + 1])
            assert sorted(got[a:b].tolist()) == list(range(b - a))


def test_empty_input():
    sa = SegmentedArray(values=np.zeros(0, np.float32), offsets=np.array([0]))
    assert segmented_argsort(sa).size == 0


def test_invalid_offsets_rejected():
    with pytest.raises(ValueError):
        SegmentedArray(values=np.zeros(4, np.float32), offsets=np.array([1, 4]))
    with pytest.raises(ValueError):
        SegmentedArray(values=np.zeros(4, np.float32), offsets=np.array([0, 3]))
    with pytest.raises(ValueError):
        SegmentedArray(values=np.zeros(4, np.float32), offsets=np.array([0, 3, 2, 4]))


def test_invalid_arguments():
    sa = SegmentedArray(values=np.zeros(3, np.float32), offsets=np.array([0, 3]))
    with pytest.raises(ValueError):
        segmented_argsort(sa, order="sideways")
    with pytest.raises(ValueError):
        segmented_argsort(sa, block=0)
