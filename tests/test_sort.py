"""Segmented argsort: stability, segment isolation, a block sort and one merge pass."""

import math

import numpy as np
import pytest

from edgegraph import simt
from edgegraph.simt import LaunchConfig, Session, ceil_div
from edgegraph.vision import SegmentedArray, argsort_sequential, segmented_argsort
from edgegraph.vision.sort import _keyed
from fixtures import records_of


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


def two_pass_launches(n, block):
    """The launches of an n-element argsort in sort blocks of ``block``: the block
    sort, one lane per block, then, if there is more than one block, one merge pass
    in a single block of one lane per sort block."""
    blocks = ceil_div(n, block)
    return [LaunchConfig(grid=blocks, block=1)] + [LaunchConfig(grid=1, block=blocks)] * (blocks > 1)


def lane_items(n, block, config):
    """Elements each lane of ``config`` stores: lane g owns sort block g in every pass."""
    return [max(0, min(block, n - g * block)) for g in range(config.grid * config.block)]


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


def test_five_blocks_one_merge_pass():
    # five sort blocks: one merge pass of five lanes merges them all
    vals = np.arange(50, dtype=np.float32)[::-1].copy()
    sa = SegmentedArray(values=vals, offsets=np.array([0, 50]))
    sess = Session()
    got = segmented_argsort(sa, "ascending", block=10, session=sess)
    assert sess.launch_log == [LaunchConfig(grid=5, block=1), LaunchConfig(grid=1, block=5)]
    assert [r.work.tolist() for r in sess.records] == [[10] * 5, [10] * 5]
    assert got.tolist() == list(range(49, -1, -1))


def test_each_launch_allocates_one_permutation_buffer(monkeypatch):
    made = []
    alloc = Session.alloc

    def recording(self, *args, **kwargs):
        buf = alloc(self, *args, **kwargs)
        made.append((len(buf), buf.dtype))
        return buf

    monkeypatch.setattr(Session, "alloc", recording)
    sa = SegmentedArray(values=np.arange(50, dtype=np.float32), offsets=np.array([0, 20, 50]))
    for block, launches in ((64, 1), (50, 1), (49, 2), (8, 2)):
        made.clear()
        sess = Session()
        segmented_argsort(sa, block=block, session=sess)
        assert len(sess.launch_log) == launches
        assert made == [(50, "i32")] * launches, block


def test_launch_count_is_two_for_two_or_more_sort_blocks():
    # 97 elements: 97, 33, 14, 7, 2 and 1 sort blocks
    want = {1: [(97, 1), (1, 97)],
            3: [(33, 1), (1, 33)],
            7: [(14, 1), (1, 14)],
            16: [(7, 1), (1, 7)],
            50: [(2, 1), (1, 2)],
            97: [(1, 1)],
            200: [(1, 1)]}
    rng = np.random.default_rng(0)
    for block, launches in want.items():
        vals = rng.standard_normal(97).astype(np.float32)
        sa = SegmentedArray(values=vals, offsets=np.array([0, 97]))
        sess = Session()
        segmented_argsort(sa, "ascending", block=block, session=sess)
        assert sess.launch_log == [LaunchConfig(grid=g, block=b) for g, b in launches]
        assert sess.launch_log == two_pass_launches(97, block)
        for r in sess.records:
            assert r.work.tolist() == lane_items(97, block, r.config), (block, r.config)


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
    # every launch is a barrier-free row launch; the race checker sees
    # each lane's reads of the run it ranks and its store of its own rows
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
        assert sess.launch_log == two_pass_launches(n, block)
        for r in sess.records:
            assert r.work.tolist() == lane_items(n, block, r.config)
        assert sess.stats().barriers == 0
        assert all(cfg.shared_slots == 0 for cfg in sess.launch_log)


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


@pytest.mark.parametrize("block", [2.5, True, "4", float("nan"), 0])
def test_block_must_be_an_integer(block):
    sa = SegmentedArray(values=np.array([3, 1, 2], np.float32), offsets=np.array([0, 3]))
    with pytest.raises(ValueError) as e:
        segmented_argsort(sa, block=block)
    assert str(e.value) == f"block must be >= 1 and an integer, got {block!r}"


def test_integral_float_block_counts_as_int():
    sa = SegmentedArray(values=np.arange(20, 0, -1).astype(np.float32), offsets=np.array([0, 7, 20]))
    runs = []
    for block in (4, 4.0, np.int64(4)):
        sess = Session()
        runs.append((segmented_argsort(sa, block=block, session=sess).tolist(), sess.launch_log))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("values", [np.array([3, 1, 2], np.float32), np.zeros(0, np.float32)])
def test_kernel_and_twin_reject_unknown_order_alike(values):
    sa = SegmentedArray(values=values, offsets=np.array([0, values.size]))
    errors = []
    for run in (lambda: segmented_argsort(sa, order="desc", session=Session()),
                lambda: argsort_sequential(values, order="desc")):
        with pytest.raises(ValueError, match="order must be") as e:
            run()
        errors.append(str(e.value))
    assert errors[0] == errors[1]


SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1e-40, -3e-39,
                    3.4e38, -3.4e38, 1.0, -1.0], np.float32)


def special_segmented(rng, trial):
    """Segments mixing special values, ties and normal draws, with empty
    and one-element segments among them."""
    lens = rng.integers(0, (2, 9, 60)[trial % 3], int(rng.integers(1, 10)))
    lens[rng.integers(0, lens.size)] = trial % 2  # an empty or a one-element segment
    offsets = np.concatenate([[0], np.cumsum(lens)])
    n = int(offsets[-1])
    vals = rng.choice(SPECIAL, n)
    normal = rng.random(n) < 0.4
    vals[normal] = rng.integers(-3, 4, int(normal.sum()))  # ties among normal values
    return vals.astype(np.float32), offsets


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_special_values_against_sorted_oracle(block):
    # the oracle keys on (nan last, value with -0 == +0, index) through
    # Python floats, so it shares nothing with the packed int64 key
    rng = np.random.default_rng(block)
    for trial in range(40):
        vals, offsets = special_segmented(rng, trial)
        order = ("ascending", "descending")[trial % 2]
        want = stable_sort_oracle(vals, offsets, order)
        sess = Session(race_check=trial % 8 == 0)
        got = segmented_argsort(SegmentedArray(values=vals, offsets=offsets), order, block=block,
                                session=sess)
        assert got.dtype == np.int32 and np.array_equal(got, want), (block, trial)
        twin = argsort_sequential(vals, order, offsets)
        assert twin.dtype == np.int32 and np.array_equal(twin, want), (block, trial)


def test_packed_key_overflow_guard():
    # a zero-stride view stands for 2**30 elements without allocating them
    huge = np.broadcast_to(np.float32(1), (1 << 30,))
    sa = SegmentedArray(values=huge, offsets=[0, huge.size])
    with pytest.raises(ValueError, match="overflows its packed int64 sort key"):
        segmented_argsort(sa, block=64, session=Session())
    with pytest.raises(ValueError, match="overflows its packed int64 sort key"):
        argsort_sequential(huge)
    # below the limit the largest piece id still fits above the 33 key bits
    assert (((1 << 30) - 1) << 33 | (1 << 33) - 1) < 2**63


def test_twin_rejects_non_flat_values_like_the_kernel():
    vals = np.array([[3, 1], [2, 0]], np.float32)
    with pytest.raises(ValueError, match="values and offsets must be flat"):
        argsort_sequential(vals)
    with pytest.raises(ValueError, match="values and offsets must be flat"):
        segmented_argsort(SegmentedArray(values=vals, offsets=[0, 4]))


def test_non_integer_offsets_rejected():
    with pytest.raises(ValueError, match="offsets must be integers"):
        SegmentedArray(values=np.zeros(3, np.float32), offsets=[0, 1.5, 3])
    with pytest.raises(ValueError, match="offsets must be integers"):
        argsort_sequential(np.zeros(3, np.float32), offsets=np.array([0.0, 3.0]))
    sa = SegmentedArray(values=np.zeros(3, np.float32), offsets=np.array([0, 1, 3], np.uint8))
    assert sa.offsets.dtype == np.int64 and sa.offsets.tolist() == [0, 1, 3]


def test_integers_float32_cannot_hold_are_rejected_by_both_paths():
    # 2**24 + 1 rounds to 2**24 as a float32 key, so the two would tie
    vals = np.array([16777217, 16777216], np.int64)
    errors = []
    for run in (lambda: segmented_argsort(SegmentedArray(values=vals, offsets=[0, 2]),
                                          session=Session()),
                lambda: argsort_sequential(vals)):
        with pytest.raises(ValueError, match="16777217 does not round-trip through float32") as e:
            run()
        errors.append(str(e.value))
    assert errors[0] == errors[1]
    for huge in (np.array([2**63 - 1], np.int64), np.array([2**64 - 1], np.uint64)):
        with pytest.raises(ValueError, match="round-trip"):
            argsort_sequential(huge)


def test_integers_float32_holds_keep_their_exact_order():
    vals = np.array([16777216, 3, -5, 16777216, 2**40, -(2**31), 0], np.int64)
    want = np.argsort(vals, kind="stable")
    got = segmented_argsort(SegmentedArray(values=vals, offsets=[0, vals.size]), block=2,
                            session=Session())
    assert np.array_equal(got, want)
    assert np.array_equal(argsort_sequential(vals), want)
    assert np.array_equal(argsort_sequential(vals, "descending"),
                          argsort_sequential(vals.astype(np.float32), "descending"))


def test_keyed_segment_ids_follow_the_binary_search_definition():
    # empty segments at the start, inside and at the end own no slot
    rng = np.random.default_rng(12)
    cases = [[0, 0, 3, 0, 2, 0, 0], [0], [4], [0, 5], [5, 0], [1, 0, 0, 1]]
    sizes = rng.integers(1, 12, 200)
    cases += [rng.integers(0, 4, k) * (rng.random(k) < 0.6) for k in sizes]
    for lens in cases:
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        sa = SegmentedArray(values=rng.random(offsets[-1], dtype=np.float32), offsets=offsets)
        slots, seg, _ = _keyed(sa, "ascending")
        want = np.searchsorted(sa.offsets, slots, side="right") - 1
        assert seg.dtype == want.dtype and seg.tolist() == want.tolist(), lens


def test_argsort_launches_and_outputs_do_not_depend_on_the_lane_plan_memo(monkeypatch):
    cold = [True]
    launch = Session.launch

    def clearing(self, kernel, config, *buffers):
        if cold[0]:
            simt._row_plan.cache_clear()
        launch(self, kernel, config, *buffers)

    monkeypatch.setattr(Session, "launch", clearing)
    rng = np.random.default_rng(13)
    for n in (0, 1, 7, 64, 65, 513, 1990, 3000):
        lens = rng.multinomial(n, np.ones(9) / 9)
        lens[[0, 4, 8]] = 0  # empty leading, inner and trailing segments
        lens[1] += n - lens.sum()
        vals = rng.random(n, dtype=np.float32)
        sa = SegmentedArray(values=vals, offsets=np.concatenate([[0], np.cumsum(lens)]))
        for block in (1, 2, 3, 8, 64):
            runs = []
            # cleared at every launch, so each pass builds its own plan; then
            # warmed by one call and reused by the next
            for cold[0] in (True, False, False):
                misses = simt._row_plan.cache_info().misses
                sess = Session()
                runs.append((segmented_argsort(sa, block=block, session=sess).tobytes(),
                             records_of(sess)))
            assert simt._row_plan.cache_info().misses == misses, (n, block)
            assert runs[0] == runs[1] == runs[2], (n, block)
            want = two_pass_launches(n, block) if n else []
            assert [config for _, config, *_ in runs[0][1]] == want, (n, block)
            assert [items for _, _, items, *_ in runs[0][1]] == [lane_items(n, block, c) for c in want]


def test_a_wide_block_one_argsort_leaves_no_lane_plan_behind():
    # every pass has at least n > PLAN_LANES lanes, so it builds its plan and drops it
    n = simt.PLAN_LANES + 904
    rng = np.random.default_rng(14)
    sa = SegmentedArray(values=rng.random(n, dtype=np.float32), offsets=[0, 17, n - 300, n])
    sess = Session()
    got = segmented_argsort(sa, block=1, session=sess)
    assert sess.launch_log == [LaunchConfig(grid=5000, block=1), LaunchConfig(grid=1, block=5000)]
    assert all(r.work.tolist() == lane_items(n, 1, r.config) for r in sess.records)
    assert simt._row_plan.cache_info().currsize == 0
    assert np.array_equal(got, argsort_sequential(sa.values, offsets=sa.offsets))


@pytest.mark.parametrize("race_check", [False, True])
@pytest.mark.parametrize("block", [1, 3])
def test_sort_block_counts_at_powers_of_eight_match_the_twin(block, race_check):
    # one sort block takes no merge pass and more take one, 8**j + 1 as 8**j does;
    # both orders, over nans, signed zeros, ties, and empty and one-element segments
    rng = np.random.default_rng(block)
    for j in range(4):
        for blocks in (8**j, 8**j + 1):
            n = blocks * block - int(rng.integers(0, block))  # a short last block
            lens = rng.multinomial(n - 1, np.ones(6) / 6)
            lens[[0, 3]] = 0, 1  # an empty and a one-element segment
            lens[-1] += n - lens.sum()
            offsets = np.concatenate([[0], np.cumsum(lens)])
            vals = rng.choice(SPECIAL, n)
            ties = rng.random(n) < 0.5
            vals[ties] = rng.integers(-2, 3, int(ties.sum()))
            vals = vals.astype(np.float32)
            sa = SegmentedArray(values=vals, offsets=offsets)
            for order in ("ascending", "descending"):
                sess = Session(race_check=race_check)
                got = segmented_argsort(sa, order, block=block, session=sess)
                assert np.array_equal(got, argsort_sequential(vals, order, offsets)), (blocks, order)
                assert sess.launch_log == two_pass_launches(n, block)
                assert len(sess.launch_log) == 1 + (blocks > 1)
                assert all(c.block <= blocks for c in sess.launch_log)
                assert sess.launch_log[-1] == LaunchConfig(grid=1, block=blocks)
                assert all(r.work.tolist() == lane_items(n, block, r.config) for r in sess.records)
