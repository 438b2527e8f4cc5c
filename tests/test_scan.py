"""Prefix scan: chunking, three-stage structure, oracles, compaction."""

import warnings

import numpy as np
import pytest

from edgegraph.simt import LaunchConfig, Session, log2_ceil
from edgegraph.vision import ScanPlan, compact, partition_chunks, scan, scan_sequential
from edgegraph.vision.scan import _check_i32
from fixtures import records_of


def chunked_scan_oracle(values, kind, p):
    """Mirror of the three-stage summation order, written independently.

    Chunk-local cumulative sums, a Hillis-Steele pass ladder over the
    chunk totals, then per-chunk base add-back; float32 arithmetic
    throughout so the comparison is bitwise.
    """
    vals = np.asarray(values, dtype=np.float32)
    n = vals.size
    chunk = -(-n // min(p, n))
    num = -(-n // chunk)
    locals_ = [np.cumsum(vals[i * chunk : min((i + 1) * chunk, n)], dtype=np.float32) for i in range(num)]
    totals = [seg[-1] for seg in locals_]
    passes = (num - 1).bit_length() if num > 1 else 0
    cur = list(totals)
    for d in range(passes):
        stride = 1 << d
        cur = [np.float32(cur[i] + cur[i - stride]) if i >= stride else cur[i] for i in range(num)]
    bases = [np.float32(0)] + cur[:-1]
    out = np.zeros(n, np.float32)
    for i, seg in enumerate(locals_):
        a = i * chunk
        if kind == "inclusive":
            out[a : a + seg.size] = seg + bases[i]
        else:
            out[a] = bases[i]
            out[a + 1 : a + seg.size] = seg[:-1] + bases[i]
    return out


def test_partition_chunks_fig3_assignment():
    assert [(b - a) for a, b in partition_chunks(18, 5)] == [4, 4, 4, 4, 2]


def test_partition_chunks_one_each():
    assert [(b - a) for a, b in partition_chunks(5, 5)] == [1, 1, 1, 1, 1]


def test_partition_chunks_empty_input():
    assert partition_chunks(0, 3) == [(0, 0), (0, 0), (0, 0)]


def test_partition_chunks_rejects_zero_processors():
    with pytest.raises(ValueError):
        partition_chunks(10, 0)


@pytest.mark.parametrize("p", [2.7, 0.5, True, float("nan"), "4", 0])
def test_processor_count_must_be_an_integer(p):
    """Scan, its twin and compact raise one ValueError for a bad p."""
    with pytest.raises(ValueError) as planned:
        ScanPlan.for_size(10, p)
    assert str(planned.value) == f"processor count p must be >= 1 and an integer, got {p!r}"
    values = np.arange(10, dtype=np.int32)
    for call in (lambda: scan(values, p=p), lambda: scan_sequential(values, p=p),
                 lambda: compact(values, values % 2 == 0, p=p)):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == str(planned.value)


@pytest.mark.parametrize("p", [2.5, True, "4"])
def test_partition_chunks_processor_count_must_be_an_integer(p):
    with pytest.raises(ValueError) as e:
        partition_chunks(10, p)
    assert str(e.value) == f"processor count p must be >= 1 and an integer, got {p!r}"
    assert partition_chunks(10, 4.0) == partition_chunks(10, 4)


def test_integral_float_processor_count_counts_as_int():
    values = np.arange(10, dtype=np.int32)
    assert ScanPlan.for_size(10, 4.0) == ScanPlan.for_size(10, np.int64(4))
    assert np.array_equal(scan(values, p=4.0), scan(values, p=4))


def test_partition_chunks_cover_and_contiguous():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(0, 200))
        p = int(rng.integers(1, 20))
        ranges = partition_chunks(n, p)
        assert len(ranges) == p
        pos = 0
        for a, b in ranges:
            assert a == pos and b >= a
            pos = b
        assert pos == n


def test_scan_plan_invariants():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        p = int(rng.integers(1, 40))
        plan = ScanPlan.for_size(n, p)
        assert (plan.p - 1) * plan.chunk < n <= plan.p * plan.chunk
        expected_passes = (plan.p - 1).bit_length() if plan.p > 1 else 0
        assert plan.num_coop_passes == expected_passes


def test_inclusive_unit_values_two_coop_passes():
    sess = Session()
    out = scan([1, 1, 1, 1], kind="inclusive", p=4, session=sess)
    assert out.tolist() == [1, 2, 3, 4]
    assert ScanPlan.for_size(4, 4).num_coop_passes == 2
    assert sess.stats().barriers == 2


def test_exclusive_first_element_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        vals = rng.integers(-50, 50, int(rng.integers(1, 60))).astype(np.int32)
        out = scan(vals, kind="exclusive", p=5)
        assert out[0] == 0


def test_i32_matches_sequential_oracle_10k():
    rng = np.random.default_rng(3)
    vals = rng.integers(-1000, 1000, 10_000).astype(np.int32)
    got = scan(vals, kind="inclusive", p=7)
    expected = np.cumsum(vals.astype(np.int64)).astype(np.int32)  # oracle: running sum
    assert np.array_equal(got, expected)
    got_ex = scan(vals, kind="exclusive", p=7)
    assert np.array_equal(got_ex, np.concatenate([[0], expected[:-1]]))


def test_exactly_three_launches_when_n_exceeds_p():
    sess = Session()
    vals = np.arange(100, dtype=np.int32)
    scan(vals, kind="inclusive", p=8, session=sess)
    assert sess.stats().launches == 3


def test_coop_pass_count_matches_log2_p():
    for p in (1, 2, 3, 5, 8, 13):
        n = 10 * p
        sess = Session()
        scan(np.ones(n, np.int32), p=p, session=sess)
        assert sess.stats().barriers == log2_ceil(p)
        assert ScanPlan.for_size(n, p).num_coop_passes == log2_ceil(p)


def test_f32_bitwise_matches_chunked_oracle():
    rng = np.random.default_rng(4)
    for p in (1, 3, 8, 17):
        vals = rng.random(1234).astype(np.float32)
        for kind in ("inclusive", "exclusive"):
            got = scan(vals, kind=kind, p=p)
            assert np.array_equal(got, chunked_scan_oracle(vals, kind, p))


def test_f32_close_to_plain_sequential_sum():
    rng = np.random.default_rng(5)
    vals = rng.random(20_000).astype(np.float32)
    got = scan(vals, kind="inclusive", p=9)
    expected = np.cumsum(vals.astype(np.float64))
    assert np.max(np.abs(got - expected) / expected) < 1e-5


def test_empty_input_empty_output():
    out = scan(np.zeros(0, np.int32), p=4)
    assert out.size == 0


def test_i32_overflow_detected():
    with pytest.raises(OverflowError):
        scan(np.array([2**31 - 1, 1], dtype=np.int64), p=2)
    with pytest.raises(OverflowError):
        scan(np.array([2**30, 2**30, 2**30], dtype=np.int64), p=1)


def test_scan_default_p_from_emulated_processors():
    vals = np.arange(20, dtype=np.int32)
    assert np.array_equal(scan(vals), np.cumsum(vals))


def test_compact_keep_all_and_none():
    vals = np.arange(10, dtype=np.int32)
    kept, count = compact(vals, np.ones(10, bool))
    assert count == 10 and np.array_equal(kept, vals)
    kept, count = compact(vals, np.zeros(10, bool))
    assert count == 0 and kept.size == 0


def test_compact_matches_sequential_filter():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 300))
        vals = rng.standard_normal(n).astype(np.float32)
        keep = rng.random(n) < rng.random()
        kept, count = compact(vals, keep, p=int(rng.integers(1, 9)))
        expected = np.array([v for v, k in zip(vals, keep) if k], dtype=np.float32)  # oracle
        assert count == expected.size
        assert np.array_equal(kept, expected)


def test_compact_length_mismatch():
    with pytest.raises(ValueError):
        compact(np.zeros(3), np.zeros(4, bool))


def test_compact_rejects_values_beyond_i32():
    with pytest.raises(ValueError, match=r"^int64 value 1099511627776 does not fit i32$"):
        compact(np.array([2**40, 1], dtype=np.int64), np.array([True, True]))


def test_compact_launch_structure():
    # one count per chunk, then one gather; no scan
    sess = Session()
    compact(np.arange(40, dtype=np.int32), np.arange(40) % 3 == 0, p=5, session=sess)
    assert sess.stats().launches == 2
    assert [r.kernel for r in sess.records] == ["compact.<locals>.count", "compact.<locals>.gather"]
    assert not any(r.kernel.startswith("scan.<locals>.") for r in sess.records)


def test_shared_session_accumulates_across_scans():
    sess = Session()
    scan(np.ones(30, np.int32), p=4, session=sess)
    scan(np.ones(30, np.int32), p=4, session=sess)
    assert sess.stats().launches == 6


@pytest.mark.parametrize("values, kind", [
    (np.arange(4, dtype=np.float32), "bogus"),
    (np.ones((2, 3), np.float32), "inclusive"),
    (np.array([1 + 2j, 3 - 1j]), "inclusive"),
    (np.array(["a", "b"]), "exclusive"),
])
def test_kernel_and_twin_reject_bad_input_alike(values, kind):
    errors = []
    for run in (lambda: scan(values, kind, p=2, session=Session()),
                lambda: scan_sequential(values, kind, p=2)):
        with pytest.raises(ValueError) as e:
            run()
        errors.append(str(e.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("p", [1, 3, 8])
def test_scan_and_compact_race_checked_match_unchecked(p):
    rng = np.random.default_rng(p)
    vals = rng.integers(-9, 9, 45).astype(np.int32)
    floats = rng.standard_normal(45).astype(np.float32)
    keep = rng.random(45) < 0.4
    for kind in ("inclusive", "exclusive"):
        for v in (vals, floats):
            want = scan(v, kind, p=p, session=Session())
            got = scan(v, kind, p=p, session=Session(race_check=True))
            assert got.tobytes() == want.tobytes()
    for v in (vals, floats):
        sessions = Session(), Session(race_check=True)
        want, got = (compact(v, keep, p=p, session=s) for s in sessions)
        assert got[1] == want[1] == int(keep.sum())
        assert got[0].tobytes() == want[0].tobytes() == v[keep].tobytes()
        assert sessions[0].stats() == sessions[1].stats()


def _recorded(run, race_check):
    """The launch records of ``run`` on a fresh session, as tuples."""
    sess = Session(race_check=race_check)
    run(sess)
    return records_of(sess)


# n=18 on p=5: chunks of 4 with a short last one, three coop passes
SCAN_18_ON_5 = [
    ("scan.<locals>.chunk_sums", LaunchConfig(grid=5, block=1), [4, 4, 4, 4, 2], 0, 0),
    ("scan.<locals>.coop_scan", LaunchConfig(grid=1, block=5, shared_slots=10), [3] * 5, 3, 0),
    ("scan.<locals>.add_bases", LaunchConfig(grid=5, block=1), [4, 4, 4, 4, 2], 0, 0),
]


@pytest.mark.parametrize("race_check", [False, True])
def test_scan_launch_shape_is_pinned(race_check):
    got = _recorded(lambda s: scan(np.arange(18), p=5, session=s), race_check)
    assert got == SCAN_18_ON_5


@pytest.mark.parametrize("race_check", [False, True])
def test_compact_launch_shape_is_pinned(race_check):
    keep = np.arange(18) % 3 == 0
    got = _recorded(lambda s: compact(np.arange(18), keep, p=5, session=s), race_check)
    # lane g counts chunk g; the gather splits the 6 kept slots, not the 18 inputs, over the 5 lanes
    count = ("compact.<locals>.count", LaunchConfig(grid=5, block=1), [1] * 5, 0, 0)
    gather = ("compact.<locals>.gather", LaunchConfig(grid=5, block=1), [1, 1, 1, 1, 2], 0, 0)
    assert got == [count, gather]


def _keep(n, kept):
    flags = np.zeros(n, bool)
    flags[list(kept)] = True
    return flags


# (n, p, keep): the gather's lane splits at the edges of the input
COMPACT_EDGES = {
    "none kept": (20, 5, _keep(20, [])),
    "all kept": (20, 5, _keep(20, range(20))),
    "first only": (20, 5, _keep(20, [0])),
    "last only": (20, 5, _keep(20, [19])),
    "fewer kept than lanes": (40, 8, _keep(40, [3, 17, 38])),
    "n < p": (3, 8, _keep(3, [0, 2])),
    "p = 1": (20, 1, _keep(20, [1, 2, 7, 19])),
    # unkept inputs 2-5 hold the scan's chunk split at input 4, and the
    # gather's split between ranks 1 and 2 (one rank per lane)
    "split inside an unkept run": (18, 5, _keep(18, [0, 1, 6, 7, 15])),
}


@pytest.mark.parametrize("dtype", [np.int32, np.float32])
@pytest.mark.parametrize("case", list(COMPACT_EDGES))
def test_compact_range_gather_at_lane_split_edges(case, dtype):
    n, p, keep = COMPACT_EDGES[case]
    vals = (np.arange(n) * 7 - 50).astype(dtype)
    runs = []
    for race_check in (False, True):
        got = []
        runs.append(_recorded(lambda s: got.append(compact(vals, keep, p=p, session=s)), race_check))
        kept, count = got[0]
        assert count == int(keep.sum())
        assert kept.dtype == vals.dtype and kept.tobytes() == vals[keep].tobytes()
    assert runs[0] == runs[1]
    name, config, items, _, _ = runs[0][-1]
    assert name == "compact.<locals>.gather" and config == LaunchConfig(grid=min(p, n), block=1)
    assert sum(items) == int(keep.sum())


@pytest.mark.parametrize("race_check", [False, True])
def test_compact_rejects_uint32_beyond_i32(race_check):
    vals = np.array([1, 2**31, 3], np.uint32)
    with pytest.raises(ValueError, match=r"^uint32 value 2147483648 does not fit i32$"):
        compact(vals, np.array([True, False, True]), p=2, session=Session(race_check=race_check))


# (n, p, keep): the count launch's chunks against the gather's lane splits
COMPACT_CHUNKS = {
    # chunks 1-3 keep nothing; the gather's last lane starts at rank 4, in chunk 4
    "empty chunks where a lane starts": (20, 5, _keep(20, [0, 1, 2, 3, 16, 17])),
    "none kept": (20, 5, _keep(20, [])),
    "all kept": (20, 5, _keep(20, range(20))),
    "short last chunk": (18, 5, _keep(18, [2, 5, 9, 16, 17])),
    "p > n": (5, 8, _keep(5, [1, 2, 4])),
    "p = n": (6, 6, _keep(6, [0, 3, 4, 5])),
}


@pytest.mark.parametrize("dtype", [np.int32, np.float32])
@pytest.mark.parametrize("case", list(COMPACT_CHUNKS))
def test_compact_counts_each_chunk_then_gathers(case, dtype):
    n, p, keep = COMPACT_CHUNKS[case]
    vals = (np.arange(n) * 7 - 50).astype(dtype)
    if dtype is np.float32:
        vals[1::3], vals[2::5] = -0.0, np.nan  # passed through bit for bit
    rows = LaunchConfig(grid=ScanPlan.for_size(n, p).p, block=1)
    runs = []
    for race_check in (False, True):
        got = []
        runs.append(_recorded(lambda s: got.append(compact(vals, keep, p=p, session=s)), race_check))
        kept, count = got[0]
        assert count == int(keep.sum())
        assert kept.dtype == vals.dtype and kept.tobytes() == vals[keep].tobytes()
    assert runs[0] == runs[1]
    (count_name, count_config, work, _, _), (gather_name, gather_config, items, _, _) = runs[0]
    assert (count_name, count_config, work) == ("compact.<locals>.count", rows, [1] * rows.grid)
    assert (gather_name, gather_config, sum(items)) == ("compact.<locals>.gather", rows, int(keep.sum()))


@pytest.mark.parametrize("values, name", [(np.array([1 + 2j, 3 - 1j]), "complex128"),
                                          (np.array(["a", "b"]), "<U1"), (np.array([None, 1], object), "object")],
                         ids=["values0", "values1", "values2"])
def test_compact_rejects_what_scan_rejects_in_its_words(values, name):
    with pytest.raises(ValueError) as scanned:
        scan(values)
    with pytest.raises(ValueError) as compacted:
        compact(values, np.array([True, False]), p=2, session=Session())
    want = f"no tensor dtype for {name} values; expected float, integer or bool"
    assert str(scanned.value) == str(compacted.value) == want


@pytest.mark.parametrize("dtype, want", [(np.float64, np.float32), (np.float16, np.float32),
                                         (np.int64, np.int32), (np.uint8, np.int32), (bool, np.int32)])
def test_empty_input_comes_back_as_a_device_dtype(dtype, want):
    empty = np.zeros(0, dtype)
    kept, count = compact(empty, np.zeros(0, bool))
    assert count == 0 and kept.shape == (0,) and kept.dtype == want
    for out in (scan(empty), scan_sequential(empty)):
        assert out.shape == (0,) and out.dtype == want


@pytest.mark.parametrize("big, message", [
    (1e300, "float64 value 1e+300 does not fit f32"),
    (-1e300, "float64 value -1e+300 does not fit f32"),
    (3.5e38, "float64 value 3.5e+38 does not fit f32"),
    (np.longdouble(1e300), f"{np.dtype(np.longdouble)} value {np.longdouble(1e300)} does not fit f32"),
], ids=["1e+300", "-1e+300", "3.5e+38", "big3"])
def test_finite_float_past_f32_raises_with_no_warning(big, message):
    vals = np.array([big, 1.0])
    runs = {"scan": [lambda: scan(vals, p=2, session=Session(race_check=rc)) for rc in (False, True)]
            + [lambda: scan_sequential(vals, p=2)],
            "compact": [lambda: compact(vals, np.array([True, True]), p=2, session=Session(race_check=rc))
                        for rc in (False, True)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for calls in runs.values():
            for call in calls:
                with pytest.raises(ValueError) as e:
                    call()
                assert str(e.value) == message


def test_nan_and_inf_inputs_pass_through_with_no_warning():
    vals = np.array([np.inf, np.nan, -np.inf, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept, count = compact(vals, np.array([True, True, True, False]), p=2, session=Session())
        assert count == 3 and kept.tobytes() == vals[:3].astype(np.float32).tobytes()
        for out in (scan(vals[[0, 3]], p=2), scan_sequential(vals[[0, 3]], p=2)):
            assert out.tolist() == [np.inf, np.inf]


def test_compact_host_peak_per_element():
    """The gather reads each lane's input range with one slice, so no
    per-slot index array is built: the traced host peak of compacting
    100,000 i32 elements, half of them kept, stays under 21 bytes per
    element."""
    import tracemalloc

    n = 100_000
    vals = (np.arange(n) % 7 - 3).astype(np.int32)
    keep = np.arange(n) % 2 == 0
    compact(vals, keep, p=8, session=Session())  # imports and first-call set-up
    tracemalloc.start()
    try:
        kept, count = compact(vals, keep, p=8, session=Session())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == n // 2 and kept.tobytes() == vals[keep].tobytes()
    assert peak <= 21 * n, f"{peak / n:.1f} bytes per element"


@pytest.mark.parametrize("p", [1, 3, 8, 17, 64])
def test_row_launch_sweeps_match_the_chunked_oracle_with_signed_zeros(p):
    # a lane's range spans several chunks unchecked and one under race check
    rng = np.random.default_rng(p)
    vals = rng.standard_normal(200).astype(np.float32)
    vals[::3] = -0.0
    vals[150:] = -0.0  # whole chunks of -0.0 give -0.0 totals and bases
    for kind in ("inclusive", "exclusive"):
        want = chunked_scan_oracle(vals, kind, p).tobytes()
        for race_check in (False, True):
            assert scan(vals, kind, p=p, session=Session(race_check=race_check)).tobytes() == want
        assert scan_sequential(vals, kind, p=p).tobytes() == want


def _allocs(run):
    """(length, dtype) of each buffer ``run(session)`` allocates."""
    sess = Session()
    made = []
    alloc = sess.alloc

    def counting(length, *args, **kwargs):
        buf = alloc(length, *args, **kwargs)
        made.append((length, buf.dtype))
        return buf

    sess.alloc = counting
    run(sess)
    return made


@pytest.mark.parametrize("dtype, name", [(np.int32, "i32"), (np.float32, "f32")])
def test_scan_sweeps_in_place_over_one_data_buffer(dtype, name):
    """A scan allocates the n-slot data buffer and the p-slot bases only;
    compact allocates its input, its flags, the p-slot counts and its output."""
    vals = np.arange(100).astype(dtype)
    for kind in ("inclusive", "exclusive"):
        assert _allocs(lambda s: scan(vals, kind, p=8, session=s)) == [(100, name), (8, name)]
    keep = np.arange(100) % 3 == 0
    assert _allocs(lambda s: compact(vals, keep, p=8, session=s)) == [
        (100, name), (100, "bool"), (8, "i32"), (34, name)]


def _i32_oracle(vals, kind):
    incl = np.cumsum(vals, dtype=np.int64)
    return (incl if kind == "inclusive" else np.concatenate([[0], incl[:-1]])).astype(np.int32)


# (n, p): n a multiple of the chunk, a short tail, n < p, n = 1
SWEEP_SHAPES = [(64, 8), (24, 6), (61, 8), (17, 5), (5, 8), (3, 64), (1, 1), (1, 8)]


@pytest.mark.parametrize("n, p", SWEEP_SHAPES)
def test_in_place_sweeps_agree_bitwise_with_twin_and_oracle(n, p):
    rng = np.random.default_rng(n * 100 + p)
    ints = rng.integers(-(2**20), 2**20, n).astype(np.int32)
    floats = (rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5, n)).astype(np.float32)
    floats[rng.random(n) < 0.4] = -0.0
    floats[rng.random(n) < 0.2] = 0.0
    for kind in ("inclusive", "exclusive"):
        for vals, want in ((ints, _i32_oracle(ints, kind)), (floats, chunked_scan_oracle(floats, kind, p))):
            runs = [scan(vals, kind, p=p, session=Session(race_check=rc)) for rc in (False, True)]
            runs.append(scan_sequential(vals, kind, p=p))
            for got in runs:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("vals, launch", [
    ([2**30, 2**30, 0, 0], 1),  # a chunk's running sum passes I32_MAX
    ([-(2**30), -(2**30) - 1, 0, 0], 1),  # and below I32_MIN
    ([2**30, 2**30 - 1, 1, 0], 3),  # base 2**31 - 1 plus a sum of 1
    ([-(2**30), -(2**30), -1, 0], 3),
    ([2**31 - 1, 0, 1, 0, 0, 0], 2),  # the base of the third chunk itself
])
def test_i32_overflow_raises_alike_from_either_sweep(vals, launch):
    vals = np.array(vals, np.int64)
    for kind in ("inclusive", "exclusive"):
        messages = []
        for rc in (False, True):
            sess = Session(race_check=rc)
            with pytest.raises(OverflowError) as e:
                scan(vals, kind, p=len(vals) // 2, session=sess)
            assert sess.stats().launches == launch
            messages.append(str(e.value))
        with pytest.raises(OverflowError) as e:
            scan_sequential(vals, kind, p=len(vals) // 2)
        messages.append(str(e.value))
        assert messages == ["scan result exceeds the i32 range"] * 3


@pytest.mark.parametrize("value, fits", [(2**31 - 1, True), (2**31, False), (-(2**31), True),
                                         (-(2**31) - 1, False)])
def test_check_i32_takes_ints_and_arrays_alike_at_the_bounds(value, fits):
    for values in (value, np.array([0, value, 0], np.int64)):
        if fits:
            _check_i32(values, "a base")
        else:
            with pytest.raises(OverflowError, match=r"^a base exceeds the i32 range$"):
                _check_i32(values, "a base")


@pytest.mark.parametrize("dtype, bound", [(np.int32, 21), (np.float32, 13)])
def test_scan_host_peak_per_element(dtype, bound):
    """One n-slot buffer and one sweep workspace at a time: the traced
    host peak of a 100,000-element scan stays under ``bound`` bytes per
    element (int64 sums and the i32 buffer; float32 sums and buffer)."""
    import tracemalloc

    n = 100_000
    vals = (np.arange(n) % 7 - 3).astype(dtype)
    scan(vals, p=8, session=Session())  # imports and first-call set-up
    for kind in ("inclusive", "exclusive"):
        tracemalloc.start()
        try:
            out = scan(vals, kind, p=8, session=Session())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == n
        assert peak <= bound * n, f"{kind}: {peak / n:.1f} bytes per element"


COOP_PS = [1, 2, 3, 5, 8, 13, 17, 64, 100]


def _f32_specials(p):
    """3p floats whose chunk totals cycle through -0.0, +0.0, a finite sum, NaN, +inf, -inf, ...,
    so the cooperative passes add signed zeros, NaN and infinities (inf + -inf makes a NaN)."""
    rows = np.random.default_rng(p).standard_normal((p, 3)).astype(np.float32)  # chunk g is row g
    cycle = [-0.0, 0.0, None, np.nan, np.inf, -np.inf, None, -np.inf, np.inf]
    for g in range(p):
        if cycle[g % 9] is not None:
            rows[g] = [cycle[g % 9], -0.0, -0.0]
    return rows.reshape(-1)


def _i32_at_bounds(p):
    """3p ints whose chunk bases run 0, I32_MAX, 0, I32_MIN, -1, 0, ... with every running sum,
    base and output inside i32, while the passes' partial sums of totals leave it."""
    totals = [2**31 - 1, -(2**31 - 1), -(2**31), 2**31 - 1, 1]
    vals = np.zeros(3 * p, np.int64)
    vals[::3] = [totals[g % 5] for g in range(p)]
    return vals


@pytest.mark.parametrize("p", COOP_PS)
def test_cooperative_stage_agrees_bitwise_checked_unchecked_twin_and_oracle(p):
    floats, ints = _f32_specials(p), _i32_at_bounds(p)
    for kind in ("inclusive", "exclusive"):
        with np.errstate(invalid="ignore"):  # inf + -inf
            cases = [(floats, chunked_scan_oracle(floats, kind, p)), (ints, _i32_oracle(ints, kind))]
            for vals, want in cases:
                runs = [scan(vals, kind, p=p, session=Session(race_check=rc)) for rc in (False, True)]
                runs.append(scan_sequential(vals, kind, p=p))
                for got in runs:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if p >= 4:  # the bases reach both bounds
        assert {2**31 - 1, -(2**31)} <= set(_i32_oracle(ints, "exclusive")[::3].tolist())
    if p >= 8:
        with np.errstate(invalid="ignore"):
            assert np.isnan(chunked_scan_oracle(floats, "inclusive", p)[-1])


def test_unchecked_p64_scan_calls_the_cooperative_kernel_body_once(monkeypatch):
    calls = []
    launch = Session.launch

    def counting(self, kernel, config, *buffers):
        if kernel.__qualname__ != "scan.<locals>.coop_scan":
            return launch(self, kernel, config, *buffers)

        def body(ctx, *bufs):
            calls.append(ctx.lanes)
            return (yield from kernel(ctx, *bufs))

        body.__qualname__ = kernel.__qualname__
        return launch(self, body, config, *buffers)

    monkeypatch.setattr(Session, "launch", counting)
    vals = np.arange(1024, dtype=np.int32)  # 64 chunks of 16
    for race_check, want in ((False, [slice(0, 64)]), (True, [slice(t, t + 1) for t in range(64)])):
        calls.clear()
        sess = Session(race_check=race_check)
        assert scan(vals, p=64, session=sess).tobytes() == np.cumsum(vals, dtype=np.int32).tobytes()
        assert calls == want
        coop = sess.records[1]
        assert (coop.config, coop.barriers, coop.work.tolist()) == (
            LaunchConfig(grid=1, block=64, shared_slots=128), 6, [6] * 64)


@pytest.mark.parametrize("keep, message", [
    (np.array(["False", "", "0"]), "no tensor dtype for <U5 values; expected float, integer or bool"),
    (np.array([np.nan, 0.5, 2.0]), "float64 value nan does not fit bool"),
    (np.array([1.0, 0.0, 1.0], np.float32), "float32 value 1.0 does not fit bool"),
    (np.array([1, 0, 1]), "int64 value 1 does not fit bool"),
    (np.array([1, 0, 1], np.uint8), "uint8 value 1 does not fit bool"),
    (np.array([True, False, True], object), "no tensor dtype for object values; expected float, integer or bool"),
], ids=["keep0-<U5", "keep1-float64", "keep2-float32", "keep3-int64", "keep4-uint8", "keep5-object"])
def test_compact_takes_only_bool_keep_flags(keep, message):
    with pytest.raises(ValueError) as e:
        compact(np.arange(3), keep, session=Session())
    assert str(e.value) == message


def test_compact_takes_a_list_of_python_bools():
    kept, count = compact(np.arange(3), [True, False, True], session=Session())
    assert count == 2 and kept.tolist() == [0, 2]


@pytest.mark.parametrize("n", [0, -3])
def test_a_scan_plan_of_no_elements_is_rejected(n):
    with pytest.raises(ValueError, match=r"^scan plan needs n >= 1$"):
        ScanPlan.for_size(n, 8)
