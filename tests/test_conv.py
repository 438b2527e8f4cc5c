"""Convolution reference, schedule template, and the schedule space."""

import numpy as np
import pytest

from edgegraph import conv, tune
from edgegraph.conv import (
    ConvWorkload,
    ScheduleConfig,
    ScheduleRejectedError,
    _operands,
    conv2d_host,
    conv2d_reference,
    conv2d_scheduled,
    schedule_space,
)
from edgegraph.simt import PLAN_LANES, Session
from fixtures import records_of


def enumerate_space_oracle(k, oh, ow):
    """Independent count of the schedule space via set comprehension."""
    divs = lambda x: [d for d in range(1, x + 1) if x % d == 0]
    combos = {
        (oc, hs, wt, un, v)
        for oc in divs(k)
        for hs in divs(oh)
        for wt in divs(ow)
        for un in (0, 1)
        for v in (1, 4, 8)
        if oc % v == 0
    }
    return combos


def test_ones_3x3_single_output_is_nine():
    wl = ConvWorkload(n=1, c=1, h=3, w=3, k=1, r=3, s=3)
    out = conv2d_reference(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), wl)
    assert out.shape == (1, 1, 1, 1)
    assert out.reshape(-1).tolist() == [9.0]


def test_unit_1x1_kernel_is_identity():
    wl = ConvWorkload(n=1, c=1, h=5, w=4, k=1, r=1, s=1)
    x = np.random.default_rng(0).standard_normal((1, 1, 5, 4)).astype(np.float32)
    out = conv2d_reference(x, np.ones((1, 1, 1, 1), np.float32), wl)
    assert np.array_equal(out, x)


def test_zero_weights_zero_output():
    wl = ConvWorkload(n=2, c=3, h=6, w=6, k=4, r=3, s=3, pad=(1, 1))
    x = np.random.default_rng(1).standard_normal((2, 3, 6, 6)).astype(np.float32)
    out = conv2d_reference(x, np.zeros((4, 3, 3, 3), np.float32), wl)
    assert not out.any()


def test_reference_matches_scalar_oracle():
    # independent 7-loop scalar implementation on a small workload
    wl = ConvWorkload(n=1, c=2, h=5, w=5, k=3, r=3, s=3, stride=(2, 1), pad=(1, 0), dilation=(1, 2))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    oh, ow = wl.oh, wl.ow
    want = np.zeros((1, 3, oh, ow), np.float64)
    for ki in range(3):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ri in range(3):
                    for si in range(3):
                        for ci in range(2):
                            iy = oy * 2 + ri * 1 - 1
                            ix = ox * 1 + si * 2 - 0
                            if 0 <= iy < 5 and 0 <= ix < 5:
                                acc += float(x[0, ci, iy, ix]) * float(w[ki, ci, ri, si])
                want[0, ki, oy, ox] = acc
    got = conv2d_reference(x, w, wl)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


def test_degenerate_schedule_bitwise_equals_reference():
    wl = ConvWorkload(n=1, c=4, h=6, w=6, k=4, r=3, s=3, pad=(1, 1))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
    w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
    assert np.array_equal(conv2d_scheduled(x, w, wl, ScheduleConfig()), conv2d_reference(x, w, wl))


def test_full_space_sweep_matches_reference():
    wl = ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
    w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
    ref = conv2d_reference(x, w, wl)
    space = schedule_space(wl)
    assert len(space) == len(enumerate_space_oracle(8, wl.oh, wl.ow))
    for cfg in space:
        sess = Session()
        got = conv2d_scheduled(x, w, wl, cfg, session=sess)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32)), cfg
        assert sess.launch_log[-1].grid == cfg.oc_split * cfg.h_split
        assert sess.launch_log[-1].block == cfg.w_tile * cfg.vec


def test_grouped_and_depthwise_path():
    wl = ConvWorkload(n=1, c=6, h=6, w=6, k=6, r=3, s=3, pad=(1, 1), groups=6)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 6, 6, 6)).astype(np.float32)
    w = rng.standard_normal((6, 1, 3, 3)).astype(np.float32)
    ref = conv2d_reference(x, w, wl)
    got = conv2d_scheduled(x, w, wl, ScheduleConfig(oc_split=3, h_split=2, w_tile=3))
    assert np.array_equal(got, ref)
    # depthwise channel i only sees input channel i
    x2 = x.copy()
    x2[0, 0] += 1.0
    diff = conv2d_reference(x2, w, wl) - ref
    assert diff[0, 1:].max() == 0.0


def test_schedule_rejected_never_clamped():
    wl = ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1))
    x = np.zeros((1, 8, 8, 8), np.float32)
    w = np.zeros((8, 8, 3, 3), np.float32)
    with pytest.raises(ScheduleRejectedError):
        conv2d_scheduled(x, w, wl, ScheduleConfig(oc_split=3))
    with pytest.raises(ScheduleRejectedError):
        conv2d_scheduled(x, w, wl, ScheduleConfig(h_split=5))
    with pytest.raises(ScheduleRejectedError):
        conv2d_scheduled(x, w, wl, ScheduleConfig(w_tile=7))


def test_vec_must_divide_oc_split():
    with pytest.raises(ValueError):
        ScheduleConfig(oc_split=2, vec=4)
    ScheduleConfig(oc_split=8, vec=4)  # fine


def test_space_count_matches_independent_enumerator():
    for k, oh, ow in ((8, 4, 4), (6, 3, 5), (12, 2, 2), (1, 1, 1)):
        wl = ConvWorkload(n=1, c=2, h=oh, w=ow, k=k, r=1, s=1)
        space = schedule_space(wl)
        oracle = enumerate_space_oracle(k, oh, ow)
        assert len(space) == len(oracle)
        assert {(c.oc_split, c.h_split, c.w_tile, c.unroll, c.vec) for c in space} == oracle


def test_space_deterministic_duplicate_free_and_has_default():
    wl = ConvWorkload(n=1, c=4, h=4, w=6, k=4, r=3, s=3, pad=(1, 1))
    s1 = schedule_space(wl)
    s2 = schedule_space(wl)
    assert s1 == s2
    assert len(set(s1)) == len(s1)
    assert s1[0] == ScheduleConfig()
    for cfg in s1:
        cfg.validate_for(wl)  # every returned config passes the invariants


def test_unit_workload_space_is_two_configs():
    wl = ConvWorkload(n=1, c=1, h=1, w=1, k=1, r=1, s=1)
    space = schedule_space(wl)
    assert [(c.unroll, c.vec) for c in space] == [(0, 1), (1, 1)]


def test_workload_key_round_trip_and_format():
    wl = ConvWorkload(n=1, c=8, h=14, w=14, k=16, r=3, s=3, stride=(2, 2), pad=(1, 1), dilation=(1, 1), groups=2)
    key = wl.key()
    assert key == "conv2d/1-8-14-14/16-3-3/2x2/1x1/1x1/2"
    assert ConvWorkload.from_key(key) == wl
    with pytest.raises(ValueError):
        ConvWorkload.from_key("conv2d/1-2-3")
    with pytest.raises(ValueError):
        ConvWorkload.from_key("matmul/1-8-14-14/16-3-3/2x2/1x1/1x1/2")


@pytest.mark.parametrize("key", [
    "conv2d/1-3-1_6-16/8-3-3/1x1/1x1/1x1/1",
    "conv2d/+1-3-16-16/8-3-3/1x1/1x1/1x1/1",
    "conv2d/01-3-16-16/8-3-3/1x1/1x1/1x1/1",
    "conv2d/1-3-16-16/8-3-3/1x1/0x01/1x1/1",
    "conv2d/1-3- 16-16/8-3-3/1x1/1x1/1x1/1",
    "conv2d/\uff11-3-16-16/8-3-3/1x1/1x1/1x1/1",
    "conv2d/1-3-16-16/8-3-3/1x1/1x1/1x1/\u0661",
], ids=["underscore", "plus", "leading-zero", "leading-zero-pad", "inner-space",
        "fullwidth-digit", "arabic-indic-digit"])
def test_workload_key_must_be_canonical(key):
    with pytest.raises(ValueError, match="malformed workload key"):
        ConvWorkload.from_key(key)


def test_every_test_workload_parses_back_from_its_key():
    from test_acceptance import CONV_WORKLOADS
    from test_tune import WL

    for wl in (*DIFFERENTIAL_WORKLOADS.values(), *CONV_WORKLOADS, WL):
        assert ConvWorkload.from_key(wl.key()) == wl
        assert ConvWorkload.from_key(f"  {wl.key()}\n") == wl  # surrounding whitespace is stripped


def test_workload_validation():
    with pytest.raises(ValueError):
        ConvWorkload(n=1, c=3, h=4, w=4, k=4, r=3, s=3, groups=2)  # c % groups
    with pytest.raises(ValueError):
        ConvWorkload(n=1, c=1, h=2, w=2, k=1, r=3, s=3)  # oh < 1


@pytest.mark.parametrize("field, value, message", [
    ("stride", (1.9, 1), "stride[0] must be >= 1 and an integer, got 1.9"),
    ("stride", (1, 0), "stride[1] must be >= 1 and an integer, got 0"),
    ("pad", (0.5, 0), "pad[0] must be >= 0 and an integer, got 0.5"),
    ("pad", (0, -1), "pad[1] must be >= 0 and an integer, got -1"),
    ("dilation", (1, True), "dilation[1] must be >= 1 and an integer, got True"),
    ("h", 4.5, "h must be >= 1 and an integer, got 4.5"),
    ("groups", 0, "groups must be >= 1 and an integer, got 0"),
])
def test_workload_integers_are_checked_not_truncated(field, value, message):
    shape = dict(n=1, c=2, h=4, w=4, k=2, r=1, s=1)
    with pytest.raises(ValueError) as e:
        ConvWorkload(**{**shape, field: value})
    assert str(e.value) == message


def test_integral_float_workload_fields_keep_the_key():
    wl = ConvWorkload(n=1, c=2.0, h=5, w=5, k=2, r=3, s=3, stride=(2.0, np.int64(1)), pad=(1.0, 0),
                      dilation=(1, 2.0))
    assert wl == ConvWorkload(n=1, c=2, h=5, w=5, k=2, r=3, s=3, stride=(2, 1), pad=(1, 0),
                              dilation=(1, 2))
    assert wl.key() == "conv2d/1-2-5-5/2-3-3/2x1/1x0/1x2/1"


def test_blocks_spanning_groups_match_reference_race_checked():
    # with oc_split=1 one block owns every output channel of all 3 groups
    wl = ConvWorkload(n=2, c=6, h=5, w=6, k=6, r=3, s=3, pad=(1, 1), groups=3)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 6, 5, 6)).astype(np.float32)
    w = rng.standard_normal((6, 2, 3, 3)).astype(np.float32)
    ref = conv2d_reference(x, w, wl)
    space = schedule_space(wl)
    assert any(cfg.oc_split == 1 for cfg in space)
    for cfg in space:
        got = conv2d_scheduled(x, w, wl, cfg, session=Session(race_check=True))
        assert got.tobytes() == ref.tobytes(), cfg


# the fixture graph's convolutions, plus one grouped, strided, dilated batch
DIFFERENTIAL_WORKLOADS = {
    "c1": ConvWorkload(n=1, c=3, h=16, w=16, k=8, r=3, s=3, pad=(1, 1)),
    "c2": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1)),
    "cls": ConvWorkload(n=1, c=8, h=8, w=8, k=6, r=1, s=1),
    "loc": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=1, s=1),
    "grouped": ConvWorkload(n=2, c=6, h=7, w=9, k=6, r=3, s=2, stride=(2, 1), pad=(1, 2),
                            dilation=(1, 2), groups=3),
}


def _run_counted(x, w, wl, cfg, race_check):
    sess = Session(race_check=race_check)
    got = conv2d_scheduled(x, w, wl, cfg, session=sess)
    st = sess.stats()
    return got, (st.launches, st.barriers, st.divergence_events, st.per_thread_items,
                 st.load_imbalance, sess.launch_log)


@pytest.mark.parametrize("name", list(DIFFERENTIAL_WORKLOADS))
def test_lane_form_and_race_checked_runs_agree_over_the_full_space(name):
    # the lane-form call computes every lane's cells at once; the
    # race-checked run calls the kernel once per (block, thread)
    wl = DIFFERENTIAL_WORKLOADS[name]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((wl.n, wl.c, wl.h, wl.w)).astype(np.float32)
    w = rng.standard_normal((wl.k, wl.c // wl.groups, wl.r, wl.s)).astype(np.float32)
    ref = conv2d_reference(x, w, wl).tobytes()
    for cfg in schedule_space(wl):
        lanes, counted = _run_counted(x, w, wl, cfg, race_check=False)
        checked, counted_checked = _run_counted(x, w, wl, cfg, race_check=True)
        assert lanes.tobytes() == ref and checked.tobytes() == ref, cfg
        assert counted == counted_checked, cfg
        work = wl.n * (wl.k // cfg.oc_split) * (wl.oh // cfg.h_split)
        threads = cfg.w_tile * cfg.vec
        assert counted[3] == [work * len(range(i % threads, wl.ow, threads))
                              for i in range(cfg.oc_split * cfg.h_split * threads)], cfg


def test_proxy_cost_of_default_and_tuned_configs_is_pinned():
    # the tuner's objective reads the launch's work profile and geometry
    want = {
        ("c1", ScheduleConfig()): 0.0007308480000000001,
        ("c1", ScheduleConfig(1, 4, 8, 1, 1)): 3.528e-05,
        ("c2", ScheduleConfig()): 0.000491232,
        ("c2", ScheduleConfig(1, 4, 8, 1, 1)): 2.9520000000000002e-05,
    }
    for (name, cfg), cost in want.items():
        wl = DIFFERENTIAL_WORKLOADS[name]

        def run():
            sess = Session()
            conv2d_scheduled(np.zeros((wl.n, wl.c, wl.h, wl.w), np.float32),
                             np.zeros((wl.k, wl.c // wl.groups, wl.r, wl.s), np.float32),
                             wl, cfg, session=sess)
            return sess

        assert tune.proxy_timer(run, wl, cfg) == cost, (name, cfg)


@pytest.mark.parametrize("race_check", [False, True])
def test_sum_of_negative_zero_products_is_positive_zero(race_check):
    # every product is -0.0; the reference's first add onto its zero
    # accumulator makes the sum +0.0, and so must every schedule
    wl = ConvWorkload(n=1, c=2, h=4, w=4, k=4, r=3, s=3, pad=(1, 1))
    x = np.zeros((1, 2, 4, 4), np.float32)
    w = -np.ones((4, 2, 3, 3), np.float32)
    ref = conv2d_reference(x, w, wl)
    assert not np.signbit(ref).any()
    for cfg in (ScheduleConfig(), ScheduleConfig(oc_split=4, h_split=2, w_tile=2, vec=4)):
        got = conv2d_scheduled(x, w, wl, cfg, session=Session(race_check=race_check))
        assert got.tobytes() == ref.tobytes(), cfg


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_every_region_shape_adds_its_taps_in_the_reference_order():
    """Products spanning 13 decades make a sum's bits depend on its order, so a
    region summed pairwise, or in any order but the reference's, fails. The
    configs include lanes that own one cell under race check."""
    rng = np.random.default_rng(5)
    shapes = set()
    for _ in range(60):
        g = int(rng.choice([1, 1, 2, 3]))
        try:
            wl = ConvWorkload(n=int(rng.choice([1, 1, 2])), c=g * int(rng.integers(1, 5)),
                              h=int(rng.integers(1, 9)), w=int(rng.integers(1, 9)), k=g * int(rng.integers(1, 5)),
                              r=int(rng.integers(1, 4)), s=int(rng.integers(1, 4)), pad=tuple(rng.integers(0, 2, 2)),
                              dilation=tuple(rng.integers(1, 3, 2)), groups=g)
        except ValueError:  # the filter does not fit the padded map
            continue
        x = (rng.standard_normal((wl.n, wl.c, wl.h, wl.w)) * 10.0 ** rng.integers(-6, 7, (wl.n, wl.c, wl.h, wl.w)))
        wt = rng.standard_normal((wl.k, wl.c // g, wl.r, wl.s)) * 10.0 ** rng.integers(-3, 4, (wl.k, wl.c // g, wl.r, wl.s))
        want = conv2d_reference(x, wt, wl).tobytes()
        space = schedule_space(wl)
        lone = [c for c in space if c.h_split == wl.oh and c.w_tile * c.vec >= wl.ow]
        for cfg in [space[int(i)] for i in rng.choice(len(space), min(3, len(space)), replace=False)] + lone[:2]:
            for race_check in (False, True):
                got = conv2d_scheduled(x, wt, wl, cfg, session=Session(race_check=race_check))
                assert got.tobytes() == want, (wl, cfg, race_check)
            columns = -(-wl.ow // (cfg.w_tile * cfg.vec))  # of thread 0
            shapes.add(wl.n * wl.k // cfg.oc_split * wl.oh // cfg.h_split * columns == 1)  # one cell
    assert shapes == {False, True}


@pytest.mark.parametrize("pad", [(0, 0), (1, 1), (2, 3), (2, 0), (0, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padding_equals_np_pad_bitwise(pad, dtype):
    """Zero, symmetric and one-axis pads give np.pad's array bit for bit:
    contiguous float32, signed zeros, NaN and infinities kept."""
    x = np.random.default_rng(5).standard_normal((2, 3, 4, 5)).astype(dtype)
    x.reshape(-1)[:4] = [-0.0, np.nan, np.inf, -np.inf]
    wl = ConvWorkload(n=2, c=3, h=4, w=5, k=2, r=1, s=1, pad=pad)
    want = np.pad(x.astype(np.float32), ((0, 0), (0, 0), (pad[0], pad[0]), (pad[1], pad[1])))
    got, _ = _operands(x, np.ones((2, 3, 1, 1)), wl)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_tap_plan_is_read_only_and_built_once_per_workload():
    order = ["c1", "c2", "c1", "grouped", "c2", "c1"]
    for name in order:
        wl = DIFFERENTIAL_WORKLOADS[name]
        x = np.ones((wl.n, wl.c, wl.h, wl.w), np.float32)
        w = np.ones((wl.k, wl.c // wl.groups, wl.r, wl.s), np.float32)
        for race_check in (False, True):
            for cfg in schedule_space(wl)[::97]:
                conv2d_scheduled(x, w, wl, cfg, session=Session(race_check=race_check))
    assert conv._tap_plan.cache_info().misses == 3
    for taps, cells in (conv._tap_plan(DIFFERENTIAL_WORKLOADS[n]) for n in ("c1", "c2", "grouped")):
        assert not taps.flags.writeable and not cells.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            taps[(0,) * taps.ndim] = 0


def test_tap_plans_hold_at_most_32_workloads():
    for n in range(33):
        wl = ConvWorkload(n=1, c=1, h=n + 1, w=1, k=1, r=1, s=1)
        taps, cells = conv._tap_plan(wl)
        assert conv._tap_plan.cache_info().currsize == min(n + 1, 32)
    x = np.arange(33, dtype=np.float32).reshape(1, 1, 33, 1)
    assert np.array_equal(conv2d_host(x, np.ones((1, 1, 1, 1)), wl), x)
    assert taps.shape == (1, 1, 1, 1, 33, 1) and cells.shape == (1, 1, 33, 1)


def test_lane_plans_are_read_only_and_hold_at_most_32_pairs():
    cfg = ScheduleConfig(w_tile=2, vec=1)
    for n in range(33):
        wl = ConvWorkload(n=1, c=1, h=1, w=2 * n + 2, k=1, r=1, s=1)
        config, guard, work = conv._lane_plan(1, 2, wl.ow, 1)
        assert conv._lane_plan.cache_info().currsize == min(n + 1, 32)
        assert not guard.flags.writeable and not work.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            work[0] = 1
    # the 33rd workload's two lanes own columns 0, 2, ... and 1, 3, ... of 66
    assert guard.tolist() == [True, True] and work.tolist() == [33, 33]
    x = np.arange(66, dtype=np.float32).reshape(1, 1, 1, 66)
    assert conv2d_scheduled(x, np.ones((1, 1, 1, 1)), wl, cfg).tobytes() == x.tobytes()


def test_lane_plans_keep_no_plan_wider_than_plan_lanes():
    wl = ConvWorkload(n=1, c=1, h=8, w=8, k=64, r=1, s=1)
    rng = np.random.default_rng(5)
    x, w = rng.standard_normal((1, 1, 8, 8)), rng.standard_normal((64, 1, 1, 1))
    for vec, kept in ((1, 1), (8, 0)):
        cfg = ScheduleConfig(oc_split=64, h_split=8, w_tile=8, vec=vec)
        assert 64 * 8 * 8 * vec == PLAN_LANES * (1 if kept else 8)
        conv._lane_plan.cache_clear()
        sess = Session()
        assert conv2d_scheduled(x, w, wl, cfg, session=sess).tobytes() == conv2d_reference(x, w, wl).tobytes()
        assert conv._lane_plan.cache_info().currsize == kept
        # lane t of each block owns column t, if t < 8
        assert sess.records[0].work.tolist() == [int(i % (8 * vec) < 8) for i in range(PLAN_LANES * vec)]


def test_a_lane_plan_hit_records_what_a_cleared_cache_miss_records_over_c1():
    # the race-checked hit is test_lane_form_and_race_checked_runs_agree_over_the_full_space,
    # whose race-checked run reads the plan its unchecked run built
    wl = DIFFERENTIAL_WORKLOADS["c1"]
    rng = np.random.default_rng(8)
    x = rng.standard_normal((wl.n, wl.c, wl.h, wl.w)).astype(np.float32)
    w = rng.standard_normal((wl.k, wl.c // wl.groups, wl.r, wl.s)).astype(np.float32)
    ref = conv2d_reference(x, w, wl).tobytes()
    for cfg in schedule_space(wl):
        kept = cfg.oc_split * cfg.h_split * cfg.w_tile * cfg.vec <= PLAN_LANES
        runs = []
        for race_check, clear in ((False, True), (False, False), (True, True)):
            if clear:
                conv._lane_plan.cache_clear()
            hits = conv._lane_plan.cache_info().hits
            sess = Session(race_check)
            assert conv2d_scheduled(x, w, wl, cfg, session=sess).tobytes() == ref, cfg
            assert conv._lane_plan.cache_info().hits == hits + (kept and not clear), cfg
            runs.append(records_of(sess))
        assert runs[0] == runs[1] == runs[2], cfg


def _planted(rng, shape):
    """Standard normals with -0.0, NaN and infinities planted."""
    a = rng.standard_normal(shape).astype(np.float32)
    flat = a.reshape(-1)
    for v in (-0.0, np.nan, np.inf, -np.inf):
        flat[rng.integers(flat.size)] = v
    return a


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("name", list(DIFFERENTIAL_WORKLOADS))
def test_host_path_equals_reference_bitwise_over_differential_workloads(name):
    wl = DIFFERENTIAL_WORKLOADS[name]
    xs, ws = (wl.n, wl.c, wl.h, wl.w), (wl.k, wl.c // wl.groups, wl.r, wl.s)
    rng = np.random.default_rng(11)
    x, w = rng.standard_normal(xs), rng.standard_normal(ws)
    assert conv2d_host(x, w, wl).tobytes() == conv2d_reference(x, w, wl).tobytes()
    x, w = np.zeros(xs), -np.ones(ws)  # -0.0 products only
    assert conv2d_host(x, w, wl).tobytes() == conv2d_reference(x, w, wl).tobytes()
    x, w = _planted(rng, xs), _planted(rng, ws)
    assert conv2d_host(x, w, wl).tobytes() == conv2d_reference(x, w, wl).tobytes()


def _random_workloads():
    """240 grouped, strided, dilated, padded and batched workloads, each
    with standard-normal operands, then operands with -0.0, NaN and
    infinities planted: ``(wl, x, wt, planted_x, planted_wt)``."""
    rng = np.random.default_rng(12)
    done = 0
    while done < 240:
        groups, cg, kg = (int(v) for v in rng.integers(1, 4, 3))
        r, s = (int(v) for v in rng.integers(1, 4, 2))
        stride = tuple(int(v) for v in rng.integers(1, 3, 2))
        dilation = tuple(int(v) for v in rng.integers(1, 3, 2))
        pad = tuple(int(v) for v in rng.integers(0, 3, 2))
        h, w = (int(v) for v in rng.integers(1, 9, 2))
        try:
            wl = ConvWorkload(n=int(rng.integers(1, 3)), c=groups * cg, h=h, w=w, k=groups * kg, r=r, s=s,
                              stride=stride, pad=pad, dilation=dilation, groups=groups)
        except ValueError:  # the filter does not fit the padded map
            continue
        x = rng.standard_normal((wl.n, wl.c, wl.h, wl.w)).astype(np.float32)
        wt = rng.standard_normal((wl.k, cg, r, s)).astype(np.float32)
        yield wl, x, wt, _planted(rng, x.shape), _planted(rng, wt.shape)
        done += 1


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_host_path_equals_reference_bitwise_on_random_workloads():
    for wl, x, wt, px, pwt in _random_workloads():
        got = conv2d_host(x, wt, wl)
        assert got.shape == (wl.n, wl.k, wl.oh, wl.ow), wl
        assert got.tobytes() == conv2d_reference(x, wt, wl).tobytes(), wl
        assert conv2d_host(px, pwt, wl).tobytes() == conv2d_reference(px, pwt, wl).tobytes(), wl


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_race_checked_and_lane_form_runs_equal_the_reference_on_planted_workloads():
    """With NaN planted, a race-checked run sums each lane's cells in arrays
    of another shape than the lane-form call over every lane; every NaN is
    still the one quiet NaN, so all four paths agree in every byte."""
    pick = np.random.default_rng(13)
    nans = 0
    for wl, _, _, x, wt in _random_workloads():
        space = schedule_space(wl)
        cfg = space[int(pick.integers(len(space)))]
        want = conv2d_reference(x, wt, wl)
        for race_check in (False, True):
            got = conv2d_scheduled(x, wt, wl, cfg, session=Session(race_check=race_check))
            assert got.tobytes() == want.tobytes(), (wl, cfg, race_check)
        nans += np.count_nonzero(np.isnan(want))
        assert (want.view(np.uint32)[np.isnan(want)] == np.float32(np.nan).view(np.uint32)).all()
    assert nans > 1000


def test_host_path_checks_shapes_like_the_reference():
    wl = DIFFERENTIAL_WORKLOADS["c2"]
    x, w = np.zeros((1, 8, 8, 8)), np.zeros((8, 8, 3, 3))
    for bad in ((x[:, :4], w), (x, w[:, :4])):
        with pytest.raises(ValueError, match="does not match workload") as want:
            conv2d_reference(*bad, wl)
        with pytest.raises(ValueError, match="does not match workload") as got:
            conv2d_host(*bad, wl)
        assert str(got.value) == str(want.value)


def test_an_unroll_past_one_is_rejected():
    with pytest.raises(ValueError, match=r"^unroll must be 0 or 1, got 2$"):
        ScheduleConfig(unroll=2)
