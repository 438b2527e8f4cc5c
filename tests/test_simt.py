"""Execution-model contract: lockstep launches, barriers, stats, races."""

import functools
import gc
import inspect
import weakref
from itertools import zip_longest
from operator import setitem

import numpy as np
import pytest

from edgegraph import simt
from edgegraph.simt import (
    BarrierDivergenceError,
    BufferBoundsError,
    DeviceBuffer,
    LaunchConfig,
    LaunchConfigError,
    RaceError,
    Session,
    _divergence,
    canonical_nan,
    launch_rows,
    run_rows,
)


def test_single_instance_write():
    sess = Session()
    buf = sess.alloc(1, "i32")

    def kernel(ctx):
        buf[0] = 42

    sess.launch(kernel, LaunchConfig(grid=1, block=1))
    assert buf.to_numpy().tolist() == [42]


def test_elementwise_add_matches_sequential_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(8).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    # oracle: plain per-element loop
    expected = np.array([a[i] + b[i] for i in range(8)], dtype=np.float32)

    sess = Session()
    ba = sess.alloc(8, "f32")
    bb = sess.alloc(8, "f32")
    out = sess.alloc(8, "f32")
    ba.load(a)
    bb.load(b)

    def kernel(ctx):
        i = ctx.global_id
        out[i] = ba[i] + bb[i]
        ctx.add_work(1)

    sess.launch(kernel, LaunchConfig(grid=2, block=4))
    assert np.array_equal(out.to_numpy(), expected)
    st = sess.stats()
    assert st.per_thread_items == [1] * 8
    assert st.load_imbalance == 0.0


def test_zero_grid_rejected():
    with pytest.raises(LaunchConfigError):
        LaunchConfig(grid=0, block=4)
    with pytest.raises(LaunchConfigError):
        LaunchConfig(grid=2, block=0)


def test_buffers_zero_initialized():
    sess = Session()
    buf = sess.alloc(5, "f32")
    assert buf.to_numpy().tolist() == [0.0] * 5


@pytest.mark.parametrize("race_check, where", [(False, "block 0, threads 0-1"), (True, "block 0, thread 1")])
def test_out_of_range_access_names_block_and_thread(race_check, where):
    sess = Session(race_check=race_check)
    buf = sess.alloc(4, "i32", name="small")

    def kernel(ctx):
        buf[ctx.global_id + 3] = 1

    with pytest.raises(BufferBoundsError) as err:
        sess.launch(kernel, LaunchConfig(grid=1, block=2))
    msg = str(err.value)
    assert msg.startswith(f"{where}: ") and "small" in msg


def test_negative_index_rejected():
    sess = Session()
    buf = sess.alloc(4, "i32")

    def kernel(ctx):
        buf[-1] = 1

    with pytest.raises(BufferBoundsError):
        sess.launch(kernel, LaunchConfig(grid=1, block=1))


def test_barrier_visibility_rotation():
    # thread t writes shared[t], then reads shared[(t+1) % 4] after the barrier
    sess = Session()
    out = sess.alloc(4, "i32")

    def kernel(ctx):
        t = ctx.thread_id
        ctx.shared[t] = t
        yield ctx.barrier()
        out[t] = ctx.shared[(t + 1) % 4]

    sess.launch(kernel, LaunchConfig(grid=1, block=4, shared_slots=4))
    assert out.to_numpy().tolist() == [1, 2, 3, 0]
    assert sess.stats().barriers == 1


def test_single_thread_barrier_is_noop():
    sess = Session()
    out = sess.alloc(1, "i32")

    def kernel(ctx):
        ctx.shared[0] = 7
        yield ctx.barrier()
        out[0] = ctx.shared[0]

    sess.launch(kernel, LaunchConfig(grid=1, block=1, shared_slots=1))
    assert out.to_numpy().tolist() == [7]


def test_fresh_session_stats_zero():
    st = Session().stats()
    assert st.launches == 0 and st.barriers == 0 and st.divergence_events == 0
    assert st.per_thread_items == [] and st.load_imbalance == 0.0


def test_stats_snapshot_does_not_reset():
    sess = Session()

    def kernel(ctx):
        ctx.add_work(2)

    sess.launch(kernel, LaunchConfig(grid=2, block=4))
    first = sess.stats()
    assert first.launches == 1
    assert first.per_thread_items == [2] * 8
    assert first.load_imbalance == 0.0
    again = sess.stats()
    assert again.launches == 1


def test_stats_launches_counts_the_launch_log_a_failed_launch_included():
    sess = Session()

    def failing(ctx):
        ctx.add_work(ctx.global_id < 2)
        if np.any(ctx.global_id == 1):
            raise RuntimeError("boom")

    sess.launch(lambda ctx: None, LaunchConfig(grid=1, block=2))
    with pytest.raises(RuntimeError, match="boom"):
        sess.launch(failing, LaunchConfig(grid=2, block=2))
    st = sess.stats()
    assert st.launches == len(sess.launch_log) == len(sess.records) == 2
    # the failed launch's record holds the work reported up to the raise
    rec = sess.records[-1]
    assert (rec.kernel, rec.config, rec.barriers, rec.divergence_events) == (
        failing.__qualname__, LaunchConfig(2, 2), 0, 0)
    assert rec.work.dtype == np.int64 and rec.work.tolist() == st.per_thread_items == [1, 1, 0, 0]


@pytest.mark.parametrize("field", ["grid", "block", "shared_slots"])
@pytest.mark.parametrize("bad", [2.5, True, False, np.nan, float("inf"), np.float32(1.5), "2", None],
                         ids=repr)
def test_launch_config_rejects_geometry_that_is_not_an_integer(field, bad):
    with pytest.raises(LaunchConfigError, match=f"{field} must be an integer, got"):
        LaunchConfig(**{"grid": 2, "block": 2, field: bad})


def test_launch_config_keeps_integral_geometry_as_python_ints():
    cfg = LaunchConfig(grid=np.int64(2), block=2.0, shared_slots=np.int32(3))
    assert cfg == LaunchConfig(2, 2, 3)
    assert [type(v) for v in (cfg.grid, cfg.block, cfg.shared_slots)] == [int] * 3
    sess = Session()
    sess.launch(lambda ctx: ctx.add_work(1), LaunchConfig(grid=2.0, block=np.int64(2)))
    assert sess.stats().per_thread_items == [1] * 4
    assert type(sess.launch_log[-1].grid) is int and type(sess.launch_log[-1].block) is int
    # zero and negative geometry keep their messages, whatever its type
    with pytest.raises(LaunchConfigError, match="grid and block must be >= 1, got grid=0 block=2"):
        LaunchConfig(grid=0.0, block=2)
    with pytest.raises(LaunchConfigError, match="shared_slots must be >= 0, got -1"):
        LaunchConfig(1, 1, shared_slots=np.int64(-1))


def test_load_imbalance_ratio():
    sess = Session()

    def kernel(ctx):
        ctx.add_work(np.array([4, 4, 4, 4, 2])[ctx.global_id])

    sess.launch(kernel, LaunchConfig(grid=5, block=1))
    st = sess.stats()
    assert st.per_thread_items == [4, 4, 4, 4, 2]
    assert st.load_imbalance == pytest.approx((4 - 2) / 3.6)


def test_divergence_events_count_skipping_threads():
    sess = Session()

    def kernel(ctx):
        ctx.add_work(ctx.guard(ctx.thread_id < 3))

    sess.launch(kernel, LaunchConfig(grid=1, block=8))
    assert sess.stats().divergence_events == 5


def test_counters_monotone_across_launches():
    sess = Session()

    def kernel(ctx):
        yield ctx.barrier()

    prev = (0, 0)
    for _ in range(4):
        sess.launch(kernel, LaunchConfig(grid=2, block=2))
        st = sess.stats()
        assert (st.launches, st.barriers) > prev
        prev = (st.launches, st.barriers)


def test_determinism_across_repeats():
    def kernel(ctx):
        t = ctx.thread_id
        ctx.shared[t] = t * 3 + ctx.block_id
        yield ctx.barrier()
        acc = 0
        for i in range(ctx.block_dim):
            acc += ctx.shared[i]
        out[ctx.global_id] = acc + vals[ctx.global_id]

    results = []
    for _ in range(6):
        sess = Session()
        vals = sess.alloc(12, "i32")
        vals.load(np.arange(12, dtype=np.int32))
        out = sess.alloc(12, "i32")
        sess.launch(kernel, LaunchConfig(grid=3, block=4, shared_slots=4))
        results.append(out.to_numpy())
    for r in results[1:]:
        assert np.array_equal(results[0], r)


def test_launch_isolation_total_order():
    sess = Session()
    buf = sess.alloc(1, "i32")

    def writer(value):
        def kernel(ctx):
            buf[0] = buf[0] + value

        return kernel

    sess.launch(writer(5), LaunchConfig(grid=1, block=1))
    sess.launch(writer(7), LaunchConfig(grid=1, block=1))
    assert buf.to_numpy().tolist() == [12]


def test_race_detection_flags_unsynchronized_writes():
    sess = Session(race_check=True)
    buf = sess.alloc(1, "i32")

    def racy(ctx):
        buf[0:1] = ctx.thread_id

    with pytest.raises(RaceError):
        sess.launch(racy, LaunchConfig(grid=1, block=2))


def test_race_detection_accepts_barrier_separated_access():
    sess = Session(race_check=True)
    buf = sess.alloc(2, "i32")

    def fine(ctx):
        t = ctx.thread_id
        ctx.shared[t] = t + 1
        yield ctx.barrier()
        buf[t] = ctx.shared[1 - t]

    sess.launch(fine, LaunchConfig(grid=1, block=2, shared_slots=2))
    assert buf.to_numpy().tolist() == [2, 1]


def test_race_mode_off_by_default():
    sess = Session()
    buf = sess.alloc(1, "i32")

    def racy(ctx):
        buf[0 * ctx.thread_id] = ctx.thread_id  # every lane stores into slot 0

    sess.launch(racy, LaunchConfig(grid=1, block=2))  # some lane's value is kept, with no error
    assert buf.to_numpy().tolist() in ([0], [1])


def test_buffers_passed_as_launch_arguments():
    sess = Session()
    src = sess.alloc(6, "i32")
    dst = sess.alloc(6, "i32")
    src.load(np.arange(6, dtype=np.int32))

    def kernel(ctx, a, b):
        i = ctx.global_id
        b[i] = a[i] * 2

    sess.launch(kernel, LaunchConfig(grid=3, block=2), src, dst)
    assert dst.to_numpy().tolist() == [0, 2, 4, 6, 8, 10]


def test_launch_log_records_geometry():
    sess = Session()

    def kernel(ctx):
        pass

    sess.launch(kernel, LaunchConfig(grid=3, block=5))
    assert sess.launch_log[-1].grid == 3
    assert sess.launch_log[-1].block == 5


@pytest.mark.parametrize("race_check", [False, True])
def test_shared_storage_is_fresh_per_block(race_check):
    sess = Session(race_check=race_check)
    seen = sess.alloc(6, "i32")
    after = sess.alloc(6, "i32")

    def kernel(ctx):
        t = ctx.thread_id
        seen[ctx.global_id] = ctx.shared[t]
        ctx.shared[t] = 10 * ctx.block_id + t + 1
        yield ctx.barrier()
        after[ctx.global_id] = ctx.shared[(t + 1) % 2]

    sess.launch(kernel, LaunchConfig(grid=3, block=2, shared_slots=2))
    assert seen.to_numpy().tolist() == [0] * 6
    assert after.to_numpy().tolist() == [2, 1, 12, 11, 22, 21]


def test_ids_are_right_in_every_block_and_phase():
    sess = Session()
    seen = []

    def kernel(ctx):
        for phase in range(3):
            seen.append((phase, ctx.block_id.tolist(), ctx.thread_id.tolist(), ctx.global_id.tolist()))
            yield ctx.barrier()

    sess.launch(kernel, LaunchConfig(grid=4, block=3))
    want = [(p, [b] * 3, [0, 1, 2], [b * 3, b * 3 + 1, b * 3 + 2]) for b in range(4) for p in range(3)]
    assert seen == want


@pytest.mark.parametrize("race_check", [False, True])
def test_guards_do_not_carry_across_blocks_or_phases(race_check):
    sess = Session(race_check=race_check)

    def kernel(ctx):
        if np.all(ctx.block_id == 0):
            ctx.guard(ctx.thread_id == 0)  # threads 1-3 skip: 3 events
        yield ctx.barrier()
        if np.all(ctx.thread_id == 0):  # under race check, thread 0's call alone
            ctx.guard([True])  # no sibling guards in this phase: no event

    sess.launch(kernel, LaunchConfig(grid=3, block=4))
    assert sess.stats().divergence_events == 3


def test_dropped_buffers_are_freed_without_the_cycle_collector():
    sess = Session()
    buf = sess.alloc(1000, "f32")
    storage = weakref.ref(buf.data)
    gc.disable()
    try:
        del sess, buf
        assert storage() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("race_check", [False, True])
def test_a_dropped_session_is_freed_without_the_cycle_collector(race_check):
    sess = Session(race_check=race_check)
    sess.launch(lambda ctx: ctx.shared[0:0], LaunchConfig(grid=1, block=2))  # the zero-slot buffer
    session = weakref.ref(sess)
    gc.disable()
    try:
        del sess
        assert session() is None
    finally:
        gc.enable()


def test_race_check_resets_only_buffers_the_phase_touched(monkeypatch):
    from edgegraph.vision import SegmentedArray, segmented_argsort

    resets = {}
    reset = DeviceBuffer._race_reset

    def counting(buf):
        resets[buf.name] = resets.get(buf.name, 0) + 1
        reset(buf)

    monkeypatch.setattr(DeviceBuffer, "_race_reset", counting)
    sess = Session(race_check=True)
    sess.alloc(1 << 16, "f32", name="unrelated")
    x = np.random.default_rng(0).standard_normal(200).astype(np.float32)
    order = segmented_argsort(SegmentedArray(values=x, offsets=np.array([0, 200])), "ascending",
                              block=8, session=sess)
    assert np.array_equal(order, np.argsort(x, kind="stable"))
    assert resets and "unrelated" not in resets


def test_race_check_rejects_writes_through_a_slice_read():
    sess = Session(race_check=True)
    buf = sess.alloc(4, "i32")

    def kernel(ctx):
        view = buf[0:4]
        view[ctx.thread_id] = ctx.thread_id

    with pytest.raises(ValueError, match="read-only"):
        sess.launch(kernel, LaunchConfig(grid=1, block=2))
    assert buf.to_numpy().tolist() == [0, 0, 0, 0]


def test_unchecked_launch_rejects_writes_through_a_slice_read_too():
    sess = Session()
    buf = sess.alloc(4, "i32")
    buf[1] = 5

    def kernel(ctx):
        view = buf[0:4]
        assert view.tolist() == [0, 5, 0, 0]
        view[ctx.thread_id] = ctx.thread_id

    with pytest.raises(ValueError, match="read-only"):
        sess.launch(kernel, LaunchConfig(grid=1, block=2))
    with pytest.raises(ValueError, match="read-only"):
        buf[::2][0] = 1
    assert buf.to_numpy().tolist() == [0, 5, 0, 0]


def test_race_check_state_does_not_outlive_a_failed_launch():
    sess = Session(race_check=True)
    buf = sess.alloc(1, "i32")

    def racy(ctx):
        buf[0:1] = ctx.thread_id

    def read_all(ctx):
        ctx.add_work(int(buf[0]))

    with pytest.raises(RaceError):
        sess.launch(racy, LaunchConfig(grid=1, block=2))
    sess.launch(read_all, LaunchConfig(grid=1, block=2))


@pytest.mark.parametrize("index", [
    lambda t: slice(t, 8, 2),
    lambda t: np.arange(t, 8, 2),
    lambda t: np.array([[t, t + 2], [t + 4, t + 6]]),
], ids=["strided-slice", "int-array", "2-d-int-array"])
def test_race_check_tracks_exactly_the_slots_an_access_touches(index):
    # the two threads write interleaved slots whose extents overlap
    sess = Session(race_check=True)
    buf = sess.alloc(8, "i32")

    def kernel(ctx):
        t = ctx.thread_id.item()  # race check calls the kernel once per lane
        buf[index(t)] = t + 1
        ctx.add_work(int(np.sum(buf[index(t)])))

    sess.launch(kernel, LaunchConfig(grid=1, block=2))
    assert buf.to_numpy().tolist() == [1, 2] * 4
    assert sess.stats().per_thread_items == [4, 8]


@pytest.mark.parametrize("second", ["write", "read"])
def test_race_check_flags_index_arrays_sharing_one_slot(second):
    sess = Session(race_check=True)
    buf = sess.alloc(8, "i32")

    def kernel(ctx):
        if ctx.thread_id.item() == 0:  # race check calls the kernel once per lane
            buf[np.array([0, 3, 6])] = 1
        elif second == "write":
            buf[np.array([1, 6, 7])] = 2
        else:
            ctx.add_work(int(buf[np.array([2, 5, 6])].sum()))

    with pytest.raises(RaceError, match=r"block 0, thread 1: .* slot 6 "):
        sess.launch(kernel, LaunchConfig(grid=1, block=2))


def _toy_kernel(out):
    def kernel(ctx):
        b, t = ctx.block_id, ctx.thread_id
        live = ctx.guard(t <= b)  # mixed in blocks 0-2, all True in block 3
        ctx.guard(b % 2 == 0)  # uniform within each block: no event
        ctx.add_work(np.where(live, t + 2 * b, 0))
        gid = ctx.global_id
        out[gid[live]] = gid[live] + 1

    return kernel


@pytest.mark.parametrize("race_check", [False, True], ids=["lanes", "one-lane-at-a-time"])
def test_lane_form_counts_like_one_lane_at_a_time(race_check):
    sess = Session(race_check=race_check)
    out = sess.alloc(16, "i32")
    sess.launch(lambda ctx: None, LaunchConfig(grid=2, block=3))
    sess.launch(_toy_kernel(out), LaunchConfig(grid=4, block=4))
    st = sess.stats()
    assert (st.launches, st.barriers, st.divergence_events) == (2, 0, 3 + 2 + 1)
    assert st.per_thread_items == [0, 0, 0, 0, 2, 3, 0, 0, 4, 5, 6, 0, 6, 7, 8, 9]
    assert type(st.per_thread_items[0]) is int
    assert st.load_imbalance == (9 - 0) / (50 / 16)
    assert sess.launch_log == [LaunchConfig(2, 3), LaunchConfig(4, 4)]
    assert out.to_numpy().tolist() == [1, 0, 0, 0, 5, 6, 0, 0, 9, 10, 11, 0, 13, 14, 15, 16]


def test_work_profile_is_a_fresh_int_list_and_imbalance_is_the_list_formula():
    rng = np.random.default_rng(11)
    sess = Session()
    for trial in range(30):
        grid, block = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        top = (0, 1, 3, 10**12)[trial % 4]
        work = rng.integers(0, top + 1, grid * block)

        def kernel(ctx):
            ctx.add_work(work[ctx.global_id])

        sess.launch(kernel, LaunchConfig(grid, block))
        st = sess.stats()
        items = st.per_thread_items
        assert type(items) is list and all(type(x) is int for x in items)
        assert items == work.tolist()
        mean = sum(items) / len(items)
        assert st.load_imbalance == ((max(items) - min(items)) / mean if mean else 0.0)
        items.append(-1)  # a snapshot owns its list
        assert sess.stats().per_thread_items == work.tolist()


def test_race_checked_lane_form_flags_two_lanes_sharing_a_slot():
    sess = Session(race_check=True)
    buf = sess.alloc(8, "i32")

    def kernel(ctx):
        buf[ctx.global_id // 2] = ctx.thread_id

    with pytest.raises(RaceError, match=r"block 0, thread 1: write to buffer 'buf0' slot 0 "):
        sess.launch(kernel, LaunchConfig(grid=2, block=2))


@pytest.mark.parametrize("gen", [True, False], ids=["generator", "plain"])
@pytest.mark.parametrize("shared_slots", [4, 0])
def test_unchecked_lane_form_runs_once_per_block_with_barriers_or_shared_storage(gen, shared_slots):
    calls = []

    def plain(ctx):
        shared = ctx.shared
        calls.append((ctx.lanes, ctx.block_id.tolist(), ctx.thread_id.tolist(), type(shared), len(shared)))

    def generator(ctx):
        plain(ctx)
        yield ctx.barrier()

    sess = Session()
    config = LaunchConfig(grid=3, block=4, shared_slots=shared_slots)
    sess.launch(generator if gen else plain, config)
    if gen or shared_slots:
        assert calls == [(slice(4 * b, 4 * b + 4), [b] * 4, [0, 1, 2, 3], DeviceBuffer, shared_slots)
                         for b in range(3)]
    else:
        assert calls == [(slice(0, 12), [0] * 4 + [1] * 4 + [2] * 4, [0, 1, 2, 3] * 3, DeviceBuffer, 0)]
    assert sess.records[0].barriers == (3 if gen else 0)


def test_lane_form_block_calls_count_barriers_and_divergence_as_lane_by_lane():
    runs = []
    for race_check in (False, True):
        sess = Session(race_check=race_check)
        out, calls = sess.alloc(12, "i32"), []

        def kernel(ctx):
            # three phases, each with a guard: each lane stores gid + 1 in its
            # shared slot, then reads its left neighbour's (wrapping)
            calls.append(ctx.lanes)
            t = ctx.thread_id
            ctx.add_work(t + 1)
            ctx.shared[t] = ctx.global_id + 1
            ctx.guard(ctx.global_id % 3 != 0)
            yield ctx.barrier()
            out[ctx.global_id] = ctx.shared[(t - 1) % ctx.block_dim]
            ctx.guard(ctx.block_id == 1)
            yield
            ctx.guard(t < 2)

        sess.launch(kernel, LaunchConfig(grid=3, block=4, shared_slots=4))
        assert len(calls) == (12 if race_check else 3)
        rec = sess.records[0]
        runs.append((out.to_numpy().tolist(), rec.work.tolist(), rec.barriers, rec.divergence_events))
    assert runs[0] == runs[1]
    # 2 barriers per block; divergence: gids 0, 3, 6 and 9 in the first phase, none in the
    # second (each block agrees), and lanes 2 and 3 of every block in the third
    assert runs[0] == ([4, 1, 2, 3, 8, 5, 6, 7, 12, 9, 10, 11], [1, 2, 3, 4] * 3, 6, 4 + 0 + 6)


def test_lane_form_shared_storage_holds_the_python_values_stored():
    stored = np.array([2**40, np.float32(-0.0)], object)
    for race_check in (False, True):
        seen = []

        def kernel(ctx):
            ctx.shared[ctx.thread_id] = stored[ctx.thread_id]
            for t in ctx.thread_id.tolist():  # a 0-d array at an int index stores its item
                ctx.shared[2 + t] = np.array(5)
            if 0 in ctx.thread_id:  # and so does each 0-d array of a list or object array a slice or int array takes
                ctx.shared[4:5] = [np.array(7)]
                ctx.shared[np.array([5, 6])] = [np.array(9), np.array(10)]
                ctx.shared[7:8] = np.array([np.array(11)], dtype=object)
                ctx.shared[8:10] = stored  # while numpy scalars and exact ints are stored as given
                for i, value in enumerate([[[3]], [(6,)], [[np.array(8)]], np.array([[12]], object)]):
                    ctx.shared[10 + i : 11 + i] = value  # one value a slot, whatever the value's shape
            yield ctx.barrier()
            seen.append([(type(x), str(x)) for x in ctx.shared[:]])

        Session(race_check=race_check).launch(kernel, LaunchConfig(grid=1, block=2, shared_slots=14))
        given = [(int, str(2**40)), (np.float32, "-0.0")]
        want = [*given, *[(int, str(v)) for v in (5, 5, 7, 9, 10, 11)], *given, *[(int, str(v)) for v in (3, 6, 8, 12)]]
        assert seen == [want] * (2 if race_check else 1)


def test_race_checked_lane_form_flags_two_lanes_writing_one_shared_slot():
    def kernel(ctx):
        ctx.shared[ctx.thread_id // 2] = ctx.thread_id
        yield

    with pytest.raises(RaceError, match=r"^block 0, thread 1: write to shared slot 0 conflicts"):
        Session(race_check=True).launch(kernel, LaunchConfig(grid=2, block=2, shared_slots=1))
    # unchecked, block storage is unchecked
    Session().launch(kernel, LaunchConfig(grid=2, block=2, shared_slots=1))


@pytest.mark.parametrize("grid, bad", [(2, 0), (3, 2), (5, 3)])
def test_race_checked_lane_form_flags_lanes_that_disagree_on_a_barrier(grid, bad):
    def kernel(ctx):  # every lane of every other block reaches the barrier
        if np.all(ctx.thread_id < 2) or np.all(ctx.block_id != bad):
            yield ctx.barrier()

    with pytest.raises(BarrierDivergenceError,
                       match=rf"^block {bad}: threads \[2, 3\] skipped a barrier reached by threads \[0, 1\]"):
        Session(race_check=True).launch(kernel, LaunchConfig(grid=grid, block=4))
    # unchecked, a block's lanes reach the one barrier of the call together or not at all
    sess = Session()
    sess.launch(kernel, LaunchConfig(grid=grid, block=4))
    assert sess.records[0].barriers == grid - 1


@pytest.mark.parametrize("race_check, where", [
    (False, "lanes of grid 2 x block 4"), (True, "block 1, thread 3"),
    (False, "block 1, threads 0-3"),  # a call per block, as the launch has shared storage
])
def test_lane_form_bounds_error_names_a_readable_location(race_check, where):
    sess = Session(race_check=race_check)
    buf = sess.alloc(7, "f32")

    def kernel(ctx):
        buf[ctx.global_id] = 1.0

    with pytest.raises(BufferBoundsError) as err:
        sess.launch(kernel, LaunchConfig(grid=2, block=4, shared_slots=int("threads" in where)))
    assert str(err.value).startswith(f"{where}: ")
    assert "[" not in str(err.value).split(":")[0]


@pytest.mark.parametrize("rows, tile, grid, block, shares", [
    (10, 1, 1, 8, [(0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 10)]),
    (3, 1, 1, 3, [(0, 1), (1, 2), (2, 3)]),
    # three tiles of 4 over 8 lanes: the first three lanes take one each
    (10, 4, 2, 4, [(0, 4), (4, 8), (8, 10)] + [(10, 10)] * 5),
    (0, 4, 1, 1, [(0, 0)]),
])
@pytest.mark.parametrize("race_check", [False, True])
def test_launch_rows_splits_tiles_into_consecutive_even_shares(rows, tile, grid, block, shares,
                                                               race_check):
    sess = Session(race_check=race_check)
    out = sess.alloc(max(1, 2 * rows), "i32", name="rows")
    calls = []

    def twice(lo, hi):
        calls.append((lo, hi))
        return np.repeat(np.arange(lo, hi), 2)

    launch_rows(sess, LaunchConfig(grid, block), out, rows, twice, tile=tile)
    assert out.to_numpy()[: 2 * rows].tolist() == np.repeat(np.arange(rows), 2).tolist()
    assert sess.stats().per_thread_items == [2 * (hi - lo) for lo, hi in shares]
    assert sess.launch_log == [LaunchConfig(grid, block)]
    # one call over every lane's rows, or one per lane that owns any
    assert calls == ([(0, rows)] if rows and not race_check
                     else [s for s in shares if s[1] > s[0]] if race_check else [])


@pytest.mark.parametrize("rows, tile, grid, block", [
    (100, 7, 3, 4), (100, 7, 1, 1), (64, 8, 2, 8), (13, 4, 5, 2), (5, 16, 1, 4), (30, 1, 2, 3),
])
@pytest.mark.parametrize("race_check", [False, True])
def test_launch_rows_calls_fn_only_at_tile_edges_or_rows(rows, tile, grid, block, race_check):
    sess = Session(race_check=race_check)
    calls = []

    def edges(lo, hi):
        calls.append((lo, hi))
        return np.arange(lo, hi)

    launch_rows(sess, LaunchConfig(grid, block), sess.alloc(rows, "i32"), rows, edges, tile=tile)
    assert calls
    assert all(e % tile == 0 or e == rows for call in calls for e in call)


def test_launch_rows_names_its_kernel_after_the_range_function():
    sess = Session()
    names = []
    launch = sess.launch
    sess.launch = lambda kernel, config: (names.append(kernel.__qualname__), launch(kernel, config))

    def fill(lo, hi):
        return np.zeros(hi - lo)

    launch_rows(sess, LaunchConfig(1, 2), sess.alloc(4), 4, fill)
    assert names == [fill.__qualname__]


def test_launch_rows_race_check_sees_the_range_functions_reads():
    sess = Session(race_check=True)
    src = sess.alloc(4, "i32", name="src")
    out = sess.alloc(4, "i32", name="out")

    def neighbour(lo, hi):
        return src[lo + 1 : hi + 1] if hi < 4 else src[lo:hi]

    src.load([1, 2, 3, 4])
    launch_rows(sess, LaunchConfig(1, 2), out, 4, neighbour)
    with pytest.raises(RaceError, match=r"block 0, thread 1: write to buffer 'src' slot 2 "):
        launch_rows(sess, LaunchConfig(1, 2), src, 4, neighbour)


@pytest.mark.parametrize("index", [-1, 2, slice(-1, None), slice(0, 3), slice(1, 0)])
def test_race_checked_shared_storage_rejects_indices_out_of_range(index):
    def kernel(ctx):
        if np.all(ctx.block_id == 1):
            ctx.shared[index] = 1

    for race_check in (False, True):  # unchecked, shared storage is checked alike
        with pytest.raises(BufferBoundsError, match=r"^block 1, thread 0: .*shared storage of length 2"):
            Session(race_check=race_check).launch(kernel, LaunchConfig(grid=2, block=1, shared_slots=2))


def test_race_checked_shared_slot_race_names_block_thread_and_slot():
    sess = Session(race_check=True)
    out = sess.alloc(2, "i32")

    def write_write(ctx):
        t = ctx.thread_id[ctx.block_id == 1]
        ctx.shared[0 * t] = t  # block 1's lanes each store into slot 0

    def write_read(ctx):
        t = ctx.thread_id
        ctx.shared[t[t == 0] + 1] = 5  # lane 0 stores into slot 1, lane 1 reads it
        out[t[t == 1]] = ctx.shared[t[t == 1]]

    with pytest.raises(RaceError, match=r"^block 1, thread 1: write to shared slot 0 conflicts"):
        sess.launch(write_write, LaunchConfig(grid=2, block=2, shared_slots=1))
    with pytest.raises(RaceError, match=r"^block 0, thread 1: read of shared slot 1 written by"):
        sess.launch(write_read, LaunchConfig(grid=1, block=2, shared_slots=2))
    # unchecked, the same kernels run on plain storage
    Session().launch(write_write, LaunchConfig(grid=2, block=2, shared_slots=1))


@pytest.mark.parametrize("race_check", [False, True])
def test_shared_slice_store_of_another_length_raises(race_check):
    def kernel(ctx):
        ctx.shared[0:2] = [7, 8] if np.all(ctx.block_id == 0) else [7]
        yield ctx.barrier()

    with pytest.raises(BufferBoundsError, match=r"^block 1, thread 0: slice \[0:2:None\] of shared storage "
                                                r"takes 2 values, got 1$"):
        Session(race_check=race_check).launch(kernel, LaunchConfig(grid=2, block=1, shared_slots=4))


# accesses that broke the storage contract in one mode, each made by every lane of a
# 2 x 2 launch, on storage of 4 slots
BAD_ACCESSES = {
    "short_slice_store": lambda s, t: setitem(s, slice(0, 2), [7]),  # numpy would broadcast the 7
    "slot_tid_minus_1": lambda s, t: setitem(s, t - 1, 1),  # numpy would wrap slot -1 round to slot 3
    "slot_5": lambda s, t: setitem(s, 5, 1),
    "bool_index": lambda s, t: setitem(s, True, 5.0),  # numpy would read True as a mask of every slot
    "bool_scalar_read": lambda s, t: s[np.True_],
    "bool_mask": lambda s, t: setitem(s, np.array([True, False, True, False]), 1),
    "float_indices": lambda s, t: setitem(s, np.array([0.0, 1.0]), 1),
    "float_read": lambda s, t: s[1.0],
    # slice bounds and steps follow the int rule: numpy would read True as 1, or raise a bare TypeError
    "bool_slice_start": lambda s, t: setitem(s, slice(True, 3), 1.0),
    "float_slice_start": lambda s, t: setitem(s, slice(0.5, 2), 1.0),
    "np_float_slice_stop": lambda s, t: setitem(s, slice(0, np.float64(2)), 1.0),
    "bool_slice_step": lambda s, t: setitem(s, slice(None, None, True), 1.0),
    "np_bool_slice_stop": lambda s, t: setitem(s, slice(0, np.True_), 1.0),
    # an int-array store takes a scalar or one value per slot, as a slice store does
    "one_value_into_three_slots": lambda s, t: setitem(s, np.array([0, 1, 2]), [7.0]),
    "three_values_into_two_slots": lambda s, t: setitem(s, np.array([0, 1]), [7.0, 8.0, 9.0]),
    # numpy would read a tuple as one index per axis and raise a bare IndexError
    "tuple_read": lambda s, t: s[(0, 1)],
    "tuple_store": lambda s, t: setitem(s, (0, 1), 1.0),
    # an int store takes one 0-d value: numpy would raise a bare ValueError, or keep the array in an object slot
    "one_element_array_into_one_slot": lambda s, t: setitem(s, 0, np.array([1.0])),
    "two_element_array_into_one_slot": lambda s, t: setitem(s, 1, np.array([1.0, 2.0])),
    "list_into_one_slot": lambda s, t: setitem(s, np.int64(2), [1.0]),
}


@pytest.mark.parametrize("access", BAD_ACCESSES)
@pytest.mark.parametrize("storage", ["shared", "global"])
@pytest.mark.parametrize("after_barrier", [False, True], ids=["plain", "after-barrier"])
@pytest.mark.parametrize("race_check", [False, True])
def test_storage_rejects_the_same_bad_accesses_in_every_mode(race_check, after_barrier, storage, access):
    # a plain kernel makes the access in its one call; a generator makes it in its
    # second phase, once per block unchecked and lane by lane under race check
    sess = Session(race_check=race_check)
    buf = sess.alloc(4, "f32", name="g")

    def plain(ctx):
        BAD_ACCESSES[access](ctx.shared if storage == "shared" else buf, ctx.thread_id)

    def generator(ctx):
        yield ctx.barrier()
        plain(ctx)

    kernel = generator if after_barrier else plain
    what = "shared storage" if storage == "shared" else "buffer 'g'"
    with pytest.raises(BufferBoundsError,
                       match=rf"^(block 0, threads? 0(-1)?|lanes of grid 2 x block 2): .*{what}"):
        sess.launch(kernel, LaunchConfig(grid=2, block=2, shared_slots=4 if storage == "shared" else 0))
    assert buf.to_numpy().tolist() == [0] * 4


@pytest.mark.parametrize("race_check", [False, True])
def test_a_launch_without_shared_slots_rejects_any_shared_access(race_check):
    def kernel(ctx):
        ctx.shared[ctx.thread_id] = 1

    with pytest.raises(BufferBoundsError, match=r"^.*: ind.* out of range for shared storage of length 0$"):
        Session(race_check=race_check).launch(kernel, LaunchConfig(2, 2))


@pytest.mark.parametrize("race_check", [False, True])
def test_numpy_integer_bounds_and_indices_still_work(race_check):
    sess = Session(race_check=race_check)
    buf = sess.alloc(6, "i32", name="g")

    def kernel(ctx):
        buf[np.int64(0) : np.int64(2)] = [1, 2]
        buf[np.uint64(2) : np.uint64(6) : np.uint64(2)] = [3, 4]  # 2 slots, though uint64 has no negatives
        buf[np.int64(3)] = buf[np.array(0, np.int64)] + 10
        buf[np.array(5)] = 6
        ctx.add_work(buf[np.int32(1) :].size)

    sess.launch(kernel, LaunchConfig(grid=1, block=1))
    assert buf.to_numpy().tolist() == [1, 2, 3, 11, 4, 6]
    assert sess.records[0].work.tolist() == [5]


@pytest.mark.parametrize("race_check", [False, True])
def test_launches_without_shared_slots_share_one_zero_slot_buffer(race_check):
    sess = Session(race_check=race_check)
    seen, first = [], sess.alloc(4, "i32", name="first")

    def bare(ctx):
        seen.append(ctx.shared)

    def slots(ctx):
        # every block starts from zeroed storage, whatever the block before it stored
        first[ctx.global_id] = ctx.shared[ctx.thread_id] + 1
        ctx.shared[ctx.thread_id] = 7

    for kernel, config in ((bare, LaunchConfig(2, 2)), (bare, LaunchConfig(1, 3)),
                           (slots, LaunchConfig(2, 2, shared_slots=2))):
        sess.launch(kernel, config)
    assert len({id(shared) for shared in seen}) == 1
    assert type(seen[0]) is DeviceBuffer and len(seen[0]) == 0 and seen[0].name is None
    assert first.to_numpy().tolist() == [1] * 4


@pytest.mark.parametrize("length", [True, 2.5, -1, "4", None])
def test_buffer_length_must_be_an_integer_of_at_least_zero(length):
    with pytest.raises(ValueError, match=rf"^buffer length must be >= 0 and an integer, got {length!r}$"):
        Session().alloc(length)


def test_buffer_length_takes_any_integral_number():
    for length in (0, 3, 3.0, np.int64(3), np.uint8(3)):
        assert len(Session(race_check=True).alloc(length)) == int(length)


@pytest.mark.parametrize("race_check", [False, True])
def test_launch_rows_rejects_a_result_of_the_wrong_size(race_check):
    # a one-element result would otherwise broadcast over every slot
    sess = Session(race_check=race_check)
    out = sess.alloc(8, "i32", name="rows")
    with pytest.raises(ValueError, match=r"<lambda>\(0, [24]\) returned 1 elements for [24] rows of 2"):
        launch_rows(sess, LaunchConfig(1, 2), out, 4, lambda lo, hi: np.array([7]))
    assert out.to_numpy().tolist() == [0] * 8


def test_launch_rows_shares_follow_the_six_operation_edge_formula():
    # each geometry launches twice: once building its lane plan, once reusing it
    for lanes in range(1, 21):
        for tile in range(1, 10):
            for rows in range(41):
                tiles = -(-rows // tile)
                busy = max(1, min(lanes, tiles))
                edges = np.minimum(tiles * np.minimum(np.arange(lanes + 1), busy) // busy * tile, rows)
                simt._row_plan.cache_clear()
                for hits in (0, 1):
                    sess = Session()
                    launch_rows(sess, LaunchConfig(1, lanes), sess.alloc(rows), rows,
                                lambda lo, hi: np.zeros(hi - lo), tile=tile)
                    assert simt._row_plan.cache_info()[:2] == (hits, 1)
                    assert sess.stats().per_thread_items == np.diff(edges).tolist(), (rows, tile, lanes)


def test_row_plan_is_read_only_and_built_once_per_geometry():
    sess = Session()
    for grid, rows in [(2, 10), (3, 10), (2, 10), (2, 15), (3, 10)]:
        launch_rows(sess, LaunchConfig(grid, 2), sess.alloc(3 * rows), rows,
                    lambda lo, hi: np.zeros(3 * (hi - lo)), tile=2)
    info = simt._row_plan.cache_info()
    assert (info.misses, info.hits) == (3, 2)
    edges, shares = simt._row_plan(4, 10, 2, 3)
    assert edges.tolist() == [0, 2, 4, 6, 10] and shares.tolist() == [6, 6, 6, 12]
    for a in (edges, shares):
        assert a.dtype == np.int64 and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


@pytest.mark.parametrize("race_check", [False, True])
def test_row_plan_keeps_no_plan_wider_than_plan_lanes(race_check):
    for lanes, kept in [(simt.PLAN_LANES + 1, 0), (simt.PLAN_LANES, 1), (simt.PLAN_LANES + 7, 1)]:
        sess = Session(race_check=race_check)
        launch_rows(sess, LaunchConfig(1, lanes), sess.alloc(lanes), lanes, lambda lo, hi: np.ones(hi - lo))
        assert simt._row_plan.cache_info().currsize == kept
        assert sess.stats().per_thread_items == [1] * lanes


@pytest.mark.parametrize("rows", [0, 1, 37])
@pytest.mark.parametrize("tile", [1, 5])
@pytest.mark.parametrize("width", [3, 0])
def test_run_rows_on_the_host_is_bitwise_the_race_checked_launch(rows, tile, width):
    def sevenths(lo, hi):  # float32 values of rows lo..hi-1, whatever the split
        return np.arange(lo * width, hi * width, dtype=np.float32) / np.float32(7)

    host = run_rows(None, LaunchConfig(2, 4), "f32", rows, width, sevenths, "sevenths", tile)
    sess = Session(race_check=True)
    dev = run_rows(sess, LaunchConfig(2, 4), "f32", rows, width, sevenths, "sevenths", tile)
    assert host.shape == dev.shape == (rows, width) and host.dtype == dev.dtype == np.float32
    assert host.tobytes() == dev.tobytes()
    assert len(sess.launch_log) == 1 and sum(sess.stats().per_thread_items) == rows * width


@pytest.mark.parametrize("race_check", [None, False, True])  # None: the host path
def test_run_rows_takes_a_range_function_that_returns_a_list_on_both_paths(race_check):
    sess = None if race_check is None else Session(race_check=race_check)
    got = run_rows(sess, LaunchConfig(1, 2), "i32", 4, 2, lambda lo, hi: list(range(2 * lo, 2 * hi)),
                   "rows")
    assert got.tolist() == np.arange(8).reshape(4, 2).tolist()


@pytest.mark.parametrize("race_check", [None, False, True])  # None: the host path
def test_run_rows_rejects_a_result_of_the_wrong_size_on_both_paths(race_check):
    sess = None if race_check is None else Session(race_check=race_check)
    with pytest.raises(ValueError):
        run_rows(sess, LaunchConfig(1, 2), "i32", 4, 2, lambda lo, hi: np.array([7]), "rows")


def test_divergence_counts_ragged_guard_lists_per_position():
    # thread t makes t guard calls: position 0 is False, True, False over
    # threads 1-3 (two events), position 1 False, True (one), and
    # position 2 only thread 3's False, which nothing contradicts; the
    # lists are ragged only under race check, one lane per call
    sess = Session(race_check=True)

    def kernel(ctx):
        t = ctx.thread_id
        for j in range(t.item()):
            ctx.guard((t + j) % 2 == 0)

    sess.launch(kernel, LaunchConfig(grid=2, block=4))
    assert sess.stats().divergence_events == 2 * 3


@pytest.mark.parametrize("race_check", [False, True])
def test_guard_takes_one_bool_per_lane(race_check):
    # under race check too, where each call holds a single lane
    for active in (True, np.array(True), np.array([True, True, True])):
        with pytest.raises(ValueError, match="one bool per lane"):
            Session(race_check=race_check).launch(lambda ctx: ctx.guard(active), LaunchConfig(grid=1, block=2))


@pytest.mark.parametrize("race_check", [False, True])
def test_buffer_slice_store_of_another_length_raises(race_check):
    # numpy alone would broadcast the one value over all four slots
    sess = Session(race_check=race_check)
    buf = sess.alloc(6, "i32", name="g")
    buf.load([1, 2, 3, 4, 5, 6])

    def kernel(ctx):
        buf[0:4] = [7]

    with pytest.raises(BufferBoundsError, match=r"^block 0, thread 0: slice \[0:4:None\] of buffer 'g' "
                                                r"takes 4 values, got 1$"):
        sess.launch(kernel, LaunchConfig(grid=1, block=1))
    assert buf.to_numpy().tolist() == [1, 2, 3, 4, 5, 6]

    def strided(ctx):
        buf[1::2] = np.array([7.0])  # slots 1, 3 and 5

    with pytest.raises(BufferBoundsError, match=r"^block 0, thread 0: slice \[1:None:2\] of buffer 'g' "
                                                r"takes 3 values, got 1$"):
        sess.launch(strided, LaunchConfig(grid=1, block=1))
    assert buf.to_numpy().tolist() == [1, 2, 3, 4, 5, 6]


def test_launch_tells_a_generator_kernel_as_inspect_does():
    # a function's code flags, a bound method's function's, or inspect for any other callable
    class Kernels:
        def barrier(self, ctx):
            yield ctx.barrier()

        def plain(self, ctx):
            ctx.add_work(1)

    def barrier(ctx, steps):
        for _ in range(steps):
            yield ctx.barrier()

    k, partial = Kernels(), functools.partial(barrier, steps=2)
    partial.__qualname__ = "barrier_twice"  # a record names its kernel
    for kernel, barriers in ((k.barrier, 1), (k.plain, 0), (partial, 2),
                             (lambda ctx: ctx.add_work(1), 0)):
        assert inspect.isgeneratorfunction(kernel) == (barriers > 0)
        sess = Session()
        sess.launch(kernel, LaunchConfig(grid=1, block=2))
        assert sess.records[0].barriers == barriers


def test_launch_rejects_a_kernel_with_no_name_before_recording_it():
    def body(ctx, scale):
        ctx.add_work(scale)

    sess = Session()
    with pytest.raises(LaunchConfigError, match=r"kernel functools\.partial\(.*\) has no __qualname__"):
        sess.launch(functools.partial(body, scale=1), LaunchConfig(grid=1, block=2))
    assert sess.records == []


def padded_divergence(guards, block):
    """The per-position formula: each context's guards padded to the longest
    list with -1 (no guard), one row per (position, block) of lanes."""
    vals = np.array([np.concatenate([np.ravel(v) for v in pos])
                     for pos in zip_longest(*guards, fillvalue=-1)], np.int8).reshape(-1, block)
    return int(np.count_nonzero((vals == 0) & (vals == 1).any(axis=1, keepdims=True)))


@pytest.mark.parametrize("block", [1, 2, 3, 8, 31, 64])
def test_divergence_equals_the_padded_per_position_formula(block):
    rng = np.random.default_rng(block)
    for trial in range(40):
        p = (0.0, 0.3, 0.7, 1.0)[trial % 4]  # all False, mixed, all True
        # ragged lists, as race check makes: one lane per context, 1-element guards
        ragged = [[rng.random(1) < p for _ in range(rng.integers(0, 4))] for _ in range(block)]
        if any(ragged):
            got = _divergence(ragged, block)
            assert got == padded_divergence(ragged, block) and type(got) is int, (trial, ragged)
        # one context over every lane of a grid
        grid = int(rng.integers(1, 5))
        lanes = [[rng.random(grid * block) < p for _ in range(rng.integers(1, 4))]]
        got = _divergence(lanes, block)
        assert got == padded_divergence(lanes, block) and type(got) is int, (trial, lanes)
        # one context's guard list, which takes no stacking: 0-3 masks, mixed,
        # all True or all False, over one block or the grid
        for size in (block, grid * block):
            for fill in (None, True, False):
                masks = [np.full(size, fill) if fill is not None else np.asarray(rng.random(size) < p)
                         for _ in range(rng.integers(0, 4))]
                got = _divergence([masks], block)
                assert got == padded_divergence([masks], block) and type(got) is int, (trial, masks)


def plain_divergence(guards, block):
    """Events counted lane by lane in plain Python: at each guard position, every
    lane without a True guard in a block of lanes that holds one."""
    events = 0
    for pos in range(max(map(len, guards))):
        lanes = [bool(x) for g in guards if len(g) > pos for x in np.ravel(g[pos])]
        for b0 in range(0, len(lanes), block):
            if True in lanes[b0 : b0 + block]:
                events += lanes[b0 : b0 + block].count(False)
    return events


@pytest.mark.parametrize("block", [1, 2, 3, 8, 16, 31, 64])
def test_divergence_equals_a_plain_count_lane_by_lane(block):
    rng = np.random.default_rng(100 + block)
    for trial in range(60):
        # one context over a grid: 1-3 masks, each with idle lanes, a tail of
        # every block guarded off, as a conv config has with more threads than columns
        grid = int(rng.integers(1, 9))
        masks = []
        for _ in range(rng.integers(1, 4)):
            mask = rng.random((grid, block)) < rng.choice([0.0, 0.2, 0.5, 0.9, 1.0])
            mask[:, block - int(rng.integers(0, block)):] = False
            masks.append(mask.reshape(-1))
        got = _divergence([masks], block)
        assert got == plain_divergence([masks], block) and type(got) is int, (trial, masks)
        # one-lane contexts of one block, with 0-3 guards each
        ragged = [[rng.random(1) < 0.5 for _ in range(rng.integers(0, 4))] for _ in range(block)]
        if any(ragged):
            got = _divergence(ragged, block)
            assert got == plain_divergence(ragged, block) and type(got) is int, (trial, ragged)


@pytest.mark.parametrize("dtype, uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_canonical_nan_gives_every_nan_one_bit_pattern_in_place(dtype, uint):
    """NaNs of either sign and any payload become the one quiet NaN; every
    other value, -0.0 and infinities included, keeps its bits."""
    quiet = np.array(np.nan, dtype).view(uint)
    signed = np.array(np.nan, dtype).view(uint) | np.array(-0.0, dtype).view(uint)
    odd = np.array(np.nan, dtype).view(uint) + 1
    a = np.array([1.5, -0.0, np.inf, -np.inf, 0, 0, 0, 2.0], dtype)
    a[4:7] = np.array([quiet, signed, odd], uint).view(dtype)
    keep = a.copy()
    assert canonical_nan(a) is a
    bits = a.view(uint)
    assert (bits[4:7] == quiet).all()
    assert bits[[0, 1, 2, 3, 7]].tolist() == keep.view(uint)[[0, 1, 2, 3, 7]].tolist()
    empty = np.empty((0, 3), dtype)
    assert canonical_nan(empty) is empty


def test_a_buffer_of_an_unknown_dtype_is_rejected():
    with pytest.raises(ValueError, match=r"^unsupported dtype 'f64'; expected one of \['bool', 'f32', 'i32'\]$"):
        Session().alloc(4, "f64")


@pytest.mark.parametrize("values", [np.zeros(3), np.zeros(5), np.zeros((2, 2))], ids=["short", "long", "2-d"])
def test_a_load_of_the_wrong_shape_is_rejected_and_leaves_the_buffer(values):
    buf = Session().alloc(4, "f32", name="b")
    buf.load(np.arange(4))
    with pytest.raises(ValueError) as e:
        buf.load(values)
    assert str(e.value) == f"cannot load shape {values.shape} into buffer 'b' of length 4"
    assert buf.to_numpy().tolist() == [0, 1, 2, 3]
