"""Execution-model contract: lockstep launches, barriers, stats, races."""

import gc
import weakref

import numpy as np
import pytest

from edgegraph.simt import (
    BarrierDivergenceError,
    BufferBoundsError,
    LaunchConfig,
    LaunchConfigError,
    RaceError,
    Session,
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


def test_out_of_range_access_names_block_and_thread():
    sess = Session()
    buf = sess.alloc(4, "i32", name="small")

    def kernel(ctx):
        buf[ctx.global_id + 3] = 1

    with pytest.raises(BufferBoundsError) as err:
        sess.launch(kernel, LaunchConfig(grid=1, block=2))
    msg = str(err.value)
    assert "block 0" in msg and "thread 1" in msg and "small" in msg


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


def test_divergent_barrier_names_block():
    sess = Session()

    def kernel(ctx):
        if ctx.thread_id < 2:
            yield ctx.barrier()

    with pytest.raises(BarrierDivergenceError) as err:
        sess.launch(kernel, LaunchConfig(grid=3, block=4))
    assert "block 0" in str(err.value)


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


def test_load_imbalance_ratio():
    sess = Session()

    def kernel(ctx):
        ctx.add_work([4, 4, 4, 4, 2][ctx.global_id])

    sess.launch(kernel, LaunchConfig(grid=5, block=1))
    st = sess.stats()
    assert st.per_thread_items == [4, 4, 4, 4, 2]
    assert st.load_imbalance == pytest.approx((4 - 2) / 3.6)


def test_divergence_events_count_skipping_threads():
    sess = Session()

    def kernel(ctx):
        if ctx.guard(ctx.thread_id < 3):
            ctx.add_work(1)

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


def test_determinism_across_repeats_and_worker_hint():
    def kernel(ctx):
        t = ctx.thread_id
        ctx.shared[t] = t * 3 + ctx.block_id
        yield ctx.barrier()
        acc = 0
        for i in range(ctx.block_dim):
            acc += ctx.shared[i]
        out[ctx.global_id] = acc + vals[ctx.global_id]

    results = []
    for workers in (1, 4, 16):
        for _ in range(2):
            sess = Session(workers=workers)
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
        buf[0] = ctx.thread_id

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
        buf[0] = ctx.thread_id

    sess.launch(racy, LaunchConfig(grid=1, block=2))  # last writer wins, no error
    assert buf.to_numpy().tolist() == [1]


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
            seen.append((phase, ctx.block_id, ctx.thread_id, ctx.global_id))
            yield ctx.barrier()

    sess.launch(kernel, LaunchConfig(grid=4, block=3))
    want = [(p, b, t, b * 3 + t) for b in range(4) for p in range(3) for t in range(3)]
    assert seen == want


def test_guards_do_not_carry_across_blocks_or_phases():
    sess = Session()

    def kernel(ctx):
        if ctx.block_id == 0:
            ctx.guard(ctx.thread_id == 0)  # threads 1-3 skip: 3 events
        yield ctx.barrier()
        if ctx.thread_id == 0:
            ctx.guard(True)  # no sibling guards in this phase: no event

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
