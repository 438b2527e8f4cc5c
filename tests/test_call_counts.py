"""A fixture run's, an argsort call's or a bare launch's count of Python calls is exact: the same
in every run, so a change to a fixed cost shows in one run, not only in noisy wall times."""

import cProfile
import pstats

import numpy as np
import pytest

from edgegraph.graph import DEFAULT_GPU_OPS, assign_devices, insert_copies, load_graph, run_graph
from edgegraph.simt import LaunchConfig, Session, run_rows
from edgegraph.vision import SegmentedArray, segmented_argsort
from fixtures import ssd_like_doc, ssd_like_inputs


def _two_counts(run):
    """Python calls of two profiled runs of ``run``, after a warm-up that fills the plan caches."""
    run()
    counts = []
    for _ in range(2):
        profile = cProfile.Profile(builtins=True)
        profile.enable()
        run()
        profile.disable()
        counts.append(pstats.Stats(profile).total_calls)
    return counts


@pytest.mark.parametrize("gpu_ops", [DEFAULT_GPU_OPS, DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"}, set()],
                         ids=["all-gpu", "fallback", "all-cpu"])
def test_two_runs_of_the_fixture_make_equal_python_call_counts(gpu_ops):
    g = insert_copies(assign_devices(load_graph(ssd_like_doc()), gpu_ops))
    inputs = ssd_like_inputs(0)
    counts = _two_counts(lambda: run_graph(g, inputs, Session()))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("block", [2, 8, 64])
def test_two_argsort_calls_of_1990_elements_in_50_segments_make_equal_python_call_counts(block):
    rng = np.random.default_rng(block)
    offsets = np.concatenate([[0], np.cumsum(rng.permutation(1 + np.arange(50) * 80 // 50))])
    sa = SegmentedArray(values=rng.random(1990, dtype=np.float32), offsets=offsets)
    counts = _two_counts(lambda: segmented_argsort(sa, block=block, session=Session()))
    assert counts[0] == counts[1] > 0


def _empty(ctx):
    pass


def _zeros(lo, hi):
    return np.zeros(hi - lo, np.float32)


def _barrier(ctx):
    ctx.shared[ctx.thread_id] = ctx.thread_id
    yield ctx.barrier()


@pytest.mark.parametrize("race_check, launch", [
    (False, lambda sess: sess.launch(_empty, LaunchConfig(grid=1, block=2))),
    (False, lambda sess: run_rows(sess, LaunchConfig(grid=1, block=2), "f32", 2, 1, _zeros, "rows")),
    # one lane per call, so both branches of the lockstep loop: a plain kernel's call, a generator's phases
    (True, lambda sess: sess.launch(_empty, LaunchConfig(grid=1, block=2))),
    (True, lambda sess: sess.launch(_barrier, LaunchConfig(grid=1, block=2, shared_slots=2))),
], ids=["empty-launch", "bare-run-rows", "race-checked-empty-launch", "race-checked-barrier-launch"])
def test_two_bare_2_lane_launches_make_equal_python_call_counts(race_check, launch):
    sess = Session(race_check=race_check)
    counts = _two_counts(lambda: launch(sess))
    assert counts[0] == counts[1] > 0
