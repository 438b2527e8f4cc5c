"""Measurement, schedule search, records database, layout DP."""


import json
import math

import numpy as np
import pytest

from edgegraph.conv import ConvWorkload, ScheduleConfig, schedule_space
from edgegraph.graph import Graph, Node
from edgegraph.tensor import LayoutTag
from edgegraph.tune import (
    TuningRecord,
    UnsupportedGraphError,
    graph_tune_dp,
    measure,
    proxy_timer,
    query_best,
    query_cost,
    records_append,
    records_load,
    records_save,
    tune_model,
    tune_random,
)

WL = ConvWorkload(n=1, c=4, h=6, w=6, k=4, r=3, s=3, pad=(1, 1))


def constant_timer(value):
    def timer(run, wl, cfg):
        return value

    return timer


def scripted_timer(values):
    seq = iter(values)

    def timer(run, wl, cfg):
        return next(seq)

    return timer


def surface_timer(wl, target):
    """Deterministic cost surface, separable and convex in log-factors."""

    def timer(run, wl_, cfg):
        f = (cfg.oc_split, cfg.h_split, cfg.w_tile, cfg.vec)
        cost = 0.1
        for v, t in zip(f, target):
            cost += (math.log2(v) - math.log2(t)) ** 2
        cost += 0.05 * (1 - cfg.unroll)
        return cost

    return timer


def exhaustive_surface_optimum(wl, timer):
    best_cfg, best_cost = None, None
    for cfg in schedule_space(wl):
        c = timer(None, wl, cfg)
        if best_cost is None or c < best_cost:
            best_cfg, best_cost = cfg, c
    return best_cfg, best_cost


def make_record(key, cfg, cost, ts=0.0):
    return TuningRecord(key, cfg, cost, 0.0, 1, "emu", ts)


def test_measure_constant_timer():
    rec = measure(WL, ScheduleConfig(), repeats=3, timer=constant_timer(2.0))
    assert rec.cost_mean == 2.0
    assert rec.cost_std == 0.0
    assert rec.repeats == 3
    assert rec.ok


def test_measure_median_of_scripted_timer():
    rec = measure(WL, ScheduleConfig(), repeats=5, timer=scripted_timer([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert rec.cost_mean == 3.0


def test_measure_invalid_config_failure_flagged():
    rec = measure(WL, ScheduleConfig(oc_split=3), timer=constant_timer(1.0))
    assert rec.failed
    assert rec.cost_mean is None
    assert rec.error and "oc_split" in rec.error
    assert not rec.ok


def test_measure_runs_verification():
    calls = []

    def timer(run, wl, cfg):
        calls.append(cfg)
        run()
        return 1.0

    rec = measure(WL, ScheduleConfig(oc_split=2), repeats=2, timer=timer)
    assert rec.ok and len(calls) == 2


def test_tune_random_budget_covers_space_finds_exhaustive_optimum():
    timer = surface_timer(WL, (2, 3, 6, 1))
    best_cfg, best_cost = exhaustive_surface_optimum(WL, timer)
    rec = tune_random(WL, budget=10_000, seed=0, repeats=1, timer=timer)
    assert rec.config == best_cfg
    assert rec.cost_mean == pytest.approx(best_cost)


def test_tune_random_single_trial():
    rec = tune_random(WL, budget=1, seed=5, repeats=1, timer=constant_timer(1.0))
    assert rec.ok


def test_tune_random_deterministic_per_seed(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tune_random(WL, budget=10, seed=42, repeats=1, timer=proxy_timer, records_path=str(p1))
    tune_random(WL, budget=10, seed=42, repeats=1, timer=proxy_timer, records_path=str(p2))
    seq1 = [r.config for r in records_load(str(p1))]
    seq2 = [r.config for r in records_load(str(p2))]
    assert seq1 == seq2 and len(seq1) == 10


def test_tune_model_budget_equals_space_is_exhaustive():
    timer = surface_timer(WL, (4, 2, 3, 1))
    best_cfg, best_cost = exhaustive_surface_optimum(WL, timer)
    n = len(schedule_space(WL))
    rec = tune_model(WL, budget=n, batch=16, seed=0, repeats=1, timer=timer)
    assert rec.cost_mean == pytest.approx(best_cost)
    assert rec.config == best_cfg


def test_tune_model_batch_larger_than_budget_rejected():
    with pytest.raises(ValueError):
        tune_model(WL, budget=4, batch=8, timer=constant_timer(1.0))


def test_tune_model_never_exceeds_budget(tmp_path):
    p = tmp_path / "r.jsonl"
    tune_model(WL, budget=17, batch=5, seed=1, repeats=1, timer=proxy_timer, records_path=str(p))
    assert len(records_load(str(p))) == 17


def test_tune_model_anytime_best_nonincreasing(tmp_path):
    p = tmp_path / "r.jsonl"
    timer = surface_timer(WL, (2, 2, 2, 2))
    tune_model(WL, budget=40, batch=8, seed=3, repeats=1, timer=timer, records_path=str(p))
    best = math.inf
    for r in records_load(str(p)):
        if r.ok:
            best = min(best, r.cost_mean)
            assert best <= r.cost_mean
    assert best < math.inf


def test_tune_model_beats_random_on_surface(tmp_path):
    timer = surface_timer(WL, (2, 3, 6, 1))
    best_cfg, best_cost = exhaustive_surface_optimum(WL, timer)
    # trials random search needs: position of the optimum in its visit order
    p = tmp_path / "rand.jsonl"
    tune_random(WL, budget=len(schedule_space(WL)), seed=0, repeats=1, timer=timer, records_path=str(p))
    visits = [r.config for r in records_load(str(p))]
    random_needed = visits.index(best_cfg) + 1
    model_budget = max(2, random_needed // 2)
    rec = tune_model(WL, budget=model_budget, batch=8, seed=0, repeats=1, timer=timer)
    assert rec.cost_mean == pytest.approx(best_cost)
    assert rec.config == best_cfg


def test_tuners_never_return_failed_records():
    def half_fail_timer(run, wl, cfg):
        return 1.0 + cfg.oc_split

    rec = tune_random(WL, budget=30, seed=2, repeats=1, timer=half_fail_timer)
    assert rec.ok


def test_records_round_trip_preserves_everything(tmp_path):
    rng = np.random.default_rng(0)
    space = schedule_space(WL)
    recs = [
        make_record(WL.key(), space[int(rng.integers(0, len(space)))], float(rng.random()), float(i))
        for i in range(500)
    ]
    recs.append(TuningRecord(WL.key(), ScheduleConfig(), None, None, 0, "emu", 600.0, True, "rejected"))
    p = tmp_path / "records.jsonl"
    records_save(recs, str(p))
    loaded = records_load(str(p))
    assert loaded == recs
    b1 = p.read_bytes()
    records_save(loaded, str(p))
    assert p.read_bytes() == b1


def test_records_header_checked(tmp_path):
    p = tmp_path / "b.jsonl"
    p.write_text('{"schema": 99}\n')
    with pytest.raises(ValueError, match="schema"):
        records_load(str(p))


def test_records_malformed_line_reports_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    records_save([make_record(WL.key(), ScheduleConfig(), 1.0)], str(p))
    with open(p, "a") as f:
        f.write("{truncated\n")
    with pytest.raises(ValueError, match=":3:"):
        records_load(str(p))


def test_records_append_only_and_best_query_monotone(tmp_path):
    p = tmp_path / "r.jsonl"
    rng = np.random.default_rng(1)
    best_seen = math.inf
    for i in range(30):
        records_append([make_record(WL.key(), ScheduleConfig(), float(rng.random()), float(i))], str(p))
        recs = records_load(str(p))
        assert len(recs) == i + 1
        best = query_best(recs, WL.key()).cost_mean
        assert best <= best_seen
        best_seen = best


def test_query_cost_newest_wins_query_best_takes_min():
    key = WL.key()
    cfg = ScheduleConfig()
    recs = [make_record(key, cfg, 3.0, ts=1.0), make_record(key, cfg, 2.5, ts=2.0)]
    assert query_best(recs, key).cost_mean == 2.5
    assert query_cost(recs, key, cfg).cost_mean == 2.5
    recs.append(make_record(key, cfg, 4.0, ts=3.0))
    assert query_cost(recs, key, cfg).cost_mean == 4.0  # newest measurement
    assert query_best(recs, key).cost_mean == 2.5  # best ever seen


def chain(n, op="relu"):
    nodes = [
        Node(id=f"n{i}", op=op, inputs=([] if i == 0 else [f"n{i-1}"]), attrs={"out_shape": (4,)})
        for i in range(n)
    ]
    return Graph(nodes=nodes, inputs={}, outputs=[f"n{n-1}"])


LAYOUTS = [LayoutTag("NCHW"), LayoutTag("NCHWc", 2), LayoutTag("NCHWc", 4), LayoutTag("OIHW")]


def test_dp_single_node_picks_cheapest():
    g = chain(1)
    assign, total = graph_tune_dp(
        g, {"n0": {"NCHW": 5.0, "NCHWc4": 3.0}}, lambda s, d, shape: 0.0 if s == d else 1.0
    )
    assert total == 3.0
    assert assign["n0"] == LayoutTag("NCHWc", 4)


def test_dp_zero_transform_costs_pick_independent_minima():
    g = chain(4)
    costs = {f"n{i}": {"NCHW": float(i + 1), "NCHWc2": float(5 - i)} for i in range(4)}
    assign, total = graph_tune_dp(g, costs, lambda s, d, shape: 0.0)
    want = sum(min(c.values()) for c in costs.values())
    assert total == want


def exhaustive_assignment_minimum(n, nl, cost_arr, table_arr, edges):
    """Minimum over all nl**n layout assignments, enumerated with numpy."""
    combos = np.stack(np.unravel_index(np.arange(nl**n), (nl,) * n), axis=1)
    total = np.zeros(len(combos))
    for i in range(n):
        total += cost_arr[i, combos[:, i]]
    for u, v in edges:
        total += table_arr[combos[:, u], combos[:, v]]
    return float(total.min())


def random_dp_instance(rng, n, nl):
    cost_arr = rng.integers(0, 30, (n, nl)).astype(float)
    table_arr = rng.integers(0, 20, (nl, nl)).astype(float)
    np.fill_diagonal(table_arr, 0.0)
    costs = {f"n{i}": {str(LAYOUTS[j]): cost_arr[i, j] for j in range(nl)} for i in range(n)}
    tags = {str(LAYOUTS[j]): j for j in range(nl)}

    def tc(s, d, shape):
        return table_arr[tags[str(s)], tags[str(d)]]

    return cost_arr, table_arr, costs, tc


def test_dp_matches_brute_force_on_random_chains():
    rng = np.random.default_rng(2)
    for trial in range(120):
        n = int(rng.integers(1, 11))
        nl = int(rng.integers(1, 5))
        g = chain(n)
        cost_arr, table_arr, costs, tc = random_dp_instance(rng, n, nl)
        _, total = graph_tune_dp(g, costs, tc)
        best = exhaustive_assignment_minimum(
            n, nl, cost_arr, table_arr, [(i, i + 1) for i in range(n - 1)]
        )
        assert total == pytest.approx(best), f"trial {trial}"


def test_dp_matches_brute_force_on_random_trees():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(2, 10))
        nl = int(rng.integers(1, 5))
        nodes = [Node(id="n0", op="relu", inputs=[], attrs={})]
        parents = [None]
        for i in range(1, n):
            parent = int(rng.integers(0, i))
            parents.append(parent)
            nodes.append(Node(id=f"n{i}", op="relu", inputs=[f"n{parent}"], attrs={}))
        g = Graph(nodes=nodes, inputs={}, outputs=[f"n{n-1}"])
        cost_arr, table_arr, costs, tc = random_dp_instance(rng, n, nl)
        _, total = graph_tune_dp(g, costs, tc)
        best = exhaustive_assignment_minimum(
            n, nl, cost_arr, table_arr, [(parents[i], i) for i in range(1, n)]
        )
        assert total == pytest.approx(best), f"trial {trial}"


def test_dp_rejects_non_tree_shapes():
    nodes = [
        Node(id="a", op="relu", inputs=[]),
        Node(id="b", op="relu", inputs=["a"]),
        Node(id="c", op="relu", inputs=["a"]),
        Node(id="d", op="add", inputs=["b", "c"]),
    ]
    g = Graph(nodes=nodes, inputs={}, outputs=["d"])
    with pytest.raises(UnsupportedGraphError):
        graph_tune_dp(g, {n.id: {"NCHW": 1.0} for n in nodes}, lambda s, d, shape: 1.0)


def test_dp_missing_candidates_rejected():
    g = chain(2)
    with pytest.raises(ValueError, match="n1"):
        graph_tune_dp(g, {"n0": {"NCHW": 1.0}, "n1": {}}, lambda s, d, shape: 0.0)


def test_dp_deterministic_tie_break_by_enumeration_order():
    g = chain(1)
    assign, _ = graph_tune_dp(
        g, {"n0": {"NCHWc2": 1.0, "NCHW": 1.0}}, lambda s, d, shape: 0.0
    )
    assert assign["n0"] == LayoutTag("NCHWc", 2)


def test_records_torn_final_line_skipped_with_warning(tmp_path):
    p = tmp_path / "torn.jsonl"
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    records_save([rec], str(p))
    with open(p, "a") as f:
        f.write(rec.to_json()[:25])  # a crash cut the append short of its newline
    with pytest.warns(UserWarning, match=":3:.*torn"):
        assert records_load(str(p)) == [rec]


def test_records_append_cuts_a_torn_final_line(tmp_path):
    p = tmp_path / "torn.jsonl"
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    other = make_record(WL.key(), ScheduleConfig(unroll=1), 2.0)
    records_save([rec], str(p))
    with open(p, "a") as f:
        f.write(rec.to_json()[:20])  # a crash cut the append short of its newline
    records_append([other], str(p))
    assert records_load(str(p)) == [rec, other]


def test_records_append_restarts_a_torn_header(tmp_path):
    p = tmp_path / "torn.jsonl"
    p.write_text('{"schema": "edge')
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    records_append([rec], str(p))
    assert records_load(str(p)) == [rec]


def test_records_damaged_line_before_the_end_still_raises(tmp_path):
    p = tmp_path / "bad.jsonl"
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    records_save([rec], str(p))
    with open(p, "a") as f:
        f.write(rec.to_json()[:25] + "\n" + rec.to_json())
    with pytest.raises(ValueError, match=":3:"):
        records_load(str(p))
