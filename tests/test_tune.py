"""Measurement, schedule search, records database, layout DP."""


import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import edgegraph.tune as tune
from edgegraph.conv import ConvWorkload, ScheduleConfig, schedule_space
from edgegraph.graph import Graph, Node
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

# the four conv workloads of the fixture graph (tests/fixtures.py)
FIXTURE_CONVS = {
    "c1": ConvWorkload(n=1, c=3, h=16, w=16, k=8, r=3, s=3, pad=(1, 1)),
    "c2": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1)),
    "cls": ConvWorkload(n=1, c=8, h=8, w=8, k=6, r=1, s=1),
    "loc": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=1, s=1),
}


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


@pytest.mark.parametrize("damage", [lambda v: np.nextafter(v, np.float32(np.inf)), lambda v: v + 1],
                         ids=["one-ulp", "plus-one"])
def test_measure_raises_on_output_that_is_not_bitwise_the_reference(monkeypatch, tmp_path, damage):
    real = tune.conv2d_scheduled

    def off_by(*a, **k):
        out = real(*a, **k)
        out[0, 1, 2, 3] = damage(out[0, 1, 2, 3])
        return out

    monkeypatch.setattr(tune, "conv2d_scheduled", off_by)
    cfg = ScheduleConfig(oc_split=2)
    with pytest.raises(RuntimeError, match=re.escape(f"config {cfg} produced wrong output")):
        measure(WL, cfg, repeats=1, timer=proxy_timer)
    p = tmp_path / "records.jsonl"
    with pytest.raises(RuntimeError, match="produced wrong output"):
        tune_model(WL, budget=4, batch=4, seed=0, repeats=1, timer=proxy_timer, records_path=str(p))
    assert not p.exists()


@pytest.mark.parametrize("node", sorted(FIXTURE_CONVS))
def test_every_fixture_config_verifies_bitwise(node):
    wl = FIXTURE_CONVS[node]
    recs = [measure(wl, cfg, repeats=1, timer=proxy_timer) for cfg in schedule_space(wl)]
    assert all(r.ok for r in recs)


def test_proxy_timer_prices_every_fixture_config_as_pinned():
    # golden/proxy_costs.txt holds float.hex of each cost, so a change of any bit fails
    want = [line for line in (Path(__file__).parent / "golden" / "proxy_costs.txt").read_text()
            .splitlines() if not line.startswith("#")]
    got = [" ".join([node, *map(str, cfg.as_dict().values()),
                     float.hex(measure(wl, cfg, timer=proxy_timer).cost_mean)])
           for node, wl in FIXTURE_CONVS.items() for cfg in schedule_space(wl)]
    assert len(got) == 926
    assert got == want


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


@pytest.mark.parametrize("budget, batch, name, shown", [
    (8.5, 8, "budget", "8.5"), (True, 1, "budget", "True"), (8, 2.5, "batch", "2.5"), (8, "4", "batch", "'4'"),
], ids=["fractional-budget", "bool-budget", "fractional-batch", "string-batch"])
def test_tune_model_rejects_a_budget_or_batch_that_is_not_an_integer(budget, batch, name, shown):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1 and an integer, got {re.escape(shown)}$"):
        tune_model(WL, budget, batch=batch, timer=constant_timer(1.0))


@pytest.mark.parametrize("repeats, shown", [(2.5, "2.5"), ("3", "'3'"), (True, "True"), (0, "0")],
                         ids=["fraction", "string", "bool", "zero"])
def test_measure_rejects_repeats_that_are_not_an_integer_of_at_least_one(repeats, shown):
    with pytest.raises(ValueError, match=f"^repeats must be >= 1 and an integer, got {re.escape(shown)}$"):
        measure(WL, ScheduleConfig(), repeats=repeats, timer=tune.wall_timer)


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


LAYOUTS = ["NCHW", "NCHWc2", "NCHWc4", "OIHW"]


def test_dp_single_node_picks_cheapest():
    g = chain(1)
    assign, total = graph_tune_dp(
        g, {"n0": {"NCHW": 5.0, "NCHWc4": 3.0}}, lambda s, d, shape: 0.0 if s == d else 1.0
    )
    assert total == 3.0
    assert assign["n0"] == "NCHWc4"


def test_dp_zero_transform_costs_pick_independent_minima():
    g = chain(4)
    costs = {f"n{i}": {"NCHW": float(i + 1), "NCHWc2": float(5 - i)} for i in range(4)}
    assign, total = graph_tune_dp(g, costs, lambda s, d, shape: 0.0)
    want = sum(min(c.values()) for c in costs.values())
    assert total == want


def exhaustive_assignment_minimum(n, nl, cost_arr, table_arr, edges, scales=None):
    """Minimum over all nl**n layout assignments, enumerated with numpy.

    Edge ``e`` prices a change at ``table_arr`` times ``scales[e]`` (1 if None).
    """
    combos = np.stack(np.unravel_index(np.arange(nl**n), (nl,) * n), axis=1)
    total = np.zeros(len(combos))
    for i in range(n):
        total += cost_arr[i, combos[:, i]]
    for e, (u, v) in enumerate(edges):
        total += table_arr[combos[:, u], combos[:, v]] * (1.0 if scales is None else scales[e])
    return float(total.min())


def random_dp_instance(rng, n, nl, labels=LAYOUTS):
    cost_arr = rng.integers(0, 30, (n, nl)).astype(float)
    table_arr = rng.integers(0, 20, (nl, nl)).astype(float)
    np.fill_diagonal(table_arr, 0.0)
    costs = {f"n{i}": {labels[j]: cost_arr[i, j] for j in range(nl)} for i in range(n)}
    index = {labels[j]: j for j in range(nl)}

    def tc(s, d, shape):
        return table_arr[index[s], index[d]]

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


@pytest.mark.parametrize("labels", [LAYOUTS, ("GPU", "CPU", 7)], ids=["layouts", "devices"])
def test_dp_matches_brute_force_on_random_forests(labels):
    """Edges point either way, so a node may have two inputs and a component
    may be rooted at a consumer; nodes come shuffled, in several components,
    and a change costs more on an edge whose producer's out_shape is larger.
    Labels are opaque: each returned one is the caller's own key object."""
    rng = np.random.default_rng(4)
    for trial in range(150):
        n = int(rng.integers(1, 9))
        nl = int(rng.integers(1, 4))
        edges = []  # (producer, consumer)
        for i in range(1, n):
            if rng.random() < 0.25:
                continue  # node i starts another component
            j = int(rng.integers(0, i))
            edges.append((j, i) if rng.random() < 0.5 else (i, j))
        widths = rng.integers(1, 4, n)
        nodes = [Node(id=f"n{i}", op="relu", inputs=[f"n{u}" for u, v in edges if v == i],
                      attrs={"out_shape": (int(widths[i]), 2)}) for i in range(n)]
        g = Graph(nodes=[nodes[i] for i in rng.permutation(n)], inputs={}, outputs=[])
        cost_arr, table_arr, costs, table_tc = random_dp_instance(rng, n, nl, labels)

        def tc(s, d, shape):
            return table_tc(s, d, shape) * shape[0]

        assign, total = graph_tune_dp(g, costs, tc)
        best = exhaustive_assignment_minimum(
            n, nl, cost_arr, table_arr, edges, scales=[widths[u] for u, _ in edges]
        )
        assert total == best, f"trial {trial}"
        assert sorted(assign) == sorted(n.id for n in nodes)
        assert all(any(label is key for key in costs[nid]) for nid, label in assign.items()), f"trial {trial}"
        priced = sum(costs[nid][label] for nid, label in assign.items())
        priced += sum(tc(assign[f"n{u}"], assign[f"n{v}"], (int(widths[u]), 2)) for u, v in edges)
        assert priced == total, f"trial {trial}"


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
    assert assign["n0"] == "NCHWc2"


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


def running_timer(run, wl, cfg):
    run()
    return 1.0


@pytest.mark.parametrize("timer, runs, repeats", [
    (proxy_timer, 1, 1), (running_timer, 4, 3),
])
def test_proxy_measure_prices_its_verification_run(monkeypatch, timer, runs, repeats):
    calls = []
    real = tune.conv2d_scheduled
    monkeypatch.setattr(tune, "conv2d_scheduled", lambda *a, **k: calls.append(1) or real(*a, **k))
    cfg = ScheduleConfig(oc_split=2, w_tile=3)
    rec = measure(WL, cfg, repeats=3, timer=timer)
    assert len(calls) == runs
    assert (rec.repeats, rec.cost_std) == (repeats, 0.0)
    if timer is proxy_timer:
        # the same cost as pricing a fresh run of the config
        def run():
            sess = tune.Session()
            real(*tune._workload_data(WL)[:2], WL, cfg, session=sess)
            return sess

        assert rec.cost_mean == proxy_timer(run, WL, cfg)


@pytest.mark.parametrize("damage", [
    lambda doc: [],
    lambda doc: "a string",
    lambda doc: {"workload": doc["workload"]},
    lambda doc: dict(doc, config=dict(doc["config"], w_tile="two")),
    lambda doc: dict(doc, config=dict(doc["config"], w_tile=1.5)),
    lambda doc: dict(doc, config=[1]),
], ids=["list", "string", "missing-fields", "config-field-str", "config-field-float",
        "config-not-object"])
def test_records_invalid_complete_line_reports_path_and_line(tmp_path, damage):
    p = tmp_path / "bad.jsonl"
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    records_save([rec], str(p))
    with open(p, "a") as f:
        f.write(json.dumps(damage(json.loads(rec.to_json()))) + "\n" + rec.to_json() + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: malformed record"):
        records_load(str(p))


def test_records_header_that_is_not_an_object_is_rejected(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("[]\n")
    with pytest.raises(ValueError, match=":1: unsupported schema"):
        records_load(str(p))


def test_records_torn_final_line_that_parses_is_still_skipped(tmp_path):
    p = tmp_path / "torn.jsonl"
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    records_save([rec], str(p))
    with open(p, "a") as f:
        f.write("[]")  # a torn append can cut a line at a point where it parses
    with pytest.warns(UserWarning, match=":3:.*torn"):
        assert records_load(str(p)) == [rec]


@pytest.mark.parametrize("field, value", [
    ("cost_mean", "fast"), ("cost_std", [1.0]), ("repeats", 1.5), ("repeats", True),
    ("device", 7), ("created_at", None), ("failed", 0), ("error", 3), ("workload", None),
])
def test_records_with_a_wrong_field_type_are_malformed(tmp_path, field, value):
    p = tmp_path / "typed.jsonl"
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    records_save([rec], str(p))
    bad = json.loads(rec.to_json())
    bad[field] = value
    with open(p, "a") as f:
        f.write(json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=rf":3: malformed record: .*{field}"):
        records_load(str(p))
    # cut short of its newline, the same line is a torn final record
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.warns(UserWarning, match=":3:.*torn"):
        assert records_load(str(p)) == [rec]


def test_records_accept_integral_costs_and_missing_optional_fields(tmp_path):
    p = tmp_path / "typed.jsonl"
    records_save([], str(p))
    line = {"workload": WL.key(), "config": ScheduleConfig().as_dict(), "cost_mean": 2,
            "cost_std": 0, "repeats": 1, "device": "emu", "created_at": 5}
    with open(p, "a") as f:
        f.write(json.dumps(line) + "\n")
    (got,) = records_load(str(p))
    assert (got.cost_mean, got.failed, got.error) == (2, False, None)
    assert query_best([got], WL.key()) == got


@pytest.mark.parametrize("timer, repeats, timed", [
    (constant_timer(math.nan), 3, 3),
    (scripted_timer([1.0, math.inf, 2.0]), 3, 3),
    (constant_timer(-math.inf), 1, 1),
    ("proxy", 3, 1),
], ids=["nan", "inf-among-finite", "minus-inf", "proxy-nan"])
def test_measure_flags_a_non_finite_cost_as_failed(monkeypatch, timer, repeats, timed):
    if timer == "proxy":
        monkeypatch.setattr(tune, "proxy_timer", constant_timer(math.nan))
        timer = tune.proxy_timer
    rec = measure(WL, ScheduleConfig(), repeats=repeats, timer=timer)
    assert rec.failed and not rec.ok
    assert (rec.cost_mean, rec.cost_std, rec.repeats) == (None, None, timed)
    assert re.search(r"non-finite cost -?(nan|inf)", rec.error)


def test_records_with_a_non_finite_cost_never_count(tmp_path):
    p = tmp_path / "old.jsonl"
    lines = [json.dumps(tune.RECORDS_HEADER)]
    for cost, cfg in ((math.nan, ScheduleConfig()), (math.inf, ScheduleConfig(oc_split=2)),
                      (1.0, ScheduleConfig(oc_split=4))):
        rec = json.loads(make_record(WL.key(), cfg, 0.0).to_json())
        lines.append(json.dumps({**rec, "cost_mean": cost}))  # NaN and Infinity, as older files hold
    p.write_text("\n".join(lines) + "\n")
    loaded = records_load(str(p))
    assert [r.ok for r in loaded] == [False, False, True]
    assert query_best(loaded, WL.key()).config == ScheduleConfig(oc_split=4)


@pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("write", [records_save, records_append])
@pytest.mark.parametrize("tail", [None, b"", b'{"workload": "tor'], ids=["no-file", "whole", "torn"])
def test_writing_a_non_finite_cost_raises_and_leaves_the_file(tmp_path, cost, write, tail):
    p = tmp_path / "r.jsonl"
    if tail is not None:
        records_save([make_record(WL.key(), ScheduleConfig(), 1.0)], str(p))
        p.write_bytes(p.read_bytes() + tail)
        before = p.read_bytes()
    bad = [make_record(WL.key(), ScheduleConfig(oc_split=2), 2.0),
           make_record(WL.key(), ScheduleConfig(oc_split=4), cost)]
    with pytest.raises(ValueError, match="JSON"):
        write(bad, str(p))
    if tail is None:
        assert not p.exists()
    else:
        assert p.read_bytes() == before


def test_tuners_skip_a_non_finite_first_cost():
    rec = tune_random(WL, budget=4, seed=0, repeats=1,
                      timer=scripted_timer([math.nan, 1.0, 2.0, 3.0]))
    assert rec.cost_mean == 1.0


def test_two_jobs_on_one_workload_build_the_search_space_once(monkeypatch):
    calls = {"space": 0, "features": 0}
    real_space, real_features = tune.schedule_space, tune.config_features

    def counted_space(wl):
        calls["space"] += 1
        return real_space(wl)

    def counted_features(wl, configs):
        calls["features"] += len(configs)
        return real_features(wl, configs)

    monkeypatch.setattr(tune, "schedule_space", counted_space)
    monkeypatch.setattr(tune, "config_features", counted_features)
    for seed in (0, 1):
        tune_model(WL, budget=8, batch=4, seed=seed, repeats=1, timer=proxy_timer)
    assert calls == {"space": 1, "features": len(real_space(WL))}


def _trials(wl, seed, path):
    tune_model(wl, 16, batch=8, seed=seed, repeats=3, timer=proxy_timer, records_path=str(path))
    return [(r.config, r.cost_mean, r.cost_std, r.repeats, r.failed) for r in records_load(str(path))]


@pytest.mark.parametrize("node", sorted(FIXTURE_CONVS))
def test_trials_are_the_same_with_the_shared_state_cold_or_warm(tmp_path, node):
    wl = FIXTURE_CONVS[node]
    for seed in range(8):
        tune._workload_data.cache_clear()
        tune._search_space.cache_clear()
        cold = _trials(wl, seed, tmp_path / f"cold{seed}.jsonl")
        misses = tune._workload_data.cache_info().misses, tune._search_space.cache_info().misses
        assert misses == (1, 1)
        warm = _trials(wl, seed, tmp_path / f"warm{seed}.jsonl")
        assert (tune._workload_data.cache_info().misses, tune._search_space.cache_info().misses) == misses
        assert cold == warm and len(cold) == 16


@pytest.mark.parametrize("space, bound", [([], 2000), (None, 3)], ids=["empty", "over-bound"])
def test_a_bad_space_raises_before_any_reference_convolution(monkeypatch, space, bound):
    def no_reference(*a, **k):
        raise AssertionError("conv2d_reference was called")

    if space is not None:
        monkeypatch.setattr(tune, "schedule_space", lambda wl: space)
    monkeypatch.setattr(tune, "MAX_SPACE", bound)
    monkeypatch.setattr(tune, "conv2d_reference", no_reference)
    with pytest.raises(ValueError, match="empty schedule space|desk-scale bound of 3"):
        tune_model(WL, budget=4, batch=4, seed=0, repeats=1, timer=proxy_timer)
    assert tune._workload_data.cache_info().currsize == 0


@pytest.mark.parametrize("wl", [WL, FIXTURE_CONVS["c1"], ConvWorkload(n=1, c=1, h=1, w=1621, k=2, r=1, s=1)],
                         ids=["small", "c1", "ow-1621"])
def test_shared_feature_matrix_equals_per_config_features(wl):
    space, feats = tune._search_space(wl)
    assert isinstance(space, tuple) and space == tuple(schedule_space(wl))
    # the features "v1" one config at a time, with math.log2 of each Python int
    want = np.array([[math.log2(c.oc_split), math.log2(c.h_split), math.log2(c.w_tile), math.log2(c.vec),
                      float(c.unroll), math.log2(c.oc_split * c.h_split), math.log2(c.w_tile * c.vec),
                      math.log2(wl.k // c.oc_split), math.log2(wl.oh // c.h_split), math.log2(wl.ow // c.w_tile)]
                     for c in space])
    assert feats.dtype == want.dtype and feats.tobytes() == want.tobytes()
    assert tune.config_features(wl, space[-1:]).tobytes() == want[-1:].tobytes()
    assert not feats.flags.writeable
    assert tune._search_space(wl)[1] is feats


@pytest.mark.parametrize("features", [1, 3, 8, 10, 15])
def test_knn_predictions_equal_those_of_a_numpy_feature_sum(features):
    rng = np.random.default_rng(features)
    for trial in range(40):
        points, queries = int(rng.integers(1, 12)), int(rng.integers(1, 300))
        scale = 10.0 ** rng.integers(-3, 6)
        x = rng.standard_normal((points, features)) * scale
        q = rng.standard_normal((queries, features)) * scale
        if trial % 2:  # ties between neighbours
            x, q = np.round(x / scale), np.round(q / scale)
        y = rng.random(points)
        d = np.sqrt(((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        idx = np.argsort(d, axis=1, kind="stable")[:, :min(tune.KNN_K, points)]
        model = tune.KnnCostModel()
        model.fit(x, y)
        assert model.predict(q).tobytes() == y[idx].mean(axis=1).tobytes(), (features, trial)


def test_knn_ranks_a_near_tie_as_numpys_pairwise_sum_does():
    # nine squares of 0.49 vanish one by one into 2**52, but numpy's pairwise
    # sum adds six of them together first, so point 0 is farther than point 1
    x = np.array([[2.0 ** 26] + [0.7] * 9, [2.0 ** 26] + [0.0] * 9, [0.0] * 10, [1.0] + [0.0] * 9])
    model = tune.KnnCostModel()
    model.fit(x, [1.0, 2.0, 3.0, 4.0])
    assert model.predict(np.zeros(10)).tolist() == [3.0]  # points 1, 2 and 3


def test_workload_share_holds_at_most_32_workloads():
    for w in range(1, 34):
        wl = ConvWorkload(n=1, c=1, h=1, w=w, k=1, r=1, s=1)
        inp, wgt, ref = tune._workload_data(wl)
        assert tune._workload_data.cache_info().currsize <= 32
    assert ref.shape == (1, 1, 1, 33)
    assert np.array_equal(ref.view(np.uint32), tune.conv2d_reference(inp, wgt, wl).view(np.uint32))


# --- incremental records_load ----------------------------------------------------

def load_outcome(path):
    """What records_load gives: its records, or its exception's type and text, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = records_load(path)
        except Exception as e:
            got = (type(e), str(e))
    return got, [(w.category, str(w.message)) for w in caught]


def cold_outcome(path, monkeypatch):
    """records_load's outcome with no per-path state, leaving the real state alone."""
    with monkeypatch.context() as m:
        m.setattr(tune, "_records_cache", {})
        return load_outcome(path)


def random_records(rng, n):
    space = schedule_space(WL)
    return [make_record(WL.key(), space[int(rng.integers(len(space)))], float(rng.random()),
                        float(rng.integers(1000))) for _ in range(n)]


BAD_HEADERS = [b'{"schema": 99}', b'{"schema": 1, "features": "v2"}', b'{"schema": 1}', b"[]",
               b'"v1"', b"not json", b""]


def change_file(rng, p):
    """One random step: an append, an overwrite, a torn tail, a truncation, a
    same-length edit, blank lines or header damage."""
    data = p.read_bytes()
    step = rng.choice(["append", "append", "append", "save", "torn", "truncate", "edit",
                       "blank", "header"])
    if step == "append":
        try:
            records_append(random_records(rng, int(rng.integers(0, 4))), str(p))
        except ValueError as e:  # only a header that a load rejects stops an append
            assert ":1:" in str(e) and p.read_bytes() == data
    elif step == "save":
        records_save(random_records(rng, int(rng.integers(0, 6))), str(p))
    elif step == "torn":
        line = random_records(rng, 1)[0].to_json().encode()
        p.write_bytes(data + line[:int(rng.integers(1, len(line) + 1))])
    elif step == "truncate":
        p.write_bytes(data[:int(rng.integers(0, len(data) + 1))])
    elif step == "edit" and data:
        i = int(rng.integers(len(data)))
        p.write_bytes(data[:i] + bytes([rng.choice(list(b'0123456789 x"{}\n\r\x0c'))]) + data[i + 1:])
    elif step == "blank":
        p.write_bytes(data + rng.choice([b"\n", b"  \n", b"\r\n"]))
    elif step == "header":
        cut = data.find(b"\n")
        p.write_bytes(rng.choice(BAD_HEADERS) + (data[cut:] if cut >= 0 else b"\n"))
    return step


@pytest.mark.parametrize("seed", range(6))
def test_incremental_loads_equal_cold_loads_over_random_changes(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    p = tmp_path / "r.jsonl"
    records_save(random_records(rng, 3), str(p))
    steps = set()
    for _ in range(120):
        steps.add(change_file(rng, p))
        before = dict(tune._records_cache)
        warm = load_outcome(str(p))
        assert warm == cold_outcome(str(p), monkeypatch)
        if isinstance(warm[0], tuple):  # a load that raises keeps the state it found
            assert tune._records_cache == before
        else:
            done, count, recs = tune._records_cache[str(p)]
            text = p.read_text(encoding="utf-8")
            assert text.startswith(done) and done.rfind("\n") + 1 == len(done)
            assert count == len(done.splitlines()) and list(recs) == warm[0][:len(recs)]
        if rng.random() < 0.1:  # a fresh start now and then, so damage does not stick
            records_save(random_records(rng, 2), str(p))
    assert len(steps) == 7  # every kind of step ran


def test_a_reload_parses_only_the_appended_records(tmp_path, monkeypatch):
    p = str(tmp_path / "r.jsonl")
    rng = np.random.default_rng(0)
    recs, more = random_records(rng, 20), random_records(rng, 3)
    records_save(recs, p)
    calls = []
    real = TuningRecord.from_json.__func__
    monkeypatch.setattr(TuningRecord, "from_json",
                        classmethod(lambda cls, text: calls.append(text) or real(cls, text)))
    assert records_load(p) == recs and len(calls) == 20
    calls.clear()
    assert records_load(p) == recs and calls == []
    records_append(more, p)  # this process's own append teaches the cache its records
    assert records_load(p) == recs + more and calls == []
    with open(p, "a", encoding="utf-8") as f:  # another writer's append is parsed
        f.write("".join(r.to_json() + "\n" for r in more))
    assert records_load(p) == recs + more + more and len(calls) == 3
    records_save(more, p)  # an overwrite fails the prefix check: the whole file again
    calls.clear()
    assert records_load(p) == more and len(calls) == 3


def typed_fields(records) -> list:
    """Each record's fields as (name, type, repr), the config's fields too, so
    that 1 and 1.0, -0.0 and 0.0, and float and np.float64 all differ."""
    return [[(f.name, type(v), repr(v)) for f in dataclasses.fields(r) for v in [getattr(r, f.name)]]
            + [(k, type(v), repr(v)) for k, v in r.config.as_dict().items()] for r in records]


ODD_RECORDS = [
    TuningRecord(WL.key(), ScheduleConfig(), None, None, 0, "emu", 1.5, failed=True, error="rejected"),
    TuningRecord(WL.key(), ScheduleConfig(2, 1, 2), None, None, 2, "emu", 2.0, failed=True,
                 error="timer returned a non-finite cost nan: résumé ✓ 日本"),
    TuningRecord(WL.key(), ScheduleConfig(1, 2), -0.0, -0.0, 1, "émû", 3),
    TuningRecord(WL.key(), ScheduleConfig(4, 1, 1, 1), 7, 0, 3, "emu", 4.25),
    TuningRecord(WL.key(), ScheduleConfig(2, 2), np.float64(0.5), np.float64(0.25), 3, "emu", np.float64(5)),
]


@pytest.mark.parametrize("odd", range(len(ODD_RECORDS) + 1))
def test_a_warm_load_after_an_append_equals_a_cold_load_field_type_included(tmp_path, monkeypatch, odd):
    p = str(tmp_path / "r.jsonl")
    recs = random_records(np.random.default_rng(odd), 3)
    records_save(recs, p)
    records_load(p)
    more = ODD_RECORDS if odd == len(ODD_RECORDS) else [ODD_RECORDS[odd], *recs[:1]]
    records_append(more, p)
    warm = records_load(p)
    cold, _ = cold_outcome(p, monkeypatch)
    assert typed_fields(warm) == typed_fields(cold) and len(cold) == 3 + len(more)


@pytest.mark.parametrize("change", ["edit", "save", "truncate", "same length"])
def test_a_file_changed_between_an_append_and_the_next_load_is_parsed_whole(tmp_path, monkeypatch,
                                                                            change):
    p = tmp_path / "r.jsonl"
    rng = np.random.default_rng(2)
    recs, more = random_records(rng, 5), random_records(rng, 2)
    records_save(recs, str(p))
    records_load(str(p))
    records_append(more, str(p))
    text = p.read_text(encoding="utf-8")
    if change == "edit":
        text = text.replace('"cost_std": 0.0', '"cost_std": 0.5', 1)
    elif change == "save":
        text = "".join([text.splitlines(keepends=True)[0]] + [r.to_json() + "\n" for r in more + recs])
    elif change == "truncate":
        text = text[: text.rfind("\n", 0, len(text) - 1) + 1]
    else:  # the last record's cost changes digits but not length
        i = text.rindex('"cost_mean": 0.') + len('"cost_mean": 0.')
        text = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
    p.write_text(text, encoding="utf-8")
    calls = []
    real = TuningRecord.from_json.__func__
    monkeypatch.setattr(TuningRecord, "from_json",
                        classmethod(lambda cls, line: calls.append(line) or real(cls, line)))
    warm = records_load(str(p))
    assert len(calls) == len(text.splitlines()) - 1  # every record line again
    assert typed_fields(warm) == typed_fields(cold_outcome(str(p), monkeypatch)[0])


def test_a_torn_final_line_warns_on_every_load(tmp_path):
    p = tmp_path / "torn.jsonl"
    rec = make_record(WL.key(), ScheduleConfig(), 1.0)
    records_save([rec], str(p))
    with open(p, "a") as f:
        f.write(rec.to_json()[:25])
    for _ in range(2):
        with pytest.warns(UserWarning, match=":3:.*torn"):
            assert records_load(str(p)) == [rec]
    assert tune._records_cache[str(p)][1] == 2  # the torn line is never kept


def test_a_returned_list_is_the_callers_own(tmp_path):
    p = str(tmp_path / "r.jsonl")
    recs = random_records(np.random.default_rng(1), 4)
    records_save(recs, p)
    first = records_load(p)
    first.clear()
    second = records_load(p)
    assert second == recs
    second.append(recs[0])
    assert records_load(p) == recs


def test_records_state_holds_at_most_32_paths(tmp_path):
    for n in range(33):
        p = str(tmp_path / f"r{n}.jsonl")
        records_save([], p)
        records_load(p)
        assert len(tune._records_cache) == n % 32 + 1


@pytest.mark.parametrize("header", BAD_HEADERS[:3])
def test_records_load_checks_the_features_tag(tmp_path, header):
    p = tmp_path / "h.jsonl"
    p.write_bytes(header + b"\n" + make_record(WL.key(), ScheduleConfig(), 1.0).to_json().encode() + b"\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:1: unsupported schema"):
        records_load(str(p))


# headers equal to the written one in Python but not in JSON type
MISTYPED_HEADERS = [b'{"schema": true, "features": "v1"}', b'{"schema": 1.0, "features": "v1"}',
                    b'{"schema": "1", "features": "v1"}']


@pytest.mark.parametrize("header", MISTYPED_HEADERS, ids=["true", "1.0", "str"])
def test_records_header_values_must_have_the_written_types(tmp_path, header):
    p = tmp_path / "h.jsonl"
    p.write_bytes(header + b"\n" + make_record(WL.key(), ScheduleConfig(), 1.0).to_json().encode() + b"\n")
    before = p.read_bytes()
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:1: unsupported schema"):
        records_load(str(p))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:1: unsupported schema"):
        records_append([make_record(WL.key(), ScheduleConfig(), 2.0)], str(p))
    assert p.read_bytes() == before


@pytest.mark.parametrize("header", BAD_HEADERS)
@pytest.mark.parametrize("tail", [b"", b'{"workload": "tor'], ids=["whole", "torn"])
def test_records_append_refuses_a_header_that_load_rejects(tmp_path, header, tail):
    p = tmp_path / "h.jsonl"
    p.write_bytes(header + b"\n" + tail)
    before = p.read_bytes()
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:1: "):
        records_append([make_record(WL.key(), ScheduleConfig(), 1.0)], str(p))
    assert p.read_bytes() == before
    with pytest.raises(ValueError, match=":1: "):
        records_load(str(p))
