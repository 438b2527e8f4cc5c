"""CLI subcommands: run, stats, tune, tune-graph, bench."""

import argparse
import contextlib
import copy
import inspect
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgegraph import cli
from edgegraph.cli import main
from edgegraph.tensor import tensor_from_json, tensor_to_json
from edgegraph.tune import measure, records_load, tune_model

from fixtures import ssd_like_doc, ssd_like_inputs


@pytest.fixture
def fixture_files(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(ssd_like_doc())
    inputs = tmp_path / "inputs.json"
    doc = {name: json.loads(tensor_to_json(t)) for name, t in ssd_like_inputs().items()}
    inputs.write_text(json.dumps(doc))
    return str(graph), str(inputs)


IDENTITY = {
    "nodes": [{"id": "out", "op": "identity", "attrs": {}, "inputs": ["x"]}],
    "inputs": {"x": {"shape": [2, 3], "dtype": "f32"}},
    "outputs": ["out"],
}


def identity_files(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(IDENTITY))
    inputs = tmp_path / "i.json"
    rec = {"shape": [2, 3], "dtype": "f32", "layout": "NCHW", "data": [1, 2, 3, 4, 5, 6]}
    inputs.write_text(json.dumps({"x": rec}))
    return str(graph), str(inputs)


def test_run_identity_graph_output_equals_input(tmp_path, capsys):
    graph, inputs = identity_files(tmp_path)
    out = tmp_path / "out.json"
    assert main(["run", graph, inputs, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    t = tensor_from_json(doc["out"])
    assert t.data.tolist() == [1, 2, 3, 4, 5, 6]


def test_run_rejects_a_packed_tensor_literal(tmp_path, capsys):
    rec = {"shape": [1, 4, 1, 1], "dtype": "f32", "layout": "NCHWc4", "data": [1, 2, 3, 4]}
    with pytest.raises(ValueError, match="'NCHWc4'"):
        tensor_from_json(rec)
    graph, _ = identity_files(tmp_path)
    inputs = tmp_path / "packed.json"
    inputs.write_text(json.dumps({"x": rec}))
    assert main(["run", graph, str(inputs), "--out", str(tmp_path / "out.json")]) == 1
    assert "'NCHWc4'" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


I32_RANGE = "an integer from -2147483648 to 2147483647"


@pytest.mark.parametrize("literal, message", [
    ({"shape": 2, "dtype": "f32", "data": [1, 2]}, "x['shape'] must be a list, got 2"),
    ([1, 2], "x must be an object, got [1, 2]"),
    ({"shape": [2], "dtype": "f32", "data": None}, "x['data'] must be a list, got None"),
    ({"shape": [2], "dtype": "f32"}, "x['data'] must be a list, got None"),
    ({"shape": [1], "dtype": "i32", "data": [2**40]}, f"x['data'][0] must be {I32_RANGE}, got {2**40}"),
    ({"shape": [2], "dtype": "i32", "data": [1, 1.5]}, f"x['data'][1] must be {I32_RANGE}, got 1.5"),
    ({"shape": [2], "dtype": "bool", "data": [2, 0.5]}, "x['data'][0] must be a bool, got 2"),
    ({"shape": [1], "dtype": "f32", "data": ["1.5"]}, "x['data'][0] must be a number, got '1.5'"),
    ({"shape": [1], "dtype": "f32", "data": {"a": 1}}, "x['data'] must be a list, got {'a': 1}"),
    ({"shape": [1], "dtype": "i32", "data": [10**30]}, f"x['data'][0] must be {I32_RANGE}, got {10**30}"),
    ({"shape": [1], "dtype": "f32", "data": [10**400]}, f"x['data'][0] must be a number, got {10**400}"),
    ({"shape": [2], "dtype": "f32", "data": [1e300, -1e300]}, "x['data'][0] must be within the f32 range, got 1e+300"),
    ({"shape": [1], "dtype": "f32", "data": [[1.5]]}, "x['data'][0] must be a number, got [1.5]"),
    ({"shape": [1], "dtype": ["f32"], "data": [1]}, "x['dtype'] must be one of f32, i32, bool, got ['f32']"),
    ({"shape": [1], "dtype": "f64", "data": [1]}, "x['dtype'] must be one of f32, i32, bool, got 'f64'"),
    (("", [1, 2]), "[''] must be an object, got [1, 2]"),
], ids=["shape-int", "list", "f32-null", "no-data", "i32-past-2**31", "i32-fraction", "bool-numbers", "f32-string",
        "data-object", "i32-past-2**64", "f32-past-float-range", "f32-past-f32-range", "f32-nested", "dtype-list",
        "dtype-unknown", "empty-name"])
def test_run_rejects_a_malformed_tensor_literal(tmp_path, capsys, literal, message):
    graph, _ = identity_files(tmp_path)
    inputs = tmp_path / "bad.json"
    # a (name, literal) pair is an inputs file of that one name; any other literal is input x's
    inputs.write_text(json.dumps(dict([literal]) if isinstance(literal, tuple) else {"x": literal}))
    assert main(["run", graph, str(inputs), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"edgegraph: error: {inputs}: inputs file: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_run_rejects_an_inputs_file_that_is_not_an_object(tmp_path, capsys):
    graph, _ = identity_files(tmp_path)
    inputs = tmp_path / "list.json"
    inputs.write_text(json.dumps([{"shape": [6], "dtype": "f32", "data": [1, 2, 3, 4, 5, 6]}]))
    assert main(["run", graph, str(inputs), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"edgegraph: error: {inputs}: inputs file must be a JSON object, got list\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("extent", [2.7, True, "6"], ids=["fraction", "bool", "string"])
def test_run_rejects_a_literal_extent_that_is_not_an_integer(tmp_path, capsys, extent):
    graph, _ = identity_files(tmp_path)
    inputs = tmp_path / "bad.json"
    inputs.write_text(json.dumps({"x": {"shape": [extent], "dtype": "f32", "data": [1, 2]}}))
    assert main(["run", graph, str(inputs), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    want = f"x['shape'][0] must be an integer from 1 to 2147483647, got {extent!r}"
    assert err == f"edgegraph: error: {inputs}: inputs file: {want}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("dtype, data", [
    ("f32", [math.nan, math.inf, -math.inf, -0.0, 1.5, 7, 2**70]),
    ("i32", [-2**31, 2**31 - 1, 0, 5, -5, 1, 2]),
    ("bool", [True, False, False, True, True, False, True]),
])
def test_run_passes_literal_data_at_the_edges_of_its_dtype_through(tmp_path, capsys, dtype, data):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": [{"id": "out", "op": "identity", "inputs": ["x"]}],
                                 "inputs": {"x": {"shape": [7], "dtype": dtype}}, "outputs": ["out"]}))
    inputs = tmp_path / "i.json"
    inputs.write_text(json.dumps({"x": {"shape": [7], "dtype": dtype, "data": data}}))
    out = tmp_path / "out.json"
    assert main(["run", str(graph), str(inputs), "--out", str(out)]) == 0
    got = tensor_from_json(json.loads(out.read_text())["out"])
    want = np.array(data, dtype={"f32": np.float32, "i32": np.int32, "bool": bool}[dtype])
    assert got.dtype == dtype and np.array_equal(got.data, want, equal_nan=dtype == "f32")


def test_run_reports_devices_and_copy_count(fixture_files, tmp_path, capsys):
    graph, inputs = fixture_files
    out = tmp_path / "out.json"
    code = main(["run", graph, inputs, "--fallback", "box_nms", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "copy_nodes\t2" in captured.out
    assert "nms\tbox_nms\tCPU" in captured.out
    assert "mbx\tmultibox_detection\tGPU" in captured.out
    assert "wall_time_ms" in captured.err  # timing is a diagnostic, not data


def test_run_gpu_ops_flag_controls_placement(fixture_files, tmp_path, capsys):
    graph, inputs = fixture_files
    out = tmp_path / "out.json"
    code = main(["run", graph, inputs, "--gpu-ops", "conv2d,relu", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "p1\tpool\tCPU" in captured.out
    assert "c1\tconv2d\tGPU" in captured.out


@pytest.mark.parametrize("command", ["run", "stats"])
@pytest.mark.parametrize("flag", ["--gpu-ops", "--fallback"])
def test_placement_flags_reject_unknown_op_kinds(fixture_files, tmp_path, capsys, command, flag):
    # a typo would otherwise leave the op on its default device without a word
    graph, inputs = fixture_files
    out = tmp_path / "out.json"
    argv = [command, graph, inputs, flag, "conv2d, box_nm,relu,multibox"]
    code = main(argv + (["--out", str(out)] if command == "run" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert f"argument {flag}: unknown op kind(s) box_nm, multibox; known: " in captured.err
    assert "box_nms" in captured.err and captured.out == "" and not out.exists()


def test_run_outputs_identical_across_placements(fixture_files, tmp_path):
    graph, inputs = fixture_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", graph, inputs, "--out", str(a)]) == 0
    assert main(["run", graph, inputs, "--fallback", "box_nms,multibox_detection", "--out", str(b)]) == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())


def test_run_missing_file_errors(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json"), str(tmp_path / "also_nope.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_stats_dumps_launch_counters(fixture_files, capsys):
    graph, inputs = fixture_files
    assert main(["stats", graph, inputs]) == 0
    stats = json.loads(capsys.readouterr().out)
    # all-GPU fixture: every launch, argsort's included, is barrier-free
    assert stats["launches"] == 17
    assert stats["barriers"] == 0
    assert "per_thread_items" in stats


def test_tune_appends_records_and_prints_best(tmp_path, capsys):
    records = tmp_path / "recs.jsonl"
    key = "conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1"
    code = main(["tune", key, "--budget", "9", "--seed", "3", "--records", str(records)])
    captured = capsys.readouterr()
    assert code == 0
    assert "best_config" in captured.out
    assert "best_cost" in captured.out
    recs = records_load(str(records))
    assert len(recs) == 9
    assert all(r.workload_key == key for r in recs)


def test_tune_budget_covering_space_finds_exhaustive_optimum(tmp_path, capsys):
    from edgegraph.conv import ConvWorkload, schedule_space
    from edgegraph.tune import measure, proxy_timer

    key = "conv2d/1-4-4-4/4-3-3/1x1/1x1/1x1/1"
    wl = ConvWorkload.from_key(key)
    space = schedule_space(wl)
    best = min(
        (measure(wl, cfg, repeats=3, timer=proxy_timer).cost_mean for cfg in space),
    )
    code = main(["tune", key, "--budget", str(len(space)), "--records", str(tmp_path / "r.jsonl")])
    out = capsys.readouterr().out
    assert code == 0
    printed = float(next(line for line in out.splitlines() if line.startswith("best_cost")).split("\t")[1])
    assert printed == pytest.approx(best)


def test_tune_rerun_same_seed_identical_trials(tmp_path, capsys):
    key = "conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1"
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["tune", key, "--budget", "7", "--seed", "11", "--records", str(a)])
    out1 = capsys.readouterr().out
    main(["tune", key, "--budget", "7", "--seed", "11", "--records", str(b)])
    out2 = capsys.readouterr().out
    assert out1 == out2  # byte-deterministic report
    assert [r.config for r in records_load(str(a))] == [r.config for r in records_load(str(b))]


def test_tune_model_method(tmp_path, capsys):
    records = tmp_path / "recs.jsonl"
    key = "conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1"
    code = main(["tune", key, "--budget", "12", "--method", "model", "--batch", "4",
                 "--records", str(records)])
    assert code == 0
    assert len(records_load(str(records))) == 12


@pytest.mark.parametrize("method", [[], ["--method", "random"]], ids=["default", "random"])
def test_tune_batch_with_random_search_is_a_usage_error(tmp_path, capsys, method):
    records = tmp_path / "r.jsonl"
    code = main(["tune", "conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1", "--budget", "16", *method, "--batch", "4",
                 "--records", str(records)])
    assert code == 1
    assert capsys.readouterr().err == "edgegraph: error: --batch applies only to --method model\n"
    assert not records.exists()


def test_tune_model_method_batch_defaults_to_8(tmp_path, capsys, monkeypatch):
    # the CLI passes --batch only when given, so the default is tune_model's own
    batches = []

    def spy(*args, **kwargs):
        batches.append(kwargs.get("batch"))
        return tune_model(*args, **kwargs)

    monkeypatch.setattr(cli, "tune_model", spy)
    for batch in ([], ["--batch", "4"]):
        argv = ["tune", "conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1", "--budget", "12", "--method", "model", *batch]
        assert main([*argv, "--records", str(tmp_path / "r.jsonl")]) == 0
    assert batches == [None, 4]
    assert inspect.signature(tune_model).parameters["batch"].default == 8


def test_tune_repeats_default_is_measures():
    defaults = {f.__name__: inspect.signature(f).parameters["repeats"].default for f in (measure, tune_model)}
    assert defaults == {"measure": 3, "tune_model": 3}


@pytest.mark.parametrize("option", [["--timer", "wall"], ["--repeats", "3"]], ids=["timer", "repeats"])
def test_tune_has_one_clock_and_no_timer_or_repeats_option(tmp_path, capsys, option):
    records = tmp_path / "r.jsonl"
    argv = ["tune", "conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1", "--budget", "2", "--records", str(records)]
    assert main([*argv, *option]) == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not records.exists()


# two values of each tune argument; every one must change what tune prints or the records it writes
TUNE_VALUES = {
    "workload_key": ("conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1", "conv2d/1-4-4-4/4-3-3/1x1/1x1/1x1/1"),
    "--budget": ("9", "10"), "--method": ("model", "random"), "--batch": ("4", "5"), "--seed": ("0", "1"),
}


def test_every_tune_argument_changes_its_output_or_records(tmp_path, capsys):
    tune = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["tune"]
    names = {a.option_strings[0] if a.option_strings else a.dest for a in tune._actions} - {"-h", "--records"}
    assert names == set(TUNE_VALUES), f"no two values for {sorted(names - set(TUNE_VALUES))}"
    base = {"workload_key": TUNE_VALUES["workload_key"][0], "--budget": "9", "--method": "model"}
    for name, values in TUNE_VALUES.items():
        seen = []
        for value in values:
            args = {**base, name: value}
            records = tmp_path / f"{name.strip('-')}-{value.replace('/', '_')}.jsonl"
            argv = [args.pop("workload_key"), *(x for kv in args.items() for x in kv)]
            assert main(["tune", *argv, "--records", str(records)]) == 0
            lines = [json.loads(line) for line in records.read_text().splitlines()[1:]]
            seen.append((capsys.readouterr().out, [{k: v for k, v in r.items() if k != "created_at"} for r in lines]))
        assert seen[0][0] != seen[1][0] or seen[0][1] != seen[1][1], f"tune {name} {values}: same output and records"


def test_run_and_stats_take_one_declaration_of_the_graph_and_placement(capsys):
    helps = []
    for command in ("run", "stats"):
        assert main([command, "--help"]) == 0
        helps.append(capsys.readouterr().out)
    for text in ("graph", "inputs", "comma-separated op kinds to keep on the GPU",
                 "comma-separated op kinds to force onto the CPU"):
        assert text in helps[0] and text in helps[1]
    assert "--out" in helps[0] and "--out" not in helps[1]


def test_tune_zero_budget_usage_error(tmp_path, capsys):
    code = main(["tune", "conv2d/1-4-6-6/4-3-3/1x1/1x1/1x1/1", "--budget", "0",
                 "--records", str(tmp_path / "r.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "budget" in captured.err


def test_tune_malformed_key_usage_error(tmp_path, capsys):
    code = main(["tune", "not-a-key", "--budget", "4", "--records", str(tmp_path / "r.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "malformed" in captured.err


def test_records_env_var_default(tmp_path, capsys, monkeypatch):
    records = tmp_path / "from_env.jsonl"
    monkeypatch.setenv("EDGEGRAPH_RECORDS", str(records))
    code = main(["tune", "conv2d/1-4-4-4/4-3-3/1x1/1x1/1x1/1", "--budget", "3"])
    assert code == 0
    assert records.exists()
    assert len(records_load(str(records))) == 3


CHAIN = {
    "nodes": [
        {"id": "a", "op": "conv2d", "attrs": {}, "inputs": ["x", "w"]},
        {"id": "b", "op": "relu", "attrs": {}, "inputs": ["a"]},
    ],
    "inputs": {"x": {"shape": [1]}, "w": {"shape": [1]}},
    "outputs": ["b"],
}


def tune_graph(tmp_path, costs_doc) -> int:
    """``tune-graph`` on the chain a = conv2d(x, w) -> b = relu(a) with the given cost document."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(CHAIN))
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps(costs_doc))
    return main(["tune-graph", str(graph), str(costs)])


def test_tune_graph_dp_assignment(tmp_path, capsys):
    assert tune_graph(tmp_path, {
        "node_costs": {"a": {"NCHW": 5.0, "NCHWc4": 2.0}, "b": {"NCHW": 1.0, "NCHWc4": 3.0}},
        "transform_costs": {"NCHWc4->NCHW": 0.5, "NCHW->NCHWc4": 0.5},
    }) == 0
    # a: NCHWc4 (2.0) -> transform 0.5 -> b: NCHW (1.0) = 3.5
    assert capsys.readouterr().out == "a\tNCHWc4\nb\tNCHW\ntotal_cost\t3.5\n"


@pytest.mark.parametrize("first, second", [("GPU", "CPU"), (" NCHW", "NCHWc04")])
def test_tune_graph_labels_are_opaque_and_printed_as_written(tmp_path, capsys, first, second):
    assert tune_graph(tmp_path, {
        "node_costs": {"a": {first: 2.0, second: 4.0}, "b": {first: 6.0, second: 1.0}},
        "transform_costs": {f"{first}->{second}": 0.75},
        "default_transform_cost": 10,
    }) == 0
    # a on first (2.0) -> change 0.75 -> b on second (1.0) = 3.75; the other paths cost 5, 8 and 20
    assert capsys.readouterr().out == f"a\t{first}\nb\t{second}\ntotal_cost\t3.75\n"


@pytest.mark.parametrize("costs_doc, message", [
    ({"node_costs": {"a": {"NCHW": None}, "b": {"NCHW": 1}}},
     "cost file: node_costs['a']['NCHW'] must be a number, got None"),
    ({"node_costs": {"a": [1, 2], "b": {"NCHW": 1}}}, "cost file: node_costs['a'] must be an object, got [1, 2]"),
    ([{"node_costs": {}}], "cost file must be a JSON object, got list"),
    ({"node_costs": {"a": {"NCHW": 1}, "b": {"NCHW": 1}}, "transform_costs": {"x->y": None}},
     "cost file: transform_costs['x->y'] must be a number, got None"),
    ({"node_costs": {"a": {"NCHW": True}, "b": {"NCHW": 1}}},
     "cost file: node_costs['a']['NCHW'] must be a number, got True"),
    ({"node_costs": {"a": {"NCHW": 1}, "b": {"NCHW": 1}}, "default_transform_cost": "1"},
     "cost file: default_transform_cost must be a number, got '1'"),
    ({"node_costs": {"a": {"NCHW": 1}, "b": {"NCHW": 1}}, "transform_costs": [0.5]},
     "cost file: transform_costs must be an object, got [0.5]"),
    ({"transform_costs": {}}, "cost file: node_costs must be an object, got None"),
], ids=["null-cost", "costs-list", "document-list", "null-transform", "bool-cost", "string-default",
        "transforms-list", "no-node-costs"])
def test_tune_graph_rejects_a_malformed_cost_file_by_name(tmp_path, capsys, costs_doc, message):
    assert tune_graph(tmp_path, costs_doc) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"edgegraph: error: {message}\n"


@pytest.mark.parametrize("cost, shown", [(math.nan, "nan"), (-math.inf, "-inf"), (10**399, "1" + "0" * 399)],
                         ids=["nan", "infinity", "400-digits"])
def test_tune_graph_rejects_a_cost_that_is_not_a_finite_float(tmp_path, capsys, cost, shown):
    # json.dumps writes NaN, -Infinity and all 400 digits, which json.load reads back
    assert tune_graph(tmp_path, {"node_costs": {"a": {"NCHW": 1}, "b": {"NCHW": cost}}}) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"edgegraph: error: cost file: node_costs['b']['NCHW'] must be a number, got {shown}\n"


def test_tune_graph_rejects_the_ssd_fixture_by_its_cycle_closing_edge(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(ssd_like_doc())
    costs = tmp_path / "costs.json"
    ids = [n["id"] for n in json.loads(ssd_like_doc())["nodes"]]
    costs.write_text(json.dumps({"node_costs": {nid: {"NCHW": 1.0} for nid in ids}}))
    assert main(["tune-graph", str(graph), str(costs)]) == 1
    assert "'rs_loc'->'mbx'" in capsys.readouterr().err


def test_bench_table4_yolo_speedup(capsys):
    assert main(["bench", "6429.69", "1097.47"]) == 0
    out = capsys.readouterr().out
    assert "5.86" in out


def test_bench_table5_squeezenet_paper_rounding(capsys):
    assert main(["bench", "1045", "26.58"]) == 0
    out = capsys.readouterr().out
    speedup = float(out.splitlines()[-1].split()[-1])
    assert round(speedup, 1) == 39.3  # the paper's one-decimal rounding


def test_bench_equal_latencies_give_one(capsys):
    assert main(["bench", "123.4", "123.4"]) == 0
    assert "1.00" in capsys.readouterr().out


def test_bench_file_with_missing_baseline(tmp_path, capsys):
    f = tmp_path / "lat.csv"
    f.write_text("ResNet50_v1,203.60,186.15\nSSD_MobileNet1.0,---,398.48\n")
    assert main(["bench", "--file", str(f)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "1.09" in lines[1]
    assert "---" in lines[2]


@pytest.mark.parametrize("argv, message", [
    (["bench", "1", "0"], "bench: workload: each latency must be finite and > 0, got 1.0, 0.0"),
    (["bench", "nan", "1"], "bench: workload: each latency must be finite and > 0, got nan, 1.0"),
    (["bench", "-1", "2"], "bench: workload: each latency must be finite and > 0, got -1.0, 2.0"),
    (["bench", "1", "inf"], "bench: workload: each latency must be finite and > 0, got 1.0, inf"),
], ids=["zero", "nan", "negative", "infinite"])
def test_bench_rejects_a_latency_that_is_not_finite_and_positive(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"edgegraph: error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("# model,before,after\nResNet,2.0,1.0\na,1\n", "{f}:3: row must be name,before_ms,after_ms, got ['a', '1']"),
    ("SSD,---,0\n", "bench: SSD: each latency must be finite and > 0, got None, 0.0"),
    ("# model,before,after\na,1,x\n", "{f}:2: after_ms must be a number, got 'x'"),
    ("b, y ,1\n", "{f}:1: before_ms must be a number, got 'y'"),
], ids=["short-row", "zero-after-missing-baseline", "after-not-a-number", "before-not-a-number"])
def test_bench_file_rejects_a_short_row_by_line_and_a_bad_latency(tmp_path, capsys, text, message):
    f = tmp_path / "lat.csv"
    f.write_text(text)
    assert main(["bench", "--file", str(f)]) == 1
    assert capsys.readouterr() == ("", f"edgegraph: error: {message.format(f=f)}\n")


def test_bench_csv_format_deterministic(tmp_path, capsys):
    f = tmp_path / "lat.csv"
    f.write_text("MobileNet1.0,95.00,78.83\n")
    main(["bench", "--file", str(f), "--format", "csv"])
    out1 = capsys.readouterr().out
    main(["bench", "--file", str(f), "--format", "csv"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.splitlines()[0] == "model,baseline_ms,ours_ms,speedup"
    assert out1.splitlines()[1] == "MobileNet1.0,95.00,78.83,1.21"


# The valid files of the tests above: the identity graph and its inputs, which `run` reads, and a cost
# file for the chain of tune_graph, which `tune-graph` reads. f32 data and costs are floats here, so
# that an int part is an extent and a float part a number.
FUZZ_FILES = {
    "graph": IDENTITY,
    "inputs": {"x": {"shape": [2, 3], "dtype": "f32", "layout": "NCHW", "data": [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]}},
    "costs": {"node_costs": {"a": {"NCHW": 5.0, "NCHWc4": 2.0}, "b": {"NCHW": 1.0}},
              "transform_costs": {"NCHWc4->NCHW": 0.5}, "default_transform_cost": 10.0},
}
SWAPS = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just(math.nan), st.floats(),
                  st.integers(2**64, 2**80), st.just(10**400), st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


def json_parts(doc, path=()):
    """The path to every part of a JSON document, the document itself included."""
    yield path
    for key, item in doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ():
        yield from json_parts(item, path + (key,))


def json_kind(value):
    """The JSON type of a value, where an integer past the float range is a kind of its own."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number" if isinstance(value, float) or abs(value) <= sys.float_info.max else "huge integer"
    return type(value).__name__


@settings(max_examples=200, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(FUZZ_FILES)), data=st.data())
def test_main_rejects_a_file_with_one_part_swapped_by_one_error_line(name, data):
    doc = copy.deepcopy(FUZZ_FILES[name])
    path = data.draw(st.sampled_from(list(json_parts(doc))), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else doc
    new = data.draw(SWAPS, label="new")
    assume(json_kind(new) != json_kind(old) or type(old) is int)  # an int part is an extent: no swap keeps it valid
    if path:
        parent[path[-1]] = new
    else:
        doc = new
    with tempfile.TemporaryDirectory() as tmp:
        files = {key: os.path.join(tmp, f"{key}.json") for key in (*FUZZ_FILES, "chain")}
        for key, value in {**FUZZ_FILES, name: doc, "chain": CHAIN}.items():
            with open(files[key], "w", encoding="utf-8") as f:
                json.dump(value, f)
        out = os.path.join(tmp, "out.json")
        argv = (["tune-graph", files["chain"], files["costs"]] if name == "costs" else
                ["run", files["graph"], files["inputs"], "--out", out])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert (code, stdout.getvalue(), os.path.exists(out)) == (1, "", False)
        err = stderr.getvalue()
        assert err.startswith("edgegraph: error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [[], ["5.0"]], ids=["no-latency", "one-latency"])
def test_bench_with_neither_both_latencies_nor_a_file_exits_with_its_usage(argv):
    with pytest.raises(SystemExit) as e:
        main(["bench", *argv])
    assert str(e.value) == "bench needs BEFORE and AFTER latencies or --file"
