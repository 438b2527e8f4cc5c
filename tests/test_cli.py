"""CLI subcommands: run, stats, tune, tune-graph, bench."""

import json
import math
import os

import numpy as np
import pytest

from edgegraph.cli import main
from edgegraph.tensor import tensor_from_json, tensor_to_json
from edgegraph.tune import records_load

from fixtures import ssd_like_doc, ssd_like_inputs


@pytest.fixture
def fixture_files(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(ssd_like_doc())
    inputs = tmp_path / "inputs.json"
    doc = {name: json.loads(tensor_to_json(t)) for name, t in ssd_like_inputs().items()}
    inputs.write_text(json.dumps(doc))
    return str(graph), str(inputs)


def identity_files(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "nodes": [{"id": "out", "op": "identity", "attrs": {}, "inputs": ["x"]}],
        "inputs": {"x": {"shape": [2, 3], "dtype": "f32"}},
        "outputs": ["out"],
    }))
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


@pytest.mark.parametrize("literal", [{"shape": 2, "dtype": "f32", "data": [1, 2]}, [1, 2]], ids=["shape-int", "list"])
def test_run_rejects_a_malformed_tensor_literal(tmp_path, capsys, literal):
    graph, _ = identity_files(tmp_path)
    inputs = tmp_path / "bad.json"
    inputs.write_text(json.dumps({"x": literal}))
    assert main(["run", graph, str(inputs), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == "edgegraph: error: tensor literal must be an object whose 'shape' is a list of extents\n"
    assert not (tmp_path / "out.json").exists()


def test_run_rejects_an_inputs_file_that_is_not_an_object(tmp_path, capsys):
    graph, _ = identity_files(tmp_path)
    inputs = tmp_path / "list.json"
    inputs.write_text(json.dumps([{"shape": [6], "dtype": "f32", "data": [1, 2, 3, 4, 5, 6]}]))
    assert main(["run", graph, str(inputs), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"edgegraph: error: {inputs}: inputs file must be a JSON object of tensor literals, got list\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("extent", [2.7, True, "6"], ids=["fraction", "bool", "string"])
def test_run_rejects_a_literal_extent_that_is_not_an_integer(tmp_path, capsys, extent):
    graph, _ = identity_files(tmp_path)
    inputs = tmp_path / "bad.json"
    inputs.write_text(json.dumps({"x": {"shape": [extent], "dtype": "f32", "data": [1, 2]}}))
    assert main(["run", graph, str(inputs), "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"edgegraph: error: extent must be an integer, got {extent!r}\n"
    assert not (tmp_path / "out.json").exists()


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


def tune_graph(tmp_path, costs_doc) -> int:
    """``tune-graph`` on the chain a = conv2d(x, w) -> b = relu(a) with the given cost document."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "nodes": [
            {"id": "a", "op": "conv2d", "attrs": {}, "inputs": ["x", "w"]},
            {"id": "b", "op": "relu", "attrs": {}, "inputs": ["a"]},
        ],
        "inputs": {"x": {"shape": [1]}, "w": {"shape": [1]}},
        "outputs": ["b"],
    }))
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
