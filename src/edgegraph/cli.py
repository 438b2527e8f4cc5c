"""Command-line front end.

Subcommands: run (place + execute a graph document), tune (schedule
search with the records database), tune-graph (DP pick of one cost-file
label per node), bench (latency/speedup tables), stats (launch counters).
Diagnostics go to stderr and data to stdout or files; given identical
inputs and seed the stdout report is byte-identical, which is why tune
prices every config by the deterministic proxy timer alone and the
wall-clock time of a run is a stderr diagnostic.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
import time

import numpy as np

from .conv import ConvWorkload
from .graph import (DEFAULT_GPU_OPS, OPS, assign_devices, count_copies, insert_copies, load_graph, run_graph,
                    topo_order)
from .simt import Session
from .tensor import FINITE, check_json, json_path, tensor_from_json, tensor_to_json
from .tune import graph_tune_dp, tune_model

DEFAULT_RECORDS = "records.jsonl"
RECORDS_ENV = "EDGEGRAPH_RECORDS"
_TUNE = inspect.signature(tune_model).parameters  # the defaults tune's help names
_COSTS = {"node_costs": {str: {str: FINITE}}, "transform_costs?": {str: FINITE}, "default_transform_cost?": FINITE}


def _load_inputs(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        doc = check_json(json.load(f), {}, f"{path}: inputs file")
    return {name: tensor_from_json(rec, f"{path}: inputs file", json_path("", name)) for name, rec in doc.items()}


def _dump_outputs(outputs: dict, path) -> None:
    doc = {name: json.loads(tensor_to_json(t)) for name, t in outputs.items()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _op_kinds(text: str) -> set:
    """The op kinds a comma-separated ``--gpu-ops`` or ``--fallback`` value names;
    a kind the executor does not have is a usage error."""
    kinds = {s.strip() for s in text.split(",") if s.strip()}
    unknown = sorted(kinds - set(OPS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown op kind(s) {', '.join(unknown)}; "
                                         f"known: {', '.join(sorted(OPS))}")
    return kinds


def _gpu_ops(args) -> set:
    ops = set(DEFAULT_GPU_OPS) if args.gpu_ops is None else args.gpu_ops
    return ops - (args.fallback or set())


def _place_and_run(args):
    with open(args.graph, "r", encoding="utf-8") as f:
        g = load_graph(f.read())
    inputs = _load_inputs(args.inputs)
    g = insert_copies(assign_devices(g, _gpu_ops(args)))
    session = Session()
    t0 = time.perf_counter()
    outputs = run_graph(g, inputs, session=session)
    elapsed = time.perf_counter() - t0
    return g, outputs, session, elapsed


def cmd_run(args) -> int:
    g, outputs, session, elapsed = _place_and_run(args)
    for node in topo_order(g):
        print(f"{node.id}\t{node.op}\t{node.device}")
    print(f"copy_nodes\t{count_copies(g)}")
    print(f"outputs\t{args.out}")
    _dump_outputs(outputs, args.out)
    print(f"wall_time_ms\t{elapsed * 1e3:.2f}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    _, _, session, _ = _place_and_run(args)
    s = session.stats()
    print(json.dumps({
        "launches": s.launches,
        "barriers": s.barriers,
        "divergence_events": s.divergence_events,
        "load_imbalance": s.load_imbalance,
        "per_thread_items": s.per_thread_items,
    }))
    return 0


def cmd_tune(args) -> int:
    if args.method == "random" and args.batch is not None:
        raise ValueError("--batch applies only to --method model")
    wl = ConvWorkload.from_key(args.workload_key)
    records = args.records or os.environ.get(RECORDS_ENV, DEFAULT_RECORDS)
    # the options given only, so each default is tune_model's; random search is one batch of the budget
    given = {k: getattr(args, k) for k in ("batch", "seed") if getattr(args, k) is not None}
    if args.method == "random":
        given["batch"] = args.budget
    best = tune_model(wl, args.budget, **given, records_path=records)
    cfg = best.config
    print(f"workload\t{wl.key()}")
    print(
        "best_config\t"
        f"oc_split={cfg.oc_split} h_split={cfg.h_split} w_tile={cfg.w_tile} "
        f"unroll={cfg.unroll} vec={cfg.vec}"
    )
    print(f"best_cost\t{best.cost_mean:.9g}")
    print(f"records\t{records}", file=sys.stderr)
    return 0


def cmd_tune_graph(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as f:
        g = load_graph(f.read())
    with open(args.costs, "r", encoding="utf-8") as f:
        doc = check_json(json.load(f), _COSTS, "cost file")

    def tc(src, dst, shape):
        if src == dst:
            return 0.0
        return doc.get("transform_costs", {}).get(f"{src}->{dst}", doc.get("default_transform_cost", 0.0))

    assignment, total = graph_tune_dp(g, doc["node_costs"], tc)
    for node in topo_order(g):
        print(f"{node.id}\t{assignment[node.id]}")
    print(f"total_cost\t{total:.9g}")
    return 0


def _bench_rows(args) -> list:
    if args.file:
        rows = []
        with open(args.file, "r", encoding="utf-8", newline="") as f:
            for rec in (reader := csv.reader(f)):
                if not rec or rec[0].startswith("#"):
                    continue
                if len(rec) < 3:
                    raise ValueError(f"{args.file}:{reader.line_num}: row must be name,before_ms,after_ms, got {rec!r}")
                ms = []
                for field, text in zip(("before_ms", "after_ms"), (t.strip() for t in rec[1:3])):
                    try:
                        ms.append(None if field == "before_ms" and text in ("", "---") else float(text))
                    except ValueError:
                        raise ValueError(f"{args.file}:{reader.line_num}: {field} must be a number, "
                                         f"got {text!r}") from None
                rows.append((rec[0], *ms))
        return rows
    if args.before is None or args.after is None:
        raise SystemExit("bench needs BEFORE and AFTER latencies or --file")
    return [(args.name, float(args.before), float(args.after))]


def format_bench(rows, fmt: str = "text", metadata=()) -> str:
    """Latency/speedup table; speedup = baseline/ours rounded to 2 decimals."""
    rendered = []
    for name, before, after in rows:
        if not all(0 < x < np.inf for x in ((after,) if before is None else (before, after))):
            raise ValueError(f"bench: {name}: each latency must be finite and > 0, got {before}, {after}")
        if before is None:
            rendered.append((name, "---", f"{after:.2f}", "---"))
        else:
            rendered.append((name, f"{before:.2f}", f"{after:.2f}", f"{round(before / after, 2):.2f}"))
    header = ("model", "baseline_ms", "ours_ms", "speedup")
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for key, value in metadata:
            w.writerow([f"# {key}", value])
        w.writerow(header)
        w.writerows(rendered)
        return buf.getvalue()
    widths = [max(len(header[i]), *(len(r[i]) for r in rendered)) for i in range(4)]
    lines = [f"{key}: {value}" for key, value in metadata]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)))
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    rows = _bench_rows(args)
    metadata = [(k, v) for k, v in (("device", args.device_tag), ("seed", args.seed), ("date", args.date)) if v]
    sys.stdout.write(format_bench(rows, fmt=args.format, metadata=metadata))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="edgegraph", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    placed = argparse.ArgumentParser(add_help=False)  # the placed graph run and stats take
    placed.add_argument("graph")
    placed.add_argument("inputs")
    placed.add_argument("--gpu-ops", type=_op_kinds, help="comma-separated op kinds to keep on the GPU")
    placed.add_argument("--fallback", type=_op_kinds, help="comma-separated op kinds to force onto the CPU")

    run = sub.add_parser("run", parents=[placed], help="place a graph document and execute it")
    run.add_argument("--out", default="outputs.json")
    run.set_defaults(fn=cmd_run)

    stats = sub.add_parser("stats", parents=[placed], help="run a graph and dump the launch counters")
    stats.set_defaults(fn=cmd_stats)

    tune = sub.add_parser("tune", help="search schedule configs for a conv workload key")
    tune.add_argument("workload_key")
    tune.add_argument("--budget", type=int, required=True)
    tune.add_argument("--method", choices=("random", "model"), default="random")
    tune.add_argument("--batch", type=int, help=f"configs per --method model round (default {_TUNE['batch'].default})")
    tune.add_argument("--records", default=None, help=f"records path (default ${RECORDS_ENV} or {DEFAULT_RECORDS})")
    tune.add_argument("--seed", type=int, help=f"search seed (default {_TUNE['seed'].default})")
    tune.set_defaults(fn=cmd_tune)

    tg = sub.add_parser("tune-graph", help="DP pick of one label per node, such as a layout")
    tg.add_argument("graph")
    tg.add_argument("costs", help="JSON: {node_costs, transform_costs, default_transform_cost}")
    tg.set_defaults(fn=cmd_tune_graph)

    bench = sub.add_parser("bench", help="latency table with speedup column")
    bench.add_argument("before", nargs="?", type=float, default=None)
    bench.add_argument("after", nargs="?", type=float, default=None)
    bench.add_argument("--file", default=None, help="CSV rows: name,before_ms,after_ms")
    bench.add_argument("--name", default="workload")
    bench.add_argument("--format", choices=("text", "csv"), default="text")
    bench.add_argument("--device-tag", default=None)
    bench.add_argument("--seed", default=None)
    bench.add_argument("--date", default=None, help="date stamp for the report header")
    bench.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError, KeyError) as e:
        print(f"edgegraph: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
