"""The edgegraph benchmark: one closed-loop client, three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 20 --trace 0

Workloads (one client in one process and thread; a ``Session`` takes
one caller):

- ``detect``: inference of the fixture SSD-like graph, all-GPU and with
  the vision operators on the CPU, on a fresh draw per request;
- ``tune``: ``tune_model`` jobs round-robin over the graph's four conv
  workloads, appending to a records file that grows during the run;
- ``ops``: a seeded mix of argsort, scan, compact, box_nms and
  roi_align calls on the GPU path.

Every run makes requests of all three kinds, because each run reports
every end-to-end metric: a fixed list sized from ``--seconds``, in which
the workload's own kind takes about half of the time and each other kind
about a quarter, in whole rounds, interleaved evenly. The shares size
the run; they do not model traffic. ``perfbench/metrics.json`` names the
workload each metric belongs to. Every output is checked; a failed check
counts the request as failed and the run exits with code 1.

Times are seconds at a fixed reference speed of the host (see
``clock.py``); the wall-time medians are printed beside them in the
notes line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` instead runs
a shorter request list four times: untraced twice, the first time
computing and keeping every reference output, then twice under the
tracer. It prints the per-layer metrics of the first traced pass, the
tracing overhead (wall time of the timed calls, traced over the second
untraced pass), and a per-layer self-time table. The later passes run
only the program's own calls, since the outputs they are checked against
are already kept. Counts that must repeat exactly are compared between
the two traced passes. The trace of the first traced pass is
written as Chrome trace-event JSON to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from clock import Clock

# one BLAS/OpenMP thread, set before numpy loads: the benchmark measures
# one client on one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

KINDS = ("detect", "tune", "ops")  # the workloads, and the request kinds every run makes
# requests per second of --seconds, for the workload's own kind and for each
# other kind. Each other-kind count is about the least at which the kind's
# metrics spread well within their bounds between seeds, since a run's
# median reads only as many moments of the host's speed as it has
# requests; the own kind gets more. On the host the benchmark was sized
# on, ops calls take 50-65% of a run's request time, detect 20-30% and
# tune 15-30% (the notes line prints each kind's seconds). The shares
# size runs; they do not model traffic
RATE = {"detect": (3.2, 2.4), "ops": (13.65, 9.75), "tune": (0.6, 0.4)}
MIN_DETECT = 11  # so that the tail has 10 requests beyond it
TRACE_SHARE = 0.5  # the traced run's list, as a share of the untraced one
SETUP_SAMPLES = 3  # this process plus two fresh ones

# counts that two traced passes over one request list must repeat exactly
EXACT = ("simt.launches", "simt.barriers", "simt.instances", "boxes.iou_calls", "conv.proxy_us")
FIXTURE_LAUNCHES = 17  # all-GPU inference of ssd_like_inputs(0)


def declared(section: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def request_list(workload: str, seconds: float, rounds: dict) -> list:
    """The kinds of a run's requests, in order, sized from ``seconds``.

    Every kind comes in whole rounds (see ``workloads.ROUND``), so every
    run of a workload makes the same requests, drawn from its seed.
    Kinds are interleaved evenly.
    """
    counts = {}
    for kind, (own, other) in RATE.items():
        n = (own if kind == workload else other) * seconds
        least = MIN_DETECT if kind == "detect" else 1
        counts[kind] = rounds[kind] * max(round(n / rounds[kind]), math.ceil(least / rounds[kind]))
    order = sorted(((i + 0.5) / n, k) for k, n in counts.items() for i in range(n))
    return [kind for _, kind in order]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def tail(values) -> tuple:
    """(value, percentile): the highest percentile with 10 samples beyond it."""
    xs = sorted(values)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def ratio(a, b) -> float:
    return a / b if b else 0.0


class Bench:
    """The set-up state: placed graphs, default tuning costs, warm caches."""

    def __init__(self, seed: int, records_path: Path, clock: Clock):
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        import workloads as W

        self.W = W
        self.clock = clock
        self.kinds = {"detect": W.Detect(seed, clock), "ops": W.Ops(seed, clock),
                      "tune": W.Tune(str(records_path), clock)}
        # the warm-up's inputs do not depend on the seed, so neither does set-up's work
        W.Detect(0, clock, "warmup").request(0)
        warm_ops = W.Ops(0, clock, "warmup")
        for op in W.OPS:
            warm_ops.case(W.OPS_ROUND.index(op))[1]()


class Run:
    """The requests of a run or of one pass: tallies and results."""

    def __init__(self, bench: Bench, tracer=None):
        self.bench = bench
        self.tracer = tracer
        self.tally = {k: {"attempted": 0, "succeeded": 0, "failed": 0} for k in KINDS + ("checks",)}
        self.results: dict = {}  # (kind, j) -> result
        self.wall_s = dict.fromkeys(KINDS, 0.0)  # wall seconds of each kind's requests, checks included

    def one(self, kind: str, j: int) -> None:
        tally = self.tally[kind]
        tally["attempted"] += 1
        span = None
        if self.tracer is not None:
            self.tracer.request = f"{kind}-{j}"
            span = self.tracer.open(f"request {kind} {j}", "bench")
        try:
            result = self.bench.kinds[kind].request(j)
        except Exception:
            tally["failed"] += 1
            print(f"{kind} request {j} failed:", file=sys.stderr)
            traceback.print_exc()
            return
        finally:
            if span is not None:
                self.tracer.close(span)
                self.tracer.request = None
        tally["succeeded"] += 1
        self.results[kind, j] = result

    def requests(self, kinds: list) -> None:
        """Make the requests of ``kinds`` in order; the n-th of a kind has index n."""
        next_j = dict.fromkeys(KINDS, 0)
        for kind in kinds:
            t0 = time.perf_counter()
            self.one(kind, next_j[kind])
            self.wall_s[kind] += time.perf_counter() - t0
            next_j[kind] += 1

    def of(self, kind: str) -> list:
        return [r for (k, _), r in self.results.items() if k == kind]

    def verdict(self, what: str, ok: bool) -> None:
        tally = self.tally["checks"]
        tally["attempted"] += 1
        tally["succeeded" if ok else "failed"] += 1
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)

    def tuned_speedup(self):
        """Geometric mean over the conv workloads of default ÷ best proxy cost.

        The best is over the run's jobs, whose tuner seeds are fixed, so
        the value is deterministic; None unless every workload was tuned.
        """
        best: dict = {}
        for r in self.of("tune"):
            best[r["node"]] = max(best.get(r["node"], 0.0), r["speedup"])
        if len(best) < len(self.bench.W.CONV_NODES):
            return None
        return math.exp(sum(math.log(s) for s in best.values()) / len(best))

    def attempted(self) -> int:
        return sum(t["attempted"] for t in self.tally.values())

    def failed(self) -> int:
        return sum(t["failed"] for t in self.tally.values())


def fixture_probe(run: Run):
    """Untimed all-GPU inference of ssd_like_inputs(0) under a tracer.

    Returns the tracer, whose counters give the conv proxy cost the
    executor ran, and checks the launch and barrier counts.
    """
    from fixtures import ssd_like_inputs
    from tracing import Tracer
    from edgegraph import graph as G
    from edgegraph.simt import Session

    W = run.bench.W
    detect = run.bench.kinds["detect"]
    tracer = Tracer(W.NODE_OF_KEY)
    sess = Session()
    tracer.install()
    try:
        out = G.run_graph(detect.gpu, ssd_like_inputs(0), sess)
    finally:
        tracer.uninstall()
    want = G.run_graph(detect.cpu, ssd_like_inputs(0))
    st = sess.stats()
    c = tracer.count
    run.verdict("fixture inference output equals the all-CPU run",
                all(W.same_bits(out[k].data, want[k].data) for k in want))
    run.verdict(f"fixture inference ran {FIXTURE_LAUNCHES} launches (saw {c['simt.launches']:.0f}, "
                f"session {st.launches})",
                c["simt.launches"] == FIXTURE_LAUNCHES == st.launches)
    run.verdict(f"traced barriers {c['simt.barriers']:.0f} equal Session.stats().barriers {st.barriers}",
                c["simt.barriers"] == st.barriers)
    return tracer


def end_to_end(args, bench: Bench, setup_s: float) -> tuple:
    run = Run(bench)
    with bench.clock:
        run.requests(request_list(args.workload, args.seconds, bench.W.ROUND))
    proxy = fixture_probe(run)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values, notes = {}, {}
    detect = run.of("detect")
    for placement in ("gpu", "fallback"):
        xs = [r[placement][0] * 1e3 for r in detect]
        if xs:
            values[f"infer_{placement}_ms.p50"] = statistics.median(xs)
            values[f"infer_{placement}_ms.tail"], pct = tail(xs)
            notes[f"infer_{placement}_ms"] = {
                "requests": len(xs), "tail_percentile": round(pct, 1),
                "wall_p50": statistics.median(r[placement][1] * 1e3 for r in detect)}
    by_op: dict = {}
    for op, seconds, wall in run.of("ops"):
        by_op.setdefault(op, []).append((seconds * 1e3, wall * 1e3))
    for op, xs in by_op.items():
        values[f"{op}_ms.p50"] = statistics.median(x for x, _ in xs)
        notes[f"{op}_ms"] = {"requests": len(xs), "wall_p50": statistics.median(w for _, w in xs)}
    jobs = run.of("tune")
    if jobs:
        configs = sum(r["configs"] for r in jobs)
        values["tune_configs_per_s"] = configs / sum(r["seconds"] for r in jobs)
        notes["tune"] = {"jobs": len(jobs), "wall_configs_per_s": configs / sum(r["wall"] for r in jobs)}
    speedup = run.tuned_speedup()
    if speedup is not None:
        values["tuned_speedup"] = speedup
    values["conv_proxy_us"] = proxy.count["conv.proxy_us"]
    values["peak_rss_mb"] = rss_mb
    values["setup_s"] = setup_s
    notes["request_wall_s"] = {k: round(v, 2) for k, v in run.wall_s.items()}
    return run, values, notes


def one_pass(bench: Bench, seed: int, kinds: list, tracer=None) -> tuple:
    """(Run, wall seconds of its timed calls) of one pass over ``kinds``.

    The requests use the set-up's request objects, which keep their
    reference outputs. A traced pass also places the fixture graph anew,
    so that placement shows in the trace.
    """
    run = Run(bench, tracer)
    wall0 = bench.clock.wall_s
    if tracer is not None:
        tracer.install()
    try:
        if tracer is not None:
            bench.W.Detect(seed, bench.clock)
        run.requests(kinds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return run, bench.clock.wall_s - wall0


def traced(args, bench: Bench) -> tuple:
    from tracing import Tracer

    kinds = request_list(args.workload, args.seconds * TRACE_SHARE, bench.W.ROUND)
    tr_a, tr_b = Tracer(bench.W.NODE_OF_KEY), Tracer(bench.W.NODE_OF_KEY)
    # the first pass computes the reference outputs that the later ones reuse;
    # the second is the untraced replay the tracing overhead is measured against
    passes = [one_pass(bench, args.seed, kinds, tr) for tr in (None, None, tr_a, tr_b)]
    _, (_, wall0), (run_a, wall_a), (run_b, _) = passes
    total = Run(bench)
    for run, _ in passes:
        for kind, tally in run.tally.items():
            for key, n in tally.items():
                total.tally[kind][key] += n
    for key in EXACT:
        total.verdict(f"{key} repeats exactly between traced passes "
                      f"({tr_a.count[key]!r} vs {tr_b.count[key]!r})",
                      tr_a.count[key] == tr_b.count[key])
    speedups = run_a.tuned_speedup(), run_b.tuned_speedup()
    total.verdict(f"tuned_speedup repeats exactly between traced passes {speedups}",
                  speedups[0] is not None and speedups[0] == speedups[1])
    fixture_probe(total)
    return total, layer_metrics(tr_a, run_a, wall_a / wall0), tr_a, kinds


def layer_metrics(tr, run: Run, overhead: float) -> dict:
    """Per-layer metrics of one traced pass; counts and times are per request."""
    n = sum(run.tally[k]["attempted"] for k in KINDS)
    c, d, own = tr.count, tr.durations_ms(), tr.self_ms()

    def per(x):
        return x / n

    m = {
        "simt.launches": per(c["simt.launches"]),
        "simt.instances": per(c["simt.instances"]),
        "simt.barriers": per(c["simt.barriers"]),
        "simt.launch_ms": per(d["launch"]),
        "simt.us_per_instance": ratio(d["launch"] * 1e3, c["simt.instances"]),
        "simt.divergence_events": per(c["simt.divergence_events"]),
        "simt.load_imbalance_max": c["simt.load_imbalance_max"],
        "simt.allocs": per(c["simt.allocs"]),
        "simt.bytes_moved": per(c["simt.bytes_moved"]),
        "graph.run_ms": per(d["graph.run"]),
        "graph.self_ms": per(own["graph"]),
        "graph.place_ms": ratio(d["graph.place"], c["graph.placements"]),
        "graph.copy_nodes": per(c["graph.copy_nodes"]),
        "conv.scheduled_ms": per(d["conv.scheduled"]),
        "conv.reference_ms": per(d["conv.reference"]),
        "conv.macs": per(c["conv.macs"]),
        "conv.macs_per_s": ratio(c["conv.macs"], d["conv.scheduled"] / 1e3),
        "boxes.nms_ms": per(d["boxes.nms"]),
        "boxes.nms_seq_ms": per(d["boxes.nms_seq"]),
        "boxes.multibox_ms": per(d["boxes.multibox"]),
        "boxes.multibox_seq_ms": per(d["boxes.multibox_seq"]),
        "boxes.candidates": per(c["boxes.candidates"]),
        "boxes.kept_ratio": ratio(c["boxes.kept"], c["boxes.candidates"]),
        "boxes.iou_calls": per(c["boxes.iou_calls"]),
        "sort.argsort_ms": per(d["sort.argsort"]),
        "sort.elements": per(c["sort.elements"]),
        "sort.merge_launches": per(c["sort.merge_launches"]),
        "scan.scan_ms": per(d["scan.scan"]),
        "scan.compact_ms": per(d["scan.compact"]),
        "scan.elements_per_s": ratio(c["scan.elements"], d["scan.scan"] / 1e3),
        "roi.roi_align_ms": per(d["roi.roi_align"]),
        "roi.samples_per_s": ratio(c["roi.samples"], d["roi.roi_align"] / 1e3),
        "tensor.convert_ms": per(d["tensor.from_array"] + d["tensor.to_array"]),
        "tune.measure_ms": per(d["tune.measure"]),
        "tune.verify_ms": per(d["tune.verify"]),
        "tune.timing_ms": per(d["tune.timing"]),
        "tune.model_ms": per(d["tune.model"]),
        "tune.records_append_ms": per(d["tune.records_append"]),
        "tune.records_load_ms": per(d["tune.records_load"]),
        "tune.records_bytes": ratio(c["tune.records_bytes"], c["tune.loads"]),
        "tune.ref_per_measure": ratio(c["tune.ref_calls"], c["tune.measures"]),
        "trace_overhead_ratio": overhead,
    }
    for node in run.bench.W.CONV_NODES:
        m[f"conv.proxy_us.{node}"] = ratio(c[f"conv.proxy_us.{node}"], c[f"conv.runs.{node}"])
    return m


def self_time_table(tr, requests: int) -> list:
    own = tr.self_ms()
    total = sum(own.values()) or 1.0
    lines = [f"{'layer':<14}{'self ms/request':>16}{'share':>8}"]
    for layer, ms in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<14}{ms / requests:>16.3f}{100 * ms / total:>7.1f}%")
    return lines


def setup_elsewhere(args) -> float:
    """Set-up seconds of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=KINDS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "edgegraph").is_dir() or not (ROOT / "tests" / "fixtures.py").is_file():
        print(f"error: {ROOT} holds no edgegraph source (src/edgegraph, tests/fixtures.py)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    records = OUT / f"records-{args.workload}-{args.seed}-{os.getpid()}.jsonl"
    try:
        # imports, graph load and placement, inputs and one warm-up of each kind
        clock = Clock()
        with clock:
            bench, setup_s, setup_wall = clock.timed(Bench, args.seed, records, clock)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        info = stamp(args)
        if args.trace:
            run, metrics, tr, kinds = traced(args, bench)
            units = declared("per_layer")
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tr.write_chrome(str(path), info)
            print(f"trace: {path.relative_to(ROOT)} ({len(tr.spans)} spans, {len(kinds)} requests)")
            print("\n".join(self_time_table(tr, len(kinds))))
            notes = {"requests": {k: kinds.count(k) for k in KINDS}}
        else:
            setups = [setup_s] + [setup_elsewhere(args) for _ in range(SETUP_SAMPLES - 1)]
            run, metrics, notes = end_to_end(args, bench, statistics.median(setups))
            notes["setup_s"] = {"samples": setups, "wall_in_process": setup_wall}
            units = declared("end_to_end")
    finally:
        records.unlink(missing_ok=True)

    for name in sorted(set(units) - set(metrics)):
        run.verdict(f"metric {name} was measured", False)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:<28}{metrics[name]:>16.6g} {unit}")
    print(json.dumps({"stamp": info, "requests": run.tally, "notes": notes}))
    failed = run.failed()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted(),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
