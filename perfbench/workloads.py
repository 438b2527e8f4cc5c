"""Inputs, requests and output checks of the three benchmark workloads.

Each ops request draws its inputs from the benchmark seed and its own
index (detect draws: see :meth:`Detect.draw`; tune jobs: see
:class:`Tune`). A request calls edgegraph's public
functions, times only the calls a user waits for (with a
:class:`clock.Clock`, so each time comes as seconds at the reference
speed and as wall seconds), and checks every output untimed. The
reference outputs of a request are computed once and kept, so a
replayed request (the traced passes replay the untraced one) runs only
the program's own calls. A failed check raises :class:`CheckFailed`.

- ``Detect``: one request runs the fixture SSD-like graph twice on the
  same fresh draw, all-GPU and with the vision operators on the CPU,
  alternating which placement goes first, then checks both outputs
  against an all-CPU run bitwise.
- ``Tune``: one request is one ``tune_model`` job on one of the graph's
  four conv workloads (round-robin), followed by ``records_load`` and
  ``query_best`` on the run's growing records file.
- ``Ops``: one request is one operator call on the GPU path, run
  ``OPS_REPEATS[op]`` times in a row on the same inputs, in rounds of
  argsort, scan, compact, box_nms and roi_align calls (``OPS_ROUND``);
  every run is checked against its sequential twin and, where one exists
  here, a numpy oracle.

Graph and module functions are looked up as module attributes at call
time (``G.run_graph``, ``V.box_nms``, ``T.measure``...), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import numpy as np

from edgegraph import graph as G
from edgegraph import tune as T
from edgegraph import vision as V
from edgegraph.conv import ConvWorkload, ScheduleConfig
from edgegraph.simt import Session

from fixtures import ssd_like_doc, ssd_like_inputs

# multibox_detection and box_nms on the CPU: the fallback placement,
# which inserts 3 copy nodes into the fixture graph
FALLBACK_OPS = G.DEFAULT_GPU_OPS - {"multibox_detection", "box_nms"}
FALLBACK_COPIES = 3

# the four conv nodes of the fixture graph, by workload key
CONV_NODES = {
    "c1": ConvWorkload(n=1, c=3, h=16, w=16, k=8, r=3, s=3, pad=(1, 1)),
    "c2": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1)),
    "cls": ConvWorkload(n=1, c=8, h=8, w=8, k=6, r=1, s=1),
    "loc": ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=1, s=1),
}
NODE_OF_KEY = {wl.key(): node for node, wl in CONV_NODES.items()}

TUNE_BUDGET = 8  # configs per job: one random batch, one model-ranked batch
TUNE_BATCH = 4
TUNE_REPEATS = 3  # the CLI default

OPS = ("argsort", "scan", "compact", "nms", "roi_align")
# the block of each argsort call in a round. A block-2 call takes several
# times as long as a block-8 call, and a block-64 call a fraction of it,
# so the p50 falls among the block-8 calls; there are five of them, so
# that the p50 reads more than one call
SORT_BLOCKS = (2, 8, 64, 8, 8, 8, 8)
# calls of each operator in one round of ops requests. A run's p50 of an
# operator is read from calls spread over the whole run, so that a slow
# phase of the host that hits a few calls does not move it; the more
# calls sit near the median, the fewer moments of the host's speed each
# one weighs. Short calls (scan, compact) are cheap to add; the times of
# box_nms calls span 15x over 100-400 boxes, and of roi_align calls 6x
OPS_PER_ROUND = {"argsort": len(SORT_BLOCKS), "scan": 10, "compact": 10, "nms": 7, "roi_align": 5}
# runs of each call, back to back on the same inputs and timed together;
# the call's time is their mean. Scan and compact calls take a few ms, so
# they run more than once, for a timing that spans several ms
OPS_REPEATS = {"argsort": 1, "scan": 4, "compact": 2, "nms": 1, "roi_align": 1}
SCAN_WIDE_EVERY = 5  # scan calls per p=64 call; the others run at p=8
# the operators of one round, interleaved evenly
OPS_ROUND = [op for _, op in sorted(((i + 0.5) / n, op) for op, n in OPS_PER_ROUND.items()
                                    for i in range(n))]

DETECT_ROUND = 8  # detect draws that the seed shuffles among themselves
# requests of each kind in a whole round: the draws the seed shuffles among
# themselves, the calls of OPS_ROUND, one job per conv workload
ROUND = {"detect": DETECT_ROUND, "ops": len(OPS_ROUND), "tune": len(CONV_NODES)}

# request streams, so that no two kinds or passes share a draw
STREAMS = {"detect": 0, "ops": 1, "warmup": 2}

class CheckFailed(RuntimeError):
    """An output differs from its twin or oracle."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def draw_seed(seed: int, stream: str, j: int) -> int:
    return int(np.random.SeedSequence([seed, STREAMS[stream], j]).generate_state(1)[0])


def spread(lo: int, hi: int, k: int) -> int:
    """The k-th size of a van der Corput sequence over [lo, hi].

    The sizes that drive an operator's cost follow the same sequence for
    every seed (the seed draws the values), and any first 2**i - 1 of
    them sit symmetrically around the middle of the range, so a run's
    median does not hinge on how many calls fit into it.
    """
    frac, scale, i = 0.0, 0.5, k + 1
    while i:
        frac += scale * (i & 1)
        scale /= 2
        i >>= 1
    return lo + int(frac * (hi - lo + 1))


class Detect:
    """Inference of the fixture graph under both placements, one draw per request."""

    def __init__(self, seed: int, clock, stream: str = "detect"):
        self.seed, self.clock, self.stream = seed, clock, stream
        self._want: dict = {}  # all-CPU outputs per draw, for replays
        doc = ssd_like_doc()
        self.cpu = G.load_graph(doc)
        self.gpu = G.insert_copies(G.assign_devices(G.load_graph(doc), G.DEFAULT_GPU_OPS))
        self.fallback = G.insert_copies(G.assign_devices(G.load_graph(doc), FALLBACK_OPS))
        check(G.count_copies(self.gpu) == 0, "all-GPU placement inserted copy nodes")
        check(G.count_copies(self.fallback) == FALLBACK_COPIES,
              f"fallback placement inserted {G.count_copies(self.fallback)} copy nodes, "
              f"expected {FALLBACK_COPIES}")

    def draw(self, j: int) -> int:
        """Index in the pool of draws of the j-th request.

        The pool is the same for every benchmark seed, as tune's jobs are:
        the p50 of 60-80 independent draws spreads by about 0.1 between
        seeds from the draws alone, since the NMS candidate count, and with
        it the load, changes with the draw. The seed shuffles the draws
        within each round of ``DETECT_ROUND``, so it sets their order and
        which placement runs first on each.
        """
        r, k = divmod(j, DETECT_ROUND)
        order = np.random.default_rng([self.seed, STREAMS[self.stream], r]).permutation(DETECT_ROUND)
        return r * DETECT_ROUND + int(order[k])

    def request(self, j: int) -> dict:
        """(seconds, wall seconds) per placement, for the j-th request."""
        inputs = ssd_like_inputs(draw_seed(0, self.stream, self.draw(j)))
        order = [("gpu", self.gpu), ("fallback", self.fallback)]
        if j % 2:
            order.reverse()
        seconds, outs = {}, {}
        for name, g in order:
            outs[name], *seconds[name] = self.clock.timed(G.run_graph, g, inputs, Session())
        if j not in self._want:
            self._want[j] = G.run_graph(self.cpu, inputs)
        want = self._want[j]
        for name in ("gpu", "fallback"):
            for out, ref in want.items():
                check(same_bits(outs[name][out].data, ref.data),
                      f"detect request {j}: {name} output {out!r} differs from the all-CPU run")
        return seconds


class Tune:
    """Tuning jobs round-robin over the graph's conv workloads.

    The tuner's own seed is the job index, not the benchmark seed: which
    configs the tuner picks sets a job's cost (one 16-config job's time
    varies by a third between tuner seeds), and the benchmark seed would
    then swamp tune_configs_per_s. The conv workloads are the fixture
    graph's, so this kind draws nothing from the benchmark seed.
    """

    def __init__(self, records_path: str, clock):
        self.records_path, self.clock = records_path, clock
        self.default_cost = {}
        for node, wl in CONV_NODES.items():
            rec = T.measure(wl, ScheduleConfig(), repeats=TUNE_REPEATS, timer=T.proxy_timer)
            check(rec.ok, f"default config of {node} failed to measure: {rec.error}")
            self.default_cost[node] = rec.cost_mean
        self.records = 0

    def request(self, j: int) -> dict:
        """One job: its seconds and wall seconds, configs measured, and speedup over the default."""
        node = list(CONV_NODES)[j % len(CONV_NODES)]
        wl = CONV_NODES[node]

        def job():
            best = T.tune_model(wl, TUNE_BUDGET, batch=TUNE_BATCH, seed=j, repeats=TUNE_REPEATS,
                                timer=T.proxy_timer, records_path=self.records_path)
            records = T.records_load(self.records_path)
            return best, records, T.query_best(records, wl.key())

        (best, records, top), seconds, wall = self.clock.timed(job)
        default = self.default_cost[node]
        check(best.cost_mean <= default,
              f"tune job {j} ({node}): best cost {best.cost_mean} above the default {default}")
        check(top is not None and top.cost_mean <= best.cost_mean,
              f"tune job {j} ({node}): query_best missed the job's best record")
        configs = len(records) - self.records
        self.records = len(records)
        check(configs == TUNE_BUDGET, f"tune job {j} ({node}) appended {configs} records")
        return {"node": node, "seconds": seconds, "wall": wall, "configs": configs,
                "speedup": default / best.cost_mean}


def _argsort_oracle(values, offsets, order) -> np.ndarray:
    keys = values if order == "ascending" else -values
    out = np.empty(values.size, np.int32)
    for u, w in zip(offsets[:-1], offsets[1:]):
        out[u:w] = np.argsort(keys[u:w], kind="stable")
    return out


def ops_call(j: int) -> tuple:
    """(operator, m) of the j-th ops request: its m-th call of that operator."""
    rounds, k = divmod(j, len(OPS_ROUND))
    op = OPS_ROUND[k]
    return op, rounds * OPS_PER_ROUND[op] + OPS_ROUND[:k].count(op)


class Ops:
    """Operator calls on the GPU path, checked against twins and oracles."""

    def __init__(self, seed: int, clock, stream: str = "ops"):
        self.seed, self.clock, self.stream = seed, clock, stream
        self._want: dict = {}

    def case(self, j: int) -> tuple:
        """(operator, call, twins, description) of the j-th call.

        ``call()`` makes the GPU-path call on fresh inputs drawn for ``j``
        and returns its output; each twin returns the output it must equal.
        """
        op, m = ops_call(j)
        rng = np.random.default_rng(draw_seed(self.seed, self.stream, j))
        return (op, *getattr(self, "_" + op)(rng, m))

    def request(self, j: int) -> tuple:
        """(operator, seconds, wall seconds) of one run of the j-th call."""
        op, call, twins, what = self.case(j)
        n = OPS_REPEATS[op]
        outs, seconds, wall = self.clock.timed(lambda: [call() for _ in range(n)])
        if j not in self._want:
            self._want[j] = {name: twin() for name, twin in twins.items()}
        for got in outs:
            for name, want in self._want[j].items():
                check(same_bits(got, want), f"{op} call {ops_call(j)[1]} ({what}) differs from {name}")
        return op, seconds / n, wall / n

    def _argsort(self, rng, m):
        rounds, b = divmod(m, len(SORT_BLOCKS))
        block = SORT_BLOCKS[b]
        # each block's calls follow their own sequence of sizes
        k = rounds * SORT_BLOCKS.count(block) + SORT_BLOCKS[:b].count(block)
        nseg = spread(20, 80, k)
        # segment lengths cover 1..80 evenly, in a seeded order
        lens = rng.permutation(1 + np.arange(nseg) * 80 // nseg)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        values = rng.random(int(offsets[-1]), dtype=np.float32)
        order = ("ascending", "descending")[k % 2]
        sa = V.SegmentedArray(values=values, offsets=offsets)
        twins = {"argsort_sequential": lambda: V.argsort_sequential(values, order, offsets),
                 "the numpy oracle": lambda: _argsort_oracle(values, offsets, order)}
        return (lambda: V.segmented_argsort(sa, order, block=block, session=Session()),
                twins, f"block {block}, {values.size} elements")

    def _scan(self, rng, m):
        # every size comes in both dtypes and both kinds. A p=64 call takes
        # 3-5 times as long as a p=8 call of the same size, so with even
        # shares the p50 would fall in the gap between the two groups, on
        # a single call; one call in SCAN_WIDE_EVERY runs at p=64 instead
        n = spread(10**4, 10**5, m // 4)
        is_int = m % 2 == 0
        kind = ("inclusive", "exclusive")[(m // 2) % 2]
        p = 64 if m % SCAN_WIDE_EVERY == SCAN_WIDE_EVERY - 1 else 8
        if is_int:
            x = rng.integers(-1000, 1001, n).astype(np.int32)
        else:
            x = rng.standard_normal(n).astype(np.float32)
        twins = {"scan_sequential": lambda: V.scan_sequential(x, kind, p=p)}
        if is_int:
            def oracle():
                incl = np.cumsum(x, dtype=np.int64)
                return (incl if kind == "inclusive" else np.concatenate([[0], incl[:-1]])).astype(np.int32)
            twins["the numpy oracle"] = oracle
        return (lambda: V.scan(x, kind, p=p, session=Session()),
                twins, f"{x.dtype} {kind}, p={p}, {n} elements")

    def _compact(self, rng, m):
        n = spread(10**3, 10**4, m)
        x = rng.integers(-10**6, 10**6, n).astype(np.int32)
        keep = rng.random(n) < 0.5
        kept = int(keep.sum())

        def call():
            got, count = V.compact(x, keep, p=8, session=Session())
            check(count == kept, f"compact call {m} kept {count} of {kept}")
            return got

        return call, {"the numpy oracle": lambda: x[keep]}, f"{n} elements"

    def _nms(self, rng, m):
        n = spread(100, 400, m)
        xy = rng.random((n, 2), dtype=np.float32) * np.float32(0.8)
        wh = rng.random((n, 2), dtype=np.float32) * np.float32(0.2) + np.float32(0.02)
        boxes = V.BoxSet(class_ids=rng.integers(0, 3, n), scores=rng.random(n, dtype=np.float32),
                         corners=np.concatenate([xy, xy + wh], axis=1))
        twins = {"box_nms_sequential": lambda: V.box_nms_sequential(boxes, 0.5, 0.05).to_array()}
        return (lambda: V.box_nms(boxes, 0.5, 0.05, session=Session()).to_array(),
                twins, f"{n} boxes")

    def _roi_align(self, rng, m):
        r = spread(16, 64, m)
        feats = rng.standard_normal((1, 16, 32, 32)).astype(np.float32)
        xy = rng.random((r, 2)) * 24.0
        wh = rng.random((r, 2)) * 7.0 + 1.0
        rois = np.concatenate([xy, xy + wh], axis=1).astype(np.float32)
        twins = {"roi_align_sequential": lambda: V.roi_align_sequential(feats, rois, (7, 7), 2)}
        return (lambda: V.roi_align(feats, rois, (7, 7), 2, session=Session()),
                twins, f"{r} ROIs")
