"""Schedule search, measurement, the tuning-records database, and the
graph-level dynamic-programming layout tuner.

Costs come from an injectable timer so every search property is testable
without flaky clocks: ``wall_timer`` measures real elapsed time,
``proxy_timer`` derives a deterministic pseudo-latency from the
emulator's launch statistics, and tests inject scripted timers. A
config is verified against the reference convolution once before it is
ever timed; a config that fails verification is a hard error, never a
cost, while a config rejected by the schedule template is recorded with
an explicit failure flag.

Records are line-delimited JSON behind a one-line header; the file is
append-only and a load/save round trip preserves it byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .conv import (
    ConvWorkload,
    ScheduleConfig,
    ScheduleRejectedError,
    conv2d_reference,
    conv2d_scheduled,
    schedule_space,
)
from .simt import Session, ceil_div
from .tensor import LayoutTag

RECORDS_HEADER = {"schema": 1, "features": "v1"}
FEATURE_VERSION = "v1"
MAX_SPACE = 2000  # desk-scale bound on exhaustive spaces


class UnsupportedGraphError(ValueError):
    """Layout DP covers chains and trees only; anything else errors loudly."""


@dataclass(frozen=True)
class TuningRecord:
    workload_key: str
    config: ScheduleConfig
    cost_mean: float | None
    cost_std: float | None
    repeats: int
    device_tag: str
    created_at: float
    failed: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failed and self.cost_mean is not None

    def to_json(self) -> str:
        rec = {
            "workload": self.workload_key,
            "config": self.config.as_dict(),
            "cost_mean": self.cost_mean,
            "cost_std": self.cost_std,
            "repeats": self.repeats,
            "device": self.device_tag,
            "created_at": self.created_at,
            "failed": self.failed,
            "error": self.error,
        }
        return json.dumps(rec)

    @classmethod
    def from_json(cls, text: str) -> "TuningRecord":
        rec = json.loads(text)
        return cls(
            workload_key=rec["workload"],
            config=ScheduleConfig.from_dict(rec["config"]),
            cost_mean=rec["cost_mean"],
            cost_std=rec["cost_std"],
            repeats=rec["repeats"],
            device_tag=rec["device"],
            created_at=rec["created_at"],
            failed=rec.get("failed", False),
            error=rec.get("error"),
        )


# --- timers -----------------------------------------------------------------

def wall_timer(run, wl, cfg) -> float:
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def proxy_timer(run, wl, cfg) -> float:
    """Deterministic pseudo-latency from the launch's load profile.

    Models 4 parallel cores running blocks in waves, up to 8 active
    lanes per block, a fixed cost per reduction step (higher when the
    nest is not unrolled), plus per-block and per-launch overheads.
    """
    sess = run()
    stats = sess.stats()
    lc = sess.launch_log[-1]
    work_max = max(stats.per_thread_items) if stats.per_thread_items else 0
    red = wl.r * wl.s * (wl.c // wl.groups)
    t_mac = 1e-8 if cfg.unroll else 1.3e-8
    waves = ceil_div(lc.grid, 4)
    lane_folds = ceil_div(lc.block, 8)
    return waves * lane_folds * work_max * red * t_mac + lc.grid * 2e-6 + 1e-5


def _workload_seed(wl: ConvWorkload) -> int:
    return zlib.crc32(wl.key().encode())


# measurement inputs are a fixed function of the workload, so share them
# (and the verification reference) across the configs of one search
_workload_cache: dict = {}


def _workload_data(wl: ConvWorkload, want_ref: bool):
    entry = _workload_cache.get(wl)
    if entry is None:
        rng = np.random.default_rng(_workload_seed(wl))
        inp = rng.standard_normal((wl.n, wl.c, wl.h, wl.w)).astype(np.float32)
        wgt = rng.standard_normal((wl.k, wl.c // wl.groups, wl.r, wl.s)).astype(np.float32)
        entry = {"inp": inp, "wgt": wgt, "ref": None}
        if len(_workload_cache) > 32:
            _workload_cache.clear()
        _workload_cache[wl] = entry
    if want_ref and entry["ref"] is None:
        entry["ref"] = conv2d_reference(entry["inp"], entry["wgt"], wl)
    return entry


def measure(wl: ConvWorkload, cfg: ScheduleConfig, repeats: int = 3, timer=None,
            device_tag: str = "emu", verify: bool = True) -> TuningRecord:
    """Time one config on fixed pseudo-random inputs for its workload.

    Returns a record whose cost_mean is the median of ``repeats`` timed
    runs and cost_std their standard deviation. Rejected configs come
    back failure-flagged; a correctness mismatch against the reference
    is a hard error and is never recorded as a cost.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if timer is None:
        timer = wall_timer
    now = time.time()
    try:
        cfg.validate_for(wl)
    except ScheduleRejectedError as e:
        return TuningRecord(
            workload_key=wl.key(), config=cfg, cost_mean=None, cost_std=None,
            repeats=0, device_tag=device_tag, created_at=now, failed=True, error=str(e),
        )
    data = _workload_data(wl, want_ref=verify)
    inp, wgt = data["inp"], data["wgt"]

    def run():
        sess = Session()
        conv2d_scheduled(inp, wgt, wl, cfg, session=sess)
        return sess

    if verify:
        ref = data["ref"]
        got = conv2d_scheduled(inp, wgt, wl, cfg)
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        if float(np.max(np.abs(got - ref))) / scale > 1e-4:
            raise RuntimeError(f"config {cfg} produced wrong output for {wl.key()}")

    samples = [float(timer(run, wl, cfg)) for _ in range(repeats)]
    return TuningRecord(
        workload_key=wl.key(), config=cfg,
        cost_mean=float(np.median(samples)), cost_std=float(np.std(samples)),
        repeats=repeats, device_tag=device_tag, created_at=now,
    )


# --- records database --------------------------------------------------------

def records_save(records, path) -> None:
    """Write header plus one JSON record per line (overwrites)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(RECORDS_HEADER) + "\n")
        for r in records:
            f.write(r.to_json() + "\n")


def records_append(records, path) -> None:
    """Append records, creating the file (and header) if needed.

    A file that does not end in a newline holds what a crashed append
    left: it is cut back to its last newline first, and one with no
    newline left (a torn header) is started afresh.
    """
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    if not fresh:
        with open(path, "rb+") as f:
            f.seek(-1, os.SEEK_END)
            if f.read(1) != b"\n":
                f.seek(0)
                keep = f.read().rfind(b"\n") + 1
                f.truncate(keep)
                fresh = keep == 0
    with open(path, "a", encoding="utf-8") as f:
        if fresh:
            f.write(json.dumps(RECORDS_HEADER) + "\n")
        for r in records:
            f.write(r.to_json() + "\n")


def records_load(path) -> list:
    """Read a records file back; malformed lines report their line number.

    A malformed final line with no newline after it is what a crash in the
    middle of ``records_append`` leaves behind, so it is skipped with a
    warning instead. A complete malformed line anywhere is damage.
    """
    out = []
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    torn = None if text.endswith("\n") else len(lines)
    if not lines:
        raise ValueError(f"{path}: empty records file (missing header)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:1: bad header: {e}") from None
    if header.get("schema") != RECORDS_HEADER["schema"]:
        raise ValueError(f"{path}:1: unsupported schema {header.get('schema')!r}")
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            out.append(TuningRecord.from_json(line))
        except (json.JSONDecodeError, KeyError) as e:
            if i == torn:
                warnings.warn(f"{path}:{i}: skipping torn final record: {e}", stacklevel=2)
                continue
            raise ValueError(f"{path}:{i}: malformed record: {e}") from None
    return out


def query_best(records, workload_key: str) -> TuningRecord | None:
    """Lowest-cost valid record for a workload (min over all records)."""
    best = None
    for r in records:
        if r.workload_key != workload_key or not r.ok:
            continue
        if best is None or r.cost_mean < best.cost_mean:
            best = r
    return best


def query_cost(records, workload_key: str, cfg: ScheduleConfig) -> TuningRecord | None:
    """Newest record for one (workload, config) pair."""
    hit = None
    for r in records:
        if r.workload_key == workload_key and r.config == cfg:
            hit = r
    return hit


# --- schedule search ----------------------------------------------------------

def config_features(wl: ConvWorkload, cfg: ScheduleConfig) -> np.ndarray:
    """Feature vector "v1": log2 of the schedule factors plus derived sizes."""
    blocks = cfg.oc_split * cfg.h_split
    threads = cfg.w_tile * cfg.vec
    return np.array(
        [
            math.log2(cfg.oc_split),
            math.log2(cfg.h_split),
            math.log2(cfg.w_tile),
            math.log2(cfg.vec),
            float(cfg.unroll),
            math.log2(blocks),
            math.log2(threads),
            math.log2(wl.k // cfg.oc_split),
            math.log2(wl.oh // cfg.h_split),
            math.log2(wl.ow // cfg.w_tile),
        ],
        dtype=np.float64,
    )


class KnnCostModel:
    """k-nearest-neighbour regressor over config features.

    Dependency-free and deterministic; retrainable incrementally by
    calling :meth:`fit` again with the grown record set.
    """

    def __init__(self, k: int = 3):
        self.k = k
        self._x = None
        self._y = None

    def fit(self, features, costs) -> None:
        self._x = np.asarray(features, dtype=np.float64)
        self._y = np.asarray(costs, dtype=np.float64)

    def predict(self, features) -> np.ndarray:
        q = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self._x is None or len(self._x) == 0:
            return np.zeros(len(q))
        d = np.sqrt(((q[:, None, :] - self._x[None, :, :]) ** 2).sum(axis=2))
        k = min(self.k, len(self._x))
        idx = np.argsort(d, axis=1, kind="stable")[:, :k]
        return self._y[idx].mean(axis=1)


def _space_for(wl: ConvWorkload, max_space: int) -> list:
    space = schedule_space(wl)
    if not space:
        raise ValueError(f"empty schedule space for {wl.key()}")
    if len(space) > max_space:
        raise ValueError(
            f"schedule space of {wl.key()} has {len(space)} configs, beyond the "
            f"desk-scale bound of {max_space}"
        )
    return space


def _finish(trials, records_path):
    if records_path:
        records_append(trials, records_path)
    ok = [t for t in trials if t.ok]
    if not ok:
        raise RuntimeError("no config measured successfully")
    best = ok[0]
    for t in ok[1:]:
        if t.cost_mean < best.cost_mean:
            best = t
    return best


def tune_random(wl: ConvWorkload, budget: int, seed: int = 0, repeats: int = 3,
                timer=None, records_path=None, device_tag: str = "emu",
                max_space: int = MAX_SPACE) -> TuningRecord:
    """Measure ``budget`` distinct uniformly-sampled configs; return the best.

    With budget >= |space| this is exhaustive search. Deterministic for
    a given seed.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    space = _space_for(wl, max_space)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(space))[: min(budget, len(space))]
    trials = [measure(wl, space[i], repeats=repeats, timer=timer, device_tag=device_tag)
              for i in order]
    return _finish(trials, records_path)


def tune_model(wl: ConvWorkload, budget: int, batch: int = 8, seed: int = 0,
               repeats: int = 3, timer=None, records_path=None,
               device_tag: str = "emu", epsilon: float = 0.1, knn_k: int = 3,
               max_space: int = MAX_SPACE) -> TuningRecord:
    """Cost-model-guided search: train, rank, measure the top batch, repeat.

    Each round fits the kNN model on everything measured so far, ranks
    the unmeasured configs by predicted cost and measures the best
    ``batch`` of them with epsilon-greedy exploration. Never exceeds
    ``budget`` measurements; the best-so-far cost is non-increasing.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not (1 <= batch <= budget):
        raise ValueError(f"need 1 <= batch <= budget, got batch={batch} budget={budget}")
    space = _space_for(wl, max_space)
    feats = np.stack([config_features(wl, c) for c in space])
    rng = np.random.default_rng(seed)
    model = KnnCostModel(k=knn_k)

    unmeasured = list(range(len(space)))
    trials = []
    measured_feats, measured_costs = [], []

    def run_batch(indices):
        for i in indices:
            unmeasured.remove(i)
            rec = measure(wl, space[i], repeats=repeats, timer=timer, device_tag=device_tag)
            trials.append(rec)
            if rec.ok:
                measured_feats.append(feats[i])
                measured_costs.append(rec.cost_mean)

    first = rng.permutation(len(space))[: min(batch, budget, len(space))]
    run_batch([int(i) for i in first])

    while len(trials) < budget and unmeasured:
        room = min(batch, budget - len(trials), len(unmeasured))
        if measured_costs:
            model.fit(measured_feats, measured_costs)
            pred = model.predict(feats[unmeasured])
            ranked = [unmeasured[int(j)] for j in np.argsort(pred, kind="stable")]
        else:
            ranked = list(unmeasured)
        picks = []
        pool = [i for i in ranked]
        for _ in range(room):
            if rng.random() < epsilon and len(pool) > 1:
                choice = pool[int(rng.integers(0, len(pool)))]
            else:
                choice = pool[0]
            pool.remove(choice)
            picks.append(choice)
        run_batch(picks)

    return _finish(trials, records_path)


# --- graph-level layout DP ----------------------------------------------------

def _normalize_costs(node_costs: dict) -> dict:
    out = {}
    for nid, cand in node_costs.items():
        pairs = []
        for tag, cost in cand.items():
            pairs.append((tag if isinstance(tag, LayoutTag) else LayoutTag.parse(tag), float(cost)))
        out[nid] = pairs
    return out


def graph_tune_dp(g, node_costs: dict, tc) -> tuple[dict, float]:
    """Pick one layout per node minimizing kernel plus transform cost.

    ``node_costs`` maps node id to an ordered {layout: cost} mapping;
    ``tc(src_tag, dst_tag, shape)`` prices a layout change on an edge
    (shape comes from the producer's ``out_shape`` attr, () if absent).
    Exact optimum for graphs whose undirected form is a forest; anything
    with an undirected cycle raises :class:`UnsupportedGraphError`. Ties
    break toward the earlier layout in candidate order.

    Returns ({node_id: LayoutTag}, total_cost).
    """
    cand = _normalize_costs(node_costs)
    for n in g.nodes:
        if n.id not in cand or not cand[n.id]:
            raise ValueError(f"node {n.id!r} has no candidate layouts")

    edges = list(g.edges())
    parent_uf = {n.id: n.id for n in g.nodes}

    def find(x):
        while parent_uf[x] != x:
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise UnsupportedGraphError(
                f"edge {u!r}->{v!r} closes an undirected cycle; layout DP supports chains and trees only"
            )
        parent_uf[ru] = rv

    adj: dict = {n.id: [] for n in g.nodes}
    shapes = {n.id: tuple(n.attrs.get("out_shape", ())) for n in g.nodes}
    for u, v in edges:
        adj[u].append((v, True))  # True: this node is the producer on the edge
        adj[v].append((u, False))

    assignment: dict = {}
    total = 0.0
    visited = set()
    for root in (n.id for n in g.nodes):
        if root in visited:
            continue
        # iterative post-order over this tree component
        order = []
        parent = {root: None}
        stack = [root]
        while stack:
            nid = stack.pop()
            visited.add(nid)
            order.append(nid)
            for other, _ in adj[nid]:
                if other not in parent:
                    parent[other] = nid
                    stack.append(other)
        dp = {}
        choice = {}
        for nid in reversed(order):
            tags = cand[nid]
            dp[nid] = []
            for tag, own in tags:
                acc = own
                for child, nid_is_producer in adj[nid]:
                    if parent.get(child) != nid:
                        continue
                    best, best_j = None, None
                    for j, (ctag, _) in enumerate(cand[child]):
                        if nid_is_producer:
                            move = tc(tag, ctag, shapes[nid])
                        else:
                            move = tc(ctag, tag, shapes[child])
                        val = dp[child][j] + move
                        if best is None or val < best:
                            best, best_j = val, j
                    choice[(nid, tag, child)] = best_j
                    acc += best
                dp[nid].append(acc)
        best_i = min(range(len(cand[root])), key=lambda i: dp[root][i])
        total += dp[root][best_i]
        # walk back down assigning the argmin layouts
        todo = [(root, best_i)]
        while todo:
            nid, i = todo.pop()
            tag = cand[nid][i][0]
            assignment[nid] = tag
            for child, _ in adj[nid]:
                if parent.get(child) == nid:
                    todo.append((child, choice[(nid, tag, child)]))
    return assignment, float(total)
