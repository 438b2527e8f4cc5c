"""Schedule search, measurement, the tuning-records database, and the
graph-level dynamic-programming layout tuner.

Costs come from an injectable timer so every search property is testable
without flaky clocks: ``wall_timer`` measures real elapsed time,
``proxy_timer`` derives a deterministic pseudo-latency from the
emulator's launch record, and tests inject scripted timers. A
config's output must equal the reference convolution's bitwise before it
is ever timed; a config that fails this is a hard error, never a cost,
while a config rejected by the schedule template is recorded with an
explicit failure flag, as is a timer cost that is not finite.

What is a fixed function of a workload (its measurement inputs and
reference output, and its schedule space and feature matrix) is kept for
the 32 most recently used workloads.

Records are line-delimited JSON behind a one-line header; the file is
append-only and a load/save round trip preserves it byte for byte. A
record with a non-finite cost is not JSON, so the writers refuse it
before they open the file; older files that hold one still load. A load
checks the header's schema and features tag, and an append refuses a
file whose complete header fails that check.

One process also keeps, per records path, the text of the complete lines
it last loaded, their count and their records. An append teaches that
cache the lines and records it wrote when the cached text ends where it
appended, and only records whose lines load back equal, field type
included. A load whose file still starts with the cached text parses only
the lines after it; any other file is parsed whole, so a load never
trusts mtime, size or append-only use. The cache holds at most 32 paths;
the 33rd starts it afresh.
"""

from __future__ import annotations

import functools
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
from .simt import Session, ceil_div, check_int

RECORDS_HEADER = {"schema": 1, "features": "v1"}
_HEADER_LINE = json.dumps(RECORDS_HEADER) + "\n"  # written first; an append need not parse it
_ENCODER = json.JSONEncoder(allow_nan=False)  # json.dumps(rec, allow_nan=False) builds one a call
MAX_SPACE = 2000  # desk-scale bound on exhaustive spaces
EPSILON = 0.1  # chance that tune_model explores past its model's top pick
KNN_K = 3  # neighbours the cost model averages


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
        return not self.failed and self.cost_mean is not None and math.isfinite(self.cost_mean)

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
        return _ENCODER.encode(rec)

    @classmethod
    def from_json(cls, text: str) -> "TuningRecord":
        rec = json.loads(text)
        if not isinstance(rec, dict) or not isinstance(rec.get("config"), dict):
            raise ValueError("a record and its config must be JSON objects")
        rec = {"failed": False, "error": None, **rec}
        for key, types in _RECORD_TYPES.items():
            if not isinstance(rec[key], types) or (type(rec[key]) is bool) != (bool in types):
                raise TypeError(f"field {key!r} has type {type(rec[key]).__name__}")
        return cls(
            workload_key=rec["workload"],
            config=ScheduleConfig.from_dict(rec["config"]),
            cost_mean=rec["cost_mean"],
            cost_std=rec["cost_std"],
            repeats=rec["repeats"],
            device_tag=rec["device"],
            created_at=rec["created_at"],
            failed=rec["failed"],
            error=rec["error"],
        )


# the JSON types each record field may take, in field order; a bool is never a number
_RECORD_TYPES = {"workload": (str,), "cost_mean": (int, float, type(None)),
                 "cost_std": (int, float, type(None)), "repeats": (int,), "device": (str,),
                 "created_at": (int, float), "failed": (bool,), "error": (str, type(None))}


def _exact(r: TuningRecord) -> bool:
    """Whether loading ``r``'s line gives back ``r`` with every field of the same type."""
    fields = (r.workload_key, r.cost_mean, r.cost_std, r.repeats, r.device_tag, r.created_at, r.failed, r.error)
    return (type(r) is TuningRecord and type(r.config) is ScheduleConfig
            and all(type(v) is int for v in r.config.as_dict().values())
            and all(type(v) in types for v, types in zip(fields, _RECORD_TYPES.values())))


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
    rec = run().records[-1]
    lc, work_max = rec.config, int(rec.work.max())
    red = wl.r * wl.s * (wl.c // wl.groups)
    t_mac = 1e-8 if cfg.unroll else 1.3e-8
    waves = ceil_div(lc.grid, 4)
    lane_folds = ceil_div(lc.block, 8)
    return waves * lane_folds * work_max * red * t_mac + lc.grid * 2e-6 + 1e-5


def _workload_seed(wl: ConvWorkload) -> int:
    return zlib.crc32(wl.key().encode())


@functools.lru_cache(maxsize=32)
def _workload_data(wl: ConvWorkload):
    """The workload's fixed measurement inputs and their reference output."""
    rng = np.random.default_rng(_workload_seed(wl))
    inp = rng.standard_normal((wl.n, wl.c, wl.h, wl.w)).astype(np.float32)
    wgt = rng.standard_normal((wl.k, wl.c // wl.groups, wl.r, wl.s)).astype(np.float32)
    return inp, wgt, conv2d_reference(inp, wgt, wl)


@functools.lru_cache(maxsize=32)
def _search_space(wl: ConvWorkload):
    """The workload's schedule space as a tuple, and its read-only feature matrix."""
    space = tuple(schedule_space(wl))
    if not space:
        raise ValueError(f"empty schedule space for {wl.key()}")
    if len(space) > MAX_SPACE:
        raise ValueError(
            f"schedule space of {wl.key()} has {len(space)} configs, beyond the "
            f"desk-scale bound of {MAX_SPACE}"
        )
    feats = config_features(wl, space)
    feats.flags.writeable = False
    return space, feats


def measure(wl: ConvWorkload, cfg: ScheduleConfig, repeats: int = 3, timer=None) -> TuningRecord:
    """Time one config on fixed pseudo-random inputs for its workload.

    Returns a record whose cost_mean is the median of ``repeats`` timed
    runs and cost_std their standard deviation. Under ``proxy_timer``,
    whose cost is a function of the launch alone, the verification run
    is priced once instead (``repeats=1``, ``cost_std=0``). Rejected
    configs and non-finite timer costs come back failure-flagged; an
    output that is not bitwise the reference's is a hard error and is
    never recorded as a cost.
    """
    repeats = check_int("repeats", repeats, 1)
    if timer is None:
        timer = wall_timer
    now = time.time()

    def failure(error, timed_runs=0):
        return TuningRecord(
            workload_key=wl.key(), config=cfg, cost_mean=None, cost_std=None,
            repeats=timed_runs, device_tag="emu", created_at=now, failed=True, error=error,
        )

    try:
        cfg.validate_for(wl)
    except ScheduleRejectedError as e:
        return failure(str(e))
    inp, wgt, ref = _workload_data(wl)

    def run():
        sess = Session()
        conv2d_scheduled(inp, wgt, wl, cfg, session=sess)
        return sess

    verified = Session()
    got = conv2d_scheduled(inp, wgt, wl, cfg, session=verified)
    if got.shape != ref.shape or got.tobytes() != ref.tobytes():
        raise RuntimeError(f"config {cfg} produced wrong output for {wl.key()}")

    if timer is proxy_timer:  # looked up when called, so a wrapped proxy_timer matches too
        samples = [float(timer(lambda: verified, wl, cfg))]
    else:
        samples = [float(timer(run, wl, cfg)) for _ in range(repeats)]
    bad = [s for s in samples if not math.isfinite(s)]
    if bad:
        return failure(f"timer returned a non-finite cost {bad[0]}", len(samples))
    if len(samples) == 1:
        cost_mean, cost_std = samples[0], 0.0
    else:
        cost_mean, cost_std = float(np.median(samples)), float(np.std(samples))
    return TuningRecord(
        workload_key=wl.key(), config=cfg, cost_mean=cost_mean, cost_std=cost_std,
        repeats=len(samples), device_tag="emu", created_at=now,
    )


# --- records database --------------------------------------------------------

def records_save(records, path) -> None:
    """Write header plus one JSON record per line (overwrites).

    Records are serialized before the file is opened: one that is not JSON
    (a non-finite cost) raises ValueError and leaves the file unchanged.
    """
    lines = "".join(r.to_json() + "\n" for r in records)
    with open(path, "w", encoding="utf-8") as f:
        f.write(_HEADER_LINE + lines)


def records_append(records, path) -> None:
    """Append records, creating the file (and header) if needed.

    A file that does not end in a newline holds what a crashed append
    left: it is cut back to its last newline first, and one with no
    newline left (a torn header) is started afresh. A complete header
    that :func:`records_load` would reject raises ValueError and, like a
    record that is not JSON (see :func:`records_save`), changes nothing.
    A load cache that ends where the records went learns them (see the
    module docstring).
    """
    records = list(records)
    lines = "".join(r.to_json() + "\n" for r in records)
    with open(path, "a+b") as f:  # every write lands at the end
        if end := f.seek(0, os.SEEK_END):
            f.seek(0)
            head = f.readline()
            if head != _HEADER_LINE.encode() and head.endswith(b"\n"):
                _check_header(head.decode("utf-8").splitlines()[0], path)
            f.seek(-1, os.SEEK_END)
            if f.read(1) != b"\n":
                f.seek(0)
                end = f.read().rfind(b"\n") + 1
                f.truncate(end)
        f.write((lines if end else _HEADER_LINE + lines).encode())
    key = os.fspath(path)
    done, count, recs = _records_cache.get(key, ("", 0, ()))
    if end and len(done) == end and all(map(_exact, records)):
        _records_cache[key] = (done + lines, count + len(records), recs + tuple(records))


def _check_header(line: str, path) -> None:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:1: bad header: {e}") from None
    # type and value, since true == 1 == 1.0 in Python but no writer writes those
    if not isinstance(header, dict) or any((type(header.get(k)), header.get(k)) != (type(v), v)
                                           for k, v in RECORDS_HEADER.items()):
        raise ValueError(f"{path}:1: unsupported schema in header {header!r}, "
                         f"expected {RECORDS_HEADER!r}")


_records_cache: dict = {}  # path -> (complete lines last loaded, their count, records)


def records_load(path) -> list:
    """Read a records file back; malformed lines report their line number.

    A malformed final line with no newline after it is what a crash in the
    middle of ``records_append`` leaves behind, so it is skipped with a
    warning instead. A complete malformed line anywhere is damage.
    The lines this path's last load parsed are not parsed again while the
    file starts with them (see the module docstring); the result is a new list.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if not text:
        raise ValueError(f"{path}: empty records file (missing header)")
    key = os.fspath(path)
    done, i, recs = _records_cache.get(key, ("", 0, ()))
    if not text.startswith(done):
        done, i, recs = "", 0, ()
    cut = text.rfind("\n") + 1
    parts = text[len(done):cut].splitlines(), text[cut:].splitlines()
    torn = i + len(parts[0]) + len(parts[1]) if parts[1] else None
    out, entry = list(recs), None
    for part in parts:
        for i, line in enumerate(part, start=i + 1):
            if i == 1:
                _check_header(line, path)
            elif line.strip():
                try:
                    out.append(TuningRecord.from_json(line))
                except (ValueError, KeyError, TypeError) as e:
                    if i != torn:
                        raise ValueError(f"{path}:{i}: malformed record: {e}") from None
                    warnings.warn(f"{path}:{i}: skipping torn final record: {e}", stacklevel=2)
        entry = entry or (text[:cut], i, tuple(out))
    if key not in _records_cache and len(_records_cache) >= 32:
        _records_cache.clear()
    _records_cache[key] = entry
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

def config_features(wl: ConvWorkload, configs) -> np.ndarray:
    """Feature vectors "v1", one row per config: log2 of oc_split, h_split, w_tile and
    vec, unroll, then log2 of the blocks, the threads and each split's share of its axis."""
    oc, hs, wt, vec, unroll = np.array([(c.oc_split, c.h_split, c.w_tile, c.vec, c.unroll)
                                        for c in configs]).T
    sizes = np.stack([oc, hs, wt, vec, oc * hs, wt * vec, wl.k // oc, wl.oh // hs, wl.ow // wt], axis=1)
    values, at = np.unique(sizes, return_inverse=True)
    logs = np.array([math.log2(v) for v in values.tolist()])  # math.log2 of each distinct int
    return np.insert(logs[at.reshape(sizes.shape)], 4, unroll, axis=1)


class KnnCostModel:
    """k-nearest-neighbour regressor (k = ``KNN_K``) over config features.

    Dependency-free and deterministic; retrainable incrementally by
    calling :meth:`fit` again with the grown record set.
    """

    def __init__(self):
        self._x = None
        self._y = None

    def fit(self, features, costs) -> None:
        self._x = np.asarray(features, dtype=np.float64)
        self._y = np.asarray(costs, dtype=np.float64)

    def predict(self, features) -> np.ndarray:
        q = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self._x is None or len(self._x) == 0:
            return np.zeros(len(q))
        # squared differences as (features, points, queries), added in the pairwise order
        # of numpy's sum over contiguous features, which this equals for up to 15 features
        f = list((self._x.T[:, :, None] - q.T[:, None, :]) ** 2)
        if len(f) >= 8:
            f[:8] = [((f[0] + f[1]) + (f[2] + f[3])) + ((f[4] + f[5]) + (f[6] + f[7]))]
        d = np.sqrt(sum(f[1:], f[0])).T
        k = min(KNN_K, len(self._x))
        idx = np.argsort(d, axis=1, kind="stable")[:, :k]
        return self._y[idx].mean(axis=1)


def tune_model(wl: ConvWorkload, budget: int, batch: int = 8, seed: int = 0,
               repeats: int = 3, timer=None, records_path=None) -> TuningRecord:
    """Cost-model-guided search: train, rank, measure the top batch, repeat.

    The first batch is a uniform draw of distinct configs; each later
    round fits the kNN model on everything measured so far, ranks the
    unmeasured configs by predicted cost and measures the best ``batch``
    of them with epsilon-greedy exploration. Never exceeds ``budget``
    measurements; the best-so-far cost is non-increasing. With
    ``batch=budget`` it is pure random search, exhaustive once budget
    >= |space|, and deterministic for a given seed.
    """
    budget, batch = check_int("budget", budget, 1), check_int("batch", batch, 1)
    if batch > budget:
        raise ValueError(f"need 1 <= batch <= budget, got batch={batch} budget={budget}")
    space, feats = _search_space(wl)
    rng = np.random.default_rng(seed)
    model = KnnCostModel()

    unmeasured = list(range(len(space)))
    trials = []
    measured, measured_costs = [], []

    def run_batch(indices):
        for i in indices:
            unmeasured.remove(i)
            rec = measure(wl, space[i], repeats=repeats, timer=timer)
            trials.append(rec)
            if rec.ok:
                measured.append(i)
                measured_costs.append(rec.cost_mean)

    run_batch(rng.permutation(len(space))[: min(batch, budget, len(space))].tolist())

    while len(trials) < budget and unmeasured:
        room = min(batch, budget - len(trials), len(unmeasured))
        if measured_costs:
            model.fit(feats[measured], measured_costs)
            pred = model.predict(feats[unmeasured])
            ranked = np.array(unmeasured)[np.argsort(pred, kind="stable")].tolist()
        else:
            ranked = list(unmeasured)
        picks = []
        for _ in range(room):
            if rng.random() < EPSILON and len(ranked) > 1:
                choice = ranked[int(rng.integers(0, len(ranked)))]
            else:
                choice = ranked[0]
            ranked.remove(choice)
            picks.append(choice)
        run_batch(picks)

    if records_path:
        records_append(trials, records_path)
    best = query_best(trials, wl.key())
    if best is None:
        raise RuntimeError("no config measured successfully")
    return best


def tune_random(wl: ConvWorkload, budget: int, **kw) -> TuningRecord:
    """Measure ``budget`` distinct uniformly drawn configs; return the best."""
    return tune_model(wl, budget, batch=budget, **kw)


# --- graph-level layout DP ----------------------------------------------------

def graph_tune_dp(g, node_costs: dict, tc) -> tuple[dict, float]:
    """Pick one label per node minimizing kernel plus transform cost.

    ``node_costs`` maps node id to an ordered {label: cost} mapping; a
    label is any hashable key, such as a layout name, and is never parsed.
    ``tc(src_label, dst_label, shape)`` prices a label change on an edge
    (shape comes from the producer's ``out_shape`` attr, () if absent).
    Exact optimum for graphs whose undirected form is a forest; anything
    with an undirected cycle raises :class:`UnsupportedGraphError`. Ties
    break toward the earlier label in candidate order.

    Returns ({node_id: label}, total_cost), each label the caller's own key.
    """
    cand = {nid: [(label, float(cost)) for label, cost in costs.items()] for nid, costs in node_costs.items()}
    for n in g.nodes:
        if not cand.get(n.id):
            raise ValueError(f"node {n.id!r} has no candidate layouts")

    uf = {n.id: n.id for n in g.nodes}

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    # from either end, an edge costs tc(producer's label, consumer's, producer's shape)
    adj = {n.id: [] for n in g.nodes}
    shapes = {n.id: tuple(n.attrs.get("out_shape", ())) for n in g.nodes}
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            raise UnsupportedGraphError(
                f"edge {u!r}->{v!r} closes an undirected cycle; layout DP supports chains and trees only"
            )
        uf[ru] = rv
        adj[u].append((v, lambda mine, theirs, shape=shapes[u]: tc(mine, theirs, shape)))
        adj[v].append((u, lambda mine, theirs, shape=shapes[u]: tc(theirs, mine, shape)))

    assignment, total = {}, 0.0
    for root in (n.id for n in g.nodes):
        if root in assignment:
            continue
        order, parent = [root], {root: None}
        for nid in order:  # breadth-first: each node comes after its parent
            for other, _ in adj[nid]:
                if other not in parent:
                    parent[other] = nid
                    order.append(other)
        # best[nid][i]: least cost of nid's subtree with nid on its candidate i;
        # pick[child, i]: the child's candidate behind it
        best, pick = {}, {}
        for nid in reversed(order):
            best[nid] = []
            for i, (label, acc) in enumerate(cand[nid]):
                for child, move in adj[nid]:
                    if parent[child] == nid:
                        vals = [b + move(label, clabel) for b, (clabel, _) in zip(best[child], cand[child])]
                        pick[child, i] = min(range(len(vals)), key=vals.__getitem__)
                        acc += vals[pick[child, i]]
                best[nid].append(acc)
        at = {root: min(range(len(best[root])), key=best[root].__getitem__)}
        total += best[root][at[root]]
        for nid in order:
            if nid != root:
                at[nid] = pick[nid, at[parent[nid]]]
            assignment[nid] = cand[nid][at[nid]][0]
    return assignment, float(total)
