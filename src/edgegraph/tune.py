"""Schedule search, measurement, the tuning-records database, and the
graph-level dynamic-programming layout tuner.

A config's cost is ``proxy_timer``'s deterministic pseudo-latency from
the emulator's launch record, one clock for every record the tuner
writes; tests inject scripted timers through ``timer=``. A
config's output must equal the reference convolution's bitwise before it
is ever timed; a config that fails this is a hard error, never a cost,
while a config rejected by the schedule template is recorded with an
explicit failure flag, as is a timer cost that is not finite.

A workload's measurement inputs and reference output are kept for the
32 most recently used workloads. Its schedule space, as int rows, and
their feature matrix depend only on its output shape (k, oh, ow), so they
are kept for the 32 most recently used shapes: workloads of one shape
share one space, and a search builds a ``ScheduleConfig`` only for a row
it measures.

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
import operator
import os
import time
import warnings
import zlib
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .conv import (
    ConvWorkload,
    ScheduleConfig,
    ScheduleRejectedError,
    conv2d_reference,
    conv2d_scheduled,
    schedule_rows,
)
from .simt import Session, ceil_div, check_int

RECORDS_HEADER = {"schema": 1, "features": "v1"}
_HEADER_LINE = json.dumps(RECORDS_HEADER) + "\n"  # written first; an append need not parse it
# writes the bytes json.dumps(rec, allow_nan=False) writes, with no cycle check: records hold none
_ENCODER = json.JSONEncoder(allow_nan=False, check_circular=False)
MAX_SPACE = 2000  # desk-scale bound on exhaustive spaces
EPSILON = 0.1  # chance that tune_model explores past its model's top pick
KNN_K = 3  # neighbours the cost model averages
REPEATS = 3  # runs of a config under a timer other than proxy_timer: measure's default, and so tune_model's


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
        rec = dict(zip(_KEYS, _FIELDS(self)))
        rec[_CONFIG] = self.config.as_dict()
        return _ENCODER.encode(rec)

    @classmethod
    def from_json(cls, text: str) -> "TuningRecord":
        rec = json.loads(text)
        if not isinstance(rec, dict) or not isinstance(rec.get(_CONFIG), dict):
            raise ValueError("a record and its config must be JSON objects")
        rec = {**_DEFAULTS, **rec}
        for key, types in zip(_KEYS, _TYPES):
            if not isinstance(rec[key], types) or (type(rec[key]) is bool) != (bool in types):
                raise TypeError(f"field {key!r} has type {type(rec[key]).__name__}")
        rec[_CONFIG] = ScheduleConfig.from_dict(rec[_CONFIG])
        return cls(*map(rec.__getitem__, _KEYS))


# The record line, in line order, which is TuningRecord's field order: each field's JSON key and
# the JSON types it may take, where a bool is never a number. The config, a ScheduleConfig, is
# the one JSON object. Older lines may lack the fields that have a default.
_CONFIG, _NUMBER, _NONE = "config", (int, float), type(None)
_LINE = (("workload_key", "workload", (str,)), ("config", _CONFIG, (dict,)),
         ("cost_mean", "cost_mean", (*_NUMBER, _NONE)), ("cost_std", "cost_std", (*_NUMBER, _NONE)),
         ("repeats", "repeats", (int,)), ("device_tag", "device", (str,)), ("created_at", "created_at", _NUMBER),
         ("failed", "failed", (bool,)), ("error", "error", (str, _NONE)))
_NAMES, _KEYS, _TYPES = zip(*_LINE)
_FIELDS = operator.attrgetter(*_NAMES)
_DEFAULTS = {key: f.default for key, f in zip(_KEYS, fields(TuningRecord)) if f.default is not MISSING}


def _exact(r: TuningRecord) -> bool:
    """Whether loading ``r``'s line gives back ``r`` with every field of the same type."""
    return (type(r) is TuningRecord and type(r.config) is ScheduleConfig
            and all(type(v) in types or key == _CONFIG for v, key, types in zip(_FIELDS(r), _KEYS, _TYPES)))


# --- timers -----------------------------------------------------------------

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
def _search_space(k: int, oh: int, ow: int):
    """The schedule space of output shape (k, oh, ow) as read-only int rows, and their
    read-only feature matrix."""
    rows = schedule_rows(k, oh, ow)
    if not len(rows):
        raise ValueError(f"empty schedule space for output shape (k, oh, ow) = {(k, oh, ow)}")
    if len(rows) > MAX_SPACE:
        raise ValueError(f"schedule space of output shape (k, oh, ow) = {(k, oh, ow)} has {len(rows)} "
                         f"configs, beyond the desk-scale bound of {MAX_SPACE}")
    feats = config_features(k, oh, ow, rows)
    rows.flags.writeable = feats.flags.writeable = False
    return rows, feats


def measure(wl: ConvWorkload, cfg: ScheduleConfig, repeats: int = REPEATS, timer=None) -> TuningRecord:
    """Price one config on fixed pseudo-random inputs for its workload.

    Under ``proxy_timer``, the default, whose cost is a function of the
    launch alone, the verification run is priced once (``repeats=1``,
    ``cost_std=0``). Any other ``timer``, such as a test's scripted one,
    gives the median of ``repeats`` runs and their standard deviation. Rejected
    configs and non-finite timer costs come back failure-flagged; an
    output that is not bitwise the reference's is a hard error and is
    never recorded as a cost.
    """
    repeats = check_int("repeats", repeats, 1)
    timer = proxy_timer if timer is None else timer
    now = time.time()

    def record(cost_mean=None, cost_std=None, timed_runs=0, error=None):  # failed iff it has an error
        return TuningRecord(wl.key(), cfg, cost_mean, cost_std, timed_runs, "emu", now, error is not None, error)

    try:
        cfg.validate_for(wl)
    except ScheduleRejectedError as e:
        return record(error=str(e))
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
        return record(timed_runs=len(samples), error=f"timer returned a non-finite cost {bad[0]}")
    if len(samples) == 1:
        return record(samples[0], 0.0, 1)
    return record(float(np.median(samples)), float(np.std(samples)), len(samples))


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


# --- schedule search ----------------------------------------------------------

def config_features(k: int, oh: int, ow: int, rows) -> np.ndarray:
    """Feature vectors "v1" of configs of output shape (k, oh, ow), one per int row
    (oc_split, h_split, w_tile, unroll, vec): log2 of oc_split, h_split, w_tile and vec,
    unroll, then log2 of the blocks, the threads and each split's share of its axis."""
    oc, hs, wt, unroll, vec = np.asarray(rows).T
    sizes = np.stack([oc, hs, wt, vec, oc * hs, wt * vec, k // oc, oh // hs, ow // wt], axis=1)
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
               repeats: int = REPEATS, timer=None, records_path=None) -> TuningRecord:
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
    rows, feats = _search_space(wl.k, wl.oh, wl.ow)
    rng = np.random.default_rng(seed)
    model = KnnCostModel()

    unmeasured = list(range(len(rows)))
    trials = []
    measured, measured_costs = [], []

    def run_batch(indices):
        for i in indices:
            unmeasured.remove(i)
            rec = measure(wl, ScheduleConfig(*rows[i].tolist()), repeats=repeats, timer=timer)
            trials.append(rec)
            if rec.ok:
                measured.append(i)
                measured_costs.append(rec.cost_mean)

    run_batch(rng.permutation(len(rows))[: min(batch, budget, len(rows))].tolist())

    while len(trials) < budget and unmeasured:
        room = min(batch, budget - len(trials), len(unmeasured))
        if measured_costs:
            model.fit(feats[measured], measured_costs)
            idx = np.array(unmeasured)  # one conversion of the list, which indexing would repeat
            ranked = idx[np.argsort(model.predict(feats[idx]), kind="stable")].tolist()
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
