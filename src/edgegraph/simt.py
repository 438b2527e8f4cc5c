"""Deterministic emulation of a block/thread GPU execution model.

A kernel is launched over a grid of blocks, each block running a fixed
number of threads. Threads of one block advance in lockstep phases
separated by barriers; there is no synchronization across blocks inside
a launch, and launches in a session are totally ordered.

Kernels are plain Python functions called as ``kernel(ctx, *buffers)``.
A kernel that needs barriers is written as a generator and marks each
barrier with ``yield ctx.barrier()`` (a bare ``yield`` is equivalent).
The emulator runs phase k of every thread of a block to completion, in
ascending thread id, before any thread starts phase k+1. That makes the
final buffer contents bitwise reproducible however many times the
launch is repeated.

A kernel with no barrier and no shared storage may instead be marked
lane-form with :func:`lane_form`. It is then called once per launch,
with the ids of every lane as int arrays, the way a SIMD machine runs
work-items as the lanes of one hardware thread; the id arrays are built
the first time the kernel reads one, so a kernel that reads none pays
for none. Both kinds get the same context class, :class:`ThreadCtx`,
whose ids are ints or int arrays: ``add_work`` takes one count per lane
and ``guard`` one bool per lane.
Under race check a lane-form kernel runs through the per-thread loop,
one lane per call with one-element id arrays, so every access is
checked per (block, thread) exactly as for a per-thread kernel.
:func:`launch_rows` launches one over rows of an output buffer, and
:func:`run_rows` runs the same range function on the host or launches it.

Buffers are zero-initialized and fixed-length, and kernels reach them
only through indexing. Out-of-range accesses, and slice stores of
another length than the slice, raise :class:`BufferBoundsError` naming
the offending block and thread (or, for a lane-form call over every
lane, the launch's grid and block). An optional race-check mode keeps a
shadow last-writer/last-reader map per slot per phase, marking exactly
the slots each access selects, and rejects programs whose output would
depend on cross-thread ordering without a barrier. Under race check a
block's shared storage is a nameless buffer whose slots hold the Python
values kernels store; unchecked it is a plain list.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field

import numpy as np

CPU = "CPU"
GPU = "GPU"

DTYPES = {"f32": np.float32, "i32": np.int32, "bool": np.bool_}
PLAN_LANES = 4096  # launch_rows keeps lane plans of at most this many lanes: 2.1 MB for 32

# sentinel meaning "no owner yet" / "multiple readers" in the shadow maps
_FREE = -1
_MANY = -2
# what next() returns for a generator kernel that has finished
_DONE = object()


class LaunchConfigError(ValueError):
    """Launch with grid=0, block=0, or negative shared storage."""


class BufferBoundsError(IndexError):
    """Kernel access outside a buffer, annotated with block/thread ids."""


class BarrierDivergenceError(RuntimeError):
    """Threads of one block disagreed on whether a barrier is reached."""


class RaceError(RuntimeError):
    """Race-check mode found a same-phase conflict on a slot."""


@dataclass(frozen=True, slots=True)
class LaunchConfig:
    """Grid geometry for one kernel launch."""

    grid: int
    block: int
    shared_slots: int = 0

    def __post_init__(self):
        for name in ("grid", "block", "shared_slots"):
            if type(value := getattr(self, name)) is not int:  # 2.0 and np.int64(2) become 2
                try:
                    object.__setattr__(self, name, check_int(name, value, float("-inf"), "an integer"))
                except ValueError as e:
                    raise LaunchConfigError(e) from None
        if self.grid < 1 or self.block < 1:
            raise LaunchConfigError(
                f"grid and block must be >= 1, got grid={self.grid} block={self.block}"
            )
        if self.shared_slots < 0:
            raise LaunchConfigError(f"shared_slots must be >= 0, got {self.shared_slots}")


@dataclass(eq=False, slots=True)
class LaunchRecord:
    """What one launch did: its kernel's ``__qualname__``, its config, the
    int64 work count of each lane, and the barriers and divergence events
    it reached. ``work`` is an array, so compare records field by field."""

    kernel: str
    config: LaunchConfig
    work: np.ndarray
    barriers: int = 0
    divergence_events: int = 0


@dataclass
class LaunchStats:
    """A session's launch records summed, plus the load profile of the last.

    ``launches`` counts the records, and ``barriers`` and
    ``divergence_events`` sum theirs, so none decreases within a session.
    ``per_thread_items`` is a fresh list of one Python ``int`` per lane of
    the last record's ``work`` (all zero when its kernel reported no work),
    and ``load_imbalance`` is (max - min) / mean of those counts (0 when
    the profile is empty or all-zero).
    """

    launches: int = 0
    barriers: int = 0
    divergence_events: int = 0
    per_thread_items: list[int] = field(default_factory=list)
    load_imbalance: float = 0.0


def _imbalance(items: np.ndarray) -> float:
    # the sum as an exact int, so the division is Python's, as for a list
    mean = int(items.sum()) / items.size if items.size else 0
    return int(items.max() - items.min()) / mean if mean else 0.0


def _what(buf) -> str:
    return "shared storage" if buf.name is None else f"buffer {buf.name!r}"


def _check_index(idx, n: int, owner):
    """Validate an int, slice (any positive step) or int-array index
    against length ``n``, and return the number of slots a slice selects
    (None for any other index). An error names ``owner._where()`` and the
    buffer ``owner.name``, or shared storage when the name is None."""
    # fast paths for the common in-range int and unit-step slice; any
    # other index, or one out of range, takes the checks below
    if type(idx) is int:
        if 0 <= idx < n:
            return None
    elif type(idx) is slice and idx.step is None:
        start = 0 if idx.start is None else idx.start
        stop = n if idx.stop is None else idx.stop
        if 0 <= start <= stop <= n:
            return stop - start
    what = _what(owner)
    if isinstance(idx, (int, np.integer)):
        if idx < 0 or idx >= n:
            raise BufferBoundsError(f"{owner._where()}: index {int(idx)} out of range for {what} "
                                    f"of length {n}")
        return
    if isinstance(idx, slice):
        start = 0 if idx.start is None else idx.start
        stop = n if idx.stop is None else idx.stop
        step = 1 if idx.step is None else idx.step
        if step <= 0 or start < 0 or stop > n or start > stop:
            raise BufferBoundsError(f"{owner._where()}: slice [{idx.start}:{idx.stop}:{idx.step}] "
                                    f"invalid for {what} of length {n}")
        return len(range(start, stop, step))
    arr = np.asarray(idx)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise BufferBoundsError(f"{owner._where()}: indices [{int(arr.min())}..{int(arr.max())}] out "
                                f"of range for {what} of length {n}")


class DeviceBuffer:
    """Fixed-length, zero-initialized flat storage.

    Index with ints, slices (any positive step) or integer arrays;
    negative indices are rejected (device code has no wraparound).
    Reads of never-written slots return zero. Indexing is the only
    kernel path to the storage: every access is bounds-checked, and
    under race check it marks exactly the slots it selects, so threads
    that touch disjoint strided or scattered slots never conflict. A
    slice read is a read-only view, so every write goes through
    ``__setitem__``. A slice store takes a scalar, which fills
    the slice, or exactly as many values as the slice selects. A
    nameless buffer (``name=None``) is a race-checked block's shared
    storage, and its errors say so.
    """

    __slots__ = ("dtype", "data", "name", "_session", "_w_owner", "_r_owner")

    def __init__(self, session, length: int, dtype: str = "f32", name: str = ""):
        if dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}; expected one of {sorted(DTYPES)}")
        if length < 0:
            raise ValueError(f"buffer length must be >= 0, got {length}")
        self.dtype = dtype
        self.data = np.zeros(length, dtype=DTYPES[dtype])
        self.name = name
        self._session = session
        self._w_owner = None
        self._r_owner = None

    def __len__(self) -> int:
        return len(self.data)

    def _where(self) -> str:
        cur = self._session._current if self._session is not None else None
        return "host" if cur is None else cur.where()

    def __getitem__(self, idx):
        _check_index(idx, len(self.data), self)
        if self._w_owner is not None:
            self._race_read(idx)
        got = self.data[idx]
        if isinstance(got, np.ndarray) and got.base is self.data:
            got.setflags(write=False)  # a write through a view would bypass the checks
        return got

    def __setitem__(self, idx, value):
        count = _check_index(idx, len(self.data), self)
        if count is not None and np.ndim(value) and len(value) != count:
            # numpy would broadcast a one-element value over the slice
            raise BufferBoundsError(f"{self._where()}: slice [{idx.start}:{idx.stop}:{idx.step}] of "
                                    f"{_what(self)} takes {count} values, got {len(value)}")
        if self._w_owner is not None:
            self._race_write(idx)
        self.data[idx] = value

    def load(self, values) -> None:
        """Host-side write of the whole buffer."""
        arr = np.asarray(values, dtype=DTYPES[self.dtype])
        if arr.shape != self.data.shape:
            raise ValueError(
                f"cannot load shape {arr.shape} into buffer {self.name!r} of length {len(self)}"
            )
        self.data[:] = arr

    def to_numpy(self) -> np.ndarray:
        """Host-side copy of the buffer contents."""
        return self.data.copy()

    # race-check shadow maps (allocated lazily by the session)

    def _race_arm(self):
        n = len(self.data)
        self._w_owner = np.full(n, _FREE, dtype=np.int64)
        self._r_owner = np.full(n, _FREE, dtype=np.int64)

    def _race_reset(self):
        if self._w_owner is not None:
            self._w_owner.fill(_FREE)
            self._r_owner.fill(_FREE)

    # each access marks exactly the slots its own index selects

    def _race_read(self, idx):
        gid = self._session._current_gid
        if gid is None:
            return
        self._session._race_touched.add(self)
        w = self._w_owner[idx]
        bad = (w != _FREE) & (w != gid)
        if np.any(bad):
            self._race_error("read of", idx, bad, "written by another thread")
        r = self._r_owner[idx]
        self._r_owner[idx] = np.where((r == _FREE) | (r == gid), gid, _MANY)

    def _race_write(self, idx):
        gid = self._session._current_gid
        if gid is None:
            return
        self._session._race_touched.add(self)
        w = self._w_owner[idx]
        r = self._r_owner[idx]
        bad = ((w != _FREE) & (w != gid)) | ((r != _FREE) & (r != gid))
        if np.any(bad):
            self._race_error("write to", idx, bad, "conflicts with another thread")
        self._w_owner[idx] = gid

    def _race_error(self, what, idx, bad, why):
        slot = np.ravel(np.arange(len(self.data))[idx])[np.flatnonzero(bad)[0]]
        what = f"{what} shared" if self.name is None else f"{what} buffer {self.name!r}"
        raise RaceError(f"{self._where()}: {what} slot {slot} {why} in the same phase")


class ThreadCtx:
    """The view of one launch handed to a kernel call.

    For a per-thread kernel, ``block_id``, ``thread_id`` and ``global_id``
    are ints and ``shared`` is the block's storage. A lane-form kernel
    gets int arrays with one entry per lane instead: every lane of the
    launch, block-major, or, under race check, a single lane. A call
    over every lane is given no ids: they are built when it first reads
    one, and kept. ``lanes`` is the call's gid, or slice of gids, which
    indexes any per-lane plan a lane-form kernel keeps across launches.
    ``add_work`` takes one count per lane and ``guard`` one bool per lane,
    so a per-thread kernel passes scalars.
    """

    __slots__ = ("block_id", "thread_id", "global_id", "block_dim", "grid_dim", "shared", "_work",
                 "lanes", "_guards")

    def __init__(self, config, work, lanes, ids=None, shared=None):
        if ids is not None:
            self.block_id, self.thread_id, self.global_id = ids
        self.block_dim = config.block
        self.grid_dim = config.grid
        self.shared = shared
        self._work = work  # the launch's int64 work counts
        self.lanes = lanes  # this context's gid, or slice of them
        self._guards = []

    def __getattr__(self, name):
        # reached only for ids not set yet, in a call over every lane
        if name not in ("block_id", "thread_id", "global_id"):
            raise AttributeError(f"'ThreadCtx' object has no attribute {name!r}")
        gid = self.global_id = np.arange(self._work.size)
        self.block_id, self.thread_id = gid // self.block_dim, gid % self.block_dim
        return getattr(self, name)

    def where(self) -> str:
        b, t = np.ravel(self.block_id), np.ravel(self.thread_id)
        if t.size == 1:
            return f"block {b[0]}, thread {t[0]}"
        return f"lanes of grid {self.grid_dim} x block {self.block_dim}"

    def barrier(self):
        """Marker for a block-wide barrier; kernels write ``yield ctx.barrier()``.

        No thread of the block passes the barrier until every thread has
        reached it, and shared-storage writes made before it are visible
        to all block threads after it.
        """
        return None

    def add_work(self, items=1) -> None:
        """Report processed work items, one count per lane."""
        self._work[self.lanes] += items

    def guard(self, active):
        """Record a guarded phase from one bool per lane and return it.

        A lane whose j-th guard in a phase is False while that of a lane
        of its block is True counts as one divergence event.
        """
        active = np.asarray(active, dtype=bool)
        lanes = self._work[self.lanes].shape
        if active.shape != lanes:
            raise ValueError(f"guard takes one bool per lane, {lanes}, got shape {active.shape}")
        self._guards.append(active)
        return active


def _plain(kernel, ctx, buffers):
    """``kernel(ctx, *buffers)`` as a generator that reaches no barrier."""
    kernel(ctx, *buffers)
    yield from ()


def lane_form(kernel):
    """Mark ``kernel`` to run once per launch over int arrays of lane ids.

    Only a plain function launched with no shared storage qualifies:
    lanes of one call cannot meet at a barrier.
    """
    kernel.lane_form = True
    return kernel


class Session:
    """One ordered stream of kernel launches, with one :class:`LaunchRecord` per
    launch in ``records``, a launch that raised included. The records' work
    counts hold 8 bytes per lane launched. Not shareable across concurrent
    callers: one session, one caller at a time.
    """

    def __init__(self, race_check: bool = False):
        self.race_check = race_check
        self.records: list[LaunchRecord] = []
        # race-checked buffers read or written in the current block phase
        self._race_touched: set[DeviceBuffer] = set()
        self._allocs = 0
        self._current = None
        self._current_gid = None

    @property
    def launch_log(self) -> list[LaunchConfig]:
        """A fresh list of the config of each launch."""
        return [r.config for r in self.records]

    def alloc(self, length: int, dtype: str = "f32", name: str = "") -> DeviceBuffer:
        buf = DeviceBuffer(self, length, dtype=dtype, name=name or f"buf{self._allocs}")
        self._allocs += 1
        if self.race_check:
            buf._race_arm()
        return buf

    def stats(self) -> LaunchStats:
        """Snapshot of the records' counters and of the last launch's work."""
        rs = self.records
        work = rs[-1].work if rs else np.zeros(0, np.int64)
        return LaunchStats(len(rs), sum(r.barriers for r in rs), sum(r.divergence_events for r in rs),
                           work.tolist(), _imbalance(work))

    def launch(self, kernel, config: LaunchConfig, *buffers: DeviceBuffer) -> None:
        """Run ``kernel(ctx, *buffers)`` over all (block, thread) instances.

        The effect on the buffers is identical to lockstep-between-barriers
        execution of every instance, regardless of physical parallelism.
        A kernel marked with :func:`lane_form` runs all of them in one call.
        Per-launch set-up that depends only on the geometry is kept across
        launches in plans of 32 entries of at most ``PLAN_LANES`` lanes:
        :func:`launch_rows`' lane plan and conv's guard and work counts.
        """
        grid, block = config.grid, config.block
        code = getattr(kernel, "__code__", None)  # as inspect.isgeneratorfunction, at a tenth of its cost
        is_gen = inspect.isgeneratorfunction(kernel) if code is None else bool(code.co_flags & inspect.CO_GENERATOR)
        lanes = getattr(kernel, "lane_form", False)
        name = getattr(kernel, "__qualname__", None)
        if name is None:
            raise LaunchConfigError(f"kernel {kernel!r} has no __qualname__ to name its launch record")
        if lanes and (is_gen or config.shared_slots):
            raise LaunchConfigError(
                f"lane-form kernel {name!r} must be a plain function launched without shared storage, "
                f"got generator={is_gen} shared_slots={config.shared_slots}"
            )
        self.records.append(rec := LaunchRecord(name, config, np.zeros(grid * block, np.int64)))
        try:
            if lanes and not self.race_check:  # one call over every lane
                ctx = self._current = ThreadCtx(config, rec.work, slice(None))
                kernel(ctx, *buffers)
                if ctx._guards:
                    rec.divergence_events += _divergence([ctx._guards], block)
            else:
                for b in range(grid):
                    self._run_block(kernel, is_gen, lanes, b, rec, buffers)
        finally:
            self._current = None
            self._current_gid = None
            if self._race_touched:  # a launch that raised mid-phase leaves no owners behind
                self._race_phase_reset()

    def _run_block(self, kernel, is_gen, lanes, b, rec, buffers):
        config, work = rec.config, rec.work
        shared = [0] * config.shared_slots
        if self.race_check:
            # nameless, so its errors speak of shared storage; its object
            # slots hold exactly the Python values kernels store
            buf = DeviceBuffer(self, 0, name=None)
            buf.data = np.array(shared, object)
            buf._race_arm()
            shared = buf
        base = b * config.block
        # a race-checked lane-form kernel runs here one lane per call, with
        # one-element id arrays, so every access is checked per lane
        ctxs = [ThreadCtx(config, work, slice(base + t, base + t + 1),
                          (np.array([b]), np.array([t]), np.array([base + t])))
                if lanes else ThreadCtx(config, work, base + t, (b, t, base + t), shared)
                for t in range(config.block)]

        # calling a generator kernel runs none of its body yet; a plain
        # kernel runs as a generator that reaches no barrier
        gens = [kernel(c, *buffers) if is_gen else _plain(kernel, c, buffers) for c in ctxs]
        alive = list(range(config.block))
        while alive:
            yielded, finished = [], []
            for t in alive:
                self._current = ctxs[t]
                self._current_gid = base + t
                (finished if next(gens[t], _DONE) is _DONE else yielded).append(t)
            self._phase_end([ctxs[t] for t in alive], shared, rec)
            if yielded and finished:
                raise BarrierDivergenceError(
                    f"block {b}: threads {finished} skipped a barrier reached by threads {yielded}")
            if yielded:
                rec.barriers += 1
            alive = yielded

    def _phase_end(self, ctxs, shared, rec):
        if len(shared) != rec.config.shared_slots:
            # unchecked storage is a plain list, which a slice store can resize
            raise BufferBoundsError(f"block {ctxs[0].block_id}: a slice store resized shared storage "
                                    f"of length {rec.config.shared_slots} to {len(shared)}")
        guards = [c._guards for c in ctxs]
        if any(guards):
            rec.divergence_events += _divergence(guards, len(ctxs))
            for c in ctxs:
                c._guards = []
        if self.race_check:
            self._race_phase_reset()
        self._current = None
        self._current_gid = None

    def _race_phase_reset(self):
        # only the buffers this phase touched hold owners
        for buf in self._race_touched:
            buf._race_reset()
        self._race_touched.clear()


@functools.lru_cache(maxsize=32)
def _row_plan(lanes: int, rows: int, tile: int, width: int):
    """:func:`launch_rows`' lane plan: the rows (lane g owns rows edges[g]..edges[g+1]-1)
    and elements of each lane's share of ``rows`` rows of ``width``, in tiles of ``tile``;
    read-only, kept for the 32 most recently used geometries of ``PLAN_LANES`` lanes or fewer."""
    tiles = ceil_div(rows, tile)
    busy = max(1, min(lanes, tiles))
    edges = np.minimum(np.arange(lanes + 1) * tiles // busy * tile, rows)
    shares = (edges[1:] - edges[:-1]) * width
    edges.flags.writeable = shares.flags.writeable = False
    return edges, shares


def launch_rows(session: Session, config: LaunchConfig, out: DeviceBuffer, rows: int, fn,
                tile: int = 1) -> None:
    """Launch a lane-form kernel that stores ``fn(lo, hi)`` as rows lo..hi-1 of ``out``.

    ``out`` holds ``rows`` rows of ``len(out) // rows`` elements. The
    lanes split the rows, in tiles of ``tile`` rows, into consecutive
    even shares (lanes past the tile count get none) and report the
    elements they store as work. ``fn`` runs once per call over the
    union of the call's lanes (every lane unchecked, one under race
    check); its result must hold hi - lo rows and is stored with one
    checked slice write. Each of ``lo`` and ``hi`` is a multiple of
    ``tile`` or equal to ``rows``. The kernel takes ``fn``'s name, so a
    launch is named after its operator. The lanes' rows and work counts,
    the lane plan, are kept for the 32 most recently used geometries of at
    most ``PLAN_LANES`` lanes; a call reads its lanes' part of the plan.
    """
    width = len(out) // rows if rows else 0
    lanes = config.grid * config.block
    plan = _row_plan if lanes <= PLAN_LANES else _row_plan.__wrapped__
    edges, shares = plan(lanes, rows, tile, width)

    @lane_form
    def kernel(ctx):
        a, b, _ = ctx.lanes.indices(shares.size)  # the call's lanes, a..b-1
        ctx.add_work(shares[a:b])
        lo, hi = edges.item(a), edges.item(b)
        if hi > lo:
            got = np.asarray(fn(lo, hi)).reshape(-1)
            if got.size != (hi - lo) * width:  # a slice store would broadcast it
                raise ValueError(f"{ctx.where()}: {fn.__qualname__}({lo}, {hi}) returned {got.size} "
                                 f"elements for {hi - lo} rows of {width}")
            out[lo * width : hi * width] = got

    kernel.__name__, kernel.__qualname__ = fn.__name__, fn.__qualname__
    session.launch(kernel, config)


def run_rows(session: Session | None, config: LaunchConfig, dtype: str, rows: int, width: int, fn,
             name: str, tile: int = 1) -> np.ndarray:
    """(rows, width) ``dtype`` array of ``fn(lo, hi)``: one host call ``fn(0, rows)`` if
    ``session`` is None, else one :func:`launch_rows` into a fresh buffer ``name``."""
    if session is None:
        return np.asarray(fn(0, rows), DTYPES[dtype]).reshape(rows, width)
    out = session.alloc(rows * width, dtype, name=name)
    launch_rows(session, config, out, rows, fn, tile)
    return out.to_numpy().reshape(rows, width)


def _divergence(guards, block: int) -> int:
    """Divergence events of one phase, given each context's guard masks.

    ``guards`` holds one list per context, in launch order, and the lanes
    of all the contexts form blocks of ``block`` lanes. At each guard
    position, a lane that reports False while a lane of its block reports
    True skipped a guarded phase. A context with fewer guards takes no
    part in the later positions.
    """
    events = 0
    for pos in range(max(map(len, guards))):
        # the lanes that made a guard here: whole blocks of one context, which
        # need no stacking, or contexts of one lane each, all in one block
        vals = guards[0][pos] if len(guards) == 1 else np.array([g[pos] for g in guards if len(g) > pos])
        if 0 < (true := np.count_nonzero(vals)) < vals.size:  # else no lane skipped
            vals = vals.reshape(ceil_div(vals.size, block), -1)
            # a block whose first True lane, its argmax (cheaper than any), is past lane 0 or is
            # lane 0 has one event per False lane
            busy = np.count_nonzero(vals.argmax(axis=1)) + np.count_nonzero(vals[:, 0])
            events += vals.shape[1] * busy - true
    return int(events)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def log2_ceil(x: int) -> int:
    """ceil(log2 x) for x >= 1, exact for any int."""
    return (x - 1).bit_length() if x > 1 else 0


def check_int(name: str, value, low: int, rule: str = "") -> int:
    """Integral int, float or numpy ``value`` >= ``low`` as an int (4.0 is 4); bools,
    NaN, inf, fractions, strings or less raise ``ValueError`` naming ``name``."""
    if type(value) is int and value >= low:
        return value
    bad = isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
    if bad or value % 1 or value < low:  # NaN % 1 is NaN, which is true
        raise ValueError(f"{name} must be {rule or f'>= {low} and an integer'}, got {value!r}")
    return int(value)


def canonical_nan(a: np.ndarray) -> np.ndarray:
    """``a`` with every NaN set in place to the one quiet NaN: numpy's add keeps one
    of two NaN operands by its place in the vector loop, so by the array's shape."""
    if a.size and np.isnan(a.max()):  # max propagates NaN
        a[np.isnan(a)] = np.nan
    return a


def check_count(name: str, value):
    """``value`` of top_k or max_output as an int >= 0, or None; anything else raises."""
    return None if value is None else check_int(name, value, 0, "None or an integer >= 0")
