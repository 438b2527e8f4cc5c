"""Deterministic emulation of a block/thread GPU execution model.

A kernel is launched over a grid of blocks, each block running a fixed
number of threads. Threads of one block advance in lockstep phases
separated by barriers; there is no synchronization across blocks inside
a launch, and launches in a session are totally ordered.

Kernels are plain Python functions called as ``kernel(ctx, *buffers)``.
A kernel that needs barriers is written as a generator and marks each
barrier with ``yield ctx.barrier()`` (a bare ``yield`` is equivalent).
Every kernel runs lane-form, as a SIMD machine runs work-items as the
lanes of one hardware thread: each call covers a span of lanes, whose
ids (``ctx.block_id``, ``thread_id``, ``global_id``) are always int
arrays, built when the call first reads one; ``add_work`` takes one
count per lane and ``guard`` one bool per lane. One lockstep loop runs
every launch: a block's calls share one storage, and phase k of each
call runs, in ascending lane order, before any call starts phase k+1.
The mode sets only how many lanes a call holds. Unchecked, one call
holds the launch, or its block if the kernel yields barriers or the
launch has shared storage, so a branch on an id raises numpy's
ambiguous-truth error. Under race check each call holds one lane, so
every access is checked per (block, thread) and lanes that disagree on
a barrier raise :class:`BarrierDivergenceError`. The final buffer
contents of a race-free launch are bitwise reproducible; a racy kernel
may keep any lane's value, which only the race check rejects.
:func:`launch_rows` launches a kernel over rows of an output
buffer, and :func:`run_rows` runs the same range function on the host
or launches it.

Storage has one rule in both modes: a buffer and a block's shared
storage are each a :class:`DeviceBuffer`, zero-initialized,
fixed-length and reached only by indexing with ints (Python or numpy
integers), slices of int bounds and positive step, or int arrays;
shared storage is nameless, with object slots that hold the Python
values kernels store, and a launch without shared slots gets its
session's one zero-slot buffer. A negative, out-of-range, bool or float
index or slice bound, a store of other than one 0-d value at an int
index, and a store of other than a scalar or one value per selected
slot at a slice or int array, raise :class:`BufferBoundsError` naming
the storage and the call's block and threads (or the launch's grid and
block). An optional race-check mode arms every buffer with a shadow
last-writer/last-reader map per slot per phase, marking exactly the
slots each access selects, and rejects programs whose output would
depend on cross-thread ordering without a barrier.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from dataclasses import dataclass, field

import numpy as np

CPU = "CPU"
GPU = "GPU"

DTYPES = {"f32": np.float32, "i32": np.int32, "bool": np.bool_}
F32_OVERFLOW = 2.0**128 - 2.0**103  # the least magnitude that rounds to ±Infinity in f32
PLAN_LANES = 4096  # launch_rows keeps lane plans of at most this many lanes: 2.1 MB for 32

# sentinel meaning "no owner yet" / "multiple readers" in the shadow maps
_FREE = -1
_MANY = -2
# what next() returns for a generator kernel that has finished
_DONE = object()
# an int is a Python or numpy integer, never a bool or a float
_INT_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


class LaunchConfigError(ValueError):
    """Launch with grid or block below 1, negative or non-integer fields, or a kernel with no ``__qualname__``."""


class BufferBoundsError(IndexError):
    """Kernel access outside a buffer, by an index that is not an int, a slice of int bounds or an
    int array, or a store of other than one value per slot; annotated with block/thread ids."""


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
    """Validate an int, slice (int or None bounds, positive step) or int-array
    index against length ``n``, and return the number of slots it selects
    (None for a scalar index). Bools, floats and bool or float arrays are
    rejected, since numpy would read a bool as a mask. An error names
    ``owner._where()`` and the buffer ``owner.name``, or shared storage
    when the name is None."""
    if type(idx) is int and 0 <= idx < n:  # the common case first
        return None
    if type(idx) is slice:
        start = 0 if idx.start is None else idx.start
        stop = n if idx.stop is None else idx.stop
        step = 1 if idx.step is None else idx.step
        if (type(start) in _INT_TYPES and type(stop) in _INT_TYPES and type(step) in _INT_TYPES
                and step > 0 and 0 <= start <= stop <= n):
            return (stop - start + step - 1) // step  # no negative operand, so unsigned bounds count too
        raise BufferBoundsError(f"{owner._where()}: slice [{idx.start}:{idx.stop}:{idx.step}] "
                                f"invalid for {_what(owner)} of length {n}")
    # a numpy integer is a 0-d int array; numpy would read a tuple as one index per axis
    arr = None if type(idx) is tuple else idx if type(idx) is np.ndarray else np.asarray(idx)
    if arr is None or arr.dtype.kind not in "iu":
        raise BufferBoundsError(f"{owner._where()}: {'tuple' if arr is None else arr.dtype} index into "
                                f"{_what(owner)}; expected an int, a slice or an int array")
    if np.count_nonzero(arr.astype(np.uint64, copy=False) >= n):  # a negative index wraps past n
        lo, hi = int(arr.min()), int(arr.max())
        where = f"{owner._where()}: " + (f"indices [{lo}..{hi}]" if arr.ndim else f"index {lo}")
        raise BufferBoundsError(f"{where} out of range for {_what(owner)} of length {n}")
    return arr.size if arr.ndim else None


class DeviceBuffer:
    """Fixed-length, zero-initialized flat storage.

    Index with ints, slices (any positive step) or integer arrays;
    negative indices are rejected (device code has no wraparound).
    Reads of never-written slots return zero. Indexing is the only
    kernel path to the storage: every access is bounds-checked, and
    under race check it marks exactly the slots it selects, so threads
    that touch disjoint strided or scattered slots never conflict. A
    slice read is a read-only view, so every write goes through
    ``__setitem__``. An int store takes one 0-d value; a slice or int-array
    store takes a scalar, which fills the slots, or one value per slot (by
    size, whatever its shape).
    A nameless buffer (``name=None``) is a block's shared storage: its
    slots hold Python objects, one a slot whatever the shape of a slice or
    int-array store's value (a 0-d array as its item, alone or inside a
    list or object array), and its errors say so.
    """

    __slots__ = ("dtype", "data", "name", "_session", "_w_owner", "_r_owner")

    def __init__(self, session, length: int, dtype: str = "f32", name: str = ""):
        if dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}; expected one of {sorted(DTYPES)}")
        self.dtype = dtype
        # shared storage's object slots hold exactly the Python values kernels store
        self.data = np.zeros(check_int("buffer length", length, 0), DTYPES[dtype] if name is not None else object)
        self.name = name
        self._session = session
        self._w_owner = self._r_owner = None
        if session.race_check:
            self._race_arm()

    def __len__(self) -> int:
        return len(self.data)

    def _where(self) -> str:
        cur = self._session._current
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
        if (vals := np.asarray(value)).ndim and (count is None or vals.size != count):
            # numpy would broadcast a one-element value over the slots, or keep an array in an object slot
            index = (f"index {int(idx)}" if count is None else "int-array index" if type(idx) is not slice
                     else f"slice [{idx.start}:{idx.stop}:{idx.step}]")
            want, got = ("one 0-d value", f"shape {vals.shape}") if count is None else (f"{count} values", vals.size)
            raise BufferBoundsError(f"{self._where()}: {index} of {_what(self)} takes {want}, got {got}")
        if vals is value and count is None and self.name is None:
            value = value.item()  # a 0-d array in an object slot stores what a one-slot slice store does
        elif self.name is None and vals.ndim:  # one value a slot, whatever the shape: numpy would keep a list or array
            value = np.asarray(value, object).ravel()
            if np.ndarray in set(map(type, items := value.tolist())):
                value = [x.item() if type(x) is np.ndarray else x for x in items]
        if self._w_owner is not None:
            self._race_write(idx)
        self.data[idx] = value

    def load(self, values) -> None:
        """Host-side write of the whole buffer, its values converted by :func:`as_dtype`."""
        arr = as_dtype(values, self.dtype)[1]
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
        if (cur := self._session._current) is None:  # a host access
            return
        gid = cur.lanes.start  # each race-checked call holds one lane
        self._session._race_touched.add(self)
        w = self._w_owner[idx]
        bad = (w != _FREE) & (w != gid)
        if np.any(bad):
            self._race_error("read of", idx, bad, "written by another thread")
        r = self._r_owner[idx]
        self._r_owner[idx] = np.where((r == _FREE) | (r == gid), gid, _MANY)

    def _race_write(self, idx):
        if (cur := self._session._current) is None:  # a host access
            return
        gid = cur.lanes.start  # each race-checked call holds one lane
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
    """The view of one kernel call over a span of lanes.

    ``block_id``, ``thread_id`` and ``global_id`` are int arrays with one
    entry per lane of the call, block-major: every lane of the launch,
    every lane of one block, or, under race check, a single lane. They
    are built when the call first reads one, and kept. ``lanes`` is the
    call's slice of gids, which indexes any per-lane plan a kernel keeps
    across launches, and ``shared`` is its block's storage. ``add_work``
    takes one count per lane and ``guard`` one bool per lane.
    """

    __slots__ = ("block_id", "thread_id", "global_id", "block_dim", "grid_dim", "shared", "_work",
                 "lanes", "_guards")

    def __init__(self, config, work, lanes, shared):
        self.block_dim = config.block
        self.grid_dim = config.grid
        self.shared = shared
        self._work = work  # the launch's int64 work counts
        self.lanes = lanes  # this call's slice of gids
        self._guards = []

    def __getattr__(self, name):
        # reached only for ids not set yet
        if name not in ("block_id", "thread_id", "global_id"):
            raise AttributeError(f"'ThreadCtx' object has no attribute {name!r}")
        gid = self.global_id = np.arange(*self.lanes.indices(self._work.size))
        self.block_id, self.thread_id = np.divmod(gid, self.block_dim)
        return getattr(self, name)

    def where(self) -> str:
        lo, hi, _ = self.lanes.indices(self._work.size)
        b, t = divmod(lo, self.block_dim)
        if hi - lo == 1:
            return f"block {b}, thread {t}"
        if t + hi - lo <= self.block_dim:
            return f"block {b}, threads {t}-{t + hi - lo - 1}"
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
        # the shared storage of every launch without shared slots: it has no slot to carry a value, and
        # it holds the session by a weak proxy, so a dropped session needs no cycle collector
        self._no_shared = DeviceBuffer(weakref.proxy(self), 0, name=None)

    @property
    def launch_log(self) -> list[LaunchConfig]:
        """A fresh list of the config of each launch."""
        return [r.config for r in self.records]

    def alloc(self, length: int, dtype: str = "f32", name: str = "") -> DeviceBuffer:
        buf = DeviceBuffer(self, length, dtype=dtype, name=name or f"buf{self._allocs}")
        self._allocs += 1
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
        Unchecked, one call runs them all, or one per block with barriers or
        shared storage; under race check, one call runs each.
        """
        grid, block = config.grid, config.block
        code = getattr(kernel, "__code__", None)  # as inspect.isgeneratorfunction, at a tenth of its cost
        is_gen = inspect.isgeneratorfunction(kernel) if code is None else code.co_flags & inspect.CO_GENERATOR
        name = getattr(kernel, "__qualname__", None)
        if name is None:
            raise LaunchConfigError(f"kernel {kernel!r} has no __qualname__ to name its launch record")
        self.records.append(rec := LaunchRecord(name, config, np.zeros(grid * block, np.int64)))
        # unchecked, one call runs the launch, or a block if its lanes meet at barriers or share
        # storage; under race check, one call runs each lane of a block
        span = block if is_gen or config.shared_slots or self.race_check else grid * block
        width = 1 if self.race_check else span
        try:
            for lo in range(0, grid * block, span):
                self._run(kernel, is_gen, lo, span, width, rec, buffers)
        finally:
            self._current = None
            if self._race_touched:  # a launch that raised mid-phase leaves no owners behind
                self._race_phase_reset()

    def _run(self, kernel, is_gen, lo, span, width, rec, buffers):
        # the calls of `width` lanes over gids lo..lo+span-1 share one storage and run in lockstep
        # phases, ascending; each yield is a barrier of their block, which every call reaches or none.
        # Plain loops, not comprehensions, which would put this frame's locals in cells
        config = rec.config
        shared = DeviceBuffer(self, config.shared_slots, name=None) if config.shared_slots else self._no_shared
        calls = []
        for g in range(lo, lo + span, width):
            ctx = ThreadCtx(config, rec.work, slice(g, g + width), shared)
            # calling a generator kernel runs none of its body yet; a plain kernel's one phase is its call
            calls.append((ctx, kernel(ctx, *buffers) if is_gen else None))
        while True:
            yielded, guards = [], []
            for ctx, phases in calls:
                self._current = ctx
                if phases is None:
                    kernel(ctx, *buffers)
                elif next(phases, _DONE) is not _DONE:
                    yielded.append(ctx.lanes.start - lo)
                if ctx._guards:
                    guards.append(ctx._guards)
                    ctx._guards = []
            if guards:
                rec.divergence_events += _divergence(guards, config.block)
            if self.race_check:
                self._race_phase_reset()
            if not yielded:
                return
            if len(yielded) < len(calls):  # only one-lane calls can disagree, each a thread of the block
                finished = sorted(set(range(len(calls))).difference(yielded))
                raise BarrierDivergenceError(f"block {lo // config.block}: threads {finished} "
                                             f"skipped a barrier reached by threads {yielded}")
            rec.barriers += 1

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
    """Launch a kernel that stores ``fn(lo, hi)`` as rows lo..hi-1 of ``out``.

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

    ``guards`` holds the list of each context that made a guard, in launch
    order: one context of whole blocks of ``block`` lanes, or one-lane
    contexts of one block. At each guard position, a lane that reports
    False while a lane of its block reports True skipped a guarded phase.
    A context with fewer guards takes no part in the later positions.
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


def as_dtype(array, dtype: str | None = None) -> tuple:
    """``(dtype, array)``: float, integer or bool values as a ``dtype`` array, the one way
    into a device dtype; with no ``dtype``, floats become f32, integers i32 and bools bool.
    An array already of ``dtype`` comes back as it is, any other as a copy. f32 takes every
    value but a finite one of magnitude ``F32_OVERFLOW`` or more (NaN, ±inf and -0.0 pass
    bit for bit), i32 integers, bools and integral floats in its range, and bool only
    bools. Any other array raises ``ValueError``, as does a value that does not fit."""
    arr = np.asarray(array)
    kind = arr.dtype.kind
    if kind not in "fiub":
        raise ValueError(f"no tensor dtype for {arr.dtype} values; expected float, integer or bool")
    dtype = dtype or {"f": "f32", "i": "i32", "u": "i32", "b": "bool"}[kind]
    if arr.dtype == DTYPES[dtype]:
        return dtype, arr
    bad = None  # an integer or a bool always fits f32, and a narrow one i32
    if dtype == "bool":  # only a bool array is one, so every value is bad
        bad = np.ones(arr.shape, bool)
    elif kind == "f":  # NaN fails every comparison; the bounds are float64, which a float16 would overflow
        bad = (((a := abs(arr)) >= np.float64(F32_OVERFLOW)) & (a != np.inf) if dtype == "f32" else
               ~((arr >= np.float64(-2**31)) & (arr < np.float64(2**31)) & (np.floor(arr) == arr)))
    elif dtype == "i32" and not np.can_cast(arr.dtype, np.int32):
        bad = (arr < -2**31) | (arr >= 2**31)
    if bad is not None and bad.any():
        raise ValueError(f"{arr.dtype} value {arr.flat[np.argmax(bad)]} does not fit {dtype}")
    return dtype, arr.astype(DTYPES[dtype])


def canonical_nan(a: np.ndarray) -> np.ndarray:
    """``a`` with every NaN set in place to the one quiet NaN: numpy's add keeps one
    of two NaN operands by its place in the vector loop, so by the array's shape."""
    if a.size and np.isnan(a.max()):  # max propagates NaN
        a[np.isnan(a)] = np.nan
    return a


def check_count(name: str, value):
    """``value`` of top_k or max_output as an int >= 0, or None; anything else raises."""
    return None if value is None else check_int(name, value, 0, "None or an integer >= 0")
