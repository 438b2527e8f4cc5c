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
final buffer contents bitwise reproducible regardless of the ``workers``
hint or how many times the launch is repeated.

Buffers are zero-initialized and fixed-length. Out-of-range accesses
raise :class:`BufferBoundsError` naming the offending block and thread.
An optional race-check mode keeps a shadow last-writer/last-reader map
per slot per phase and rejects programs whose output would depend on
cross-thread ordering without a barrier.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

CPU = "CPU"
GPU = "GPU"

DTYPES = {"f32": np.float32, "i32": np.int32, "bool": np.bool_}

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


@dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry for one kernel launch."""

    grid: int
    block: int
    shared_slots: int = 0

    def __post_init__(self):
        if self.grid < 1 or self.block < 1:
            raise LaunchConfigError(
                f"grid and block must be >= 1, got grid={self.grid} block={self.block}"
            )
        if self.shared_slots < 0:
            raise LaunchConfigError(f"shared_slots must be >= 0, got {self.shared_slots}")


@dataclass
class LaunchStats:
    """Accumulated counters plus the load profile of the last launch.

    ``launches``, ``barriers`` and ``divergence_events`` never decrease
    within a session. Every launch overwrites ``per_thread_items`` with
    one Python ``int`` work-item count per logical thread of that launch
    (all zero when its kernel reported no work), and ``load_imbalance``
    is (max - min) / mean of those counts (0 when the profile is empty or
    all-zero).
    """

    launches: int = 0
    barriers: int = 0
    divergence_events: int = 0
    per_thread_items: list[int] = field(default_factory=list)
    load_imbalance: float = 0.0


def _imbalance(items) -> float:
    if len(items) == 0:
        return 0.0
    mean = sum(items) / len(items)
    if mean == 0:
        return 0.0
    return (max(items) - min(items)) / mean


class DeviceBuffer:
    """Fixed-length, zero-initialized flat storage with a device tag.

    Index with ints, slices or integer arrays; negative indices are
    rejected (device code has no wraparound). Reads of never-written
    slots return zero.
    """

    __slots__ = ("device", "dtype", "data", "name", "_session", "_w_owner", "_r_owner")

    def __init__(self, session, length: int, dtype: str = "f32", device: str = GPU, name: str = ""):
        if dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}; expected one of {sorted(DTYPES)}")
        if length < 0:
            raise ValueError(f"buffer length must be >= 0, got {length}")
        if device not in (CPU, GPU):
            raise ValueError(f"unknown device tag {device!r}")
        self.device = device
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
        if cur is None:
            return "host"
        return f"block {cur.block_id}, thread {cur.thread_id}"

    def _resolve(self, idx):
        """Normalize an index to a (start, stop) extent, validating bounds."""
        n = len(self.data)
        # fast paths for the common in-range int and unit-step slice; any
        # other index, or one out of range, takes the checks below
        if type(idx) is int:
            if 0 <= idx < n:
                return idx, idx + 1
        elif type(idx) is slice and idx.step is None:
            start = 0 if idx.start is None else idx.start
            stop = n if idx.stop is None else idx.stop
            if 0 <= start <= stop <= n:
                return int(start), int(stop)
        if isinstance(idx, (int, np.integer)):
            if idx < 0 or idx >= n:
                raise BufferBoundsError(
                    f"{self._where()}: index {int(idx)} out of range for buffer "
                    f"{self.name!r} of length {n}"
                )
            return int(idx), int(idx) + 1
        if isinstance(idx, slice):
            start = 0 if idx.start is None else idx.start
            stop = n if idx.stop is None else idx.stop
            step = 1 if idx.step is None else idx.step
            if step <= 0 or start < 0 or stop > n or start > stop:
                raise BufferBoundsError(
                    f"{self._where()}: slice [{idx.start}:{idx.stop}:{idx.step}] invalid "
                    f"for buffer {self.name!r} of length {n}"
                )
            return int(start), int(stop)
        arr = np.asarray(idx)
        if arr.size == 0:
            return 0, 0
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= n:
            raise BufferBoundsError(
                f"{self._where()}: indices [{lo}..{hi}] out of range for buffer "
                f"{self.name!r} of length {n}"
            )
        return lo, hi + 1

    def __getitem__(self, idx):
        start, stop = self._resolve(idx)
        if self._w_owner is not None:
            self._race_read(start, stop)
        return self.data[idx]

    def __setitem__(self, idx, value):
        start, stop = self._resolve(idx)
        if self._w_owner is not None:
            self._race_write(start, stop)
        self.data[idx] = value

    def as_array(self, shape=None) -> np.ndarray:
        """View of the raw storage, optionally reshaped.

        Bypasses per-access bounds and race checks; intended for
        performance-sensitive kernels that index a logically
        n-dimensional buffer.
        """
        if shape is None:
            return self.data
        return self.data.reshape(shape)

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

    def _race_read(self, start, stop):
        gid = self._session._current_gid
        if gid is None:
            return
        w = self._w_owner[start:stop]
        if np.any((w != _FREE) & (w != gid)):
            raise RaceError(
                f"{self._where()}: read of buffer {self.name!r} slots [{start}:{stop}] "
                "written by another thread in the same phase"
            )
        r = self._r_owner[start:stop]
        r[(r != _FREE) & (r != gid)] = _MANY
        r[r == _FREE] = gid

    def _race_write(self, start, stop):
        gid = self._session._current_gid
        if gid is None:
            return
        w = self._w_owner[start:stop]
        r = self._r_owner[start:stop]
        if np.any((w != _FREE) & (w != gid)) or np.any((r != _FREE) & (r != gid)):
            raise RaceError(
                f"{self._where()}: write to buffer {self.name!r} slots [{start}:{stop}] "
                "conflicts with another thread in the same phase"
            )
        w[:] = gid


class _SharedMem:
    """Block-shared storage with per-slot race tracking."""

    __slots__ = ("slots", "_ctx_session", "_w_owner", "_r_owner")

    def __init__(self, n, session):
        self.slots = [0] * n
        self._ctx_session = session
        self._w_owner = [_FREE] * n
        self._r_owner = [_FREE] * n

    def __len__(self):
        return len(self.slots)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            for i in range(*idx.indices(len(self.slots))):
                self._check_read(i)
            return self.slots[idx]
        self._check_read(idx)
        return self.slots[idx]

    def __setitem__(self, idx, value):
        if isinstance(idx, slice):
            rng = range(*idx.indices(len(self.slots)))
            for i in rng:
                self._check_write(i)
            self.slots[idx] = value
            return
        self._check_write(idx)
        self.slots[idx] = value

    def _check_read(self, i):
        gid = self._ctx_session._current_gid
        w = self._w_owner[i]
        if w != _FREE and w != gid:
            raise RaceError(f"shared slot {i} read after write by another thread in the same phase")
        if self._r_owner[i] == _FREE:
            self._r_owner[i] = gid
        elif self._r_owner[i] != gid:
            self._r_owner[i] = _MANY

    def _check_write(self, i):
        gid = self._ctx_session._current_gid
        if (self._w_owner[i] != _FREE and self._w_owner[i] != gid) or (
            self._r_owner[i] != _FREE and self._r_owner[i] != gid
        ):
            raise RaceError(f"shared slot {i} write conflicts with another thread in the same phase")
        self._w_owner[i] = gid

    def _reset(self):
        n = len(self.slots)
        self._w_owner = [_FREE] * n
        self._r_owner = [_FREE] * n


class ThreadCtx:
    """Per-thread view handed to a kernel instance.

    One context per thread id serves every block of a launch: the
    session sets ``block_id`` and a fresh ``shared`` before each block
    runs, so a kernel must not keep its context past its own block.
    """

    __slots__ = ("block_id", "thread_id", "block_dim", "grid_dim", "shared", "_session", "_guards")

    def __init__(self, thread_id, block_dim, grid_dim, session):
        self.block_id = 0
        self.thread_id = thread_id
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.shared = None
        self._session = session
        self._guards = None

    @property
    def global_id(self) -> int:
        return self.block_id * self.block_dim + self.thread_id

    def barrier(self):
        """Marker for a block-wide barrier; kernels write ``yield ctx.barrier()``.

        No thread of the block passes the barrier until every thread has
        reached it, and shared-storage writes made before it are visible
        to all block threads after it.
        """
        return None

    def add_work(self, items: int = 1) -> None:
        """Report ``items`` processed work items for this thread."""
        self._session._work[self.block_id * self.block_dim + self.thread_id] += items

    def guard(self, active) -> bool:
        """Record a guarded phase and return its condition.

        A thread whose condition is False while a sibling's j-th guard in
        the same phase is True counts as one divergence event.
        """
        active = bool(active)
        if self._guards is None:
            self._guards = [active]
        else:
            self._guards.append(active)
        return active


class Session:
    """One ordered stream of kernel launches with shared counters.

    Not shareable across concurrent callers: one session, one caller at a
    time. ``workers`` is a scheduling hint only; results are identical
    for any value.
    """

    def __init__(self, race_check: bool = False, workers: int = 1):
        self.race_check = race_check
        self.workers = workers
        self._stats = LaunchStats()
        self._buffers: list[DeviceBuffer] = []  # race-checked buffers
        self._allocs = 0
        self._current = None
        self._current_gid = None
        self._work = None
        self.launch_log: list[LaunchConfig] = []

    def alloc(self, length: int, dtype: str = "f32", device: str = GPU, name: str = "") -> DeviceBuffer:
        buf = DeviceBuffer(self, length, dtype=dtype, device=device, name=name or f"buf{self._allocs}")
        self._allocs += 1
        # only race checks need the session to reach its buffers; a list
        # kept otherwise would close a buffer -> session -> buffer cycle
        # that holds every dropped buffer until the cycle collector runs
        if self.race_check:
            buf._race_arm()
            self._buffers.append(buf)
        return buf

    def stats(self) -> LaunchStats:
        """Snapshot of the accumulated counters; does not reset them."""
        s = self._stats
        return LaunchStats(
            launches=s.launches,
            barriers=s.barriers,
            divergence_events=s.divergence_events,
            per_thread_items=list(s.per_thread_items),
            load_imbalance=s.load_imbalance,
        )

    def launch(self, kernel, config: LaunchConfig, *buffers: DeviceBuffer) -> None:
        """Run ``kernel(ctx, *buffers)`` over all (block, thread) instances.

        The effect on the buffers is identical to lockstep-between-barriers
        execution of every instance, regardless of physical parallelism.
        """
        if not isinstance(config, LaunchConfig):
            config = LaunchConfig(*config)
        grid, block = config.grid, config.block
        self._stats.launches += 1
        self.launch_log.append(config)
        self._work = [0] * (grid * block)
        is_gen = inspect.isgeneratorfunction(kernel)
        ctxs = [ThreadCtx(t, block, grid, self) for t in range(block)]
        try:
            for b in range(grid):
                self._run_block(kernel, is_gen, b, config, ctxs, buffers)
        finally:
            self._current = None
            self._current_gid = None
        self._stats.per_thread_items = [int(x) for x in self._work]
        self._stats.load_imbalance = _imbalance(self._stats.per_thread_items)
        self._work = None

    def _run_block(self, kernel, is_gen, b, config, ctxs, buffers):
        if self.race_check:
            shared = _SharedMem(config.shared_slots, self)
        else:
            shared = [0] * config.shared_slots
        base = b * config.block
        for c in ctxs:
            c.block_id = b
            c.shared = shared

        if not is_gen:
            for c in ctxs:
                self._current = c
                self._current_gid = base + c.thread_id
                kernel(c, *buffers)
            self._phase_end(ctxs, shared)
            return

        # calling a generator kernel runs none of its body yet
        gens = [kernel(c, *buffers) for c in ctxs]
        alive = ctxs
        while alive:
            yielded, finished = [], []
            for c in alive:
                self._current = c
                self._current_gid = base + c.thread_id
                if next(gens[c.thread_id], _DONE) is _DONE:
                    finished.append(c)
                else:
                    yielded.append(c)
            self._phase_end(alive, shared)
            if yielded and finished:
                raise BarrierDivergenceError(
                    f"block {b}: threads {[c.thread_id for c in finished]} skipped a barrier "
                    f"reached by threads {[c.thread_id for c in yielded]}"
                )
            if yielded:
                self._stats.barriers += 1
            alive = yielded

    def _phase_end(self, ctxs, shared):
        # divergence metric: for each guard position, threads reporting
        # False while some sibling reported True skipped a guarded phase
        guards = [c._guards for c in ctxs if c._guards is not None]
        if guards:
            for j in range(max(map(len, guards))):
                vals = [g[j] for g in guards if len(g) > j]
                if any(vals) and not all(vals):
                    self._stats.divergence_events += sum(1 for v in vals if not v)
            for c in ctxs:
                c._guards = None
        if self.race_check:
            for buf in self._buffers:
                buf._race_reset()
            if isinstance(shared, _SharedMem):
                shared._reset()
        self._current = None
        self._current_gid = None


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def log2_ceil(x: int) -> int:
    """ceil(log2 x) for x >= 1, exact for any int."""
    return (x - 1).bit_length() if x > 1 else 0
