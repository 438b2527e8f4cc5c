"""Three-stage parallel prefix sum and stream compaction.

The scan assigns ceil(n/p) consecutive elements to each of p processors
(register blocking). Launch 1 sweeps up: every processor scans its chunk
sequentially and emits the chunk total. Launch 2 runs a cooperative
Hillis-Steele scan over the p totals inside a single block, one barrier
per pass, so no global synchronization is needed. Launch 3 sweeps down,
adding each processor's scanned base back onto its chunk. Integer scans
are exact (overflow raises); float32 scans follow this fixed chunked
summation order bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simt import GPU, LaunchConfig, Session, ceil_div, log2_ceil

I32_MIN = -(2**31)
I32_MAX = 2**31 - 1


def partition_chunks(n: int, p: int) -> list[tuple[int, int]]:
    """Split [0, n) into p contiguous half-open ranges of ceil(n/p) elements.

    The first p-1 ranges have full length whenever that leaves work for
    the last one; ranges are clamped to n, so trailing ranges may be
    short or empty.
    """
    if p < 1:
        raise ValueError(f"processor count must be >= 1, got {p}")
    chunk = ceil_div(n, p) if n > 0 else 0
    return [(min(i * chunk, n), min((i + 1) * chunk, n)) for i in range(p)]


@dataclass(frozen=True)
class ScanPlan:
    """Chunk geometry for one scan: p processors of ``chunk`` elements."""

    p: int
    chunk: int
    num_coop_passes: int

    @classmethod
    def for_size(cls, n: int, p: int) -> "ScanPlan":
        """Plan for n elements on at most p processors.

        Processors that would receive an empty chunk are dropped, so
        (p-1)*chunk < n <= p*chunk always holds.
        """
        if n < 1:
            raise ValueError("scan plan needs n >= 1")
        if p < 1:
            raise ValueError(f"processor count must be >= 1, got {p}")
        chunk = ceil_div(n, min(p, n))
        p_eff = ceil_div(n, chunk)
        return cls(p=p_eff, chunk=chunk, num_coop_passes=log2_ceil(p_eff))


def _check_i32(values, what: str = "scan result") -> None:
    arr = np.asarray(values)
    if arr.size and (arr.min() < I32_MIN or arr.max() > I32_MAX):
        raise OverflowError(f"{what} exceeds the i32 range")


def _prepare(values, kind: str) -> tuple[np.ndarray, str]:
    """The input as a flat f32 or i32 array and its buffer dtype name.

    Rejects an unknown ``kind``, a non-flat input, a dtype that is
    neither float nor integer/bool, and integers outside the i32 range.
    """
    if kind not in ("inclusive", "exclusive"):
        raise ValueError(f"kind must be 'inclusive' or 'exclusive', got {kind!r}")
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"scan expects a flat buffer, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        return arr.astype(np.float32), "f32"
    if arr.dtype.kind in "iub":
        _check_i32(arr)
        return arr.astype(np.int32), "i32"
    raise ValueError(f"unsupported scan dtype {arr.dtype}")


def _running_sums(chunk: np.ndarray) -> np.ndarray:
    """Inclusive running sums of one chunk in its own dtype; i32 sums are exact or raise."""
    if chunk.dtype == np.int32:
        csum = np.cumsum(chunk, dtype=np.int64)
        _check_i32(csum)
        return csum.astype(np.int32)
    return np.cumsum(chunk, dtype=np.float32)


def _exact(total):
    """A chunk total as the cooperative scan adds it: i32 as a Python int,
    so sums of totals never wrap, f32 as is."""
    return int(total) if isinstance(total, np.integer) else total


def _as_base(value, dtype: str):
    """A scanned total stored as a chunk base; an i32 base out of range raises."""
    if dtype == "i32":
        _check_i32(value)
        return np.int32(value)
    return np.float32(value)


def _chunk_out(sums: np.ndarray, base, kind: str) -> np.ndarray:
    """One chunk's output: its running sums plus its base, shifted one slot
    right behind the base for an exclusive scan. i32 results are exact or raise."""
    out = np.empty_like(sums)
    rest = out
    if kind == "exclusive":
        out[0] = base
        sums, rest = sums[:-1], out[1:]
    if out.dtype == np.int32:
        res = sums.astype(np.int64) + int(base)
        _check_i32(res)
        rest[:] = res
    else:
        rest[:] = sums + base
    return out


def scan(values, kind: str = "inclusive", p: int = 8, session: Session | None = None) -> np.ndarray:
    """Prefix sum of a flat buffer: out[i] = sum(values[0..=i]) (inclusive)
    or sum(values[0..i)) with out[0] = 0 (exclusive).

    Runs as exactly three kernel launches (up-sweep, cooperative scan,
    down-sweep); the cooperative stage uses ceil(log2 p) barrier-separated
    passes. i32 input gives exact results or an OverflowError; f32 input
    is summed in the fixed chunked order described in the module docstring.
    """
    arr, dtype = _prepare(values, kind)
    n = arr.size
    if n == 0:
        return arr.copy()

    plan = ScanPlan.for_size(n, p)
    ranges = partition_chunks(n, plan.p)
    sess = session if session is not None else Session()

    vals = sess.alloc(n, dtype, device=GPU, name="scan_in")
    vals.load(arr)
    local = sess.alloc(n, dtype, device=GPU, name="scan_local")
    totals = sess.alloc(plan.p, dtype, device=GPU, name="scan_totals")
    scanned = sess.alloc(plan.p, dtype, device=GPU, name="scan_bases")
    out = sess.alloc(n, dtype, device=GPU, name="scan_out")

    def up_sweep(ctx):
        a, z = ranges[ctx.block_id]
        ctx.add_work(z - a)
        csum = _running_sums(vals[a:z])
        local[a:z] = csum
        totals[ctx.block_id] = csum[-1]

    def coop_scan(ctx):
        # Hillis-Steele over the chunk totals, double-buffered in shared
        # storage: pass d adds element i - 2**d into element i.
        i = ctx.thread_id
        passes = plan.num_coop_passes
        ctx.add_work(max(1, passes))
        cur, nxt = 0, plan.p
        for d in range(passes):
            stride = 1 << d
            if d == 0:
                v = _exact(totals[i])
                if i >= stride:
                    v = v + _exact(totals[i - stride])
            else:
                v = ctx.shared[cur + i]
                if i >= stride:
                    v = v + ctx.shared[cur + i - stride]
            ctx.shared[nxt + i] = v
            yield ctx.barrier()
            cur, nxt = nxt, cur
        scanned[i] = _as_base(ctx.shared[cur + i - 1] if i > 0 else 0, dtype)

    def down_sweep(ctx):
        a, z = ranges[ctx.block_id]
        ctx.add_work(z - a)
        out[a:z] = _chunk_out(local[a:z], scanned[ctx.block_id], kind)

    sess.launch(up_sweep, LaunchConfig(grid=plan.p, block=1))
    sess.launch(coop_scan, LaunchConfig(grid=1, block=plan.p, shared_slots=2 * plan.p))
    sess.launch(down_sweep, LaunchConfig(grid=plan.p, block=1))
    return out.to_numpy()


def scan_sequential(values, kind: str = "inclusive", p: int = 8) -> np.ndarray:
    """CPU realization of the same chunked summation order, no emulator.

    Runs the kernel's own input check and per-chunk helpers, so it is
    bitwise identical to :func:`scan` and raises where it raises, which
    keeps graph outputs independent of the device an operator lands on.
    """
    arr, dtype = _prepare(values, kind)
    n = arr.size
    if n == 0:
        return arr.copy()
    plan = ScanPlan.for_size(n, p)
    sums = [_running_sums(arr[a:z]) for a, z in partition_chunks(n, plan.p)]
    cur = [_exact(s[-1]) for s in sums]
    for d in range(plan.num_coop_passes):
        stride = 1 << d
        cur = [cur[i] + cur[i - stride] if i >= stride else cur[i] for i in range(plan.p)]
    bases = [_as_base(v, dtype) for v in [0] + cur[:-1]]
    return np.concatenate([_chunk_out(s, base, kind) for s, base in zip(sums, bases)])


def compact(values, keep, p: int = 8, session: Session | None = None) -> tuple[np.ndarray, int]:
    """Keep ``values[i]`` where ``keep[i]``, preserving relative order.

    Scatter positions come from an exclusive scan of the keep flags.
    Returns (kept buffer, kept count).
    """
    arr = np.asarray(values)
    flags = np.asarray(keep, dtype=bool)
    if arr.shape != flags.shape or arr.ndim != 1:
        raise ValueError(f"values {arr.shape} and keep {flags.shape} must be equal-length flat buffers")
    n = arr.size
    if n == 0:
        return arr.copy(), 0
    sess = session if session is not None else Session()
    positions = scan(flags.astype(np.int32), kind="exclusive", p=p, session=sess)
    count = int(positions[-1]) + int(flags[-1])

    if arr.dtype.kind == "f":
        dtype = "f32"
    else:
        _check_i32(arr, "compact input")  # values pass through untouched; no silent wrap
        dtype = "i32"
    src = sess.alloc(n, dtype, device=GPU, name="compact_in")
    src.load(arr.astype(np.float32 if dtype == "f32" else np.int32))
    dst = sess.alloc(max(count, 1), dtype, device=GPU, name="compact_out")
    ranges = partition_chunks(n, ScanPlan.for_size(n, p).p)

    def scatter(ctx):
        a, z = ranges[ctx.block_id]
        ctx.add_work(z - a)
        sel = flags[a:z]
        dst[positions[a:z][sel]] = src[a:z][sel]

    sess.launch(scatter, LaunchConfig(grid=len(ranges), block=1))
    return dst.to_numpy()[:count], count
