"""Three-stage parallel prefix sum and stream compaction.

The scan assigns ceil(n/p) consecutive elements to each of p processors
(register blocking), and both sweeps run in place on the one buffer the
input is loaded into, as the work-efficient GPU scan does (Harris,
Sengupta and Owens, GPU Gems 3, 2007). Launch 1 sweeps up: every
processor overwrites its chunk with the chunk's running sums. Launch 2
runs a cooperative Hillis-Steele scan over the p chunk totals, which it
reads at the chunk ends of that buffer, inside a single block, one
barrier per pass, so no global synchronization is needed; it stores one
base per chunk in a p-slot buffer. Its kernel is lane-form: unchecked,
one call runs the block, each pass reading and writing every lane's
shared slots with one slice per operand, the values exact Python ints
(i32) or np.float32 (f32); race-checked, each lane runs alone. Launch 3
sweeps down, overwriting each chunk with its running sums plus its
base. Launches 1 and 3 are :func:`simt.launch_rows` calls over the
elements in tiles of one chunk, so lane g owns chunk g. Each range call
sums into one workspace of its own hi - lo elements, int64 for i32 (so
integer scans are exact, and overflow raises) and float32 for f32, over
views of its full chunks and the short tail; the checked slice store
narrows it into the buffer. float32 scans follow this fixed chunked
summation order bit-for-bit.

Compaction is two row launches over the same chunks and no scan: lane
g counts chunk g's kept flags, then each gather call sums the p counts
into the chunks' output bases, reads the chunks holding its ranks with
one slice of values and one of flags, and selects the kept values
(Billeter, Olsson and Assarsson, HPG 2009).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simt import LaunchConfig, Session, as_dtype, ceil_div, check_int, lane_form, launch_rows, log2_ceil, run_rows

I32_MIN = -(2**31)
I32_MAX = 2**31 - 1


def partition_chunks(n: int, p: int) -> list[tuple[int, int]]:
    """Split [0, n) into p contiguous half-open ranges of ceil(n/p) elements.

    The first p-1 ranges have full length whenever that leaves work for
    the last one; ranges are clamped to n, so trailing ranges may be
    short or empty.
    """
    p = check_int("processor count p", p, 1)
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
        p = check_int("processor count p", p, 1)
        chunk = ceil_div(n, min(p, n))
        p_eff = ceil_div(n, chunk)
        return cls(p=p_eff, chunk=chunk, num_coop_passes=log2_ceil(p_eff))


def _check_i32(values, what: str = "scan result") -> None:
    if type(values) is int:  # a chunk base: compared as is, with no 0-d array
        bad = not I32_MIN <= values <= I32_MAX
    else:
        arr = np.asarray(values)
        bad = arr.size and (arr.min() < I32_MIN or arr.max() > I32_MAX)
    if bad:
        raise OverflowError(f"{what} exceeds the i32 range")


def _prepare(values, kind: str) -> tuple[str, np.ndarray]:
    """The buffer dtype name and the input as a flat f32 array for floats, else
    i32, by :func:`simt.as_dtype`, once ``kind`` and the shape are checked."""
    if kind not in ("inclusive", "exclusive"):
        raise ValueError(f"kind must be 'inclusive' or 'exclusive', got {kind!r}")
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"scan expects a flat buffer, got shape {arr.shape}")
    return as_dtype(arr, "f32" if arr.dtype.kind == "f" else "i32")


def _rows(x: np.ndarray, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of flat ``x`` as its full rows of ``chunk`` elements, then the
    short tail (maybe empty), as they lie in memory."""
    full = x.size - x.size % chunk
    return x[:full].reshape(-1, chunk), x[full:]


def _workspace(x: np.ndarray) -> np.ndarray:
    """A fresh array as long as ``x`` for one sweep's results: int64 for
    integers, so sums of i32 are exact, and float32 for floats."""
    return np.empty(x.size, np.float32 if x.dtype.kind == "f" else np.int64)


def _narrowable(ws: np.ndarray) -> np.ndarray:
    """``ws``, once an int64 workspace is checked to fit i32."""
    if ws.dtype == np.int64:
        _check_i32(ws)
    return ws


def _running_sums(vals: np.ndarray, chunk: int) -> np.ndarray:
    """Inclusive running sums within each ``chunk`` elements of ``vals`` (the
    last chunk may be short), in a fresh workspace; i32 sums are exact or
    raise. Each row is summed in order, so a float32 chunk sums as it does
    alone."""
    ws = _workspace(vals)
    ws[:] = vals  # cumsum would widen i32 into a copy of its own
    for rows in _rows(ws, chunk):
        np.cumsum(rows, axis=-1, out=rows)
    return _narrowable(ws)


def _exact(totals: np.ndarray) -> np.ndarray:
    """Chunk totals as the cooperative scan adds them, in an object array:
    i32 as Python ints, so sums of totals never wrap, f32 as np.float32."""
    return totals.astype(object) if totals.dtype.kind == "i" else np.fromiter(totals, object, totals.size)


def _as_base(value, dtype: str):
    """A scanned total, or an array of them, stored as chunk bases; an i32 base out of range raises."""
    if dtype == "i32":
        _check_i32(value)
        return np.int32(value)
    return np.float32(value)


def _chunk_out(sums: np.ndarray, bases, kind: str, chunk: int) -> np.ndarray:
    """The output of consecutive chunks, in a fresh workspace: each chunk's
    running sums plus its base, shifted one slot right behind the base for
    an exclusive scan. i32 results are exact or raise."""
    ws = _workspace(sums)
    base = np.asarray(bases, ws.dtype)
    rows = len(sums) // chunk
    for src, dst, b in zip(_rows(sums, chunk), _rows(ws, chunk), (base[:rows, None], base[rows:])):
        if kind == "inclusive":
            np.add(src, b, out=dst)
        else:
            dst[..., :1] = b
            np.add(src[..., :-1], b, out=dst[..., 1:])
    return _narrowable(ws)


def scan(values, kind: str = "inclusive", p: int = 8, session: Session | None = None) -> np.ndarray:
    """Prefix sum of a flat buffer: out[i] = sum(values[0..=i]) (inclusive)
    or sum(values[0..i)) with out[0] = 0 (exclusive).

    Runs as exactly three kernel launches (up-sweep, cooperative scan,
    down-sweep); the cooperative stage uses ceil(log2 p) barrier-separated
    passes. i32 input gives exact results or an OverflowError; f32 input
    is summed in the fixed chunked order described in the module docstring.
    """
    dtype, arr = _prepare(values, kind)
    n = arr.size
    if n == 0:
        return arr.copy()

    plan = ScanPlan.for_size(n, p)
    chunk = plan.chunk
    last = np.minimum(np.arange(1, plan.p + 1) * chunk, n) - 1  # each chunk's last element
    sess = session if session is not None else Session()

    vals = sess.alloc(n, dtype, name="scan_data")
    vals.load(arr)
    scanned = sess.alloc(plan.p, dtype, name="scan_bases")

    def chunk_sums(lo, hi):
        return _running_sums(vals[lo:hi], chunk)

    @lane_form
    def coop_scan(ctx):
        # Hillis-Steele over the chunk totals, double-buffered in shared storage: pass d adds element
        # i - 2**d into element i for the call's lanes lo..hi-1 at once, one slice per operand
        lo, hi, _ = ctx.lanes.indices(plan.p)
        ctx.add_work(max(1, plan.num_coop_passes))
        first = max(lo - 1, 0)  # pass 0 reads the lanes' chunk totals and lane lo's left neighbour's
        totals = _exact(vals[last[first:hi]])
        v = totals[lo - first :].copy()
        cur, nxt = 0, plan.p
        for d in range(plan.num_coop_passes):
            k = 1 << d
            a = max(lo, k)  # lanes a..hi-1 add
            if a < hi:
                left = totals[: hi - a] if d == 0 else ctx.shared[cur + a - k : cur + hi - k]
                v[a - lo :] += left
            ctx.shared[nxt + lo : nxt + hi] = v
            yield ctx.barrier()
            cur, nxt = nxt, cur
        a = max(lo, 1)  # lanes a..hi-1 take their left neighbour's sum, lane 0 takes 0
        base = np.zeros(hi - lo, object)
        base[a - lo :] = ctx.shared[cur + a - 1 : cur + hi - 1]
        scanned[lo:hi] = _as_base(base, dtype)

    def add_bases(lo, hi):
        return _chunk_out(vals[lo:hi], scanned[lo // chunk : ceil_div(hi, chunk)], kind, chunk)

    rows = LaunchConfig(grid=plan.p, block=1)
    launch_rows(sess, rows, vals, n, chunk_sums, tile=chunk)
    sess.launch(coop_scan, LaunchConfig(grid=1, block=plan.p, shared_slots=2 * plan.p))
    launch_rows(sess, rows, vals, n, add_bases, tile=chunk)
    return vals.to_numpy()


def scan_sequential(values, kind: str = "inclusive", p: int = 8) -> np.ndarray:
    """CPU realization of the same chunked summation order, no emulator.

    Runs the kernel's own input check and range helpers, so it is
    bitwise identical to :func:`scan` and raises where it raises, which
    keeps graph outputs independent of the device an operator lands on.
    """
    dtype, arr = _prepare(values, kind)
    n = arr.size
    if n == 0:
        return arr.copy()
    plan = ScanPlan.for_size(n, p)
    sums = _running_sums(arr, plan.chunk)
    cur = list(_exact(sums[[z - 1 for _, z in partition_chunks(n, plan.p)]]))
    for d in range(plan.num_coop_passes):
        stride = 1 << d
        cur = [cur[i] + cur[i - stride] if i >= stride else cur[i] for i in range(plan.p)]
    bases = [_as_base(v, dtype) for v in [0] + cur[:-1]]
    return _chunk_out(sums, bases, kind, plan.chunk).astype(arr.dtype, copy=False)


def compact(values, keep, p: int = 8, session: Session | None = None) -> tuple[np.ndarray, int]:
    """Keep ``values[i]`` where ``keep[i]``, preserving relative order.

    Lane g counts chunk g's kept flags, and the gather takes each chunk's
    output base from the prefix sums of those counts: two row launches,
    no scan. Returns (kept buffer, kept count).
    """
    arr, flags = np.asarray(values), as_dtype(keep, "bool")[1]
    if arr.shape != flags.shape or arr.ndim != 1:
        raise ValueError(f"values {arr.shape} and keep {flags.shape} must be equal-length flat buffers")
    dtype, arr = as_dtype(arr, "f32" if arr.dtype.kind == "f" else "i32")  # scan's rule
    n = arr.size
    if n == 0:
        return arr.copy(), 0
    sess = session if session is not None else Session()
    plan = ScanPlan.for_size(n, p)
    chunk = plan.chunk
    src, kept = sess.alloc(n, dtype, name="compact_in"), sess.alloc(n, "bool", name="compact_keep")
    src.load(arr)
    kept.load(flags)
    counts = sess.alloc(plan.p, "i32", name="compact_counts")

    def count(lo, hi):
        f = kept[lo * chunk : min(hi * chunk, n)]
        return np.add.reduceat(f, np.arange(0, f.size, chunk), dtype=np.int32)

    def gather(lo, hi):
        # ranks lo..hi-1 lie in chunks a..b, whose kept values start at rank ends[a] - c[a]
        c = counts[:]
        ends = np.cumsum(c)
        a, b = ends.searchsorted((lo, hi - 1), side="right").tolist()
        x0, x1, base = a * chunk, min((b + 1) * chunk, n), int(ends[a] - c[a])
        return src[x0:x1][kept[x0:x1]][lo - base : hi - base]

    rows = LaunchConfig(grid=plan.p, block=1)
    launch_rows(sess, rows, counts, plan.p, count)
    total = int(counts.to_numpy().sum())
    return run_rows(sess, rows, dtype, total, 1, gather, "compact_out").reshape(-1), total
