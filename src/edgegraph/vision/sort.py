"""Segmented argsort over a flattened array.

Variable-length segments are kept flat, with segment start offsets on
the side, and the flat array is chopped into equal-size sort blocks.
One launch sorts every block locally (respecting segment boundaries);
then a tree of merge passes doubles the cooperative width each round.
Elements never cross a segment boundary, and in each merge only the
segment spanning the active interface between two runs needs work; pairs
that are already ordered (or contain no spanning segment) are copied
through. Ranks are stable: equal keys keep their original order.

Each launch works from a plan computed once from the offsets with a
vectorized ``searchsorted``: the segment boundaries inside every sort
block, and for every merge group its interface and the window of the
segment spanning it. A merging block stages its window's keys in shared
storage, each thread copying its own share with one slice read, passes
one barrier, and then runs the Merge Path co-rank search (Green, McColl
and Bader, ICS 2012) and its slice of the merge on the staged keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simt import GPU, LaunchConfig, Session, ceil_div, log2_ceil


@dataclass(frozen=True)
class SegmentedArray:
    """Flat values plus ascending segment start offsets (sentinel = n)."""

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        offs = np.asarray(self.offsets, dtype=np.int64)
        if vals.ndim != 1 or offs.ndim != 1:
            raise ValueError("values and offsets must be flat")
        if offs.size < 1 or offs[0] != 0:
            raise ValueError("offsets must start at 0")
        if np.any(np.diff(offs) < 0):
            raise ValueError("offsets must be non-decreasing")
        if offs[-1] != vals.size:
            raise ValueError(f"offsets must end with the sentinel {vals.size}, got {offs[-1]}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def from_segments(cls, segments) -> "SegmentedArray":
        parts = [np.asarray(s, dtype=np.float32).reshape(-1) for s in segments]
        offsets = np.cumsum([0] + [p.size for p in parts])
        values = np.concatenate(parts) if parts else np.zeros(0, np.float32)
        return cls(values=values, offsets=offsets)

    @property
    def num_segments(self) -> int:
        return len(self.offsets) - 1

    def segment(self, s: int) -> np.ndarray:
        return self.values[self.offsets[s] : self.offsets[s + 1]]


def _sort_keys(values: np.ndarray, order: str):
    """Key arrays giving a strict total order: (nan-last flag, value, index).

    Descending negates the value key; NaNs sort last in either order.
    """
    vals = np.asarray(values, dtype=np.float32)
    nan = np.isnan(vals)
    keyv = np.where(nan, np.float32(0), vals)
    if order == "descending":
        keyv = -keyv
    return nan.astype(np.int8), keyv


def _corank(d: int, na: int, nb: int, win) -> int:
    """Split point: the first d merged elements take i from A, d-i from B.

    ``win`` holds A in ``win[:na]`` and B in ``win[na:na + nb]``.
    """
    lo, hi = max(0, d - nb), min(d, na)
    while lo < hi:
        i = (lo + hi) // 2
        if win[i] < win[na + d - i - 1]:
            lo = i + 1
        else:
            hi = i
    return lo


def segmented_argsort(a: SegmentedArray, order: str = "ascending", block: int = 64,
                      session: Session | None = None) -> np.ndarray:
    """Stable per-segment argsort of a segmented array.

    Returns a flat int32 buffer where the slots of segment s hold a
    permutation of 0..len(s): position j gets the segment-relative index
    of the element ranked j in the requested order. Runs as one
    block-sort launch plus ceil(log2 num_blocks) merge launches; the
    result is independent of ``block``.
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"order must be 'ascending' or 'descending', got {order!r}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    n = int(a.values.size)
    if n == 0:
        return np.zeros(0, dtype=np.int32)

    nanflag, keyv = _sort_keys(a.values, order)
    offsets = a.offsets
    num_blocks = ceil_div(n, block)
    sess = session if session is not None else Session()

    perm_a = sess.alloc(n, "i32", device=GPU, name="sort_perm_a")
    perm_b = sess.alloc(n, "i32", device=GPU, name="sort_perm_b")

    # per-launch plan: the segment boundaries strictly inside each block
    block_starts = np.arange(0, n, block)
    cut_lo = np.searchsorted(offsets, block_starts, side="right").tolist()
    cut_hi = np.searchsorted(offsets, np.minimum(block_starts + block, n), side="left").tolist()
    offs_l = offsets.tolist()

    def block_sort(ctx):
        b = ctx.block_id
        a0 = b * block
        z0 = min(a0 + block, n)
        ctx.add_work(z0 - a0)
        bounds = [a0] + offs_l[cut_lo[b] : cut_hi[b]] + [z0]
        for u, w in zip(bounds, bounds[1:]):
            if w - u <= 0:
                continue
            ranked = np.lexsort((keyv[u:w], nanflag[u:w]))  # stable: ties keep index order
            perm_a[u:w] = (u + ranked).astype(np.int32)

    sess.launch(block_sort, LaunchConfig(grid=num_blocks, block=1))

    # each slot's key as a plain tuple; the float32 -> float widening is
    # exact and the slot index breaks ties, so the order is strict
    keys = list(zip(nanflag.tolist(), keyv.tolist(), range(n)))
    src, dst = perm_a, perm_b
    for k in range(log2_ceil(num_blocks)):
        run = (1 << k) * block  # sorted-run width entering this pass
        coop = 1 << (k + 1)  # threads cooperating per merged pair
        _merge_pass(sess, src, dst, keys, offsets, n, run, coop)
        src, dst = dst, src

    return src.to_numpy() - _segment_starts(offsets, n)


def _segment_starts(offsets: np.ndarray, n: int) -> np.ndarray:
    """For every slot, the start offset of the segment owning it."""
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    seg = np.searchsorted(offsets, np.arange(n), side="right") - 1
    return offsets[seg].astype(np.int32)


def _merge_plan(offsets: np.ndarray, n: int, run: int) -> list:
    """Per merge group: (u0, m, u1) of the window [u0, u1) around its run
    interface m, where one segment strictly contains m; None elsewhere."""
    g0 = np.arange(0, n, 2 * run)
    m = g0 + run
    s = np.minimum(np.searchsorted(offsets, m, side="right") - 1, len(offsets) - 2)
    start, stop = offsets[s], offsets[s + 1]
    u0 = np.maximum(start, g0).tolist()
    u1 = np.minimum(stop, g0 + 2 * run).tolist()  # stop <= n
    spans = ((start < m) & (m < stop)).tolist()
    return [(a, c, z) if ok else None for ok, a, c, z in zip(spans, u0, m.tolist(), u1)]


def _merge_pass(sess, src, dst, keys, offsets, n, run, coop):
    plan = _merge_plan(offsets, n, run)

    def merge(ctx):
        t = ctx.thread_id
        g0 = ctx.block_id * 2 * run
        size = min(2 * run, n - g0)
        c0 = g0 + (size * t) // coop
        c1 = g0 + (size * (t + 1)) // coop
        span = plan[ctx.block_id]
        if span is not None:
            # adjacent runs of one segment may already be in order
            last_a, first_b = src[span[1] - 1 : span[1] + 1].tolist()
            if keys[last_a] < keys[first_b]:
                span = None
        # each thread reads its share of the group with one slice read
        share = src[c0:c1]
        if not ctx.guard(span is not None):
            dst[c0:c1] = share
            ctx.add_work(c1 - c0)
            return
        u0, m, u1 = span
        # the parts of the share outside the window [u0, u1) are copied
        # through; the part inside is staged in shared storage, where A
        # sits at [0, na) and B at [na, total)
        lo, hi = max(c0, u0), min(c1, u1)
        if c0 < u0:
            z = min(c1, u0)
            dst[c0:z] = share[: z - c0]
        if c1 > u1:
            a = max(c0, u1)
            dst[a:c1] = share[a - c0 :]
        ctx.add_work(c1 - c0 - max(0, hi - lo))
        win = ctx.shared
        if hi > lo:
            win[lo - u0 : hi - u0] = [keys[s] for s in share[lo - c0 : hi - c0].tolist()]
        yield ctx.barrier()
        total, na = u1 - u0, m - u0
        d0 = (total * t) // coop
        d1 = (total * (t + 1)) // coop
        if d1 > d0:
            i0 = _corank(d0, na, total - na, win)
            i1 = _corank(d1, na, total - na, win)
            j0, j1 = d0 - i0, d1 - i1
            # the output window [d0, d1) consumes exactly A[i0:i1) and
            # B[j0:j1); the keys are distinct, so sorting the two runs
            # together gives their merge
            merged = sorted(win[i0:i1] + win[na + j0 : na + j1])
            dst[u0 + d0 : u0 + d1] = [key[2] for key in merged]
            ctx.add_work(d1 - d0)

    sess.launch(merge, LaunchConfig(grid=len(plan), block=coop, shared_slots=2 * run))


def argsort_sequential(values, order: str = "ascending", offsets=None) -> np.ndarray:
    """Per-segment stable argsort without the emulator.

    Uses the same key mapping as the kernel path, so the (unique)
    permutation it returns is identical.
    """
    vals = np.asarray(values, dtype=np.float32).reshape(-1)
    offs = np.asarray(offsets if offsets is not None else [0, vals.size], dtype=np.int64)
    sa = SegmentedArray(values=vals, offsets=offs)
    nanflag, keyv = _sort_keys(sa.values, order)
    out = np.zeros(vals.size, dtype=np.int32)
    for s in range(sa.num_segments):
        u, w = int(offs[s]), int(offs[s + 1])
        if w > u:
            out[u:w] = np.lexsort((keyv[u:w], nanflag[u:w]))
    return out
