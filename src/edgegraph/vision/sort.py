"""Segmented argsort over a flattened array.

Variable-length segments are kept flat, with segment start offsets on
the side, and the flat array is chopped into equal-size sort blocks.
Every launch is one :func:`simt.launch_rows` call over the output slots
in tiles of one sort block, so lane g owns sort block g in every pass.
The first launch, one thread per block, sorts each block; merge pass k,
blocks of 2**k threads, leaves sorted runs of ``block << k`` slots, so
ceil(log2 num_blocks) merge passes sort every segment. Elements never
cross a segment boundary: a pass sorts each of its pieces, the part of
one segment that lies in one of the pass's runs.

A lane widens its rows to the run that holds them, ranks that run from
the previous pass's permutation, and keeps its own rows. Ranking a run
is a stable sort of each piece by (nan flag, value), and in a merge
pass that sort is the piece's merge. There a piece is at most two sorted
pieces of the previous pass, A before B. Equal keys sit in ascending
index order within each, and every index in A is below every index in
B, so the stable sort puts equal keys in index order: the strict order
(nan flag, value, index) that merging A and B gives. Ranks are
therefore stable, and the launches need no barrier and no shared
storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simt import GPU, LaunchConfig, Session, ceil_div, launch_rows, log2_ceil


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
    Any other ``order`` raises.
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"order must be 'ascending' or 'descending', got {order!r}")
    vals = np.asarray(values, dtype=np.float32)
    nan = np.isnan(vals)
    keyv = np.where(nan, np.float32(0), vals)
    if order == "descending":
        keyv = -keyv
    return nan.astype(np.int8), keyv


def _ranked(src, piece, nanflag, keyv, lo: int, hi: int) -> np.ndarray:
    """``src[lo:hi]`` stably sorted by (nan flag, value) of its entries
    within each run of equal ``piece``, which never decreases."""
    s = src[lo:hi]
    return s[np.lexsort((keyv[s], nanflag[s], piece[lo:hi]))]


def segmented_argsort(a: SegmentedArray, order: str = "ascending", block: int = 64,
                      session: Session | None = None) -> np.ndarray:
    """Stable per-segment argsort of a segmented array.

    Returns a flat int32 buffer where the slots of segment s hold a
    permutation of 0..len(s): position j gets the segment-relative index
    of the element ranked j in the requested order. Runs as one
    block-sort launch plus ceil(log2 num_blocks) merge launches; the
    result is independent of ``block``.
    """
    nanflag, keyv = _sort_keys(a.values, order)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    n = int(a.values.size)
    if n == 0:
        return np.zeros(0, dtype=np.int32)

    sess = session if session is not None else Session()
    slots = np.arange(n)
    seg = np.searchsorted(a.offsets, slots, side="right") - 1
    perms = [sess.alloc(n, "i32", device=GPU, name=f"sort_perm_{c}") for c in "ab"]
    src = slots
    for k in range(log2_ceil(ceil_div(n, block)) + 1):
        run = block << k  # sorted-run width this pass leaves
        # both terms never decrease, so runs of equal sum are the pass's
        # pieces: one (run, segment) pair each
        piece = slots // run + seg

        def rank(lo, hi):
            r0, r1 = lo - lo % run, min(n, ceil_div(hi, run) * run)
            return _ranked(src, piece, nanflag, keyv, r0, r1)[lo - r0 : hi - r0]

        dst = perms[k % 2]
        launch_rows(sess, LaunchConfig(grid=ceil_div(n, run), block=1 << k), dst, n, rank, tile=block)
        src = dst
    return (src.to_numpy() - a.offsets[seg]).astype(np.int32)


def argsort_sequential(values, order: str = "ascending", offsets=None) -> np.ndarray:
    """Per-segment stable argsort without the emulator.

    Uses the same key mapping and ``order`` check as the kernel path, so
    the (unique) permutation it returns is identical.
    """
    vals = np.asarray(values, dtype=np.float32).reshape(-1)
    offs = np.asarray(offsets if offsets is not None else [0, vals.size], dtype=np.int64)
    sa = SegmentedArray(values=vals, offsets=offs)
    nanflag, keyv = _sort_keys(sa.values, order)
    slots = np.arange(vals.size)
    seg = np.searchsorted(offs, slots, side="right") - 1
    return (_ranked(slots, seg, nanflag, keyv, 0, vals.size) - offs[seg]).astype(np.int32)
