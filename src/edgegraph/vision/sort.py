"""Segmented argsort over a flattened array.

Variable-length segments are kept flat, with segment start offsets on
the side, and the flat array is chopped into equal-size sort blocks.
Every launch is one :func:`simt.launch_rows` call over the output slots
in tiles of one sort block, so lane g owns sort block g in every pass.
The first launch, one thread per block, sorts each block; merge pass k,
blocks of min(8**k, num_blocks) threads, merges up to ``WAYS`` = 8 runs
of the previous pass into sorted runs of ``block * 8**k`` slots, so
ceil(log8 num_blocks) merge passes sort every segment. Elements never
cross a segment boundary: a pass sorts each of its pieces, the part of
one segment that lies in one of the pass's runs.

A lane widens its rows to the run that holds them, ranks that run from the
previous pass's permutation, and keeps its own rows. Ranking a run is one
stable sort of packed int64 keys: the piece id above bit 33, the nan flag
at bit 32 and an order-preserving image of the float32 value below it; the
piece id is the element's segment, in its key from the start, plus its run
in the pass, which an element never leaves, so a pass adds it to the keys
once (none if one run holds every slot). In a merge pass a piece is at
most ``WAYS`` sorted pieces of the previous pass, in index order. Equal
keys sit in ascending index order within each, and every index in one
piece is below every index in the pieces after it, so the stable sort puts
equal keys in index order, as merging the pieces does. numpy's stable
int64 sort is a timsort, which finds the pieces as runs and merges them,
so a call's merge work is about n log2(num_blocks) whatever the fan-in,
and fewer, wider passes save each pass's fixed cost. Ranks are therefore
stable, and the launches need no barrier and no shared storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simt import LaunchConfig, Session, as_dtype, ceil_div, check_int, launch_rows

WAYS = 8  # runs a merge pass merges into one


@dataclass(frozen=True)
class SegmentedArray:
    """Flat values plus ascending segment start offsets (sentinel = n)."""

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        offs = np.asarray(self.offsets)
        if vals.ndim != 1 or offs.ndim != 1:
            raise ValueError("values and offsets must be flat")
        if offs.size and offs.dtype.kind not in "iu":
            raise ValueError(f"offsets must be integers, got dtype {offs.dtype}")
        offs = offs.astype(np.int64)
        if offs.size < 1 or offs[0] != 0:
            raise ValueError("offsets must start at 0")
        if np.count_nonzero(offs[1:] < offs[:-1]):
            raise ValueError("offsets must be non-decreasing")
        if offs[-1] != vals.size:
            raise ValueError(f"offsets must end with the sentinel {vals.size}, got {offs[-1]}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def from_segments(cls, segments) -> "SegmentedArray":
        parts = [as_dtype(s, "f32")[1].reshape(-1) for s in segments]
        offsets = np.cumsum([0] + [p.size for p in parts])
        values = np.concatenate(parts) if parts else np.zeros(0, np.float32)
        return cls(values=values, offsets=offsets)

    @property
    def num_segments(self) -> int:
        return len(self.offsets) - 1


def ordered_bits(vals: np.ndarray) -> np.ndarray:
    """int64 image in [0, 2**32) of float32 ``vals`` ordered as they are, -0 below +0:
    a negative value's bits flip whole, a non-negative one's sign bit sets."""
    flip = (vals.view(np.int32) >> 31).view(np.uint32) | np.uint32(1 << 31)
    return (vals.view(np.uint32) ^ flip).astype(np.int64)


def _keyed(a: SegmentedArray, order: str):
    """(slots, segment of each slot, sort key of each slot) of ``a``.

    A key is an int64 ordered by (segment, nan-last flag, value), -0 ==
    +0: the segment above bit 33, the nan flag at bit 32 and an
    order-preserving uint32 image of the value (0 for a nan) below it.
    Descending negates the value. Any other ``order`` raises, as does an
    array whose piece ids, each below elements + segments, would not fit
    above the 33 key bits, one that :func:`simt.as_dtype` does not take
    into f32, or one of integers float32 does not hold exactly.
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"order must be 'ascending' or 'descending', got {order!r}")
    n = int(a.values.size)
    if n + a.num_segments > 1 << 30:  # so (piece << 33) | key < 2**63
        raise ValueError(f"argsort of {n} elements in {a.num_segments} segments overflows its "
                         f"packed int64 sort key: elements + segments must be at most 2**30")
    slots = np.arange(n)
    vals = as_dtype(a.values, "f32")[1]
    if a.values.dtype.kind in "iu":
        with np.errstate(invalid="ignore"):  # a cast back out of range is lossy too
            lossy = vals.astype(a.values.dtype) != a.values
        if lossy.any():
            raise ValueError(f"integer value {a.values[lossy][0]} does not round-trip through "
                             f"float32, the argsort key, so it could tie with a neighbour")
    # adding to or subtracting from +0 also turns -0 into +0, so they tie
    vals = np.float32(0) - vals if order == "descending" else vals + np.float32(0)
    key = ordered_bits(vals)
    key[np.isnan(vals)] = 1 << 32
    seg = a.offsets[1:-1].searchsorted(slots, "right")
    key |= seg << 33
    return slots, seg, key


def segmented_argsort(a: SegmentedArray, order: str = "ascending", block: int = 64,
                      session: Session | None = None) -> np.ndarray:
    """Stable per-segment argsort of a segmented array.

    Returns a flat int32 buffer where the slots of segment s hold a
    permutation of 0..len(s): position j gets the segment-relative index
    of the element ranked j in the requested order. Runs as one
    block-sort launch plus ceil(log8 num_blocks) merge launches; the
    result is independent of ``block``.
    """
    slots, seg, key = _keyed(a, order)
    block = check_int("block", block, 1)
    n = slots.size
    if n == 0:
        return np.zeros(0, dtype=np.int32)

    sess = session if session is not None else Session()
    perms = sess.alloc(n, "i32", name="sort_perm_a"), sess.alloc(n, "i32", name="sort_perm_b")
    src = slots
    sort_blocks = ceil_div(n, block)
    fans = [1]  # pass k leaves runs of WAYS**k sort blocks, the last one of them all
    while fans[-1] < sort_blocks:
        fans.append(fans[-1] * WAYS)
    for k, fan in enumerate(fans):
        run = block * fan  # sorted-run width this pass leaves
        # an element's run, its slot's sort block // fan, adds to its segment above bit 33;
        # both never decrease, so elements of equal sum there are the pass's pieces
        pkey = key + (slots // run << 33) if run < n else key

        def rank(lo, hi):
            r0, r1 = lo - lo % run, min(n, ceil_div(hi, run) * run)
            s = src[r0:r1]
            return s[pkey[s].argsort(kind="stable")][lo - r0 : hi - r0]

        dst = perms[k % 2]
        cfg = LaunchConfig(grid=ceil_div(n, run), block=min(fan, sort_blocks))
        launch_rows(sess, cfg, dst, n, rank, tile=block)
        src = dst
    return (src.to_numpy() - a.offsets[seg]).astype(np.int32)


def argsort_sequential(values, order: str = "ascending", offsets=None) -> np.ndarray:
    """Per-segment stable argsort without the emulator.

    Takes flat ``values`` and sorts the kernel path's checked keys in one
    stable sort, so the (unique) permutation it returns is identical.
    """
    vals = np.asarray(values)
    sa = SegmentedArray(values=vals, offsets=offsets if offsets is not None else [0, vals.size])
    _, seg, key = _keyed(sa, order)
    return (key.argsort(kind="stable") - sa.offsets[seg]).astype(np.int32)
