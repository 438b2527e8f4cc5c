"""Direct 2-D convolution with a parameterized schedule template.

The template carries the three schedule knobs that matter on block/thread
hardware: output channels split into groups that map to parallel blocks,
the feature-map height split that adds more blocks, and unrolling of the
reduction nest, plus a column tile and an emulated SIMD width that set
the per-block thread count. Splits must divide their axis exactly; a
config that does not fit its workload is rejected, never clamped.

``conv2d_reference`` is the oracle: a textbook direct convolution with a
fixed (r, s, c ascending) accumulation order per output element. The
scheduled kernel and ``conv2d_host``, its arithmetic without the emulator,
share one region body that keeps that order, so both match it bitwise.
The region's gather plan is kept for the 32 most recently used workloads.
The kernel's lane plan, its launch config and every lane's guard and work
count, depends only on the launch geometry (blocks, threads, output width,
cells per column), so configs that differ only in unroll, and workloads of
one output shape, share it; it is filled one block's row at a time and kept
for the 32 most recently used geometries of at most ``simt.PLAN_LANES``
lanes. Each call indexes that plan by its lanes, race-checked or not.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .simt import PLAN_LANES, LaunchConfig, Session, as_dtype, canonical_nan, check_int, lane_form


class ScheduleRejectedError(ValueError):
    """Schedule config violates a divisibility constraint of the workload."""


@dataclass(frozen=True)
class ConvWorkload:
    """Shape of one convolution: input extents, filter extents, and strides."""

    n: int
    c: int
    h: int
    w: int
    k: int
    r: int
    s: int
    stride: tuple = (1, 1)
    pad: tuple = (0, 0)
    dilation: tuple = (1, 1)
    groups: int = 1

    def __post_init__(self):
        for name, low in (("stride", 1), ("pad", 0), ("dilation", 1)):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name} must be a pair, got {pair!r}")
            pair = tuple(check_int(f"{name}[{i}]", x, low) for i, x in enumerate(pair))
            object.__setattr__(self, name, pair)
        for name in ("n", "c", "h", "w", "k", "r", "s", "groups"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if self.c % self.groups or self.k % self.groups:
            raise ValueError(f"c={self.c} and k={self.k} must be divisible by groups={self.groups}")
        if self.oh < 1 or self.ow < 1:
            raise ValueError(f"output extents must be >= 1, got oh={self.oh} ow={self.ow}")

    # oh, ow and the key are worked out once per workload; they are not fields, so
    # equality, hash and repr do not see them
    @functools.cached_property
    def oh(self) -> int:
        return (self.h + 2 * self.pad[0] - self.dilation[0] * (self.r - 1) - 1) // self.stride[0] + 1

    @functools.cached_property
    def ow(self) -> int:
        return (self.w + 2 * self.pad[1] - self.dilation[1] * (self.s - 1) - 1) // self.stride[1] + 1

    def key(self) -> str:
        """Canonical records-database key, bit-exact."""
        return self._key

    @functools.cached_property
    def _key(self) -> str:
        return (
            f"conv2d/{self.n}-{self.c}-{self.h}-{self.w}/{self.k}-{self.r}-{self.s}/"
            f"{self.stride[0]}x{self.stride[1]}/{self.pad[0]}x{self.pad[1]}/"
            f"{self.dilation[0]}x{self.dilation[1]}/{self.groups}"
        )

    @classmethod
    def from_key(cls, key: str) -> "ConvWorkload":
        """The workload whose key() is ``key`` with surrounding whitespace stripped; other text raises."""
        m = re.fullmatch("conv2d/{0}-{0}-{0}-{0}/{0}-{0}-{0}/{0}x{0}/{0}x{0}/{0}x{0}/{0}".format("(0|[1-9][0-9]*)"),
                         key.strip())
        if m is None:
            raise ValueError(f"malformed workload key {key!r}")
        n, c, h, w, k, r, s, sh, sw, ph, pw, dh, dw, groups = map(int, m.groups())
        return cls(n, c, h, w, k, r, s, (sh, sw), (ph, pw), (dh, dw), groups)


@dataclass(frozen=True)
class ScheduleConfig:
    """One point of the schedule space.

    oc_split groups the output channels (one block per group), h_split
    cuts the output height into bands (more blocks), w_tile and vec set
    the per-block thread count over the column domain, unroll marks the
    reduction nest unrolled, which the proxy timer charges less per MAC
    (the accumulation order is the same either way). vec must divide
    oc_split; every split must divide its axis.
    """

    oc_split: int = 1
    h_split: int = 1
    w_tile: int = 1
    unroll: int = 0
    vec: int = 1

    def __post_init__(self):
        for name in ("oc_split", "h_split", "w_tile", "unroll", "vec"):
            if type(value := getattr(self, name)) is not int or value < 1:  # 2.0 and np.int64(2) become 2
                object.__setattr__(self, name, check_int(name, value, int(name != "unroll")))
        if self.unroll > 1:
            raise ValueError(f"unroll must be 0 or 1, got {self.unroll}")
        if self.oc_split % self.vec:
            raise ValueError(f"vec={self.vec} must divide oc_split={self.oc_split}")

    def validate_for(self, wl: ConvWorkload) -> None:
        if wl.k % self.oc_split:
            raise ScheduleRejectedError(f"oc_split={self.oc_split} does not divide k={wl.k}")
        if wl.oh % self.h_split:
            raise ScheduleRejectedError(f"h_split={self.h_split} does not divide oh={wl.oh}")
        if wl.ow % self.w_tile:
            raise ScheduleRejectedError(f"w_tile={self.w_tile} does not divide ow={wl.ow}")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleConfig":
        """The config of as_dict's five int fields; a missing, extra or non-int field raises."""
        if d.keys() != (names := cls.__dataclass_fields__.keys()):
            raise ValueError(f"schedule config must hold exactly {list(names)}: missing "
                             f"{[n for n in names if n not in d]}, extra {[k for k in d if k not in names]}")
        if any(type(v) is not int for v in d.values()):
            raise ValueError(f"schedule fields must be ints, got {d}")
        return cls(**d)


def _operands(inp, wgt, wl: ConvWorkload):
    """``inp`` as contiguous float32, zero-padded by ``wl.pad`` on both sides of
    H and W, and ``wgt`` as float32, once both shapes are checked against ``wl``."""
    inp, wgt = as_dtype(inp, "f32")[1], as_dtype(wgt, "f32")[1]
    if inp.shape != (wl.n, wl.c, wl.h, wl.w):
        raise ValueError(f"input shape {inp.shape} does not match workload {(wl.n, wl.c, wl.h, wl.w)}")
    if wgt.shape != (wl.k, wl.c // wl.groups, wl.r, wl.s):
        raise ValueError(
            f"weight shape {wgt.shape} does not match workload {(wl.k, wl.c // wl.groups, wl.r, wl.s)}"
        )
    ph, pw = wl.pad
    if ph == 0 and pw == 0:
        return np.ascontiguousarray(inp), wgt
    x = np.zeros((wl.n, wl.c, wl.h + 2 * ph, wl.w + 2 * pw), np.float32)  # np.pad costs ~15x more
    x[:, :, ph : ph + wl.h, pw : pw + wl.w] = inp
    return x, wgt


def conv2d_reference(inp, wgt, wl: ConvWorkload) -> np.ndarray:
    """Direct convolution, f32 accumulate, fixed (r, s, c ascending) order, NaNs made canonical."""
    x, wgt = _operands(inp, wgt, wl)
    sh, sw = wl.stride
    dh, dw = wl.dilation
    oh, ow = wl.oh, wl.ow
    cg = wl.c // wl.groups
    kg = wl.k // wl.groups
    out = np.zeros((wl.n, wl.k, oh, ow), np.float32)
    for ni in range(wl.n):
        for ki in range(wl.k):
            g = ki // kg
            acc = np.zeros((oh, ow), np.float32)
            for ri in range(wl.r):
                for si in range(wl.s):
                    for ci in range(cg):
                        patch = x[
                            ni,
                            g * cg + ci,
                            ri * dh : ri * dh + (oh - 1) * sh + 1 : sh,
                            si * dw : si * dw + (ow - 1) * sw + 1 : sw,
                        ]
                        acc += patch * wgt[ki, ci, ri, si]
            out[ni, ki] = acc
    return canonical_nan(out)


@functools.lru_cache(maxsize=32)
def _tap_plan(wl: ConvWorkload):
    """Per group, the flat padded-input index of every tap of the whole output in
    the reference's (r, s, c ascending) order, shaped (groups, r*s*cg, n, 1, oh,
    ow), and the flat index of every output cell; read-only, kept for the 32
    most recently used workloads."""
    # input rows under each filter row, (r, oh); columns under each filter column, (s, ow)
    iy = (np.arange(wl.r) * wl.dilation[0])[:, None] + np.arange(wl.oh) * wl.stride[0]
    ix = (np.arange(wl.s) * wl.dilation[1])[:, None] + np.arange(wl.ow) * wl.stride[1]
    hp, wp = wl.h + 2 * wl.pad[0], wl.w + 2 * wl.pad[1]
    xi = np.arange(wl.n * wl.c * hp * wp).reshape(wl.n, wl.groups, wl.c // wl.groups, hp, wp)
    taps = xi[..., iy[:, None, :, None], ix[None, :, None, :]]  # (n, group, c, r, s, oh, ow)
    plan = (taps.transpose(1, 3, 4, 2, 0, 5, 6).reshape(wl.groups, -1, wl.n, 1, wl.oh, wl.ow),
            np.arange(wl.n * wl.k * wl.oh * wl.ow).reshape(wl.n, wl.k, wl.oh, wl.ow))
    for a in plan:
        a.flags.writeable = False
    return plan


def _region(x, wgt, wl: ConvWorkload, ks: slice, ys: slice, xs: slice) -> np.ndarray:
    """Output channels ``ks``, rows ``ys`` and columns ``xs`` of every image,
    from the padded input ``x`` and the weights ``wgt``, flat or shaped.

    The region's taps come in one ``take`` through the workload's tap plan.
    Every (n, output channel) plane is summed at once, one run per group its
    channels fall in, adding the products one at a time in the reference's
    (r, s, c ascending) order, so each cell is the reference's bitwise, NaNs made canonical.
    numpy adds along the slow axis of a C-ordered array that way (only a fast axis gets
    pairwise summation), and the zeroed run then takes the sum as the reference's
    zero-started accumulator would; a lone cell, whose taps are its fast axis, loops."""
    kg = wl.k // wl.groups
    g0, g1 = ks.start // kg, (ks.stop - 1) // kg + 1
    taps = x.take(_tap_plan(wl)[0][g0:g1, ..., ys, xs])
    w4 = wgt.reshape(wl.k, wl.c // wl.groups, wl.r, wl.s)
    acc = np.zeros((wl.n, ks.stop - ks.start, *taps.shape[-2:]), np.float32)
    for g in range(g0, g1):
        k0, k1 = max(ks.start, g * kg), min(ks.stop, (g + 1) * kg)
        wts = w4[k0:k1].transpose(2, 3, 1, 0).reshape(-1, 1, k1 - k0, 1, 1)
        run = acc[:, k0 - ks.start : k1 - ks.start]
        prods = np.multiply(taps[g - g0], wts, order="C")
        if run.size > 1:
            run += np.add.reduce(prods, axis=0)
        else:
            for prod in prods:
                run += prod
    return canonical_nan(acc)


@functools.lru_cache(maxsize=32)
def _lane_plan(blocks: int, threads: int, ow: int, cells: int):
    """The scheduled kernel's launch config of ``blocks`` blocks of ``threads``, the work
    count of every lane, block-major, lane t of a block owning columns t, t + threads, ...
    below ``ow`` and ``cells`` cells in each, and its guard (work above 0, so t below ow);
    read-only, kept for the 32 most recently used geometries of ``PLAN_LANES`` lanes or fewer."""
    q, m = divmod(ow, threads)  # lanes t < m of a block own q + 1 columns, the others q
    work = np.empty((blocks, threads), np.int64)
    work[:, :m], work[:, m:] = (q + 1) * cells, q * cells
    work = work.reshape(-1)
    guard = work > 0
    guard.flags.writeable = work.flags.writeable = False
    return LaunchConfig(blocks, threads), guard, work


def conv2d_host(inp, wgt, wl: ConvWorkload) -> np.ndarray:
    """The scheduled kernel's arithmetic over the whole output, without the
    emulator: bitwise equal to the reference and to every schedule."""
    x, wgt = _operands(inp, wgt, wl)
    return _region(x, wgt, wl, slice(0, wl.k), slice(0, wl.oh), slice(0, wl.ow))


def conv2d_scheduled(inp, wgt, wl: ConvWorkload, cfg: ScheduleConfig,
                     session: Session | None = None) -> np.ndarray:
    """Convolution through the emulator under a schedule config.

    The launch uses grid = oc_split * h_split blocks; each block's
    w_tile * vec threads share the columns of the block's channel group
    and height band, thread t owning columns t, t + block, .... The
    kernel is lane-form: one call computes the output region its lanes
    own. A call over every lane stores the whole output with one checked
    slice write; a one-lane call, as race check makes of a launch of more
    lanes, stores its cells with one checked index-array write, so the
    check sees every cell a thread writes. The region's arithmetic is
    :func:`conv2d_host`'s, so results agree with the reference bitwise.
    """
    x, wgt = _operands(inp, wgt, wl)
    cfg.validate_for(wl)
    sess = session if session is not None else Session()

    oh, ow = wl.oh, wl.ow
    k_per_block, band, threads = wl.k // cfg.oc_split, oh // cfg.h_split, cfg.w_tile * cfg.vec
    grid = cfg.oc_split * cfg.h_split
    plan = _lane_plan if grid * threads <= PLAN_LANES else _lane_plan.__wrapped__
    config, guard, work = plan(grid, threads, ow, wl.n * k_per_block * band)

    xbuf = sess.alloc(x.size, "f32", name="conv_in")
    xbuf.load(x.reshape(-1))
    wbuf = sess.alloc(wgt.size, "f32", name="conv_w")
    wbuf.load(wgt.reshape(-1))
    obuf = sess.alloc(wl.n * wl.k * oh * ow, "f32", name="conv_out")

    @lane_form
    def kernel(ctx):
        live = ctx.guard(guard[ctx.lanes])
        ctx.add_work(work[ctx.lanes])
        # a call over every lane stores the whole output; a one-lane call its block's cells t::threads
        if live.size == guard.size:
            obuf[:] = _region(xbuf[:], wbuf[:], wl, slice(0, wl.k), slice(0, oh), slice(0, ow)).reshape(-1)
        elif live[0]:
            b, t = int(ctx.block_id[0]), int(ctx.thread_id[0])
            kb, y0 = (b // cfg.h_split) * k_per_block, (b % cfg.h_split) * band
            ks, ys, xs = slice(kb, kb + k_per_block), slice(y0, y0 + band), slice(t, ow, threads)
            obuf[_tap_plan(wl)[1][:, ks, ys, xs]] = _region(xbuf[:], wbuf[:], wl, ks, ys, xs)

    sess.launch(kernel, config)
    return obuf.to_numpy().reshape(wl.n, wl.k, oh, ow)


def _divisors(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


# emulated SIMD widths a schedule may pick
VEC_OPTIONS = (1, 4, 8)


def schedule_rows(k: int, oh: int, ow: int) -> np.ndarray:
    """Every valid config of a workload of output shape (k, oh, ow) as an int row
    (oc_split, h_split, w_tile, unroll, vec), in a fixed enumeration order.

    Cartesian product of divisors(k) x divisors(oh) x divisors(ow) x
    unroll {0, 1} x (VEC_OPTIONS intersected with divisors(oc_split)).
    The all-ones default is always the first row.
    """
    grid = np.meshgrid(_divisors(k), _divisors(oh), _divisors(ow), (0, 1), VEC_OPTIONS, indexing="ij")
    rows = np.stack(grid, axis=-1).reshape(-1, 5)
    return rows[rows[:, 0] % rows[:, 4] == 0]


def schedule_space(wl: ConvWorkload) -> list[ScheduleConfig]:
    """All valid configs for a workload, in :func:`schedule_rows` order."""
    return [ScheduleConfig(*row) for row in schedule_rows(wl.k, wl.oh, wl.ow).tolist()]
