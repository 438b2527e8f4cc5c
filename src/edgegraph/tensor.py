"""Dense tensors with explicit physical layouts.

A tensor keeps its logical shape (NCHW extents for activations, OIHW
for weights) next to a flat value store whose physical ordering is
described by a :class:`LayoutTag`. Layout transformation is a pure
permutation of the flat store, so round trips are bitwise exact; there
is no implicit padding, and a packing factor that does not divide its
axis is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .simt import DTYPES, LaunchConfig, Session, check_int, run_rows

TILED_KINDS = {"NCHWc": 1, "OIHWo": 0}  # kind -> index of the packed logical axis
PLAIN_KINDS = ("NCHW", "OIHW")


class IncompatibleLayoutError(ValueError):
    """Layout's packing factor does not divide the packed axis extent."""


@dataclass(frozen=True)
class LayoutTag:
    """Physical ordering of a rank-4 tensor, e.g. NCHW or NCHWc(8)."""

    kind: str
    factor: int = 1

    def __post_init__(self):
        if self.kind in PLAIN_KINDS:
            if self.factor != 1:
                raise ValueError(f"{self.kind} carries no packing factor (got {self.factor})")
        elif self.kind in TILED_KINDS:
            if self.factor < 1:
                raise ValueError(f"packing factor must be >= 1, got {self.factor}")
        else:
            raise ValueError(f"unknown layout kind {self.kind!r}")

    @property
    def tiled(self) -> bool:
        return self.kind in TILED_KINDS

    def __str__(self) -> str:
        return f"{self.kind}{self.factor}" if self.tiled else self.kind

    @classmethod
    def parse(cls, text: str) -> "LayoutTag":
        text = text.strip()
        for kind in TILED_KINDS:
            if text.startswith(kind) and text[len(kind):].isdigit():
                return cls(kind, int(text[len(kind):]))
        if text in PLAIN_KINDS:
            return cls(text)
        raise ValueError(f"cannot parse layout tag {text!r}")


NCHW = LayoutTag("NCHW")
OIHW = LayoutTag("OIHW")


def _check_compatible(layout: LayoutTag, shape) -> None:
    if not layout.tiled:
        return
    if len(shape) != 4:
        raise IncompatibleLayoutError(f"tiled layout {layout} requires rank 4, got shape {tuple(shape)}")
    axis = TILED_KINDS[layout.kind]
    extent = shape[axis]
    if extent % layout.factor != 0:
        raise IncompatibleLayoutError(
            f"layout {layout}: factor {layout.factor} does not divide axis extent {extent} "
            f"of shape {tuple(shape)} (no implicit padding)"
        )


@dataclass(frozen=True)
class Tensor:
    """Immutable dense array: logical shape + flat store in ``layout`` order."""

    shape: tuple
    dtype: str
    layout: LayoutTag = NCHW
    data: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        if any(x < 1 for x in self.shape):
            raise ValueError(f"extents must be positive, got {self.shape}")
        if self.dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        _check_compatible(self.layout, self.shape)
        n = int(np.prod(self.shape))
        flat = np.array(self.data, dtype=DTYPES[self.dtype]).reshape(-1)
        if flat.size != n:
            raise ValueError(f"data length {flat.size} != product(shape) {n}")
        flat.flags.writeable = False
        object.__setattr__(self, "data", flat)

    @classmethod
    def from_array(cls, array, layout: LayoutTag = NCHW, dtype: str | None = None) -> "Tensor":
        """Tensor from a logically-shaped array, stored in ``layout`` order,
        converted by :func:`as_dtype`."""
        dtype, arr = as_dtype(array, dtype)
        _check_compatible(layout, arr.shape)
        flat = _to_physical(arr, layout).reshape(-1)
        return cls(shape=arr.shape, dtype=dtype, layout=layout, data=flat)

    def to_array(self) -> np.ndarray:
        """Logically-shaped (canonical-order) copy of the values."""
        return _to_logical(self.data, self.shape, self.layout)

    def read(self, index) -> np.generic:
        """Value at a logical multi-index, independent of physical layout."""
        return self.to_array()[tuple(index)]


def as_dtype(array, dtype: str | None = None) -> tuple:
    """``(dtype, array)``: the values as a ``dtype`` array, copied only if
    the dtype differs. With no ``dtype``, floats become f32, integers i32
    and bools bool; any other array raises ValueError, as does an integer
    value that does not fit i32."""
    arr = np.asarray(array)
    if dtype is None:
        dtype = {"f": "f32", "i": "i32", "u": "i32", "b": "bool"}.get(arr.dtype.kind)
        if dtype is None:
            raise ValueError(f"no tensor dtype for {arr.dtype} values; expected float, integer or bool")
    if dtype == "i32" and arr.dtype.kind in "iu" and not np.can_cast(arr.dtype, np.int32):
        bad = (arr < -2**31) | (arr >= 2**31)
        if bad.any():
            raise ValueError(f"{arr.dtype} value {arr.flat[np.argmax(bad)]} does not fit i32")
    return dtype, arr.astype(DTYPES[dtype], copy=False)


def _to_physical(logical: np.ndarray, layout: LayoutTag) -> np.ndarray:
    """Reorder a canonical logical array into the layout's physical order:
    split the packed axis into (extent // f, f), then move f last."""
    if not layout.tiled:
        return np.ascontiguousarray(logical)
    axis, f = TILED_KINDS[layout.kind], layout.factor
    shape = logical.shape
    split = logical.reshape(shape[:axis] + (shape[axis] // f, f) + shape[axis + 1:])
    return np.ascontiguousarray(np.moveaxis(split, axis + 1, -1))


def _to_logical(flat: np.ndarray, shape, layout: LayoutTag) -> np.ndarray:
    """Inverse of :func:`_to_physical`."""
    if not layout.tiled:
        return flat.reshape(shape).copy()
    axis, f = TILED_KINDS[layout.kind], layout.factor
    packed = flat.reshape(shape[:axis] + (shape[axis] // f,) + shape[axis + 1:] + (f,))
    return np.array(np.moveaxis(packed, -1, axis + 1), order="C").reshape(shape)


def layout_transform(t: Tensor, target: LayoutTag) -> Tensor:
    """Re-pack a tensor into ``target`` layout, preserving every logical value.

    Pure permutation of the flat store; the source tensor is unchanged
    and a round trip restores it bitwise.
    """
    _check_compatible(target, t.shape)
    if target == t.layout:
        return t
    logical = _to_logical(t.data, t.shape, t.layout)
    return Tensor(shape=t.shape, dtype=t.dtype, layout=target, data=_to_physical(logical, target).reshape(-1))


def _physical_permutation(src: LayoutTag, dst: LayoutTag, shape) -> np.ndarray:
    """perm such that dst_flat[i] = src_flat[perm[i]]."""
    n = int(np.prod(shape))
    # logical view whose element L holds L's physical position under src
    src_pos = _to_logical(np.arange(n, dtype=np.int64), shape, src)
    return _to_physical(src_pos, dst).reshape(-1)


def transform_kernel(t: Tensor, target: LayoutTag, session) -> Tensor:
    """Layout transform executed as an emulator kernel (gather by index).

    Same result as :func:`layout_transform`; exists so transform costs
    can be measured on the same execution model the operators use.
    """
    _check_compatible(target, t.shape)
    perm = _physical_permutation(t.layout, target, t.shape)
    n = perm.size
    src = session.alloc(n, t.dtype, name="lt_src")
    src.load(t.data)

    def transform(lo, hi):
        return src[perm[lo:hi]]

    data = run_rows(session, LaunchConfig(grid=1, block=min(8, n)), t.dtype, n, 1, transform, "lt_dst")
    return Tensor(shape=t.shape, dtype=t.dtype, layout=target, data=data)


def transform_cost(src: LayoutTag, dst: LayoutTag, shape, table: dict | None = None,
                   clock=None, repeats: int = 3) -> float:
    """Cost of re-packing a tensor of ``shape`` from ``src`` to ``dst``.

    Identity transforms cost 0. With ``table``, the entry keyed
    ``"src->dst"`` is returned verbatim. Otherwise the default is an
    abstract unit cost equal to the element count moved (symmetric in
    shape); pass ``clock`` (a ``perf_counter``-like callable) to time the
    transform running as an emulator kernel, taking the median of
    ``repeats`` runs.
    """
    _check_compatible(src, shape)
    _check_compatible(dst, shape)
    if src == dst:
        return 0.0
    if table is not None:
        key = f"{src}->{dst}"
        if key in table:
            return float(table[key])
        if "*" in table:
            return float(table["*"])
        raise KeyError(f"no transform-cost table entry for {key}")
    if clock is None:
        return float(np.prod(shape))
    repeats = check_int("repeats", repeats, 1)
    probe = Tensor.from_array(np.zeros(shape, dtype=np.float32), layout=src)
    samples = []
    for _ in range(repeats):
        session = Session()
        t0 = clock()
        transform_kernel(probe, dst, session)
        samples.append(clock() - t0)
    return float(np.median(samples))


def tensor_to_json(t: Tensor) -> str:
    """Tensor literal: {shape, dtype, layout, data:[...]} with physical-order data."""
    record = {
        "shape": list(t.shape),
        "dtype": t.dtype,
        "layout": str(t.layout),
        "data": [x.item() for x in t.data],
    }
    return json.dumps(record)


def tensor_from_json(text) -> Tensor:
    record = json.loads(text) if isinstance(text, str) else text
    return Tensor(
        shape=tuple(record["shape"]),
        dtype=record["dtype"],
        layout=LayoutTag.parse(record.get("layout", "NCHW")),
        data=np.asarray(record["data"]),
    )
