"""Dense tensors and their JSON literals.

A tensor is a logical shape (NCHW extents for activations, OIHW for
weights), a dtype and a read-only flat value store in C order. No tensor
is stored in a packed order, so a tensor literal's ``layout`` is NCHW,
OIHW or absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .simt import DTYPES


@dataclass(frozen=True)
class Tensor:
    """Immutable dense array: logical shape + flat C-order store."""

    shape: tuple
    dtype: str
    data: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        if any(x < 1 for x in self.shape):
            raise ValueError(f"extents must be positive, got {self.shape}")
        if self.dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        n = int(np.prod(self.shape))
        flat = np.array(self.data, dtype=DTYPES[self.dtype]).reshape(-1)
        if flat.size != n:
            raise ValueError(f"data length {flat.size} != product(shape) {n}")
        flat.flags.writeable = False
        object.__setattr__(self, "data", flat)

    @classmethod
    def from_array(cls, array, dtype: str | None = None) -> "Tensor":
        """Tensor from an array, converted by :func:`as_dtype`."""
        dtype, arr = as_dtype(array, dtype)
        return cls(shape=arr.shape, dtype=dtype, data=arr)

    def to_array(self) -> np.ndarray:
        """Writable, C-contiguous, logically-shaped copy of the values."""
        return self.data.reshape(self.shape).copy()


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


def tensor_to_json(t: Tensor) -> str:
    """Tensor literal: {shape, dtype, layout, data:[...]} with C-order data."""
    record = {
        "shape": list(t.shape),
        "dtype": t.dtype,
        "layout": "NCHW",
        "data": [x.item() for x in t.data],
    }
    return json.dumps(record)


def tensor_from_json(text) -> Tensor:
    """Tensor from a literal whose ``layout``, if given, is NCHW or OIHW."""
    record = json.loads(text) if isinstance(text, str) else text
    if not isinstance(record, dict) or not isinstance(record.get("shape"), (list, tuple)):
        raise ValueError("tensor literal must be an object whose 'shape' is a list of extents")
    layout = record.get("layout", "NCHW")
    if layout not in ("NCHW", "OIHW"):
        raise ValueError(f"tensor literal layout {layout!r} is not NCHW or OIHW; packed layouts are not stored")
    return Tensor(shape=tuple(record["shape"]), dtype=record["dtype"], data=np.asarray(record["data"]))
