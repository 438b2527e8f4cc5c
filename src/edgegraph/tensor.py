"""Dense tensors and their JSON literals.

A tensor is a logical shape (NCHW extents for activations, OIHW for
weights), a dtype and a read-only flat value store in C order. No tensor
is stored in a packed order, so a tensor literal's ``layout`` is NCHW,
OIHW or absent.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .simt import DTYPES, check_int

SHAPE, DTYPE, FINITE, F32 = [range(1, 2**31)], tuple(DTYPES), "finite", "f32"  # check_json specs, see there
_DATA = {"f32": F32, "i32": range(-2**31, 2**31), "bool": bool}  # the spec of a literal's datum per dtype
F32_OVERFLOW = 2.0**128 - 2.0**103  # the least magnitude that rounds to ±Infinity in f32


@dataclass(frozen=True)
class Tensor:
    """Immutable dense array: logical shape + flat C-order store."""

    shape: tuple
    dtype: str
    data: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        shape = tuple(check_int("extent", x, float("-inf"), "an integer") for x in self.shape)
        object.__setattr__(self, "shape", shape)
        if any(x < 1 for x in self.shape):
            raise ValueError(f"extents must be positive, got {self.shape}")
        if self.dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        n = int(np.prod(self.shape))
        flat = np.array(self.data, dtype=DTYPES[self.dtype]).reshape(-1)
        if flat.size != n:
            raise ValueError(f"data length {flat.size} != product(shape) {n}")
        flat.setflags(write=False)
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


def check_json(value, spec, doc: str, path: str = "", error=ValueError):
    """``value`` if it has the JSON shape ``spec``, else ``error("<doc>: <path> must be <what>, got <value!r>")``
    (for the whole document, ``"<doc> must be a JSON <type>, got <type>"``). A spec is ``str``, ``bool``, ``FINITE``
    (a finite number), ``F32`` (NaN, ±Infinity or a finite number that stays finite in f32), a ``range`` of ints, a
    tuple of strings, ``[spec]``, ``{str: spec}`` (free keys) or ``{key: spec}`` (named keys, ``key?`` optional,
    others ignored). A bool is never an int or a number, nor is an int past the float range a number."""
    if isinstance(spec, (list, dict)):
        ok, what = isinstance(value, type(spec)), "a list" if isinstance(spec, list) else "an object"
        items = (dict(enumerate(value)) if isinstance(value, list) else value) if ok else {}
        free = spec[0] if isinstance(spec, list) else spec.get(str)  # the spec of every item, if one is
        named = dict.fromkeys(items, free) if free is not None else {
            key.removesuffix("?"): sub for key, sub in spec.items() if not key.endswith("?") or key[:-1] in items}
        for key, sub in named.items() if ok else ():
            check_json(items.get(key), sub, doc, json_path(path, key), error)
    elif isinstance(spec, (tuple, range)):  # allowed strings or ints
        ok = type(value) is type(spec[0]) and value in spec
        what = f"one of {', '.join(spec)}" if isinstance(spec, tuple) else f"an integer from {spec[0]} to {spec[-1]}"
    elif spec in (str, bool):
        ok, what = type(value) is spec, "a string" if spec is str else "a bool"
    else:  # NaN and ±Infinity fail the bounds; an F32 spec lets them through
        finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
        ok = (finite and (spec == FINITE or abs(float(value)) < F32_OVERFLOW)
              or spec == F32 and type(value) is float and not math.isfinite(value))
        what = "within the f32 range" if finite and spec == F32 else "a number"
    if not ok:
        raise error(f"{doc}: {path} must be {what}, got {value!r}" if path else
                    f"{doc} must be a JSON {what.split()[-1]}, got {type(value).__name__}")
    return value


def json_path(path: str, key) -> str:
    """check_json's path of ``key`` under ``path``: a non-empty top-level key bare, any other ``[key!r]`` appended,
    since ``""`` is the whole document's."""
    return key if not path and isinstance(key, str) and key else f"{path}[{key!r}]"


def tensor_from_json(text, doc: str = "tensor literal", path: str = "") -> Tensor:
    """Tensor from a literal ``{shape, dtype, layout, data}``; check_json names a bad part by ``doc`` and ``path``."""
    record = check_json(json.loads(text) if isinstance(text, str) else text, {"dtype": DTYPE}, doc, path)
    check_json(record, {"shape": SHAPE, "layout?": ("NCHW", "OIHW"), "data": [_DATA[record["dtype"]]]}, doc, path)
    return Tensor(shape=tuple(record["shape"]), dtype=record["dtype"], data=np.asarray(record["data"]))
