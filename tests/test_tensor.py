"""Tensors and tensor literals."""

import json
import math

import numpy as np
import pytest

from edgegraph.tensor import Tensor, as_dtype, tensor_from_json, tensor_to_json


def test_tensor_literal_round_trip():
    rng = np.random.default_rng(3)
    t = Tensor.from_array(rng.standard_normal((1, 4, 2, 3)).astype(np.float32))
    back = tensor_from_json(tensor_to_json(t))
    assert back.shape == t.shape
    assert back.dtype == t.dtype
    assert np.array_equal(back.data, t.data)


def test_tensor_literal_int_and_bool():
    for arr in (np.array([1, 2, 3], np.int32), np.array([True, False], np.bool_)):
        t = Tensor.from_array(arr)
        back = tensor_from_json(tensor_to_json(t))
        assert np.array_equal(back.data, t.data)
        assert back.dtype == t.dtype


def test_tensor_validates_data_length():
    with pytest.raises(ValueError):
        Tensor(shape=(2, 2), dtype="f32", data=np.zeros(3))


def test_tensor_immutable():
    t = Tensor.from_array(np.zeros((2, 2), np.float32))
    with pytest.raises(ValueError):
        t.data[0] = 1.0


@pytest.mark.parametrize("values, message", [
    (np.array([2**40, 3]), "int64 value 1099511627776 does not fit i32"),
    (np.array([[0, -2**31 - 1]]), "int64 value -2147483649 does not fit i32"),
    (np.array([2**32], np.uint64), "uint64 value 4294967296 does not fit i32"),
])
def test_from_array_rejects_integers_that_do_not_fit_i32(values, message):
    with pytest.raises(ValueError, match=message):
        Tensor.from_array(values)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.uint16, np.int64, np.uint64])
def test_from_array_converts_integers_that_fit_i32(dtype):
    values = np.array([0, 1, 127], dtype)
    t = Tensor.from_array(values)
    assert t.dtype == "i32" and t.data.dtype == np.int32 and t.data.tolist() == [0, 1, 127]


@pytest.mark.parametrize("values, name", [(np.array(["a"]), "<U1"), (np.array([1 + 2j]), "complex128")])
def test_from_array_names_a_dtype_with_no_tensor_dtype(values, name):
    with pytest.raises(ValueError, match=f"no tensor dtype for {name} values"):
        Tensor.from_array(values)


def test_as_dtype_copies_only_to_change_the_dtype():
    f32, i32 = np.zeros(3, np.float32), np.arange(3, dtype=np.int32)
    assert as_dtype(f32)[0] == "f32" and as_dtype(f32)[1] is f32
    assert as_dtype(i32)[0] == "i32" and as_dtype(i32)[1] is i32
    assert as_dtype(np.zeros(2, bool))[0] == "bool"
    dtype, arr = as_dtype(np.array([0.1, 2.5]))
    assert dtype == "f32" and arr.dtype == np.float32 and arr.tolist() == np.float32([0.1, 2.5]).tolist()
    dtype, arr = as_dtype(np.array([7, -3], np.int64))
    assert dtype == "i32" and arr.dtype == np.int32 and arr.tolist() == [7, -3]


@pytest.mark.parametrize("tag", ["NCHW", "OIHW"])
def test_to_array_is_a_writable_copy_in_every_layout(tag):
    arr = np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2)
    t = tensor_from_json({"shape": list(arr.shape), "dtype": "f32", "layout": tag, "data": arr.ravel().tolist()})
    out = t.to_array()
    assert np.array_equal(out, arr) and out.flags.writeable and out.flags.c_contiguous
    assert not np.shares_memory(out, t.data)


@pytest.mark.parametrize("layout", ["OIHWo2", "NHWC", "nchw"])
def test_tensor_literal_rejects_a_layout_other_than_nchw_or_oihw(layout):
    with pytest.raises(ValueError, match=f"'{layout}'"):
        tensor_from_json({"shape": [1, 4, 1, 1], "dtype": "f32", "layout": layout, "data": [0, 1, 2, 3]})


@pytest.mark.parametrize("literal, message", [
    ({"shape": 2, "dtype": "f32", "data": [0, 1]}, "tensor literal: shape must be a list, got 2"),
    ({"dtype": "f32", "data": [0, 1]}, "tensor literal: shape must be a list, got None"),
    ([0, 1], "tensor literal must be a JSON object, got list"),
    ("[0, 1]", "tensor literal must be a JSON object, got list"),
], ids=["shape-int", "shape-missing", "list", "list-text"])
def test_tensor_literal_rejects_a_non_object_or_a_shape_that_is_not_a_list(literal, message):
    with pytest.raises(ValueError) as e:
        tensor_from_json(literal)
    assert str(e.value) == message


def test_f32_literal_data_is_rejected_exactly_where_f32_overflows():
    # 2**128 - 2**103 lies halfway between the largest f32 and 2**128 and rounds to Infinity
    edge = 2.0**128 - 2.0**103
    below = [float(np.finfo(np.float32).max), math.nextafter(edge, 0.0), -math.nextafter(edge, 0.0), 2**127]
    t = tensor_from_json({"shape": [4], "dtype": "f32", "data": below})
    assert np.isfinite(t.data).all() and abs(t.data).max() == np.finfo(np.float32).max
    for bad in (edge, -edge, 2**128, 1e39):
        with pytest.raises(ValueError) as e:
            tensor_from_json({"shape": [1], "dtype": "f32", "data": [bad]})
        assert str(e.value) == f"tensor literal: data[0] must be within the f32 range, got {bad!r}"


def test_tensor_literal_layout_key_is_optional_and_written_as_nchw():
    t = tensor_from_json({"shape": [2, 2], "dtype": "i32", "data": [1, 2, 3, 4]})
    assert t.to_array().tolist() == [[1, 2], [3, 4]]
    assert json.loads(tensor_to_json(t))["layout"] == "NCHW"


@pytest.mark.parametrize("shape", [(2, 0), (-1, 3)])
def test_a_tensor_extent_that_is_not_positive_is_rejected(shape):
    with pytest.raises(ValueError, match=rf"^extents must be positive, got \({shape[0]}, {shape[1]}\)$"):
        Tensor(shape, "f32", np.zeros(0, np.float32))


def test_a_tensor_of_an_unknown_dtype_is_rejected():
    with pytest.raises(ValueError, match=r"^unsupported dtype 'f64'$"):
        Tensor((2,), "f64", np.zeros(2))
