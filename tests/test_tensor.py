"""Layout tags, layout transformation, transform costs, tensor literals."""

import time

import numpy as np
import pytest

from edgegraph.tensor import (
    IncompatibleLayoutError,
    LayoutTag,
    Tensor,
    as_dtype,
    layout_transform,
    tensor_from_json,
    tensor_to_json,
    transform_cost,
)


def brute_force_nchwc_order(shape, factor):
    """Independently enumerate the physical order of NCHWc(factor).

    Physical axes are (N, C//f, H, W, f); returns the flat logical index
    visited at each physical position.
    """
    n, c, h, w = shape
    order = []
    for ni in range(n):
        for co in range(c // factor):
            for hi in range(h):
                for wi in range(w):
                    for ci in range(factor):
                        logical_c = co * factor + ci
                        order.append(((ni * c + logical_c) * h + hi) * w + wi)
    return order


def test_nchwc2_physical_order_matches_brute_force():
    t = Tensor.from_array(np.arange(8, dtype=np.float32).reshape(1, 4, 1, 2))
    packed = layout_transform(t, LayoutTag("NCHWc", 2))
    expected = brute_force_nchwc_order((1, 4, 1, 2), 2)
    assert expected == [0, 2, 1, 3, 4, 6, 5, 7]
    assert packed.data.tolist() == [0, 2, 1, 3, 4, 6, 5, 7]


def test_round_trip_bitwise():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 8, 3, 5)).astype(np.float32)
    t = Tensor.from_array(arr)
    for tag in (LayoutTag("NCHWc", 2), LayoutTag("NCHWc", 4), LayoutTag("NCHWc", 8)):
        back = layout_transform(layout_transform(t, tag), LayoutTag("NCHW"))
        assert np.array_equal(back.data, t.data)


def test_oihwo_round_trip_and_permutation():
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((8, 3, 2, 2)).astype(np.float32)
    t = Tensor.from_array(arr, layout=LayoutTag("OIHW"))
    packed = layout_transform(t, LayoutTag("OIHWo", 4))
    # permutation: same multiset of values, every logical read preserved
    assert sorted(packed.data.tolist()) == sorted(t.data.tolist())
    for idx in [(0, 0, 0, 0), (3, 1, 1, 0), (7, 2, 0, 1), (5, 0, 1, 1)]:
        assert packed.read(idx) == t.read(idx)
    back = layout_transform(packed, LayoutTag("OIHW"))
    assert np.array_equal(back.data, t.data)


def test_logical_reads_preserved_randomized():
    rng = np.random.default_rng(2)
    for _ in range(20):
        shape = (1, int(rng.integers(1, 4)) * 4, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        arr = rng.standard_normal(shape).astype(np.float32)
        t = Tensor.from_array(arr)
        u = layout_transform(t, LayoutTag("NCHWc", 4))
        logical = u.to_array()
        assert np.array_equal(logical, arr)


def test_non_divisible_factor_rejected():
    t = Tensor.from_array(np.zeros((1, 3, 2, 2), np.float32))
    with pytest.raises(IncompatibleLayoutError):
        layout_transform(t, LayoutTag("NCHWc", 2))


def test_source_unchanged():
    arr = np.arange(16, dtype=np.float32).reshape(1, 4, 2, 2)
    t = Tensor.from_array(arr)
    layout_transform(t, LayoutTag("NCHWc", 2))
    assert np.array_equal(t.data, arr.reshape(-1))


def test_layout_tag_parse_and_str():
    assert str(LayoutTag("NCHWc", 8)) == "NCHWc8"
    assert LayoutTag.parse("NCHWc8") == LayoutTag("NCHWc", 8)
    assert LayoutTag.parse("NCHW") == LayoutTag("NCHW")
    assert LayoutTag.parse("OIHWo16") == LayoutTag("OIHWo", 16)
    with pytest.raises(ValueError):
        LayoutTag.parse("NHWC")
    with pytest.raises(ValueError):
        LayoutTag("NCHW", 4)  # plain kinds carry no factor


def test_transform_cost_identity_zero():
    assert transform_cost(LayoutTag("NCHW"), LayoutTag("NCHW"), (1, 4, 2, 2)) == 0.0


def test_transform_cost_table_passthrough():
    cost = transform_cost(
        LayoutTag("NCHW"), LayoutTag("NCHWc", 4), (1, 4, 2, 2), table={"NCHW->NCHWc4": 3.5}
    )
    assert cost == 3.5


def test_transform_cost_symmetric_in_element_count():
    a, b = LayoutTag("NCHW"), LayoutTag("NCHWc", 8)
    assert transform_cost(a, b, (1, 64, 7, 7)) == transform_cost(b, a, (1, 64, 7, 7))


def test_transform_cost_measured_reproducible_with_injected_clock():
    ticks = iter(range(100))

    def clock():
        return float(next(ticks))

    c1 = transform_cost(LayoutTag("NCHW"), LayoutTag("NCHWc", 8), (1, 64, 56, 56), clock=clock, repeats=3)
    c2 = transform_cost(LayoutTag("NCHW"), LayoutTag("NCHWc", 8), (1, 64, 56, 56), clock=clock, repeats=3)
    assert c1 > 0 and c1 == c2  # each sample is one tick under the stub clock


@pytest.mark.parametrize("repeats", [0, -1, 1.5])
def test_transform_cost_rejects_a_timed_repeat_count_below_one(repeats):
    with pytest.raises(ValueError, match="repeats must be"):
        transform_cost(LayoutTag("NCHW"), LayoutTag("NCHWc", 4), (1, 4, 2, 2), clock=time.perf_counter,
                       repeats=repeats)


def test_transform_cost_wall_clock_positive():
    cost = transform_cost(LayoutTag("NCHW"), LayoutTag("NCHWc", 8), (1, 64, 56, 56), clock=time.perf_counter)
    assert cost > 0


def test_transform_cost_incompatible_shape():
    with pytest.raises(IncompatibleLayoutError):
        transform_cost(LayoutTag("NCHW"), LayoutTag("NCHWc", 2), (1, 3, 2, 2))


def test_transform_kernel_matches_host_transform():
    from edgegraph.simt import Session
    from edgegraph.tensor import transform_kernel

    rng = np.random.default_rng(4)
    t = Tensor.from_array(rng.standard_normal((2, 8, 3, 3)).astype(np.float32))
    for dst in (LayoutTag("NCHWc", 2), LayoutTag("NCHWc", 8)):
        sess = Session()
        via_kernel = transform_kernel(t, dst, sess)
        assert np.array_equal(via_kernel.data, layout_transform(t, dst).data)
        assert sess.stats().launches == 1


def test_tensor_literal_round_trip():
    rng = np.random.default_rng(3)
    t = Tensor.from_array(rng.standard_normal((1, 4, 2, 3)).astype(np.float32), layout=LayoutTag("NCHWc", 2))
    back = tensor_from_json(tensor_to_json(t))
    assert back.shape == t.shape
    assert back.dtype == t.dtype
    assert back.layout == t.layout
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


@pytest.mark.parametrize("tag", ["NCHW", "NCHWc1", "NCHWc2", "OIHWo1", "OIHWo2"])
def test_to_array_is_a_writable_copy_in_every_layout(tag):
    arr = np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2)
    t = Tensor.from_array(arr, layout=LayoutTag.parse(tag))
    out = t.to_array()
    assert np.array_equal(out, arr) and out.flags.writeable and out.flags.c_contiguous
    assert not np.shares_memory(out, t.data)
