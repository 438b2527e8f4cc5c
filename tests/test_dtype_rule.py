"""One dtype rule at every entry: each site that takes an outside array into
f32, i32 or bool goes through ``as_dtype`` and raises its one ValueError text,
with no warning, for a value that does not fit; values that fit pass as an
unchecked cast would pass them."""

import math
import warnings

import numpy as np
import pytest

from edgegraph.conv import ConvWorkload, ScheduleConfig, conv2d_host, conv2d_scheduled
from edgegraph.graph import GraphInputError, load_graph, run_graph
from edgegraph.simt import DTYPES, F32_OVERFLOW, Session, as_dtype
from edgegraph.tensor import Tensor
from edgegraph.vision import (BoxSet, SegmentedArray, argsort_sequential, compact, multibox_detection,
                              multibox_detection_sequential, roi_align, roi_align_sequential, scan,
                              scan_sequential, segmented_argsort)

LONG = np.longdouble(1e300)


def _no_tensor_dtype(name):
    return f"no tensor dtype for {name} values; expected float, integer or bool"


# name -> (values, the message for each target dtype, or one message for every target);
# a target missing from the dict takes the values without an error
BAD = {
    "int64 2**40": (np.array([2**40, 3]), {"i32": "int64 value 1099511627776 does not fit i32",
                                           "bool": "int64 value 1099511627776 does not fit bool"}),
    "uint32 2**31": (np.array([2**31, 5], np.uint32), {"i32": "uint32 value 2147483648 does not fit i32",
                                                       "bool": "uint32 value 2147483648 does not fit bool"}),
    "float64 1e300": (np.array([1e300, 1.0]), {t: f"float64 value 1e+300 does not fit {t}" for t in DTYPES}),
    "longdouble 1e300": (np.array([LONG, 1.0]),
                         {t: f"{np.dtype(np.longdouble)} value {LONG} does not fit {t}" for t in DTYPES}),
    "1.5": (np.array([1.5, 2.0]), {"i32": "float64 value 1.5 does not fit i32",
                                   "bool": "float64 value 1.5 does not fit bool"}),
    "nan": (np.array([math.nan, 2.0]), {"i32": "float64 value nan does not fit i32",
                                        "bool": "float64 value nan does not fit bool"}),
    "0.5": (np.array([0.5, 1.0]), {"i32": "float64 value 0.5 does not fit i32",
                                   "bool": "float64 value 0.5 does not fit bool"}),
    "complex": (np.array([1 + 2j, 3 - 1j]), _no_tensor_dtype("complex128")),
    "strings": (np.array(["a", "b"]), _no_tensor_dtype("<U1")),
}

WL = ConvWorkload(n=1, c=1, h=2, w=2, k=1, r=1, s=1)
ZEROS = np.zeros(4, np.float32)
ONE_GRAPH = load_graph({"nodes": [{"id": "y", "op": "identity", "inputs": ["x"]}],
                        "inputs": {"x": {"shape": [2]}}, "outputs": ["y"]})


def _graph_input(v):
    try:
        run_graph(ONE_GRAPH, {"x": v})
    except GraphInputError as e:  # it names the input, then gives the rule's text
        assert str(e).startswith("input 'x': ")
        raise ValueError(str(e).removeprefix("input 'x': ")) from None


def _mbx(probs=np.zeros((1, 2, 1), np.float32), locs=np.zeros((1, 4), np.float32),
         anchors=np.zeros((1, 1, 4), np.float32)):
    multibox_detection(probs, locs, anchors, session=Session())
    multibox_detection_sequential(probs, locs, anchors)


def _roi(feats=np.zeros((1, 1, 2, 2), np.float32), rois=np.zeros((1, 4), np.float32)):
    roi_align(feats, rois, (1, 1), session=Session())
    roi_align_sequential(feats, rois, (1, 1))


def _conv(inp=ZEROS.reshape(1, 1, 2, 2), wgt=ZEROS[:1].reshape(1, 1, 1, 1)):
    conv2d_host(inp, wgt, WL)
    conv2d_scheduled(inp, wgt, WL, ScheduleConfig(), session=Session())


# name -> (target dtype, call with the two values): "kind" is f32 for floats, i32 for
# integers and bool for bools, "scan" f32 for floats and i32 for the rest
SITES = {
    **{f"as_dtype {t}": (t, lambda v, t=t: as_dtype(v, t)) for t in DTYPES},
    "as_dtype": ("kind", as_dtype),
    **{f"Tensor {t}": (t, lambda v, t=t: Tensor(shape=(2,), dtype=t, data=v)) for t in DTYPES},
    **{f"Tensor.from_array {t}": (t, lambda v, t=t: Tensor.from_array(v, t)) for t in DTYPES},
    "Tensor.from_array": ("kind", Tensor.from_array),
    **{f"DeviceBuffer.load {t}": (t, lambda v, t=t: Session().alloc(2, t).load(v)) for t in DTYPES},
    "scan": ("scan", lambda v: scan(v, p=2, session=Session())),
    "scan race-checked": ("scan", lambda v: scan(v, p=2, session=Session(race_check=True))),
    "scan_sequential": ("scan", lambda v: scan_sequential(v, p=2)),
    "compact values": ("scan", lambda v: compact(v, np.array([True, False]), p=2, session=Session())),
    "compact flags": ("bool", lambda v: compact(np.arange(2), v, p=2, session=Session())),
    "BoxSet class_ids": ("i32", lambda v: BoxSet(class_ids=v, scores=ZEROS[:2], corners=ZEROS.repeat(2))),
    "BoxSet scores": ("f32", lambda v: BoxSet(class_ids=np.zeros(2, np.int32), scores=v, corners=ZEROS.repeat(2))),
    "BoxSet corners": ("f32", lambda v: BoxSet(class_ids=np.zeros(2, np.int32), scores=ZEROS[:2],
                                               corners=np.resize(v, (2, 4)))),
    "multibox class_probs": ("f32", lambda v: _mbx(probs=v.reshape(1, 2, 1))),
    "multibox loc_preds": ("f32", lambda v: _mbx(locs=np.resize(v, (1, 4)))),
    "multibox anchors": ("f32", lambda v: _mbx(anchors=np.resize(v, (1, 1, 4)))),
    "roi_align features": ("f32", lambda v: _roi(feats=np.resize(v, (1, 1, 2, 2)))),
    "roi_align rois": ("f32", lambda v: _roi(rois=np.resize(v, (1, 4)))),
    "conv input": ("f32", lambda v: _conv(inp=np.resize(v, (1, 1, 2, 2)))),
    "conv weight": ("f32", lambda v: _conv(wgt=v[:1].reshape(1, 1, 1, 1))),
    "segmented_argsort": ("f32", lambda v: segmented_argsort(SegmentedArray(v, [0, 2]), session=Session())),
    "argsort_sequential": ("f32", argsort_sequential),
    "SegmentedArray.from_segments": ("f32", lambda v: SegmentedArray.from_segments([v[:1], v[1:]])),
    "run_graph input": ("kind", _graph_input),
}


def _target(site: str, values: np.ndarray):
    target = SITES[site][0]
    if target == "kind":
        return {"f": "f32", "i": "i32", "u": "i32", "b": "bool"}.get(values.dtype.kind)
    return ("f32" if values.dtype.kind == "f" else "i32") if target == "scan" else target


def _message(site: str, bad: str):
    values, messages = BAD[bad]
    return messages if isinstance(messages, str) else messages.get(_target(site, values))


PAIRS = [(site, bad) for site in SITES for bad in BAD if _message(site, bad) is not None]


@pytest.mark.parametrize("site, bad", PAIRS, ids=[f"{s}-{b}" for s, b in PAIRS])
def test_every_entry_site_raises_the_rules_one_text_with_no_warning(site, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as e:
            SITES[site][1](BAD[bad][0])
    assert str(e.value) == _message(site, bad)


def test_every_bad_value_fails_at_some_site_and_every_site_rejects_some_value():
    assert {b for _, b in PAIRS} == set(BAD)
    assert {s for s, _ in PAIRS} == set(SITES)


F32_MAX = float(np.finfo(np.float32).max)
I32_MIN, I32_MAX = -(2**31), 2**31 - 1

# (values, target): each passes into the target bitwise as an unchecked cast passes it
PASS = {
    "nan": (np.array([math.nan, -math.nan]), "f32"),
    "inf": (np.array([math.inf, -math.inf]), "f32"),
    "-0.0": (np.array([-0.0, 0.0]), "f32"),
    "f32 max": (np.array([F32_MAX, -F32_MAX]), "f32"),
    "below F32_OVERFLOW": (np.array([np.nextafter(F32_OVERFLOW, 0), -np.nextafter(F32_OVERFLOW, 0)]), "f32"),
    "i32 bounds from int64": (np.array([I32_MIN, I32_MAX]), "i32"),
    "integral float class ids": (np.array([-1.0, 7.0, -0.0, float(I32_MIN)]), "i32"),
    "bool": (np.array([True, False]), "i32"),
}


@pytest.mark.parametrize("case", PASS)
def test_values_that_fit_pass_bit_for_bit(case):
    values, target = PASS[case]
    want = values.astype(DTYPES[target])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [as_dtype(values, target)[1], Tensor(shape=values.shape, dtype=target, data=values).data,
               Tensor.from_array(values, target).data]
        buf = Session().alloc(values.size, target)
        buf.load(values)
        got.append(buf.to_numpy())
        n = values.size
        if target == "i32":
            got.append(BoxSet(class_ids=values, scores=np.zeros(n), corners=np.zeros((n, 4))).class_ids)
        else:
            boxes = BoxSet(class_ids=np.zeros(n, np.int32), scores=values, corners=np.zeros((n, 4)))
            got.append(boxes.scores)
    for arr in got:
        assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes()


def test_scan_takes_bools_into_i32():
    flags = np.array([True, False, True, True])
    for out in (scan(flags, p=2, session=Session()), scan_sequential(flags, p=2)):
        assert out.dtype == np.int32 and out.tolist() == [1, 1, 2, 3]


def test_box_rows_take_only_integral_class_ids():
    rows = np.zeros((2, 6))
    rows[:, 0] = [0.0, -1.0]
    assert BoxSet.from_array(rows).class_ids.tolist() == [0, -1]
    for cls, shown in ((0.5, "0.5"), (math.nan, "nan")):
        rows[0, 0] = cls
        with pytest.raises(ValueError) as e:
            BoxSet.from_array(rows)
        assert str(e.value) == f"float32 value {shown} does not fit i32"


def test_argsort_of_wide_floats_raises_where_numpy_would_order_them_otherwise():
    with pytest.raises(ValueError) as e:
        segmented_argsort(SegmentedArray(np.array([2e300, 1e300]), [0, 2]), session=Session())
    assert str(e.value) == "float64 value 2e+300 does not fit f32"
