"""Shared test fixtures: the SSD-like 12-node graph, its inputs, and launch records
as tuples."""

import json

import numpy as np

from edgegraph.tensor import Tensor

# data (1,3,16,16) -> c1(8ch,3x3,pad1) -> r1 -> p1(2x2) -> c2(8ch,3x3,pad1) -> r2
#   -> cls head (6ch,1x1) -> reshape (1,3,128): 3 classes x 128 anchors
#   -> loc head (8ch,1x1) -> reshape (1,512):   128 anchors x 4
#   -> multibox -> box_nms -> relu
SSD_LIKE = {
    "nodes": [
        {"id": "c1", "op": "conv2d", "attrs": {"pad": [1, 1]}, "inputs": ["data", "w1"]},
        {"id": "r1", "op": "relu", "attrs": {}, "inputs": ["c1"]},
        {"id": "p1", "op": "pool", "attrs": {"kernel": 2, "stride": 2}, "inputs": ["r1"]},
        {"id": "c2", "op": "conv2d", "attrs": {"pad": [1, 1]}, "inputs": ["p1", "w2"]},
        {"id": "r2", "op": "relu", "attrs": {}, "inputs": ["c2"]},
        {"id": "cls", "op": "conv2d", "attrs": {}, "inputs": ["r2", "w_cls"]},
        {"id": "loc", "op": "conv2d", "attrs": {}, "inputs": ["r2", "w_loc"]},
        {"id": "rs_cls", "op": "reshape", "attrs": {"shape": [1, 3, 128]}, "inputs": ["cls"]},
        {"id": "rs_loc", "op": "reshape", "attrs": {"shape": [1, 512]}, "inputs": ["loc"]},
        {
            "id": "mbx",
            "op": "multibox_detection",
            "attrs": {"score_threshold": 0.05, "iou_threshold": 0.5},
            "inputs": ["rs_cls", "rs_loc", "anchors"],
        },
        {
            "id": "nms",
            "op": "box_nms",
            "attrs": {"iou_threshold": 0.45, "score_threshold": 0.1},
            "inputs": ["mbx"],
        },
        {"id": "r3", "op": "relu", "attrs": {}, "inputs": ["nms"]},
    ],
    "inputs": {
        "data": {"shape": [1, 3, 16, 16], "dtype": "f32"},
        "w1": {"shape": [8, 3, 3, 3], "dtype": "f32"},
        "w2": {"shape": [8, 8, 3, 3], "dtype": "f32"},
        "w_cls": {"shape": [6, 8, 1, 1], "dtype": "f32"},
        "w_loc": {"shape": [8, 8, 1, 1], "dtype": "f32"},
        "anchors": {"shape": [1, 128, 4], "dtype": "f32"},
    },
    "outputs": ["r3"],
}


def ssd_like_doc() -> str:
    return json.dumps(SSD_LIKE)


def ssd_like_inputs(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    x1 = rng.random(128, dtype=np.float32) * 0.6
    y1 = rng.random(128, dtype=np.float32) * 0.6
    anchors = np.stack(
        [x1, y1, x1 + 0.05 + rng.random(128, dtype=np.float32) * 0.3,
         y1 + 0.05 + rng.random(128, dtype=np.float32) * 0.3],
        axis=1,
    )[None].astype(np.float32)
    small = lambda shape: (rng.standard_normal(shape) * 0.25).astype(np.float32)
    return {
        "data": Tensor.from_array(small((1, 3, 16, 16))),
        "w1": Tensor.from_array(small((8, 3, 3, 3))),
        "w2": Tensor.from_array(small((8, 8, 3, 3))),
        "w_cls": Tensor.from_array(small((6, 8, 1, 1))),
        "w_loc": Tensor.from_array(small((8, 8, 1, 1))),
        "anchors": Tensor.from_array(anchors),
    }


def records_of(sess) -> list:
    """(kernel, config, work counts, barriers, divergence events) of each of
    ``sess``'s launch records, as tuples that compare with ``==``."""
    return [(r.kernel, r.config, r.work.tolist(), r.barriers, r.divergence_events)
            for r in sess.records]
