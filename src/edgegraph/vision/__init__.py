"""Vision-specific operators built on the block/thread emulator."""

from .boxes import (
    BoxSet,
    box_nms,
    box_nms_sequential,
    decode_boxes,
    iou,
    multibox_detection,
    multibox_detection_sequential,
)
from .roi import roi_align, roi_align_sequential
from .scan import ScanPlan, compact, partition_chunks, scan, scan_sequential
from .sort import SegmentedArray, argsort_sequential, segmented_argsort

__all__ = [
    "BoxSet",
    "ScanPlan",
    "SegmentedArray",
    "argsort_sequential",
    "box_nms",
    "box_nms_sequential",
    "compact",
    "decode_boxes",
    "iou",
    "multibox_detection",
    "multibox_detection_sequential",
    "partition_chunks",
    "roi_align",
    "roi_align_sequential",
    "scan",
    "scan_sequential",
    "segmented_argsort",
]
