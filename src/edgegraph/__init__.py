"""edgegraph: a desk-scale CNN inference micro-runtime.

Deterministic block/thread kernel emulation, the vision operators that
make object-detection models hard for GPUs (segmented argsort, prefix
scan, NMS, multibox decoding, ROIAlign), dense tensors,
schedule-templated direct convolution, two-pass heterogeneous
placement with copy insertion, machine-learning-guided schedule search
with a persistent records database, and a graph-level layout DP over
layout labels.
"""

from . import conv, graph, simt, tensor, tune, vision
from .simt import CPU, GPU, DeviceBuffer, LaunchConfig, LaunchStats, Session
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "CPU",
    "GPU",
    "DeviceBuffer",
    "LaunchConfig",
    "LaunchStats",
    "Session",
    "Tensor",
    "conv",
    "graph",
    "simt",
    "tensor",
    "tune",
    "vision",
]
