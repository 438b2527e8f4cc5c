"""Per-layer tracing of edgegraph from outside the package.

:class:`Tracer` replaces the public functions of each layer with
wrappers at every name where callers look them up (for example both
``edgegraph.vision.box_nms``, which the graph executor calls, and
``edgegraph.vision.boxes.box_nms``, which ``multibox_detection`` calls),
records one span per call (name, layer, start, end, parent span,
request id) and counts work at the same boundaries. Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

Spans stay in memory and are written once, as Chrome trace-event JSON
that Perfetto and chrome://tracing open.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from edgegraph import graph as G
from edgegraph import tune as T
from edgegraph import vision as V
from edgegraph.simt import DeviceBuffer, Session
from edgegraph.tensor import Tensor

boxes_mod = importlib.import_module("edgegraph.vision.boxes")
sort_mod = importlib.import_module("edgegraph.vision.sort")
scan_mod = importlib.import_module("edgegraph.vision.scan")
roi_mod = importlib.import_module("edgegraph.vision.roi")
conv_mod = importlib.import_module("edgegraph.conv")

# span fields
NAME, LAYER, START, END, PARENT, REQUEST = range(6)

LAYERS = ("bench", "graph", "simt", "conv", "vision.boxes", "vision.sort", "vision.scan",
          "vision.roi", "tensor", "tune")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _nms_candidates(boxes, score_threshold, top_k) -> int:
    """Rows box_nms considers: valid, score at or above the threshold, at most top_k."""
    s = boxes.scores
    n = int(np.count_nonzero((boxes.class_ids >= 0) & ~np.isnan(s) & (s >= score_threshold)))
    return n if top_k is None else min(n, int(top_k))


def _macs(wl) -> int:
    return wl.n * wl.k * wl.oh * wl.ow * (wl.c // wl.groups) * wl.r * wl.s


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self, node_of_key: dict):
        self.node_of_key = node_of_key
        self.spans: list = []
        self.count: dict = defaultdict(float)
        self.request = None
        self._stack: list = []
        self._undo: list = []
        self._proxy = T.proxy_timer  # untraced, for the conv proxy cost

    # --- spans -----------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        span = [name, layer, perf_counter_ns(), 0, self._stack[-1] if self._stack else None,
                self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, layer, before=None, after=None):
        """``fn`` inside a span; ``name`` may be a function of the call's args.

        ``before(args, kwargs)`` runs ahead of the span and its result is
        handed to ``after(args, kwargs, result, token)``, which runs once
        the span has closed.
        """
        tracer = self

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            span = tracer.open(name(args) if callable(name) else name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, on_call):
        """``fn`` with no span, calling ``on_call(args)`` first: for hot paths."""

        def counted(*args, **kwargs):
            on_call(args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- patching --------------------------------------------------------

    def patch(self, owners, attr, make):
        """Replace ``attr`` on every owner with ``make(original)``.

        Every owner must hold the same original object; a lookup site
        that drifted away from it would escape the trace, so it is an
        error.
        """
        raw = owners[0].__dict__[attr]
        for owner in owners[1:]:
            if owner.__dict__.get(attr) is not raw:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}; "
                                   "the tracer would miss calls through it")
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        for owner in owners:
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        c = self.count
        try:
            self._install_simt(c)
            self._install_graph(c)
            self._install_conv(c)
            self._install_vision(c)
            self._install_tune(c)
        except BaseException:
            self.uninstall()
            raise

    def _install_simt(self, c):
        def launch_before(args, kwargs):
            st = args[0].stats()
            return st.barriers, st.divergence_events

        def launch_after(args, kwargs, result, token):
            sess, config = args[0], args[2]
            grid, block = (config.grid, config.block) if hasattr(config, "grid") else config[:2]
            st = sess.stats()
            c["simt.launches"] += 1
            c["simt.instances"] += grid * block
            c["simt.barriers"] += st.barriers - token[0]
            c["simt.divergence_events"] += st.divergence_events - token[1]
            c["simt.load_imbalance_max"] = max(c["simt.load_imbalance_max"], st.load_imbalance)

        def alloc_call(args):
            c["simt.allocs"] += 1

        def load_bytes(args):
            c["simt.bytes_moved"] += args[0].data.nbytes

        self.patch([Session], "launch", lambda f: self.wrap(
            f, lambda a: "launch " + getattr(a[1], "__qualname__", "kernel"), "simt",
            before=launch_before, after=launch_after))
        self.patch([Session], "alloc", lambda f: self.counted(f, alloc_call))
        self.patch([DeviceBuffer], "load", lambda f: self.counted(f, load_bytes))
        self.patch([DeviceBuffer], "to_numpy", lambda f: self.counted(f, load_bytes))

    def _install_graph(self, c):
        def node_name(args):
            node = args[0]
            return f"node {node.id} ({node.op}, {node.device})"

        def node_after(args, kwargs, result, token):
            if args[0].op == "copy":
                c["graph.copy_nodes"] += 1

        def placed(args, kwargs, result, token):
            c["graph.placements"] += 1

        self.patch([Tensor], "from_array", lambda f: self.wrap(f, "tensor.from_array", "tensor"))
        self.patch([Tensor], "to_array", lambda f: self.wrap(f, "tensor.to_array", "tensor"))
        self.patch([G], "load_graph", lambda f: self.wrap(f, "graph.load", "graph"))
        self.patch([G], "assign_devices", lambda f: self.wrap(f, "graph.place", "graph"))
        self.patch([G], "insert_copies", lambda f: self.wrap(f, "graph.place", "graph", after=placed))
        self.patch([G], "run_graph", lambda f: self.wrap(f, "graph.run", "graph"))
        self.patch([G], "_run_node", lambda f: self.wrap(f, node_name, "graph", after=node_after))

    def _install_conv(self, c):
        def graph_conv_after(args, kwargs, result, token):
            a = _bound(conv_mod.conv2d_scheduled, args, kwargs)
            wl, sess = a["wl"], a["session"]
            c["conv.macs"] += _macs(wl)
            node = self.node_of_key.get(wl.key())
            if node is None:
                raise RuntimeError(f"graph ran a conv workload {wl.key()} the benchmark does not know")
            us = self._proxy(lambda: sess, wl, a["cfg"]) * 1e6
            c["conv.proxy_us"] += us
            c["conv.proxy_us." + node] += us
            c["conv.runs." + node] += 1

        def conv_after(args, kwargs, result, token):
            c["conv.macs"] += _macs(_bound(conv_mod.conv2d_scheduled, args, kwargs)["wl"])

        def tune_conv(f):
            conv = self.wrap(f, "conv.scheduled", "conv", after=conv_after)
            verify = self.wrap(conv, "tune.verify", "tune")

            def dispatch(*args, **kwargs):
                has_session = kwargs.get("session", args[4] if len(args) > 4 else None) is not None
                return (conv if has_session else verify)(*args, **kwargs)

            dispatch.__wrapped__ = f
            return dispatch

        def tune_ref_after(args, kwargs, result, token):
            c["tune.ref_calls"] += 1

        self.patch([G], "conv2d_scheduled",
                   lambda f: self.wrap(f, "conv.scheduled", "conv", after=graph_conv_after))
        self.patch([T], "conv2d_scheduled", tune_conv)
        self.patch([conv_mod], "conv2d_scheduled",
                   lambda f: self.wrap(f, "conv.scheduled", "conv", after=conv_after))
        self.patch([G, conv_mod], "conv2d_reference", lambda f: self.wrap(f, "conv.reference", "conv"))
        self.patch([T], "conv2d_reference",
                   lambda f: self.wrap(f, "conv.reference", "conv", after=tune_ref_after))

    def _install_vision(self, c):
        def nms_after(fn):
            def after(args, kwargs, result, token):
                a = _bound(fn, args, kwargs)
                c["boxes.candidates"] += _nms_candidates(a["boxes"], a["score_threshold"], a["top_k"])
                c["boxes.kept"] += int(np.count_nonzero(result.class_ids >= 0))
            return after

        def iou_call(args):
            c["boxes.iou_calls"] += 1

        def sort_before(args, kwargs):
            return c["simt.launches"]

        def sort_after(args, kwargs, result, token):
            a = args[0] if args else kwargs["a"]
            c["sort.elements"] += a.values.size
            c["sort.merge_launches"] += max(0, c["simt.launches"] - token - 1)

        def scan_after(args, kwargs, result, token):
            c["scan.elements"] += np.asarray(args[0] if args else kwargs["values"]).size

        def roi_after(args, kwargs, result, token):
            a = _bound(roi_mod.roi_align, args, kwargs)
            c["roi.samples"] += result.size * a["sampling_ratio"] ** 2

        box_owners = [V, boxes_mod]
        self.patch(box_owners, "box_nms", lambda f: self.wrap(
            f, "boxes.nms", "vision.boxes", after=nms_after(f)))
        self.patch(box_owners, "box_nms_sequential", lambda f: self.wrap(
            f, "boxes.nms_seq", "vision.boxes", after=nms_after(f)))
        self.patch(box_owners, "multibox_detection",
                   lambda f: self.wrap(f, "boxes.multibox", "vision.boxes"))
        self.patch(box_owners, "multibox_detection_sequential",
                   lambda f: self.wrap(f, "boxes.multibox_seq", "vision.boxes"))
        self.patch(box_owners, "iou", lambda f: self.counted(f, iou_call))
        self.patch([V, boxes_mod, sort_mod], "segmented_argsort", lambda f: self.wrap(
            f, "sort.argsort", "vision.sort", before=sort_before, after=sort_after))
        self.patch([V, sort_mod], "argsort_sequential",
                   lambda f: self.wrap(f, "sort.argsort_seq", "vision.sort"))
        self.patch([V, scan_mod], "scan",
                   lambda f: self.wrap(f, "scan.scan", "vision.scan", after=scan_after))
        self.patch([V, scan_mod], "scan_sequential",
                   lambda f: self.wrap(f, "scan.scan_seq", "vision.scan"))
        self.patch([V, scan_mod], "compact", lambda f: self.wrap(f, "scan.compact", "vision.scan"))
        self.patch([V, roi_mod], "roi_align",
                   lambda f: self.wrap(f, "roi.roi_align", "vision.roi", after=roi_after))
        self.patch([V, roi_mod], "roi_align_sequential",
                   lambda f: self.wrap(f, "roi.roi_align_seq", "vision.roi"))

    def _install_tune(self, c):
        def measured(args, kwargs, result, token):
            c["tune.measures"] += 1

        def loaded(args, kwargs, result, token):
            c["tune.loads"] += 1
            c["tune.records_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

        self.patch([T], "tune_model", lambda f: self.wrap(f, "tune.job", "tune"))
        self.patch([T], "measure", lambda f: self.wrap(f, "tune.measure", "tune", after=measured))
        self.patch([T], "proxy_timer", lambda f: self.wrap(f, "tune.timing", "tune"))
        self.patch([T.KnnCostModel], "fit", lambda f: self.wrap(f, "tune.model", "tune"))
        self.patch([T.KnnCostModel], "predict", lambda f: self.wrap(f, "tune.model", "tune"))
        self.patch([T], "records_append", lambda f: self.wrap(f, "tune.records_append", "tune"))
        self.patch([T], "records_load", lambda f: self.wrap(f, "tune.records_load", "tune",
                                                            after=loaded))

    # --- reports ---------------------------------------------------------

    def durations_ms(self) -> dict:
        """Total span time per span name (launch spans pooled), in ms."""
        out: dict = defaultdict(float)
        for s in self.spans:
            name = "launch" if s[NAME].startswith("launch ") else s[NAME]
            out[name] += (s[END] - s[START]) / 1e6
        return out

    def self_ms(self) -> dict:
        """Per layer: span time not covered by the span's children, in ms."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            out[s[LAYER]] = out.get(s[LAYER], 0.0) + (s[END] - s[START] - child[i]) / 1e6
        return out

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        t0 = min((s[START] for s in self.spans), default=0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "edgegraph benchmark"}}]
        for i, s in enumerate(self.spans):
            events.append({
                "name": s[NAME], "cat": s[LAYER], "ph": "X", "pid": 1, "tid": 1,
                "ts": (s[START] - t0) / 1e3, "dur": (s[END] - s[START]) / 1e3,
                "args": {"span": i, "parent": s[PARENT], "request": s[REQUEST]},
            })
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}, f)

