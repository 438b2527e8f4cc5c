"""Operator graphs, two-pass device placement, and the executor.

Placement is deliberately simple: pass one tags every node GPU if its
op kind is on the caller's GPU list and CPU otherwise; pass two inserts
an explicit copy node on every edge whose endpoints disagree. Copy
nodes are ordinary graph nodes, so the fallback overhead they model is
inspectable. The executor dispatches GPU-tagged nodes through emulator
kernels and CPU-tagged nodes through sequential implementations of the
same operators, which keeps graph outputs bitwise independent of the
placement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import vision
from .conv import ConvWorkload, ScheduleConfig, conv2d_reference, conv2d_scheduled
from .simt import CPU, GPU, LaunchConfig, Session
from .tensor import LayoutTag, Tensor

UNASSIGNED = "unassigned"

KNOWN_OPS = (
    "identity",
    "conv2d",
    "relu",
    "add",
    "pool",
    "reshape",
    "box_nms",
    "multibox_detection",
    "roi_align",
    "argsort",
    "scan",
    "copy",
)

# ops with an emulator-kernel implementation; default GPU list for placement
DEFAULT_GPU_OPS = frozenset(op for op in KNOWN_OPS if op != "copy")


class GraphError(ValueError):
    """Graph document or graph state violates the format contract."""


class GraphExecutionError(RuntimeError):
    """An operator failed while running the graph; names the node."""


@dataclass
class Node:
    id: str
    op: str
    attrs: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    device: str = UNASSIGNED
    layout: LayoutTag | None = None
    schedule: ScheduleConfig | None = None


@dataclass
class Graph:
    nodes: list
    inputs: dict
    outputs: list

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def edges(self):
        """Producer -> consumer node pairs (graph-input feeds excluded)."""
        ids = {n.id for n in self.nodes}
        for n in self.nodes:
            for ref in n.inputs:
                if ref in ids:
                    yield ref, n.id


def load_graph(text) -> Graph:
    """Parse and validate a graph document.

    Document format: {"nodes": [{"id", "op", "attrs", "inputs": [ids]}],
    "inputs": {name: {shape, dtype}}, "outputs": [ids]}. Rejects unknown
    op kinds, dangling references, duplicate ids and cycles, naming the
    offending node.
    """
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise GraphError("graph document must be an object with a 'nodes' list")
    graph_inputs = dict(doc.get("inputs", {}))
    nodes = []
    seen = set()
    for raw in doc["nodes"]:
        nid = raw.get("id")
        if not nid or not isinstance(nid, str):
            raise GraphError(f"node without a string id: {raw!r}")
        if nid in seen or nid in graph_inputs:
            raise GraphError(f"duplicate tensor producer {nid!r}")
        seen.add(nid)
        op = raw.get("op")
        if op not in KNOWN_OPS:
            raise GraphError(f"node {nid!r}: unknown op kind {op!r}")
        nodes.append(Node(id=nid, op=op, attrs=dict(raw.get("attrs", {})), inputs=list(raw.get("inputs", []))))
    known = seen | set(graph_inputs)
    for n in nodes:
        for ref in n.inputs:
            if ref not in known:
                raise GraphError(f"node {n.id!r}: reference to missing tensor {ref!r}")
    outputs = list(doc.get("outputs", []))
    for out in outputs:
        if out not in seen:
            raise GraphError(f"graph output {out!r} is not a node id")
    g = Graph(nodes=nodes, inputs=graph_inputs, outputs=outputs)
    topo_order(g)  # raises on cycles
    return g


def topo_order(g: Graph) -> list:
    """Stable topological order of the nodes (Kahn, original order wins ties)."""
    ids = {n.id for n in g.nodes}
    indeg = {n.id: sum(1 for r in n.inputs if r in ids) for n in g.nodes}
    consumers: dict = {n.id: [] for n in g.nodes}
    for n in g.nodes:
        for r in n.inputs:
            if r in ids:
                consumers[r].append(n.id)
    order = []
    ready = [n.id for n in g.nodes if indeg[n.id] == 0]
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for c in consumers[nid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    if len(order) != len(g.nodes):
        stuck = sorted(nid for nid, d in indeg.items() if d > 0)
        raise GraphError(f"graph has a cycle through nodes {stuck}")
    by_id = {n.id: n for n in g.nodes}
    return [by_id[nid] for nid in order]


def assign_devices(g: Graph, gpu_ops) -> Graph:
    """Pass one of placement: tag each node GPU iff its op is listed.

    Pure; no copies are inserted here. Requires a fresh (unassigned)
    graph.
    """
    gpu_ops = set(gpu_ops)
    for n in g.nodes:
        if n.device != UNASSIGNED:
            raise GraphError(f"node {n.id!r} already has device {n.device!r}")
    nodes = [replace(n, device=GPU if n.op in gpu_ops else CPU) for n in g.nodes]
    return Graph(nodes=nodes, inputs=dict(g.inputs), outputs=list(g.outputs))


def insert_copies(g: Graph) -> Graph:
    """Pass two of placement: one copy node per device-differing edge.

    Copy nodes take the consumer's device tag and carry the transfer
    direction in their attrs; edges touching an existing copy node are
    left alone, which makes the pass idempotent.
    """
    by_id = {n.id: n for n in g.nodes}
    for n in g.nodes:
        if n.device == UNASSIGNED:
            raise GraphError(f"node {n.id!r} has no device assigned")
    new_nodes = [replace(n, inputs=list(n.inputs)) for n in g.nodes]
    by_new = {n.id: n for n in new_nodes}
    taken = set(by_new)
    appended = []
    for n in new_nodes:
        for pos, ref in enumerate(n.inputs):
            if ref not in by_id:
                continue
            prod = by_id[ref]
            if prod.device == n.device or prod.op == "copy" or n.op == "copy":
                continue
            cid = f"{ref}_to_{n.id}_copy"
            while cid in taken:
                cid += "_"
            taken.add(cid)
            appended.append(
                Node(
                    id=cid,
                    op="copy",
                    attrs={"direction": f"{prod.device}->{n.device}"},
                    inputs=[ref],
                    device=n.device,
                )
            )
            n.inputs[pos] = cid
    return Graph(nodes=new_nodes + appended, inputs=dict(g.inputs), outputs=list(g.outputs))


def count_copies(g: Graph) -> int:
    return sum(1 for n in g.nodes if n.op == "copy")


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    return Tensor.from_array(arr)


def _conv_workload(data: np.ndarray, weight: np.ndarray, attrs: dict) -> ConvWorkload:
    n, c, h, w = data.shape
    k, _, r, s = weight.shape
    return ConvWorkload(
        n=n, c=c, h=h, w=w, k=k, r=r, s=s,
        stride=tuple(attrs.get("stride", (1, 1))),
        pad=tuple(attrs.get("pad", (0, 0))),
        dilation=tuple(attrs.get("dilation", (1, 1))),
        groups=int(attrs.get("groups", 1)),
    )


def _elementwise_gpu(session, fn, *arrays):
    """Launch fn over equal-length flat buffers, chunked across threads."""
    flat = [a.reshape(-1).astype(np.float32) for a in arrays]
    n = flat[0].size
    bufs = []
    for i, f in enumerate(flat):
        b = session.alloc(n, "f32", device=GPU, name=f"ew_in{i}")
        b.load(f)
        bufs.append(b)
    out = session.alloc(n, "f32", device=GPU, name="ew_out")
    threads = min(8, max(1, n))

    def kernel(ctx):
        t = ctx.thread_id
        lo = (n * t) // ctx.block_dim
        hi = (n * (t + 1)) // ctx.block_dim
        if hi > lo:
            out[lo:hi] = fn(*(b[lo:hi] for b in bufs))
            ctx.add_work(hi - lo)

    session.launch(kernel, LaunchConfig(grid=1, block=threads))
    return out.to_numpy()


def _pool_out(x: np.ndarray, kh, kw, sh, sw) -> tuple:
    n, c, h, w = x.shape
    return n, c, (h - kh) // sh + 1, (w - kw) // sw + 1


def _run_node(node: Node, args: list, session: Session) -> Tensor:
    on_gpu = node.device == GPU
    at = node.attrs
    if node.op in ("identity", "copy"):
        return args[0]

    if node.op == "reshape":
        arr = args[0].to_array()
        return Tensor.from_array(arr.reshape(tuple(at["shape"])), dtype=args[0].dtype)

    if node.op == "relu":
        x = args[0].to_array()
        if on_gpu:
            y = _elementwise_gpu(session, lambda a: np.maximum(a, np.float32(0)), x).reshape(x.shape)
        else:
            y = np.maximum(x.astype(np.float32), np.float32(0))
        return Tensor.from_array(y, dtype="f32")

    if node.op == "add":
        a, b = args[0].to_array(), args[1].to_array()
        if a.shape != b.shape:
            raise ValueError(f"add operands differ in shape: {a.shape} vs {b.shape}")
        if on_gpu:
            y = _elementwise_gpu(session, lambda u, v: u + v, a, b).reshape(a.shape)
        else:
            y = a.astype(np.float32) + b.astype(np.float32)
        return Tensor.from_array(y, dtype="f32")

    if node.op == "pool":
        x = args[0].to_array().astype(np.float32)
        kh = int(at.get("kernel", 2))
        kw = int(at.get("kernel_w", kh))
        sh = int(at.get("stride", kh))
        sw = int(at.get("stride_w", sh))
        n, c, oh, ow = _pool_out(x, kh, kw, sh, sw)
        if on_gpu:
            xin = session.alloc(x.size, "f32", device=GPU, name="pool_in")
            xin.load(x.reshape(-1))
            out = session.alloc(n * c * oh * ow, "f32", device=GPU, name="pool_out")
            cells = n * c * oh * ow
            threads = min(8, max(1, cells))

            def kernel(ctx):
                x4 = xin.as_array(x.shape)
                for idx in range(ctx.thread_id, cells, ctx.block_dim):
                    ni, rem = divmod(idx, c * oh * ow)
                    ci, rem = divmod(rem, oh * ow)
                    yi, xi = divmod(rem, ow)
                    win = x4[ni, ci, yi * sh : yi * sh + kh, xi * sw : xi * sw + kw]
                    out[idx] = np.max(win)
                    ctx.add_work(1)

            session.launch(kernel, LaunchConfig(grid=1, block=threads))
            y = out.to_numpy().reshape(n, c, oh, ow)
        else:
            y = x[:, :, : oh * sh, : ow * sw]
            y = y.reshape(n, c, oh, sh, ow, sw)[:, :, :, :kh, :, :kw].max(axis=(3, 5))
        return Tensor.from_array(y, dtype="f32")

    if node.op == "conv2d":
        data = args[0].to_array().astype(np.float32)
        weight = args[1].to_array().astype(np.float32)
        wl = _conv_workload(data, weight, at)
        if on_gpu:
            cfg = node.schedule if node.schedule is not None else ScheduleConfig()
            y = conv2d_scheduled(data, weight, wl, cfg, session=session)
        else:
            y = conv2d_reference(data, weight, wl)
        return Tensor.from_array(y, dtype="f32")

    if node.op == "box_nms":
        rows = args[0].to_array()
        # leading dims of (..., boxes, 6) input index separate images
        sets = rows.reshape(-1, *rows.shape[-2:]) if rows.ndim > 2 else rows[None]
        kwargs = dict(
            iou_threshold=float(at.get("iou_threshold", 0.5)),
            score_threshold=float(at.get("score_threshold", 0.0)),
            top_k=at.get("top_k"),
            max_output=at.get("max_output"),
        )
        out = np.empty(sets.shape, np.float32)
        for i, one in enumerate(sets):
            bs = vision.BoxSet.from_array(one)
            if on_gpu:
                res = vision.box_nms(bs, session=session, **kwargs)
            else:
                res = vision.box_nms_sequential(bs, **kwargs)
            out[i] = res.to_array().reshape(one.shape)
        return Tensor.from_array(out.reshape(rows.shape), dtype="f32")

    if node.op == "multibox_detection":
        probs, locs, anchors = (a.to_array() for a in args[:3])
        kwargs = dict(
            variances=tuple(at.get("variances", vision.boxes.DEFAULT_VARIANCES)),
            score_threshold=float(at.get("score_threshold", 0.01)),
            iou_threshold=float(at.get("iou_threshold", 0.5)),
            top_k=at.get("top_k"),
            max_output=at.get("max_output"),
        )
        if on_gpu:
            res = vision.multibox_detection(probs, locs, anchors, session=session, **kwargs)
        else:
            res = vision.multibox_detection_sequential(probs, locs, anchors, **kwargs)
        stacked = np.stack([r.to_array() for r in res])
        return Tensor.from_array(stacked, dtype="f32")

    if node.op == "roi_align":
        feats = args[0].to_array()
        rois = args[1].to_array()
        size = tuple(at.get("output_size", (2, 2)))
        ratio = int(at.get("sampling_ratio", 2))
        if on_gpu:
            y = vision.roi_align(feats, rois, size, ratio, session=session)
        else:
            y = vision.roi_align_sequential(feats, rois, size, ratio)
        return Tensor.from_array(y, dtype="f32")

    if node.op == "argsort":
        vals = args[0].to_array().reshape(-1)
        order = at.get("order", "ascending")
        if on_gpu:
            sa = vision.SegmentedArray(values=vals.astype(np.float32), offsets=np.array([0, vals.size]))
            y = vision.segmented_argsort(sa, order, block=int(at.get("block", 64)), session=session)
        else:
            y = vision.argsort_sequential(vals, order)
        return Tensor.from_array(y, dtype="i32")

    if node.op == "scan":
        vals = args[0].to_array().reshape(-1)
        kind = at.get("kind", "inclusive")
        p = int(at.get("p", 8))
        if on_gpu:
            y = vision.scan(vals, kind, p=p, session=session)
        else:
            y = vision.scan_sequential(vals, kind, p=p)
        return Tensor.from_array(y)

    raise GraphExecutionError(f"node {node.id!r}: no executor for op {node.op!r}")


def run_graph(g: Graph, inputs: dict, session: Session | None = None) -> dict:
    """Execute the graph in topological order and return its named outputs.

    GPU-tagged nodes run through emulator kernels on a shared session;
    CPU-tagged nodes run sequential implementations of the same
    operators, so outputs do not depend on the placement. A graph with
    no devices assigned runs entirely on the CPU. Each input must have
    the shape and dtype its graph declares.
    """
    assigned = [n.device != UNASSIGNED for n in g.nodes]
    if any(assigned) and not all(assigned):
        half = [n.id for n in g.nodes if n.device == UNASSIGNED]
        raise GraphError(f"placement incomplete: nodes {half} have no device")
    sess = session if session is not None else Session()
    env: dict = {}
    for name, spec in g.inputs.items():
        if name not in inputs:
            raise GraphExecutionError(f"missing graph input {name!r}")
        t = _as_tensor(inputs[name])
        want = tuple(spec.get("shape", t.shape))
        if tuple(t.shape) != want:
            raise GraphExecutionError(f"input {name!r}: shape {t.shape} does not match declared {want}")
        if t.dtype != spec.get("dtype", t.dtype):
            raise GraphExecutionError(f"input {name!r}: dtype {t.dtype} does not match declared {spec['dtype']}")
        env[name] = t
    for node in topo_order(g):
        args = [env[r] for r in node.inputs]
        try:
            env[node.id] = _run_node(node, args, sess)
        except (GraphExecutionError, KeyError):
            raise
        except Exception as e:
            raise GraphExecutionError(f"node {node.id!r} ({node.op}): {e}") from e
    return {out: env[out] for out in g.outputs}
