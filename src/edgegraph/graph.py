"""Operator graphs, two-pass device placement, and the executor.

Placement is deliberately simple: pass one tags every node GPU if its
op kind is on the caller's GPU list and CPU otherwise; pass two inserts
an explicit copy node on every edge whose endpoints disagree. Copy
nodes are ordinary graph nodes, so the fallback overhead they model is
inspectable. The executor is one table, ``OPS``, with one runner per
op kind: it calls the emulator kernel for a GPU-tagged node and the
kernel's sequential twin for a CPU-tagged one, which keeps graph
outputs bitwise independent of the placement. Runners take and return
numpy arrays: each value between nodes is a read-only f32, i32 or bool
array, and :class:`Tensor` is only ``run_graph``'s input and output type.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import vision
# conv2d_reference runs on no placement: perfbench/tracing.py patches it here and on conv, as one object
from .conv import ConvWorkload, ScheduleConfig, conv2d_host, conv2d_reference, conv2d_scheduled
from .simt import CPU, GPU, LaunchConfig, Session, check_count, check_int, run_rows
from .tensor import Tensor, as_dtype

UNASSIGNED = "unassigned"
_DEFAULT_SCHEDULE = ScheduleConfig()  # a conv node's schedule until one is set

class GraphError(ValueError):
    """Graph document or graph state violates the format contract."""


class GraphExecutionError(RuntimeError):
    """An operator failed while running the graph; names the node."""


class GraphInputError(GraphExecutionError, ValueError):
    """A graph input is missing or does not fit its declaration; names it."""


@dataclass
class Node:
    id: str
    op: str
    attrs: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    device: str = UNASSIGNED
    schedule: ScheduleConfig | None = None


@dataclass
class Graph:
    nodes: list
    inputs: dict
    outputs: list

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
    "inputs": {name: {shape, dtype}}, "outputs": [ids]}. Rejects a part of
    the wrong JSON type, unknown op kinds, dangling references, duplicate
    ids and cycles, naming the offending node or input.
    """
    doc = json.loads(text) if isinstance(text, str) else text
    if not (isinstance(doc, dict) and isinstance(doc.get("nodes"), list) and isinstance(doc.get("inputs", {}), dict)
            and isinstance(doc.get("outputs", []), list)):
        raise GraphError("graph document must be an object with a 'nodes' list, 'inputs' object and 'outputs' list")
    graph_inputs = dict(doc.get("inputs", {}))
    for name, spec in graph_inputs.items():
        if not isinstance(spec, dict) or not isinstance(spec.get("shape", []), (list, tuple)):
            raise GraphError(f"graph input {name!r} must be an object whose 'shape' is a list")
    nodes = []
    seen = set()
    for raw in doc["nodes"]:
        nid = raw.get("id") if isinstance(raw, dict) else None
        if not nid or not isinstance(nid, str):
            raise GraphError(f"node is not an object with a string id: {raw!r}")
        if nid in seen or nid in graph_inputs:
            raise GraphError(f"duplicate tensor producer {nid!r}")
        seen.add(nid)
        op = raw.get("op")
        if not isinstance(op, str) or op not in OPS:
            raise GraphError(f"node {nid!r}: unknown op kind {op!r}")
        attrs, inputs = raw.get("attrs", {}), raw.get("inputs", [])
        if not isinstance(attrs, dict) or not isinstance(inputs, list):
            raise GraphError(f"node {nid!r}: 'attrs' must be an object and 'inputs' a list of ids")
        nodes.append(Node(id=nid, op=op, attrs=dict(attrs), inputs=list(inputs)))
    known = seen | set(graph_inputs)
    for n in nodes:
        for ref in n.inputs:
            if not isinstance(ref, str) or ref not in known:
                raise GraphError(f"node {n.id!r}: reference to missing tensor {ref!r}")
    outputs = list(doc.get("outputs", []))
    for out in outputs:
        if not isinstance(out, str) or out not in seen:
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


def _by_rows(gpu, fn, out_shape, *arrays):
    """``fn(*arrays)`` over the arrays as f32, of shape ``out_shape``, for
    arrays whose leading axis indexes independent rows.

    The range function slices the flat inputs on the CPU (``gpu`` is None)
    or the buffers they are loaded into on a GPU session. :func:`run_rows`
    calls it once on the CPU, or in a launch whose up to 8 threads each read
    an input with one slice read and store with one slice write.
    """
    rows = out_shape[0]
    ins = []  # (flat input or its buffer, elements of one row, shape of one row)
    for i, a in enumerate(arrays):
        a = np.asarray(a, np.float32)
        flat = a.reshape(-1)
        if gpu is not None:
            flat = gpu.alloc(a.size, "f32", name=f"rows_in{i}")
            flat.load(a.reshape(-1))
        ins.append((flat, a.size // rows, a.shape[1:]))

    def by_rows(lo, hi):
        return fn(*(f[lo * k : hi * k].reshape(hi - lo, *shape) for f, k, shape in ins))

    by_rows.__name__, by_rows.__qualname__ = fn.__name__, fn.__qualname__
    out = run_rows(gpu, LaunchConfig(grid=1, block=min(8, rows)), "f32", rows,
                   math.prod(out_shape[1:]), by_rows, "rows_out")
    return out.reshape(out_shape)


def _max_pool(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Max over every (kh, kw) window of the last two axes, at strides (sh, sw),
    taken tap by tap in window row-major order."""
    oh, ow = (x.shape[-2] - kh) // sh + 1, (x.shape[-1] - kw) // sw + 1
    tap = lambda i, j: x[..., i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw]
    out = tap(0, 0).copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                np.maximum(out, tap(i, j), out=out)
    return out


def _vision(gpu, name: str, *args, **kwargs):
    """``vision.<name>`` on the GPU session, or its sequential twin on the CPU.

    Looked up when called, so a patched vision function is the one that runs.
    """
    if gpu is None:
        return getattr(vision, name + "_sequential")(*args, **kwargs)
    return getattr(vision, name)(*args, session=gpu, **kwargs)


def _int_attr(at: dict, name: str, default: int) -> int:
    return check_int(name, at.get(name, default), 1)


def _nms_attrs(at: dict, default_score: float) -> dict:
    return dict(
        iou_threshold=float(at.get("iou_threshold", 0.5)),
        score_threshold=float(at.get("score_threshold", default_score)),
        top_k=check_count("top_k", at.get("top_k")),
        max_output=check_count("max_output", at.get("max_output")),
    )


def _relu(node, args, gpu):
    x = args[0]
    return _by_rows(gpu, lambda v: np.maximum(v, np.float32(0)), (x.size,), x.reshape(-1)).reshape(x.shape)


def _add(node, args, gpu):
    a, b = args
    if a.shape != b.shape:
        raise ValueError(f"add operands differ in shape: {a.shape} vs {b.shape}")
    return _by_rows(gpu, np.add, (a.size,), a.reshape(-1), b.reshape(-1)).reshape(a.shape)


def _pool(node, args, gpu):
    at = node.attrs
    x = args[0]
    n, c, h, w = x.shape
    kh = _int_attr(at, "kernel", 2)
    kw = _int_attr(at, "kernel_w", kh)
    sh = _int_attr(at, "stride", kh)
    sw = _int_attr(at, "stride_w", sh)
    if kh > h or kw > w:
        raise ValueError(f"pool window {kh}x{kw} is larger than the {h}x{w} map")
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    y = _by_rows(gpu, lambda planes: _max_pool(planes, kh, kw, sh, sw), (n * c, oh, ow),
                 x.reshape(n * c, h, w))
    return y.reshape(n, c, oh, ow)


@functools.lru_cache(maxsize=32)
def _conv_workload(dshape: tuple, wshape: tuple, attrs: tuple) -> ConvWorkload:
    """The workload of a conv of ``dshape`` data and ``wshape`` weights under the
    (name, value) pairs ``attrs``; kept for the 32 most recently used."""
    (n, c, h, w), (k, _, r, s) = dshape, wshape
    return ConvWorkload(n, c, h, w, k, r, s, **dict(attrs))


def _conv2d(node, args, gpu):
    data, weight = args
    attrs = tuple((a, node.attrs[a]) for a in ("stride", "pad", "dilation", "groups") if a in node.attrs)
    # memo keys are ints and int pairs, a list pair as a tuple, which ConvWorkload takes alike;
    # any other value could share a key with a different outcome, as True == 1 and 1.0 == 1
    key = tuple((a, v if type(v) is int else tuple(v)) for a, v in attrs if type(v) is int
                or type(v) in (list, tuple) and len(v) == 2 and type(v[0]) is type(v[1]) is int)
    wl = (_conv_workload(data.shape, weight.shape, key) if len(key) == len(attrs)
          else _conv_workload.__wrapped__(data.shape, weight.shape, attrs))
    if gpu is None:
        return conv2d_host(data, weight, wl)
    cfg = node.schedule if node.schedule is not None else _DEFAULT_SCHEDULE
    return conv2d_scheduled(data, weight, wl, cfg, session=gpu)


def _box_nms(node, args, gpu):
    rows = args[0]
    # leading dims of (..., boxes, 6) input index separate images
    images = max(1, math.prod(rows.shape[:-2]))
    kept = _vision(gpu, "box_nms_batch", vision.BoxSet.from_array(rows), images,
                   **_nms_attrs(node.attrs, 0.0))
    return kept.to_array().reshape(rows.shape)


def _multibox_detection(node, args, gpu):
    variances = tuple(node.attrs.get("variances", vision.boxes.DEFAULT_VARIANCES))
    res = _vision(gpu, "multibox_detection", *args[:3], variances=variances,
                  **_nms_attrs(node.attrs, 0.01))
    return np.stack([r.to_array() for r in res])


def _roi_align(node, args, gpu):
    size, ratio = node.attrs.get("output_size", (2, 2)), node.attrs.get("sampling_ratio", 2)
    return _vision(gpu, "roi_align", args[0], args[1], size, ratio)


def _argsort(node, args, gpu):
    vals = args[0].reshape(-1)
    order = node.attrs.get("order", "ascending")
    block = _int_attr(node.attrs, "block", 64)
    if gpu is None:
        return vision.argsort_sequential(vals, order)
    sa = vision.SegmentedArray(values=vals, offsets=np.array([0, vals.size]))
    return vision.segmented_argsort(sa, order, block=block, session=gpu)


def _scan(node, args, gpu):
    vals = args[0].reshape(-1)
    return _vision(gpu, "scan", vals, node.attrs.get("kind", "inclusive"), p=_int_attr(node.attrs, "p", 8))


# op kind -> runner(node, args, gpu), taking and returning arrays; ``gpu``
# is the session on a GPU placement and None on the CPU, where the
# sequential twins run
OPS = {
    "identity": lambda node, args, gpu: args[0],
    "copy": lambda node, args, gpu: args[0],
    "reshape": lambda node, args, gpu: args[0].reshape(tuple(node.attrs["shape"])),
    "relu": _relu,
    "add": _add,
    "pool": _pool,
    "conv2d": _conv2d,
    "box_nms": _box_nms,
    "multibox_detection": _multibox_detection,
    "roi_align": _roi_align,
    "argsort": _argsort,
    "scan": _scan,
}

# ops with an emulator-kernel implementation; default GPU list for placement
DEFAULT_GPU_OPS = frozenset(OPS) - {"copy"}


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Read-only view of ``arr``: every consumer of a value shares it."""
    view = arr.view()
    view.setflags(write=False)
    return view


def _run_node(node: Node, args: list, session: Session) -> np.ndarray:
    out = OPS[node.op](node, args, session if node.device == GPU else None)
    return _frozen(as_dtype(out)[1])


def run_graph(g: Graph, inputs: dict, session: Session | None = None) -> dict:
    """Execute the graph in topological order and return its named outputs.

    GPU-tagged nodes run through emulator kernels on a shared session;
    CPU-tagged nodes run sequential implementations of the same
    operators, so outputs do not depend on the placement. A graph with
    no devices assigned runs entirely on the CPU. Each input, a Tensor
    or an array, must have the shape and dtype its graph declares; each
    output is a Tensor.
    """
    assigned = [n.device != UNASSIGNED for n in g.nodes]
    if any(assigned) and not all(assigned):
        half = [n.id for n in g.nodes if n.device == UNASSIGNED]
        raise GraphError(f"placement incomplete: nodes {half} have no device")
    sess = session if session is not None else Session()
    env: dict = {}
    for name, spec in g.inputs.items():
        if name not in inputs:
            raise GraphInputError(f"missing graph input {name!r}")
        value = inputs[name]
        try:
            dtype, arr = (value.dtype, value.to_array()) if isinstance(value, Tensor) else as_dtype(value)
        except ValueError as e:
            raise GraphInputError(f"input {name!r}: {e}") from e
        if arr.size == 0:
            raise GraphInputError(f"input {name!r}: extents must be positive, got {arr.shape}")
        want = tuple(spec.get("shape", arr.shape))
        if arr.shape != want:
            raise GraphInputError(f"input {name!r}: shape {arr.shape} does not match declared {want}")
        if dtype != spec.get("dtype", dtype):
            raise GraphInputError(f"input {name!r}: dtype {dtype} does not match declared {spec['dtype']}")
        env[name] = _frozen(arr)
    for node in topo_order(g):
        args = [env[r] for r in node.inputs]
        try:
            env[node.id] = _run_node(node, args, sess)
        except GraphExecutionError:
            raise
        except Exception as e:
            raise GraphExecutionError(f"node {node.id!r} ({node.op}): {e}") from e
    return {out: Tensor.from_array(env[out]) for out in g.outputs}
