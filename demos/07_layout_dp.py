"""Graph-level layout tuning by dynamic programming.

A packed layout can make a kernel faster but costs a transformation on
every edge where producer and consumer disagree. The DP weighs both and
returns the exact optimum for chains and trees. The DP never parses a
candidate: here the labels are layout names, the kernel costs below are
given, and a transformation is priced from the element count it moves;
no tensor is repacked. Any other hashable labels, such as device names,
work the same way.
"""

import numpy as np

from edgegraph.graph import Graph, Node
from edgegraph.tune import graph_tune_dp

# conv -> conv -> conv chain; packed layout is cheaper for the middle ones
nodes = [
    Node(id="conv0", op="conv2d", inputs=[], attrs={"out_shape": (1, 8, 8, 8)}),
    Node(id="conv1", op="conv2d", inputs=["conv0"], attrs={"out_shape": (1, 8, 8, 8)}),
    Node(id="conv2", op="conv2d", inputs=["conv1"], attrs={"out_shape": (1, 8, 8, 8)}),
]
g = Graph(nodes=nodes, inputs={}, outputs=["conv2"])

node_costs = {
    "conv0": {"NCHW": 7.0, "NCHWc4": 10.0},  # this shape prefers the plain layout
    "conv1": {"NCHW": 10.0, "NCHWc4": 6.0},
    "conv2": {"NCHW": 10.0, "NCHWc4": 6.5},
}


def tc(src, dst, shape):
    # abstract units proportional to elements moved
    return 0.0 if src == dst else float(np.prod(shape)) / 256.0


assignment, total = graph_tune_dp(g, node_costs, tc)
print("cheap transforms: each node takes its best layout, one repack on the first edge")
for nid in ("conv0", "conv1", "conv2"):
    print(f"  {nid}: {assignment[nid]}")
print(f"total cost: {total}")

# make transforms expensive and the DP stops flip-flopping
expensive = lambda s, d, shape: 0.0 if s == d else 100.0
assignment2, total2 = graph_tune_dp(g, node_costs, expensive)
print("100-unit transforms: the chain settles on one layout,",
      f"{assignment2['conv0']} / {assignment2['conv1']} / {assignment2['conv2']}, total {total2}")
