"""Prefix scan with register blocking, and segmented argsort.

The scan splits the input into per-processor chunks (up-sweep), runs a
cooperative Hillis-Steele ladder over the chunk totals inside a single
block, and adds the scanned bases back (down-sweep) -- three launches,
no global synchronization. The segmented sort flattens many
variable-length rows, block-sorts, then merges every sorted run in one
pass, so two launches (one for a single sort block), never moving values
across segment boundaries.
"""

import numpy as np

from edgegraph.simt import Session
from edgegraph.vision import ScanPlan, SegmentedArray, partition_chunks, scan, segmented_argsort

# the 18-element / 5-processor chunking: 4+4+4+4+2
print("chunks for n=18, p=5:", [b - a for a, b in partition_chunks(18, 5)])
plan = ScanPlan.for_size(18, 5)
print(f"plan: {plan.p} processors x {plan.chunk} elements, {plan.num_coop_passes} cooperative passes")

rng = np.random.default_rng(0)
values = rng.integers(-5, 10, 18).astype(np.int32)
sess = Session()
prefix = scan(values, kind="inclusive", p=5, session=sess)
print("values:   ", values)
print("inclusive:", prefix)
print("exclusive:", scan(values, kind="exclusive", p=5))
stats = sess.stats()
print(f"scan used {stats.launches} launches and {stats.barriers} cooperative barriers")

# segmented argsort: three rows of different lengths, sorted independently
rows = [[0.7, 0.1, 0.9], [0.5], [0.3, 0.8, 0.2, 0.6]]
sa = SegmentedArray.from_segments(rows)
sess = Session()
ranks = segmented_argsort(sa, order="descending", block=2, session=sess)
print("flattened:", sa.values)
print("offsets:  ", sa.offsets)
print("ranks:    ", ranks)
for s, row in enumerate(rows):
    a, b = sa.offsets[s], sa.offsets[s + 1]
    print(f"  row {s} gathered descending: {[row[i] for i in ranks[a:b]]}")
blocks = -(-sa.values.size // 2)
print(f"sort used {sess.stats().launches} launches for {blocks} sort blocks "
      "(1 block sort, then 1 merge pass over every run)")
