"""Schedule-templated convolution: splits map to blocks and threads.

oc_split and h_split decide the launch grid (channel groups x height
bands run as parallel blocks); w_tile and vec decide the per-block
thread count; unroll flattens the reduction nest. Every valid config
computes the same values as the plain reference convolution.
"""

import numpy as np

from edgegraph.conv import ConvWorkload, ScheduleConfig, conv2d_reference, conv2d_scheduled, schedule_space
from edgegraph.simt import Session

wl = ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1))
print("workload key:", wl.key())

rng = np.random.default_rng(0)
x = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
ref = conv2d_reference(x, w, wl)

space = schedule_space(wl)
print(f"schedule space holds {len(space)} configs; first (default) = {space[0]}")

for cfg in (ScheduleConfig(), ScheduleConfig(oc_split=4, h_split=2, w_tile=4, unroll=1, vec=4)):
    sess = Session()
    out = conv2d_scheduled(x, w, wl, cfg, session=sess)
    rec = sess.records[-1]
    stats = sess.stats()
    print(
        f"cfg {cfg.as_dict()} -> {rec.kernel}: grid={rec.config.grid} blocks x {rec.config.block} threads, "
        f"imbalance={stats.load_imbalance:.3f}, max |diff| vs reference = {np.max(np.abs(out - ref)):.3g}"
    )

try:
    conv2d_scheduled(x, w, wl, ScheduleConfig(oc_split=3))
except Exception as e:
    print("rejected config:", e)
