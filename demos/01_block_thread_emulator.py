"""Tour of the block/thread execution model.

Kernels launch over a grid of blocks; threads of a block share storage
and synchronize with barriers; the emulator replays it all
deterministically and keeps load/divergence counters.
"""

import numpy as np

from edgegraph.simt import LaunchConfig, RaceError, Session

sess = Session()
a = sess.alloc(8, "f32", name="a")
b = sess.alloc(8, "f32", name="b")
out = sess.alloc(8, "f32", name="out")
a.load(np.arange(8, dtype=np.float32))
b.load(np.full(8, 10, dtype=np.float32))


def vec_add(ctx):
    i = ctx.global_id
    out[i] = a[i] + b[i]
    ctx.add_work(1)


sess.launch(vec_add, LaunchConfig(grid=2, block=4))
print("vector add over 2 blocks x 4 threads:", out.to_numpy())


def block_reverse(ctx):
    # stage through block-shared storage, barrier, read a sibling's slot
    t = ctx.thread_id
    ctx.shared[t] = a[ctx.global_id]
    yield ctx.barrier()
    out[ctx.global_id] = ctx.shared[ctx.block_dim - 1 - t]
    ctx.add_work(1)


sess.launch(block_reverse, LaunchConfig(grid=2, block=4, shared_slots=4))
print("block-local reverse via shared memory:", out.to_numpy())

stats = sess.stats()
print(f"launches={stats.launches} barriers={stats.barriers} "
      f"per_thread_items={stats.per_thread_items} imbalance={stats.load_imbalance:.3f}")

# the race checker rejects programs whose output depends on thread order
racy_sess = Session(race_check=True)
target = racy_sess.alloc(1, "i32", name="target")


def racy(ctx):
    target[0:1] = ctx.thread_id  # every lane stores into slot 0


try:
    racy_sess.launch(racy, LaunchConfig(grid=1, block=4))
except RaceError as e:
    print("race checker caught:", e)
