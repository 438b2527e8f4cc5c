"""Schedule search with the records database.

Random search samples the space uniformly; model-guided search trains a
kNN cost model on what it has measured and spends the rest of its
budget near the predicted minimum. Every trial lands in the
line-delimited records file, newest last.
"""

import os
import tempfile

from edgegraph.conv import ConvWorkload, schedule_space
from edgegraph.tune import proxy_timer, query_best, records_load, tune_model, tune_random

wl = ConvWorkload(n=1, c=8, h=8, w=8, k=8, r=3, s=3, pad=(1, 1))
space = schedule_space(wl)
print(f"workload {wl.key()}: {len(space)} candidate schedules")

with tempfile.TemporaryDirectory() as tmp:
    records_path = os.path.join(tmp, "records.jsonl")
    best_r = tune_random(wl, budget=24, seed=0, repeats=3, timer=proxy_timer, records_path=records_path)
    print(f"random search  (24 trials): cost {best_r.cost_mean:.3g}  config {best_r.config.as_dict()}")

    best_m = tune_model(wl, budget=24, batch=6, seed=0, repeats=3, timer=proxy_timer,
                        records_path=records_path)
    print(f"model search   (24 trials): cost {best_m.cost_mean:.3g}  config {best_m.config.as_dict()}")

    records = records_load(records_path)
    print(f"records file now holds {len(records)} trials; "
          f"best ever for this workload: {query_best(records, wl.key()).cost_mean:.3g}")
