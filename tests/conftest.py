"""Shared test setup: every test starts with none of the package's per-process state."""

import pytest

from edgegraph import conv, graph, simt, tune

# every lru_cache memo in the package; a test fails if one is missing
MEMOS = (conv._tap_plan, conv._lane_plan, graph._conv_workload, simt._row_plan, tune._workload_data,
         tune._search_space)


@pytest.fixture(autouse=True)
def fresh_process_state():
    """Each test builds the tap plans, lane plans, graph conv workloads, workload
    data, search spaces and records it uses, so none leans on whatever ran before it."""
    for memo in MEMOS:
        memo.cache_clear()
    tune._records_cache.clear()
