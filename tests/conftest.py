"""Shared test setup: every test starts with none of conv's or tune's per-process state."""

import pytest

from edgegraph import conv, tune


@pytest.fixture(autouse=True)
def fresh_process_state():
    """Each test builds the tap plans, workload data, search spaces and records
    it uses, so none leans on whatever ran before it."""
    for memo in (conv._tap_plan, tune._workload_data, tune._search_space):
        memo.cache_clear()
    tune._records_cache.clear()
