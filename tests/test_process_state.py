"""The autouse fixture in conftest.py clears every memo the package holds."""

import importlib
import pkgutil

import edgegraph
from conftest import MEMOS


def test_the_autouse_fixture_clears_every_memo_in_the_package():
    found = {}
    for info in pkgutil.walk_packages(edgegraph.__path__, "edgegraph."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    assert "edgegraph.simt._row_plan" in found
    missed = sorted(name for name, obj in found.items() if obj not in MEMOS)
    assert not missed, f"conftest.MEMOS does not clear {missed}"
