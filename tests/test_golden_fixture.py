"""The fixture graph's outputs, launch records and conv proxy costs equal the
committed golden, tests/golden/fixture.json, entry by entry."""

import json


from make_fixture_golden import GOLDEN, golden


def _flat(entry) -> list:
    """(name, value) pairs of one (seed, placement) entry, in a fixed order."""
    draw = f"{entry['draw']} draw, " if "draw" in entry else ""
    where = f"{draw}seed {entry['seed']} {entry['placement']}"
    pairs = [(f"{where}: race_check", entry["race_check"]),
             (f"{where}: outputs", sorted(entry["outputs"])),
             (f"{where}: launch count", len(entry["launches"])),
             (f"{where}: conv nodes", list(entry["conv_proxy"]))]
    pairs += [(f"{where}: output {k} {field}", v[field])
              for k, v in sorted(entry["outputs"].items()) for field in ("dtype", "shape", "sha256")]
    pairs += [(f"{where}: launch {i} ({rec[0]})", rec) for i, rec in enumerate(entry["launches"])]
    pairs += [(f"{where}: proxy cost of {node}", cost) for node, cost in entry["conv_proxy"].items()]
    return pairs


def test_fixture_matches_the_committed_golden_entry_by_entry():
    want = json.loads(GOLDEN.read_text())
    got = golden()
    stamp = (f"golden written on Python {want['python']} and numpy {want['numpy']}, "
             f"recomputed on {got['python']} and {got['numpy']}")
    assert len(got["entries"]) == len(want["entries"]), stamp
    for w, g in zip(want["entries"], got["entries"]):
        for (name, wv), (_, gv) in zip(_flat(w), _flat(g)):
            assert gv == wv, f"{name}: golden {wv!r}, got {gv!r}; {stamp}"
