"""No line under src/ is wider than 120 columns, so a line count is not met by packing lines."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WIDTH = 120


def test_no_source_line_is_wider_than_120_columns():
    wide = [f"{path.relative_to(SRC)}:{i}: {len(line)} columns"
            for path in sorted(SRC.rglob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > WIDTH]
    assert wide == []
