"""Summarise how freshly written preset CSVs differ from the goldens.

Run from the repository root:  python scripts/golden_diff.py DIR

For every tests/golden/<preset>.csv that has a DIR/<preset>.csv, prints
one line: the rows that moved (a row is keyed by traffic and method, and
moves when any of its bytes change or it exists on one side only), the
methods those rows belong to, and the largest |delta mean| over the moved
rows present on both sides.

Exits 0 when every golden has a fresh CSV and no row moved, 1 otherwise,
and 2 on a usage error.
"""

import csv
import io
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def rows_by_key(text: str) -> dict:
    """(traffic, method) -> the row's fields, for a lab CSV's text."""
    return {(r["traffic"], r["method"]): r for r in csv.DictReader(io.StringIO(text))}


def compare(new_text: str, golden_text: str) -> tuple[int, int, list[str], float]:
    """(rows moved, golden rows, methods moved in sorted order, max |delta mean|)."""
    new, old = rows_by_key(new_text), rows_by_key(golden_text)
    moved = [k for k in old.keys() | new.keys() if old.get(k) != new.get(k)]
    deltas = [
        abs(float(new[k]["mean"]) - float(old[k]["mean"]))
        for k in moved
        if k in new and k in old
    ]
    return len(moved), len(old), sorted({method for _, method in moved}), max(deltas, default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/golden_diff.py DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    status = 0
    for golden in sorted(GOLDEN.glob("*.csv")):
        fresh = out / golden.name
        if not fresh.exists():
            print(f"{golden.stem}: no {fresh}")
            status = 1
            continue
        moved, total, methods, delta = compare(fresh.read_text(), golden.read_text())
        print(
            f"{golden.stem}: {moved}/{total} rows moved, "
            f"methods moved: {', '.join(methods) or 'none'}, max |delta mean| {delta:.4f}"
        )
        status |= moved > 0
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
