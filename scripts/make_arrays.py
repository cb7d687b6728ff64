"""Regenerate the bundled orthogonal-array data files.

Run from the repository root:  python scripts/make_arrays.py

The 4-row and 9-row arrays are classical small designs written out
directly. The 16-row array for five 4-level variables comes from the
GF(4) linear construction. The 36-row mixed-level design is built in two
steps: a strength-2 base with six 2-level and five 3-level columns
(12-row building blocks crossed with a Z3 shift), then three column
merges that fuse a 2-level and a 3-level column into a 6-level one.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from mvtlab.taguchi import ArrayValidationError, OrthogonalArray, load_array, save_array, validate

OUT = Path(__file__).resolve().parent.parent / "src" / "mvtlab" / "arrays"

OA4 = """\
# 4-run design for three 2-level variables
2 2 2
0 0 0
0 1 1
1 0 1
1 1 0
"""

OA9 = """\
# 9-run design for four 3-level variables
3 3 3 3
0 0 0 0
0 1 2 1
0 2 1 2
1 0 2 2
1 1 1 0
1 2 0 1
2 0 1 1
2 1 0 2
2 2 2 0
"""


def gf4_mul(a, b):
    # GF(4) with 2 = x, 3 = x + 1 over x^2 + x + 1; addition is XOR.
    table = {
        (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (1, 1): 1, (1, 2): 2, (1, 3): 3,
        (2, 2): 3, (2, 3): 1,
        (3, 3): 2,
    }
    key = (min(a, b), max(a, b))
    return table[key]


def make_oa16():
    rows = []
    for a in range(4):
        for b in range(4):
            rows.append((a, b, a ^ b, a ^ gf4_mul(2, b), a ^ gf4_mul(3, b)))
    return OrthogonalArray(column_levels=(4,) * 5, rows=tuple(rows))


def find_binary_columns(n_cols, length, rng):
    """Binary columns, each balanced, every pair agreeing in half the rows."""
    cols = []
    attempts = 0
    while len(cols) < n_cols:
        attempts += 1
        if attempts > 200000:
            cols, attempts = [], 0
        cand = np.zeros(length, dtype=int)
        cand[rng.choice(length, length // 2, replace=False)] = 1
        ok = all(int(cand @ c) == length // 4 for c in cols)
        if ok:
            cols.append(cand)
    return cols


def find_ternary_columns(n_cols, length, rng):
    """Z3 columns whose pairwise differences hit each residue equally often."""
    per = length // 3
    cols = [np.zeros(length, dtype=int)]  # anchor; others must be balanced
    attempts = 0
    while len(cols) < n_cols:
        attempts += 1
        if attempts > 200000:
            cols, attempts = [np.zeros(length, dtype=int)], 0
        cand = np.array([0] * per + [1] * per + [2] * per)
        rng.shuffle(cand)
        ok = True
        for c in cols:
            diff = (cand - c) % 3
            if np.bincount(diff, minlength=3).tolist() != [per] * 3:
                ok = False
                break
        if ok:
            cols.append(cand)
    return cols


# Base column layout: three-level at 0/2/4/6/10, two-level elsewhere.
# Merging (1,2), then (4,5), then (7,8) yields levels [3,6,2,3,6,2,2,6].
BASE_LAYOUT = (3, 2, 3, 2, 3, 2, 3, 2, 2, 2, 3)
MERGES = ((1, 2), (4, 5), (7, 8))


def make_oa36_base():
    rng = np.random.default_rng(20240824)
    two = find_binary_columns(6, 12, rng)
    three = find_ternary_columns(5, 12, rng)
    rows = []
    for r in range(12):
        for g in range(3):
            row, t_i, b_i = [], 0, 0
            for levels in BASE_LAYOUT:
                if levels == 3:
                    row.append(int((three[t_i][r] + g) % 3))
                    t_i += 1
                else:
                    row.append(int(two[b_i][r]))
                    b_i += 1
            rows.append(tuple(row))
    return OrthogonalArray(column_levels=BASE_LAYOUT, rows=tuple(rows))


def merge_columns(a, col2, col3):
    """Fuse a 2-level column and a 3-level column into one 6-level column
    (value 3*v2 + v3) placed at the smaller of the two positions.

    Requires the pair to be balanced so the merged column stays balanced.
    """
    if a.column_levels[col2] != 2:
        raise ValueError(f"column {col2} has {a.column_levels[col2]} levels, need 2")
    if a.column_levels[col3] != 3:
        raise ValueError(f"column {col3} has {a.column_levels[col3]} levels, need 3")
    keep, drop = min(col2, col3), max(col2, col3)
    if not dict(validate(a).pair_balance_info)[keep, drop]:
        raise ArrayValidationError(
            f"columns {col2} and {col3} are not pair-balanced; merge would be unbalanced"
        )
    levels = list(a.column_levels)
    levels[keep] = 6
    del levels[drop]
    rows = np.delete(a.rows, drop, axis=1)
    rows[:, keep] = 3 * a.rows[:, col2] + a.rows[:, col3]
    return OrthogonalArray(column_levels=tuple(levels), rows=rows)


def make_oa36_mixed(base):
    a = base
    for col2, col3 in MERGES:
        a = merge_columns(a, col2, col3)
    assert a.column_levels == (3, 6, 2, 3, 6, 2, 2, 6), a.column_levels
    return a


def write(name, text):
    path = OUT / f"{name}.txt"
    load_array(text)  # round-trip through the validator before freezing
    path.write_text(text)
    print(f"wrote {path}")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    write("oa4_2x3", OA4)
    write("oa9_3x4", OA9)
    write("oa16_4x5", "# 16-run design for five 4-level variables\n" + save_array(make_oa16()))
    base = make_oa36_base()
    write("oa36_base", "# 36-run strength-2 base for the mixed-level design\n" + save_array(base))
    mixed = make_oa36_mixed(base)
    write(
        "oa36_mixed",
        "# 36-run design for levels [3,6,2,3,6,2,2,6], from oa36_base via column merges\n"
        + save_array(mixed),
    )


if __name__ == "__main__":
    main()
