"""Orthogonal-array loading, validation, and main-effect analysis.

Array file format: first non-comment line is the space-separated column
levels; each following line is one row of 0-based value indices. Lines
starting with '#' are comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .genome import Candidate

ORTHO_TOL = 1e-9


class ArrayFormatError(ValueError):
    """Raised when an array file cannot be parsed."""


class ArrayValidationError(ValueError):
    """Raised when a parsed array violates a design property."""


@dataclass(frozen=True)
class OrthogonalArray:
    column_levels: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_columns(self) -> int:
        return len(self.column_levels)

    def row_candidate(self, index: int) -> Candidate:
        return Candidate(self.rows[index])

    def column(self, index: int) -> list[int]:
        return [row[index] for row in self.rows]


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    offending_columns: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[PropertyCheck, ...]
    pair_balance_info: tuple = ()  # informational only, never fails the array

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.passed]


def validate(a: OrthogonalArray) -> ValidationReport:
    """Check value ranges, per-column balance, and pairwise orthogonality of
    mean-centered columns. Pair balance is reported as information only."""
    mat = np.array(a.rows, dtype=float) if a.rows else np.empty((0, a.n_columns))

    range_bad = []
    for i, levels in enumerate(a.column_levels):
        col = mat[:, i]
        if col.size and (col.min() < 0 or col.max() >= levels):
            range_bad.append(i)

    balance_bad = []
    for i, levels in enumerate(a.column_levels):
        counts = np.bincount(np.asarray(a.column(i)), minlength=levels)
        if len(set(counts.tolist())) != 1 or len(counts) != levels:
            balance_bad.append(i)

    ortho_bad = []
    centered = mat - mat.mean(axis=0, keepdims=True)
    for i in range(a.n_columns):
        for j in range(i + 1, a.n_columns):
            if abs(float(centered[:, i] @ centered[:, j])) > ORTHO_TOL:
                ortho_bad.append((i, j))

    pair_info = []
    for i in range(a.n_columns):
        for j in range(i + 1, a.n_columns):
            combos = {}
            for row in a.rows:
                combos[(row[i], row[j])] = combos.get((row[i], row[j]), 0) + 1
            full = a.column_levels[i] * a.column_levels[j]
            balanced = len(combos) == full and len(set(combos.values())) == 1
            pair_info.append(((i, j), balanced))

    checks = (
        PropertyCheck("range", not range_bad, tuple(range_bad)),
        PropertyCheck("balance", not balance_bad, tuple(balance_bad)),
        PropertyCheck("orthogonality", not ortho_bad, tuple(ortho_bad)),
    )
    return ValidationReport(checks=checks, pair_balance_info=tuple(pair_info))


def parse_array(text: str) -> OrthogonalArray:
    """Parse an array from file contents, checking the format only: integer
    tokens, at least one row, every row as wide as the level line."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ArrayFormatError("empty array file")
    try:
        levels = tuple(int(tok) for tok in lines[0].split())
        rows = tuple(tuple(int(tok) for tok in line.split()) for line in lines[1:])
    except ValueError as exc:
        raise ArrayFormatError(f"non-integer token in array file: {exc}") from exc
    if not rows:
        raise ArrayFormatError("array file has no rows")
    for r, row in enumerate(rows):
        if len(row) != len(levels):
            raise ArrayFormatError(
                f"row {r} has {len(row)} entries, expected {len(levels)}"
            )
    return OrthogonalArray(column_levels=levels, rows=rows)


def load_array(text: str) -> OrthogonalArray:
    """Parse and validate an array from file contents."""
    a = parse_array(text)
    report = validate(a)
    if not report.valid:
        names = ", ".join(
            f"{c.name} (columns {list(c.offending_columns)})" for c in report.failures()
        )
        raise ArrayValidationError(f"array fails validation: {names}")
    return a


def load_array_file(path) -> OrthogonalArray:
    return load_array(Path(path).read_text())


def load_bundled_array(name: str) -> OrthogonalArray:
    """Load one of the arrays shipped with the package, e.g. 'oa9_3x4'. Only
    a bundled file's own name is accepted, so no name reaches outside the
    package's array directory."""
    files = {
        f.name.removesuffix(".txt"): f
        for f in resources.files("mvtlab.arrays").iterdir()
        if f.name.endswith(".txt")
    }
    if name not in files:
        raise ValueError(f"unknown bundled array {name!r} (bundled: {', '.join(sorted(files))})")
    return load_array(files[name].read_text())


def save_array(a: OrthogonalArray) -> str:
    lines = [" ".join(str(v) for v in a.column_levels)]
    lines.extend(" ".join(str(v) for v in row) for row in a.rows)
    return "\n".join(lines) + "\n"


def main_effect(a: OrthogonalArray, scores, var: int, value: int) -> float:
    """Mean score over rows whose var-th entry equals value."""
    scores = list(scores)
    if len(scores) != a.n_rows:
        raise ValueError(f"{len(scores)} scores for {a.n_rows} rows")
    if not 0 <= var < a.n_columns:
        raise IndexError(f"variable {var} out of range")
    if not 0 <= value < a.column_levels[var]:
        raise IndexError(f"value {value} out of range for variable {var}")
    # Added left to right, as effect_table's bincount does; sum() compensates
    # float rounding from Python 3.12 on.
    total = count = 0
    for s, row in zip(scores, a.rows):
        if row[var] == value:
            total += s
            count += 1
    return total / count


def effect_table(a: OrthogonalArray, scores) -> list[np.ndarray]:
    """Per variable, the main effect of each of its values, indexed by value."""
    scores = np.asarray(scores, dtype=float)
    if len(scores) != a.n_rows:
        raise ValueError(f"{len(scores)} scores for {a.n_rows} rows")
    columns = np.array(a.rows).T
    return [
        np.bincount(col, scores, k) / np.bincount(col, None, k)
        for col, k in zip(columns, a.column_levels)
    ]


def predict_best(a: OrthogonalArray, scores) -> Candidate:
    """Per variable independently, the value with the best main effect; ties
    break toward the lowest value index."""
    return Candidate([int(np.argmax(means)) for means in effect_table(a, scores)])


def best_tested(a: OrthogonalArray, scores) -> Candidate:
    """The highest-scoring row actually in the array; earliest row on ties."""
    scores = list(scores)
    if len(scores) != a.n_rows:
        raise ValueError(f"{len(scores)} scores for {a.n_rows} rows")
    best = max(range(a.n_rows), key=lambda r: (scores[r], -r))
    return a.row_candidate(best)


def merge_columns(a: OrthogonalArray, col2: int, col3: int) -> OrthogonalArray:
    """Fuse a 2-level column and a 3-level column into one 6-level column
    (value 3*v2 + v3) placed at the smaller of the two positions.

    Requires the pair to be balanced so the merged column stays balanced.
    """
    if a.column_levels[col2] != 2:
        raise ValueError(f"column {col2} has {a.column_levels[col2]} levels, need 2")
    if a.column_levels[col3] != 3:
        raise ValueError(f"column {col3} has {a.column_levels[col3]} levels, need 3")
    combos = {}
    for row in a.rows:
        key = (row[col2], row[col3])
        combos[key] = combos.get(key, 0) + 1
    if len(combos) != 6 or len(set(combos.values())) != 1:
        raise ArrayValidationError(
            f"columns {col2} and {col3} are not pair-balanced; merge would be unbalanced"
        )
    keep, drop = min(col2, col3), max(col2, col3)
    levels = list(a.column_levels)
    levels[keep] = 6
    del levels[drop]
    rows = []
    for row in a.rows:
        merged = 3 * row[col2] + row[col3]
        new_row = list(row)
        new_row[keep] = merged
        del new_row[drop]
        rows.append(tuple(new_row))
    return OrthogonalArray(column_levels=tuple(levels), rows=tuple(rows))
