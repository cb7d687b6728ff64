"""Orthogonal-array loading, validation, and main-effect analysis.

Array file format: first non-comment line is the space-separated column
levels; each following line is one row of 0-based value indices. Lines
starting with '#' are comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .genome import Candidate

ORTHO_TOL = 1e-9


class ArrayFormatError(ValueError):
    """Raised when an array file cannot be parsed."""


class ArrayValidationError(ValueError):
    """Raised when a parsed array violates a design property."""


@dataclass(frozen=True, eq=False)
class OrthogonalArray:
    """A design: `rows` is a read-only (n_rows, n_columns) int64 matrix of
    0-based value indices, one row per design point, built from any nested
    sequence of integer rows."""

    column_levels: tuple[int, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.dtype.kind not in "iu" or rows.shape[1:] != (self.n_columns,):
            raise ValueError(
                f"need int rows of {self.n_columns} columns, got {rows.dtype} {rows.shape}"
            )
        rows = rows.astype(np.int64)  # a copy, so the caller's array stays writable
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_columns(self) -> int:
        return len(self.column_levels)

    def row_candidate(self, index: int) -> Candidate:
        return Candidate(self.rows[index])


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
    mean-centered columns. Pair balance is reported as information only. A
    column holding a value outside its levels (negative ones included) fails
    the range check, and its value counts are not taken."""
    rows = a.rows
    in_range = ((rows >= 0) & (rows < a.column_levels)).all(axis=0)
    range_bad = np.flatnonzero(~in_range).tolist()
    balance_bad = [
        i for i in np.flatnonzero(in_range).tolist()
        if np.ptp(np.bincount(rows[:, i], minlength=a.column_levels[i]))
    ]
    centered = rows - rows.mean(axis=0)
    gram = centered.T @ centered
    left, right = np.triu_indices(a.n_columns, 1)
    skewed = np.abs(gram[left, right]) > ORTHO_TOL
    ortho_bad = list(zip(left[skewed].tolist(), right[skewed].tolist()))
    pairs = zip(left.tolist(), right.tolist())  # (0, 1), (0, 2), ..., (1, 2), ...
    pair_info = tuple(zip(pairs, _pairs_balanced(a, left, right, in_range)))
    checks = (
        PropertyCheck("range", not range_bad, tuple(range_bad)),
        PropertyCheck("balance", not balance_bad, tuple(balance_bad)),
        PropertyCheck("orthogonality", not ortho_bad, tuple(ortho_bad)),
    )
    return ValidationReport(checks=checks, pair_balance_info=pair_info)


def _pairs_balanced(a: OrthogonalArray, left, right, in_range) -> list[bool]:
    """Whether every combination of a value of column left[p] with a value
    of column right[p] occurs in equally many rows, for every pair p at
    once: one bincount over all pairs, each pair's value combinations in its
    own segment. Columns out of range (in_range False) are clipped into range
    so that no count leaves its segment, and their pairs read False."""
    if not len(left):
        return []
    levels = np.maximum(a.column_levels, 1)
    rows = np.clip(a.rows, 0, levels - 1)
    sizes = levels[left] * levels[right]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    codes = starts + rows[:, left] * levels[right] + rows[:, right]
    counts = np.bincount(codes.ravel(), minlength=sizes.sum())
    even = np.minimum.reduceat(counts, starts) == np.maximum.reduceat(counts, starts)
    return (even & in_range[left] & in_range[right]).tolist()


def parse_array(text: str) -> OrthogonalArray:
    """Parse an array from file contents, checking the format only: integer
    tokens, at least one row, every row as wide as the level line."""
    lines = [tokens for raw in text.splitlines() if (tokens := raw.split("#", 1)[0].split())]
    if not lines:
        raise ArrayFormatError("empty array file")
    try:
        levels = tuple(int(tok) for tok in lines[0])
        rows = [[int(tok) for tok in line] for line in lines[1:]]
    except ValueError as exc:
        raise ArrayFormatError(f"non-integer token in array file: {exc}") from exc
    if not rows:
        raise ArrayFormatError("array file has no rows")
    for r, row in enumerate(rows):
        if len(row) != len(levels):
            raise ArrayFormatError(f"row {r} has {len(row)} entries, expected {len(levels)}")
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
    lines = [" ".join(map(str, a.column_levels))]
    lines.extend(" ".join(map(str, row)) for row in a.rows.tolist())
    return "\n".join(lines) + "\n"


def main_effect(a: OrthogonalArray, scores, var: int, value: int) -> float:
    """Mean score over rows whose var-th entry equals value, as effect_table
    gives it."""
    if not 0 <= var < a.n_columns:
        raise IndexError(f"variable {var} out of range")
    if not 0 <= value < a.column_levels[var]:
        raise IndexError(f"value {value} out of range for variable {var}")
    return float(effect_table(a, scores)[var][value])


def effect_table(a: OrthogonalArray, scores) -> list[np.ndarray]:
    """Per variable, the main effect of each of its values, indexed by value:
    the mean of its rows' scores, added in row order. ValueError for a value
    that no row takes."""
    scores = _row_scores(a, scores)
    table = []
    for var, (col, k) in enumerate(zip(a.rows.T, a.column_levels)):
        counts = np.bincount(col, None, k)
        if 0 in counts.tolist():  # at a design's sizes, a fraction of counts.all()'s cost
            raise ValueError(f"no row takes level {int(np.argmin(counts))} of column {var}")
        table.append(np.bincount(col, scores, k) / counts)
    return table


def predict_best(a: OrthogonalArray, scores) -> Candidate:
    """Per variable independently, the value with the best main effect; ties
    break toward the lowest value index."""
    return Candidate([int(np.argmax(means)) for means in effect_table(a, scores)])


def best_tested(a: OrthogonalArray, scores) -> Candidate:
    """The highest-scoring row actually in the array; earliest row on ties."""
    return a.row_candidate(int(np.argmax(_row_scores(a, scores))))


def _row_scores(a: OrthogonalArray, scores) -> np.ndarray:
    """scores as a float array, checked to hold one score per row."""
    scores = np.asarray(scores, dtype=float)
    if len(scores) != a.n_rows:
        raise ValueError(f"{len(scores)} scores for {a.n_rows} rows")
    return scores
