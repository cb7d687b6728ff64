"""Ground-truth conversion-rate models.

A linear evaluator scores a candidate as bias plus one additive weight per
variable; a nonlinear evaluator adds a weight for every pair of chosen
values. Control-valued entries are pinned to zero so the control candidate's
true rate equals the bias exactly. Each evaluator holds its whole clamped
landscape as a dense array with one cell per candidate, so scoring a
population is one index operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .genome import Candidate, SearchSpace, _finite

CR_FLOOR = 0.001
CR_CEIL = 0.999

LINEAR = "linear"
NONLINEAR = "nonlinear"

# The dense landscape costs 8 bytes per candidate: 10^7 cells is 80 MB.
LANDSCAPE_CAP = 10**7


class EvaluatorConfigError(ValueError):
    """Raised when weight magnitudes cannot produce a sane landscape."""


@dataclass(frozen=True)
class WeightConfig:
    bias: float = 0.05
    delta_main: float = 0.01
    delta_pair: float = 0.005

    def __post_init__(self):
        # Stored as floats, so bias = 1 and bias = 1.0 are one config; the
        # ranges depend on the space and mode, so check_weights checks them.
        for f in fields(self):
            object.__setattr__(self, f.name, _finite(getattr(self, f.name), f.name))


def check_landscape_size(space: SearchSpace) -> None:
    """Reject a space whose dense landscape would exceed LANDSCAPE_CAP cells."""
    if space.total_combinations > LANDSCAPE_CAP:
        raise EvaluatorConfigError(
            f"space of {space.total_combinations} candidates exceeds the "
            f"landscape cap of {LANDSCAPE_CAP} cells"
        )


def check_weights(space: SearchSpace, mode: str, weights: WeightConfig) -> None:
    """Reject weights that are not a WeightConfig, an unknown mode, and
    weight magnitudes that cannot produce a sane landscape over `space` in
    `mode`."""
    if not isinstance(weights, WeightConfig):
        raise ValueError(f"weights must be an instance of WeightConfig, got {weights!r}")
    if mode not in (LINEAR, NONLINEAR):
        raise ValueError(f"unknown mode {mode!r}; use {LINEAR} or {NONLINEAR}")
    if not 0.0 < weights.bias < 1.0:
        raise EvaluatorConfigError(f"bias must lie in (0, 1), got {weights.bias}")
    if weights.delta_main <= 0:
        raise EvaluatorConfigError("delta_main must be positive")
    if weights.delta_pair < 0:
        raise EvaluatorConfigError("delta_pair must be non-negative")
    n = len(space)
    n_pairs = n * (n - 1) // 2 if mode == NONLINEAR else 0
    worst = n * weights.delta_main + n_pairs * weights.delta_pair
    # Clamping absorbs rare extremes, but a half-range sum spanning the whole
    # probability interval would make the clamp the landscape.
    if worst >= 1.0:
        raise EvaluatorConfigError(
            f"worst-case weight sum {worst:.3f} exceeds the unit interval"
        )


@dataclass(frozen=True)
class Evaluator:
    """Holds the bias, per-variable main-effect table, and per-variable-pair
    interaction table (a linear landscape has none), plus `table`, the
    clamped true conversion rate of every candidate as an array of shape
    `space.cardinalities`."""

    space: SearchSpace
    bias: float
    main_effects: tuple[tuple[float, ...], ...]
    interactions: dict = field(default_factory=dict)  # (j, k), j < k -> 2-d array-like
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cards = self.space.cardinalities
        if len(self.main_effects) != len(cards):
            raise ValueError(
                f"{len(self.main_effects)} main-effect tables for {len(cards)} variables"
            )
        for i, (table, k) in enumerate(zip(self.main_effects, cards)):
            if len(table) != k:
                raise ValueError(f"main-effect table size mismatch at variable {i}")
            if table[0] != 0.0:
                raise ValueError(f"main effect of control value must be 0 (variable {i})")
        for j, k in self.interactions:
            if not 0 <= j < k < len(cards):
                raise ValueError(f"interaction key {(j, k)} is not a variable pair j < k")
            if np.shape(self.interactions[(j, k)]) != (cards[j], cards[k]):
                raise ValueError(f"interaction table size mismatch at pair {(j, k)}")
        check_landscape_size(self.space)
        object.__setattr__(self, "table", self._landscape())

    def _landscape(self) -> np.ndarray:
        # Same float64 additions in the same order as summing one candidate's
        # terms (bias, main effects by variable, pairs in table order), so
        # every cell equals that per-candidate sum bit for bit. The main
        # effects grow the table one axis at a time as outer sums, so each
        # addition runs over the axes built so far, not the whole table.
        cards = self.space.cardinalities
        first, *rest = self.main_effects
        cr = self.bias + np.asarray(first, dtype=float)
        for table in rest:
            cr = np.add.outer(cr, table)
        for (j, k), table in self.interactions.items():
            shape = [1] * len(cards)
            shape[j], shape[k] = cards[j], cards[k]
            cr += np.reshape(table, shape)
        return np.clip(cr, CR_FLOOR, CR_CEIL)

    def true_cr(self, c: Candidate) -> float:
        """Clamped true conversion rate of a candidate."""
        c.validate(self.space)
        return float(self.table[c.choices])

    def true_crs(self, genomes) -> np.ndarray:
        """Clamped true conversion rates of an (n, variables) array of
        genomes, one per row."""
        rows = np.asarray(genomes)
        # Checked because numpy would read a negative index from the far end.
        if rows.ndim != 2 or rows.shape[1] != len(self.space):
            raise ValueError(
                f"genomes of shape {rows.shape} for a {len(self.space)}-variable space"
            )
        if (rows < 0).any() or (rows >= self.table.shape).any():
            raise ValueError("genome value out of range for this space")
        return self.table[tuple(rows.T)]


def sample_evaluator(
    space: SearchSpace,
    mode: str = LINEAR,
    magnitudes: WeightConfig | None = None,
    seed: int = 0,
) -> Evaluator:
    """Draw a random landscape: non-control main-effect entries uniform in
    [-delta_main, +delta_main], non-control pair entries (nonlinear mode)
    uniform in [-delta_pair, +delta_pair]. Deterministic given the seed."""
    mag = WeightConfig() if magnitudes is None else magnitudes
    check_weights(space, mode, mag)
    n = len(space)

    rng = np.random.Generator(np.random.PCG64(seed))
    main = []
    for k in space.cardinalities:
        table = rng.uniform(-mag.delta_main, mag.delta_main, size=k)
        table[0] = 0.0
        main.append(tuple(table.tolist()))

    interactions = {}
    if mode == NONLINEAR:
        for j in range(n):
            for k in range(j + 1, n):
                kj, kk = space.cardinalities[j], space.cardinalities[k]
                table = rng.uniform(-mag.delta_pair, mag.delta_pair, size=(kj, kk))
                table[0, :] = 0.0
                table[:, 0] = 0.0
                interactions[(j, k)] = tuple(tuple(row) for row in table.tolist())

    return Evaluator(
        space=space,
        bias=mag.bias,
        main_effects=tuple(main),
        interactions=interactions,
    )


def brute_force_best(ev: Evaluator) -> tuple[Candidate, float]:
    """Exhaustive argmax of true_cr; lexicographically smallest candidate on
    exact ties (argmax returns the first maximum in C order). Oracle for
    testing the optimizers."""
    flat = int(np.argmax(ev.table))
    best = Candidate(np.unravel_index(flat, ev.table.shape))
    return best, float(ev.table.flat[flat])
