"""Search space and candidate representation shared by both optimizers.

A candidate is one value choice per variable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


def _index(value, what: str) -> int:
    """value as a Python int. Ints and numpy integers pass (populations are
    numpy rows); bools and non-integers are a ValueError, not truncated."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an int, got {value!r}") from None


@dataclass(frozen=True)
class SearchSpace:
    """Per-variable value counts defining the combinatorial design space."""

    cardinalities: tuple[int, ...]

    def __init__(self, cardinalities):
        cards = tuple(_index(k, "cardinality") for k in cardinalities)
        if len(cards) < 1:
            raise ValueError("search space needs at least one variable")
        if any(k < 2 for k in cards):
            raise ValueError(f"every variable needs >= 2 values, got {cards}")
        object.__setattr__(self, "cardinalities", cards)

    def __len__(self) -> int:
        return len(self.cardinalities)

    @property
    def total_combinations(self) -> int:
        return math.prod(self.cardinalities)


@dataclass(frozen=True)
class Candidate:
    """One 0-based value index per variable."""

    choices: tuple[int, ...]

    def __init__(self, choices):
        object.__setattr__(self, "choices", tuple(_index(v, "choice") for v in choices))

    def __len__(self) -> int:
        return len(self.choices)

    def validate(self, space: SearchSpace) -> None:
        if len(self.choices) != len(space):
            raise ValueError(
                f"candidate has {len(self.choices)} choices for a "
                f"{len(space)}-variable space"
            )
        for i, (v, k) in enumerate(zip(self.choices, space.cardinalities)):
            if not 0 <= v < k:
                raise ValueError(f"choice {v} out of range [0, {k}) at variable {i}")


def control(space: SearchSpace) -> Candidate:
    """The default configuration: first value of every variable."""
    return Candidate((0,) * len(space))


def one_gene_variants(space: SearchSpace) -> list[Candidate]:
    """All candidates differing from control in exactly one variable.

    Order is fixed (variable-major, then value index ascending) so seeded
    runs are reproducible.
    """
    variants = []
    base = [0] * len(space)
    for i, k in enumerate(space.cardinalities):
        for v in range(1, k):
            choices = list(base)
            choices[i] = v
            variants.append(Candidate(choices))
    return variants
