"""Search space and candidate representation shared by both optimizers.

A candidate is one value choice per variable.
"""

from __future__ import annotations

import contextlib
import math
import numbers
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


def _finite(value, what: str) -> float:
    """value as a finite Python float. Ints, floats and numpy numbers pass;
    bools, non-numbers, NaN and infinities are a ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            if math.isfinite(number := float(value)):
                return number
    raise ValueError(f"{what} must be a finite number, got {value!r}")


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

