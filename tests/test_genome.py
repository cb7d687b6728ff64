"""Search space and candidate tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvtlab.genome import Candidate, SearchSpace, control, one_gene_variants

spaces = st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=6).map(
    SearchSpace
)


def test_space_rejects_degenerate():
    with pytest.raises(ValueError):
        SearchSpace([])
    with pytest.raises(ValueError):
        SearchSpace([3, 1])


@pytest.mark.parametrize("bad", [2.9, 3.0, True, np.float64(3.0), np.bool_(True), "3", None])
def test_space_rejects_non_integer_values(bad):
    with pytest.raises(ValueError):
        SearchSpace([bad, 3])


@pytest.mark.parametrize("bad", [1.7, 1.0, True, np.float64(1.0), np.bool_(True), "1", None])
def test_candidate_rejects_non_integer_values(bad):
    with pytest.raises(ValueError):
        Candidate([0, bad])


def test_numpy_integers_are_accepted():
    assert SearchSpace(np.array([3, 2])).cardinalities == (3, 2)
    choices = Candidate(np.array([1, 0], dtype=np.int8)).choices
    assert choices == (1, 0) and all(type(v) is int for v in choices)


def test_space_totals():
    space = SearchSpace([2, 4, 5, 3])
    assert space.total_combinations == 120
    assert len(space) == 4


def test_control_is_all_zero():
    assert control(SearchSpace([2, 4, 5, 3])).choices == (0, 0, 0, 0)
    assert control(SearchSpace([2])).choices == (0,)
    assert control(SearchSpace([3, 3, 3, 3])).choices == (0, 0, 0, 0)


def test_candidate_validate_rejects_mismatched_candidate():
    with pytest.raises(ValueError):
        Candidate([0, 0]).validate(SearchSpace([2]))
    with pytest.raises(ValueError):
        Candidate([5]).validate(SearchSpace([3]))


def test_variant_counts():
    assert len(one_gene_variants(SearchSpace([2, 4, 5, 3]))) == 10
    assert [c.choices for c in one_gene_variants(SearchSpace([2]))] == [(1,)]
    assert len(one_gene_variants(SearchSpace([3, 3, 3, 3]))) == 8


def test_variant_order_is_variable_major():
    variants = one_gene_variants(SearchSpace([2, 3]))
    assert [c.choices for c in variants] == [(1, 0), (0, 1), (0, 2)]


@given(spaces)
def test_variants_are_distance_one_and_unique(space):
    variants = one_gene_variants(space)
    ctrl = control(space)
    assert len(variants) == sum(k - 1 for k in space.cardinalities)
    assert len(set(v.choices for v in variants)) == len(variants)
    for v in variants:
        v.validate(space)
        diffs = sum(a != b for a, b in zip(v.choices, ctrl.choices))
        assert diffs == 1
    assert ctrl not in variants
