"""Ground-truth conversion model tests, checked against the brute-force
enumeration oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtlab.evaluator import (
    CR_CEIL,
    CR_FLOOR,
    LANDSCAPE_CAP,
    LINEAR,
    NONLINEAR,
    Evaluator,
    EvaluatorConfigError,
    WeightConfig,
    brute_force_best,
    check_landscape_size,
    sample_evaluator,
)
from mvtlab.genome import Candidate, SearchSpace, control


def test_sampling_is_deterministic():
    space = SearchSpace([3, 3, 3, 3])
    a = sample_evaluator(space, NONLINEAR, seed=7)
    b = sample_evaluator(space, NONLINEAR, seed=7)
    assert a.main_effects == b.main_effects
    assert a.interactions == b.interactions
    assert a.bias == b.bias


def test_linear_mode_has_no_interactions():
    ev = sample_evaluator(SearchSpace([3, 3]), LINEAR, seed=3)
    assert ev.interactions == {}


def test_sampled_entries_respect_ranges():
    ev = sample_evaluator(SearchSpace([3, 3, 3, 3]), LINEAR, seed=1)
    for table in ev.main_effects:
        assert table[0] == 0.0
        assert all(-0.01 <= w <= 0.01 for w in table)


def test_control_cr_equals_bias():
    for seed in range(20):
        for mode in (LINEAR, NONLINEAR):
            ev = sample_evaluator(SearchSpace([3, 6, 2]), mode, seed=seed)
            assert ev.true_cr(control(ev.space)) == 0.05


def test_hand_summed_nonlinear_cr():
    # [2,2] space: one non-control main effect per variable, one pair term.
    space = SearchSpace([2, 2])
    ev = Evaluator(
        space=space,
        bias=0.05,
        main_effects=((0.0, 0.02), (0.0, -0.01)),
        interactions={(0, 1): ((0.0, 0.0), (0.0, 0.005))},
    )
    assert ev.true_cr(Candidate([1, 1])) == pytest.approx(0.065)
    assert ev.true_cr(Candidate([0, 0])) == 0.05


def test_control_entry_pinning_enforced():
    with pytest.raises(ValueError):
        Evaluator(
            space=SearchSpace([2, 2]),
            bias=0.05,
            main_effects=((0.1, 0.0), (0.0, 0.0)),
        )
    # A pair table's control row and column are pinned too, so the
    # control's true rate is the bias.
    zero = ((0.0, 0.0), (0.0, 0.0))
    for table in (((0.02, 0.0), (0.0, 0.0)), ((0.0, 0.02), (0.0, 0.0)), ((0.0, 0.0), (0.02, 0.0))):
        with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
            Evaluator(
                space=SearchSpace([2, 2]),
                bias=0.05,
                main_effects=zero,
                interactions={(0, 1): table},
            )


def test_clamp_bounds():
    ev = Evaluator(
        space=SearchSpace([2]),
        bias=0.05,
        main_effects=((0.0, 0.96),),
    )
    assert ev.true_cr(Candidate([1])) == CR_CEIL
    low = Evaluator(space=SearchSpace([2]), bias=0.05, main_effects=((0.0, -0.2),))
    assert low.true_cr(Candidate([1])) == CR_FLOOR


def test_config_errors():
    space = SearchSpace([3, 3])
    with pytest.raises(EvaluatorConfigError):
        sample_evaluator(space, LINEAR, WeightConfig(bias=1.5))
    with pytest.raises(EvaluatorConfigError):
        sample_evaluator(space, LINEAR, WeightConfig(delta_main=0.0))
    with pytest.raises(EvaluatorConfigError):
        sample_evaluator(space, LINEAR, WeightConfig(delta_main=0.6))


def test_sample_evaluator_rejects_unknown_mode():
    with pytest.raises(ValueError) as info:
        sample_evaluator(SearchSpace([2, 2]), "nonlinearr")
    message = str(info.value)
    assert "'nonlinearr'" in message and "\n" not in message, message


@pytest.mark.parametrize("magnitudes", [{"bias": 0.1}, {}, (0.05, 0.01, 0.005)])
def test_sample_evaluator_rejects_non_weight_config(magnitudes):
    # Only None means the default weights; anything else must be a WeightConfig.
    with pytest.raises(ValueError) as info:
        sample_evaluator(SearchSpace([2, 2]), LINEAR, magnitudes)
    message = str(info.value)
    assert message.startswith("weights must be an instance of WeightConfig"), message
    assert "\n" not in message


def test_brute_force_flat_landscape_tie_break():
    ev = Evaluator(
        space=SearchSpace([3, 3]),
        bias=0.05,
        main_effects=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    )
    best, cr = brute_force_best(ev)
    assert best == control(ev.space)
    assert cr == 0.05


def test_brute_force_cap():
    # The dense landscape is the enumeration, so the cap now bounds building
    # an evaluator at all: 10^8 cells would take 800 MB.
    with pytest.raises(EvaluatorConfigError):
        sample_evaluator(SearchSpace([10] * 8), LINEAR, seed=0)
    assert LANDSCAPE_CAP == 10**7
    at_cap = SearchSpace([10] * 7)
    check_landscape_size(at_cap)  # 10^7 cells is allowed
    with pytest.raises(EvaluatorConfigError):
        check_landscape_size(SearchSpace([10] * 7 + [2]))


def test_brute_force_planted_ties_pick_lexicographically_smallest():
    # Two planted maxima of exactly equal rate: (1, 2, 0) and (2, 1, 0).
    ev = Evaluator(
        space=SearchSpace([3, 3, 2]),
        bias=0.05,
        main_effects=((0.0, 0.01, 0.02), (0.0, 0.01, 0.02), (0.0, -0.01)),
        interactions={
            (0, 1): ((0.0, 0.0, 0.0), (0.0, 0.0, 0.005), (0.0, 0.005, -0.02)),
            (0, 2): ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
            (1, 2): ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        },
    )
    best, cr = brute_force_best(ev)
    assert ev.true_cr(Candidate([2, 1, 0])) == cr
    assert best == Candidate([1, 2, 0])


def definitional_cr(ev, choices):
    """One candidate's rate summed term by term, as the model defines it."""
    cr = ev.bias
    for i, v in enumerate(choices):
        cr += ev.main_effects[i][v]
    for (j, k), table in ev.interactions.items():  # none on a linear landscape
        cr += table[choices[j]][choices[k]]
    return min(max(cr, CR_FLOOR), CR_CEIL)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=6),
    st.sampled_from([LINEAR, NONLINEAR]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_landscape_table_is_bit_identical_to_definitional_sum(cards, mode, seed):
    space = SearchSpace(cards)
    weights = WeightConfig(delta_main=0.02, delta_pair=0.002)  # clamps can bind
    ev = sample_evaluator(space, mode, weights, seed=seed)
    assert ev.table.shape == space.cardinalities
    for idx in itertools.product(*(range(k) for k in cards)):
        assert ev.table[idx] == definitional_cr(ev, idx)
    rows = np.array(list(itertools.product(*(range(k) for k in cards))))
    assert ev.true_crs(rows).tolist() == [definitional_cr(ev, r) for r in rows.tolist()]


def test_true_crs_rejects_rows_outside_the_space():
    ev = sample_evaluator(SearchSpace([3, 3]), LINEAR, seed=2)
    for bad in ([[0, -1]], [[3, 0]], [[0, 0, 0]], [0, 0]):
        with pytest.raises(ValueError):
            ev.true_crs(bad)


def test_interaction_keys_and_shapes_are_checked():
    kwargs = dict(space=SearchSpace([2, 3]), bias=0.05,
                  main_effects=((0.0, 0.0), (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):  # pair not in variable order
        Evaluator(interactions={(1, 0): ((0.0, 0.0),) * 3}, **kwargs)
    with pytest.raises(ValueError):  # transposed table
        Evaluator(interactions={(0, 1): ((0.0, 0.0),) * 3}, **kwargs)


def test_linear_separability_against_oracle():
    # For linear landscapes the optimum factors per variable; the enumeration
    # oracle must agree with the independent argmax construction.
    space = SearchSpace([3, 3, 3, 3])
    for seed in range(100):
        ev = sample_evaluator(space, LINEAR, seed=seed)
        expected = Candidate(
            [max(range(k), key=lambda v: ev.main_effects[i][v]) for i, k in
             enumerate(space.cardinalities)]
        )
        best, cr = brute_force_best(ev)
        assert best == expected
        assert cr == pytest.approx(ev.true_cr(expected))


def test_monotone_perturbation():
    space = SearchSpace([3, 3])
    ev = sample_evaluator(space, LINEAR, seed=11)
    bumped_tables = [list(t) for t in ev.main_effects]
    bumped_tables[0][1] += 0.003
    bumped = Evaluator(
        space=space,
        bias=ev.bias,
        main_effects=tuple(tuple(t) for t in bumped_tables),
    )
    for v0 in range(3):
        for v1 in range(3):
            c = Candidate([v0, v1])
            if v0 == 1:
                assert bumped.true_cr(c) >= ev.true_cr(c)
            else:
                assert bumped.true_cr(c) == ev.true_cr(c)
