"""Traffic allocation, Bernoulli simulation, and Beta-posterior tests.

The probability-to-beat-control computation is cross-checked against
closed forms, the complement identity, a Monte Carlo oracle, and the
adaptive-quadrature reference it falls back to.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from mvtlab import simstats
from mvtlab.simstats import (
    BetaPosterior,
    aggregate_runs,
    allocate_evolution,
    allocate_taguchi,
    global_prior,
    posterior,
    prob_beats_control,
    prob_beats_control_many,
    simulate_conversions,
)


def test_stats_invariants():
    # Pooled totals with conversions outside [0, impressions] are rejected.
    with pytest.raises(ValueError):
        global_prior(10, 11)
    with pytest.raises(ValueError):
        global_prior(10, -1)
    assert global_prior(10, 10).mean == pytest.approx(11 / 12)  # the bounds are inclusive
    assert global_prior(10, 0).mean == pytest.approx(1 / 12)


def test_beta_parameters_must_be_positive():
    with pytest.raises(ValueError):
        BetaPosterior(0.0, 1.0)
    with pytest.raises(ValueError):
        BetaPosterior(1.0, -2.0)
    assert BetaPosterior(2.0, 6.0).mean == pytest.approx(0.25)


def test_allocate_taguchi_even_and_remainder():
    assert allocate_taguchi(900, 9) == [100] * 9
    assert allocate_taguchi(10, 9) == [2, 1, 1, 1, 1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        allocate_taguchi(5, 9)
    with pytest.raises(ValueError):
        allocate_taguchi(5, 0)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=10**6))
def test_allocate_taguchi_conserves_traffic(rows, extra):
    total = rows + extra
    alloc = allocate_taguchi(total, rows)
    assert sum(alloc) == total
    assert max(alloc) - min(alloc) <= 1


def test_allocate_evolution_even_case():
    plan = allocate_evolution(8000, 8, 10)
    assert plan == [[100] * 10] * 8
    # An elite surviving all 8 generations accrues 800 impressions.
    assert sum(row[0] for row in plan) == 800


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10**6),
)
def test_allocate_evolution_conserves_traffic(gens, pop, extra):
    total = gens * pop + extra
    plan = allocate_evolution(total, gens, pop)
    assert sum(sum(row) for row in plan) == total
    assert all(len(row) == pop for row in plan)


def test_allocate_evolution_insufficient_traffic():
    with pytest.raises(ValueError):
        allocate_evolution(79, 8, 10)


def test_simulate_conversions_edges():
    rng = np.random.Generator(np.random.PCG64(0))
    assert simulate_conversions(0.0, 1000, rng) == 0
    assert simulate_conversions(1.0, 1000, rng) == 1000
    with pytest.raises(ValueError):
        simulate_conversions(1.5, 10, rng)


def test_simulate_conversions_concentration():
    rng = np.random.Generator(np.random.PCG64(99))
    draws = [simulate_conversions(0.05, 10**6, rng) / 10**6 for _ in range(1000)]
    assert abs(float(np.mean(draws)) - 0.05) < 0.0005


def test_global_prior_pooled_mean():
    prior = global_prior(100 + 100, 5 + 15)
    assert prior.mean == pytest.approx(0.10)
    assert prior.alpha == pytest.approx(10.0)
    assert prior.beta == pytest.approx(90.0)


def test_global_prior_degenerate_guard():
    prior = global_prior(100, 0)
    assert prior.mean == pytest.approx(1 / 102)
    prior = global_prior(100, 100)
    assert prior.mean == pytest.approx(101 / 102)
    with pytest.raises(ValueError):
        global_prior(0, 0)


def test_global_prior_pooling_invariance():
    whole = global_prior(200, 17)
    imp, conv = np.array([120, 80]), np.array([9, 8])
    split = global_prior(int(imp.sum()), int(conv.sum()))
    assert whole.mean == pytest.approx(split.mean)


def test_posterior_conjugate_update():
    prior = BetaPosterior(1.0, 1.0)
    assert posterior(prior, 10, 3) == (4.0, 8.0)
    assert posterior(prior, 0, 0) == (prior.alpha, prior.beta)
    alphas, betas = posterior(prior, np.array([10, 0]), np.array([3, 0]))
    assert alphas.tolist() == [4.0, 1.0] and betas.tolist() == [8.0, 1.0]


def test_posterior_mean_approaches_observed_rate():
    prior = global_prior(10**6, 30000)
    post = BetaPosterior(*posterior(prior, 10**6, 30000))
    assert abs(post.mean - 0.03) <= 100 / (100 + 10**6)


def test_pbc_identical_posteriors():
    p = BetaPosterior(12.0, 88.0)
    assert prob_beats_control(p, p) == pytest.approx(0.5, abs=1e-6)


def test_pbc_closed_form():
    # P(X > Y) for X~Beta(2,1), Y~Beta(1,2) is 5/6 by direct integration.
    assert prob_beats_control(
        BetaPosterior(2.0, 1.0), BetaPosterior(1.0, 2.0)
    ) == pytest.approx(5 / 6, abs=1e-6)


def test_pbc_complement_identity_grid():
    params = [(0.5, 0.5), (1, 1), (2, 5), (5, 2), (10, 90), (90, 10),
              (3, 3), (0.5, 4), (7, 1), (50, 50)]
    for pa in params:
        for pb in params:
            a, b = BetaPosterior(*pa), BetaPosterior(*pb)
            total = prob_beats_control(a, b) + prob_beats_control(b, a)
            assert total == pytest.approx(1.0, abs=2e-6)


def test_pbc_monte_carlo_cross_check():
    cand = BetaPosterior(2.0, 1.0)
    ctrl = BetaPosterior(1.5, 1.2)
    rng = np.random.Generator(np.random.PCG64(7))
    n = 10**7
    mc = float(np.mean(rng.beta(cand.alpha, cand.beta, n) >
                       rng.beta(ctrl.alpha, ctrl.beta, n)))
    exact = prob_beats_control(cand, ctrl)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(mc - exact) < 3 * sigma


def test_pbc_monotone_in_candidate_alpha():
    ctrl = BetaPosterior(10.0, 90.0)
    previous = -1.0
    for alpha in np.linspace(1.0, 40.0, 15):
        p = prob_beats_control(BetaPosterior(float(alpha), 90.0), ctrl)
        assert p >= previous - 1e-9
        previous = p


def test_pbc_narrow_posteriors():
    # Large-count posteriors exercise the truncated integration range.
    win = prob_beats_control(BetaPosterior(600.0, 9400.0), BetaPosterior(500.0, 9500.0))
    lose = prob_beats_control(BetaPosterior(500.0, 9500.0), BetaPosterior(600.0, 9400.0))
    assert win > 0.99
    assert win + lose == pytest.approx(1.0, abs=2e-6)


def miller_prob_beats(cand, ctrl):
    """Closed form for integer candidate alpha (Evan Miller, "Formulas for
    Bayesian A/B Testing", 2015)."""
    a_b, b_b, a_a, b_a = int(cand.alpha), cand.beta, ctrl.alpha, ctrl.beta
    log_terms = [
        special.betaln(a_a + i, b_b + b_a)
        - math.log(b_b + i)
        - special.betaln(1 + i, b_b)
        - special.betaln(a_a, b_a)
        for i in range(a_b)
    ]
    return math.fsum(math.exp(t) for t in log_terms)


def test_pbc_matches_closed_form_on_integer_grid():
    shapes = [1, 2, 5, 20, 200]
    grid = [BetaPosterior(float(a), float(b)) for a in shapes for b in shapes]
    for ctrl in grid:
        batched = prob_beats_control_many(
            [c.alpha for c in grid], [c.beta for c in grid], ctrl
        )
        exact = [miller_prob_beats(c, ctrl) for c in grid]
        np.testing.assert_allclose(batched, exact, rtol=0, atol=1e-7)


def realistic_posterior(prior_mean, impressions, cr):
    conversions = round(impressions * cr)
    return BetaPosterior(
        prior_mean * 100 + conversions,
        (1 - prior_mean) * 100 + impressions - conversions,
    )


cr_st = st.floats(min_value=0.001, max_value=0.3)
impressions_st = st.integers(min_value=10, max_value=3_000_000)


@settings(max_examples=60, deadline=None)
@given(
    cr_st,
    st.tuples(impressions_st, cr_st),
    st.lists(st.tuples(impressions_st, cr_st), min_size=1, max_size=6),
)
def test_pbc_batched_matches_quadrature_reference(prior_mean, ctrl_obs, cand_obs):
    ctrl = realistic_posterior(prior_mean, *ctrl_obs)
    cands = [realistic_posterior(prior_mean, *obs) for obs in cand_obs]
    batched = prob_beats_control_many(
        [c.alpha for c in cands], [c.beta for c in cands], ctrl
    )
    reference = [simstats._prob_beats_control_quad(c, ctrl) for c in cands]
    np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-7)


def test_pbc_shapes_below_one_use_fallback(monkeypatch):
    reference = simstats._prob_beats_control_quad
    routed = []

    def recording(cand, ctrl):
        routed.append((cand.alpha, cand.beta))
        return reference(cand, ctrl)

    monkeypatch.setattr(simstats, "_prob_beats_control_quad", recording)
    ctrl = BetaPosterior(0.5, 0.5)
    # Equal variances integrate over the control, Beta(0.7, 300) is the
    # narrower density itself, and Beta(20, 30) is narrower with both
    # shapes above 1, so only the first two fall back.
    cands = [BetaPosterior(0.5, 0.5), BetaPosterior(0.7, 300.0), BetaPosterior(20.0, 30.0)]
    batched = prob_beats_control_many(
        [c.alpha for c in cands], [c.beta for c in cands], ctrl
    )
    assert routed == [(0.5, 0.5), (0.7, 300.0)]
    expected = [reference(c, ctrl) for c in cands]
    np.testing.assert_allclose(batched, expected, rtol=0, atol=1e-7)


def test_prob_beats_control_many_matches_scalar():
    ctrl = BetaPosterior(60.0, 940.0)
    cands = [BetaPosterior(a, 1000.0 - a) for a in (40.0, 55.0, 60.0, 70.0, 90.0)]
    batched = prob_beats_control_many(
        [c.alpha for c in cands], [c.beta for c in cands], ctrl
    )
    assert batched.tolist() == [prob_beats_control(c, ctrl) for c in cands]
    assert prob_beats_control_many([], [], ctrl).shape == (0,)


def test_aggregate_runs():
    mean, lo, hi = aggregate_runs([0.25] * 10)
    assert (mean, lo, hi) == (0.25, 0.25, 0.25)
    mean, lo, hi = aggregate_runs(range(1, 21))
    assert mean == pytest.approx(10.5)
    assert 1 <= lo <= hi <= 20
    with pytest.raises(ValueError):
        aggregate_runs([1.0])


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40))
def test_aggregate_interval_within_sample_range(values):
    mean, lo, hi = aggregate_runs(values)
    assert min(values) - 1e-12 <= lo <= hi <= max(values) + 1e-12
    assert lo - 1e-12 <= mean <= hi + 1e-12
