"""Traffic allocation, Bernoulli simulation, Beta-posterior and
beat-control winner tests.

The probability-to-beat-control computation is cross-checked against
closed forms, the complement identity, a Monte Carlo oracle, a 20-digit
mpmath quadrature for pairs with shapes below 1 or unresolved fixed rules,
and, on realistic posteriors, scipy's adaptive quadrature.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from mvtlab import simstats
from mvtlab.simstats import (
    PBC_TOL,
    BetaPosterior,
    QuadratureError,
    aggregate_runs,
    allocate_evolution,
    allocate_taguchi,
    beat_control_winner,
    global_prior,
    posterior,
    prob_beats_control,
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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            BetaPosterior(bad, 2.0)
        with pytest.raises(ValueError):
            BetaPosterior(2.0, bad)
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


@pytest.mark.parametrize(
    "size", [1, 2, simstats._SCALAR_DRAWS, simstats._SCALAR_DRAWS + 1, 3 * simstats._SCALAR_DRAWS]
)
def test_simulate_conversions_small_arrays_match_one_array_call(size):
    # Up to the cutoff the draws are scalar calls: the same values, and the
    # generator left in the same state, as one array call.
    setup = np.random.Generator(np.random.PCG64(size))
    impressions = setup.integers(0, 10**7, size)
    crs = setup.random(size) * 0.2
    rng, ref_rng = (np.random.Generator(np.random.PCG64(7 + size)) for _ in range(2))
    for _ in range(2):
        got = simulate_conversions(crs.tolist(), impressions.tolist(), rng)
        expected = ref_rng.binomial(impressions, crs).tolist()
        assert type(got) is list and all(type(x) is int for x in got)
        assert got == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    # Either path checks its list of rates; NaN fails there too.
    for bad in (1.5, -0.1, np.nan):
        rates = np.append(crs[:-1], bad).tolist()
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            simulate_conversions(rates, impressions.tolist(), rng)


def test_simulate_conversions_lists_must_align():
    # Lists of unequal length are an error, not a broadcast of the shorter.
    rng = np.random.Generator(np.random.PCG64(0))
    for counts in ([10] * 9, [10] * 2):
        with pytest.raises(ValueError) as error:
            simulate_conversions([0.1], counts, rng)
        assert "\n" not in str(error.value)


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


def test_gauss_kronrod_table():
    # The frozen rule: 2n + 1 ascending nodes, symmetric about 0, with
    # positive weights, the n-node Gauss rule at every other node, and the
    # Kronrod weights exact on x^k up to k = 3n + 1.
    nodes, kronrod, gauss = simstats._NODES, simstats._KRONROD, simstats._GAUSS
    n = len(gauss)
    assert len(nodes) == len(kronrod) == 2 * n + 1
    assert (np.diff(nodes) > 0).all()
    assert nodes.tolist() == (-nodes[::-1]).tolist()
    assert kronrod.tolist() == kronrod[::-1].tolist()
    assert (kronrod > 0).all() and (gauss > 0).all()
    x, w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(nodes[1::2], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(gauss, w, rtol=0, atol=1e-15)
    for k in range(3 * n + 2):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert abs((kronrod * nodes**k).sum() - exact) <= 1e-15, k


def test_skipped_nodes_move_pbc_negligibly(monkeypatch):
    # The split pass skips betainc at nodes whose weighted density is at
    # most 1e-20; evaluating every node instead moves no value by more than
    # the nodes' count times that, far below 1e-15 here.
    shapes = [((c.alpha, c.beta), (k.alpha, k.beta)) for c, k in oracle_cases()]
    shapes += [(c, k) for k, c in BATCH_PAIRS]
    pairs = [columns([pair[side] for pair in shapes]) for side in (0, 1)]
    skipped = prob_beats_control(*pairs)
    monkeypatch.setattr(simstats, "_NEGLIGIBLE", 0.0)
    np.testing.assert_allclose(prob_beats_control(*pairs), skipped, rtol=0, atol=1e-15)


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
        batched = prob_beats_control(
            ([c.alpha for c in grid], [c.beta for c in grid]),
            ([ctrl.alpha] * len(grid), [ctrl.beta] * len(grid)),
        )
        exact = [miller_prob_beats(c, ctrl) for c in grid]
        np.testing.assert_allclose(batched, exact, rtol=0, atol=1e-7)


def realistic_posterior(prior_mean, impressions, cr):
    conversions = round(impressions * cr)
    return BetaPosterior(
        prior_mean * 100 + conversions,
        (1 - prior_mean) * 100 + impressions - conversions,
    )


def quad_pbc(cand, ctrl):
    """P(candidate CR > control CR) by scipy's adaptive quadrature of the
    narrower density Beta(a, b) against the other's upper tail, cut at its
    mean and 1, 4, 16, 64 and 256 standard deviations either side. A shape a
    below 1 makes the first piece singular; it is integrated in u = y^a,
    where y^(a - 1) dy = du / a. Needs b >= 1."""

    def var(p):
        return p.alpha * p.beta / ((p.alpha + p.beta) ** 2 * (p.alpha + p.beta + 1))

    flip = var(cand) < var(ctrl)
    inner, outer = (cand, ctrl) if flip else (ctrl, cand)
    a, b = inner.alpha, inner.beta
    assert b >= 1.0
    m, sd = inner.mean, math.sqrt(var(inner))
    cuts = {m + side * k * sd for k in (0, 1, 4, 16, 64, 256) for side in (-1, 1)}
    cuts = sorted({0.0, 1.0, *(x for x in cuts if 0.0 < x < 1.0)})
    log_norm = special.betaln(a, b)

    def pdf_tail(y):
        log_pdf = (a - 1) * math.log(y) + (b - 1) * math.log1p(-y) - log_norm
        return math.exp(log_pdf) * special.betaincc(outer.alpha, outer.beta, y)

    def substituted(u):
        y = u ** (1 / a)
        log_f = (b - 1) * math.log1p(-y) - log_norm - math.log(a)
        return math.exp(log_f) * special.betaincc(outer.alpha, outer.beta, y) if u else 0.0

    upper = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == 0.0 and a < 1.0:
            upper += integrate.quad(substituted, 0.0, hi**a, epsabs=1e-12, limit=200)[0]
        else:
            upper += integrate.quad(pdf_tail, lo, hi, epsabs=1e-12, limit=200)[0]
    return 1.0 - upper if flip else upper


cr_st = st.floats(min_value=0.001, max_value=0.3)
impressions_st = st.integers(min_value=10, max_value=3_000_000)


@settings(max_examples=60, deadline=None)
@given(
    cr_st,
    st.tuples(impressions_st, cr_st),
    st.lists(st.tuples(impressions_st, cr_st), min_size=1, max_size=6),
)
# A wide control against a narrow candidate: the split pass over the control
# is off by 1.1e-7 here, over the candidate by 4e-11.
@example(0.05512264283113335, (605, 0.205078125), [(294829, 0.12044384067586657)])
def test_pbc_batched_matches_quadrature_reference(prior_mean, ctrl_obs, cand_obs):
    ctrl = realistic_posterior(prior_mean, *ctrl_obs)
    cands = [realistic_posterior(prior_mean, *obs) for obs in cand_obs]
    alphas, betas = np.array([[c.alpha, c.beta] for c in cands]).T
    reference = [quad_pbc(c, ctrl) for c in cands]
    controls = np.full(len(cands), ctrl.alpha), np.full(len(cands), ctrl.beta)
    batched = prob_beats_control((alphas, betas), controls)
    np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-7)
    # The split pass alone, which the batch uses only for shapes below 1 or
    # unresolved rules, here on every pair and, as in the batch, over the
    # narrower density: P(control > candidate) when that is the candidate.
    flip = simstats._variance(alphas, betas) < simstats._variance(*controls)
    narrow = [np.where(flip, c, k) for c, k in zip((alphas, betas), controls)]
    wide = [np.where(flip, k, c) for c, k in zip((alphas, betas), controls)]
    upper = simstats._upper_prob_split(*narrow, *wide)
    split = np.where(flip, 1.0 - upper, upper)
    np.testing.assert_allclose(split, reference, rtol=0, atol=1e-7)


def mpmath_pbc(cand, ctrl):
    """P(candidate CR > control CR) at 20 digits' working precision, as
    I(m; a, b) - Q(left) + Q(right) over the narrower density Beta(a, b), m
    its mean: each half, the right one in z = 1 - y, integrates the density
    against the other's CDF from its singular end, substituted as z = zm *
    t^(1 / p) with p = min(a + a2, 1) so that their product's leading term
    is constant. On the cases below it is within 2e-16 of a 30-digit run,
    in well under half the time."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        c, k = [(mp.mpf(x.alpha), mp.mpf(x.beta)) for x in (cand, ctrl)]

        def var(a, b):
            return a * b / ((a + b) ** 2 * (a + b + 1))

        flip = var(*c) < var(*k)
        (a, b), (a2, b2) = (c, k) if flip else (k, c)

        def cdf(x, y, a, b):
            # I_x(a, b), y = 1 - x, as a series of positive terms from the
            # end of the unit interval nearer x.
            if x * (a + b) <= a:
                log_lead = a * mp.log(x) + b * mp.log(y) - mp.log(a) - mp.log(mp.beta(a, b))
                return mp.exp(log_lead) * mp.hyp2f1(a + b, 1, a + 1, x)
            return 1 - cdf(y, x, b, a)

        def half(a, b, a2, b2):
            # P(Z2 < Z < zm) for Z ~ Beta(a, b), Z2 ~ Beta(a2, b2).
            zm, p = a / (a + b), min(a + a2, 1)
            log_norm = mp.log(mp.beta(a, b)) + mp.log(p)

            def integrand(t):
                log_z = mp.log(zm) + mp.log(t) / p
                z = mp.exp(log_z)
                log_w = a * log_z + (b - 1) * mp.log1p(-z) - log_norm - mp.log(t)
                return mp.exp(log_w) * cdf(z, 1 - z, a2, b2)

            return mp.quad(integrand, [0, 1])

        m = a / (a + b)
        upper = cdf(m, 1 - m, a, b) - half(a, b, a2, b2) + half(b, a, b2, a2)
        return float(1 - upper if flip else upper)


def counts_posteriors(counts, ctrl_counts):
    """Posteriors of (impressions, conversions) counts under their pooled prior."""
    prior = global_prior(
        sum(n for n, _ in counts) + ctrl_counts[0], sum(c for _, c in counts) + ctrl_counts[1]
    )
    posts = [BetaPosterior(*posterior(prior, *pair)) for pair in [*counts, ctrl_counts]]
    return posts[:-1], posts[-1]


def oracle_cases():
    """(candidate, control) posteriors checked against the mpmath oracle."""
    wide = BetaPosterior(0.5, 0.5)
    # Equal variances integrate over the control, Beta(0.7, 300) is the
    # narrower density itself, and Beta(20, 30) is narrower with both shapes
    # above 1.
    cases = [(BetaPosterior(*shapes), wide) for shapes in ((0.5, 0.5), (0.7, 300.0), (20.0, 30.0))]
    # The other density's CDF is the steep one.
    cases.append((BetaPosterior(0.0094, 288.0), BetaPosterior(1.009, 5953.0)))
    # Shapes above 1 whose fixed rules disagree at lo = 0.
    (cand,), ctrl = counts_posteriors([(1_529, 1)], (10, 1))
    cases.append((cand, ctrl))
    # A pooled rate above 0.99 puts beta below 1, here in the narrower density.
    (cand,), ctrl = counts_posteriors([(1_000, 1_000)], (50, 49))
    assert cand.beta < 1.0
    cases += [(cand, ctrl), (ctrl, cand)]
    # No conversions anywhere: every shape alpha is about 7.6e-5.
    (cand, _, _), ctrl = counts_posteriors([(441_053, 0)] * 3, (10, 0))
    cases.append((cand, ctrl))
    # A pair whose integrated shape is near 1 and whose other density has a
    # steep CDF at the window's lower end, 0; the window pass's Kronrod and
    # Gauss values disagree there, so the split pass integrates it.
    cases.append((BetaPosterior(1.65, 344_525.0), BetaPosterior(2.7e-4, 148.8)))
    return cases


def test_pbc_matches_mpmath_oracle():
    # The oracle first reproduces the closed form on integer shapes, from
    # wide against narrow to narrow against narrow.
    for cand, ctrl in [((1, 1), (200, 200)), ((2, 5), (20, 200)), ((5, 2), (200, 20)),
                       ((20, 20), (1, 2)), ((200, 5), (5, 200)), ((1, 200), (200, 1))]:
        cand, ctrl = BetaPosterior(*map(float, cand)), BetaPosterior(*map(float, ctrl))
        assert abs(mpmath_pbc(cand, ctrl) - miller_prob_beats(cand, ctrl)) <= 1e-12
    for cand, ctrl in oracle_cases():
        got = prob_beats_control(cand, ctrl)
        assert abs(got - mpmath_pbc(cand, ctrl)) <= 1e-7, (cand, ctrl)


count_pair_st = st.integers(1, 3_000_000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))
)


def assert_upper_bound_holds(cands, ctrls, tol):
    """prob_beats_control <= _pbc_upper_bound, to within tol, pair by pair
    over the aligned (candidate, control) posteriors."""
    pairs = [columns([(p.alpha, p.beta) for p in side]) for side in (cands, ctrls)]
    hi = simstats._pbc_upper_bound(*pairs)
    pbc = prob_beats_control(*pairs)
    assert (pbc <= hi + tol).all(), (pbc, hi)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(1e-6, 0.5),
    st.lists(st.tuples(count_pair_st, count_pair_st), min_size=1, max_size=4),
)
@example(1e-6, [((3_000_000, 0), (2_999_000, 0)), ((10, 0), (3_000_000, 3))])
@example(0.25, [((20, 20), (828_466, 0))])
def test_pbc_upper_bound_holds(prior_mean, counts):
    # A tiny prior mean with no conversions gives shapes below 1, which the
    # split pass integrates; up to 3e6 impressions give betas near 3e6. The
    # bound is exact, but a computed PBC is only as good as its normalising
    # betaln, which scipy gets wrong by up to 1.5e-8 at shapes near 3e6:
    # against Beta(25, 828541), Beta(45, 75) has PBC within 1e-100 of 1, yet
    # computes to 1 - 1.9e-9. So the check allows the accuracy
    # prob_beats_control promises, PBC_TOL / 10.
    prior = BetaPosterior(100 * prior_mean, 100 * (1 - prior_mean))
    cands, ctrls = (
        [BetaPosterior(*posterior(prior, *pair[side])) for pair in counts] for side in (0, 1)
    )
    assert_upper_bound_holds(cands, ctrls, simstats.PBC_TOL / 10)


def test_pbc_upper_bound_holds_on_oracle_pairs():
    cands, ctrls = zip(*oracle_cases())
    assert_upper_bound_holds(cands, ctrls, 1e-9)


# (control, candidate) shapes. The first five pairs take the first pass
# against one control. The last two take the split pass against another; the
# second, with shape 4e-4, starts on more pieces, and a tolerance shared over
# the batch once moved the first by 6.5e-9.
BATCH_PAIRS = [((60.0, 940.0), (a, 1000.0 - a)) for a in (40.0, 55.0, 60.0, 70.0, 90.0)] + [
    ((0.5, 2600.0), (1.25, 4000.0)),
    ((0.5, 2600.0), (4e-4, 10_700.0)),
]


def columns(pairs):
    """Two lists from pairs: (alphas, betas) from (alpha, beta) shapes, or
    (impressions, conversions) from count pairs."""
    return [a for a, _ in pairs], [b for _, b in pairs]


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(len(BATCH_PAIRS))), st.integers(0, len(BATCH_PAIRS)))
@example(list(range(len(BATCH_PAIRS))), len(BATCH_PAIRS))
def test_pbc_batch_matches_single(order, cut):
    # Any order and any split of one batch that carries both controls, pair
    # by pair, gives every pair its single call's value bit for bit.
    singles = [prob_beats_control(BetaPosterior(*c), BetaPosterior(*k)) for k, c in BATCH_PAIRS]
    for part in (order[:cut], order[cut:]):
        ctrls, cands = ([BATCH_PAIRS[i][side] for i in part] for side in (0, 1))
        got = prob_beats_control(columns(cands), columns(ctrls))
        assert got.shape == (len(part),)
        assert got.tolist() == [singles[i] for i in part]


def test_window_pass_reads_no_negligible(monkeypatch):
    # Only the split pass skips nodes: a skip threshold that would drop most
    # window nodes leaves the first-pass pairs' values unchanged bit for bit.
    ctrls, cands = (columns([pair[side] for pair in BATCH_PAIRS[:5]]) for side in (0, 1))
    evaluated = prob_beats_control(cands, ctrls).tolist()
    monkeypatch.setattr(simstats, "_NEGLIGIBLE", 1e-3)
    assert prob_beats_control(cands, ctrls).tolist() == evaluated


def test_split_budget_exhaustion_raises(monkeypatch):
    # With no split level allowed, a pair the window pass hands to the split
    # pass stays unresolved.
    monkeypatch.setattr(simstats, "_MAX_SPLITS", 0)
    ctrl, cand = BATCH_PAIRS[5]
    with pytest.raises(QuadratureError, match="split budget"):
        prob_beats_control(BetaPosterior(*cand), BetaPosterior(*ctrl))


def test_non_finite_integral_raises(monkeypatch):
    # Valid shapes whose CDF evaluates to NaN make the integral non-finite
    # in both passes.
    def nan_betainc(a, b, x):
        return np.full(np.broadcast(a, b, x).shape, np.nan)

    monkeypatch.setattr(simstats.special, "betainc", nan_betainc)
    with pytest.raises(QuadratureError, match="not finite"):
        prob_beats_control(([1.0], [2.0]), ([3.0], [4.0]))


def test_pbc_control_batch_must_align():
    assert prob_beats_control(([], []), ([], [])).shape == (0,)
    with pytest.raises(ValueError) as error:
        prob_beats_control(([40.0, 55.0], [960.0, 945.0]), ([60.0], [940.0]))
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "pbc",
    [prob_beats_control, simstats._pbc_upper_bound],
    ids=["prob_beats_control", "pbc_upper_bound"],
)
def test_pbc_batch_sequences_must_align(pbc):
    # Both batch forms take their pairs through one conversion, which also
    # checks the candidates' betas and the number of sequences.
    assert pbc(([], []), ([], [])).shape == (0,)
    for cand, control in [
        (([40.0, 55.0], [960.0, 945.0]), ([60.0], [940.0])),
        (([40.0, 55.0], [960.0]), ([60.0, 60.0], [940.0, 940.0])),
        (([40.0], [960.0], [1.0]), ([60.0], [940.0])),
        ((40.0, 960.0), (60.0, 940.0)),
    ]:
        with pytest.raises(ValueError) as error:
            pbc(cand, control)
        assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "pbc",
    [prob_beats_control, simstats._pbc_upper_bound],
    ids=["prob_beats_control", "pbc_upper_bound"],
)
@pytest.mark.parametrize("position", range(4))
def test_pbc_batch_shapes_must_be_positive_and_finite(pbc, position):
    # Checked as BetaPosterior checks the single form, before any
    # quadrature: an infinite shape would otherwise integrate to a PBC.
    for bad in (0.0, -1.0, math.nan, math.inf):
        shapes = [[3.0, 40.0], [4.0, 960.0], [5.0, 60.0], [6.0, 940.0]]
        shapes[position][1] = bad
        with pytest.raises(ValueError, match="positive and finite") as error:
            pbc(shapes[:2], shapes[2:])
        assert "\n" not in str(error.value)


def test_winner_near_one_ranked_by_posterior_mean():
    # Both candidates beat the control almost surely. The heavily tested one
    # has the higher PBC, by less than half a PBC_TOL step; the lightly
    # tested one has the higher posterior mean and must win.
    ctrl_imp, ctrl_conv = 100_000, 5_000
    imp, conv = columns([(1_000_000, 60_000), (5_000, 334)])  # sure, better
    prior = global_prior(sum(imp) + ctrl_imp, sum(conv) + ctrl_conv)
    ctrl_post = BetaPosterior(*posterior(prior, ctrl_imp, ctrl_conv))
    sure, better = (BetaPosterior(*posterior(prior, n, c)) for n, c in zip(imp, conv))
    pbc_sure = prob_beats_control(sure, ctrl_post)
    pbc_better = prob_beats_control(better, ctrl_post)
    assert 0 < pbc_sure - pbc_better < PBC_TOL / 2
    assert better.mean > sure.mean

    [(winner, winner_pbc)] = beat_control_winner([(imp, conv, ctrl_imp, ctrl_conv)])
    assert winner == 1
    assert winner_pbc == pbc_better  # reported unrounded


def test_winner_defaults_to_control():
    imp, conv = columns([(10_000, 300)])
    assert beat_control_winner([(imp, conv, 10_000, 600)]) == [(None, 0.5)]
    assert beat_control_winner([]) == []


@pytest.mark.parametrize(
    "cell",
    [
        ([10, 1000], [12, 50], 1000, 40),  # 12 conversions in 10 impressions
        ([10, 1000], [200, 0], 1000, 0),  # a negative beta: hi would be NaN
        ([10, 1000], [-1, 50], 1000, 40),
        ([10, 1000], [5, 50], 1000, 1001),
        ([10, 1000], [5, 50], 1000, -1),
    ],
)
def test_winner_rejects_conversions_outside_impressions(cell):
    good = ([10, 1000], [5, 50], 1000, 40)
    with pytest.raises(ValueError, match="outside") as error:
        beat_control_winner([good, cell])
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "cell",
    [
        ([10, 1000], [5], 1000, 40),  # genome 1 would drop out of the front
        ([1000], [60, 900], 1000, 40),  # the front would index past the impressions
    ],
)
def test_winner_rejects_unequal_count_lists(cell):
    good = ([10, 1000], [5, 50], 1000, 40)
    with pytest.raises(ValueError, match="differ in length") as error:
        beat_control_winner([good, cell])
    assert "\n" not in str(error.value)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30))
def test_undominated_equals_dominance_definition(pairs):
    conv = [c for c, _ in pairs]
    fail = [f for _, f in pairs]

    def dominated(i):
        return any(
            conv[j] >= conv[i] and fail[j] <= fail[i] and pairs[j] != pairs[i]
            for j in range(len(pairs))
        )

    assert simstats._undominated(conv, fail) == [i for i in range(len(pairs)) if not dominated(i)]


def full_winner(imp, conv, ctrl_imp, ctrl_conv):
    """beat_control_winner's key over every tested genome, with no pruning."""
    prior = global_prior(sum(imp) + ctrl_imp, sum(conv) + ctrl_conv)
    ctrl_post = BetaPosterior(*posterior(prior, ctrl_imp, ctrl_conv))
    posts = [BetaPosterior(*posterior(prior, n, c)) for n, c in zip(imp, conv)]
    alphas, betas = [p.alpha for p in posts], [p.beta for p in posts]
    ctrls = [ctrl_post.alpha] * len(posts), [ctrl_post.beta] * len(posts)
    pbcs = [0.5, *prob_beats_control((alphas, betas), ctrls).tolist()]
    means = [ctrl_post.mean, *(p.mean for p in posts)]
    best = max(range(len(pbcs)), key=lambda i: (round(pbcs[i] / PBC_TOL), means[i]))
    return (best - 1 if best else None), pbcs[best]


count_pairs = st.integers(10, 1_000_000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, int(0.3 * n)))
)


def case(pairs, ctrl_pair):
    """(impressions, conversions, control impressions, control conversions)."""
    return (*columns(pairs), *ctrl_pair)


@st.composite
def winner_cases(draw):
    # Genomes draw their counts from a small pool, so exact-count ties (and
    # so identical posteriors) are common.
    pool = draw(st.lists(count_pairs, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return case(picks, draw(count_pairs))


# Cells in which the pruning rule drops a front genome: (cell, front
# genomes whose PBC is integrated).
RULE_CASES = [
    # Top key: both his are 1.0, so the first genome, the higher mean, leads;
    # its PBC (1 - 1.8e-11) rounds to the top key, and the second's mean is
    # lower, though its PBC (1.0) is the higher.
    (case([(1_000, 200), (1_000_000, 100_000)], (10_000, 100)), 1),
    # The leader's PBC: the second genome's hi (0.85) is below the PBC that
    # round 1 computes for the first, the leader (0.99998).
    (case([(100_000, 6_000), (1_000, 52)], (10_000, 500)), 1),
    # The control's 1/2: both his (0.24 and 0.41) are below it, so not even
    # the leader is integrated, and no call is made.
    (case([(1_000, 40), (2_000, 90)], (10_000, 500)), 0),
    # The leader's PBC, above hi: the first genome's hi (0.75337) clears the
    # control's 1/2, but not the PBC of the second, the leader (0.943).
    (case([(1_000, 50), (10_000, 550)], (10_000, 500)), 1),
    # Top key against a hi that clears the threshold: the second genome's
    # hi (1 - 4.2e-7) is within 2 PBC_TOL of the leader's PBC, but the
    # first, the leader, computes 1 - 2.4e-7, the top key, and the second's
    # mean is lower.
    (case([(2_000, 160), (10_000, 650)], (10_000, 500)), 1),
]

PLANTED_CASES = [
    case([(1_000, 30)], (1_000, 50)),
    case([(441_053, 0)] * 3, (10, 0)),
    case([(1_529, 1)], (10, 1)),
    case([(1_000, 10), (2_000, 30)], (8_000, 400)),  # all dominated by the control
    # planted exact ties, also with the strongest genome
    case([(5_000, 240), (5_000, 250), (5_000, 250), (5_000, 250)], (5_000, 200)),
    *(cell for cell, _ in RULE_CASES),
    # The second genome leads on hi (1.0) and computes the top key. The
    # first, with the higher mean, survives the rule (hi 0.9999996) and is
    # integrated in round 2, where its PBC (0.99993) falls short of the top
    # key, so the second must still win on its PBC.
    case([(2_000, 140), (1_000_000, 60_000)], (100_000, 5_000)),
]


@settings(max_examples=150, deadline=None)
@given(st.lists(winner_cases(), min_size=1, max_size=4))
@example(PLANTED_CASES)
@example(PLANTED_CASES[::-1])
def test_pruned_winner_equals_full_computation(cases):
    # Cells picked together, in one beat-control pass, each get the winner
    # and PBC of the full computation over that cell alone.
    assert beat_control_winner(cases) == [full_winner(*case) for case in cases]


@pytest.mark.parametrize("cell, integrated", RULE_CASES)
def test_bound_rules_drop_front_genomes(cell, integrated):
    # Each planted cell's front holds two genomes; a spy on the
    # prob_beats_control calls of both rounds sees how many were
    # integrated, so the rule must really have fired for the winner check
    # to mean anything.
    imp, conv, _, _ = cell
    assert len(simstats._undominated(conv, [n - c for n, c in zip(imp, conv)])) == 2
    sizes = []

    def spy(cand, control):
        sizes.append(len(cand[0]))
        return prob_beats_control(cand, control)

    with mock.patch.object(simstats, "prob_beats_control", spy):
        assert beat_control_winner([cell]) == [full_winner(*cell)]
    assert len(sizes) <= 2 and sum(sizes) == integrated


def test_aggregate_runs():
    [(mean, lo, hi)] = aggregate_runs([[0.25]] * 10)
    assert (mean, lo, hi) == (0.25, 0.25, 0.25)
    [(mean, lo, hi)] = aggregate_runs([[v] for v in range(1, 21)])
    assert mean == pytest.approx(10.5)
    assert 1 <= lo <= hi <= 20
    with pytest.raises(ValueError):
        aggregate_runs([[1.0, 2.0]])
    with pytest.raises(ValueError):
        aggregate_runs([1.0, 2.0])


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40))
def test_aggregate_interval_within_sample_range(values):
    [(mean, lo, hi)] = aggregate_runs([[v] for v in values])
    assert min(values) - 1e-12 <= lo <= hi <= max(values) + 1e-12
    assert lo - 1e-12 <= mean <= hi + 1e-12


@settings(max_examples=50)
@given(
    st.integers(2, 60).flatmap(
        lambda reps: st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=reps, max_size=reps), min_size=1, max_size=9
        )
    )
)
def test_aggregate_runs_equals_per_column_reference(columns):
    # The goldens were written one column at a time, from 1-D means and
    # percentiles; the whole table must give the same bits.
    table = np.array(columns).T
    expected = [
        (float(np.mean(column)), *np.percentile(column, [2.5, 97.5]).tolist()) for column in columns
    ]
    assert list(aggregate_runs(table)) == expected
