"""Traffic allocation, Bernoulli conversion simulation, and Beta-posterior
inference, including the probability-to-beat-control computation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

PRIOR_STRENGTH = 100.0
PBC_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Raised when the beat-control integral fails to reach tolerance."""


@dataclass(frozen=True)
class BetaPosterior:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(f"Beta parameters must be positive: {self}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def allocate_taguchi(total_traffic: int, rows: int) -> list[int]:
    """Even split over rows; the first (total mod rows) rows get one extra."""
    if rows < 1:
        raise ValueError("need at least one row")
    if total_traffic < rows:
        raise ValueError(f"traffic {total_traffic} cannot cover {rows} rows")
    base, extra = divmod(total_traffic, rows)
    return [base + 1 if i < extra else base for i in range(rows)]


def allocate_evolution(
    total_traffic: int, generations: int, population_size: int
) -> list[list[int]]:
    """Even split over generations, then over each generation's slots, with
    remainders going to the earliest generations and slots."""
    if total_traffic < generations * population_size:
        raise ValueError(
            f"traffic {total_traffic} cannot cover {generations} generations "
            f"of {population_size} candidates"
        )
    per_gen = allocate_taguchi(total_traffic, generations)
    return [allocate_taguchi(g, population_size) for g in per_gen]


def simulate_conversions(true_cr, impressions, rng: np.random.Generator):
    """Exact binomial draw of conversions among the given impressions: an
    int for scalar arguments, an array for arrays. An array draws element by
    element from the stream, the same values as one scalar call each."""
    crs = np.asarray(true_cr, dtype=float)
    if not ((crs >= 0.0) & (crs <= 1.0)).all():
        raise ValueError(f"true conversion rate {true_cr} outside [0, 1]")
    return rng.binomial(impressions, true_cr)


def global_prior(impressions: int, conversions: int) -> BetaPosterior:
    """Beta prior whose mean is the pooled conversion rate, the total
    conversions over the total impressions of every tested candidate, with
    an equivalent sample size of PRIOR_STRENGTH impressions.

    A degenerate pooled rate (all conversions or none) gets an
    add-one-success-one-failure adjustment so both parameters stay positive;
    a 0/100 pool therefore yields mean 1/102. Conversions outside
    [0, impressions] make a parameter non-positive: ValueError.
    """
    if impressions == 0:
        raise ValueError("prior needs at least one impression")
    if conversions == 0 or conversions == impressions:
        m = (conversions + 1.0) / (impressions + 2.0)
    else:
        m = conversions / impressions
    return BetaPosterior(alpha=m * PRIOR_STRENGTH, beta=(1.0 - m) * PRIOR_STRENGTH)


def posterior(prior: BetaPosterior, impressions, conversions):
    """Conjugate Beta update of the prior with observed counts, element by
    element: (alphas, betas), arrays for count arrays and floats for ints."""
    return prior.alpha + conversions, prior.beta + (impressions - conversions)


# Beat-control integrals are evaluated on a window of this many standard
# deviations around the integrated density's mean; the mass outside it is
# handled by closed-form tail terms.
_WINDOW_SD = 16.0
# Two fixed Gauss-Legendre rules, 64 and 96 nodes, evaluated in one pass
# over their concatenated nodes; the rules' disagreement is the error check.
_X64, _W64 = np.polynomial.legendre.leggauss(64)
_X96, _W96 = np.polynomial.legendre.leggauss(96)
_GL_NODES = np.concatenate([_X64, _X96])
_GL_WEIGHTS = np.concatenate([_W64, _W96])
# Weighted density at or below which a node skips its betainc evaluation.
_NEGLIGIBLE = 1e-20


def prob_beats_control(cand: BetaPosterior, control: BetaPosterior) -> float:
    """P(candidate CR > control CR) for independent Beta posteriors."""
    return float(prob_beats_control_many([cand.alpha], [cand.beta], control)[0])


def prob_beats_control_many(alphas, betas, control: BetaPosterior) -> np.ndarray:
    """P(candidate CR > control CR) for each candidate Beta(alphas[i],
    betas[i]) against one control posterior, in one vectorised pass.

    Each pair is integrated over whichever density is narrower, on its
    16-standard-deviation window, with fixed 64- and 96-node Gauss-Legendre
    rules; when the candidate is the narrower one the result is
    1 - P(control > candidate). Pairs whose two rules disagree by more than
    PBC_TOL / 10 (the absolute tolerance the adaptive fallback is asked
    for), or whose integrated density is unbounded (a shape below 1), fall
    back to adaptive quadrature. Deterministic, so seeded runs stay
    bit-for-bit reproducible.
    """
    a_c = np.asarray(alphas, dtype=float)
    b_c = np.asarray(betas, dtype=float)
    a_k, b_k = control.alpha, control.beta
    cand_narrower = _variance(a_c, b_c) < _variance(a_k, b_k)
    a_int = np.where(cand_narrower, a_c, a_k)
    b_int = np.where(cand_narrower, b_c, b_k)
    a_tail = np.where(cand_narrower, a_k, a_c)
    b_tail = np.where(cand_narrower, b_k, b_c)

    m = a_int / (a_int + b_int)
    sd = np.sqrt(_variance(a_int, b_int))
    lo = np.maximum(0.0, m - _WINDOW_SD * sd)
    hi = np.minimum(1.0, m + _WINDOW_SD * sd)
    half = (hi - lo) / 2.0
    y = ((hi + lo) / 2.0)[:, None] + half[:, None] * _GL_NODES
    log_pdf = (
        (a_int - 1.0)[:, None] * np.log(y)
        + (b_int - 1.0)[:, None] * np.log1p(-y)
        - special.betaln(a_int, b_int)[:, None]
    )
    pdf = np.exp(log_pdf)
    # A node whose weighted density (times the half-width) is at most
    # _NEGLIGIBLE adds at most that much to its rule's value, since the upper
    # tail is at most 1; skipping betainc there moves the 64- and 96-node
    # values by at most 160 * _NEGLIGIBLE together. A NaN density is not
    # live, and its NaN product below still forces the fallback.
    rows, cols = np.nonzero(pdf * _GL_WEIGHTS * half[:, None] > _NEGLIGIBLE)
    upper = np.zeros_like(y)
    # 1 - betainc rather than betaincc: the complement is several times
    # slower per evaluation in vectorised form.
    upper[rows, cols] = 1.0 - special.betainc(a_tail[rows], b_tail[rows], y[rows, cols])
    # Row sums rather than a matrix product, so each pair's value does not
    # depend on the rest of the batch.
    weighted = pdf * upper * _GL_WEIGHTS
    v64 = weighted[:, :64].sum(axis=1) * half
    v96 = weighted[:, 64:].sum(axis=1) * half
    # Integrated mass below lo almost surely loses; above hi it almost surely
    # wins only if the other density sits higher, bounded either way by the
    # tail. betainc is 0 at lo = 0 and 1 at hi = 1, so clamped windows add
    # nothing.
    tails = special.betainc(a_int, b_int, lo) * (
        1.0 - special.betainc(a_tail, b_tail, lo)
    ) + (1.0 - special.betainc(a_int, b_int, hi)) * (
        1.0 - special.betainc(a_tail, b_tail, hi)
    )
    upper_prob = v96 + tails
    pbc = np.where(cand_narrower, 1.0 - upper_prob, upper_prob)

    # NaN compares false, so a non-finite estimate also falls back.
    agree = np.abs(v64 - v96) <= PBC_TOL / 10
    for i in np.flatnonzero(~agree | (a_int < 1.0) | (b_int < 1.0)):
        cand = BetaPosterior(float(a_c[i]), float(b_c[i]))
        pbc[i] = _prob_beats_control_quad(cand, control)
    return np.clip(pbc, 0.0, 1.0)


def _variance(a, b):
    m = a / (a + b)
    return m * (1.0 - m) / (a + b + 1.0)


def _prob_beats_control_quad(cand: BetaPosterior, control: BetaPosterior) -> float:
    """Adaptive-quadrature P(candidate CR > control CR): the fallback for
    pairs the fixed rules cannot resolve, and the tests' reference. Like the
    fixed rules it integrates over the narrower density."""
    if _variance(cand.alpha, cand.beta) < _variance(control.alpha, control.beta):
        return 1.0 - _upper_prob_quad(cand, control)
    return _upper_prob_quad(control, cand)


def _upper_prob_quad(inner: BetaPosterior, outer: BetaPosterior) -> float:
    """P(outer CR > inner CR) by adaptive quadrature of the inner density
    against the outer's upper tail, absolute tolerance 1e-6."""
    from scipy import integrate

    a1, b1 = inner.alpha, inner.beta
    a2, b2 = outer.alpha, outer.beta
    log_norm = special.betaln(a1, b1)

    def integrand(y):
        if y <= 0.0 or y >= 1.0:
            return 0.0
        log_pdf = (a1 - 1.0) * math.log(y) + (b1 - 1.0) * math.log1p(-y) - log_norm
        return math.exp(log_pdf) * (1.0 - special.betainc(a2, b2, y))

    # Restrict to where the inner density has mass; for large counts the
    # distribution is a narrow spike and whole-interval quadrature would
    # spend hundreds of subdivisions finding it. Truncation at 16 standard
    # deviations costs far less than the 1e-6 tolerance.
    m = inner.mean
    sd = math.sqrt(_variance(a1, b1))
    lo = max(0.0, m - _WINDOW_SD * sd)
    hi = min(1.0, m + _WINDOW_SD * sd)
    pts = [p for p in sorted({m, outer.mean}) if lo < p < hi]
    tail_below = special.betainc(a1, b1, lo) if lo > 0.0 else 0.0
    tail_above = 1.0 - special.betainc(a1, b1, hi) if hi < 1.0 else 0.0
    value, err = integrate.quad(
        integrand, lo, hi, points=pts or None, epsabs=PBC_TOL / 10, limit=200
    )
    # Inner mass below lo almost surely loses; above hi it almost surely
    # wins only if the outer density sits higher, bounded either way by the
    # tail.
    value += tail_below * (1.0 - special.betainc(a2, b2, lo))
    value += tail_above * (1.0 - special.betainc(a2, b2, hi))
    if err > PBC_TOL:
        raise QuadratureError(
            f"beat-control integral error estimate {err:.2e} exceeds {PBC_TOL}"
        )
    return min(max(value, 0.0), 1.0)


def aggregate_runs(values) -> tuple[float, float, float]:
    """Mean plus 2.5th/97.5th percentiles of repeated measurements."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two repetitions to aggregate")
    lo, hi = np.percentile(arr, [2.5, 97.5])
    return float(arr.mean()), float(lo), float(hi)
