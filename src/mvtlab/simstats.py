"""Traffic allocation, Bernoulli conversion simulation, and Beta-posterior
inference, including the probability-to-beat-control computation."""

from __future__ import annotations

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


# Arrays of at most this many draws are drawn by scalar calls. An array
# binomial call costs about 12 us however small; scalar calls cost about
# 4 us plus 1 us per draw, and the two cross near 9 draws (2-core x86-64
# box, numpy 2.4).
_SCALAR_DRAWS = 8


def simulate_conversions(true_cr, impressions, rng: np.random.Generator):
    """Exact binomial draw of conversions among the given impressions: an
    int for scalar arguments, an array for arrays. An array draws element by
    element from the stream, the same values as one scalar call each, so a
    short 1-D array is drawn by scalar calls, which cost less there."""
    crs = np.asarray(true_cr, dtype=float)
    if not ((crs >= 0.0) & (crs <= 1.0)).all():
        raise ValueError(f"true conversion rate {true_cr} outside [0, 1]")
    counts = np.asarray(impressions)
    if crs.ndim == 1 and counts.shape == crs.shape and len(crs) <= _SCALAR_DRAWS:
        draws = zip(counts.tolist(), crs.tolist())
        return np.array([rng.binomial(n, p) for n, p in draws], dtype=np.int64)
    return rng.binomial(counts, crs)


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
# Split budget of a pair the fixed rules cannot resolve: levels, live pieces.
_MAX_SPLITS = 40
_MAX_PIECES = 1000


def prob_beats_control(cand, control: BetaPosterior):
    """P(candidate CR > control CR) for independent Beta posteriors, in one
    vectorised pass: a float for one candidate BetaPosterior, or an array
    for a batch given as its (alphas, betas) arrays, as posterior() returns
    them for count arrays, element i for candidate Beta(alphas[i],
    betas[i]).

    Each pair is integrated over whichever density is narrower, on its
    16-standard-deviation window, with fixed 64- and 96-node Gauss-Legendre
    rules; when the candidate is the narrower one the result is
    1 - P(control > candidate). A pair whose two rules disagree by more than
    PBC_TOL / 10, or whose integrated density is unbounded (a shape below
    1), is integrated again over the whole unit interval by the same rules
    in substituted variables, bisecting the pieces they cannot resolve
    (_upper_prob_split). Deterministic and the same for a candidate alone
    as in any batch, so seeded runs stay bit-for-bit reproducible.
    """
    single = isinstance(cand, BetaPosterior)
    alphas, betas = ([cand.alpha], [cand.beta]) if single else cand
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
    # live, and its NaN product below still sends the pair to the split pass.
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

    # NaN compares false, so a non-finite estimate is also redone.
    agree = np.abs(v64 - v96) <= PBC_TOL / 10
    redo = ~agree | (a_int < 1.0) | (b_int < 1.0)
    if redo.any():
        pairs = (x[redo] for x in (a_int, b_int, a_tail, b_tail))
        upper_prob[redo] = _upper_prob_split(*pairs)
    pbc = np.clip(np.where(cand_narrower, 1.0 - upper_prob, upper_prob), 0.0, 1.0)
    return float(pbc[0]) if single else pbc


def _variance(a, b):
    m = a / (a + b)
    return m * (1.0 - m) / (a + b + 1.0)


def _upper_prob_split(a, b, a2, b2):
    """P(Beta(a2, b2) > Beta(a, b)) = I(m; a, b) - Q(left) + Q(right), m the
    first density's mean; the right half is posed in z = 1 - y, which swaps
    both densities' shapes. Q = P(Z2 < Z < zm), Z ~ Beta(a, b), Z2 ~ Beta(a2,
    b2), zm = m or 1 - m, integrates f(z) I(z; a2, b2), whose singular
    factors at z = 0 multiply, in t = (z / zm)^p with p = a + a2 below 2
    (else 1), which makes their leading term constant. A pair's starting
    pieces on both halves share PBC_TOL / 10 equally; a piece whose 64- and
    96-node values disagree by more than its share is bisected, each half
    with half of it. Nothing here depends on the other pairs of the batch.
    """
    n = len(a)
    sd = np.tile(np.sqrt(_variance(a, b)), 2)[:, None]
    a, b, a2, b2 = (np.concatenate(x) for x in ((a, b), (b, a), (a2, b2), (b2, a2)))
    zm = a / (a + b)
    p = np.where(a + a2 < 2.0, a + a2, 1.0)
    # Pieces end 16, 64, ..., 16 * 4^20 sd below zm, for a narrow peak and the
    # long tail of a shape below 1, and at zm / 4, zm / 16, ... down to t =
    # 1/4, where a small p squeezes the regular factors into a layer at t = 1.
    scale = 4.0 ** np.arange(21)
    window = (np.maximum(0.0, zm[:, None] - _WINDOW_SD * sd * scale) / zm[:, None]) ** p[:, None]
    layer = scale ** -p[:, None]
    edges = np.sort(np.hstack([np.zeros_like(sd), window, layer * (layer > 0.25)]), axis=1)
    live = edges[:, 1:] > edges[:, :-1]
    side = np.nonzero(live)[0]
    t_lo = edges[:, :-1][live]
    t_hi = edges[:, 1:][live]
    pieces = live.sum(axis=1)
    tol = (PBC_TOL / 10 / np.tile(pieces[:n] + pieces[n:], 2))[side]
    norm = special.betaln(a, b) + np.log(p)
    norm2 = special.betaln(a2, b2) + np.log(a2)
    shapes = np.column_stack([a, b, a2, b2, zm, p, norm, norm2])
    q = np.zeros(2 * n)
    for _ in range(_MAX_SPLITS):
        if not len(side) or np.bincount(side % n).max() > _MAX_PIECES:
            break
        a_, b_, a2_, b2_, zm_, p_, norm_, norm2_ = shapes[side].T[:, :, None]
        half = (t_hi - t_lo)[:, None] / 2.0
        t = (t_hi + t_lo)[:, None] / 2.0 + half * _GL_NODES
        log_z = np.log(zm_) + np.log(t) / p_
        z = np.exp(log_z)
        log_w = a_ * log_z - np.log(t) - norm_ + (b_ - 1.0) * np.log1p(-z)
        cdf = special.betainc(a2_, b2_, z)
        # Where z has underflowed the CDF is its leading term z^a2 / (a2 B).
        tiny = z < np.finfo(float).tiny
        cdf[tiny] = np.exp((a2_ * log_z - norm2_)[tiny])
        weighted = np.exp(log_w) * cdf * _GL_WEIGHTS * half
        v64, v96 = weighted[:, :64].sum(axis=1), weighted[:, 64:].sum(axis=1)
        if not np.isfinite(v64 + v96).all():
            raise QuadratureError("beat-control integral is not finite")
        # A piece's tolerance stops at the rounding of its value.
        done = np.abs(v64 - v96) <= np.maximum(tol, 1e-10 * np.abs(v96))
        q += np.bincount(side[done], weights=v96[done], minlength=2 * n)
        mid = (t_lo + t_hi)[~done] / 2.0
        side = np.tile(side[~done], 2)
        tol = np.tile(tol[~done] / 2.0, 2)
        t_lo = np.concatenate([t_lo[~done], mid])
        t_hi = np.concatenate([mid, t_hi[~done]])
    if len(side):
        raise QuadratureError("beat-control integral unresolved within its split budget")
    return special.betainc(a[:n], b[:n], zm[:n]) - q[:n] + q[n:]


def aggregate_runs(table) -> tuple[tuple[float, float, float], ...]:
    """Per column of a (repetitions, levels) table of repeated measurements:
    the mean plus the 2.5th and 97.5th percentiles over repetitions."""
    columns = np.ascontiguousarray(np.asarray(table, dtype=float).T)
    if columns.ndim != 2:
        raise ValueError(f"need a (repetitions, levels) table, got shape {np.shape(table)}")
    if columns.shape[1] < 2:
        raise ValueError("need at least two repetitions to aggregate")
    # Along a contiguous row numpy sums pairwise, as a 1-D mean does;
    # table.mean(axis=0) adds whole rows one after another and can round
    # differently.
    means = columns.mean(axis=1).tolist()
    lo, hi = np.percentile(columns, [2.5, 97.5], axis=1).tolist()
    return tuple(zip(means, lo, hi))
