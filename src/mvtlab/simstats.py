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
        # Written so that NaN and infinity fail it.
        if not (0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf):
            raise ValueError(f"Beta parameters must be positive and finite: {self}")

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


# Lists of at most this many draws are drawn by scalar calls. An array
# binomial call costs about 12 us however small; scalar calls cost about
# 4 us plus 1 us per draw, and the two cross near 9 draws (2-core x86-64
# box, numpy 2.4). The benchmark runs both sides: setting1-linear draws 4
# per call, mixed-nonlinear 23 (evolution) and 36 (Taguchi rows).
_SCALAR_DRAWS = 8


def simulate_conversions(true_cr, impressions, rng: np.random.Generator):
    """Exact binomial draw of conversions among the given impressions: an
    int for a scalar rate and count, a list of ints for a list of rates and
    an equally long list of counts. A list is drawn element by element from
    the stream, the same values as one scalar call each, so a list of at
    most _SCALAR_DRAWS is drawn by scalar calls, which cost less there, and
    a longer one by one array call."""
    rates = true_cr if isinstance(true_cr, list) else [true_cr]
    # Written so that NaN fails it.
    if not all(0.0 <= p <= 1.0 for p in rates):
        raise ValueError(f"true conversion rate {true_cr} outside [0, 1]")
    if rates is not true_cr:
        return rng.binomial(impressions, true_cr)
    if len(rates) != len(impressions):
        raise ValueError(f"{len(rates)} conversion rates for {len(impressions)} counts")
    if len(rates) <= _SCALAR_DRAWS:
        return [rng.binomial(n, p) for n, p in zip(impressions, rates)]
    return rng.binomial(impressions, rates).tolist()


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
# handled by closed-form tail terms. With G35/K71, 9 sends none of the
# paper presets' pairs to the split pass, and 10 sends some (README). The
# split pass starts its pieces at _SPLIT_SD, 4 _SPLIT_SD, ... standard
# deviations below the mean.
_WINDOW_SD = 9.0
_SPLIT_SD = 16.0
# G35/K71, nonnegative half (scripts/make_gauss_kronrod.py 35)
_KRONROD_NODES = (
    0.0, 0.044230407960476316, 0.08837134327565926, 0.13233927061341663,
    0.17605106116598956, 0.219418258415018, 0.26235294120929603, 0.3047740014710504,
    0.3466015544308139, 0.3877506960278423, 0.42813754151781425, 0.4676861834615296,
    0.5063227732414887, 0.5439683516962581, 0.5805453447497645, 0.6159857104872218,
    0.6502243646658904, 0.6831904184881565, 0.7148145015566287, 0.7450389756664068,
    0.7738102522869126, 0.8010672131257057, 0.8267498990922254, 0.8508135446810916,
    0.8732191250252224, 0.8939163058390494, 0.9128542613593176, 0.9300037530507062,
    0.9453451482078273, 0.9588386969958431, 0.9704376160392298, 0.980131657851341,
    0.9879357644438514, 0.9938202930389092, 0.9977065690996003, 0.9996192985605878,
)
_KRONROD_WEIGHTS = (
    0.044245665721056225, 0.04420009752589897, 0.04406798346693599, 0.04385415492459731,
    0.0435545454169731, 0.043165046120110594, 0.04269093484449389, 0.04213802289742381,
    0.041502791141104965, 0.040781344758592936, 0.039979834860934885, 0.03910531516466664,
    0.038154553938451796, 0.03712347803674948, 0.036019321064432515, 0.03485077628981658,
    0.03361454962779494, 0.03230574967486033, 0.03093298569089254, 0.029507312940483806,
    0.028024859270480325, 0.02647872983924452, 0.024879389864978962, 0.023241810895466637,
    0.02156072900282074, 0.019824630731925683, 0.018046651129558704, 0.016249771999849793,
    0.014426148625293634, 0.012552138631619428, 0.010644126760803646, 0.008748034767897012,
    0.0068554872187842, 0.004898090890316147, 0.0028722600144707017, 0.001025509110746668,
)
_GAUSS_WEIGHTS = (
    0.08848679490710429, 0.08814053043027546, 0.08710444699718353, 0.08538665339209912,
    0.08300059372885658, 0.07996494224232427, 0.07630345715544205, 0.07204479477256007,
    0.0672222852690869, 0.061873671966080186, 0.05604081621237013, 0.04976937040135353,
    0.043108422326170216, 0.03611011586346338, 0.028829260108894254, 0.021322979911483582,
    0.013650828348361493, 0.005883433420443085,
)
# The whole rule on [-1, 1]: 71 nodes ascending, the Kronrod weights, and
# the Gauss weights of the nodes at odd positions, 0 among them.
_NODES = np.concatenate([np.negative(_KRONROD_NODES[:0:-1]), _KRONROD_NODES])
_KRONROD = np.concatenate([_KRONROD_WEIGHTS[:0:-1], _KRONROD_WEIGHTS])
_GAUSS = np.concatenate([_GAUSS_WEIGHTS[:0:-1], _GAUSS_WEIGHTS])
# Weighted density at or below which a split-pass node skips its betainc
# evaluation.
_NEGLIGIBLE = 1e-20
# Split budget of a pair the window pass cannot resolve: levels, live pieces.
_MAX_SPLITS = 40
_MAX_PIECES = 1000


def prob_beats_control(cand, control):
    """P(candidate CR > control CR) for independent Beta posteriors, in one
    vectorised pass: a float for one candidate BetaPosterior against one
    control BetaPosterior, or an array for a batch of pairs, the candidates
    and the controls each given as aligned (alphas, betas) sequences,
    element i for candidate Beta(cand[0][i], cand[1][i]) against control
    Beta(control[0][i], control[1][i]). Unaligned sequences, or a shape
    that is not positive and finite, are a ValueError.

    Each pair is integrated over whichever density is narrower, on its
    window of _WINDOW_SD standard deviations either side of the mean, with
    the embedded G35/K71 Gauss-Kronrod pair: the Kronrod value is used;
    when the candidate is the narrower one the result is
    1 - P(control > candidate). Error budget: a pair is accepted when
    |K71 - G35|, plus the error bound of the closed-form terms for the mass
    outside the window, is at most PBC_TOL / 10. A pair over that budget,
    or whose integrated density is unbounded (a shape below 1), is
    integrated again over the whole unit interval by the same pair of rules
    in substituted variables, bisecting the pieces they cannot resolve
    (_upper_prob_split), within PBC_TOL / 10 too. On top of either comes
    the error of scipy's betaln, up to 1.5e-8 at shapes near 3e6.
    Deterministic and the same for a candidate alone as in any batch, so
    seeded runs stay bit-for-bit reproducible.
    """
    single = isinstance(cand, BetaPosterior)
    if single:
        cand, control = ([cand.alpha], [cand.beta]), ([control.alpha], [control.beta])
    a_c, a_k, b_c, b_k = _batch(cand, control)
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
    y = ((hi + lo) / 2.0)[:, None] + half[:, None] * _NODES
    log_pdf = (
        (a_int - 1.0)[:, None] * np.log(y)
        + (b_int - 1.0)[:, None] * np.log1p(-y)
        - special.betaln(a_int, b_int)[:, None]
    )
    # 1 - betainc rather than betaincc: the complement is several times
    # slower per evaluation in vectorised form.
    upper = 1.0 - special.betainc(a_tail[:, None], b_tail[:, None], y)
    kronrod, gauss = _kronrod_gauss(np.exp(log_pdf) * upper, half)
    # Integrated mass below lo almost surely loses; above hi it almost surely
    # wins only if the other density sits higher, bounded either way by the
    # tail. betainc is 0 at lo = 0 and 1 at hi = 1, so clamped windows add
    # nothing.
    below, above = special.betainc(a_int, b_int, lo), 1.0 - special.betainc(a_int, b_int, hi)
    tail_lo, tail_hi = special.betainc(a_tail, b_tail, lo), special.betainc(a_tail, b_tail, hi)
    upper_prob = kronrod + (below * (1.0 - tail_lo) + above * (1.0 - tail_hi))
    # Those terms take the tail's upper probability at lo for the mass below
    # lo, where it is between that and 1, and at hi for the mass above hi,
    # where it is between 0 and that: together off by at most this much.
    tails_error = below * tail_lo + above * (1.0 - tail_hi)

    # NaN compares false, so a non-finite estimate is also redone.
    agree = np.abs(kronrod - gauss) + tails_error <= PBC_TOL / 10
    redo = ~agree | (a_int < 1.0) | (b_int < 1.0)
    if redo.any():
        pairs = (x[redo] for x in (a_int, b_int, a_tail, b_tail))
        upper_prob[redo] = _upper_prob_split(*pairs)
    pbc = np.clip(np.where(cand_narrower, 1.0 - upper_prob, upper_prob), 0.0, 1.0)
    return float(pbc[0]) if single else pbc


def pbc_upper_bound(cand, control):
    """An array of upper bounds hi >= P(candidate CR > control CR), pair by
    pair, for a batch of candidates and their aligned controls, each given
    as (alphas, betas) sequences and checked as in prob_beats_control.

    hi comes from the two posteriors' CDFs at one split point y between the
    means, as many standard deviations from each: y = (m_c sd_k + m_k sd_c)
    / (sd_c + sd_k). The posteriors are independent, so a candidate at or
    below y with its control above it does not beat the control:
    hi = 1 - I_y(a_c, b_c) (1 - I_y(a_k, b_k)). Two betainc evaluations per
    pair, elementwise, so a pair's bound does not depend on its batch.
    """
    shapes = _batch(cand, control)
    a, b = shapes[:2], shapes[2:]
    means = a / (a + b)
    sd_c, sd_k = np.sqrt(_variance(a, b))
    split = (means[0] * sd_k + means[1] * sd_c) / (sd_c + sd_k)
    cdf_c, cdf_k = special.betainc(a, b, split)
    return 1.0 - cdf_c * (1.0 - cdf_k)


def _batch(cand, control) -> np.ndarray:
    """A batch of (alphas, betas) candidates and controls as one (4, pairs)
    float array: candidate and control alphas, then their betas. ValueError
    unless these are equally long rows of positive, finite shapes."""
    (a_c, b_c), (a_k, b_k) = cand, control
    shapes = np.array([a_c, a_k, b_c, b_k], dtype=float)  # ValueError if ragged
    if shapes.ndim != 2:
        raise ValueError(f"batches of shape {shapes.shape} are not four aligned rows")
    # Written so that NaN fails it: min and max propagate NaN.
    if shapes.size and not (shapes.min() > 0.0 and shapes.max() < np.inf):
        raise ValueError("Beta parameters must be positive and finite")
    return shapes


def _kronrod_gauss(values, half):
    """The Kronrod and embedded Gauss estimates of each row's integral, from
    its integrand values at _NODES mapped onto an interval of half-width
    `half`. Row sums rather than a matrix product, so each row's estimates
    do not depend on the other rows."""
    kronrod = (values * _KRONROD).sum(axis=1) * half
    return kronrod, (values[:, 1::2] * _GAUSS).sum(axis=1) * half


def _variance(a, b):
    m = a / (a + b)
    return m * (1.0 - m) / (a + b + 1.0)


def _upper_prob_split(a, b, a2, b2):
    """P(Beta(a2, b2) > Beta(a, b)) = I(m; a, b) - Q(left) + Q(right), m the
    first density's mean; the right half is posed in z = 1 - y, which swaps
    both densities' shapes. Q = P(Z2 < Z < zm), Z ~ Beta(a, b), Z2 ~ Beta(a2,
    b2), zm = m or 1 - m, integrates f(z) I(z; a2, b2), whose singular
    factors at z = 0 multiply, in t = (z / zm)^p with p = a + a2 below 2
    (else 1), which makes their leading term constant. Error budget: a
    pair's starting pieces on both halves share PBC_TOL / 10 equally; a
    piece whose K71 and G35 values disagree by more than its share, or
    1e-10 of its value if that is more, is bisected, each half with half of
    its share. A node whose Kronrod-weighted density times half-width is at
    most _NEGLIGIBLE skips its betainc evaluation and counts as zero: the
    CDF is at most 1, so it moves its piece's K71 value by at most
    _NEGLIGIBLE and its G35 value by at most 2.05 times that. Nothing
    here depends on the other pairs of the batch.
    Beta(a, b) must be the narrower density, as in prob_beats_control: over
    the wider one a value can miss by more than its PBC_TOL / 10 budget.
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
    window = (np.maximum(0.0, zm[:, None] - _SPLIT_SD * sd * scale) / zm[:, None]) ** p[:, None]
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
        t = (t_hi + t_lo)[:, None] / 2.0 + half * _NODES
        log_z = np.log(zm_) + np.log(t) / p_
        z = np.exp(log_z)
        density = np.exp(a_ * log_z - np.log(t) - norm_ + (b_ - 1.0) * np.log1p(-z))
        # A NaN density is not live; its NaN product still makes K71 non-finite.
        rows, cols = np.nonzero(density * _KRONROD * half > _NEGLIGIBLE)
        cdf = np.zeros_like(z)
        cdf[rows, cols] = special.betainc(a2_[rows, 0], b2_[rows, 0], z[rows, cols])
        # Where z has underflowed the CDF is its leading term z^a2 / (a2 B).
        tiny = z < np.finfo(float).tiny
        cdf[tiny] = np.exp((a2_ * log_z - norm2_)[tiny])
        kronrod, gauss = _kronrod_gauss(density * cdf, half[:, 0])
        if not np.isfinite(kronrod + gauss).all():
            raise QuadratureError("beat-control integral is not finite")
        # A piece's tolerance stops at the rounding of its value.
        done = np.abs(kronrod - gauss) <= np.maximum(tol, 1e-10 * np.abs(kronrod))
        q += np.bincount(side[done], weights=kronrod[done], minlength=2 * n)
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
