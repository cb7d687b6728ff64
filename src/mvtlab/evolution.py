"""Elitist evolutionary optimizer.

The first generation is every one-gene variant of the control; later
generations keep the top-ranked elites (with their accumulated statistics)
and refill the rest by uniform crossover of elite pairs plus per-gene
mutation. The winner is the tested candidate with the highest probability
to beat control. A population is an (n, variables) int array of genomes
with per-slot impression and conversion count arrays; a genome is identified
by its flat (C-order) index into the evaluator's landscape tensor, in
breeding's duplicate check as everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluator import Evaluator
from .genome import Candidate, SearchSpace, control
from .simstats import (
    PBC_TOL,
    BetaPosterior,
    global_prior,
    posterior,
    prob_beats_control,
    simulate_conversions,
)


@dataclass(frozen=True)
class EvolutionConfig:
    generations: int = 8
    mutation_rate: float = 0.01
    elite_fraction: float = 0.20

    def __post_init__(self):
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must be a probability")
        if not 0.0 < self.elite_fraction < 1.0:
            raise ValueError("elite fraction must lie strictly between 0 and 1")


@dataclass(frozen=True)
class GenerationRecord:
    """One generation: genomes as an (n, variables) int array, each slot's
    accumulated impressions and conversions (elites carry theirs forward),
    this generation's true conversion rates, and the elites bred from."""

    index: int
    genomes: np.ndarray
    impressions: np.ndarray
    conversions: np.ndarray
    true_crs: np.ndarray
    elite_indices: list[int]


def init_population(space: SearchSpace) -> np.ndarray:
    """First generation: every genome one gene away from the control, one
    per row, variable-major, then value ascending."""
    cards = space.cardinalities
    variable = np.repeat(np.arange(len(cards)), np.subtract(cards, 1))
    genomes = np.zeros((len(variable), len(cards)), dtype=np.int64)
    genomes[np.arange(len(variable)), variable] = np.concatenate([np.arange(1, k) for k in cards])
    return genomes


def _strides(space: SearchSpace) -> np.ndarray:
    """C-order strides: a genome's flat id is its dot product with these."""
    cards = space.cardinalities
    return np.array([math.prod(cards[i + 1 :]) for i in range(len(cards))])


def select_elites(
    ids: np.ndarray,
    impressions: np.ndarray,
    conversions: np.ndarray,
    elite_fraction: float,
    prior: BetaPosterior,
) -> list[int]:
    """Indices of the top ceil(fraction * n) slots by posterior-mean
    conversion rate, ties toward the earlier index, deduplicated by genome
    (slots with equal flat ids)."""
    if len(ids) == 0:
        raise ValueError("cannot select elites from an empty population")
    if (impressions < 1).any():
        raise ValueError("every candidate needs at least one impression")
    n_elites = math.ceil(elite_fraction * len(ids))
    alphas, betas = posterior(prior, impressions, conversions)
    genomes = ids.tolist()
    elites, seen = [], set()
    for i in np.argsort(-(alphas / (alphas + betas)), kind="stable").tolist():
        if genomes[i] in seen:
            continue
        seen.add(genomes[i])
        elites.append(i)
        if len(elites) == n_elites:
            break
    return elites


def parent_pair(u, w, n_elites: int):
    """Indices of a uniformly random ordered pair of distinct elites, from two
    uniforms in [0, 1); (0, 0) for a single elite. Uniform arrays give index
    arrays, one pair per element."""
    # astype truncates toward zero as int() does, so a block of uniforms
    # gives each element the pair its two uniforms alone would.
    i = np.multiply(u, n_elites).astype(np.intp)
    return i, (i + 1 + np.multiply(w, n_elites - 1).astype(np.intp)) % n_elites


def crossover(parent_a, parent_b, uniforms) -> np.ndarray:
    """Uniform per-gene crossover: gene i from parent_a when uniforms[i] < 1/2,
    else from parent_b. Parents are one genome each or one row per child."""
    if np.shape(parent_a) != np.shape(parent_b):
        raise ValueError("parents come from different spaces")
    return np.where(np.less(uniforms, 0.5), parent_a, parent_b)


def mutate(genome, rate: float, space: SearchSpace, uniforms) -> np.ndarray:
    """Gene i mutates when uniforms[i] < rate, to a uniformly random different
    value of its variable; uniforms[i] / rate, uniform in [0, 1) given the
    hit, picks that value. `genome` is one genome or one row per child."""
    out = np.array(genome)
    if out.shape[-1] != len(space):
        raise ValueError(f"genome has {out.shape[-1]} genes for a {len(space)}-variable space")
    uniforms = np.asarray(uniforms)
    for hit in zip(*np.nonzero(uniforms < rate)):
        out[hit] = _other_value(out[hit], space.cardinalities[hit[-1]], uniforms[hit] / rate)
    return out


def _other_value(value: int, k: int, u: float) -> int:
    """The value of a k-valued variable other than `value` that a uniform u
    in [0, 1) picks; each of the k - 1 others with equal probability."""
    alt = int(u * (k - 1))
    return alt if alt < value else alt + 1


def next_generation(
    genomes: np.ndarray,
    impressions: np.ndarray,
    conversions: np.ndarray,
    elite_indices: list[int],
    config: EvolutionConfig,
    space: SearchSpace,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elites pass through with their accumulated stats; the remaining slots
    are crossover children of elite pairs, then mutated, with no stats yet.
    Returns (genomes, impressions, conversions); size is unchanged.

    One rng.random block drives the whole generation. Each child's row holds
    two parent-pair uniforms, one crossover and one mutation uniform per
    gene, then the gene and value uniforms of its first dedupe nudge; any
    later nudge of the same child draws fresh. Parent picks, crossover and
    mutation each take every child at once; only the dedupe nudge goes
    child by child.
    """
    if not elite_indices:
        raise ValueError("no elites available to breed from")
    carried = np.array(elite_indices)
    elites = genomes[carried]
    n_elites, n_vars = elites.shape
    cards = space.cardinalities
    strides = _strides(space)
    block = rng.random((len(genomes) - n_elites, 2 * n_vars + 4))
    i, j = parent_pair(block[:, 0], block[:, 1], n_elites)
    children = crossover(elites.take(i, 0), elites.take(j, 0), block[:, 2 : 2 + n_vars])
    children = mutate(children, config.mutation_rate, space, block[:, 2 + n_vars : -2])
    bred = np.concatenate([elites, children])
    flats = (bred @ strides).tolist()
    # Crossover of a small elite pool mostly reproduces the same few
    # genomes; a duplicate child would just split traffic without adding
    # information. Nudge a duplicate to a one-gene neighbour until it
    # differs from every genome already in this generation.
    seen = set(flats[:n_elites])
    nudges = block[:, -2:].tolist()
    for n, (flat, nudge) in enumerate(zip(flats[n_elites:], nudges), start=n_elites):
        attempts = 0
        while flat in seen and attempts < 64:
            if attempts:
                nudge = rng.random(2).tolist()
            gene = int(nudge[0] * n_vars)
            old = int(bred[n, gene])
            bred[n, gene] = new = _other_value(old, cards[gene], nudge[1])
            flat += (new - old) * int(strides[gene])
            attempts += 1
        seen.add(flat)
    new_impressions = np.zeros(len(genomes), dtype=impressions.dtype)
    new_conversions = np.zeros(len(genomes), dtype=conversions.dtype)
    new_impressions[:n_elites] = impressions[carried]
    new_conversions[:n_elites] = conversions[carried]
    return bred, new_impressions, new_conversions


def undominated(conversions: list[int], failures: list[int]) -> list[int]:
    """Indices, ascending, of the count pairs that no other pair dominates.

    Pair j dominates pair i when it has at least as many conversions and at
    most as many failures, and the pairs differ; exactly equal pairs are all
    kept. One sweep in order of conversions descending, then failures
    ascending: a pair is undominated exactly when it has fewer failures than
    the last pair kept, or equals it.
    """
    order = sorted(range(len(conversions)), key=lambda i: (-conversions[i], failures[i]))
    front, last = [], None
    for i in order:
        pair = (conversions[i], failures[i])
        if last is None or pair[1] < last[1] or pair == last:
            front.append(i)
            last = pair
    return sorted(front)


def beat_control_winner(
    impressions: np.ndarray,
    conversions: np.ndarray,
    ctrl_impressions: int,
    ctrl_conversions: int,
) -> tuple[int | None, float]:
    """The index of the tested genome with the highest probability to beat
    control (None for the control), and that probability, under posteriors
    smoothed by the pooled prior. Element i of the count arrays is genome i's
    accumulated evidence.

    The control is itself a tested candidate (PBC exactly 1/2 against its
    own posterior), so nothing with worse evidence than the default can
    win. PBC is compared in units of PBC_TOL, the accuracy it is computed
    to, so clear winners near 1.0 tie whatever the quadrature's rounding;
    posterior mean breaks those ties, and the earlier entry wins a full tie.

    PBC is computed only for the undominated genomes. Every genome shares
    the pooled prior, so one with no fewer conversions and no more failures
    than another has a stochastically larger posterior: no lower PBC and,
    counts differing, a strictly higher mean. A dominated genome cannot win.
    Kept genomes stay in tested order, and a pair's PBC does not depend on
    the rest of its batch, so the winner and its PBC are those of the full
    computation.
    """
    prior = global_prior(
        int(impressions.sum()) + ctrl_impressions, int(conversions.sum()) + ctrl_conversions
    )
    ctrl_post = BetaPosterior(*posterior(prior, ctrl_impressions, ctrl_conversions))
    front = undominated(conversions.tolist(), (impressions - conversions).tolist())
    alphas, betas = posterior(prior, impressions[front], conversions[front])
    pbcs = [0.5, *prob_beats_control((alphas, betas), ctrl_post).tolist()]
    means = [ctrl_post.mean, *(alphas / (alphas + betas)).tolist()]
    best = max(range(len(pbcs)), key=lambda i: (round(pbcs[i] / PBC_TOL), means[i]))
    return (front[best - 1] if best else None), pbcs[best]


@dataclass(frozen=True)
class EvolutionResult:
    """`tested`: the distinct genomes served, one row each in first-tested
    order, with count arrays aligned to it (the control's own share aside)."""

    records: tuple
    winner: Candidate
    winner_pbc: float
    tested: np.ndarray
    tested_impressions: np.ndarray
    tested_conversions: np.ndarray


def tally(ids: np.ndarray, impressions: np.ndarray, conversions: np.ndarray):
    """(distinct ids, summed impressions, summed conversions), one element per
    distinct id in order of first appearance in `ids`."""
    unique, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    sums = (np.bincount(inverse, weights=counts) for counts in (impressions, conversions))
    return unique[order], *(s.astype(np.int64)[order] for s in sums)


def run_evolution(
    evaluator: Evaluator,
    traffic_plan: list[list[int]],
    config: EvolutionConfig,
    rng: np.random.Generator,
) -> EvolutionResult:
    """Run the full generational loop against a ground-truth evaluator, over
    the evaluator's space.

    traffic_plan[g][slot] gives the impressions served to each population
    slot in generation g. The control candidate additionally receives one
    slot's worth of impressions per generation, tracked separately and used
    only for the beat-control winner selection.
    """
    if len(traffic_plan) != config.generations:
        raise ValueError(
            f"traffic plan covers {len(traffic_plan)} generations, "
            f"config asks for {config.generations}"
        )

    space = evaluator.space
    ctrl = control(space)
    genomes = init_population(space)
    pop_size = len(genomes)
    for g, slots in enumerate(traffic_plan):
        if len(slots) != pop_size:
            raise ValueError(
                f"generation {g} plan has {len(slots)} slots for {pop_size} candidates"
            )
    # Row g: generation g's impressions per slot, then the control's share.
    served = np.array([[*slots, slots[0]] for slots in traffic_plan])
    # This generation's true rates per slot, then the control's.
    crs = np.append(np.zeros(pop_size), evaluator.true_crs([ctrl.choices]))
    impressions = np.zeros(pop_size, dtype=np.int64)
    conversions = np.zeros(pop_size, dtype=np.int64)
    # Row g: generation g's flat id per slot; conversions drawn per slot,
    # then the control's.
    strides = _strides(space)
    ids = np.empty((config.generations, pop_size), dtype=np.intp)
    drawn = np.empty_like(served)
    records: list[GenerationRecord] = []

    for g in range(config.generations):
        # Bred genomes are in range by construction, so the landscape is
        # indexed without true_crs's checks.
        ids[g] = genomes @ strides
        true_crs = evaluator.table.ravel()[ids[g]]
        crs[:-1] = true_crs
        # One draw for every slot, then the control's, in that stream order.
        drawn[g] = simulate_conversions(crs, served[g], rng)
        impressions = impressions + served[g, :-1]
        conversions = conversions + drawn[g, :-1]

        # The pooled prior depends only on the population's totals.
        prior = global_prior(int(impressions.sum()), int(conversions.sum()))
        elite_idx = select_elites(ids[g], impressions, conversions, config.elite_fraction, prior)
        records.append(
            GenerationRecord(g, genomes, impressions, conversions, true_crs, elite_idx)
        )
        if g + 1 < config.generations:
            genomes, impressions, conversions = next_generation(
                genomes, impressions, conversions, elite_idx, config, space, rng
            )

    tested_ids, tested_imp, tested_conv = tally(
        ids.ravel(), served[:, :-1].ravel(), drawn[:, :-1].ravel()
    )
    best, winner_pbc = beat_control_winner(
        tested_imp, tested_conv, int(served[:, -1].sum()), int(drawn[:, -1].sum())
    )
    tested = np.transpose(np.unravel_index(tested_ids, space.cardinalities))
    return EvolutionResult(
        records=tuple(records),
        winner=ctrl if best is None else Candidate(tested[best]),
        winner_pbc=winner_pbc,
        tested=tested,
        tested_impressions=tested_imp,
        tested_conversions=tested_conv,
    )
