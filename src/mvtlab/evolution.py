"""Elitist evolutionary optimizer.

The first generation is every one-gene variant of the control; later
generations keep the top-ranked elites (with their accumulated statistics)
and refill the rest by uniform crossover of elite pairs plus per-gene
mutation. The winner is the tested candidate with the highest probability
to beat control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluator import Evaluator
from .genome import Candidate, SearchSpace, control, one_gene_variants
from .simstats import (
    DEFAULT_PRIOR_STRENGTH,
    PBC_TOL,
    CandidateStats,
    global_prior,
    posterior,
    prob_beats_control_many,
    simulate_conversions,
)


@dataclass(frozen=True)
class EvolutionConfig:
    generations: int = 8
    mutation_rate: float = 0.01
    elite_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self):
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must be a probability")
        if not 0.0 < self.elite_fraction < 1.0:
            raise ValueError("elite fraction must lie strictly between 0 and 1")


@dataclass
class GenerationRecord:
    index: int
    population: list[tuple[Candidate, CandidateStats]]
    elite_indices: list[int] = field(default_factory=list)


def init_population(space: SearchSpace) -> list[Candidate]:
    """First generation: every genome one gene away from the control."""
    return one_gene_variants(space)


def select_elites(
    population: list[tuple[Candidate, CandidateStats]],
    elite_fraction: float,
    prior,
) -> list[int]:
    """Indices of the top ceil(fraction * n) candidates by posterior-mean
    conversion rate, ties toward the earlier index, deduplicated by genome."""
    if not population:
        raise ValueError("cannot select elites from an empty population")
    if any(stats.impressions < 1 for _, stats in population):
        raise ValueError("every candidate needs at least one impression")
    n_elites = math.ceil(elite_fraction * len(population))
    ranked = sorted(
        range(len(population)),
        key=lambda i: (-posterior(population[i][1], prior).mean, i),
    )
    elites, seen = [], set()
    for i in ranked:
        genome = population[i][0].choices
        if genome in seen:
            continue
        seen.add(genome)
        elites.append(i)
        if len(elites) == n_elites:
            break
    return elites


def crossover(
    parent_a: Candidate, parent_b: Candidate, rng: np.random.Generator
) -> Candidate:
    """Uniform per-gene crossover: each choice from either parent with p=1/2."""
    if len(parent_a) != len(parent_b):
        raise ValueError("parents come from different spaces")
    picks = rng.random(len(parent_a)) < 0.5
    choices = [
        a if take_a else b
        for a, b, take_a in zip(parent_a.choices, parent_b.choices, picks)
    ]
    return Candidate(choices)


def mutate(
    c: Candidate, rate: float, space: SearchSpace, rng: np.random.Generator
) -> Candidate:
    """Per gene with probability `rate`, switch to a uniformly random
    different value of that variable."""
    c.validate(space)
    choices = list(c.choices)
    hits = rng.random(len(choices)) < rate
    for i, hit in enumerate(hits):
        if not hit:
            continue
        k = space.cardinalities[i]
        # Draw among the k-1 alternatives, skipping the current value.
        alt = int(rng.integers(k - 1))
        choices[i] = alt if alt < choices[i] else alt + 1
    return Candidate(choices)


def next_generation(
    record: GenerationRecord,
    config: EvolutionConfig,
    space: SearchSpace,
    rng: np.random.Generator,
    prior=None,
) -> list[tuple[Candidate, CandidateStats]]:
    """Elites pass through with their accumulated stats; the remaining slots
    are crossover children of elite pairs, then mutated. Size is unchanged."""
    prior = prior or global_prior([s for _, s in record.population])
    elite_idx = record.elite_indices or select_elites(
        record.population, config.elite_fraction, prior
    )
    if not elite_idx:
        raise ValueError("no elites available to breed from")
    elites = [record.population[i] for i in elite_idx]
    new_pop: list[tuple[Candidate, CandidateStats]] = list(elites)
    seen = {cand.choices for cand, _ in new_pop}
    while len(new_pop) < len(record.population):
        if len(elites) >= 2:
            i, j = rng.choice(len(elites), size=2, replace=False)
        else:
            i = j = 0
        child = crossover(elites[int(i)][0], elites[int(j)][0], rng)
        child = mutate(child, config.mutation_rate, space, rng)
        # Crossover of a small elite pool mostly reproduces the same few
        # genomes; a duplicate child would just split traffic without adding
        # information. Force duplicates into an untested neighbor instead.
        attempts = 0
        while child.choices in seen and attempts < 64:
            child = _tweak_one_gene(child, space, rng)
            attempts += 1
        seen.add(child.choices)
        new_pop.append((child, CandidateStats()))
    return new_pop


def _tweak_one_gene(
    c: Candidate, space: SearchSpace, rng: np.random.Generator
) -> Candidate:
    choices = list(c.choices)
    i = int(rng.integers(len(choices)))
    k = space.cardinalities[i]
    alt = int(rng.integers(k - 1))
    choices[i] = alt if alt < choices[i] else alt + 1
    return Candidate(choices)


def beat_control_winner(
    tested: dict,
    ctrl: Candidate,
    ctrl_stats: CandidateStats,
    prior_strength: float = DEFAULT_PRIOR_STRENGTH,
) -> tuple[Candidate, float]:
    """The tested genome with the highest probability to beat control, and
    that probability, under posteriors smoothed by the pooled prior.

    The control is itself a tested candidate (PBC exactly 1/2 against its
    own posterior), so nothing with worse evidence than the default can
    win. PBC is compared in units of PBC_TOL, the accuracy it is computed
    to, so clear winners near 1.0 tie whatever the quadrature's rounding;
    posterior mean breaks those ties, and the earlier entry wins a full tie.
    """
    prior = global_prior([*tested.values(), ctrl_stats], strength=prior_strength)
    ctrl_post = posterior(ctrl_stats, prior)
    posts = [posterior(stats, prior) for stats in tested.values()]
    pbcs = prob_beats_control_many(
        [p.alpha for p in posts], [p.beta for p in posts], ctrl_post
    )
    pbcs = [0.5, *pbcs.tolist()]
    means = [ctrl_post.mean, *(p.mean for p in posts)]
    best = max(range(len(pbcs)), key=lambda i: (round(pbcs[i] / PBC_TOL), means[i]))
    winner = Candidate(list(tested)[best - 1]) if best else ctrl
    return winner, pbcs[best]


@dataclass(frozen=True)
class EvolutionResult:
    records: tuple
    winner: Candidate
    winner_pbc: float
    control_stats: CandidateStats
    tested: dict  # genome tuple -> accumulated CandidateStats


def run_evolution(
    space: SearchSpace,
    evaluator: Evaluator,
    traffic_plan: list[list[int]],
    config: EvolutionConfig,
    rng: np.random.Generator | None = None,
    prior_strength: float = DEFAULT_PRIOR_STRENGTH,
) -> EvolutionResult:
    """Run the full generational loop against a ground-truth evaluator.

    traffic_plan[g][slot] gives the impressions served to each population
    slot in generation g. The control candidate additionally receives one
    slot's worth of impressions per generation, tracked separately and used
    only for the beat-control winner selection.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(config.seed))
    if len(traffic_plan) != config.generations:
        raise ValueError(
            f"traffic plan covers {len(traffic_plan)} generations, "
            f"config asks for {config.generations}"
        )

    ctrl = control(space)
    ctrl_cr = evaluator.true_cr(ctrl)
    ctrl_stats = CandidateStats()

    population = [(c, CandidateStats()) for c in init_population(space)]
    pop_size = len(population)
    tested: dict[tuple[int, ...], CandidateStats] = {}
    records: list[GenerationRecord] = []

    for g in range(config.generations):
        slots = traffic_plan[g]
        if len(slots) != pop_size:
            raise ValueError(
                f"generation {g} plan has {len(slots)} slots for {pop_size} candidates"
            )
        simulated = []
        for (cand, stats), impressions in zip(population, slots):
            conv = simulate_conversions(evaluator.true_cr(cand), impressions, rng)
            new_stats = stats + CandidateStats(impressions, conv)
            simulated.append((cand, new_stats))
            tested[cand.choices] = tested.get(cand.choices, CandidateStats()) + CandidateStats(
                impressions, conv
            )
        ctrl_share = slots[0]
        ctrl_stats = ctrl_stats + CandidateStats(
            ctrl_share, simulate_conversions(ctrl_cr, ctrl_share, rng)
        )

        prior = global_prior([s for _, s in simulated], strength=prior_strength)
        elite_idx = select_elites(simulated, config.elite_fraction, prior)
        record = GenerationRecord(index=g, population=simulated, elite_indices=elite_idx)
        records.append(record)
        if g + 1 < config.generations:
            population = next_generation(record, config, space, rng, prior=prior)

    winner, winner_pbc = beat_control_winner(tested, ctrl, ctrl_stats, prior_strength)
    return EvolutionResult(
        records=tuple(records),
        winner=winner,
        winner_pbc=winner_pbc,
        control_stats=ctrl_stats,
        tested=tested,
    )
