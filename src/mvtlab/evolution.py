"""Elitist evolutionary optimizer.

The first generation is every one-gene variant of the control; later
generations keep the top-ranked elites (with their accumulated statistics)
and refill the rest by uniform crossover of elite pairs plus per-gene
mutation; simstats.beat_control_winner picks the winner from a run's
evidence. A genome is identified by its flat (C-order) index into the
evaluator's landscape tensor, in breeding's duplicate check as everywhere
else. Between generations a population is each slot's flat id and
accumulated impression and conversion counts, as lists of Python ints.
Breeding works on flat ids too: a gene adds its value index times its
stride to the flat id, so crossover, mutation and the duplicate check never
build genome rows. The tested genomes' rows are built only when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .evaluator import Evaluator
from .genome import Candidate, SearchSpace, _finite, _index, control
from .simstats import BetaPosterior, global_prior, simulate_conversions


@dataclass(frozen=True)
class EvolutionConfig:
    generations: int = 8
    mutation_rate: float = 0.01
    elite_fraction: float = 0.20

    def __post_init__(self):
        object.__setattr__(self, "generations", _index(self.generations, "generations"))
        for name in ("mutation_rate", "elite_fraction"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must be a probability")
        if not 0.0 < self.elite_fraction < 1.0:
            raise ValueError("elite fraction must lie strictly between 0 and 1")


class GenerationRecord(NamedTuple):
    """One generation, as lists: each slot's flat id, accumulated impressions
    and conversions (elites carry theirs forward) and true conversion rate,
    the indices of the elites bred from; and the space the ids index."""

    ids: list[int]
    impressions: list[int]
    conversions: list[int]
    true_crs: list[float]
    elite_indices: list[int]
    space: SearchSpace

    @property
    def genomes(self) -> np.ndarray:
        """The slots' genomes as an (n, variables) int array, built when read."""
        return np.transpose(_unravel(self.ids, self.space))


def _unravel(ids, space: SearchSpace) -> tuple:
    """Each variable's value index in the genomes that flat ids name: an int
    per variable for an id, an array per variable for a list of ids."""
    return np.unravel_index(ids, space.cardinalities)


def init_population(space: SearchSpace) -> np.ndarray:
    """First generation: every genome one gene away from the control, one
    per row, variable-major, then value ascending."""
    cards = space.cardinalities
    variable = np.repeat(np.arange(len(cards)), np.subtract(cards, 1))
    genomes = np.zeros((len(variable), len(cards)), dtype=np.int64)
    genomes[np.arange(len(variable)), variable] = np.concatenate([np.arange(1, k) for k in cards])
    return genomes


@lru_cache(maxsize=64)
def _layout(space: SearchSpace) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """(the first generation's flat ids, the C-order strides, the strides
    and cardinalities as a (2, variables) array) of a space: a genome's flat
    id is its dot product with the strides. All depend on the space alone,
    so they are built once per space, as tuples and a read-only array that
    no run can change."""
    cards = space.cardinalities
    strides = tuple(math.prod(cards[i + 1 :]) for i in range(len(cards)))
    digits = np.array([strides, cards])
    digits.flags.writeable = False
    return tuple((init_population(space) @ strides).tolist()), strides, digits


def select_elites(
    ids: list[int],
    impressions: list[int],
    conversions: list[int],
    elite_fraction: float,
    prior: BetaPosterior,
) -> list[int]:
    """Indices of the top ceil(fraction * n) slots by posterior-mean
    conversion rate, ties toward the earlier index, deduplicated by genome
    (slots with equal flat ids)."""
    if not ids:
        raise ValueError("cannot select elites from an empty population")
    if min(impressions) < 1:
        raise ValueError("every candidate needs at least one impression")
    n_elites = math.ceil(elite_fraction * len(ids))
    # posterior()'s conjugate update and the mean, element by element on
    # Python floats: the same IEEE operations as on arrays, without the
    # fixed cost of array calls on a small population.
    a0, b0 = prior.alpha, prior.beta
    means = [(a0 + c) / ((a0 + c) + (b0 + (n - c))) for n, c in zip(impressions, conversions)]
    elites, seen = [], set()
    # A reversed sort is still stable: equal means keep index order.
    for i in sorted(range(len(means)), key=means.__getitem__, reverse=True):
        if ids[i] in seen:
            continue
        seen.add(ids[i])
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


# Child blocks of at most this many children are bred one child at a time
# on Python lists; larger blocks take parent picks and crossover as one
# array pass each. Lists win up to 8 (8 genes) to 10 (4 or 5 genes)
# children, on a 2-core x86-64 box with numpy 2.4 (timings in CHANGES.md).
# The benchmark runs both sides: setting1-linear breeds 2 children per
# generation and mixed-nonlinear 17. Lists alone made mixed-nonlinear's run
# 12% slower, and the array pass alone made setting1-linear's 44% slower.
_LIST_CHILDREN = 8


def next_generation(
    ids: list[int],
    impressions: list[int],
    conversions: list[int],
    elite_indices: list[int],
    config: EvolutionConfig,
    space: SearchSpace,
    rng: np.random.Generator,
) -> tuple[list[int], list[int], list[int]]:
    """Elites pass through with their accumulated stats; the remaining slots
    are crossover children of elite pairs, then mutated, with no stats yet.
    A population is each slot's flat id and accumulated counts, as lists;
    returns the next one as (ids, impressions, conversions), same size.

    Children are bred on flat ids. A flat id is the sum of its genes'
    contributions, value index times stride, so crossover picks each gene's
    contribution from one parent and a mutation or a dedupe nudge adds
    (new value - old value) times the gene's stride.

    One rng.random block drives the whole generation. Each child's row holds
    two parent-pair uniforms, one crossover and one mutation uniform per
    gene, then the gene and value uniforms of its first dedupe nudge; any
    later nudge of the same child draws fresh. Above _LIST_CHILDREN
    children, parent picks and crossover each take every child at once; at
    or below it each child is bred on Python lists. Both give the same
    genomes and leave rng in the same state.
    """
    if not elite_indices:
        raise ValueError("no elites available to breed from")
    _, strides, digits = _layout(space)
    cards = space.cardinalities
    n_elites, n_vars = len(elite_indices), len(cards)
    flats = [ids[i] for i in elite_indices]
    block = rng.random((len(ids) - n_elites, 2 * n_vars + 4))
    rate = config.mutation_rate
    if len(block) <= _LIST_CHILDREN:
        # parent_pair, crossover and mutate, child by child on Python lists
        # with the same arithmetic.
        parents = [[f // s % k * s for s, k in zip(strides, cards)] for f in flats]
        rows = block.tolist()
        for u in rows:
            i = int(u[0] * n_elites)
            a, b = parents[i], parents[(i + 1 + int(u[1] * (n_elites - 1))) % n_elites]
            flat = sum([x if c < 0.5 else y for x, y, c in zip(a, b, u[2 : 2 + n_vars])])
            mut = u[2 + n_vars : -2]
            # Most children have no hit; a rate of 0 never reaches the division.
            if min(mut) < rate:
                for g, m in enumerate(mut):
                    if m < rate:
                        flat = _step(flat, strides[g], cards[g], m / rate)
            flats.append(flat)
        nudges = [u[-2:] for u in rows]
    else:
        stride, card = digits
        parents = np.array(flats)[:, None] // stride % card * stride
        i, j = parent_pair(block[:, 0], block[:, 1], n_elites)
        children = crossover(parents.take(i, 0), parents.take(j, 0), block[:, 2 : 2 + n_vars])
        flats += children.sum(axis=1).tolist()
        mut = block[:, 2 + n_vars : -2]
        for n, g in zip(*(x.tolist() for x in np.nonzero(mut < rate))):
            f = flats[n_elites + n]
            flats[n_elites + n] = _step(f, strides[g], cards[g], mut[n, g] / rate)
        nudges = block[:, -2:].tolist()
    _dedupe(flats, n_elites, nudges, strides, cards, rng)
    unseen = [0] * len(block)
    return (
        flats,
        [impressions[i] for i in elite_indices] + unseen,
        [conversions[i] for i in elite_indices] + unseen,
    )


def _step(flat: int, stride: int, k: int, u: float) -> int:
    """The flat id with the gene of this stride and k values moved to the
    other value that u picks, as _other_value picks it."""
    old = flat // stride % k
    return flat + (_other_value(old, k, u) - old) * stride


def _dedupe(flats: list, n_elites: int, nudges: list, strides, cards, rng) -> None:
    """Crossover of a small elite pool mostly reproduces the same few
    genomes; a duplicate child would just split traffic without adding
    information. Nudge each child's flat id, in place and in order, to a
    one-gene neighbour's until it differs from every flat id before it."""
    seen = set(flats[:n_elites])
    n_vars = len(cards)
    for n, (u, v) in enumerate(nudges, start=n_elites):
        flat, attempts = flats[n], 0
        while flat in seen and attempts < 64:
            if attempts:
                u, v = rng.random(2).tolist()
            gene = int(u * n_vars)
            flat = _step(flat, strides[gene], cards[gene], v)
            attempts += 1
        seen.add(flat)
        flats[n] = flat


@dataclass(frozen=True)
class EvolutionResult:
    """One run's evidence. `tested_ids`: the flat ids of the distinct
    genomes served, in first-tested order. `evidence`: this run's cell of
    simstats.beat_control_winner's argument, (impressions, conversions,
    ctrl_impressions, ctrl_conversions), the first two lists aligned to
    `tested_ids`; the control's own share is counted apart. `records` logs
    each generation, in order. The genome rows are built from the ids when
    read."""

    space: SearchSpace
    tested_ids: list[int]
    evidence: tuple[list[int], list[int], int, int]
    records: tuple[GenerationRecord, ...]

    @cached_property
    def tested(self) -> np.ndarray:
        """The tested genomes as an (n, variables) int array, one row per
        element of tested_ids."""
        return np.transpose(_unravel(self.tested_ids, self.space))

    def candidate(self, index: int | None) -> Candidate:
        """The tested genome a beat_control_winner index names; the control
        for None."""
        if index is None:
            return control(self.space)
        return Candidate(_unravel(self.tested_ids[index], self.space))


def run_evolution(
    evaluator: Evaluator,
    traffic_plan: Sequence[Sequence[int]],
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
    # The population: each slot's flat id, with its accumulated counts.
    ids = list(_layout(space)[0])
    pop_size = len(ids)
    impressions = conversions = [0] * pop_size
    for g, slots in enumerate(traffic_plan):
        if len(slots) != pop_size:
            raise ValueError(
                f"generation {g} plan has {len(slots)} slots for {pop_size} candidates"
            )
    landscape = evaluator.table.ravel()
    # The control, every variable at its first value, has flat id 0.
    ctrl_cr = float(landscape[0])
    # Flat id -> [impressions, conversions] summed over every slot that
    # served it; a dict keeps its keys in first-tested order.
    ledger: dict[int, list[int]] = {}
    ctrl_impressions = ctrl_conversions = 0
    records = []

    for g, slots in enumerate(traffic_plan):
        # Bred genomes are in range by construction, so the landscape is
        # indexed without true_crs's checks.
        true_crs = landscape[ids].tolist()
        # One draw for every slot, then the control's, in that stream order.
        *drawn, ctrl_drawn = simulate_conversions([*true_crs, ctrl_cr], [*slots, slots[0]], rng)
        ctrl_impressions += slots[0]
        ctrl_conversions += ctrl_drawn
        for i, n, c in zip(ids, slots, drawn):
            total = ledger.get(i)
            if total is None:
                ledger[i] = [n, c]
            else:
                total[0] += n
                total[1] += c
        impressions = [n + s for n, s in zip(impressions, slots)]
        conversions = [c + d for c, d in zip(conversions, drawn)]

        # The pooled prior depends only on the population's totals.
        prior = global_prior(sum(impressions), sum(conversions))
        elite_idx = select_elites(ids, impressions, conversions, config.elite_fraction, prior)
        records.append(GenerationRecord(ids, impressions, conversions, true_crs, elite_idx, space))
        if g + 1 < config.generations:
            ids, impressions, conversions = next_generation(
                ids, impressions, conversions, elite_idx, config, space, rng
            )

    totals = list(ledger.values())
    return EvolutionResult(
        space=space,
        tested_ids=list(ledger),
        evidence=(
            [n for n, _ in totals], [c for _, c in totals], ctrl_impressions, ctrl_conversions
        ),
        records=tuple(records),
    )
