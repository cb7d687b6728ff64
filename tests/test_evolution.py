"""Elitist evolutionary optimizer tests: structure, operator frequencies,
determinism, and oracle comparisons at high traffic."""

import itertools
import math
from collections import Counter
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvtlab import evolution, simstats
from mvtlab.evaluator import LINEAR, brute_force_best, sample_evaluator
from mvtlab.evolution import (
    EvolutionConfig,
    EvolutionResult,
    GenerationRecord,
    crossover,
    init_population,
    mutate,
    next_generation,
    parent_pair,
    run_evolution,
    select_elites,
)
from mvtlab.genome import Candidate, SearchSpace
from mvtlab.harness import PRESETS
from mvtlab.simstats import (
    BetaPosterior,
    allocate_evolution,
    beat_control_winner,
    global_prior,
    posterior,
    simulate_conversions,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(generations=0)
    with pytest.raises(ValueError):
        EvolutionConfig(mutation_rate=1.5)
    with pytest.raises(ValueError):
        EvolutionConfig(elite_fraction=1.0)


def test_init_population_counts():
    assert len(init_population(SearchSpace([2, 4, 5, 3]))) == 10
    assert len(init_population(SearchSpace([3, 3, 3, 3]))) == 8
    assert len(init_population(SearchSpace([2]))) == 1


def count_lists(pairs):
    """(impressions, conversions) lists from (impressions, conversions) pairs."""
    imp, conv = zip(*pairs)
    return list(imp), list(conv)


def flat_ids(genomes, space):
    """Each genome row's flat index into the space's landscape tensor."""
    return np.ravel_multi_index(tuple(np.asarray(genomes).T), space.cardinalities).tolist()


def genome_rows(ids, space):
    """The genome row, one value index per variable, of each flat id."""
    return np.transpose(np.unravel_index(ids, space.cardinalities)).tolist()


def test_select_elites_count_and_tie_break():
    space = SearchSpace([2, 4, 5, 3])
    ids = flat_ids(init_population(space), space)
    imp, conv = count_lists([(100, 5)] * 10)
    prior = global_prior(1000, 50)
    elites = select_elites(ids, imp, conv, 0.20, prior)
    assert elites == [0, 1]  # all tied -> earliest indices


def test_select_elites_dominant_candidate_first():
    space = SearchSpace([3, 3])
    ids = flat_ids(init_population(space), space)
    imp, conv = count_lists([(100, 0)] * 3 + [(100, 100)])
    prior = global_prior(400, 100)
    assert select_elites(ids, imp, conv, 0.25, prior)[0] == 3


def test_select_elites_requires_impressions():
    prior = global_prior(10, 1)
    with pytest.raises(ValueError):
        select_elites([1], [0], [0], 0.5, prior)
    with pytest.raises(ValueError):
        select_elites([], [], [], 0.5, prior)


def test_select_elites_deduplicates_genomes():
    ids = flat_ids([[1, 0], [1, 0], [0, 1], [1, 1]], SearchSpace([2, 2]))
    imp, conv = count_lists([(100, 50), (100, 50), (100, 10), (100, 5)])
    prior = global_prior(400, 115)
    assert select_elites(ids, imp, conv, 0.5, prior) == [0, 2]


def test_select_elites_matches_posterior_mean_sort():
    # The ranking is the per-candidate posterior mean sort, ties toward
    # the earlier index, on exactly the same float arithmetic.
    rng = rng_for(9)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        imp = rng.integers(1, 10**6, size=n)
        conv = rng.binomial(imp, 0.05)
        ids = list(range(n))  # all distinct
        prior = global_prior(int(imp.sum()), int(conv.sum()))

        def mean(i):
            return BetaPosterior(*posterior(prior, int(imp[i]), int(conv[i]))).mean

        expected = sorted(range(n), key=lambda i: (-mean(i), i))
        got = select_elites(ids, imp.tolist(), conv.tolist(), 0.999, prior)
        assert got == expected


def test_crossover_closure_and_gene_pool():
    rng = rng_for(0)
    a, b = [0, 1, 2, 0], [2, 1, 0, 1]
    assert crossover(a, a, rng.random(4)).tolist() == a
    for _ in range(50):
        child = crossover(a, b, rng.random(4)).tolist()
        assert all(g in (x, y) for g, x, y in zip(child, a, b))
    with pytest.raises(ValueError):
        crossover(a, [0, 1], rng.random(4))


def test_crossover_frequency():
    rng = rng_for(314)
    a, b = [0, 0, 0, 0], [1, 1, 1, 1]
    from_a = 0
    trials = 10_000
    for _ in range(trials):
        from_a += sum(g == 0 for g in crossover(a, b, rng.random(4)))
    freq = from_a / (4 * trials)
    assert abs(freq - 0.5) < 0.02


def test_mutate_edges():
    space = SearchSpace([2, 2, 2])
    rng = rng_for(1)
    c = [0, 0, 0]
    assert mutate(c, 0.0, space, rng.random(3)).tolist() == c
    assert mutate(c, 1.0, space, rng.random(3)).tolist() == [1, 1, 1]
    with pytest.raises(ValueError):
        mutate([0, 0], 0.5, space, rng.random(2))


def test_mutate_always_changes_hit_gene():
    space = SearchSpace([5])
    rng = rng_for(2)
    for _ in range(200):
        out = mutate([3], 1.0, space, rng.random(1))
        assert out[0] != 3
        assert 0 <= out[0] < 5


def test_mutation_frequency():
    space = SearchSpace([4] * 10)
    rng = rng_for(2718)
    trials = 100_000  # 10^6 gene draws total
    # One block draws the same doubles as one rng.random(10) call per trial.
    out = mutate(np.zeros((trials, 10), dtype=int), 0.01, space, rng.random((trials, 10)))
    freq = np.count_nonzero(out) / (10 * trials)
    assert abs(freq - 0.01) < 0.001


def test_next_generation_structure():
    space = SearchSpace([2, 4, 5, 3])
    imp, conv = count_lists([(100, i) for i in range(10)])
    prior = global_prior(1000, 45)
    ids = flat_ids(init_population(space), space)
    elite_idx = select_elites(ids, imp, conv, EvolutionConfig().elite_fraction, prior)
    rng = rng_for(5)
    new_ids, new_imp, new_conv = next_generation(
        ids, imp, conv, elite_idx, EvolutionConfig(), space, rng
    )
    assert len(new_ids) == len(new_imp) == len(new_conv) == 10
    # Elites (the two highest conversion counts: indices 9 and 8) pass
    # through unchanged with their accumulated stats.
    assert new_ids[:2] == [ids[9], ids[8]]
    assert (new_imp[0], new_conv[0]) == (100, 9)
    assert (new_imp[1], new_conv[1]) == (100, 8)
    assert all(0 <= i < space.total_combinations for i in new_ids)
    for genome, n, c in zip(genome_rows(new_ids[2:], space), new_imp[2:], new_conv[2:]):
        Candidate(genome).validate(space)
        assert (n, c) == (0, 0)


def test_next_generation_requires_elites():
    space = SearchSpace([2, 2])
    ids = flat_ids(init_population(space), space)
    imp, conv = count_lists([(100, 1), (100, 2)])
    with pytest.raises(ValueError):
        next_generation(ids, imp, conv, [], EvolutionConfig(), space, rng_for(0))


def test_next_generation_single_elite_no_mutation():
    space = SearchSpace([2, 2])
    ids = flat_ids([[1, 1], [0, 1], [1, 0]], space)
    imp, conv = count_lists([(100, 90), (100, 1), (100, 1)])
    cfg = EvolutionConfig(mutation_rate=0.0)
    new_ids, _, _ = next_generation(ids, imp, conv, [0], cfg, space, rng_for(3))
    assert genome_rows(new_ids[:1], space) == [[1, 1]]
    # Crossover of the lone elite with itself reproduces it; a duplicate is
    # nudged until it differs from every genome in the generation.
    children = new_ids[1:]
    assert ids[0] not in children
    assert len(set(children)) == len(children)


def test_parent_pair_frequency():
    # Every ordered pair of distinct elites at 1/(e(e-1)), within five
    # standard errors, from the uniforms breeding feeds it; never a self-pair.
    rng = rng_for(1618)
    trials = 60_000

    def pairs(uniforms, e):
        i, j = parent_pair(uniforms[:, 0], uniforms[:, 1], e)
        return Counter(zip(i.tolist(), j.tolist()))

    assert set(pairs(rng.random((100, 2)), 1)) == {(0, 0)}
    for e in (2, 3, 5):
        pairs_e = pairs(rng.random((trials, 2)), e)
        assert all(i != j for i, j in pairs_e)
        p = 1 / (e * (e - 1))
        tol = 5 * (p * (1 - p) / trials) ** 0.5
        for i, j in itertools.permutations(range(e), 2):
            assert abs(pairs_e[(i, j)] / trials - p) < tol, (e, i, j)


@st.composite
def breeding_cases(draw, distinct=True):
    """(space, flat ids, elite indices, mutation rate, seed). Genomes that
    need not be distinct may outnumber the space's cells, so nudges can
    run out."""
    space = SearchSpace(draw(st.lists(st.integers(2, 6), min_size=1, max_size=6)))
    n_cells = space.total_combinations
    ids = draw(st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=25, unique=distinct))
    elites = draw(st.lists(st.sampled_from(range(len(ids))), min_size=1, unique=True))
    rate = draw(st.sampled_from([0.0, 0.01, 1.0]))
    return space, ids, elites, rate, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(breeding_cases())
def test_next_generation_property(case):
    space, ids, elites, rate, seed = case
    imp = list(range(10, len(ids) + 10))
    conv = list(range(len(ids)))
    calls = []

    def spy(a, b, uniforms):
        calls.append((a, b, crossover(a, b, uniforms)))
        return calls[-1][2]

    with mock.patch.object(evolution, "crossover", spy):
        new, new_imp, new_conv = next_generation(
            ids, imp, conv, elites, EvolutionConfig(mutation_rate=rate), space, rng_for(seed)
        )
    e = len(elites)
    assert len(new) == len(new_imp) == len(new_conv) == len(ids)
    assert new[:e] == [ids[i] for i in elites]
    assert new_imp[:e] == [imp[i] for i in elites]
    assert new_conv[:e] == [conv[i] for i in elites]
    assert not any(new_imp[e:]) and not any(new_conv[e:])
    assert all(type(i) is int and 0 <= i < space.total_combinations for i in new)
    if len(ids) - e <= evolution._LIST_CHILDREN:
        # Small child blocks are bred child by child on lists, without
        # crossover(); test_next_generation_equals_per_child_reference
        # pins what they breed.
        assert not calls
        return
    elite_rows = genome_rows(new[:e], space)
    # One crossover call breeds the whole child block, one row per child.
    # Its rows hold each gene's contribution to the flat id, value index
    # times stride, so dividing by the strides gives the genome rows.
    [(parents_a, parents_b, crossed)] = calls
    assert len(crossed) == len(ids) - e
    strides = evolution._layout(space)[1]
    parents_a, parents_b, crossed = (
        np.divmod(x, strides) for x in (parents_a, parents_b, crossed)
    )
    assert not any(remainder.any() for _, remainder in (parents_a, parents_b, crossed))
    rows = genome_rows(new, space)
    children = zip(parents_a[0].tolist(), parents_b[0].tolist(), crossed[0].tolist())
    for n, (a, b, bred) in enumerate(children, start=e):
        assert a in elite_rows and b in elite_rows and (a != b or e == 1)
        if rate == 0.0:
            # A child differs from its crossover only when the crossover
            # duplicated a genome already in the generation and was nudged.
            assert rows[n] == bred or bred in rows[:n]
            assert all(g in (x, y) for g, x, y in zip(bred, a, b))


MIXED = PRESETS["mixed-nonlinear"].space
SPACE3 = SearchSpace([4, 4, 5])  # 10 one-gene variants


def reference_next_generation(ids, impressions, conversions, elite_indices, rate, space, rng):
    """Breeding one child at a time from the same uniform block: parent pair,
    crossover, mutation, then dedupe nudges, all on Python ints."""

    def other_value(value, k, u):
        alt = int(u * (k - 1))
        return alt if alt < value else alt + 1

    cards = space.cardinalities
    n_vars = len(cards)
    strides = [math.prod(cards[i + 1 :]) for i in range(n_vars)]
    elites = genome_rows([ids[i] for i in elite_indices], space)
    e = len(elites)
    rows = [list(row) for row in elites]
    seen = {sum(g * s for g, s in zip(row, strides)) for row in rows}
    for row in rng.random((len(ids) - e, 2 * n_vars + 4)).tolist():
        i = int(row[0] * e)
        j = (i + 1 + int(row[1] * (e - 1))) % e
        cross, mut, nudge = row[2 : 2 + n_vars], row[2 + n_vars : -2], row[-2:]
        child = [a if u < 0.5 else b for a, b, u in zip(elites[i], elites[j], cross)]
        child = [other_value(g, k, q / rate) if q < rate else g for g, k, q in zip(child, cards, mut)]
        flat = sum(g * s for g, s in zip(child, strides))
        attempts = 0
        while flat in seen and attempts < 64:
            if attempts:
                nudge = rng.random(2).tolist()
            gene = int(nudge[0] * n_vars)
            old = child[gene]
            child[gene] = other_value(old, cards[gene], nudge[1])
            flat += (child[gene] - old) * strides[gene]
            attempts += 1
        seen.add(flat)
        rows.append(child)
    unseen = [0] * (len(ids) - e)
    return (
        [sum(g * s for g, s in zip(row, strides)) for row in rows],
        [impressions[i] for i in elite_indices] + unseen,
        [conversions[i] for i in elite_indices] + unseen,
    )


@pytest.mark.filterwarnings("error")  # a mutation rate of 0 must not divide by it
@settings(max_examples=200, deadline=None)
@given(st.one_of(breeding_cases(), breeding_cases(distinct=False)))
@example((SearchSpace([2, 2]), [0] * 6, [0], 0.0, 7))
@example((MIXED, flat_ids(init_population(MIXED), MIXED), [3, 0, 9, 21, 4], 0.01, 11))
# Child blocks at the list-breeding cutoff and one child above it.
@example((MIXED, flat_ids(init_population(MIXED), MIXED), list(range(14)), 0.01, 12))
@example((MIXED, flat_ids(init_population(MIXED), MIXED), list(range(13)), 0.01, 13))
@example((SPACE3, flat_ids(init_population(SPACE3), SPACE3), [0, 5], 1.0, 14))
@example((SPACE3, flat_ids(init_population(SPACE3), SPACE3), [4], 0.01, 15))
# A single elite, on the array path and on the list path.
@example((MIXED, flat_ids(init_population(MIXED), MIXED), [7], 0.01, 16))
@example((MIXED, flat_ids(init_population(MIXED), MIXED)[:9], [2], 0.01, 20))
# Children that fill the whole space, so most need several fresh nudges
# (29 and 57 rng.random(2) draws), on the list path and on the array path.
@example((SearchSpace([2, 2, 2]), list(range(8)), [5], 0.0, 17))
@example((SearchSpace([2, 2, 2, 2]), list(range(16)), [3], 0.0, 18))
def test_next_generation_equals_per_child_reference(case):
    space, ids, elites, rate, seed = case
    imp = list(range(10, len(ids) + 10))
    conv = list(range(len(ids)))
    config = EvolutionConfig(mutation_rate=rate)
    rng, ref_rng = rng_for(seed), rng_for(seed)
    got = next_generation(ids, imp, conv, elites, config, space, rng)
    expected = reference_next_generation(ids, imp, conv, elites, rate, space, ref_rng)
    assert got == expected
    assert all(type(x) is int for counts in got for x in counts)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_next_generation_rows_distinct_on_preset_spaces(preset):
    space = PRESETS[preset].space
    cfg = EvolutionConfig()
    ids = flat_ids(init_population(space), space)
    imp, conv = [1] * len(ids), [0] * len(ids)
    n_elites = math.ceil(cfg.elite_fraction * len(ids))
    rng = rng_for(42)
    for _ in range(200):
        elites = rng.permutation(len(ids))[:n_elites].tolist()
        ids, imp, conv = next_generation(ids, imp, conv, elites, cfg, space, rng)
        assert len(set(ids)) == len(ids)


def run_once(space, seed, total=100_000, cfg=None):
    cfg = cfg or EvolutionConfig()
    ev = sample_evaluator(space, LINEAR, seed=seed)
    pop = sum(k - 1 for k in space.cardinalities)
    plan = allocate_evolution(total, cfg.generations, pop)
    return ev, run_evolution(ev, plan, cfg, rng_for(seed + 1000))


def own_winner(result):
    """A run's own winner and its PBC, picked by beat_control_winner from
    the run's evidence alone; the winner's flat id, the control's 0 for
    None, decoded into a Candidate."""
    [(best, pbc)] = beat_control_winner([result.evidence])
    flat = 0 if best is None else result.tested_ids[best]
    return Candidate(np.unravel_index(flat, result.space.cardinalities)), pbc


def test_run_evolution_structure():
    space = SearchSpace([3, 3, 3, 3])
    ev, result = run_once(space, 0)
    assert len(result.records) == 8
    for record in result.records:
        assert record.genomes.shape == (8, 4)
        assert len(record.impressions) == len(record.conversions) == 8
        for genome, n, c, cr in zip(
            record.genomes.tolist(), record.impressions, record.conversions, record.true_crs
        ):
            Candidate(genome).validate(space)
            assert n > 0 and 0 <= c <= n
            assert cr == ev.true_cr(Candidate(genome))
    # elites of generation g appear unchanged in generation g+1, with the
    # statistics they had accumulated
    for prev, nxt in zip(result.records, result.records[1:]):
        k = len(prev.elite_indices)
        assert nxt.genomes[:k].tolist() == prev.genomes[prev.elite_indices].tolist()
        for i, e in enumerate(prev.elite_indices):
            assert nxt.impressions[i] > prev.impressions[e]
            assert nxt.conversions[i] >= prev.conversions[e]


def test_run_evolution_tested_totals_match_plan(monkeypatch):
    # The tested set is every distinct genome served, and its counts are
    # every slot's; the control's own share goes only to the winner choice.
    calls = []

    def spy(cells):
        calls.append(cells)
        return beat_control_winner(cells)

    monkeypatch.setattr(simstats, "beat_control_winner", spy)
    space = SearchSpace([3, 6, 2])
    plan = allocate_evolution(50_000, 8, 8)
    _, result = run_once(space, 3, total=50_000)
    served = {tuple(g) for r in result.records for g in r.genomes.tolist()}
    assert len(result.tested) == len(served)
    assert {tuple(g) for g in result.tested.tolist()} == served
    imp, conv, ctrl_imp, ctrl_conv = result.evidence
    assert len(imp) == len(conv) == len(result.tested_ids)
    assert sum(imp) == 50_000
    assert all(c <= n for n, c in zip(imp, conv))
    tested = {tuple(g): i for i, g in enumerate(result.tested.tolist())}
    last = result.records[-1]
    for genome, n, c in zip(last.genomes.tolist(), last.impressions, last.conversions):
        i = tested[tuple(genome)]
        assert imp[i] >= n and conv[i] >= c
    # The run picks no winner; it returns the evidence the winner choice reads.
    assert not calls
    assert ctrl_imp == sum(slots[0] for slots in plan)
    assert 0 <= ctrl_conv <= ctrl_imp


def test_records_log_each_generations_lists():
    # A run keeps one record per generation: the lists the loop had, with
    # the genome rows unravelled from the flat ids only when read.
    space = SearchSpace([3, 6, 2])
    ev, result = run_once(space, 6, total=50_000)
    assert [f.name for f in fields(EvolutionResult)] == [
        "space", "tested_ids", "evidence", "records",
    ]
    assert GenerationRecord._fields == (
        "ids", "impressions", "conversions", "true_crs", "elite_indices", "space",
    )
    for record in result.records:
        assert type(record) is GenerationRecord and record.space == space
        assert all(type(x) is list for x in record[:5])
        assert record.genomes.tolist() == genome_rows(record.ids, space)
        assert record.true_crs == ev.true_crs(record.genomes).tolist()


def test_tested_rows_and_candidates_unravel_the_flat_ids():
    # The tested rows are built on first access from the flat ids, and a
    # winner index names the same genome either way: the landscape at a
    # tested flat id is that row's true rate, and flat id 0 the control's.
    space = SearchSpace([3, 6, 2])
    ev, result = run_once(space, 5, total=50_000)
    assert "tested" not in vars(result)
    expected = genome_rows(result.tested_ids, space)
    assert result.tested.tolist() == expected
    assert result.tested is result.tested
    landscape = ev.table.ravel()
    for i in range(len(result.tested_ids)):
        assert landscape[result.tested_ids[i]] == ev.true_cr(Candidate(result.tested[i]))
    assert landscape[0] == ev.bias


def test_run_evolution_determinism():
    space = SearchSpace([3, 6, 2])
    ev = sample_evaluator(space, LINEAR, seed=4)
    plan = allocate_evolution(50_000, 8, 8)
    cfg = EvolutionConfig()
    r1 = run_evolution(ev, plan, cfg, rng_for(77))
    r2 = run_evolution(ev, plan, cfg, rng_for(77))
    assert own_winner(r1) == own_winner(r2)
    for a, b in zip(r1.records, r2.records):
        assert a.genomes.tolist() == b.genomes.tolist()
        assert a.impressions == b.impressions
        assert a.conversions == b.conversions
        assert a.elite_indices == b.elite_indices


def test_run_evolution_plan_mismatch():
    space = SearchSpace([2, 2])
    ev = sample_evaluator(space, LINEAR, seed=0)
    with pytest.raises(ValueError):
        run_evolution(ev, [[10, 10]] * 7, EvolutionConfig(), rng_for(0))
    with pytest.raises(ValueError):
        run_evolution(ev, [[10, 10, 10]] * 8, EvolutionConfig(), rng_for(0))


def test_high_traffic_winner_near_oracle():
    # At 10^6 impressions on the [3,3,3,3] linear landscape the winner's
    # true rate lands within 0.002 of the optimum in >= 18/20 repetitions.
    space = SearchSpace([3, 3, 3, 3])
    hits = 0
    for rep in range(20):
        ev, result = run_once(space, rep, total=1_000_000)
        _, opt = brute_force_best(ev)
        if opt - ev.true_cr(own_winner(result)[0]) < 0.002:
            hits += 1
    assert hits >= 18


def test_winner_not_worse_than_initial_generation():
    # Non-degradation at scale: the winner beats the best one-gene variant
    # in at least 90% of seeded repetitions.
    space = SearchSpace([3, 3, 3, 3])
    ok = 0
    for rep in range(20):
        ev, result = run_once(space, rep + 500, total=1_000_000)
        best_initial = max(ev.true_crs(init_population(space)))
        if ev.true_cr(own_winner(result)[0]) >= best_initial:
            ok += 1
    assert ok >= 18


def test_ledger_sums_every_generations_draws(monkeypatch):
    # In a crowded space genomes repeat across generations, so the run's
    # ledger adds to existing entries as well as creating new ones.
    draws = []

    def spy(rates, impressions, rng):
        drawn = simulate_conversions(rates, impressions, rng)
        draws.append(drawn)
        return drawn

    monkeypatch.setattr(evolution, "simulate_conversions", spy)
    plan = allocate_evolution(50_003, 8, 8)  # uneven slots
    _, result = run_once(SearchSpace([3, 6, 2]), 3, total=50_003)
    # A dict keeps keys in first-insertion order, the first-tested order.
    reference: dict[int, list[int]] = {}
    for record, slots, drawn in zip(result.records, plan, draws, strict=True):
        # The last draw is the control's.
        for i, n, c in zip(record.ids, slots, drawn[:-1], strict=True):
            sums = reference.setdefault(i, [0, 0])
            sums[0] += n
            sums[1] += c
    assert len(reference) < sum(map(len, plan))
    got = (result.tested_ids, *result.evidence[:2])
    assert all(type(x) is list and all(type(v) is int for v in x) for x in got)
    assert got == (
        list(reference),
        [n for n, _ in reference.values()],
        [c for _, c in reference.values()],
    )
