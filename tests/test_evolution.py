"""Elitist evolutionary optimizer tests: structure, operator frequencies,
determinism, and oracle comparisons at high traffic."""

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvtlab import evolution
from mvtlab.evaluator import LINEAR, brute_force_best, sample_evaluator
from mvtlab.evolution import (
    EvolutionConfig,
    beat_control_winner,
    crossover,
    init_population,
    mutate,
    next_generation,
    parent_pair,
    run_evolution,
    select_elites,
    tally,
    undominated,
)
from mvtlab.genome import Candidate, SearchSpace
from mvtlab.harness import PRESETS
from mvtlab.simstats import (
    PBC_TOL,
    BetaPosterior,
    allocate_evolution,
    global_prior,
    posterior,
    prob_beats_control,
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


def counts(pairs):
    """(impressions, conversions) int arrays from (impressions, conversions) pairs."""
    imp, conv = zip(*pairs)
    return np.array(imp), np.array(conv)


def flat_ids(genomes, space):
    """Each genome row's flat index into the space's landscape tensor."""
    return np.ravel_multi_index(tuple(np.asarray(genomes).T), space.cardinalities)


def test_select_elites_count_and_tie_break():
    space = SearchSpace([2, 4, 5, 3])
    ids = flat_ids(init_population(space), space)
    imp, conv = counts([(100, 5)] * 10)
    prior = global_prior(1000, 50)
    elites = select_elites(ids, imp, conv, 0.20, prior)
    assert elites == [0, 1]  # all tied -> earliest indices


def test_select_elites_dominant_candidate_first():
    space = SearchSpace([3, 3])
    ids = flat_ids(init_population(space), space)
    imp, conv = counts([(100, 0)] * 3 + [(100, 100)])
    prior = global_prior(400, 100)
    assert select_elites(ids, imp, conv, 0.25, prior)[0] == 3


def test_select_elites_requires_impressions():
    prior = global_prior(10, 1)
    with pytest.raises(ValueError):
        select_elites(np.array([1]), np.array([0]), np.array([0]), 0.5, prior)
    empty = np.zeros(0, dtype=int)
    with pytest.raises(ValueError):
        select_elites(empty, empty, empty, 0.5, prior)


def test_select_elites_deduplicates_genomes():
    ids = flat_ids([[1, 0], [1, 0], [0, 1], [1, 1]], SearchSpace([2, 2]))
    imp, conv = counts([(100, 50), (100, 50), (100, 10), (100, 5)])
    prior = global_prior(400, 115)
    assert select_elites(ids, imp, conv, 0.5, prior) == [0, 2]


def test_select_elites_matches_posterior_mean_sort():
    # The array ranking is the per-candidate posterior mean sort, ties
    # toward the earlier index, on exactly the same float arithmetic.
    rng = rng_for(9)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        imp = rng.integers(1, 10**6, size=n)
        conv = rng.binomial(imp, 0.05)
        ids = np.arange(n)  # all distinct
        prior = global_prior(int(imp.sum()), int(conv.sum()))

        def mean(i):
            return BetaPosterior(*posterior(prior, int(imp[i]), int(conv[i]))).mean

        expected = sorted(range(n), key=lambda i: (-mean(i), i))
        got = select_elites(ids, imp, conv, 0.999, prior)
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
    c = [0] * 10
    flips = 0
    trials = 100_000  # 10^6 gene draws total
    for _ in range(trials):
        flips += sum(g != 0 for g in mutate(c, 0.01, space, rng.random(10)))
    freq = flips / (10 * trials)
    assert abs(freq - 0.01) < 0.001


def test_next_generation_structure():
    space = SearchSpace([2, 4, 5, 3])
    genomes = init_population(space)
    imp, conv = counts([(100, i) for i in range(10)])
    prior = global_prior(1000, 45)
    ids = flat_ids(genomes, space)
    elite_idx = select_elites(ids, imp, conv, EvolutionConfig().elite_fraction, prior)
    rng = rng_for(5)
    new_genomes, new_imp, new_conv = next_generation(
        genomes, imp, conv, elite_idx, EvolutionConfig(), space, rng
    )
    assert len(new_genomes) == len(new_imp) == len(new_conv) == 10
    # Elites (the two highest conversion counts: indices 9 and 8) pass
    # through unchanged with their accumulated stats.
    assert new_genomes[0].tolist() == genomes[9].tolist()
    assert new_genomes[1].tolist() == genomes[8].tolist()
    assert (new_imp[0], new_conv[0]) == (100, 9)
    assert (new_imp[1], new_conv[1]) == (100, 8)
    for genome, n, c in zip(new_genomes[2:], new_imp[2:], new_conv[2:]):
        Candidate(genome).validate(space)
        assert (n, c) == (0, 0)


def test_next_generation_requires_elites():
    space = SearchSpace([2, 2])
    genomes = init_population(space)
    imp, conv = counts([(100, 1), (100, 2)])
    with pytest.raises(ValueError):
        next_generation(genomes, imp, conv, [], EvolutionConfig(), space, rng_for(0))


def test_next_generation_single_elite_no_mutation():
    space = SearchSpace([2, 2])
    genomes = np.array([[1, 1], [0, 1], [1, 0]])
    imp, conv = counts([(100, 90), (100, 1), (100, 1)])
    cfg = EvolutionConfig(mutation_rate=0.0)
    new_genomes, _, _ = next_generation(genomes, imp, conv, [0], cfg, space, rng_for(3))
    assert new_genomes[0].tolist() == [1, 1]
    # Crossover of the lone elite with itself reproduces it; a duplicate is
    # nudged until it differs from every genome in the generation.
    children = [tuple(g) for g in new_genomes[1:].tolist()]
    assert (1, 1) not in children
    assert len(set(children)) == len(children)


def test_parent_pair_frequency():
    # Every ordered pair of distinct elites at 1/(e(e-1)), within five
    # standard errors, from the uniforms breeding feeds it; never a self-pair.
    rng = rng_for(1618)
    trials = 60_000
    assert {parent_pair(u, w, 1) for u, w in rng.random((100, 2)).tolist()} == {(0, 0)}
    for e in (2, 3, 5):
        pairs = Counter(parent_pair(u, w, e) for u, w in rng.random((trials, 2)).tolist())
        assert all(i != j for i, j in pairs)
        p = 1 / (e * (e - 1))
        tol = 5 * (p * (1 - p) / trials) ** 0.5
        for i, j in itertools.permutations(range(e), 2):
            assert abs(pairs[(i, j)] / trials - p) < tol, (e, i, j)


@st.composite
def breeding_cases(draw, distinct=True):
    """(space, genomes, elite indices, mutation rate, seed). Genomes that
    need not be distinct may outnumber the space's cells, so nudges can
    run out."""
    space = SearchSpace(draw(st.lists(st.integers(2, 6), min_size=1, max_size=6)))
    n_cells = space.total_combinations
    ids = draw(st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=25, unique=distinct))
    genomes = np.transpose(np.unravel_index(ids, space.cardinalities)).reshape(len(ids), -1)
    elites = draw(st.lists(st.sampled_from(range(len(ids))), min_size=1, unique=True))
    rate = draw(st.sampled_from([0.0, 0.01, 1.0]))
    return space, genomes, elites, rate, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(breeding_cases())
def test_next_generation_property(case):
    space, genomes, elites, rate, seed = case
    imp = np.arange(len(genomes)) + 10
    conv = np.arange(len(genomes))
    calls = []

    def spy(a, b, uniforms):
        calls.append((a, b, crossover(a, b, uniforms)))
        return calls[-1][2]

    with mock.patch.object(evolution, "crossover", spy):
        new, new_imp, new_conv = next_generation(
            genomes, imp, conv, elites, EvolutionConfig(mutation_rate=rate), space, rng_for(seed)
        )
    e = len(elites)
    assert new.shape == genomes.shape
    assert new[:e].tolist() == genomes[elites].tolist()
    assert new_imp[:e].tolist() == imp[elites].tolist()
    assert new_conv[:e].tolist() == conv[elites].tolist()
    assert not new_imp[e:].any() and not new_conv[e:].any()
    assert ((new >= 0) & (new < np.array(space.cardinalities))).all()
    elite_rows = genomes[elites].tolist()
    # One crossover call breeds the whole child block, one row per child.
    [(parents_a, parents_b, crossed)] = calls
    assert len(crossed) == len(genomes) - e
    rows = new.tolist()
    children = zip(parents_a.tolist(), parents_b.tolist(), crossed.tolist())
    for n, (a, b, bred) in enumerate(children, start=e):
        assert a in elite_rows and b in elite_rows and (a != b or e == 1)
        if rate == 0.0:
            # A child differs from its crossover only when the crossover
            # duplicated a genome already in the generation and was nudged.
            assert rows[n] == bred or bred in rows[:n]
            assert all(g in (x, y) for g, x, y in zip(bred, a, b))


MIXED = PRESETS["mixed-nonlinear"].space


def reference_next_generation(genomes, impressions, conversions, elite_indices, rate, space, rng):
    """Breeding one child at a time from the same uniform block: parent pair,
    crossover, mutation, then dedupe nudges, all on Python ints."""

    def other_value(value, k, u):
        alt = int(u * (k - 1))
        return alt if alt < value else alt + 1

    cards = space.cardinalities
    n_vars = len(cards)
    strides = [math.prod(cards[i + 1 :]) for i in range(n_vars)]
    elites = genomes[elite_indices].tolist()
    e = len(elites)
    rows = [list(row) for row in elites]
    seen = {sum(g * s for g, s in zip(row, strides)) for row in rows}
    for row in rng.random((len(genomes) - e, 2 * n_vars + 4)).tolist():
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
    new_imp, new_conv = np.zeros_like(impressions), np.zeros_like(conversions)
    new_imp[:e] = impressions[elite_indices]
    new_conv[:e] = conversions[elite_indices]
    return np.array(rows).reshape(genomes.shape), new_imp, new_conv


@pytest.mark.filterwarnings("error")  # a mutation rate of 0 must not divide by it
@settings(max_examples=200, deadline=None)
@given(st.one_of(breeding_cases(), breeding_cases(distinct=False)))
@example((SearchSpace([2, 2]), np.array([[0, 0]] * 6), [0], 0.0, 7))
@example((MIXED, init_population(MIXED), [3, 0, 9, 21, 4], 0.01, 11))
def test_next_generation_equals_per_child_reference(case):
    space, genomes, elites, rate, seed = case
    imp = np.arange(len(genomes)) + 10
    conv = np.arange(len(genomes))
    config = EvolutionConfig(mutation_rate=rate)
    rng, ref_rng = rng_for(seed), rng_for(seed)
    got = next_generation(genomes, imp, conv, elites, config, space, rng)
    expected = reference_next_generation(genomes, imp, conv, elites, rate, space, ref_rng)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_next_generation_rows_distinct_on_preset_spaces(preset):
    space = PRESETS[preset].space
    cfg = EvolutionConfig()
    genomes = init_population(space)
    imp, conv = np.ones(len(genomes), dtype=int), np.zeros(len(genomes), dtype=int)
    n_elites = math.ceil(cfg.elite_fraction * len(genomes))
    rng = rng_for(42)
    for _ in range(200):
        elites = rng.permutation(len(genomes))[:n_elites].tolist()
        genomes, imp, conv = next_generation(genomes, imp, conv, elites, cfg, space, rng)
        assert len({tuple(g) for g in genomes.tolist()}) == len(genomes)


def run_once(space, seed, total=100_000, cfg=None):
    cfg = cfg or EvolutionConfig()
    ev = sample_evaluator(space, LINEAR, seed=seed)
    pop = sum(k - 1 for k in space.cardinalities)
    plan = allocate_evolution(total, cfg.generations, pop)
    return ev, run_evolution(ev, plan, cfg, rng_for(seed + 1000))


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
        assert (nxt.impressions[:k] > prev.impressions[prev.elite_indices]).all()
        assert (nxt.conversions[:k] >= prev.conversions[prev.elite_indices]).all()


def test_run_evolution_tested_totals_match_plan(monkeypatch):
    # The tested set is every distinct genome served, and its counts are
    # every slot's; the control's own share goes only to the winner choice.
    calls = []

    def spy(*args):
        calls.append(args)
        return beat_control_winner(*args)

    monkeypatch.setattr(evolution, "beat_control_winner", spy)
    space = SearchSpace([3, 6, 2])
    plan = allocate_evolution(50_000, 8, 8)
    _, result = run_once(space, 3, total=50_000)
    served = {tuple(g) for r in result.records for g in r.genomes.tolist()}
    assert len(result.tested) == len(served)
    assert {tuple(g) for g in result.tested.tolist()} == served
    assert result.tested_impressions.sum() == 50_000
    assert (result.tested_conversions <= result.tested_impressions).all()
    tested = {tuple(g): i for i, g in enumerate(result.tested.tolist())}
    last = result.records[-1]
    for genome, n, c in zip(last.genomes.tolist(), last.impressions, last.conversions):
        i = tested[tuple(genome)]
        assert result.tested_impressions[i] >= n and result.tested_conversions[i] >= c
    [(imp, conv, ctrl_imp, ctrl_conv)] = calls
    assert imp is result.tested_impressions and conv is result.tested_conversions
    assert ctrl_imp == sum(slots[0] for slots in plan)
    assert 0 <= ctrl_conv <= ctrl_imp


def test_run_evolution_determinism():
    space = SearchSpace([3, 6, 2])
    ev = sample_evaluator(space, LINEAR, seed=4)
    plan = allocate_evolution(50_000, 8, 8)
    cfg = EvolutionConfig()
    r1 = run_evolution(ev, plan, cfg, rng_for(77))
    r2 = run_evolution(ev, plan, cfg, rng_for(77))
    assert r1.winner == r2.winner
    assert r1.winner_pbc == r2.winner_pbc
    for a, b in zip(r1.records, r2.records):
        assert a.genomes.tolist() == b.genomes.tolist()
        assert a.impressions.tolist() == b.impressions.tolist()
        assert a.conversions.tolist() == b.conversions.tolist()
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
        if opt - ev.true_cr(result.winner) < 0.002:
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
        if ev.true_cr(result.winner) >= best_initial:
            ok += 1
    assert ok >= 18


def test_winner_near_one_ranked_by_posterior_mean():
    # Both candidates beat the control almost surely. The heavily tested one
    # has the higher PBC, by less than half a PBC_TOL step; the lightly
    # tested one has the higher posterior mean and must win.
    ctrl_imp, ctrl_conv = 100_000, 5_000
    imp, conv = counts([(1_000_000, 60_000), (5_000, 334)])  # sure, better
    prior = global_prior(int(imp.sum()) + ctrl_imp, int(conv.sum()) + ctrl_conv)
    ctrl_post = BetaPosterior(*posterior(prior, ctrl_imp, ctrl_conv))
    sure, better = (BetaPosterior(a, b) for a, b in zip(*posterior(prior, imp, conv)))
    pbc_sure = prob_beats_control(sure, ctrl_post)
    pbc_better = prob_beats_control(better, ctrl_post)
    assert 0 < pbc_sure - pbc_better < PBC_TOL / 2
    assert better.mean > sure.mean

    winner, winner_pbc = beat_control_winner(imp, conv, ctrl_imp, ctrl_conv)
    assert winner == 1
    assert winner_pbc == pbc_better  # reported unrounded


def test_winner_defaults_to_control():
    imp, conv = counts([(10_000, 300)])
    winner, winner_pbc = beat_control_winner(imp, conv, 10_000, 600)
    assert (winner, winner_pbc) == (None, 0.5)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30))
def test_undominated_equals_dominance_definition(pairs):
    conv = [c for c, _ in pairs]
    fail = [f for _, f in pairs]

    def dominated(i):
        return any(
            conv[j] >= conv[i] and fail[j] <= fail[i] and pairs[j] != pairs[i]
            for j in range(len(pairs))
        )

    assert undominated(conv, fail) == [i for i in range(len(pairs)) if not dominated(i)]


def full_winner(imp, conv, ctrl_imp, ctrl_conv):
    """beat_control_winner's key over every tested genome, with no pruning."""
    prior = global_prior(int(imp.sum()) + ctrl_imp, int(conv.sum()) + ctrl_conv)
    ctrl_post = BetaPosterior(*posterior(prior, ctrl_imp, ctrl_conv))
    posts = [BetaPosterior(*posterior(prior, n, c)) for n, c in zip(imp.tolist(), conv.tolist())]
    alphas, betas = [p.alpha for p in posts], [p.beta for p in posts]
    pbcs = [0.5, *prob_beats_control((alphas, betas), ctrl_post).tolist()]
    means = [ctrl_post.mean, *(p.mean for p in posts)]
    best = max(range(len(pbcs)), key=lambda i: (round(pbcs[i] / PBC_TOL), means[i]))
    return (best - 1 if best else None), pbcs[best]


count_pairs = st.integers(10, 1_000_000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, int(0.3 * n)))
)


def case(pairs, ctrl_pair):
    """(impressions, conversions, control impressions, control conversions)."""
    return (*counts(pairs), *ctrl_pair)


@st.composite
def winner_cases(draw):
    # Genomes draw their counts from a small pool, so exact-count ties (and
    # so identical posteriors) are common.
    pool = draw(st.lists(count_pairs, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return case(picks, draw(count_pairs))


@settings(max_examples=150, deadline=None)
@given(winner_cases())
@example(case([(1_000, 30)], (1_000, 50)))
@example(case([(441_053, 0)] * 3, (10, 0)))
@example(case([(1_529, 1)], (10, 1)))
@example(case([(1_000, 10), (2_000, 30)], (8_000, 400)))  # all dominated by the control
@example(  # planted exact ties, also with the strongest genome
    case([(5_000, 240), (5_000, 250), (5_000, 250), (5_000, 250)], (5_000, 200))
)
def test_pruned_winner_equals_full_computation(case):
    assert beat_control_winner(*case) == full_winner(*case)


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 10**6), st.integers(0, 10**6)),
        max_size=40,
    )
)
def test_tally_equals_dict_reference(stream):
    # A dict keeps keys in first-insertion order, the first-tested order.
    reference: dict[int, list[int]] = {}
    for genome, n, c in stream:
        sums = reference.setdefault(genome, [0, 0])
        sums[0] += n
        sums[1] += c
    ids, imp, conv = (np.array([row[k] for row in stream], dtype=np.int64) for k in range(3))
    got_ids, got_imp, got_conv = tally(ids, imp, conv)
    assert got_ids.tolist() == list(reference)
    assert got_imp.tolist() == [n for n, _ in reference.values()]
    assert got_conv.tolist() == [c for _, c in reference.values()]
