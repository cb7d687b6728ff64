"""Elitist evolutionary optimizer tests: structure, operator frequencies,
determinism, and oracle comparisons at high traffic."""

import numpy as np
import pytest

from mvtlab.evaluator import LINEAR, brute_force_best, sample_evaluator
from mvtlab.evolution import (
    EvolutionConfig,
    beat_control_winner,
    GenerationRecord,
    crossover,
    init_population,
    mutate,
    next_generation,
    run_evolution,
    select_elites,
)
from mvtlab.genome import Candidate, SearchSpace, control
from mvtlab.simstats import (
    PBC_TOL,
    CandidateStats,
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


def stats_pop(candidates, stats):
    return [(c, s) for c, s in zip(candidates, stats)]


def test_select_elites_count_and_tie_break():
    space = SearchSpace([2, 4, 5, 3])
    pop = stats_pop(init_population(space), [CandidateStats(100, 5)] * 10)
    prior = global_prior([s for _, s in pop])
    elites = select_elites(pop, 0.20, prior)
    assert elites == [0, 1]  # all tied -> earliest indices


def test_select_elites_dominant_candidate_first():
    space = SearchSpace([3, 3])
    cands = init_population(space)
    stats = [CandidateStats(100, 0)] * 3 + [CandidateStats(100, 100)]
    pop = stats_pop(cands, stats)
    prior = global_prior(stats)
    assert select_elites(pop, 0.25, prior)[0] == 3


def test_select_elites_requires_impressions():
    pop = [(Candidate([1]), CandidateStats())]
    with pytest.raises(ValueError):
        select_elites(pop, 0.5, global_prior([CandidateStats(10, 1)]))
    with pytest.raises(ValueError):
        select_elites([], 0.5, global_prior([CandidateStats(10, 1)]))


def test_select_elites_deduplicates_genomes():
    dup = Candidate([1, 0])
    pop = [
        (dup, CandidateStats(100, 50)),
        (dup, CandidateStats(100, 50)),
        (Candidate([0, 1]), CandidateStats(100, 10)),
        (Candidate([1, 1]), CandidateStats(100, 5)),
    ]
    prior = global_prior([s for _, s in pop])
    assert select_elites(pop, 0.5, prior) == [0, 2]


def test_crossover_closure_and_gene_pool():
    rng = rng_for(0)
    a, b = Candidate([0, 1, 2, 0]), Candidate([2, 1, 0, 1])
    assert crossover(a, a, rng) == a
    for _ in range(50):
        child = crossover(a, b, rng)
        assert all(g in (x, y) for g, x, y in zip(child.choices, a.choices, b.choices))
    with pytest.raises(ValueError):
        crossover(a, Candidate([0, 1]), rng)


def test_crossover_frequency():
    rng = rng_for(314)
    a, b = Candidate([0, 0, 0, 0]), Candidate([1, 1, 1, 1])
    from_a = 0
    trials = 10_000
    for _ in range(trials):
        from_a += sum(g == 0 for g in crossover(a, b, rng).choices)
    freq = from_a / (4 * trials)
    assert abs(freq - 0.5) < 0.02


def test_mutate_edges():
    space = SearchSpace([2, 2, 2])
    rng = rng_for(1)
    c = Candidate([0, 0, 0])
    assert mutate(c, 0.0, space, rng) == c
    assert mutate(c, 1.0, space, rng) == Candidate([1, 1, 1])


def test_mutate_always_changes_hit_gene():
    space = SearchSpace([5])
    rng = rng_for(2)
    for _ in range(200):
        out = mutate(Candidate([3]), 1.0, space, rng)
        assert out.choices[0] != 3
        assert 0 <= out.choices[0] < 5


def test_mutation_frequency():
    space = SearchSpace([4] * 10)
    rng = rng_for(2718)
    c = Candidate([0] * 10)
    flips = 0
    trials = 100_000  # 10^6 gene draws total
    for _ in range(trials):
        flips += sum(g != 0 for g in mutate(c, 0.01, space, rng).choices)
    freq = flips / (10 * trials)
    assert abs(freq - 0.01) < 0.001


def test_next_generation_structure():
    space = SearchSpace([2, 4, 5, 3])
    cands = init_population(space)
    stats = [CandidateStats(100, i) for i in range(10)]
    record = GenerationRecord(index=0, population=stats_pop(cands, stats))
    rng = rng_for(5)
    new_pop = next_generation(record, EvolutionConfig(), space, rng)
    assert len(new_pop) == 10
    # Elites (the two highest conversion counts: indices 9 and 8) pass
    # through unchanged with their accumulated stats.
    assert new_pop[0] == (cands[9], stats[9])
    assert new_pop[1] == (cands[8], stats[8])
    for cand, fresh in new_pop[2:]:
        cand.validate(space)
        assert fresh == CandidateStats()


def test_next_generation_single_elite_no_mutation():
    space = SearchSpace([2, 2])
    elite = Candidate([1, 1])
    pop = [
        (elite, CandidateStats(100, 90)),
        (Candidate([0, 1]), CandidateStats(100, 1)),
        (Candidate([1, 0]), CandidateStats(100, 1)),
    ]
    record = GenerationRecord(index=0, population=pop)
    cfg = EvolutionConfig(mutation_rate=0.0)
    new_pop = next_generation(record, cfg, space, rng_for(3))
    assert new_pop[0][0] == elite
    # Crossover of the lone elite with itself reproduces it; duplicates are
    # pushed to untested neighbors, so children differ from the elite.
    children = [c.choices for c, _ in new_pop[1:]]
    assert elite.choices not in children
    assert len(set(children)) == len(children)


def run_once(space, seed, total=100_000, cfg=None):
    cfg = cfg or EvolutionConfig()
    ev = sample_evaluator(space, LINEAR, seed=seed)
    pop = sum(k - 1 for k in space.cardinalities)
    plan = allocate_evolution(total, cfg.generations, pop)
    return ev, run_evolution(space, ev, plan, cfg, rng_for(seed + 1000))


def test_run_evolution_structure():
    space = SearchSpace([3, 3, 3, 3])
    _, result = run_once(space, 0)
    assert len(result.records) == 8
    for record in result.records:
        assert len(record.population) == 8
        for cand, stats in record.population:
            cand.validate(space)
            assert stats.impressions > 0
    # elites of generation g appear unchanged in generation g+1
    for prev, nxt in zip(result.records, result.records[1:]):
        elites = [prev.population[i][0] for i in prev.elite_indices]
        carried = [c for c, _ in nxt.population[: len(elites)]]
        assert carried == elites


def test_run_evolution_determinism():
    space = SearchSpace([3, 6, 2])
    ev = sample_evaluator(space, LINEAR, seed=4)
    plan = allocate_evolution(50_000, 8, 8)
    cfg = EvolutionConfig()
    r1 = run_evolution(space, ev, plan, cfg, rng_for(77))
    r2 = run_evolution(space, ev, plan, cfg, rng_for(77))
    assert r1.winner == r2.winner
    assert r1.winner_pbc == r2.winner_pbc
    for a, b in zip(r1.records, r2.records):
        assert a.population == b.population
        assert a.elite_indices == b.elite_indices


def test_run_evolution_plan_mismatch():
    space = SearchSpace([2, 2])
    ev = sample_evaluator(space, LINEAR, seed=0)
    with pytest.raises(ValueError):
        run_evolution(space, ev, [[10, 10]] * 7, EvolutionConfig(), rng_for(0))
    with pytest.raises(ValueError):
        run_evolution(space, ev, [[10, 10, 10]] * 8, EvolutionConfig(), rng_for(0))


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
        best_initial = max(ev.true_cr(c) for c in init_population(space))
        if ev.true_cr(result.winner) >= best_initial:
            ok += 1
    assert ok >= 18


def test_winner_near_one_ranked_by_posterior_mean():
    # Both candidates beat the control almost surely. The heavily tested one
    # has the higher PBC, by less than half a PBC_TOL step; the lightly
    # tested one has the higher posterior mean and must win.
    ctrl_stats = CandidateStats(100_000, 5_000)
    sure, better = CandidateStats(1_000_000, 60_000), CandidateStats(5_000, 334)
    tested = {(1, 0): sure, (0, 1): better}
    prior = global_prior([sure, better, ctrl_stats])
    ctrl_post = posterior(ctrl_stats, prior)
    pbc_sure = prob_beats_control(posterior(sure, prior), ctrl_post)
    pbc_better = prob_beats_control(posterior(better, prior), ctrl_post)
    assert 0 < pbc_sure - pbc_better < PBC_TOL / 2
    assert posterior(better, prior).mean > posterior(sure, prior).mean

    winner, winner_pbc = beat_control_winner(
        tested, control(SearchSpace([2, 2])), ctrl_stats
    )
    assert winner == Candidate((0, 1))
    assert winner_pbc == pbc_better  # reported unrounded


def test_winner_defaults_to_control():
    ctrl = control(SearchSpace([2, 2]))
    tested = {(1, 0): CandidateStats(10_000, 300)}
    winner, winner_pbc = beat_control_winner(tested, ctrl, CandidateStats(10_000, 600))
    assert (winner, winner_pbc) == (ctrl, 0.5)
