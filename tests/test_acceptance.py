"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The curve criteria (4-7) run the full bundled presets (20 repetitions over
the default traffic sweep) through the session fixtures in conftest.py;
everything is seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

from mvtlab.evaluator import LINEAR, brute_force_best, sample_evaluator
from mvtlab.evolution import EvolutionConfig, init_population, run_evolution
from mvtlab.genome import SearchSpace
from mvtlab.harness import PRESETS, run_experiment
from mvtlab.simstats import (
    BetaPosterior,
    allocate_evolution,
    prob_beats_control,
    simulate_conversions,
)
from mvtlab.taguchi import load_bundled_array, main_effect, predict_best, validate
from mvtlab import evolution as evolution_mod


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")


def points(series, method):
    return dict(zip(series.traffic, series.points[method]))


def test_criterion_1_orthogonality_suite():
    start = time.perf_counter()
    failures = []
    for name in ("oa4_2x3", "oa9_3x4", "oa16_4x5", "oa36_mixed"):
        report_ = validate(load_bundled_array(name))
        if not report_.valid:
            failures.append(name)
    nine = load_bundled_array("oa9_3x4")
    scores = list(range(1, 10))
    worked = (
        main_effect(nine, scores, 2, 2) == pytest.approx((2 + 4 + 9) / 3)
        and main_effect(nine, scores, 2, 1) == pytest.approx((3 + 5 + 7) / 3)
    )
    elapsed = time.perf_counter() - start
    ok = not failures and worked and elapsed < 1.0
    report("criterion 1 (orthogonality suite)", ok, f"{elapsed:.2f}s")
    assert ok, (failures, worked, elapsed)


def test_criterion_2_noiseless_linear_exactness():
    start = time.perf_counter()
    nine = load_bundled_array("oa9_3x4")
    space = SearchSpace([3, 3, 3, 3])
    exact = 0
    for seed in range(100):
        ev = sample_evaluator(space, LINEAR, seed=seed)
        scores = [ev.true_cr(nine.row_candidate(r)) for r in range(9)]
        oracle, _ = brute_force_best(ev)
        exact += predict_best(nine, scores) == oracle
    elapsed = time.perf_counter() - start
    ok = exact == 100 and elapsed < 5.0
    report("criterion 2 (noiseless-linear exactness)", ok, f"{exact}/100, {elapsed:.2f}s")
    assert ok, (exact, elapsed)


def test_criterion_3_pbc_numerics():
    same = BetaPosterior(7.0, 13.0)
    identical_ok = abs(prob_beats_control(same, same) - 0.5) < 1e-6
    closed_form_ok = abs(
        prob_beats_control(BetaPosterior(2, 1), BetaPosterior(1, 2)) - 5 / 6
    ) < 1e-6
    grid = [(0.5, 0.5), (1, 1), (2, 5), (5, 2), (10, 90), (90, 10), (3, 3),
            (0.5, 4), (7, 1), (50, 50)]
    complement_ok = True
    for pa in grid:
        for pb in grid:
            a, b = BetaPosterior(*pa), BetaPosterior(*pb)
            total = prob_beats_control(a, b) + prob_beats_control(b, a)
            if abs(total - 1.0) >= 2e-6:
                complement_ok = False
    ok = identical_ok and closed_form_ok and complement_ok
    report("criterion 3 (PBC numerics)", ok)
    assert ok, (identical_ok, closed_form_ok, complement_ok)


def test_criterion_4_setting2_curve(setting2_series):
    evo = points(setting2_series, "evolution")
    pred = points(setting2_series, "taguchi-predict")
    cand = points(setting2_series, "taguchi-candidate")

    e_mean, e_lo, _ = evo[10_000]
    p_mean, _, p_hi = pred[10_000]
    clause_a = e_mean > p_mean and e_lo > p_hi
    high = [t for t in setting2_series.traffic if t >= 1_000_000]
    clause_b = all(abs(evo[t][0] - pred[t][0]) < 0.002 for t in high)
    clause_c = all(cand[t][0] < pred[t][0] for t in setting2_series.traffic)
    ok = clause_a and clause_b and clause_c
    report(
        "criterion 4 (setting2 curve)",
        ok,
        f"10^4 separation={clause_a}, >=10^6 closeness={clause_b}, "
        f"candidate<predict={clause_c}",
    )
    assert ok, (clause_a, clause_b, clause_c)


def test_criterion_5_mixed_linear_curve(mixed_linear_series):
    evo = points(mixed_linear_series, "evolution")
    pred = points(mixed_linear_series, "taguchi-predict")
    below = [t for t in mixed_linear_series.traffic if t < 5_000_000]
    dominance = all(evo[t][0] > pred[t][0] for t in below)
    separation = evo[100_000][1] > pred[100_000][2]
    ok = dominance and separation
    report(
        "criterion 5 (mixed-linear curve)",
        ok,
        f"dominance<5e6={dominance}, separation@1e5={separation}",
    )
    assert ok, (dominance, separation)


def test_criterion_6_mixed_nonlinear_curve(mixed_nonlinear_series):
    evo = points(mixed_nonlinear_series, "evolution")
    pred = points(mixed_nonlinear_series, "taguchi-predict")
    cand = points(mixed_nonlinear_series, "taguchi-candidate")
    overlap = all(
        pred[t][1] <= cand[t][2] and cand[t][1] <= pred[t][2]
        for t in mixed_nonlinear_series.traffic
    )
    dominance = all(evo[t][0] > pred[t][0] for t in mixed_nonlinear_series.traffic)
    ok = overlap and dominance
    report(
        "criterion 6 (mixed-nonlinear curve)",
        ok,
        f"predict/candidate overlap={overlap}, evolution dominance={dominance}",
    )
    assert ok, (overlap, dominance)


def test_criterion_7_during_experiment_curve(during_series, mixed_linear_cells):
    taguchi_means = [p[0] for p in during_series.points["taguchi"]]
    taguchi_flat = max(taguchi_means) - min(taguchi_means) < 0.002

    # Per repetition, the served average at the last traffic level against
    # the first, from the sweep the during-experiment series is built from.
    served = mixed_linear_cells["evolution_served"]
    rising = int(np.sum(served[:, -1] > served[:, 0]))
    ok = rising >= 18 and taguchi_flat
    report(
        "criterion 7 (during-experiment curve)",
        ok,
        f"rising reps={rising}/{len(served)}, taguchi flat={taguchi_flat}",
    )
    assert ok, (rising, taguchi_flat)


def test_criterion_8_determinism(tmp_path):
    from dataclasses import replace

    cfg = replace(PRESETS["setting1-linear"], out_dir=str(tmp_path / "a"))
    first = run_experiment(cfg)["csv"].read_bytes()
    second = run_experiment(replace(cfg, out_dir=str(tmp_path / "b")))["csv"].read_bytes()
    ok = first == second
    report("criterion 8 (byte-identical rerun)", ok)
    assert ok


def test_criterion_9_evolution_structural_suite():
    space = SearchSpace([3, 6, 2, 3, 6, 2, 2, 6])
    pop_size = sum(k - 1 for k in space.cardinalities)
    ev = sample_evaluator(space, LINEAR, seed=3)
    cfg = EvolutionConfig()
    plan = allocate_evolution(200_000, cfg.generations, pop_size)
    rng = np.random.Generator(np.random.PCG64(12))
    result = run_evolution(ev, plan, cfg, rng)

    eight_gens = len(result.records) == cfg.generations == 8
    constant_pop = all(len(r.genomes) == pop_size for r in result.records)
    elites_persist = all(
        prev.genomes[prev.elite_indices].tolist()
        == nxt.genomes[: len(prev.elite_indices)].tolist()
        for prev, nxt in zip(result.records, result.records[1:])
    )

    # sampled-frequency checks at the stated tolerances
    freq_rng = np.random.Generator(np.random.PCG64(314))
    a, b = [0, 0, 0, 0], [1, 1, 1, 1]
    from_a = sum(
        g == 0
        for _ in range(10_000)
        for g in evolution_mod.crossover(a, b, freq_rng.random(4))
    )
    crossover_ok = abs(from_a / 40_000 - 0.5) < 0.02

    mut_rng = np.random.Generator(np.random.PCG64(2718))
    wide = SearchSpace([4] * 10)
    base = [0] * 10
    flips = sum(
        g != 0
        for _ in range(100_000)
        for g in evolution_mod.mutate(base, 0.01, wide, mut_rng.random(10))
    )
    mutation_ok = abs(flips / 1_000_000 - 0.01) < 0.001

    binom_rng = np.random.Generator(np.random.PCG64(99))
    draws = [simulate_conversions(0.05, 10**6, binom_rng) / 10**6 for _ in range(1000)]
    binomial_ok = abs(float(np.mean(draws)) - 0.05) < 0.0005

    ok = (eight_gens and constant_pop and elites_persist and crossover_ok
          and mutation_ok and binomial_ok)
    report(
        "criterion 9 (evolution structural suite)",
        ok,
        f"8 gens={eight_gens}, constant pop={constant_pop}, "
        f"elites persist={elites_persist}, crossover={crossover_ok}, "
        f"mutation={mutation_ok}, binomial={binomial_ok}",
    )
    assert ok
