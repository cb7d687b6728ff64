"""The names the benchmark's tracer (perfbench/tracing.py) looks up in
mvtlab must keep resolving, a traced evolution run and a traced sweep must
keep calling every traced entry point, and the benchmark's set-up code (SETUP_CODE in perfbench/run.py) must keep
running for every workload, and a traced benchmark run must end in a
result line: a rename or a changed result shape would otherwise break the
benchmark without failing any other test. The benchmark's files are
imported or run, never edited."""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvtlab.cli  # the tracer resolves names through sys.modules
from mvtlab import evolution, harness, simstats
from mvtlab.evaluator import LINEAR, sample_evaluator
from mvtlab.genome import SearchSpace
from mvtlab.harness import PRESETS
from mvtlab.simstats import allocate_evolution

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py, imported as the module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def test_traced_names_resolve(tracing):
    names = (*tracing.SPAN_NAMES, *tracing.COUNT_NAMES)
    assert [name for name in names if tracing._resolve(name) is None] == []


def test_traced_evolution_run(tracing):
    # A loop that bypassed a traced entry point would zero its layer's
    # metrics without failing the benchmark, so each must see calls.
    space = SearchSpace([2, 2, 2])
    evaluator = sample_evaluator(space, LINEAR, seed=0)
    config = evolution.EvolutionConfig()
    plan = allocate_evolution(10_000, config.generations, 3)
    with tracing.Tracer() as tracer:
        result = evolution.run_evolution(
            evaluator, plan, config, np.random.Generator(np.random.PCG64(0))
        )
        simstats.beat_control_winner([result.evidence])
    assert tracer.missing == []
    assert tracer.counts["evolution.tested"] == len(result.tested) > 0
    assert tracer.counts["evolution.slots"] == 3 * config.generations
    summary = tracer.summary()
    for name in (
        "evolution.run_evolution",
        "evolution.select_elites",
        "evolution.next_generation",
        "simstats.global_prior",
        "simstats.prob_beats_control",
    ):
        assert summary[name]["calls"] >= 1, name


def test_traced_sweep_sees_every_cell(tracing):
    config = replace(PRESETS["setting1-linear"], repetitions=2, traffic=(1_000, 10_000, 100_000))
    with tracing.Tracer() as tracer:
        harness.sweep(config)
    summary = tracer.summary()
    cells = config.repetitions * len(config.traffic)
    assert summary["evolution.run_evolution"]["calls"] == cells
    assert summary["harness.run_evolution_arm"]["calls"] == cells
    # One or two beat-control rounds per repetition, each over all of its
    # cells, never one call per cell.
    calls = summary["simstats.prob_beats_control"]["calls"]
    assert config.repetitions <= calls <= 2 * config.repetitions < cells


def test_setup_code_runs_for_every_workload(tracing, monkeypatch, capsys):
    # run.py imports the tracer by its bare module name.
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    bench = load("run")
    monkeypatch.setattr(sys, "path", list(sys.path))  # SETUP_CODE prepends to it
    for name, workload in bench.WORKLOADS.items():
        monkeypatch.setattr(sys, "argv", ["-c", str(bench.SRC), workload.preset, "7"])
        exec(bench.SETUP_CODE, {})
        seconds, module_file = capsys.readouterr().out.split()
        assert float(seconds) >= 0, name
        assert Path(module_file) == Path(mvtlab.cli.__file__), name


def test_size_selected_forks_have_a_workload_on_each_side(tracing, monkeypatch, tmp_path):
    # Breeding and the binomial draws each take one of two paths by size,
    # and each path stays because it is the faster one on some benchmark
    # workload; a workload set that ran one side only would let the other
    # slow down unseen. Each workload is run as the benchmark runs it, at
    # 2 repetitions, and the sizes each fork sees are recorded.
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    bench = load("run")
    children, draws = set(), set()
    next_generation = evolution.next_generation
    simulate_conversions = simstats.simulate_conversions

    def breed(ids, impressions, conversions, elite_indices, *args):
        children.add(len(ids) - len(elite_indices))
        return next_generation(ids, impressions, conversions, elite_indices, *args)

    def draw(true_cr, impressions, rng):
        draws.add(len(true_cr))
        return simulate_conversions(true_cr, impressions, rng)

    monkeypatch.setattr(evolution, "next_generation", breed)
    for module in (evolution, harness):
        monkeypatch.setattr(module, "simulate_conversions", draw)
    for name, workload in bench.WORKLOADS.items():
        argv = replace(workload, reps=2).argv(7, tmp_path / name)
        assert mvtlab.cli.main(argv) == 0, name
    assert min(children) <= evolution._LIST_CHILDREN < max(children), children
    assert min(draws) <= simstats._SCALAR_DRAWS < max(draws), draws


def test_traced_benchmark_run_ends_in_a_result():
    # A traced name that stops resolving drops its metrics silently, and a
    # non-finite metric prints as NaN, which is not JSON; either leaves a
    # run that exits 0 without a result on its last line.
    root = PERFBENCH.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench_out"
    made_work = not work.exists()
    stem = "mixed-nonlinear-seed990001"
    argv = ["--workload", "mixed-nonlinear", "--seed", "990001", "--seconds", "0.5", "--trace", "1"]
    try:
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "run.py"), *argv],
            capture_output=True, text=True, timeout=300, cwd=root,
        )
    finally:
        shutil.rmtree(work / stem, ignore_errors=True)
        for suffix in ("-trace1.json", "-trace1-spans.json"):
            (work / f"{stem}{suffix}").unlink(missing_ok=True)
        if made_work and work.exists() and not any(work.iterdir()):
            work.rmdir()
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    def finite_only(constant):
        raise ValueError(f"non-finite value {constant} in the result")

    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=finite_only)
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
