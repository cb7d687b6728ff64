"""The names the benchmark's tracer (perfbench/tracing.py) looks up in
mvtlab must keep resolving, a traced evolution run must keep working, and
the benchmark's set-up code (SETUP_CODE in perfbench/run.py) must keep
running for every workload: a rename or a changed result shape would
otherwise break the benchmark without failing any other test. The
benchmark's files are imported, never edited."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mvtlab.cli  # the tracer resolves names through sys.modules
from mvtlab import evolution
from mvtlab.evaluator import LINEAR, sample_evaluator
from mvtlab.genome import SearchSpace
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
    space = SearchSpace([2, 2, 2])
    evaluator = sample_evaluator(space, LINEAR, seed=0)
    config = evolution.EvolutionConfig()
    plan = allocate_evolution(10_000, config.generations, 3)
    with tracing.Tracer() as tracer:
        result = evolution.run_evolution(
            evaluator, plan, config, np.random.Generator(np.random.PCG64(0))
        )
    assert tracer.missing == []
    assert tracer.counts["evolution.tested"] == len(result.tested) > 0
    assert tracer.counts["evolution.slots"] == 3 * config.generations
    summary = tracer.summary()
    for name in ("evolution.run_evolution", "evolution.select_elites", "simstats.global_prior"):
        assert summary[name]["calls"] >= 1, name


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
