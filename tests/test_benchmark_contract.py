"""The names the benchmark's tracer (perfbench/tracing.py) looks up in
mvtlab must keep resolving, and a traced evolution run must keep working:
a rename or a changed result shape would otherwise break the benchmark's
traced runs without failing any other test. The tracer is imported, never
edited."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mvtlab.cli  # noqa: F401  (the tracer resolves names through sys.modules)
from mvtlab import evolution
from mvtlab.evaluator import LINEAR, sample_evaluator
from mvtlab.genome import SearchSpace
from mvtlab.simstats import allocate_evolution

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
