"""Session-scoped preset sweeps shared by the acceptance criteria and the
golden-output comparison, so each landscape's full sweep runs once per
session."""

from dataclasses import replace

import pytest

from mvtlab.harness import PRESETS, result_series, sweep


def preset_series(preset):
    config = PRESETS[preset]
    return result_series(config, sweep(config))


@pytest.fixture(scope="session")
def setting2_series():
    return preset_series("setting2-linear")


@pytest.fixture(scope="session")
def mixed_nonlinear_series():
    return preset_series("mixed-nonlinear")


@pytest.fixture(scope="session")
def mixed_linear_cells():
    """The cell table of the mixed linear landscape. The mixed-linear and
    during-experiment presets differ only in name and curve, so one sweep
    serves both."""
    mixed, during = PRESETS["mixed-linear"], PRESETS["during-experiment"]
    assert replace(during, name=mixed.name, curve=mixed.curve) == mixed
    return sweep(mixed)


@pytest.fixture(scope="session")
def mixed_linear_series(mixed_linear_cells):
    return result_series(PRESETS["mixed-linear"], mixed_linear_cells)


@pytest.fixture(scope="session")
def during_series(mixed_linear_cells):
    return result_series(PRESETS["during-experiment"], mixed_linear_cells)
