"""Session-scoped preset series shared by the acceptance criteria and the
golden-output comparison, so each full preset sweep runs once per session."""

import pytest

from mvtlab.harness import PRESETS, run_comparison, run_during_experiment_curve


@pytest.fixture(scope="session")
def setting2_series():
    return run_comparison(PRESETS["setting2-linear"])


@pytest.fixture(scope="session")
def mixed_linear_series():
    return run_comparison(PRESETS["mixed-linear"])


@pytest.fixture(scope="session")
def mixed_nonlinear_series():
    return run_comparison(PRESETS["mixed-nonlinear"])


@pytest.fixture(scope="session")
def during_series():
    return run_during_experiment_curve(PRESETS["during-experiment"])
