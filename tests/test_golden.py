"""Golden outputs: every bundled preset at its default settings must write
the checked-in CSV byte for byte.

After a deliberate behaviour change, regenerate a golden with
`PYTHONPATH=src python -m mvtlab.cli run <preset> --out DIR` from a source
checkout (or `python -m mvtlab.cli run <preset> --out DIR` after
`pip install -e .`), copy DIR/<preset>.csv into tests/golden/, and explain
the diff in CHANGES.md.
"""

from pathlib import Path

import pytest

from mvtlab.harness import PRESETS, emit_csv, run_comparison

GOLDEN = Path(__file__).parent / "golden"

# Presets whose series the acceptance criteria already compute (conftest.py).
SHARED_SERIES = {
    "setting2-linear": "setting2_series",
    "mixed-linear": "mixed_linear_series",
    "mixed-nonlinear": "mixed_nonlinear_series",
    "during-experiment": "during_series",
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_matches_golden_csv(preset, request, tmp_path):
    if preset in SHARED_SERIES:
        series = request.getfixturevalue(SHARED_SERIES[preset])
    else:
        series = run_comparison(PRESETS[preset])
    path = tmp_path / f"{preset}.csv"
    emit_csv(series, path)
    assert path.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()
