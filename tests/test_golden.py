"""Golden outputs: every bundled preset at its default settings must write
the checked-in CSV byte for byte.

After a deliberate behaviour change, regenerate a golden with
`PYTHONPATH=src python -m mvtlab.cli run <preset> --out DIR` from a source
checkout (or `python -m mvtlab.cli run <preset> --out DIR` after
`pip install -e .`), summarise the diff with
`python scripts/golden_diff.py DIR` (rows moved, methods moved, max
|delta mean| per preset; it exits 0 only when no golden moved), copy
DIR/<preset>.csv into tests/golden/, and explain the diff in CHANGES.md.

tests/golden/cli/ holds the CSV and SVG that `mvtlab run` writes for three
non-default command lines (CLI_RUNS); it sits outside golden_diff.py's
`*.csv` glob, so that script compares the default presets only. Manifests
are not kept: they record package versions.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

from mvtlab.cli import main as cli_main
from mvtlab.harness import PRESETS, emit_csv, result_series, sweep

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
        series = result_series(PRESETS[preset], sweep(PRESETS[preset]))
    path = tmp_path / f"{preset}.csv"
    emit_csv(series, path)
    assert path.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()


# Command lines whose outputs are kept in tests/golden/cli/: a 41-rep sweep of
# the smallest space, one shared landscape, and the low-rate preset.
CLI_RUNS = [
    ["setting1-linear", "--reps", "41", "--seed", "5"],
    ["mixed-nonlinear", "--fixed-evaluator", "--reps", "4"],
    ["mixed-lowcr", "--reps", "5", "--seed", "9"],
]


@pytest.mark.parametrize("args", CLI_RUNS, ids=[" ".join(a) for a in CLI_RUNS])
def test_cli_run_matches_golden_files(args, tmp_path):
    assert cli_main(["run", *args, "--out", str(tmp_path)]) == 0
    for suffix in (".csv", ".svg"):
        name = args[0] + suffix
        assert (tmp_path / name).read_bytes() == (GOLDEN / "cli" / name).read_bytes(), name


def load_golden_diff():
    spec = importlib.util.spec_from_file_location(
        "golden_diff", Path(__file__).resolve().parents[1] / "scripts" / "golden_diff.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_golden_diff_summary(tmp_path, monkeypatch, capsys):
    script = load_golden_diff()
    golden = (
        "traffic,method,mean,lo,hi\n"
        "1000,evolution,0.050000,0.040000,0.060000\n"
        "1000,taguchi-predict,0.052000,0.041000,0.061000\n"
        "1000,taguchi-candidate,0.051000,0.040000,0.062000\n"
    )
    fresh = golden.replace("0.050000,0.040000", "0.053500,0.040000")
    assert script.compare(golden, golden) == (0, 3, [], 0.0)
    moved, total, methods, delta = script.compare(fresh, golden)
    assert (moved, total, methods) == (1, 3, ["evolution"])
    assert abs(delta - 0.0035) < 1e-12

    monkeypatch.setattr(script, "GOLDEN", tmp_path / "golden")
    script.GOLDEN.mkdir()
    (script.GOLDEN / "demo.csv").write_text(golden)
    (tmp_path / "demo.csv").write_text(fresh)
    assert script.main([str(tmp_path)]) == 1  # a row moved
    assert capsys.readouterr().out == (
        "demo: 1/3 rows moved, methods moved: evolution, max |delta mean| 0.0035\n"
    )


def test_golden_diff_exit_status(tmp_path):
    # Exit 0 means every golden has a fresh CSV with no row moved.
    script = load_golden_diff()
    for golden in GOLDEN.glob("*.csv"):
        shutil.copy(golden, tmp_path)
    assert script.main([str(tmp_path)]) == 0
    one = tmp_path / "setting1-linear.csv"
    text = one.read_text()
    one.write_text(text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1])
    assert script.main([str(tmp_path)]) == 1
    one.unlink()
    assert script.main([str(tmp_path)]) == 1
