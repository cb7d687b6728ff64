"""Experiment harness tests: presets, sweeps, CSV/SVG emission, config
parsing, and the CLI."""

import json
import math
import platform
import re
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy

import mvtlab
from mvtlab import cli, evolution, harness, simstats
from mvtlab.cli import main as cli_main
from mvtlab.evaluator import (
    LINEAR,
    EvaluatorConfigError,
    WeightConfig,
    brute_force_best,
    sample_evaluator,
)
from mvtlab.evolution import EvolutionConfig, beat_control_winner
from mvtlab.genome import SearchSpace
from mvtlab.harness import (
    CURVES,
    DEFAULT_TRAFFIC_SWEEP,
    PRESETS,
    ExperimentConfig,
    ResultSeries,
    config_digest,
    emit_csv,
    emit_svg,
    parse_config,
    result_series,
    run_evolution_arm,
    run_experiment,
    run_taguchi_arm,
    sweep,
)
from mvtlab.simstats import aggregate_runs, allocate_evolution, prob_beats_control
from mvtlab.taguchi import load_bundled_array

SMOKE = dict(traffic=(2_000, 20_000), repetitions=3)


def smoke_config(preset, **overrides):
    return replace(PRESETS[preset], **{**SMOKE, **overrides})


def smoke_series(preset, **overrides):
    config = smoke_config(preset, **overrides)
    return result_series(config, sweep(config))


def test_presets_cover_paper_settings():
    assert set(PRESETS) == {
        "setting1-linear", "setting2-linear", "setting3-linear",
        "mixed-linear", "mixed-nonlinear", "during-experiment", "mixed-lowcr",
    }
    assert PRESETS["setting2-linear"].space.cardinalities == (3, 3, 3, 3)
    assert PRESETS["setting2-linear"].array == "oa9_3x4"
    assert PRESETS["mixed-linear"].space.cardinalities == (3, 6, 2, 3, 6, 2, 2, 6)
    assert PRESETS["mixed-linear"].array == "oa36_mixed"
    assert PRESETS["mixed-nonlinear"].mode == "nonlinear"
    assert PRESETS["during-experiment"].curve == "during"
    assert PRESETS["mixed-lowcr"].weights == WeightConfig(bias=0.002, delta_main=0.0002)
    for cfg in PRESETS.values():
        assert cfg.repetitions == 20
        assert cfg.traffic == DEFAULT_TRAFFIC_SWEEP
        # every preset's array must match its search space
        assert cfg.load_design().column_levels == cfg.space.cardinalities


def test_config_validation():
    with pytest.raises(ValueError):
        replace(PRESETS["setting2-linear"], traffic=(100, 100))
    with pytest.raises(ValueError):
        replace(PRESETS["setting2-linear"], traffic=(200, 100))
    with pytest.raises(ValueError):
        replace(PRESETS["setting2-linear"], repetitions=0)
    with pytest.raises(ValueError):  # aggregate_runs needs two values
        replace(PRESETS["setting2-linear"], repetitions=1)
    with pytest.raises(ValueError):
        replace(PRESETS["setting2-linear"], curve="sideways")
    with pytest.raises(ValueError):
        replace(PRESETS["setting2-linear"], mode="nonlinearr")
    with pytest.raises(ValueError):
        replace(PRESETS["setting2-linear"], traffic=())
    with pytest.raises(ValueError):  # 8 generations x 8 candidates = 64
        replace(PRESETS["setting2-linear"], traffic=(63, 1000))
    with pytest.raises(EvaluatorConfigError):  # 10^8-cell landscape
        replace(PRESETS["setting2-linear"], space=SearchSpace([10] * 8))
    with pytest.raises(ValueError):  # SeedSequence takes no negative seed
        replace(PRESETS["setting2-linear"], master_seed=-1)
    for name in ("", ".", "..", "../escaped", "a/b", "a\\b"):  # output file stems
        with pytest.raises(ValueError, match="not a plain file name"):
            replace(PRESETS["setting2-linear"], name=name)
    for weights in (WeightConfig(bias=1.5), WeightConfig(delta_pair=-1.0)):
        with pytest.raises(EvaluatorConfigError):
            replace(PRESETS["setting2-linear"], weights=weights)
    with pytest.raises(EvaluatorConfigError):  # 8 x 0.01 + 28 pairs x 0.04
        replace(PRESETS["mixed-nonlinear"], weights=WeightConfig(delta_pair=0.04))


setting1 = partial(replace, PRESETS["setting1-linear"])
# (how a config is built, a bad setting, the config key its error names)
BAD_SETTINGS = [
    (setting1, {"fixed_evaluator": "no"}, "fixed_evaluator"),
    (setting1, {"traffic": (1000.5,)}, "traffic"),
    (setting1, {"repetitions": 2.5}, "repetitions"),
    (setting1, {"master_seed": 1.7}, "seed"),
    (setting1, {"name": 7}, "name"),
    (setting1, {"space": 5}, "space"),
    (setting1, {"weights": {"bias": 0.1}}, "weights"),
    (setting1, {"evolution": None}, "evolution"),
    (EvolutionConfig, {"generations": 2.5}, "generations"),
    (WeightConfig, {"delta_main": math.nan}, "delta_main"),
    (WeightConfig, {"bias": math.inf}, "bias"),
    (EvolutionConfig, {"mutation_rate": True}, "mutation_rate"),
]


@pytest.mark.parametrize("build, setting, key", BAD_SETTINGS, ids=[row[2] for row in BAD_SETTINGS])
def test_every_road_rejects_bad_settings(build, setting, key):
    # Presets, replace() and the dataclasses check what config files do:
    # one line naming the config key, before any cell runs.
    with pytest.raises(ValueError) as info:
        build(**setting)
    message = str(info.value)
    assert message.startswith(f"{key} must be ") and "\n" not in message, message


def test_config_stores_python_values():
    config = replace(
        PRESETS["setting1-linear"], repetitions=np.int64(3), traffic=np.int64(5000), space=[2] * 3
    )
    assert type(config.repetitions) is int and config.repetitions == 3
    assert config.traffic == (5000,) and type(config.traffic[0]) is int
    assert config.space == SearchSpace([2, 2, 2])
    assert len(config_digest(config)) == 64
    # numbers are stored as floats, so an int and its float are one config
    assert WeightConfig(delta_pair=0) == WeightConfig(delta_pair=0.0)
    assert type(EvolutionConfig(generations=np.int64(4)).generations) is int


def test_config_design_checks():
    # The array must match the space and fit in the smallest traffic level;
    # both are checked when the design is loaded, before any cell runs.
    mismatch = replace(PRESETS["setting2-linear"], array="oa4_2x3")
    with pytest.raises(ValueError, match="do not match"):
        mismatch.load_design()
    with pytest.raises(ValueError, match="do not match"):
        sweep(mismatch)
    few = replace(
        PRESETS["setting1-linear"], evolution=EvolutionConfig(generations=1), traffic=(3, 10)
    )
    with pytest.raises(ValueError, match="4 rows"):
        few.load_design()
    assert replace(few, traffic=(4, 10)).load_design().n_rows == 4


def test_taguchi_arm_array_space_mismatch():
    array = load_bundled_array("oa4_2x3")
    ev = sample_evaluator(SearchSpace([3, 3, 3, 3]), LINEAR, seed=0)
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError):
        run_taguchi_arm(array, ev, 1000, rng, [0.05] * array.n_rows)


def test_taguchi_arm_noiseless_predict_hits_oracle():
    # With enough traffic per row, observed rates converge on true rates and
    # the linear predict-best must land on the enumeration optimum.
    array = load_bundled_array("oa9_3x4")
    space = SearchSpace([3, 3, 3, 3])
    hits = 0
    for seed in range(10):
        ev = sample_evaluator(space, LINEAR, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        result = run_taguchi_arm(array, ev, 90_000_000, rng, ev.true_crs(array.rows).tolist())
        _, opt = brute_force_best(ev)
        hits += result["predict_cr"] == pytest.approx(opt)
    assert hits >= 9


def test_taguchi_served_average_adds_left_to_right():
    # The served average adds row by row, left to right, as the goldens
    # were written. A compensated sum (math.fsum here, sum() from Python
    # 3.12 on) rounds these rates differently.
    array = load_bundled_array("oa4_2x3")
    ev = sample_evaluator(SearchSpace([2, 2, 2]), LINEAR, seed=0)
    crs = [0.1, 0.2, 0.3, 0.05]
    left_to_right = ((0.1 + 0.2) + 0.3) + 0.05
    assert left_to_right / 4 != math.fsum(crs) / 4
    rng = np.random.Generator(np.random.PCG64(0))
    result = run_taguchi_arm(array, ev, 4, rng, crs)
    assert result["taguchi_served"] == left_to_right / 4


def test_evolution_served_average_adds_left_to_right():
    # Evolution's served average adds plan slot by plan slot, generation by
    # generation, each slot's impressions times the true conversion rate
    # its generation's record logs. On this seed a compensated sum rounds
    # differently.
    config = PRESETS["setting1-linear"]
    ev = sample_evaluator(config.space, LINEAR, seed=0)
    plan = tuple(map(tuple, allocate_evolution(1_000, 8, 3)))
    result, served = run_evolution_arm(config, ev, plan, np.random.default_rng(0))
    terms = [
        n * cr for slots, record in zip(plan, result.records, strict=True)
        for n, cr in zip(slots, record.true_crs, strict=True)
    ]
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    assert served == left_to_right / 1_000
    assert served != math.fsum(terms) / 1_000


def test_sweep_is_one_table_for_every_curve():
    config = smoke_config("mixed-linear")
    cells = sweep(config)
    assert set(cells) == {
        "predict_cr", "candidate_cr", "taguchi_served", "winner_cr", "evolution_served",
    }
    for column in cells.values():
        assert column.dtype == np.float64 and column.shape == (3, 2)
        assert np.all((column >= 0.001) & (column <= 0.999))
    # Each curve aggregates its methods' columns, repetitions in order.
    for curve, methods in CURVES.items():
        series = result_series(replace(config, curve=curve), cells)
        assert list(series.points) == list(methods)
        for method, name in methods.items():
            assert series.points[method] == aggregate_runs(cells[name])


def test_during_sweep_picks_no_winner(monkeypatch):
    # A curve that does not read winner_cr makes no beat-control pass, and
    # every other measurement is the comparison sweep's, bit for bit.
    config = smoke_config("mixed-linear")
    cells = sweep(config)
    calls = []
    monkeypatch.setattr(harness, "beat_control_winner", calls.append)
    during = sweep(replace(config, curve="during"))
    assert calls == []
    assert set(during) == set(cells) - {"winner_cr"}
    for name, column in during.items():
        assert column.tolist() == cells[name].tolist(), name


def test_comparison_series_shape():
    series = smoke_series("setting1-linear")
    assert series.traffic == (2_000, 20_000)
    assert set(series.points) == {"evolution", "taguchi-predict", "taguchi-candidate"}
    for points in series.points.values():
        assert len(points) == 2
        for mean, lo, hi in points:
            assert lo <= mean + 1e-12
            assert mean <= hi + 1e-12


def test_during_series_shape():
    series = smoke_series("during-experiment")
    assert set(series.points) == {"evolution", "taguchi"}


def test_mean_outside_percentile_band_is_written(tmp_path):
    # The band is the 2.5th-97.5th percentile of the repetitions, not an
    # interval around the mean: from 41 repetitions on, one outlying
    # repetition moves the mean but not the band. On one fixed landscape
    # most repetitions find the same optimum, so this run has such rows.
    config = replace(
        PRESETS["setting1-linear"], fixed_evaluator=True, repetitions=41, master_seed=3,
        traffic=(1_000, 10_000, 100_000), out_dir=str(tmp_path),
    )
    rows = [
        [float(v) for v in line.split(",")[2:]]
        for line in run_experiment(config)["csv"].read_text().splitlines()[1:]
    ]
    assert len(rows) == 9
    assert [row for row in rows if not row[1] <= row[0] <= row[2]]


def test_emit_csv_format(tmp_path):
    series = smoke_series("setting1-linear")
    path = tmp_path / "out.csv"
    emit_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "traffic,method,mean,lo,hi"
    assert len(lines) == 1 + len(series.traffic) * 3
    emit_csv(series, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_emit_svg_well_formed(tmp_path):
    series = smoke_series("setting1-linear")
    path = tmp_path / "out.svg"
    emit_svg(series, path, title="smoke")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    legend = [el for el in root.iter() if el.get("class") == "legend"]
    assert len(legend) == 3


def test_emit_svg_escapes_markup(tmp_path, monkeypatch):
    # &, < and > in a title or method name are written as
    # xml.sax.saxutils.escape writes them, byte for byte; quotes stay.
    from xml.sax.saxutils import escape

    methods = ("a&b", "<c>", "d\"'&amp;")
    series = ResultSeries(
        traffic=(1000, 10000),
        points={m: [(0.01, 0.005, 0.02), (0.02, 0.01, 0.03)] for m in methods},
    )
    title = "T & <x> \"q\""
    emit_svg(series, tmp_path / "local.svg", title=title)
    monkeypatch.setattr(harness, "_escape", escape)
    emit_svg(series, tmp_path / "saxutils.svg", title=title)
    written = (tmp_path / "local.svg").read_bytes()
    assert written == (tmp_path / "saxutils.svg").read_bytes()
    assert b'font-size="16">T &amp; &lt;x&gt; "q"</text>' in written
    assert b'class="legend">d"\'&amp;amp;</text>' in written
    root = ET.parse(tmp_path / "local.svg").getroot()
    assert [el.text for el in root.iter() if el.get("class") == "legend"] == list(methods)


def test_emit_svg_rejects_empty_series(tmp_path):
    empty = ResultSeries(traffic=(), points={})
    with pytest.raises(ValueError):
        emit_svg(empty, tmp_path / "never.svg")
    assert not (tmp_path / "never.svg").exists()


def test_run_experiment_outputs(tmp_path):
    cfg = smoke_config("setting1-linear", out_dir=str(tmp_path))
    outputs = run_experiment(cfg)
    for kind in ("csv", "svg", "manifest"):
        assert outputs[kind].exists()
    manifest = json.loads(outputs["manifest"].read_text())
    assert manifest["seed"] == cfg.master_seed
    assert len(manifest["config_sha256"]) == 64
    assert manifest["scipy_version"] == scipy.__version__
    assert manifest["mvtlab_version"] == mvtlab.__version__
    assert manifest["python_version"] == platform.python_version()


def test_version_is_one_number():
    # A regex, not tomllib: the package supports Python 3.10.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [mvtlab.__version__]


def test_rerun_is_byte_identical(tmp_path):
    cfg = smoke_config("setting1-linear", out_dir=str(tmp_path / "a"))
    first = run_experiment(cfg)["csv"].read_bytes()
    again = run_experiment(replace(cfg, out_dir=str(tmp_path / "b")))["csv"].read_bytes()
    assert first == again


def test_fixed_evaluator_flag_changes_results():
    base = dict(traffic=(20_000,), repetitions=4)
    resampled = smoke_series("setting2-linear", **base)
    fixed = smoke_series("setting2-linear", **base, fixed_evaluator=True)
    assert resampled.points != fixed.points


def cell_rng(*parts):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(parts))))


def test_fixed_sweep_builds_one_evaluator(monkeypatch):
    # A fixed landscape is built once for the whole sweep; every cell is the
    # one a sweep that rebuilt it for each repetition would give.
    config = smoke_config("setting2-linear", fixed_evaluator=True)
    built = []

    def spy(*args):
        built.append(args)
        return sample_evaluator(*args)

    monkeypatch.setattr(harness, "sample_evaluator", spy)
    cells = sweep(config)
    rep0_seed = int(np.random.SeedSequence([config.master_seed, 101, 0]).generate_state(1)[0])
    assert built == [(config.space, config.mode, config.weights, rep0_seed)]
    array = config.load_design()
    pop_size = sum(k - 1 for k in config.space.cardinalities)
    for rep in range(config.repetitions):
        evaluator = sample_evaluator(*built[0])
        row_crs = evaluator.true_crs(array.rows).tolist()
        for t_idx, total in enumerate(config.traffic):
            measured = run_taguchi_arm(
                array, evaluator, total, cell_rng(config.master_seed, 202, t_idx, rep), row_crs
            )
            plan = allocate_evolution(total, config.evolution.generations, pop_size)
            result, measured["evolution_served"] = run_evolution_arm(
                config, evaluator, plan, cell_rng(config.master_seed, 303, t_idx, rep)
            )
            # This cell's winner alone, not in its repetition's batch.
            [(best, _)] = beat_control_winner([result.evidence])
            measured["winner_cr"] = evaluator.true_cr(result.candidate(best))
            assert sorted(measured) == sorted(cells)
            for name, value in measured.items():
                assert cells[name][rep, t_idx] == value, (name, rep, t_idx)


def test_sweep_builds_one_plan_per_traffic_level(monkeypatch):
    # Each level's evolution plan serves every repetition's cell at it.
    config = smoke_config("setting1-linear")
    levels = []

    def spy(total, *args):
        levels.append(total)
        return allocate_evolution(total, *args)

    monkeypatch.setattr(harness, "allocate_evolution", spy)
    sweep(config)
    assert levels == list(config.traffic)


def test_repetition_winners_equal_one_cell_calls(monkeypatch):
    # A repetition's winners come from one beat-control pass over all its
    # cells. On mixed-lowcr that batch holds split-pass pairs from several
    # cells beside first-pass pairs; each cell's winner index and PBC must
    # still equal a call for that cell alone, bit for bit.
    config = replace(PRESETS["mixed-lowcr"], repetitions=3)
    batches = []

    def spy(cells):
        batches.append((cells, beat_control_winner(cells)))
        return batches[-1][1]

    monkeypatch.setattr(harness, "beat_control_winner", spy)
    sweep(config)
    assert len(batches) == config.repetitions
    pairs, split = [], []
    upper_prob_split = simstats._upper_prob_split

    def count_pairs(cand, control):
        pairs.append(len(cand[0]))
        return prob_beats_control(cand, control)

    def count_split(a, *shapes):
        split.append(len(a))
        return upper_prob_split(a, *shapes)

    monkeypatch.setattr(evolution, "prob_beats_control", count_pairs)
    monkeypatch.setattr(simstats, "_upper_prob_split", count_split)
    for cells, winners in batches:
        assert len(cells) == len(config.traffic)
        split_cells = first_pass_pairs = 0
        for cell, winner in zip(cells, winners):
            pairs.clear()
            split.clear()
            assert beat_control_winner([cell]) == [winner]
            split_cells += sum(split) > 0
            first_pass_pairs += sum(pairs) - sum(split)
        assert split_cells >= 2 and first_pass_pairs > 0


def test_parse_config_round_trip():
    text = """
    # mixed landscape, shortened sweep
    name = smoke
    space = [3, 6, 2, 3, 6, 2, 2, 6]
    mode = nonlinear
    array = oa36_mixed
    delta_pair = 0.004
    traffic = (10000, 100000)
    repetitions = 5
    seed = 99
    fixed_evaluator = True
    """
    cfg = parse_config(text)
    assert cfg.name == "smoke"
    assert cfg.space.cardinalities == (3, 6, 2, 3, 6, 2, 2, 6)
    assert cfg.mode == "nonlinear"
    assert cfg.array == "oa36_mixed"
    assert cfg.weights.delta_pair == 0.004
    assert cfg.traffic == (10000, 100000)
    assert cfg.repetitions == 5
    assert cfg.master_seed == 99
    assert cfg.fixed_evaluator is True
    # defaults come from the dataclasses
    assert cfg.evolution == EvolutionConfig()
    assert (cfg.weights.bias, cfg.weights.delta_main) == (0.05, 0.01)
    assert (cfg.curve, cfg.out_dir) == ("comparison", "out")
    # a value ending in .txt names a file, anything else a bundled array
    assert parse_config("space = [2,2]\narray = arrays/mine.txt").array == "arrays/mine.txt"
    # `#` inside a quoted value is part of it; after a value it starts a comment
    quoted = parse_config(
        'space = [2,2]\nname = "a#b"\nout = "runs#1"  # where\n'
        "  # an indented comment line\n"
        "repetitions = 4  # four\nmode = nonlinear  # or linear\n"
        "array = arrays/mine.txt # a file\ntraffic = (1000, 2000)  # two levels\n"
    )
    assert (quoted.name, quoted.out_dir) == ("a#b", "runs#1")
    assert (quoted.repetitions, quoted.mode) == (4, "nonlinear")
    assert (quoted.array, quoted.traffic) == ("arrays/mine.txt", (1000, 2000))


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("mode = linear")  # no space
    with pytest.raises(ValueError):
        parse_config("space = [2,2]\nbogus_key = 1")
    with pytest.raises(ValueError):
        parse_config("space [2,2]")
    for flag in ("no", "'False'", "0"):
        with pytest.raises(ValueError):
            parse_config(f"space = [2,2]\nfixed_evaluator = {flag}")
    assert parse_config("space = [2,2]\nfixed_evaluator = False").fixed_evaluator is False
    for traffic in ("lots", "1e4", "[1000, 'x']", "True", "{1000: 1}"):
        with pytest.raises(ValueError):
            parse_config(f"space = [2,2]\ntraffic = {traffic}")
    assert parse_config("space = [2,2]\ntraffic = 1000").traffic == (1000,)
    assert parse_config("space = [2,2]\ntraffic = [1000, 2000]").traffic == (1000, 2000)
    with pytest.raises(ValueError):
        parse_config("space = [2,2]\nmode = nonlinearr")
    # Values of the wrong type or range fail here, not at the first cell.
    for line in (
        "bias = 1.5", "delta_pair = -1", "bias = high", "delta_main = True",
        "mutation_rate = 'x'", "generations = 2.5", "generations = True",
        "repetitions = 2.5", "seed = 1.7", "seed = -1", "space = 5",
        "space = [2.5, 2]", "name = 7", "out = None",
    ):
        with pytest.raises(ValueError):
            parse_config(f"space = [2,2]\n{line}")
    # A repeated key is an error, not a silent override.
    with pytest.raises(ValueError, match="^line 3: key 'seed' already set on line 2$"):
        parse_config("space = [2,2]\nseed = 1\nseed = 2")
    with pytest.raises(ValueError, match="^line 2: key 'space' already set on line 1$"):
        parse_config("space = [2,2]\nspace = [2,2]")


def test_every_config_key_reaches_its_field():
    # One file sets every key to a value no default has; each lands in the
    # field of its name, the sub-configs' keys in their sub-config, except
    # seed and out. The field names those two rename, and the sub-configs
    # themselves, are no keys.
    text = """
    name = every-key
    space = [3, 3, 3, 3]
    mode = nonlinear
    bias = 0.04
    delta_main = 0.009
    delta_pair = 0.004
    array = oa9_3x4
    generations = 3
    mutation_rate = 0.02
    elite_fraction = 0.3
    traffic = [5000, 50000]
    repetitions = 4
    seed = 7
    fixed_evaluator = True
    curve = during
    out = elsewhere
    """

    def landed(config):
        return {
            "name": config.name,
            "space": config.space,
            "mode": config.mode,
            "bias": config.weights.bias,
            "delta_main": config.weights.delta_main,
            "delta_pair": config.weights.delta_pair,
            "array": config.array,
            "generations": config.evolution.generations,
            "mutation_rate": config.evolution.mutation_rate,
            "elite_fraction": config.evolution.elite_fraction,
            "traffic": config.traffic,
            "repetitions": config.repetitions,
            "seed": config.master_seed,
            "fixed_evaluator": config.fixed_evaluator,
            "curve": config.curve,
            "out": config.out_dir,
        }

    config = parse_config(text)
    assert landed(config) == {
        "name": "every-key",
        "space": SearchSpace([3, 3, 3, 3]),
        "mode": "nonlinear",
        "bias": 0.04,
        "delta_main": 0.009,
        "delta_pair": 0.004,
        "array": "oa9_3x4",
        "generations": 3,
        "mutation_rate": 0.02,
        "elite_fraction": 0.3,
        "traffic": (5000, 50000),
        "repetitions": 4,
        "seed": 7,
        "fixed_evaluator": True,
        "curve": "during",
        "out": "elsewhere",
    }
    assert set(landed(config)) == set(harness._CONFIG_KEYS)
    defaults = landed(ExperimentConfig(name="custom", space=config.space))
    assert [key for key, value in landed(config).items() if value == defaults[key]] == ["space"]
    # The same keys over a preset, as the command line's overrides go.
    assert harness.configure(landed(config), PRESETS["setting1-linear"]) == config
    for key in ("master_seed", "out_dir", "weights", "evolution"):
        with pytest.raises(ValueError, match=f"^line 2: unknown key '{key}'$"):
            parse_config(f"space = [2,2]\n{key} = 1")


def test_config_digest_covers_every_field_but_out_dir():
    base = PRESETS["mixed-nonlinear"]
    changes = {
        "name": ["other"],
        "space": [SearchSpace([2, 2, 2])],
        "mode": [LINEAR],
        "weights": [
            WeightConfig(bias=0.04), WeightConfig(delta_main=0.009), WeightConfig(delta_pair=0.004)
        ],
        "array": ["oa9_3x4"],
        "evolution": [
            EvolutionConfig(generations=7),
            EvolutionConfig(mutation_rate=0.02),
            EvolutionConfig(elite_fraction=0.3),
        ],
        "traffic": [(1_000, 3_000)],
        "repetitions": [3],
        "master_seed": [1],
        "fixed_evaluator": [True],
        "curve": ["during"],
    }
    assert set(changes) == {f.name for f in fields(ExperimentConfig)} - {"out_dir"}
    digests = {config_digest(base)}
    for name, values in changes.items():
        for value in values:
            digests.add(config_digest(replace(base, **{name: value})))
    assert len(digests) == 1 + sum(len(values) for values in changes.values())
    assert config_digest(replace(base, out_dir="elsewhere")) == config_digest(base)


def test_cli_run_preset(tmp_path, capsys):
    rc = cli_main([
        "run", "setting1-linear",
        "--traffic", "2000,20000", "--reps", "3", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "csv:" in out and "svg:" in out
    assert (tmp_path / "setting1-linear.csv").exists()


def test_cli_run_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "space = [2, 2, 2]\narray = oa4_2x3\n"
        "traffic = (2000,)\nrepetitions = 2\n"
    )
    rc = cli_main(["run", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "exp.csv").exists()
    # a single traffic level may be written as a bare int
    cfg.write_text("space = [2, 2, 2]\narray = oa4_2x3\ntraffic = 2000\nrepetitions = 2\n")
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "scalar")]) == 0
    assert (tmp_path / "scalar" / "exp.csv").read_bytes() == (tmp_path / "exp.csv").read_bytes()
    # Command-line overrides apply before the config is built: a population
    # of 129 needs more than the default sweep's 1,000 impressions.
    wide = tmp_path / "wide.txt"
    wide.write_text("130\n" + "".join(f"{v}\n" for v in range(130)))
    cfg.write_text(f"space = [130]\narray = {wide}\nrepetitions = 2\n")
    assert cli_main(["run", str(cfg), "--traffic", "2000", "--out", str(tmp_path / "wide")]) == 0


def test_cli_run_unknown_target():
    assert cli_main(["run", "definitely-not-here"]) == 2


def test_cli_run_config_errors_are_one_line(tmp_path, capsys):
    bad_configs = {
        "flag": "space = [2, 2, 2]\narray = oa4_2x3\nfixed_evaluator = no\n",
        "traffic": "space = [2, 2, 2]\narray = oa4_2x3\ntraffic = 'lots'\n",
        "mode": "space = [2, 2, 2]\narray = oa4_2x3\nmode = nonlinearr\n",
        "small": "space = [3, 3, 3, 3]\narray = oa9_3x4\ntraffic = (50, 1000)\n",
        "rows": "space = [2, 2, 2]\narray = oa4_2x3\ngenerations = 1\ntraffic = 3\n",
        "levels": "space = [3, 3, 3, 3]\narray = oa4_2x3\n",
        "cap": "space = [10, 10, 10, 10, 10, 10, 10, 10]\narray = oa4_2x3\n",
        "missing": "space = [2, 2, 2]\narray = no/such/array.txt\n",
        "bundled": "space = [2, 2, 2]\narray = nope\n",
        "escape": "space = [2, 2, 2]\narray = /tmp/../etc\n",
        "bias": "space = [2, 2, 2]\narray = oa4_2x3\nbias = 1.5\n",
        "delta_pair": "space = [2, 2, 2]\narray = oa4_2x3\ndelta_pair = -1\n",
        "bias_text": "space = [2, 2, 2]\narray = oa4_2x3\nbias = high\n",
        "mutation_rate": "space = [2, 2, 2]\narray = oa4_2x3\nmutation_rate = 'x'\n",
        "generations": "space = [2, 2, 2]\narray = oa4_2x3\ngenerations = 2.5\n",
        "repetitions": "space = [2, 2, 2]\narray = oa4_2x3\nrepetitions = 2.5\n",
        "seed_float": "space = [2, 2, 2]\narray = oa4_2x3\nseed = 1.7\n",
        "seed_negative": "space = [2, 2, 2]\narray = oa4_2x3\nseed = -1\n",
        "repeated": "space = [2, 2, 2]\narray = oa4_2x3\nseed = 1\nseed = 2\n",
    }
    argvs = [
        ["run", "setting1-linear", "--reps", "1", "--out", str(tmp_path)],
        ["run", "setting1-linear", "--seed", "-1", "--out", str(tmp_path)],
        ["run", "setting1-linear", "--traffic", "1000,1e4", "--out", str(tmp_path)],
        ["run", "setting1-linear", "--reps", "2.5", "--out", str(tmp_path)],
        ["run", "setting1-linear", "--seed", "abc", "--out", str(tmp_path)],
    ]
    for name, text in bad_configs.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        argvs.append(["run", str(path), "--out", str(tmp_path)])
    bad_ints = {"1000,1e4": "--traffic: '1e4'", "2.5": "--reps: '2.5'", "abc": "--seed: 'abc'"}
    for argv in argvs:
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if argv[3] in bad_ints:  # the option and its bad token, not int()'s or argparse's
            assert err == f"error: {bad_ints[argv[3]]} is not an integer\n", err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_run_keeps_outputs_inside_out(tmp_path, capsys):
    cfg = tmp_path / "escape.cfg"
    inner = tmp_path / "inner"
    cfg.write_text(f"space = [2, 2, 2]\narray = oa4_2x3\nname = ../escaped\nout = {inner}\n")
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: name '../escaped' is not a plain file name\n"
    assert not (tmp_path / "escaped.csv").exists()


def test_cli_run_uncreatable_out_dir_is_one_line(tmp_path, capsys, monkeypatch):
    # The output directory is created before any cell runs.
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("cells ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli_main(["run", "setting1-linear", "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(blocker / "x") in err


def test_cli_validate_array(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("2 2 2\n0 0 0\n0 1 1\n1 0 1\n1 1 0\n")
    assert cli_main(["validate-array", str(good)]) == 0
    out = capsys.readouterr().out
    assert "balance: pass" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 0\n0 1\n1 1\n1 1\n")
    assert cli_main(["validate-array", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out

    # A negative entry is a value outside the column's levels.
    negative = tmp_path / "negative.txt"
    negative.write_text("2\n0\n1\n-1\n")
    assert cli_main(["validate-array", str(negative)]) == 1
    assert capsys.readouterr().out.startswith("range: FAIL (columns [0])\nbalance: pass\n")
    cfg = tmp_path / "negative.cfg"
    cfg.write_text(f"space = [2]\narray = {negative}\n")
    assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: array fails validation: range (columns [0])\n"

    rowless = tmp_path / "rowless.txt"
    rowless.write_text("2 2\n")
    assert cli_main(["validate-array", str(rowless)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_cli_list_presets(capsys):
    assert cli_main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out
