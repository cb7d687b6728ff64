"""Experiment presets, traffic sweeps, repetition management, and emission
of comparison curves as CSV and SVG."""

from __future__ import annotations

import ast
import hashlib
import json
import platform
import xml.sax.saxutils as saxutils
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .evaluator import (
    LINEAR,
    NONLINEAR,
    Evaluator,
    WeightConfig,
    check_landscape_size,
    check_weights,
    sample_evaluator,
)
from .evolution import EvolutionConfig, run_evolution
from .genome import SearchSpace
from .simstats import aggregate_runs, allocate_evolution, allocate_taguchi, simulate_conversions
from .taguchi import (
    OrthogonalArray,
    best_tested,
    load_array_file,
    load_bundled_array,
    predict_best,
)

DEFAULT_TRAFFIC_SWEEP = (
    1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000
)

# Curve kind -> {CSV method: the sweep measurement it reports}, in CSV order.
CURVES = {
    "comparison": {
        "evolution": "winner_cr",
        "taguchi-predict": "predict_cr",
        "taguchi-candidate": "candidate_cr",
    },
    "during": {"evolution": "evolution_served", "taguchi": "taguchi_served"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    space: SearchSpace
    mode: str = LINEAR
    weights: WeightConfig = field(default_factory=WeightConfig)
    array: str | None = None  # a file path if it ends in .txt, else a bundled name
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    traffic: tuple[int, ...] = DEFAULT_TRAFFIC_SWEEP
    repetitions: int = 20
    master_seed: int = 2024
    fixed_evaluator: bool = False
    curve: str = "comparison"  # a key of CURVES
    out_dir: str = "out"

    def __post_init__(self):
        # Settings a sweep would otherwise trip over mid-run are rejected
        # here, before the first cell (the array's in load_design);
        # aggregate_runs, for one, needs two values per traffic level.
        # The name is every output file's stem; no output may leave out_dir.
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ValueError(f"name {self.name!r} is not a plain file name")
        if self.repetitions < 2:
            raise ValueError(f"need at least two repetitions, got {self.repetitions}")
        if self.master_seed < 0:  # SeedSequence rejects negative entropy
            raise ValueError(f"seed must be non-negative, got {self.master_seed}")
        if not self.traffic:
            raise ValueError("traffic sweep needs at least one level")
        if list(self.traffic) != sorted(set(self.traffic)):
            raise ValueError("traffic sweep must be strictly increasing")
        if self.curve not in CURVES:
            raise ValueError(f"unknown curve kind {self.curve!r}")
        if self.mode not in (LINEAR, NONLINEAR):
            raise ValueError(f"unknown mode {self.mode!r}; use {LINEAR} or {NONLINEAR}")
        check_landscape_size(self.space)
        check_weights(self.space, self.mode, self.weights)
        pop_size = sum(k - 1 for k in self.space.cardinalities)
        need = self.evolution.generations * pop_size
        if self.traffic[0] < need:
            raise ValueError(
                f"smallest traffic level {self.traffic[0]} cannot cover "
                f"{self.evolution.generations} generations of {pop_size} candidates"
            )

    def load_design(self) -> OrthogonalArray:
        """The configured orthogonal array, checked against the space and the
        smallest traffic level; loaded once per config."""
        return self._design

    @cached_property
    def _design(self) -> OrthogonalArray:
        if self.array is None:
            raise ValueError("config names no orthogonal array")
        if self.array.endswith(".txt"):
            array = load_array_file(self.array)
        else:
            array = load_bundled_array(self.array)
        if array.column_levels != self.space.cardinalities:
            raise ValueError(
                f"array levels {list(array.column_levels)} do not match "
                f"space {list(self.space.cardinalities)}"
            )
        if self.traffic[0] < array.n_rows:
            raise ValueError(
                f"smallest traffic level {self.traffic[0]} cannot cover "
                f"the array's {array.n_rows} rows"
            )
        return array


@dataclass(frozen=True)
class ResultSeries:
    traffic: tuple[int, ...]
    methods: tuple[str, ...]
    # method -> (mean, lo, hi) per traffic value; lo and hi are the 2.5th and
    # 97.5th percentiles, which need not bracket the mean
    points: dict


PRESETS: dict[str, ExperimentConfig] = {
    "setting1-linear": ExperimentConfig(
        name="setting1-linear", space=SearchSpace([2, 2, 2]), array="oa4_2x3"
    ),
    "setting2-linear": ExperimentConfig(
        name="setting2-linear", space=SearchSpace([3, 3, 3, 3]), array="oa9_3x4"
    ),
    "setting3-linear": ExperimentConfig(
        name="setting3-linear", space=SearchSpace([4, 4, 4, 4, 4]), array="oa16_4x5"
    ),
    "mixed-linear": ExperimentConfig(
        name="mixed-linear",
        space=SearchSpace([3, 6, 2, 3, 6, 2, 2, 6]),
        array="oa36_mixed",
    ),
    "mixed-nonlinear": ExperimentConfig(
        name="mixed-nonlinear",
        space=SearchSpace([3, 6, 2, 3, 6, 2, 2, 6]),
        array="oa36_mixed",
        mode=NONLINEAR,
    ),
    "during-experiment": ExperimentConfig(
        name="during-experiment",
        space=SearchSpace([3, 6, 2, 3, 6, 2, 2, 6]),
        array="oa36_mixed",
        curve="during",
    ),
    "mixed-lowcr": ExperimentConfig(
        name="mixed-lowcr",
        space=SearchSpace([3, 6, 2, 3, 6, 2, 2, 6]),
        array="oa36_mixed",
        weights=WeightConfig(bias=0.002, delta_main=0.0002),
    ),
}


def _derived_seed(*parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(list(parts))


def _evaluator_for(config: ExperimentConfig, rep: int) -> Evaluator:
    seed = int(_derived_seed(config.master_seed, 101, rep).generate_state(1)[0])
    return sample_evaluator(config.space, config.mode, config.weights, seed)


def run_taguchi_arm(
    array: OrthogonalArray,
    evaluator: Evaluator,
    total_traffic: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Spread traffic evenly over the array rows, observe conversions, score
    rows by observed rate, and read off the predicted-best and best-tested
    candidates' true conversion rates, plus the impression-weighted true
    conversion rate of all traffic served."""
    if array.column_levels != evaluator.space.cardinalities:
        raise ValueError(
            f"array levels {array.column_levels} do not match "
            f"space {evaluator.space.cardinalities}"
        )
    allocation = allocate_taguchi(total_traffic, array.n_rows)
    true_crs = evaluator.true_crs(array.rows)
    conversions = simulate_conversions(true_crs, allocation, rng)
    scores = conversions / allocation
    # Python's sum, as the goldens were written: numpy's pairwise sum
    # rounds differently.
    served = sum(n * cr for n, cr in zip(allocation, true_crs.tolist())) / total_traffic
    return {
        "predict_cr": evaluator.true_cr(predict_best(array, scores)),
        "candidate_cr": evaluator.true_cr(best_tested(array, scores)),
        "taguchi_served": served,
    }


def run_evolution_arm(
    config: ExperimentConfig,
    evaluator: Evaluator,
    total_traffic: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Run the evolutionary optimizer on the traffic plan and read off its
    winner's true conversion rate and the impression-weighted true
    conversion rate of all traffic served."""
    pop_size = sum(k - 1 for k in config.space.cardinalities)
    plan = allocate_evolution(total_traffic, config.evolution.generations, pop_size)
    result = run_evolution(evaluator, plan, config.evolution, rng)
    served = 0.0
    for record, slots in zip(result.records, plan):
        for impressions, cr in zip(slots, record.true_crs.tolist()):
            served += impressions * cr
    return {
        "winner_cr": evaluator.true_cr(result.winner),
        "evolution_served": served / total_traffic,
    }


def sweep(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Every cell of the experiment: measurement name -> float64 array of
    shape (repetitions, traffic levels). Both arms of a cell share the
    evaluator and total traffic.

    Repetitions run outermost, so each repetition's landscape is built once
    and serves every traffic level; every cell still has its own seeds. A
    fixed evaluator is repetition 0's landscape, built once for the sweep."""
    array = config.load_design()
    shape = (config.repetitions, len(config.traffic))
    cells = {name: np.empty(shape) for curve in CURVES.values() for name in curve.values()}
    evaluator = None
    for rep in range(config.repetitions):
        if evaluator is None or not config.fixed_evaluator:
            evaluator = _evaluator_for(config, rep)
        for t_idx, total in enumerate(config.traffic):
            tag_rng = np.random.Generator(
                np.random.PCG64(_derived_seed(config.master_seed, 202, t_idx, rep))
            )
            evo_rng = np.random.Generator(
                np.random.PCG64(_derived_seed(config.master_seed, 303, t_idx, rep))
            )
            measured = run_taguchi_arm(array, evaluator, total, tag_rng)
            measured.update(run_evolution_arm(config, evaluator, total, evo_rng))
            for name, value in measured.items():
                cells[name][rep, t_idx] = value
    return cells


def result_series(config: ExperimentConfig, cells: dict[str, np.ndarray]) -> ResultSeries:
    """The curve `config.curve` names, read from `sweep(config)`: per method
    and traffic level, the mean and percentile band over repetitions, taken
    in repetition order."""
    methods = CURVES[config.curve]
    return ResultSeries(
        traffic=tuple(config.traffic),
        methods=tuple(methods),
        points={
            method: aggregate_runs(cells[name])
            for method, name in methods.items()
        },
    )


def emit_csv(series: ResultSeries, path) -> None:
    lines = ["traffic,method,mean,lo,hi"]
    for i, traffic in enumerate(series.traffic):
        for method in series.methods:
            mean, lo, hi = series.points[method][i]
            lines.append(f"{traffic},{method},{mean:.12g},{lo:.12g},{hi:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def emit_svg(series: ResultSeries, path, title: str = "") -> None:
    """Standalone SVG: one mean polyline plus a shaded interval band per
    method, traffic on a log axis."""
    if not series.traffic:
        raise ValueError("cannot plot an empty series")
    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [np.log10(t) for t in series.traffic]
    ys = [v for m in series.methods for p in series.points[m] for v in p]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.001, y_hi + 0.001
    pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - xs[0]) / (xs[-1] - xs[0] or 1.0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="16">{saxutils.escape(title)}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>')
    for t, x in zip(series.traffic, xs):
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - mb + 18}" text-anchor="middle" '
            f'font-size="10">{t:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{ml - 6}" y="{py(y) + 4:.1f}" text-anchor="end" '
            f'font-size="10">{y:.4f}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        'font-size="12">total traffic (log scale)</text>'
    )
    for m_idx, method in enumerate(series.methods):
        color = _SVG_COLORS[m_idx % len(_SVG_COLORS)]
        pts = series.points[method]
        band = [(px(x), py(p[1])) for x, p in zip(xs, pts)]
        band += [(px(x), py(p[2])) for x, p in reversed(list(zip(xs, pts)))]
        band_str = " ".join(f"{a:.1f},{b:.1f}" for a, b in band)
        parts.append(f'<polygon points="{band_str}" fill="{color}" fill-opacity="0.15"/>')
        line = " ".join(f"{px(x):.1f},{py(p[0]):.1f}" for x, p in zip(xs, pts))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = mt + 16 * (m_idx + 1)
        parts.append(
            f'<line x1="{width - mr - 150}" y1="{ly}" x2="{width - mr - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 112}" y="{ly + 4}" font-size="12" '
            f'class="legend">{saxutils.escape(method)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def config_digest(config: ExperimentConfig) -> str:
    """sha256 of every setting the results depend on: all fields but out_dir."""
    doc = asdict(config)
    del doc["out_dir"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_experiment(config: ExperimentConfig) -> dict:
    """Run a configured experiment and write CSV, SVG, and a JSON manifest
    into the output directory. Returns the output paths."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = result_series(config, sweep(config))
    csv_path = out / f"{config.name}.csv"
    svg_path = out / f"{config.name}.svg"
    manifest_path = out / f"{config.name}.manifest.json"
    emit_csv(series, csv_path)
    emit_svg(series, svg_path, title=config.name)
    manifest = {
        "name": config.name,
        "seed": config.master_seed,
        "config_sha256": config_digest(config),
        "mvtlab_version": __version__,
        # sum() of floats (the served averages) rounds differently from 3.12 on
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        # beat-control numbers come from scipy.special.betainc
        "scipy_version": scipy.__version__,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"csv": csv_path, "svg": svg_path, "manifest": manifest_path, "series": series}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _text(key, value):
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _int(key, value):
    if not _is_int(value):
        raise ValueError(f"{key} must be an int, got {value!r}")
    return value


def _number(key, value):
    if not (_is_int(value) or isinstance(value, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _flag(key, value):
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be True or False, got {value!r}")
    return value


def _space(key, value):
    if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
        raise ValueError(f"{key} must be a list of ints, got {value!r}")
    return SearchSpace(value)


def _traffic(key, value):
    levels = (value,) if _is_int(value) else value
    if not isinstance(levels, (list, tuple)) or not all(map(_is_int, levels)):
        raise ValueError(f"{key} must be an int or a list of ints, got {value!r}")
    return tuple(levels)


# Config key -> (sub-config holding the field, or None for a field of
# ExperimentConfig; field name; value check). Config files and the command
# line's overrides both go through this table; the defaults are the
# dataclasses'.
_CONFIG_KEYS = {
    "name": (None, "name", _text),
    "space": (None, "space", _space),
    "mode": (None, "mode", _text),
    "bias": ("weights", "bias", _number),
    "delta_main": ("weights", "delta_main", _number),
    "delta_pair": ("weights", "delta_pair", _number),
    "array": (None, "array", _text),
    "generations": ("evolution", "generations", _int),
    "mutation_rate": ("evolution", "mutation_rate", _number),
    "elite_fraction": ("evolution", "elite_fraction", _number),
    "traffic": (None, "traffic", _traffic),
    "repetitions": (None, "repetitions", _int),
    "seed": (None, "master_seed", _int),
    "fixed_evaluator": (None, "fixed_evaluator", _flag),
    "curve": (None, "curve", _text),
    "out": (None, "out_dir", _text),
}


def configure(values: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """The config that `values` (config keys to values) make of `base`, or
    of the dataclass defaults when there is no base; ValueError for a value
    of the wrong type or an invalid setting."""
    fields: dict = {}
    nested: dict = {"weights": {}, "evolution": {}}
    for key, value in values.items():
        group, name, check = _CONFIG_KEYS[key]
        (nested[group] if group else fields)[name] = check(key, value)
    if base is None:
        if "space" not in fields:
            raise ValueError("config must define a space")
        return ExperimentConfig(
            weights=WeightConfig(**nested["weights"]),
            evolution=EvolutionConfig(**nested["evolution"]),
            **fields,
        )
    return replace(
        base,
        weights=replace(base.weights, **nested["weights"]),
        evolution=replace(base.evolution, **nested["evolution"]),
        **fields,
    )


def parse_config(text: str, name: str = "custom", overrides=None) -> ExperimentConfig:
    """Parse a declarative key = value config file; values use Python
    literal syntax, e.g. `space = [3, 6, 2, 3, 6, 2, 2, 6]`. `overrides`
    (config keys to values) take precedence over the file's lines. A key
    may appear on one line only."""
    values = {"name": name}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ValueError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:  # a literal may be followed by a comment and may contain a `#`
            values[key] = ast.literal_eval(rhs.strip())
        except (ValueError, SyntaxError):  # bare strings (array names, modes)
            values[key] = rhs.split("#", 1)[0].strip()
    values.update(overrides or {})
    return configure(values)
