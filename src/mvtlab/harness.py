"""Experiment presets, traffic sweeps, repetition management, and emission
of comparison curves as CSV and SVG."""

from __future__ import annotations

import ast
import hashlib
import json
import platform
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from itertools import chain
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
from .evolution import (
    EvolutionConfig,
    EvolutionResult,
    beat_control_winner,
    init_population,
    run_evolution,
)
from .genome import SearchSpace, _index
from .simstats import aggregate_runs, allocate_evolution, allocate_taguchi, simulate_conversions
from .taguchi import (
    OrthogonalArray,
    best_tested,
    load_array,
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
        # However the config is built, settings a sweep would trip over are
        # rejected here (the array's in load_design), naming the config key.
        # Types first: a list space becomes a SearchSpace, traffic a tuple.
        texts = {"name": self.name, "mode": self.mode, "curve": self.curve, "out": self.out_dir}
        if self.array is not None:
            texts["array"] = self.array
        for key, value in texts.items():
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
        if not isinstance(self.fixed_evaluator, bool):
            raise ValueError(
                f"fixed_evaluator must be True or False, got {self.fixed_evaluator!r}"
            )
        if not isinstance(self.evolution, EvolutionConfig):
            raise ValueError(
                f"evolution must be an instance of EvolutionConfig, got {self.evolution!r}"
            )
        if isinstance(self.space, (list, tuple)):
            object.__setattr__(self, "space", SearchSpace(self.space))
        if not isinstance(self.space, SearchSpace):
            raise ValueError(f"space must be a list of ints, got {self.space!r}")
        levels = self.traffic if isinstance(self.traffic, (list, tuple)) else (self.traffic,)
        object.__setattr__(self, "traffic", tuple(_index(t, "traffic") for t in levels))
        object.__setattr__(self, "repetitions", _index(self.repetitions, "repetitions"))
        object.__setattr__(self, "master_seed", _index(self.master_seed, "seed"))
        # aggregate_runs, for one, needs two values per traffic level. The
        # name is every output file's stem; no output may leave out_dir.
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
        check_landscape_size(self.space)
        check_weights(self.space, self.mode, self.weights)
        pop_size = len(init_population(self.space))
        allocate_evolution(self.traffic[0], self.evolution.generations, pop_size)

    def load_design(self) -> OrthogonalArray:
        """The configured orthogonal array, checked against the space and the
        smallest traffic level; loaded once per config."""
        return self._design

    @cached_property
    def _design(self) -> OrthogonalArray:
        if self.array is None:
            raise ValueError("config names no orthogonal array")
        if self.array.endswith(".txt"):
            array = load_array(Path(self.array).read_text())
        else:
            array = load_bundled_array(self.array)
        if array.column_levels != self.space.cardinalities:
            raise ValueError(
                f"array levels {list(array.column_levels)} do not match "
                f"space {list(self.space.cardinalities)}"
            )
        allocate_taguchi(self.traffic[0], array.n_rows)
        return array


@dataclass(frozen=True)
class ResultSeries:
    """One curve: per method, in CSV order, a (mean, lo, hi) per traffic
    value; lo and hi are the 2.5th and 97.5th percentiles, which need not
    bracket the mean."""

    traffic: tuple[int, ...]
    points: dict


_MIXED_LINEAR = ExperimentConfig(
    name="mixed-linear", space=SearchSpace([3, 6, 2, 3, 6, 2, 2, 6]), array="oa36_mixed"
)
PRESETS: dict[str, ExperimentConfig] = {
    config.name: config
    for config in (
        ExperimentConfig(name="setting1-linear", space=SearchSpace([2, 2, 2]), array="oa4_2x3"),
        ExperimentConfig(name="setting2-linear", space=SearchSpace([3, 3, 3, 3]), array="oa9_3x4"),
        ExperimentConfig(
            name="setting3-linear", space=SearchSpace([4, 4, 4, 4, 4]), array="oa16_4x5"
        ),
        _MIXED_LINEAR,
        replace(_MIXED_LINEAR, name="mixed-nonlinear", mode=NONLINEAR),
        replace(_MIXED_LINEAR, name="during-experiment", curve="during"),
        replace(
            _MIXED_LINEAR,
            name="mixed-lowcr",
            weights=WeightConfig(bias=0.002, delta_main=0.0002),
        ),
    )
}


def _evaluator_for(config: ExperimentConfig, rep: int) -> Evaluator:
    seed = int(np.random.SeedSequence([config.master_seed, 101, rep]).generate_state(1)[0])
    return sample_evaluator(config.space, config.mode, config.weights, seed)


def run_taguchi_arm(
    array: OrthogonalArray,
    evaluator: Evaluator,
    total_traffic: int,
    rng: np.random.Generator,
    true_crs: list[float],
) -> dict[str, float]:
    """Spread traffic evenly over the array rows, observe conversions, score
    rows by observed rate, and read off the predicted-best and best-tested
    candidates' true conversion rates, plus the impression-weighted true
    conversion rate of all traffic served. `true_crs` is the list of the
    rows' true conversion rates, as evaluator.true_crs gives them."""
    if array.column_levels != evaluator.space.cardinalities:
        raise ValueError(
            f"array levels {array.column_levels} do not match "
            f"space {evaluator.space.cardinalities}"
        )
    allocation = allocate_taguchi(total_traffic, array.n_rows)
    conversions = simulate_conversions(true_crs, allocation, rng)
    scores = [c / n for c, n in zip(conversions, allocation)]
    return {
        "predict_cr": evaluator.true_cr(predict_best(array, scores)),
        "candidate_cr": evaluator.true_cr(best_tested(array, scores)),
        "taguchi_served": _served_average(allocation, true_crs, total_traffic),
    }


def run_evolution_arm(
    config: ExperimentConfig,
    evaluator: Evaluator,
    plan: tuple[tuple[int, ...], ...],
    rng: np.random.Generator,
) -> tuple[EvolutionResult, float]:
    """Run the evolutionary optimizer on the traffic plan, the impressions
    of each slot per generation: its result, whose winner
    beat_control_winner picks, and the impression-weighted true conversion
    rate of all traffic served."""
    result = run_evolution(evaluator, plan, config.evolution, rng)
    crs = chain.from_iterable(r.true_crs for r in result.records)
    return result, _served_average(chain(*plan), crs, sum(map(sum, plan)))


def _served_average(impressions, crs, total_traffic: int) -> float:
    """The impression-weighted mean of crs, added left to right as the
    goldens were written: numpy's pairwise sum and, from Python 3.12 on, the
    compensated sum() round differently."""
    served = 0.0
    for n, cr in zip(impressions, crs):
        served += n * cr
    return served / total_traffic


def sweep(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Every cell of the experiment: measurement name -> float64 array of
    shape (repetitions, traffic levels). A cell's measurements are the keys
    its two arms return, plus the evolution winner's true conversion rate
    `winner_cr` when the config's curve reads it; both arms of a cell share
    the evaluator and total traffic.

    Repetitions run outermost, so each repetition's landscape is built once
    and serves every traffic level; every cell still has its own seeds. A
    fixed evaluator is repetition 0's landscape, built once for the sweep.
    A repetition's evolution winners are picked together, in one
    beat_control_winner call over its cells, and not at all for a curve
    that does not read them. Each traffic level's evolution plan is built
    once, as tuples that no cell can change, and the array rows' true
    conversion rates are read once per landscape."""
    array = config.load_design()
    picks_winner = "winner_cr" in CURVES[config.curve].values()
    pop_size = len(init_population(config.space))
    plans = [
        tuple(map(tuple, allocate_evolution(total, config.evolution.generations, pop_size)))
        for total in config.traffic
    ]
    table = []  # per repetition, its cells in traffic order
    evaluator = None
    for rep in range(config.repetitions):
        if evaluator is None or not config.fixed_evaluator:
            evaluator = _evaluator_for(config, rep)
            row_crs = evaluator.true_crs(array.rows).tolist()
        cells, results = [], []
        for t_idx, total in enumerate(config.traffic):
            tag_rng = np.random.default_rng([config.master_seed, 202, t_idx, rep])
            evo_rng = np.random.default_rng([config.master_seed, 303, t_idx, rep])
            cell = run_taguchi_arm(array, evaluator, total, tag_rng, row_crs)
            result, cell["evolution_served"] = run_evolution_arm(
                config, evaluator, plans[t_idx], evo_rng
            )
            cells.append(cell)
            results.append(result)
        if picks_winner:
            winners = beat_control_winner([result.evidence for result in results])
            for cell, result, (best, _) in zip(cells, results, winners):
                cell["winner_cr"] = evaluator.true_cr(result.candidate(best))
        table.append(cells)
    # Each measurement's cells, stacked as (repetitions, traffic levels).
    return {name: np.array([[c[name] for c in row] for row in table]) for name in table[0][0]}


def result_series(config: ExperimentConfig, cells: dict[str, np.ndarray]) -> ResultSeries:
    """The curve `config.curve` names, read from `sweep(config)`: per method
    and traffic level, the mean and percentile band over repetitions, taken
    in repetition order."""
    return ResultSeries(
        traffic=tuple(config.traffic),
        points={
            method: aggregate_runs(cells[name])
            for method, name in CURVES[config.curve].items()
        },
    )


def emit_csv(series: ResultSeries, path) -> None:
    lines = ["traffic,method,mean,lo,hi"]
    for i, traffic in enumerate(series.traffic):
        for method, points in series.points.items():
            mean, lo, hi = points[i]
            lines.append(f"{traffic},{method},{mean:.12g},{lo:.12g},{hi:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _escape(text: str) -> str:
    """Text as SVG character data: &, < and > escaped, & first, as
    xml.sax.saxutils.escape does; importing that module pulls in ssl, http
    and email."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_svg(series: ResultSeries, path, title: str = "") -> None:
    """Standalone SVG: one mean polyline plus a shaded interval band per
    method, traffic on a log axis."""
    if not series.traffic:
        raise ValueError("cannot plot an empty series")
    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [np.log10(t) for t in series.traffic]
    ys = [v for points in series.points.values() for p in points for v in p]
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
            f'font-size="16">{_escape(title)}</text>'
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
    for m_idx, (method, pts) in enumerate(series.points.items()):
        color = _SVG_COLORS[m_idx % len(_SVG_COLORS)]
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
            f'class="legend">{_escape(method)}</text>'
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
        # The served averages add left to right in an explicit loop, so they
        # do not follow sum(), which compensates floats from Python 3.12 on.
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        # beat-control numbers come from scipy.special.betainc
        "scipy_version": scipy.__version__,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"csv": csv_path, "svg": svg_path, "manifest": manifest_path, "series": series}


# ExperimentConfig's sub-config fields -> their dataclasses.
_SUB_CONFIGS = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if is_dataclass(f.default_factory)
}
# Config key -> (sub-config holding the field, or None for a field of
# ExperimentConfig; field name). A key is its field's name, a sub-config's
# fields taken flat, except for the renames below. Config files and the
# command line's overrides both go through this table; the defaults and the
# checks are the dataclasses'.
_RENAMED = {"master_seed": "seed", "out_dir": "out"}
_CONFIG_KEYS = {
    key: target
    for f in fields(ExperimentConfig)
    for key, target in (
        [(sub.name, (f.name, sub.name)) for sub in fields(_SUB_CONFIGS[f.name])]
        if f.name in _SUB_CONFIGS
        else [(_RENAMED.get(f.name, f.name), (None, f.name))]
    )
}


def configure(values: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """The config that `values` (config keys to values) make of `base`, or
    of the dataclass defaults when there is no base; ValueError for a value
    of the wrong type or an invalid setting."""
    top: dict = {}
    nested: dict = {group: {} for group in _SUB_CONFIGS}
    for key, value in values.items():
        group, name = _CONFIG_KEYS[key]
        (nested[group] if group else top)[name] = value
    if base is None:
        if "space" not in top:
            raise ValueError("config must define a space")
        subs = {group: _SUB_CONFIGS[group](**kwargs) for group, kwargs in nested.items()}
        return ExperimentConfig(**subs, **top)
    subs = {group: replace(getattr(base, group), **kwargs) for group, kwargs in nested.items()}
    return replace(base, **subs, **top)


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
