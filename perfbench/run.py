"""Sweep benchmark for mvtlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the lab in-process through ``mvtlab.cli.main(["run", ...])`` for
S seconds, checks every run's CSV with the output gate, and prints a
human-readable report followed, on the last line, by one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are per-layer self times and call counts from runs traced by
``perfbench/tracing.py``. See ``perfbench/README.md`` for why each workload
exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy
from scipy import integrate, special

from tracing import COUNT_NAMES, SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# The README's default sweep, pinned here so the input size cannot drift
# with the program's defaults.
SWEEP = (1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000)
METHODS = ("evolution", "taguchi-predict", "taguchi-candidate")
CSV_HEADER = "traffic,method,mean,lo,hi"
CR_RANGE = (0.001, 0.999)
SETUP_SAMPLES = 5
CALIBRATION_S = 0.1


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str
    reps: int
    traffic: tuple[int, ...] = SWEEP
    fixed_evaluator: bool = False

    @property
    def cells(self) -> int:
        return self.reps * len(self.traffic)

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [
            "run", self.preset, "--seed", str(seed), "--reps", str(self.reps),
            "--traffic", ",".join(map(str, self.traffic)), "--out", str(out),
        ]
        return argv + (["--fixed-evaluator"] if self.fixed_evaluator else [])


# Run sizes: a mixed run of 2 repetitions takes about a second, so a
# measurement holds a few dozen runs. A setting1-linear run of 20 varies
# 5% in quadrature work between seeds; 60 repetitions bring that to 3%.
WORKLOADS = {
    "mixed-nonlinear": Workload("mixed-nonlinear", reps=2),
    "mixed-nonlinear-fixed": Workload("mixed-nonlinear", reps=2, fixed_evaluator=True),
    "setting1-linear": Workload("setting1-linear", reps=60),
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dataclasses
from mvtlab import cli, harness
config = dataclasses.replace(harness.PRESETS[sys.argv[2]], master_seed=int(sys.argv[3]))
config.load_design()
print(time.perf_counter() - start, cli.__file__)
"""


def check_csv(text: str, workload: Workload) -> list[str]:
    """Problems with a comparison CSV: rows missing or unexpected, an
    interval not containing its mean, or a rate outside the clamp range."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"header is not {CSV_HEADER!r}"]
    problems, seen = [], set()
    for line in lines[1:]:
        fields = line.split(",")
        try:
            traffic, method = int(fields[0]), fields[1]
            mean, lo, hi = (float(v) for v in fields[2:])
        except (ValueError, IndexError):
            problems.append(f"malformed row {line!r}")
            continue
        if (traffic, method) in seen:
            problems.append(f"duplicate row for {traffic},{method}")
        seen.add((traffic, method))
        if not lo <= mean <= hi:
            problems.append(f"{traffic},{method}: not lo <= mean <= hi")
        if not all(CR_RANGE[0] <= v <= CR_RANGE[1] for v in (mean, lo, hi)):
            problems.append(f"{traffic},{method}: value outside {list(CR_RANGE)}")
    expected = {(t, m) for t in workload.traffic for m in METHODS}
    problems += [f"missing row {t},{m}" for t, m in sorted(expected - seen)]
    problems += [f"unexpected row {t},{m}" for t, m in sorted(seen - expected)]
    return problems


class Runs:
    """Runs one workload repeatedly through the CLI, gating every run: it
    must return 0, write CSV, SVG and manifest, pass check_csv, and write
    the same CSV bytes as the first run."""

    def __init__(self, cli, workload: Workload, seed: int, out: Path):
        self.cli, self.workload, self.seed, self.out = cli, workload, seed, out
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: Counter = Counter()
        names = (".csv", ".svg", ".manifest.json")
        self.paths = [out / f"{workload.preset}{suffix}" for suffix in names]

    def run(self) -> float | None:
        """Wall seconds from cli.main entry to outputs written, or None if
        the run failed."""
        self.attempted += 1
        for path in self.paths:
            path.unlink(missing_ok=True)
        argv = self.workload.argv(self.seed, self.out)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed run is counted, not fatal
            traceback.print_exc()
            return self._fail(f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        if code != 0:
            return self._fail(f"exit code {code}")
        absent = [p.name for p in self.paths if not p.exists()]
        if absent:
            return self._fail(f"outputs not written: {absent}")
        data = self.paths[0].read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        problems = check_csv(data.decode(errors="replace"), self.workload)
        self.digests[digest] += 1
        if digest != next(iter(self.digests)):
            problems.append(f"csv sha256 {digest} differs from the first run's")
        if problems:
            return self._fail("; ".join(problems))
        return elapsed

    def _fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"run {self.attempted} failed: {reason}", file=sys.stderr)
        return None


def measure_setup(workload: Workload, seed: int) -> float:
    """A fresh interpreter's seconds to import mvtlab, build the config and
    load the workload's array."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), workload.preset, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    seconds, module_file = proc.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported mvtlab from {module_file}, not {SRC}")
    return float(seconds)


def tail(times: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(times)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(times)[math.ceil(pct * n / 100) - 1]


def machine(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
            cwd=ROOT, check=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def calibrate() -> float:
    """Wall seconds of a fixed calibration workload that shares no code with
    mvtlab but has the same mix: scipy quadrature of a Python integrand
    calling betainc, binomial draws and dict updates."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(0))
    for k in range(500):
        a, b = 5.0 + k, 95.0 + k

        def integrand(y, a=a, b=b):
            return y ** (a - 1) * (1 - y) ** (b - 1) * special.betainc(b, a, y)

        integrate.quad(integrand, 0.0, 1.0, limit=200)
        rng.binomial(1000, 0.05)
    counts: dict[int, int] = {}
    for i in range(400_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return time.perf_counter() - start


def end_to_end(runs: Runs, seconds: float) -> tuple[dict, dict]:
    """Untimed warm-up run, SETUP_SAMPLES fresh-interpreter set-ups, then
    timed runs until the deadline.

    The host's speed drifts by up to 2x over seconds, and CPU time drifts
    with it. So every timed run is followed by calibrate(), and its wall
    seconds are rescaled to a host on which calibrate() takes
    CALIBRATION_S, by the mean of the calibration runs either side of it.
    Set-up times stay unscaled: the child's imports did not follow the
    kernel, and scaling widened their spread.
    """
    runs.run()
    setups = [measure_setup(runs.workload, runs.seed) for _ in range(SETUP_SAMPLES)]
    raw = {"wall": [], "times": [], "setups": setups, "calibration": [calibrate()]}
    kernels = raw["calibration"]

    def host_scale() -> float:
        kernels.append(calibrate())
        return 2 * CALIBRATION_S / (kernels[-2] + kernels[-1])

    deadline = time.perf_counter() + seconds
    while runs.attempted < 3 or time.perf_counter() < deadline:
        elapsed = runs.run()
        scale = host_scale()
        if elapsed is not None:
            raw["wall"].append(elapsed)
            raw["times"].append(elapsed * scale)
    if not raw["times"]:
        return {}, raw
    run_s = statistics.median(raw["times"])
    metrics = {
        "run_s": (run_s, "s"),
        "cells_per_s": (runs.workload.cells / run_s, "1/s"),
        "setup_s": (statistics.median(raw["setups"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, raw


def per_layer(runs: Runs, seconds: float) -> tuple[dict, dict]:
    """Untimed warm-up run, then untraced and traced runs alternating until
    the deadline. Per-layer values are medians over the traced runs."""
    runs.run()
    plain, traced, rows = [], [], []
    deadline = time.perf_counter() + seconds
    while runs.attempted < 3 or time.perf_counter() < deadline:
        untraced = runs.run()
        tracer = Tracer()
        with tracer:
            elapsed = runs.run()
        if untraced is not None and elapsed is not None:
            plain.append(untraced)
            traced.append(elapsed)
            rows.append((elapsed, tracer.summary(), tracer.counts))
    raw = {"plain": plain, "traced": traced, "missing": tracer.missing}
    if not rows:
        return {}, raw
    missing = set(tracer.missing)
    values: dict[str, tuple[list[float], str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        values.setdefault(name, ([], unit))[0].append(value)

    for run_s, summary, counts in rows:
        for name in SPAN_NAMES:
            if name in missing:
                continue
            row = summary.get(name, {"calls": 0, "self_s": 0.0})
            add(f"{name}.calls", row["calls"], "count")
            add(f"{name}.self_s", row["self_s"], "s")
            add(f"{name}.share", row["self_s"] / run_s, "ratio")
        for name in COUNT_NAMES:
            if name not in missing:
                add(f"{name}.calls", counts[name], "count")
        if counts["evolution.slots"]:
            add(
                "evolution.unique_tested_ratio",
                counts["evolution.tested"] / counts["evolution.slots"],
                "ratio",
            )
    metrics = {k: (statistics.median(v), unit) for k, (v, unit) in values.items()}
    # Adjacent runs see the same host phase, so compare them in pairs.
    overheads = [t - p for p, t in zip(plain, traced)]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    raw["spans"] = tracer.spans
    return metrics, raw


def report(workload_name: str, workload: Workload, runs: Runs, metrics: dict, raw: dict, info: dict) -> str:
    lines = [
        f"workload {workload_name}: preset {workload.preset}, {workload.reps} reps x "
        f"{len(workload.traffic)} traffic levels = {workload.cells} cells per run"
        + (", fixed evaluator" if workload.fixed_evaluator else ""),
        "machine: " + ", ".join(f"{k} {v}" for k, v in info.items()),
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<44} {value:>14.6g} {unit}")
    for label, key in (("run_s", "times"), ("wall run_s", "wall"), ("traced wall run_s", "traced")):
        times = raw.get(key)
        if times:
            pct = tail(times)
            extra = f"p{pct[0]} {pct[1]:.6g} s" if pct else "no percentile with 10 runs beyond"
            lines.append(f"{label}: median {statistics.median(times):.6g} s of {len(times)} runs, "
                         f"{extra}, min {min(times):.6g} s")
    if raw.get("calibration"):
        lines.append(f"calibration: median {statistics.median(raw['calibration']):.6g} s "
                     f"of {len(raw['calibration'])} (scaled to {CALIBRATION_S} s)")
    for name in raw.get("missing", []):
        lines.append(f"{name}: missing (no longer defined by the program)")
    failed = len(runs.failures)
    lines.append(f"{'failed_frac':<44} {failed / runs.attempted:>14.6g} ratio "
                 f"({failed} of {runs.attempted} runs)")
    lines += [f"csv sha256 {d} ({n} runs)" for d, n in runs.digests.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (SRC / "mvtlab" / "__init__.py").is_file():
        print(f"error: no mvtlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mvtlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mvtlab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = WORK / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    runs = Runs(cli, workload, args.seed, out)
    measure = per_layer if args.trace else end_to_end
    metrics, raw = measure(runs, args.seconds)
    info = machine(args.seed)
    print(report(args.workload, workload, runs, metrics, raw, info))

    spans = raw.pop("spans", None)
    doc = {
        "workload": args.workload, "spec": dataclasses.asdict(workload), "machine": info,
        "trace": args.trace, "seconds": args.seconds, "attempted": runs.attempted,
        "failures": runs.failures, "csv_sha256": dict(runs.digests), "samples": raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    if spans is not None:
        # Spans of the last traced run: (id, parent id, name, start, end).
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans) + "\n")

    result = {
        "correct": not runs.failures and bool(metrics),
        "attempted": runs.attempted,
        "failed": len(runs.failures),
        "metrics": doc["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
