"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through run.main, traced and untraced,
and checks that each metric BENCHMARK.json names is printed, by name and
with its unit, in both the report and the JSON result line. Then checks
that the output gate rejects tampered CSVs and a run whose CSV bytes differ
from the first run's. Exits non-zero on the first group of failures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys

import run

TINY = {"reps": 2, "traffic": (1_000, 10_000)}
SEED = 7


def check_printed(name: str, trace: int, spec: dict) -> list[str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", str(SEED),
                         "--seconds", "0.1", "--trace", str(trace)])
    text = stdout.getvalue()
    result = json.loads(text.strip().splitlines()[-1])
    errors = [] if code == 0 else [f"exit code {code}"]
    if not result["correct"] or result["failed"]:
        errors.append(f"runs failed: {result}")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"], {}).get("unit")
        if got != metric["unit"]:
            errors.append(f"{metric['name']}: JSON unit {got!r}, expected {metric['unit']!r}")
        line = rf"^{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b"
        if not re.search(line, text, re.M):
            errors.append(f"{metric['name']}: not printed with unit {metric['unit']}")
    return [f"{name} trace {trace}: {e}" for e in errors]


def tampered(csv: str) -> dict[str, str]:
    header, first, *rest = csv.splitlines()
    traffic, method, mean, lo, hi = first.split(",")
    variants = {
        "row dropped": [header, *rest],
        "row duplicated": [header, first, first, *rest],
        "mean above hi": [header, f"{traffic},{method},{float(hi) + 1e-4},{lo},{hi}", *rest],
        "rate below floor": [header, f"{traffic},{method},0.0005,0.0004,{hi}", *rest],
        "method renamed": [header, f"{traffic},taguchi,{mean},{lo},{hi}", *rest],
        "header changed": [header.upper(), first, *rest],
        "not a number": [header, f"{traffic},{method},nan,{lo},{hi}", *rest],
    }
    return {k: "\n".join(v) + "\n" for k, v in variants.items()}


def check_gate() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    from mvtlab import cli

    workload = run.WORKLOADS["setting1-linear"]
    runs = run.Runs(cli, workload, SEED, run.WORK / "selftest")
    runs.out.mkdir(parents=True, exist_ok=True)
    errors = [] if runs.run() is not None else [f"clean run failed: {runs.failures}"]
    csv = runs.paths[0].read_text()
    if run.check_csv(csv, workload):
        errors.append(f"gate rejects an untouched CSV: {run.check_csv(csv, workload)}")
    for label, text in tampered(csv).items():
        if not run.check_csv(text, workload):
            errors.append(f"gate accepts a CSV with {label}")
    runs.seed += 1
    if runs.run() is not None or "differs" not in runs.failures[-1]:
        errors.append("gate accepts a run whose CSV differs from the first run's")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS = {k: dataclasses.replace(w, **TINY) for k, w in run.WORKLOADS.items()}
    errors = [e for name in run.WORKLOADS for t in (0, 1) for e in check_printed(name, t, spec)]
    errors += check_gate()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
