"""Self-test of the benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

1. The round_population output passes its check, and fails it once one fee
   in the per-client CSV is changed.
2. A run in each trace mode ends with a result line whose metric names and
   units are exactly those BENCHMARK.json lists for that mode.

Exits 0 when both hold; prints what failed otherwise.
"""
from __future__ import annotations

import csv
import json
import subprocess
import sys

import run
import workloads


def changed_fee_is_caught() -> list[str]:
    work = run.WORK / "selftest"
    plan = workloads.round_population(run.ROOT, work, seed=1)
    clean = run.run_pass(plan, work, 0, traced=False)
    if clean.failures:
        return [f"clean round output failed: {clean.failures}"]
    config = json.loads((run.ROOT / plan.config).read_text())
    path = run.ROOT / work / "out" / "simulate" / f"round_seed{config['seeds'][0]}.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fee = rows[0].index("fee")
    row = next(r for r in rows[1:] if r[rows[0].index("choice")] != "reject")
    row[fee] = repr(float(row[fee]) + 0.01)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    if not plan.steps[0].check(run.ROOT):
        return ["a round CSV with one fee changed passed the simulate check"]
    return []


def metric_names_match() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "menu_scale", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"--trace {trace}: no result line (exit {proc.returncode}): "
                            f"{proc.stderr[-300:]}")
            continue
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        expected = {m["name"]: m["unit"] for m in spec[section]}
        if emitted != expected:
            problems.append(f"--trace {trace}: emitted {sorted(emitted.items())}, "
                            f"BENCHMARK.json lists {sorted(expected.items())}")
        if proc.returncode != 0 or not result["correct"]:
            problems.append(f"--trace {trace}: exit {proc.returncode}, result {result}")
    return problems


def main() -> int:
    problems = changed_fee_is_caught() + metric_names_match()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
