"""Grid-oracle step of the menu_scale workload.

Usage, from the repository root with src/ on PYTHONPATH:

    python3 perfbench/oracle_step.py INSTANCES.json RESULT.json

Runs fedpact's brute-force grid oracle on every instance in INSTANCES.json
and writes each winning menu, its objective and the search counts to
RESULT.json.  Judging the winners is left to checks.oracle.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from fedpact import contracts


def search(instance: dict) -> dict:
    n = len(instance["thetas"])
    profile = contracts.TypeProfile.from_arrays(instance["thetas"], instance["betas"], instance["c"])
    curve = contracts.RevenueCurve.exponential(instance["curve"]["a"], instance["curve"]["b"])
    grid = contracts.GridSpec(
        fee_ranges=[instance["fee_range"]] * n,
        reward_ranges=[instance["reward_range"]] * n,
        fee_steps=instance["steps"],
        reward_steps=instance["steps"],
    )
    result = contracts.grid_search_menu(profile, curve, instance["benchmarks"], grid)
    return {
        "found": result.found,
        "menu": result.menu.to_dict() if result.found else None,
        "objective": result.objective,
        "n_evaluated": result.n_evaluated,
        "n_feasible": result.n_feasible,
    }


def main(argv: list[str]) -> int:
    instances_path, result_path = argv
    instances = json.loads(Path(instances_path).read_text())
    results = [search(instance) for instance in instances]
    Path(result_path).parent.mkdir(parents=True, exist_ok=True)
    with open(result_path, "w") as fh:
        json.dump({"results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
