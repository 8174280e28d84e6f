"""Seeded workload generators.

Each generator turns a workload seed into input files under the run's work
directory and returns the commands that read them.  The program sees only
these files; the seed reaches it through nothing else.  Why each workload
exists is written in BENCHMARK.json.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks


COMPARE_SEEDS = 10
ROUND_CLIENTS = 200_000
MENU_TYPES = 300
MENU_CLIENTS = 10_000
ORACLE_INSTANCES = 10
ORACLE_GRID_STEPS = 101


@dataclass(frozen=True)
class Step:
    """One command of a pass.

    ``kind`` is "cli" (``python3 -m fedpact ARGS``) or "oracle"
    (``perfbench/oracle_step.py ARGS``).  ``check(root)`` returns one message
    per failed operation; a step performs ``ops`` operations.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    check: Callable[[Path], list[str]]
    ops: int = 1


@dataclass(frozen=True)
class Plan:
    steps: tuple[Step, ...]
    config: str  # the config the set-up probe loads


def _write(root: Path, path: Path, payload) -> str:
    (root / path).parent.mkdir(parents=True, exist_ok=True)
    with open(root / path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def compare_synthetic(root: Path, work: Path, seed: int) -> Plan:
    config = json.loads((root / "configs" / "synthetic_default.json").read_text())
    rng = np.random.default_rng([seed, 0])
    config["seeds"] = sorted(int(s) for s in rng.choice(10**6, COMPARE_SEEDS, replace=False))
    path = _write(root, work / "inputs" / "compare.json", config)
    out = work / "out" / "compare"
    return Plan(
        steps=(
            Step("compare", "cli", ("compare", "--config", path, "--out", str(out)),
                 partial(checks.compare, out, config)),
        ),
        config=path,
    )


def round_population(root: Path, work: Path, seed: int) -> Plan:
    config = json.loads((root / "configs" / "mnist_contracts.json").read_text())
    rng = np.random.default_rng([seed, 1])
    config.update(population=ROUND_CLIENTS, mode="ml", seeds=[int(rng.integers(10**6))])
    path = _write(root, work / "inputs" / "round.json", config)
    out = work / "out" / "simulate"
    return Plan(
        steps=(
            Step("simulate", "cli", ("simulate", "--config", path, "--out", str(out)),
                 partial(checks.simulate, out, config)),
        ),
        config=path,
    )


def _oracle_instance(rng: np.random.Generator, position: float) -> dict:
    """A two-type instance for the grid oracle.

    The oracle's cost grows with theta_1 / theta_2 (it scans every grid menu
    whose low type participates), so the ratio is stratified: ``position``
    in [0, 1) picks where in [0.2, 0.9] it falls, and each seed's instances
    span that range evenly.  The remaining draws match the acceptance suite's
    grid-oracle check.
    """
    theta2 = float(rng.uniform(0.5, 1.0))
    thetas = [theta2 * (0.2 + 0.7 * position), theta2]
    beta1 = float(rng.uniform(0.2, 0.8))
    instance = {
        "thetas": thetas,
        "betas": [beta1, 1.0 - beta1],
        "c": float(rng.uniform(0.5, 2.0)),
        "curve": {"a": float(rng.uniform(0.3, 1.0)), "b": float(rng.uniform(0.5, 2.0))},
        "benchmarks": [0.3, 0.5],
        "steps": ORACLE_GRID_STEPS,
    }
    fees, rewards = checks.closed_form(instance)
    instance["fee_range"] = [0.0, 1.2 * max(fees) + 0.01]
    instance["reward_range"] = [0.0, 1.2 * max(rewards) + 0.01]
    return instance


def menu_scale(root: Path, work: Path, seed: int) -> Plan:
    rng = np.random.default_rng([seed, 2])
    config = {
        "schema_version": 1,
        "profile": {
            "thetas": np.sort(rng.uniform(0.05, 1.0, MENU_TYPES)).tolist(),
            "betas": rng.dirichlet(np.ones(MENU_TYPES)).tolist(),
            "c": float(rng.uniform(0.5, 2.0)),
        },
        "curve": {
            "kind": "exponential",
            "a": float(rng.uniform(0.3, 1.0)),
            "b": float(rng.uniform(0.5, 2.0)),
        },
        "benchmarks": np.sort(rng.uniform(0.0, 1.0, MENU_TYPES)).tolist(),
        "population": MENU_CLIENTS,
        "seeds": [int(rng.integers(10**6))],
        "mode": "analytic",
    }
    path = _write(root, work / "inputs" / "menu.json", config)
    positions = (np.arange(ORACLE_INSTANCES) + rng.random(ORACLE_INSTANCES)) / ORACLE_INSTANCES
    instances = [_oracle_instance(rng, float(p)) for p in positions]
    instances_path = _write(root, work / "inputs" / "oracle.json", instances)
    out = work / "out"
    menu = str(out / "solve" / "menu.json")
    result = out / "oracle" / "result.json"
    return Plan(
        steps=(
            Step("solve", "cli", ("solve", "--config", path, "--out", str(out / "solve")),
                 partial(checks.solve, out / "solve", MENU_TYPES)),
            Step("audit", "cli",
                 ("audit", menu, "--config", path, "--out", str(out / "audit")),
                 partial(checks.audit, out / "audit", Path(menu))),
            Step("simulate", "cli",
                 ("simulate", "--config", path, "--out", str(out / "simulate")),
                 partial(checks.simulate, out / "simulate", config)),
            Step("oracle", "oracle", (instances_path, str(result)),
                 partial(checks.oracle, result, instances), ops=len(instances)),
        ),
        config=path,
    )


GENERATORS = {
    "compare_synthetic": compare_synthetic,
    "round_population": round_population,
    "menu_scale": menu_scale,
}
