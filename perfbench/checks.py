"""Output checks, one per command kind.

Each check reads what a command wrote and returns one message per failed
operation (an empty list when everything holds).  The checks hold for every
workload seed: they test invariants of the outputs, not the scheme orderings
the acceptance suite probes on fixed seeds.  Paths are relative to ``root``.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

FEASIBILITY_TOLERANCE = 1e-9
CALIBRATION_TOLERANCE = 0.02
LEDGER_REL_TOLERANCE = 1e-9


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _one(name: str, problems: list[str]) -> list[str]:
    return [f"{name}: " + "; ".join(problems[:3])] if problems else []


def compare(out: Path, config: dict, root: Path) -> list[str]:
    """Accuracies in [0, 1] or NaN, calibrated qualities within 0.02, row counts."""
    problems = []
    seeds, cs, schemes = config["seeds"], config["c_values"], config["schemes"]
    rounds = _rows(root / out / "comparison.csv")
    if len(rounds) != len(seeds) * len(cs) * len(schemes):
        problems.append(f"comparison.csv has {len(rounds)} rows")
    for row in rounds:
        accuracy = float(row["accuracy"])
        if not (math.isnan(accuracy) or 0.0 <= accuracy <= 1.0):
            problems.append(f"accuracy {accuracy} outside [0, 1]")
    clients = _rows(root / out / "clients.csv")
    recorded = len({"contract", "flat"} & set(schemes))
    if len(clients) != len(seeds) * len(cs) * recorded * config["population"]:
        problems.append(f"clients.csv has {len(clients)} rows")
    for row in clients:
        gap = abs(float(row["theta_measured"]) - float(row["theta_target"]))
        if not gap <= CALIBRATION_TOLERANCE:
            problems.append(f"client {row['client_id']} quality off by {gap}")
    json.loads((root / out / "summary.json").read_text())  # raises unless valid JSON
    return _one("compare", problems)


def simulate(out: Path, config: dict, root: Path) -> list[str]:
    """Every ledger total equals the matching sum over the per-client CSV."""
    problems = []
    stochastic = config["mode"] != "analytic"
    for seed in config["seeds"]:
        ledger = json.loads((root / out / f"round_seed{seed}.json").read_text())
        rows = _rows(root / out / f"round_seed{seed}.csv")
        fees, rewards, forfeits = [], [], []
        participants = successes = 0
        for row in rows:
            if row["choice"] == "reject":
                continue
            participants += 1
            fee, reward = float(row["fee"]), float(row["reward"])
            fees.append(fee)
            if stochastic:
                if row["succeeded"] == "True":
                    successes += 1
                    rewards.append(reward)
                else:
                    forfeits.append(fee)
            else:
                p = float(row["success_prob"])
                rewards.append(p * reward)
                forfeits.append((1.0 - p) * fee)
        expected = {
            "n_clients": config["population"],
            "participants": participants,
            "successes": successes,
            "fees_collected": math.fsum(fees),
            "rewards_paid": math.fsum(rewards),
            "fees_forfeited": math.fsum(forfeits),
        }
        if len(rows) != config["population"]:
            problems.append(f"seed {seed}: CSV has {len(rows)} rows")
        for key, value in expected.items():
            if not math.isclose(ledger[key], value, rel_tol=LEDGER_REL_TOLERANCE, abs_tol=1e-12):
                problems.append(f"seed {seed}: ledger {key} {ledger[key]!r} != CSV sum {value!r}")
        weights = ledger["aggregation_weights"].values()
        if weights and not math.isclose(math.fsum(weights), 1.0, abs_tol=1e-9):
            problems.append(f"seed {seed}: aggregation weights sum to {math.fsum(weights)}")
    return _one("simulate", problems)


def _menu_problems(menu: dict, types: int) -> list[str]:
    rewards = [item["R"] for item in menu["items"]]
    problems = [] if len(rewards) == types else [f"menu has {len(rewards)} items"]
    if any(b < a for a, b in zip(rewards, rewards[1:])):
        problems.append("rewards decrease")
    return problems


def solve(out: Path, types: int, root: Path) -> list[str]:
    """Feasible report and non-decreasing rewards (exit 0 is checked by the caller)."""
    report = json.loads((root / out / "feasibility.json").read_text())
    menu = json.loads((root / out / "menu.json").read_text())
    problems = _menu_problems(menu, types)
    if report["feasible"] is not True:
        problems.append("feasibility.json says infeasible")
    return _one("solve", problems)


def audit(out: Path, menu_path: Path, root: Path) -> list[str]:
    """The audited menu is feasible and its rewards are non-decreasing."""
    report = json.loads((root / out / "audit.json").read_text())
    menu = json.loads((root / menu_path).read_text())
    problems = _menu_problems(menu, len(report["ir"]))
    if report["feasible"] is not True:
        problems.append("audit.json says infeasible")
    return _one("audit", problems)


def _revenue(instance: dict, benchmark: float) -> float:
    return instance["curve"]["a"] * math.exp(instance["curve"]["b"] * benchmark)


def closed_form(instance: dict) -> tuple[list[float], list[float]]:
    """The paper's menu for sorted benchmarks: R_i = G(M_i), fees by the binding recursion."""
    thetas, c = instance["thetas"], instance["c"]
    rewards = [_revenue(instance, m) for m in instance["benchmarks"]]
    fees = [(thetas[0] * rewards[0]) ** 2 / (2.0 * c)]
    for i in range(1, len(rewards)):
        fees.append(fees[-1] + thetas[i] ** 2 * (rewards[i] ** 2 - rewards[i - 1] ** 2) / (2.0 * c))
    return fees, rewards


def _objective(instance: dict, fees: list[float], rewards: list[float]) -> float:
    thetas, betas, c = instance["thetas"], instance["betas"], instance["c"]
    return sum(
        beta * (fee + theta**2 * reward * (_revenue(instance, m) - reward) / c)
        for theta, beta, fee, reward, m in zip(thetas, betas, fees, rewards, instance["benchmarks"])
    )


def _feasible(instance: dict, fees: list[float], rewards: list[float]) -> bool:
    thetas, c = instance["thetas"], instance["c"]

    def utility(i: int, j: int) -> float:
        return (thetas[i] * rewards[j]) ** 2 / (2.0 * c) - fees[j]

    n = len(fees)
    return all(utility(i, i) >= -FEASIBILITY_TOLERANCE for i in range(n)) and all(
        utility(i, i) - utility(i, j) >= -FEASIBILITY_TOLERANCE
        for i in range(n) for j in range(n) if i != j
    )


def oracle(result_path: Path, instances: list[dict], root: Path) -> list[str]:
    """Per instance: found, winner feasible, within the grid slack of the closed form.

    The slack is two grid steps of objective, as the acceptance suite's
    grid-oracle criterion derives it: the fee construction can lose up to
    2*df and the reward snap up to dR per type at bounded sensitivity.
    """
    results = json.loads((root / result_path).read_text())["results"]
    if len(results) != len(instances):
        return [f"oracle: {len(results)} results for {len(instances)} instances"] * len(instances)
    failures = []
    for k, (instance, result) in enumerate(zip(instances, results)):
        if not result["found"]:
            failures.append(f"oracle {k}: no feasible grid point")
            continue
        fees = [item["f"] for item in result["menu"]["items"]]
        rewards = [item["R"] for item in result["menu"]["items"]]
        objective = _objective(instance, fees, rewards)
        formula = _objective(instance, *closed_form(instance))
        reward_hi = instance["reward_range"][1]
        df = instance["fee_range"][1] / (instance["steps"] - 1)
        dr = reward_hi / (instance["steps"] - 1)
        sensitivity = max(
            theta**2 * max(_revenue(instance, m), 2 * reward_hi - _revenue(instance, m))
            for theta, m in zip(instance["thetas"], instance["benchmarks"])
        ) / instance["c"]
        slack = 2 * df + 2 * dr * sensitivity
        if not _feasible(instance, fees, rewards):
            failures.append(f"oracle {k}: winner infeasible")
        elif objective < formula - slack:
            failures.append(f"oracle {k}: objective {objective} below formula {formula} - {slack}")
        elif not math.isclose(objective, result["objective"], rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"oracle {k}: reported objective {result['objective']} != {objective}")
    return failures
