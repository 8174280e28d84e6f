"""Command-line harness: solve menus, audit feasibility, simulate, compare.

Exit codes: 0 success, 2 config/validation error, 3 infeasible menu,
4 runtime failure (an allocation that cannot be satisfied included).
All outputs are deterministic functions of the config file and its
seeds, so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .contracts import ContractMenu, solve_optimal_menu, verify_feasibility
from .learning import run_scheme_comparison
from .simulation import run_round

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file with ``--seed-override`` and ``--out`` applied, checked again."""
    config = ExperimentConfig.from_json(args.config)
    if getattr(args, "seed_override", None) is not None:
        config = replace(config, seeds=(args.seed_override,))
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _out_dir(config: ExperimentConfig) -> Path:
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_solve(args: argparse.Namespace) -> int:
    """Solve the optimal menu and write it with its feasibility report."""
    config = _load_config(args)
    menu = solve_optimal_menu(config.profile, config.curve, config.benchmarks)
    report = verify_feasibility(config.profile, menu)
    out = _out_dir(config)
    menu.to_json(out / "menu.json")
    report.to_json(out / "feasibility.json")
    print(f"menu: {out / 'menu.json'}")
    print(f"feasibility: {out / 'feasibility.json'}")
    print(f"feasible: {report.feasible}; IR binding at types {list(report.ir_binding)}")
    if not report.feasible:
        for line in report.violations():
            print(f"  violated: {line}")
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    """Check an externally supplied menu against the config's profile."""
    config = _load_config(args)
    menu = ContractMenu.from_json(args.menu)
    report = verify_feasibility(config.profile, menu)
    out = _out_dir(config)
    report.to_json(out / "audit.json")
    print(f"audit: {out / 'audit.json'}")
    print(f"feasible: {report.feasible}")
    ir_binding, ic_binding = set(report.ir_binding), set(report.ic_binding)
    for i, slack in enumerate(report.ir_slacks.tolist(), start=1):
        print(f"  IR type {i}: slack {slack:.6g}{' (binding)' if i in ir_binding else ''}")
    for i, j, slack in report.tight:  # binding or violated
        state = "binding" if (i, j) in ic_binding else "VIOLATED"
        print(f"  IC {i} vs {j}: slack {slack:.6g} ({state})")
    if not report.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one contracting round per seed and write ledger + per-client files."""
    config = _load_config(args)
    menu = solve_optimal_menu(config.profile, config.curve, config.benchmarks)
    out = _out_dir(config)
    for seed in config.seeds:
        outcome = run_round(
            config.profile, menu, config.curve, config.population, config.mode, seed
        )
        outcome.to_json(out / f"round_seed{seed}.json")
        outcome.clients_to_csv(out / f"round_seed{seed}.csv")
        mean_utility = outcome.realized_server_utility / len(outcome.client_type)
        ties = np.count_nonzero(outcome.type_tied[outcome.client_type])
        print(
            f"seed {seed}: mode {config.mode}, participants "
            f"{outcome.participants}/{config.population}, "
            f"mean server utility {mean_utility:.6g}, ties {ties}"
        )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the three-scheme comparison and write CSV + JSON summaries."""
    config = _load_config(args)
    report = run_scheme_comparison(config)
    out = _out_dir(config)
    report.rounds_to_csv(out / "comparison.csv")
    report.clients_to_csv(out / "clients.csv")
    report.summary_to_json(out / "summary.json")
    orderings = report.orderings()  # what summary.json holds, None as null
    print(f"comparison: {out / 'comparison.csv'}")
    for c_key, entry in orderings["per_c"].items():
        means = ", ".join(f"{s}={_shown(v)}" for s, v in entry["means"].items())
        print(f"c={c_key}: {means}")
        for claim in ("contract_ge_fedavg", "fedavg_ge_flat"):
            if claim in entry:
                print(f"  {claim}: {_shown(entry[claim])}")
    if "contract_small_c_ge_large_c" in orderings:
        print(f"contract_small_c_ge_large_c: {_shown(orderings['contract_small_c_ge_large_c'])}")
    return EXIT_OK


def _shown(value: float | bool | None) -> str:
    """A mean to four places or a verdict, ``null`` where summary.json has null."""
    return "null" if value is None else f"{value:.4f}" if isinstance(value, float) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpact",
        description="Contract menus and coverage-aware aggregation for federated rounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, summary: str, *, seeds: bool = False):
        """A subcommand with the flags its ``fn`` reads and no others."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if seeds:
            p.add_argument("--seed-override", dest="seed_override", type=int, default=None,
                           help="replace the config's seed list with this single seed")
        p.set_defaults(fn=fn)
        return p

    command("solve", cmd_solve, "solve the optimal menu for a config")
    command("audit", cmd_audit, "audit a menu file against a config's profile").add_argument(
        "menu", help="menu JSON to audit")
    command("simulate", cmd_simulate, "run contracting rounds per seed", seeds=True)
    command("compare", cmd_compare, "run the aggregation-scheme comparison", seeds=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
