"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the per-instance oracle gaps.
"""
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fedpact.config import ExperimentConfig
from fedpact.contracts import (
    ContractMenu,
    GridSpec,
    RevenueCurve,
    TypeProfile,
    grid_search_menu,
    server_expected_utility,
    solve_optimal_menu,
    verify_feasibility,
)
from fedpact.coverage import PointCloud, coverage_quality, quality_draws
from fedpact.learning import run_scheme_comparison
from fedpact.simulation import run_round
from conftest import (
    best_rows,
    clamped_expected_utility,
    dense_ic_slacks,
    random_benchmarks,
    random_increasing_convex_curve,
    random_profile,
    src_env,
)

TOL = 1e-9


def rebated(menu: ContractMenu, delta: float = 1e-6) -> ContractMenu:
    """Strictly incentive-compatible copy of a solved menu (fees lowered by
    i * delta) so simulated choices are unique rather than tied."""
    index = np.arange(1, len(menu) + 1)
    return ContractMenu(np.maximum(menu.fees - delta * index, 0.0), menu.rewards, menu.benchmarks)


@pytest.fixture(scope="module")
def solved_instances():
    """1,000 randomized solver instances shared by criteria 1 and 2."""
    rng = np.random.default_rng(1001)
    instances = []
    start = time.time()
    for _ in range(1000):
        profile = random_profile(rng)          # I in 2..10, c in [0.1, 10]
        benchmarks = random_benchmarks(rng, len(profile))
        curve = random_increasing_convex_curve(rng, benchmarks)
        menu = solve_optimal_menu(profile, curve, benchmarks)
        instances.append((profile, menu))
    elapsed = time.time() - start
    assert elapsed < 10.0, f"solving 1000 instances took {elapsed:.1f}s"
    return instances


@pytest.fixture(scope="module")
def default_comparison(synthetic_config_path):
    """Criterion 7's full run, shared with criterion 8."""
    config = ExperimentConfig.from_json(synthetic_config_path)
    start = time.time()
    report = run_scheme_comparison(config)
    elapsed = time.time() - start
    assert elapsed < 300.0, f"scheme comparison took {elapsed:.1f}s"
    return report


def test_criterion_1_closed_form_feasibility(solved_instances):
    start = time.time()
    for profile, menu in solved_instances:
        report = verify_feasibility(profile, menu, tolerance=TOL)
        assert report.feasible, report.violations()
        assert abs(report.ir_slacks[0]) <= TOL
        slacks = dense_ic_slacks(profile, menu)
        for i in range(2, len(profile) + 1):
            assert abs(slacks[i - 1, i - 2]) <= TOL
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"\n[PASS] criterion 1: 1000 solved menus feasible at 1e-9; "
        f"IR binds at type 1, adjacent downward IC tight ({elapsed:.1f}s)"
    )


def test_criterion_2_monotonicity_lemmas(solved_instances):
    for profile, menu in solved_instances:
        thetas = profile.thetas
        fees, rewards = menu.fees, menu.rewards
        n = len(profile)
        for i in range(n):
            for j in range(i + 1, n):
                assert (thetas[i] - thetas[j]) * (rewards[i] - rewards[j]) >= 0
                assert (rewards[i] - rewards[j]) * (fees[i] - fees[j]) >= 0
                assert (thetas[i] - thetas[j]) * (fees[i] - fees[j]) >= 0
    print("\n[PASS] criterion 2: pairwise (theta,R), (R,f), (theta,f) co-monotone on all 1000 menus")


def test_criterion_3_grid_oracle_cross_check():
    rng = np.random.default_rng(303)
    start = time.time()
    gaps = []
    for trial in range(50):
        while True:
            thetas = np.sort(rng.uniform(0.2, 1.0, 2))
            if thetas[1] - thetas[0] > 0.05:
                break
        beta1 = float(rng.uniform(0.2, 0.8))
        c = float(rng.uniform(0.5, 2.0))
        profile = TypeProfile.from_arrays(thetas, [beta1, 1 - beta1], c)
        curve = RevenueCurve.exponential(
            float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.5, 2.0))
        )
        benchmarks = [0.3, 0.5]
        menu = solve_optimal_menu(profile, curve, benchmarks)
        formula_obj = server_expected_utility(profile, menu, curve)

        fee_hi = 1.2 * float(menu.fees.max()) + 0.01
        reward_hi = 1.2 * float(menu.rewards.max()) + 0.01
        grid = GridSpec(
            fee_ranges=[(0.0, fee_hi)] * 2,
            reward_ranges=[(0.0, reward_hi)] * 2,
            fee_steps=101,     # step = 1% of the fee range
            reward_steps=101,  # step = 1% of the reward range
        )
        result = grid_search_menu(profile, curve, benchmarks, grid)
        assert result.found, "oracle found no feasible grid point"

        # two grid steps of objective slack: the fee construction can lose up
        # to 2*df, the reward snap up to dR per type at bounded sensitivity
        df, dr = fee_hi / 100, reward_hi / 100
        sensitivity = max(
            theta**2 * max(curve(m), 2 * reward_hi - curve(m)) / c
            for theta, m in zip(profile.thetas.tolist(), benchmarks)
        )
        slack = 2 * df + 2 * dr * sensitivity
        gap = result.objective - formula_obj
        gaps.append(gap)
        assert result.objective >= formula_obj - slack, (
            f"instance {trial}: grid {result.objective} vs formula {formula_obj}"
        )
    elapsed = time.time() - start
    assert elapsed < 60.0, f"50 grid searches took {elapsed:.1f}s"
    gaps = np.array(gaps)
    for trial, gap in enumerate(gaps):
        print(f"  instance {trial:2d}: grid - formula objective gap = {gap:+.6f}")
    print(
        f"[PASS] criterion 3: 50 grid oracles within slack of the closed form; "
        f"gap range [{gaps.min():+.5f}, {gaps.max():+.5f}] "
        f"(positive gaps reported, not judged) ({elapsed:.1f}s)"
    )


def test_criterion_4_coverage_oracle():
    start = time.time()
    mid = coverage_quality(PointCloud(1, [[0.5]]), quality_draws(1, 100_000, 42))
    end = coverage_quality(PointCloud(1, [[0.0]]), quality_draws(1, 100_000, 43))
    elapsed = time.time() - start
    assert mid == pytest.approx(0.75, abs=0.01)
    assert end == pytest.approx(0.5, abs=0.01)
    assert elapsed < 5.0
    print(
        f"\n[PASS] criterion 4: midpoint quality {mid:.4f} (0.75 +- 0.01), "
        f"endpoint {end:.4f} (0.50 +- 0.01) ({elapsed:.2f}s)"
    )


def test_criterion_5_truthful_selection(mnist_config_path, tmp_path):
    config = ExperimentConfig.from_json(mnist_config_path)
    profile, curve = config.profile, config.curve
    menu = solve_optimal_menu(profile, curve, config.benchmarks)
    start = time.time()
    outcome = run_round(profile, menu, curve, 10_000, "analytic", seed=7)
    tie_count = 0
    tied_ids = set()
    types = outcome.client_type.tolist()
    for cid, t in enumerate(types):
        i, chosen = t + 1, outcome.type_choice[t] + 1
        if not outcome.type_tied[t]:
            assert chosen == i, f"non-tied client of type {i} chose {chosen}"
        else:
            tie_count += 1
            tied_ids.add(cid)
            tie = tuple(k + 1 for k in best_rows(float(profile.thetas[t]), menu, profile.unit_cost))
            assert tie == (i - 1, i), f"type {i} tied on {tie}, not its adjacent boundary"
            assert chosen == i - 1, f"tied client of type {i} chose {chosen}, not the lower item"
    elapsed = time.time() - start
    assert elapsed < 5.0
    outcome.to_json(tmp_path / "round.json")
    logged = json.loads((tmp_path / "round.json").read_text())["tied_types"]
    assert {cid for cid, t in enumerate(types) if t + 1 in logged} == tied_ids
    print(
        f"\n[PASS] criterion 5: 10000 clients truthful off ties; {tie_count} ties, "
        f"all at adjacent tight-IC boundaries, logged ({elapsed:.1f}s)"
    )


def test_criterion_6_expected_utility_convergence(mnist_settings):
    ratios = [
        e / t for e, t in zip(mnist_settings["optimal_efforts"], mnist_settings["thetas"])
    ]
    instances = [
        ("I2-canonical",
         TypeProfile.from_arrays([0.5, 1.0], [0.5, 0.5], 1.0),
         RevenueCurve.from_table([0.3, 0.5], [1.0, 2.0]), [0.3, 0.5]),
        ("I3-mixed",
         TypeProfile.from_arrays([0.3, 0.6, 0.9], [0.2, 0.5, 0.3], 1.5),
         RevenueCurve.exponential(0.5, 2.0), [0.3, 0.5, 0.7]),
        ("I5-ramp",
         TypeProfile.from_arrays(np.linspace(0.5, 0.9, 5), [0.2] * 5, 2.0),
         RevenueCurve.exponential(0.8, 1.5), list(np.linspace(0.2, 0.6, 5))),
        ("I8-lowcost",
         TypeProfile.from_arrays(np.linspace(0.55, 0.90, 8), [0.125] * 8, 0.7),
         RevenueCurve.exponential(0.3, 2.2), list(np.linspace(0.3, 0.65, 8))),
        ("I10-reference",
         TypeProfile.from_arrays(mnist_settings["thetas"], mnist_settings["betas"], 1.0),
         RevenueCurve.from_table(mnist_settings["benchmarks"], ratios),
         mnist_settings["benchmarks"]),
    ]
    start = time.time()
    for name, profile, curve, benchmarks in instances:
        menu = rebated(solve_optimal_menu(profile, curve, benchmarks))
        outcome = run_round(profile, menu, curve, 10_000, "analytic", seed=2024)
        mean = outcome.realized_server_utility / len(outcome.client_type)
        expected = clamped_expected_utility(profile, menu, curve)
        assert mean == pytest.approx(expected, rel=0.01), name
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"\n[PASS] criterion 6: analytic per-client mean within 1% of expected "
        f"server utility on 5 fixed instances ({elapsed:.1f}s)"
    )


def test_criterion_7_scheme_ordering(default_comparison):
    report = default_comparison
    orderings = report.orderings()
    for c_key, entry in orderings["per_c"].items():
        means = entry["means"]
        assert entry["contract_ge_fedavg"], f"c={c_key}: {means}"
        assert entry["fedavg_ge_flat"], f"c={c_key}: {means}"
    assert orderings["contract_small_c_ge_large_c"]
    lo, hi = min(report.c_values), max(report.c_values)
    print(
        "\n[PASS] criterion 7: seed-mean accuracy contract >= fedavg >= flat at every c, "
        f"and contract at c={lo} ({report.mean_accuracy(lo, 'contract'):.4f}) >= "
        f"c={hi} ({report.mean_accuracy(hi, 'contract'):.4f})"
    )


def test_criterion_8_local_vs_server_gap(default_comparison):
    rows = [
        r for r in default_comparison.clients
        if r.scheme == "contract" and not np.isnan(r.local_accuracy)
    ]
    median_theta = np.median([r.theta_measured for r in rows])
    below = [r for r in rows if r.theta_measured < median_theta]
    assert below, "no below-median clients recorded"
    frac = np.mean([r.local_accuracy > r.server_accuracy for r in below])
    assert frac >= 0.8, f"only {frac:.1%} of below-median clients show the gap"
    print(
        f"\n[PASS] criterion 8: {frac:.1%} of below-median-coverage clients have "
        f"local accuracy strictly above the server test ({len(below)} clients)"
    )


SYNTHETIC_DIGESTS = Path(__file__).parent / "fixtures" / "synthetic_default_digests.json"


def test_criterion_7_pinned_bytes(default_comparison, tmp_path):
    """Criterion 7's run writes the pinned ``compare`` outputs of the shipped
    synthetic config: 120-point clouds, whose calibration runs every prefix
    of the quality pass (criterion 9's 60-point compare stops short of 64)."""
    default_comparison.rounds_to_csv(tmp_path / "comparison.csv")
    default_comparison.clients_to_csv(tmp_path / "clients.csv")
    default_comparison.summary_to_json(tmp_path / "summary.json")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert digests == json.loads(SYNTHETIC_DIGESTS.read_text())
    print(f"\n[PASS] criterion 7: pinned bytes of {', '.join(digests)} on synthetic_default")


CLI_DIGESTS = Path(__file__).parent / "fixtures" / "cli_output_digests.json"


def cli_output_digests(tmp_path: Path, mnist_config_path: Path) -> dict[str, dict[str, str]]:
    """Run solve, audit, simulate and compare twice each on small configs;
    check the reruns write the same bytes and return the sha256 of every
    file the first run wrote, per command."""
    def run(cmd: list[str]) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "fedpact", *cmd], capture_output=True, text=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr

    def snapshot(out_dir: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    base = json.loads(mnist_config_path.read_text())
    base["population"] = 2000
    compare_payload = {
        **base,
        "mode": "ml",
        "population": 8,
        "seeds": [1, 2],
        "c_values": [0.5, 2.0],
        "profile": {"thetas": [0.55, 0.7, 0.85], "betas": [0.4, 0.3, 0.3], "c": 1.0},
        "curve": {"kind": "exponential", "a": 0.022, "b": 4.6},
        "benchmarks": [0.52, 0.58, 0.64],
        "task": {"dimension": 2, "classes": 2, "test_size": 400, "seed": 7},
        "training": {"max_epochs": 10, "n_points": 60, "learning_rate": 0.8,
                     "batch_size": 16},
    }

    digests = {}
    for command, payload in (("solve", base), ("audit", base),
                             ("simulate", base), ("compare", compare_payload)):
        snaps = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}_{attempt}"
            config_path = tmp_path / f"{command}_{attempt}.json"
            config_path.write_text(json.dumps({**payload, "out_dir": str(out)}))
            if command == "audit":
                menu_dir = tmp_path / f"menu_{attempt}"
                menu_cfg = tmp_path / f"menu_{attempt}.json"
                menu_cfg.write_text(json.dumps({**payload, "out_dir": str(menu_dir)}))
                run(["solve", "--config", str(menu_cfg)])
                run(["audit", str(menu_dir / "menu.json"), "--config", str(config_path)])
            else:
                run([command, "--config", str(config_path)])
            snaps.append(snapshot(out))
        assert snaps[0] == snaps[1], f"{command} outputs differ between reruns"
        assert snaps[0], f"{command} wrote no files"
        digests[command] = {
            name: hashlib.sha256(data).hexdigest() for name, data in snaps[0].items()
        }
    return digests


def test_criterion_9_cli_determinism(tmp_path, mnist_config_path):
    """Reruns are byte-identical, and the bytes are the pinned ones.

    ``fixtures/cli_output_digests.json`` holds the sha256 of every output
    file of ``cli_output_digests``, and of the large round below.  A change
    that alters these outputs on purpose updates the fixture and says so in
    CHANGES.md.
    """
    digests = cli_output_digests(tmp_path, mnist_config_path)
    pinned = json.loads(CLI_DIGESTS.read_text())
    del pinned[LARGE_ROUND]
    assert digests == pinned, f"outputs differ from {CLI_DIGESTS.name}"
    print(f"\n[PASS] criterion 9: byte-identical, pinned outputs for {', '.join(digests)}")


LARGE_ROUND = "simulate_ml_200k"


def test_criterion_9_large_round_bytes(tmp_path, mnist_config_path):
    """The 2e5-client ``ml`` round of the mnist profile writes the pinned
    ledger and CSV: one ledger entry per passer, one CSV row per client."""
    payload = json.loads(mnist_config_path.read_text())
    out = tmp_path / "out"
    payload.update(population=200_000, mode="ml", out_dir=str(out))
    config_path = tmp_path / "large.json"
    config_path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "fedpact", "simulate", "--config", str(config_path)],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == json.loads(CLI_DIGESTS.read_text())[LARGE_ROUND]
    print(f"\n[PASS] criterion 9: pinned bytes of the {LARGE_ROUND} round")
