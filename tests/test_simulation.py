"""Population round: contract choice, success realization, ledger identities."""
import csv
import json
import math
import warnings

import numpy as np
import pytest

from fedpact.contracts import (
    ContractItem,
    ContractMenu,
    RevenueCurve,
    TypeProfile,
    solve_optimal_menu,
)
from fedpact.seeding import child_rng
from fedpact.simulation import (
    SimulatedClient,
    aggregation_weights,
    choose_contract,
    realize_success,
    run_round,
    sample_population,
)
from conftest import random_benchmarks, random_increasing_convex_curve, random_profile


def rebated(menu: ContractMenu, delta: float = 1e-6) -> ContractMenu:
    """Strictly incentive-compatible copy: fee of item i lowered by i*delta."""
    return ContractMenu(
        items=tuple(
            ContractItem(it.index, max(it.fee - delta * it.index, 0.0), it.reward, it.benchmark)
            for it in menu
        )
    )


@pytest.fixture(scope="module")
def canonical_menu(canonical_profile, canonical_curve, canonical_benchmarks):
    return solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)


class TestChooseContract:
    def test_bottom_type_truthful(self, canonical_menu):
        choice = choose_contract(0.5, canonical_menu, 1.0)
        assert choice.index == 1
        assert choice.effort == pytest.approx(0.5)
        assert choice.utility == pytest.approx(0.0)
        assert not choice.tied

    def test_top_type_indifferent_breaks_low(self, canonical_menu):
        # (theta 1 R1)^2/2 - f1 = 0.375 = (theta 1 R2)^2/2 - f2: an exact tie,
        # broken to the lower index and flagged
        choice = choose_contract(1.0, canonical_menu, 1.0)
        assert choice.tied
        assert choice.tie_indices == (1, 2)
        assert choice.index == 1
        assert choice.effort == pytest.approx(1.0)
        assert choice.utility == pytest.approx(0.375)

    def test_low_quality_rejects(self, canonical_menu):
        choice = choose_contract(0.1, canonical_menu, 1.0)
        assert choice.rejected
        assert choice.effort == 0.0

    def test_accepts_at_exactly_zero(self):
        menu = ContractMenu(items=(ContractItem(1, 0.0, 0.0, 0.5),))
        choice = choose_contract(0.5, menu, 1.0)
        assert choice.index == 1
        assert choice.utility == 0.0

    def test_effort_clamped(self, canonical_menu):
        choice = choose_contract(1.0, rebated(canonical_menu), 0.4)
        assert choice.index == 2
        assert choice.effort == 1.0  # raw best response would be 2/0.4 = 5


class TestSamplePopulation:
    def test_degenerate_distribution(self):
        profile = TypeProfile.from_arrays([0.3, 0.7], [1.0, 0.0], 1.0)
        population = sample_population(profile, 100, seed=0)
        assert len(population) == 100
        assert all(profile.types[k].index == 1 for k in population)

    def test_single_client(self):
        profile = TypeProfile.from_arrays([0.5], [1.0], 1.0)
        assert len(sample_population(profile, 1, seed=1)) == 1

    def test_uniform_frequencies(self):
        n_types = 10
        thetas = np.linspace(0.1, 1.0, n_types)
        profile = TypeProfile.from_arrays(thetas, [1 / n_types] * n_types, 1.0)
        population = sample_population(profile, 100_000, seed=2)
        counts = np.bincount(population, minlength=n_types)
        freqs = counts / 100_000
        assert np.all(np.abs(freqs - 0.1) < 0.01)

    def test_deterministic(self):
        profile = TypeProfile.from_arrays([0.3, 0.7], [0.4, 0.6], 1.0)
        a = sample_population(profile, 50, seed=3)
        b = sample_population(profile, 50, seed=3)
        assert a.tolist() == b.tolist()


class TestRealizeSuccess:
    def test_zero_quality_never_succeeds(self):
        assert not any(realize_success(0.0, 1.0, seed=s) for s in range(50))

    def test_certain_success(self):
        assert all(realize_success(1.0, 1.0, seed=s) for s in range(50))

    def test_frequency(self):
        rng = np.random.default_rng(4)
        hits = sum(realize_success(0.8, 0.5, rng) for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(0.40, abs=0.005)

    def test_effort_domain(self):
        with pytest.raises(ValueError):
            realize_success(0.5, 1.2, seed=0)
        with pytest.raises(ValueError):
            realize_success(np.array([0.5, 0.5]), np.array([0.2, -0.1]), seed=0)

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(16)
        thetas, efforts = rng.uniform(0.0, 1.0, (2, 1000))
        batch = realize_success(thetas, efforts, np.random.default_rng(17))
        one = np.random.default_rng(17)
        assert batch.tolist() == [realize_success(t, e, one) for t, e in zip(thetas, efforts)]


class TestAggregationWeights:
    def test_single_success(self):
        weights = aggregation_weights([(7, ContractItem(1, 0.0, 5.0, 0.5))])
        assert weights == {7: 1.0}

    def test_reward_shares(self):
        items = [(1, ContractItem(1, 0, 1.0, 0.5)), (2, ContractItem(2, 0, 2.0, 0.5)),
                 (3, ContractItem(3, 0, 2.0, 0.5))]
        weights = aggregation_weights(items)
        assert weights == pytest.approx({1: 0.2, 2: 0.4, 3: 0.4})

    def test_empty(self):
        assert aggregation_weights([]) == {}

    def test_equal_rewards_exactly_uniform(self):
        items = [(i, ContractItem(i, 0, 0.7, 0.5)) for i in range(3)]
        weights = aggregation_weights(items)
        assert all(w == 1.0 / 3.0 for w in weights.values())

    def test_zero_total_falls_back_uniform(self):
        items = [(i, ContractItem(i, 0, 0.0, 0.5)) for i in range(4)]
        weights = aggregation_weights(items)
        assert all(w == 0.25 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)


class TestRunRound:
    def test_single_type_analytic_matches_per_client_formula(self):
        profile = TypeProfile.from_arrays([0.8], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.4], [1.5])
        menu = solve_optimal_menu(profile, curve, [0.4])
        outcome = run_round(profile, menu, curve, 1, "analytic", seed=5)
        item = menu[0]
        effort = min(1.0, 0.8 * item.reward / 1.0)
        expected = item.fee + 0.8 * effort * (curve(0.4) - item.reward)
        assert outcome.realized_server_utility == pytest.approx(expected)

    def test_analytic_converges_to_expected_utility(self, canonical_profile, canonical_curve, canonical_menu):
        from fedpact.contracts import server_expected_utility

        menu = rebated(canonical_menu)
        outcome = run_round(canonical_profile, menu, canonical_curve, 10_000, "analytic", seed=6)
        mean = outcome.realized_server_utility / len(outcome.clients)
        expected = server_expected_utility(canonical_profile, menu, canonical_curve, clamp_effort=True)
        assert mean == pytest.approx(expected, rel=0.01)

    def test_zero_menu_round(self):
        profile = TypeProfile.from_arrays([0.4, 0.8], [0.5, 0.5], 1.0)
        curve = RevenueCurve.from_table([0.3, 0.6], [1.0, 2.0])
        menu = ContractMenu(items=(ContractItem(1, 0.0, 0.0, 0.3), ContractItem(2, 0.0, 0.0, 0.6)))
        outcome = run_round(profile, menu, curve, 100, "ml", seed=7)
        assert all(cl.chosen_item.index == 1 for cl in outcome.clients)
        assert all(cl.effort == 0.0 for cl in outcome.clients)
        assert not any(cl.succeeded for cl in outcome.clients)
        assert outcome.fees_collected == 0.0
        assert outcome.rewards_paid == 0.0
        assert outcome.fees_forfeited == 0.0
        assert outcome.realized_server_utility == 0.0
        assert outcome.aggregation_weights == {}

    def test_stochastic_ledger_identities(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            profile = random_profile(rng, n=int(rng.integers(2, 6)))
            benchmarks = random_benchmarks(rng, len(profile))
            curve = random_increasing_convex_curve(rng, benchmarks)
            menu = solve_optimal_menu(profile, curve, benchmarks)
            outcome = run_round(profile, menu, curve, 500, "ml", seed=trial)
            participants = [cl for cl in outcome.clients if not cl.rejected]
            succeeded = [cl for cl in outcome.clients if cl.succeeded]
            assert outcome.fees_collected == pytest.approx(
                sum(cl.chosen_item.fee for cl in participants)
            )
            assert outcome.rewards_paid == pytest.approx(
                sum(cl.chosen_item.reward for cl in succeeded)
            )
            assert outcome.fees_forfeited == pytest.approx(
                sum(cl.chosen_item.fee for cl in participants if not cl.succeeded)
            )
            margin = sum(
                curve(cl.chosen_item.benchmark) - cl.chosen_item.reward for cl in succeeded
            )
            assert outcome.realized_server_utility == pytest.approx(
                outcome.fees_collected + margin
            )
            if succeeded:
                assert sum(outcome.aggregation_weights.values()) == pytest.approx(1.0)
                assert all(w >= 0 for w in outcome.aggregation_weights.values())
            else:
                assert outcome.aggregation_weights == {}

    def test_truthful_selection_under_strict_menu(self, canonical_profile, canonical_curve, canonical_menu):
        menu = rebated(canonical_menu)
        outcome = run_round(canonical_profile, menu, canonical_curve, 2000, "ml", seed=9)
        assert outcome.ties == ()
        for cl in outcome.clients:
            assert cl.chosen_item.index == cl.true_type.index

    def test_ties_logged_on_tight_menu(self, canonical_profile, canonical_curve, canonical_menu):
        outcome = run_round(canonical_profile, canonical_menu, canonical_curve, 2000, "analytic", seed=10)
        top = [cl for cl in outcome.clients if cl.true_type.index == 2]
        bottom = [cl for cl in outcome.clients if cl.true_type.index == 1]
        assert all(cl.tied for cl in top)
        assert all(not cl.tied for cl in bottom)
        assert all(cl.chosen_item.index == 1 for cl in bottom)
        assert set(outcome.ties) == {cl.id for cl in top}

    def test_deterministic_bit_for_bit(self, canonical_profile, canonical_curve, canonical_menu):
        a = run_round(canonical_profile, canonical_menu, canonical_curve, 300, "ml", seed=11)
        b = run_round(canonical_profile, canonical_menu, canonical_curve, 300, "ml", seed=11)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
        c = run_round(canonical_profile, canonical_menu, canonical_curve, 300, "ml", seed=12)
        assert json.dumps(a.to_dict(), sort_keys=True) != json.dumps(c.to_dict(), sort_keys=True)

    def test_infeasible_menu_warns(self, canonical_profile, canonical_curve):
        menu = ContractMenu(items=(ContractItem(1, 0.125, 1.0, 0.3), ContractItem(2, 2.625, 2.0, 0.5)))
        with pytest.warns(UserWarning, match="infeasible"):
            run_round(canonical_profile, menu, canonical_curve, 10, "ml", seed=13)

    def test_bad_mode_rejected(self, canonical_profile, canonical_curve, canonical_menu):
        with pytest.raises(ValueError):
            run_round(canonical_profile, canonical_menu, canonical_curve, 10, "exact", seed=0)
        with pytest.raises(ValueError, match="mode"):
            run_round(canonical_profile, canonical_menu, canonical_curve, 10, "stochastic", seed=0)

    def test_outputs_written(self, canonical_profile, canonical_curve, canonical_menu, tmp_path):
        outcome = run_round(canonical_profile, canonical_menu, canonical_curve, 50, "ml", seed=14)
        outcome.to_json(tmp_path / "round.json")
        outcome.clients_to_csv(tmp_path / "clients.csv")
        payload = json.loads((tmp_path / "round.json").read_text())
        assert payload["n_clients"] == 50
        header = (tmp_path / "clients.csv").read_text().splitlines()[0]
        assert header == "id,type,choice,effort,succeeded,fee,reward,success_prob"
        assert len((tmp_path / "clients.csv").read_text().splitlines()) == 51

    def test_analytic_expected_accounting(self):
        profile = TypeProfile.from_arrays([0.6], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.4], [1.0])
        menu = solve_optimal_menu(profile, curve, [0.4])
        outcome = run_round(profile, menu, curve, 50, "analytic", seed=15)
        item = menu[0]
        p = 0.6 * min(1.0, 0.6 * item.reward)
        assert outcome.rewards_paid == pytest.approx(50 * p * item.reward)
        assert outcome.fees_forfeited == pytest.approx(50 * (1 - p) * item.fee)
        assert outcome.fees_collected == pytest.approx(50 * item.fee)


# ---------------------------------------------------------------------------
# per-type engine against the per-client loop it replaced
# ---------------------------------------------------------------------------

def reference_weights(succeeded):
    """Reward-share weights exactly as the per-client loop computed them."""
    if not succeeded:
        return {}
    rewards = np.array([item.reward for _, item in succeeded])
    total = float(rewards.sum())
    if total <= 0.0 or np.all(rewards == rewards[0]):
        w = 1.0 / len(succeeded)
        return {cid: w for cid, _ in succeeded}
    return {cid: float(item.reward) / total for cid, item in succeeded}


def reference_round(profile, menu, curve, n, mode, seed):
    """One choose_contract call and one uniform draw per client, totals by +=."""
    c = profile.unit_cost
    draws = child_rng(seed, 0).choice(len(profile), size=n, p=profile.betas)
    success_rng = child_rng(seed, 1)
    clients, ties = [], []
    fees = rewards = forfeits = utility = 0.0
    succeeded_items, expected_shares = [], []
    for cid, k in enumerate(draws):
        ctype = profile.types[k]
        choice = choose_contract(ctype.theta, menu, c)
        if choice.rejected:
            clients.append(SimulatedClient(cid, ctype, None, 0.0, False, 0.0, False))
            continue
        item = menu[choice.index - 1]
        if choice.tied:
            ties.append(cid)
        p = min(1.0, ctype.theta * choice.effort)
        margin = curve(item.benchmark) - item.reward
        if mode == "ml":
            success = bool(success_rng.random() < p)
            fees += item.fee
            if success:
                rewards += item.reward
                utility += item.fee + margin
                succeeded_items.append((cid, item))
            else:
                forfeits += item.fee
                utility += item.fee
        else:
            success = False
            fees += item.fee
            rewards += p * item.reward
            forfeits += (1.0 - p) * item.fee
            utility += item.fee + p * margin
            if p * item.reward > 0.0:
                expected_shares.append((cid, p * item.reward))
        clients.append(SimulatedClient(cid, ctype, item, choice.effort, success, p, choice.tied))
    if mode == "ml":
        weights = reference_weights(succeeded_items)
    else:
        total = math.fsum(share for _, share in expected_shares)
        weights = {cid: share / total for cid, share in expected_shares} if total > 0.0 else {}
    return clients, fees, rewards, forfeits, utility, weights, tuple(ties)


def reference_files(clients, ledger, mode, tmp_path):
    """The ledger JSON and per-client CSV as the per-client loop wrote them."""
    fees, rewards, forfeits, utility, weights, ties = ledger
    payload = {
        "mode": mode,
        "n_clients": len(clients),
        "participants": sum(1 for cl in clients if not cl.rejected),
        "successes": sum(1 for cl in clients if cl.succeeded),
        "fees_collected": fees,
        "rewards_paid": rewards,
        "fees_forfeited": forfeits,
        "realized_server_utility": utility,
        "mean_server_utility_per_client": utility / len(clients),
        "aggregation_weights": {str(k): v for k, v in weights.items()},
        "ties": list(ties),
    }
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "type", "choice", "effort", "succeeded", "fee", "reward", "success_prob"]
        )
        for cl in clients:
            writer.writerow([
                cl.id,
                cl.true_type.index,
                cl.chosen_item.index if cl.chosen_item else "reject",
                repr(cl.effort),
                cl.succeeded,
                repr(cl.chosen_item.fee) if cl.chosen_item else repr(0.0),
                repr(cl.chosen_item.reward) if cl.chosen_item else repr(0.0),
                repr(cl.success_prob),
            ])
    return (tmp_path / "ref.json").read_bytes(), (tmp_path / "ref.csv").read_bytes()


def equivalence_cases():
    profile = TypeProfile.from_arrays([0.5, 1.0], [0.5, 0.5], 1.0)
    curve = RevenueCurve.from_table([0.3, 0.5], [1.0, 2.0])
    tight = solve_optimal_menu(profile, curve, [0.3, 0.5])
    cases = [
        ("tight", profile, tight, curve, 500),
        ("rebated", profile, rebated(tight), curve, 500),
        ("bottom-rejects", profile,
         ContractMenu(items=(ContractItem(1, 0.2, 0.5, 0.3), ContractItem(2, 0.3, 1.0, 0.5))),
         curve, 500),
        ("zero", TypeProfile.from_arrays([0.4, 0.8], [0.5, 0.5], 1.0),
         ContractMenu(items=(ContractItem(1, 0.0, 0.0, 0.3), ContractItem(2, 0.0, 0.0, 0.6))),
         RevenueCurve.from_table([0.3, 0.6], [1.0, 2.0]), 100),
        ("single-client", profile, tight, curve, 1),
    ]
    rng = np.random.default_rng(2026)
    for k in range(10):
        random = random_profile(rng)
        benchmarks = random_benchmarks(rng, len(random))
        random_curve = random_increasing_convex_curve(rng, benchmarks)
        menu = solve_optimal_menu(random, random_curve, benchmarks)
        cases.append((f"random-{k}", random, menu if k % 2 else rebated(menu), random_curve, 400))
    return cases


class TestPerTypeEngine:
    # "ml" realizes Bernoulli successes; the ids name the accounting
    @pytest.mark.parametrize("mode", ["ml", "analytic"], ids=["stochastic", "analytic"])
    @pytest.mark.parametrize(
        "case", [pytest.param(case, id=case[0]) for case in equivalence_cases()]
    )
    def test_matches_per_client_loop(self, case, mode, tmp_path):
        _, profile, menu, curve, n = case
        seed = 31
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the bottom-rejects menu is infeasible
            outcome = run_round(profile, menu, curve, n, mode, seed)
        clients, *ledger = reference_round(profile, menu, curve, n, mode, seed)
        fees, rewards, forfeits, utility, weights, ties = ledger
        assert outcome.fees_collected == fees
        assert outcome.rewards_paid == rewards
        assert outcome.fees_forfeited == forfeits
        assert outcome.realized_server_utility == utility
        assert outcome.aggregation_weights == weights
        assert list(outcome.aggregation_weights) == list(weights)
        assert outcome.ties == ties
        assert outcome.clients == tuple(clients)
        outcome.to_json(tmp_path / "round.json")
        outcome.clients_to_csv(tmp_path / "round.csv")
        ref_json, ref_csv = reference_files(clients, ledger, mode, tmp_path)
        assert (tmp_path / "round.json").read_bytes() == ref_json
        assert (tmp_path / "round.csv").read_bytes() == ref_csv
