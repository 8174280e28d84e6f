"""Population round: contract choice, success realization, ledger identities."""
import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpact.contracts import (
    _JSON,
    ContractMenu,
    RevenueCurve,
    TypeProfile,
    envelope_utilities,
    solve_optimal_menu,
    utility_tolerance,
)
from fedpact.seeding import child_rng
from fedpact.simulation import (
    _ROWS_PER_WRITE,
    RoundOutcome,
    choose_contract,
    realize_success,
    run_round,
    sample_population,
)
from conftest import (
    best_rows,
    clamped_expected_utility,
    menu_of,
    menu_rows,
    random_benchmarks,
    random_increasing_convex_curve,
    random_profile,
)


def written_ledger(outcome: RoundOutcome, path) -> bytes:
    """The ledger as ``to_json`` writes it to ``path``."""
    outcome.to_json(path)
    return path.read_bytes()


def rebated(menu: ContractMenu, delta: float = 1e-6) -> ContractMenu:
    """Strictly incentive-compatible copy: fee of item i lowered by i*delta."""
    index = np.arange(1, len(menu) + 1)
    return ContractMenu(np.maximum(menu.fees - delta * index, 0.0), menu.rewards, menu.benchmarks)


@pytest.fixture(scope="module")
def canonical_menu(canonical_profile, canonical_curve, canonical_benchmarks):
    return solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)


class TestChooseContract:
    def test_bottom_type_truthful(self, canonical_menu):
        row, effort, tied = choose_contract(0.5, canonical_menu, 1.0)
        assert row == 0
        assert effort == pytest.approx(0.5)
        assert envelope_utilities([0.5], canonical_menu, 1.0)[0, 0] == pytest.approx(0.0)
        assert not tied

    def test_top_type_indifferent_breaks_low(self, canonical_menu):
        # (theta 1 R1)^2/2 - f1 = 0.375 = (theta 1 R2)^2/2 - f2: an exact tie,
        # broken to the lower row and flagged
        row, effort, tied = choose_contract(1.0, canonical_menu, 1.0)
        assert tied
        assert best_rows(1.0, canonical_menu, 1.0) == (0, 1)
        assert row == 0
        assert effort == pytest.approx(1.0)
        assert envelope_utilities([1.0], canonical_menu, 1.0)[0, 0] == pytest.approx(0.375)

    def test_low_quality_rejects(self, canonical_menu):
        assert choose_contract(0.1, canonical_menu, 1.0) == (-1, 0.0, False)

    def test_accepts_at_exactly_zero(self):
        menu = menu_of((0.0, 0.0, 0.5))
        row, _, _ = choose_contract(0.5, menu, 1.0)
        assert row == 0
        assert envelope_utilities([0.5], menu, 1.0)[0, 0] == 0.0

    def test_effort_clamped(self, canonical_menu):
        row, effort, _ = choose_contract(1.0, rebated(canonical_menu), 0.4)
        assert row == 1
        assert effort == 1.0  # raw best response would be 2/0.4 = 5


class TestSamplePopulation:
    def test_degenerate_distribution(self):
        profile = TypeProfile.from_arrays([0.3, 0.7], [1.0, 0.0], 1.0)
        population = sample_population(profile, 100, np.random.default_rng(0))
        assert len(population) == 100
        assert all(k == 0 for k in population)

    def test_single_client(self):
        profile = TypeProfile.from_arrays([0.5], [1.0], 1.0)
        assert len(sample_population(profile, 1, np.random.default_rng(1))) == 1

    def test_uniform_frequencies(self):
        n_types = 10
        thetas = np.linspace(0.1, 1.0, n_types)
        profile = TypeProfile.from_arrays(thetas, [1 / n_types] * n_types, 1.0)
        population = sample_population(profile, 100_000, np.random.default_rng(2))
        counts = np.bincount(population, minlength=n_types)
        freqs = counts / 100_000
        assert np.all(np.abs(freqs - 0.1) < 0.01)

    def test_deterministic(self):
        profile = TypeProfile.from_arrays([0.3, 0.7], [0.4, 0.6], 1.0)
        a = sample_population(profile, 50, np.random.default_rng(3))
        b = sample_population(profile, 50, np.random.default_rng(3))
        assert a.tolist() == b.tolist()


class TestRealizeSuccess:
    def test_zero_quality_never_succeeds(self):
        assert not any(realize_success(0.0, np.random.default_rng(s)) for s in range(50))

    def test_certain_success(self):
        assert all(realize_success(1.0, np.random.default_rng(s)) for s in range(50))

    def test_frequency(self):
        rng = np.random.default_rng(4)
        hits = sum(realize_success(0.4, rng) for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(0.40, abs=0.005)

    def test_effort_domain(self):
        # the probability's domain; the effort's is [0, 1] by its clamp
        with pytest.raises(ValueError):
            realize_success(1.2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            realize_success(np.array([0.5, -0.1]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            realize_success(np.nan, np.random.default_rng(0))

    def test_array_equals_scalar_calls(self):
        probs = np.random.default_rng(16).uniform(0.0, 1.0, 1000)
        batch = realize_success(probs, np.random.default_rng(17))
        one = np.random.default_rng(17)
        singles = [realize_success(p, one) for p in probs]
        assert all(single.shape == () for single in singles)  # a scalar gives a 0-d array
        assert batch.tolist() == [single.item() for single in singles]


def passer_weights(profile, menu, client_type, passed):
    """``aggregation_weights`` of a round whose participants pass as ``passed``."""
    curve = RevenueCurve.exponential(1.0, 1.0)
    outcome = RoundOutcome.sign_up(profile, menu, curve, np.array(client_type))
    return outcome.with_passes(np.array(passed)).aggregation_weights


class TestAggregationWeights:
    single = TypeProfile.from_arrays([0.5], [1.0], 1.0)

    def test_single_success(self):
        menu = menu_of((0.0, 5.0, 0.5))
        weights = passer_weights(self.single, menu, [0] * 8, [False] * 7 + [True])
        assert weights == {7: 1.0}

    def test_reward_shares(self, canonical_profile, canonical_menu):
        # rebated so the top type strictly prefers item 2: rewards 1, 2, 2
        menu = rebated(canonical_menu)
        weights = passer_weights(canonical_profile, menu, [0, 0, 1, 1], [False, True, True, True])
        assert weights == pytest.approx({1: 0.2, 2: 0.4, 3: 0.4})

    def test_empty(self, canonical_profile, canonical_menu):
        assert passer_weights(canonical_profile, canonical_menu, [0, 1, 1], [False] * 3) == {}

    def test_equal_rewards_exactly_uniform(self):
        menu = menu_of((0.0, 0.7, 0.5))
        weights = passer_weights(self.single, menu, [0, 0, 0], [True] * 3)
        assert list(weights) == [0, 1, 2]
        assert all(w == 1.0 / 3.0 for w in weights.values())

    def test_zero_total_falls_back_uniform(self):
        menu = menu_of((0.0, 0.0, 0.5))
        weights = passer_weights(self.single, menu, [0] * 4, [True] * 4)
        assert list(weights) == [0, 1, 2, 3]
        assert all(w == 0.25 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)


class TestRunRound:
    def test_single_type_analytic_matches_per_client_formula(self):
        profile = TypeProfile.from_arrays([0.8], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.4], [1.5])
        menu = solve_optimal_menu(profile, curve, [0.4])
        outcome = run_round(profile, menu, curve, 1, "analytic", seed=5)
        (fee, reward, _), = menu_rows(menu)
        effort = min(1.0, 0.8 * reward / 1.0)
        expected = fee + 0.8 * effort * (curve(0.4) - reward)
        assert outcome.realized_server_utility == pytest.approx(expected)

    def test_analytic_converges_to_expected_utility(self, canonical_profile, canonical_curve, canonical_menu):
        menu = rebated(canonical_menu)
        outcome = run_round(canonical_profile, menu, canonical_curve, 10_000, "analytic", seed=6)
        mean = outcome.realized_server_utility / len(outcome.client_type)
        expected = clamped_expected_utility(canonical_profile, menu, canonical_curve)
        assert mean == pytest.approx(expected, rel=0.01)

    def test_zero_menu_round(self):
        profile = TypeProfile.from_arrays([0.4, 0.8], [0.5, 0.5], 1.0)
        curve = RevenueCurve.from_table([0.3, 0.6], [1.0, 2.0])
        menu = menu_of((0.0, 0.0, 0.3), (0.0, 0.0, 0.6))
        outcome = run_round(profile, menu, curve, 100, "ml", seed=7)
        types = outcome.client_type.tolist()
        assert all(outcome.type_choice[t] == 0 for t in types)
        assert all(outcome.type_effort[t] == 0.0 for t in types)
        assert not any(outcome.succeeded)
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
            # each client's chosen (f, R, M) row (None on rejection) and pass flag
            rows = menu_rows(menu)
            clients = [
                (None if outcome.type_choice[t] < 0 else rows[outcome.type_choice[t]], passed)
                for t, passed in zip(outcome.client_type.tolist(), outcome.succeeded.tolist())
            ]
            participants = [(it, passed) for it, passed in clients if it is not None]
            succeeded = [it for it, passed in clients if passed]
            assert outcome.fees_collected == pytest.approx(
                sum(fee for (fee, _, _), _ in participants)
            )
            assert outcome.rewards_paid == pytest.approx(
                sum(reward for _, reward, _ in succeeded)
            )
            assert outcome.fees_forfeited == pytest.approx(
                sum(fee for (fee, _, _), passed in participants if not passed)
            )
            margin = sum(curve(benchmark) - reward for _, reward, benchmark in succeeded)
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
        assert not outcome.type_tied[outcome.client_type].any()
        for t in outcome.client_type.tolist():
            assert outcome.type_choice[t] == t

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_truthful_selection_for_any_profile(self, seed):
        # any profile (I in 2..10, random betas and cost) and its solved menu
        # with fees rebated by more than the utility tolerance: every type
        # takes its own item strictly, so no tie is logged
        rng = np.random.default_rng(seed)
        profile = random_profile(rng)
        benchmarks = random_benchmarks(rng, len(profile))
        curve = random_increasing_convex_curve(rng, benchmarks)
        menu = solve_optimal_menu(profile, curve, benchmarks)
        delta = 2.0 * utility_tolerance(profile.thetas, menu, profile.unit_cost)
        outcome = RoundOutcome.sign_up(profile, rebated(menu, delta), curve, np.arange(len(profile)))
        assert outcome.type_choice.tolist() == list(range(len(profile)))
        assert not outcome.type_tied.any()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["solved", "rebated", "rescaled", "duplicated", "random"]),
    )
    def test_sign_up_follows_the_choice_rule(self, seed, kind):
        # the rule any sign-up must reproduce, computed here from the rows of
        # the utility table: the argmax, ties within the scaled tolerance to
        # the lowest row, rejection exactly when the maximum is below 0, the
        # clamped effort and p = min(1, theta e).  Solved menus tie at binding
        # adjacent IC, also in revenue units k times larger (utilities k^2),
        # duplicated rows tie every accepting type, and random fees make
        # some types reject.
        rng = np.random.default_rng(seed)
        profile = random_profile(rng)
        n, c = len(profile), profile.unit_cost
        benchmarks = random_benchmarks(rng, n)
        curve = random_increasing_convex_curve(rng, benchmarks)
        menu = solve_optimal_menu(profile, curve, benchmarks)
        if kind == "rebated":
            menu = rebated(menu, 2.0 * utility_tolerance(profile.thetas, menu, c))
        elif kind == "rescaled":
            k = 10.0 ** rng.uniform(2.0, 6.0)
            menu = ContractMenu(k * k * menu.fees, k * menu.rewards, menu.benchmarks)
        elif kind == "duplicated":
            menu = ContractMenu(*np.repeat(np.array(menu_rows(menu)), 2, axis=0).T)
        elif kind == "random":
            fees, rewards = rng.uniform(0.0, 3.0, (2, n))
            menu = ContractMenu(fees, rewards, np.full(n, 0.5))
        outcome = RoundOutcome.sign_up(profile, menu, curve, np.arange(n))
        utilities = envelope_utilities(profile.thetas, menu, c)
        for t, theta in enumerate(profile.thetas.tolist()):
            u = utilities[t]
            if u.max() < 0.0:
                expected = (-1, 0.0, False, 0.0)
            else:
                best = np.flatnonzero(u.max() - u <= utility_tolerance((theta,), menu, c))
                row = int(best[0])
                effort = float(np.clip(theta * menu.rewards[row] / c, 0.0, 1.0))
                expected = (row, effort, len(best) > 1, min(1.0, theta * effort))
            assert (
                int(outcome.type_choice[t]), float(outcome.type_effort[t]),
                bool(outcome.type_tied[t]), float(outcome.type_success_prob[t]),
            ) == expected, (kind, t)

    def test_ties_logged_on_tight_menu(
        self, canonical_profile, canonical_curve, canonical_menu, tmp_path
    ):
        outcome = run_round(canonical_profile, canonical_menu, canonical_curve, 2000, "analytic", seed=10)
        types = outcome.client_type.tolist()
        top = [cid for cid, t in enumerate(types) if t == 1]
        bottom = [cid for cid, t in enumerate(types) if t == 0]
        assert all(outcome.type_tied[types[cid]] for cid in top)
        assert all(not outcome.type_tied[types[cid]] for cid in bottom)
        assert all(outcome.type_choice[types[cid]] == 0 for cid in bottom)
        logged = json.loads(written_ledger(outcome, tmp_path / "round.json"))["tied_types"]
        assert {cid for cid, t in enumerate(types) if t + 1 in logged} == set(top)

    def test_deterministic_bit_for_bit(
        self, canonical_profile, canonical_curve, canonical_menu, tmp_path
    ):
        a, b, c = (
            written_ledger(
                run_round(canonical_profile, canonical_menu, canonical_curve, 300, "ml", seed),
                tmp_path / f"round_{k}.json",
            )
            for k, seed in enumerate((11, 11, 12))
        )
        assert a == b
        assert a != c

    def test_infeasible_menu_warns(self, canonical_profile, canonical_curve):
        menu = menu_of((0.125, 1.0, 0.3), (2.625, 2.0, 0.5))
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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 500),
        mode=st.sampled_from(["analytic", "ml"]),
    )
    def test_ledger_totals_equal_csv_sums(self, seed, n, mode, tmp_path_factory):
        # the written ledger against math.fsum over the written per-client
        # rows, any profile, both modes, one client to five hundred
        rng = np.random.default_rng(seed)
        profile = random_profile(rng)
        benchmarks = random_benchmarks(rng, len(profile))
        curve = random_increasing_convex_curve(rng, benchmarks)
        menu = solve_optimal_menu(profile, curve, benchmarks)
        outcome = run_round(profile, menu, curve, n, mode, seed=seed)
        out = tmp_path_factory.mktemp("ledger")
        outcome.to_json(out / "round.json")
        outcome.clients_to_csv(out / "round.csv")
        ledger = json.loads((out / "round.json").read_text())
        with open(out / "round.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == ledger["n_clients"] == n

        fees, rewards, forfeits, successes = [], [], [], 0
        for row in rows:
            if row["choice"] == "reject":
                continue
            fee, reward = float(row["fee"]), float(row["reward"])
            fees.append(fee)
            if mode == "ml":
                if row["succeeded"] == "True":
                    successes += 1
                    rewards.append(reward)
                else:
                    forfeits.append(fee)
            else:
                p = float(row["success_prob"])
                rewards.append(p * reward)
                forfeits.append((1.0 - p) * fee)
        assert ledger["participants"] == len(fees)
        assert ledger["successes"] == successes
        for key, values in (
            ("fees_collected", fees), ("rewards_paid", rewards), ("fees_forfeited", forfeits),
        ):
            assert math.isclose(ledger[key], math.fsum(values), rel_tol=1e-9, abs_tol=1e-12), key
        weights = ledger["aggregation_weights"].values()
        if weights:
            assert math.isclose(math.fsum(weights), 1.0, abs_tol=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        mode=st.sampled_from(["analytic", "ml"]),
        silent=st.booleans(),
    )
    def test_ledger_has_the_json_layout(self, seed, n, mode, silent, tmp_path_factory):
        # the streamed ledger is _JSON's encoding of what it decodes to; a
        # zero menu (every type takes effort 0) leaves no weight holder
        rng = np.random.default_rng(seed)
        profile = random_profile(rng)
        benchmarks = random_benchmarks(rng, len(profile))
        curve = random_increasing_convex_curve(rng, benchmarks)
        if silent:
            menu = menu_of(*[(0.0, 0.0, m) for m in benchmarks.tolist()])
        else:
            menu = solve_optimal_menu(profile, curve, benchmarks)
        outcome = run_round(profile, menu, curve, n, mode, seed=seed)
        text = written_ledger(outcome, tmp_path_factory.mktemp("ledger") / "round.json").decode()
        ledger = json.loads(text)
        assert text == _JSON.encode(ledger) + "\n"
        assert len(ledger["aggregation_weights"]) == len(outcome.aggregation_weights)
        if silent:
            assert ledger["aggregation_weights"] == {}

    def test_analytic_expected_accounting(self):
        profile = TypeProfile.from_arrays([0.6], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.4], [1.0])
        menu = solve_optimal_menu(profile, curve, [0.4])
        outcome = run_round(profile, menu, curve, 50, "analytic", seed=15)
        (fee, reward, _), = menu_rows(menu)
        p = 0.6 * min(1.0, 0.6 * reward)
        assert outcome.rewards_paid == pytest.approx(50 * p * reward)
        assert outcome.fees_forfeited == pytest.approx(50 * (1 - p) * fee)
        assert outcome.fees_collected == pytest.approx(50 * fee)


# ---------------------------------------------------------------------------
# per-type engine against the per-client loop it replaced
# ---------------------------------------------------------------------------

def reference_weights(succeeded):
    """Reward-share weights exactly as the per-client loop computed them."""
    if not succeeded:
        return {}
    rewards = np.array([reward for _, reward in succeeded])
    total = float(rewards.sum())
    if total <= 0.0 or np.all(rewards == rewards[0]):
        w = 1.0 / len(succeeded)
        return {cid: w for cid, _ in succeeded}
    return {cid: float(reward) / total for cid, reward in succeeded}


@dataclass(frozen=True)
class ReferenceClient:
    """One client's round as the per-client loop recorded it."""

    id: int
    type_index: int  # 1-based
    chosen_index: int | None  # 1-based, None on rejection
    fee: float
    reward: float
    effort: float
    succeeded: bool
    success_prob: float
    tied: bool


def reference_round(profile, menu, curve, n, mode, seed):
    """One choose_contract call and one uniform draw per client, totals by +=."""
    c = profile.unit_cost
    draws = child_rng(seed, 0).choice(len(profile), size=n, p=profile.betas)
    success_rng = child_rng(seed, 1)
    thetas, rows = profile.thetas.tolist(), menu_rows(menu)
    clients, ties = [], []
    fees = rewards = forfeits = utility = 0.0
    succeeded_items, expected_shares = [], []
    for cid, k in enumerate(draws.tolist()):
        theta = thetas[k]
        row, effort, tied = choose_contract(theta, menu, c)
        if row < 0:
            clients.append(ReferenceClient(cid, k + 1, None, 0.0, 0.0, 0.0, False, 0.0, False))
            continue
        fee, reward, benchmark = rows[row]
        if tied:
            ties.append(cid)
        p = min(1.0, theta * effort)
        margin = curve(benchmark) - reward
        if mode == "ml":
            success = bool(success_rng.random() < p)
            fees += fee
            if success:
                rewards += reward
                utility += fee + margin
                succeeded_items.append((cid, reward))
            else:
                forfeits += fee
                utility += fee
        else:
            success = False
            fees += fee
            rewards += p * reward
            forfeits += (1.0 - p) * fee
            utility += fee + p * margin
            if p * reward > 0.0:
                expected_shares.append((cid, p * reward))
        clients.append(ReferenceClient(
            cid, k + 1, row + 1, fee, reward, effort, success, p, tied
        ))
    if mode == "ml":
        weights = reference_weights(succeeded_items)
    else:
        total = math.fsum(share for _, share in expected_shares)
        weights = {cid: share / total for cid, share in expected_shares} if total > 0.0 else {}
    tied_types = [k + 1 for k, theta in enumerate(thetas) if choose_contract(theta, menu, c)[2]]
    return clients, fees, rewards, forfeits, utility, weights, tuple(ties), tied_types


def reference_files(clients, ledger, mode, tmp_path):
    """The ledger JSON and per-client CSV as the per-client loop wrote them."""
    fees, rewards, forfeits, utility, weights, _, tied_types = ledger
    payload = {
        "mode": mode,
        "n_clients": len(clients),
        "participants": sum(1 for cl in clients if cl.chosen_index is not None),
        "successes": sum(1 for cl in clients if cl.succeeded),
        "fees_collected": fees,
        "rewards_paid": rewards,
        "fees_forfeited": forfeits,
        "realized_server_utility": utility,
        "mean_server_utility_per_client": utility / len(clients),
        "aggregation_weights": {str(k): v for k, v in weights.items()},
        "tied_types": tied_types,
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
                cl.type_index,
                "reject" if cl.chosen_index is None else cl.chosen_index,
                repr(cl.effort),
                cl.succeeded,
                repr(cl.fee),
                repr(cl.reward),
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
         menu_of((0.2, 0.5, 0.3), (0.3, 1.0, 0.5)),
         curve, 500),
        ("zero", TypeProfile.from_arrays([0.4, 0.8], [0.5, 0.5], 1.0),
         menu_of((0.0, 0.0, 0.3), (0.0, 0.0, 0.6)),
         RevenueCurve.from_table([0.3, 0.6], [1.0, 2.0]), 100),
        ("single-client", profile, tight, curve, 1),
        # ids of 1 to 5 digits: sorted keys put "10" before "9"
        ("12k-clients", profile, tight, curve, 12_000),
        # pass probabilities near 5e-5: participants, but no ml passer
        ("no-passers", TypeProfile.from_arrays([0.01, 0.02], [0.5, 0.5], 1.0),
         menu_of((0.0, 0.5, 0.3), (0.0, 0.5, 0.5)), curve, 200),
        # every item pays the same reward: ml weights take the exact 1/k path
        ("equal-rewards", profile,
         menu_of((0.01, 0.3, 0.3), (0.01, 0.3, 0.5)), curve, 300),
    ]
    # one type: in analytic mode every client holds a weight, so both files
    # fill exactly one write, or spill one row past it
    single = TypeProfile.from_arrays([0.8], [1.0], 1.0)
    single_curve = RevenueCurve.from_table([0.4], [1.0])
    single_menu = solve_optimal_menu(single, single_curve, [0.4])
    for n in (_ROWS_PER_WRITE, _ROWS_PER_WRITE + 1):
        cases.append((f"one-type-{n}", single, single_menu, single_curve, n))
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
        fees, rewards, forfeits, utility, weights, ties, tied_types = ledger
        assert outcome.fees_collected == fees
        assert outcome.rewards_paid == rewards
        assert outcome.fees_forfeited == forfeits
        assert outcome.realized_server_utility == utility
        assert outcome.aggregation_weights == weights
        assert list(outcome.aggregation_weights) == list(weights)
        assert tuple(np.flatnonzero(outcome.type_tied[outcome.client_type]).tolist()) == ties
        outcome.to_json(tmp_path / "round.json")
        assert json.loads((tmp_path / "round.json").read_text())["tied_types"] == tied_types
        outcome.clients_to_csv(tmp_path / "round.csv")
        ref_json, ref_csv = reference_files(clients, ledger, mode, tmp_path)
        assert (tmp_path / "round.json").read_bytes() == ref_json
        assert (tmp_path / "round.csv").read_bytes() == ref_csv

    def test_edge_cases_take_their_path(self, tmp_path):
        cases = {case[0]: case[1:] for case in equivalence_cases()}
        run_round(*cases["12k-clients"], "ml", 31).to_json(tmp_path / "round.json")
        ledger = dict(json.loads(
            (tmp_path / "round.json").read_text(), object_pairs_hook=lambda pairs: pairs
        ))
        keys = [key for key, _ in ledger["aggregation_weights"]]
        assert keys == sorted(keys) and {len(k) for k in keys} == {1, 2, 3, 4, 5}
        silent = run_round(*cases["no-passers"], "ml", 31)
        assert silent.participants == 200
        assert json.loads(written_ledger(silent, tmp_path / "silent.json"))["aggregation_weights"] == {}
        assert run_round(*cases["no-passers"], "analytic", 31).aggregation_weights
        equal = run_round(*cases["equal-rewards"], "ml", 31)
        k = equal.successes
        assert set(equal.aggregation_weights.values()) == {1.0 / k}
        assert 0.3 / float(np.full(k, 0.3).sum()) != 1.0 / k  # the reward share differs
