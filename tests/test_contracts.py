"""Menu solver, feasibility checker, pooling, and the brute-force oracle.

Hand-derived reference instance used throughout (theta (0.5, 1.0),
equal shares, c = 1, revenues (1, 2)):
  rewards  R = (1, 2)
  fees     f1 = (0.5*1)^2/2 = 0.125
           f2 = (1*2)^2/2 - (1*1)^2/2 + 0.125 = 2 - 0.5 + 0.125 = 1.625
  envelope utilities: type 1 at item 1: 0, type 2 at items 1 and 2: 0.375
"""
import itertools
import json

import numpy as np
import pytest

from fedpact.contracts import (
    ClientType,
    ContractItem,
    ContractMenu,
    FeasibilityReport,
    GridSpec,
    MenuMismatchError,
    RevenueCurve,
    TypeProfile,
    best_response_effort,
    client_utility,
    client_utility_at_best_response,
    enforce_monotonicity,
    grid_search_menu,
    server_expected_utility,
    solve_optimal_menu,
    verify_feasibility,
)
from conftest import (
    fee_recursion,
    random_benchmarks,
    random_feasible_menu,
    random_increasing_convex_curve,
    random_profile,
)


def item(i, fee, reward, benchmark=0.5):
    return ContractItem(index=i, fee=fee, reward=reward, benchmark=benchmark)


class TestEffortAndUtilities:
    def test_zero_quality_zero_effort(self):
        assert best_response_effort(0.0, 5.0, 1.0).effort == 0.0

    def test_interior_effort(self):
        r = best_response_effort(0.5, 1.0, 1.0)
        assert r.effort == 0.5
        assert r.raw == 0.5

    def test_clamped_effort_keeps_raw(self):
        r = best_response_effort(1.0, 2.0, 1.0)
        assert r.effort == 1.0
        assert r.raw == 2.0

    def test_reference_effort_ratio(self, mnist_settings):
        theta = mnist_settings["thetas"][0]
        ratio = mnist_settings["optimal_efforts"][0] / theta
        assert best_response_effort(theta, ratio, 1.0).effort == pytest.approx(0.279, abs=1e-12)

    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            best_response_effort(0.5, 1.0, 0.0)

    def test_zero_effort_pays_the_fee(self):
        assert client_utility(0.7, 0.0, item(1, 2.0, 5.0), 1.0) == -2.0

    def test_utility_balances_to_zero(self):
        assert client_utility(0.5, 0.5, item(1, 0.125, 1.0), 1.0) == pytest.approx(0.0)

    def test_utility_top(self):
        assert client_utility(1.0, 1.0, item(1, 0.0, 1.0), 1.0) == pytest.approx(0.5)

    def test_effort_out_of_range(self):
        with pytest.raises(ValueError):
            client_utility(0.5, 1.2, item(1, 0.0, 1.0), 1.0)

    def test_envelope_bottom_binds(self):
        assert client_utility_at_best_response(0.5, item(1, 0.125, 1.0), 1.0) == pytest.approx(0.0)

    def test_envelope_top_own(self):
        assert client_utility_at_best_response(1.0, item(2, 1.625, 2.0), 1.0) == pytest.approx(0.375)

    def test_envelope_top_downward_equal(self):
        assert client_utility_at_best_response(1.0, item(1, 0.125, 1.0), 1.0) == pytest.approx(0.375)


class TestServerUtility:
    def test_single_type_reference(self):
        profile = TypeProfile.from_arrays([1.0], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.5], [1.0])
        menu = ContractMenu(items=(item(1, 0.5, 1.0),))
        assert server_expected_utility(profile, menu, curve) == pytest.approx(0.5)

    def test_first_best_substitution(self):
        # with R = G and f = (theta R)^2 / 2c the objective is theta^2 G^2 / 2c
        profile = TypeProfile.from_arrays([0.8], [1.0], 2.0)
        g = 1.7
        curve = RevenueCurve.from_table([0.4], [g])
        fee = (0.8 * g) ** 2 / 4.0
        menu = ContractMenu(items=(item(1, fee, g, 0.4),))
        expected = 0.8**2 * g**2 / 4.0
        assert server_expected_utility(profile, menu, curve) == pytest.approx(expected)

    def test_zero_fee_at_first_best_reward_is_zero(self, canonical_profile, canonical_curve):
        menu = ContractMenu(items=(item(1, 0.0, 1.0, 0.3), item(2, 0.0, 2.0, 0.5)))
        assert server_expected_utility(canonical_profile, menu, canonical_curve) == pytest.approx(0.0)

    def test_length_mismatch(self, canonical_profile, canonical_curve):
        menu = ContractMenu(items=(item(1, 0.0, 1.0),))
        with pytest.raises(MenuMismatchError):
            server_expected_utility(canonical_profile, menu, canonical_curve)

    def test_clamped_variant_differs_when_raw_exceeds_one(self):
        profile = TypeProfile.from_arrays([1.0], [1.0], 0.5)
        curve = RevenueCurve.from_table([0.5], [2.0])
        menu = ContractMenu(items=(item(1, 0.0, 1.0),))
        raw = server_expected_utility(profile, menu, curve)       # e = 2
        clamped = server_expected_utility(profile, menu, curve, clamp_effort=True)
        assert raw == pytest.approx(2.0)
        assert clamped == pytest.approx(1.0)


class TestSolver:
    def test_single_type(self):
        profile = TypeProfile.from_arrays([1.0], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.5], [1.0])
        menu = solve_optimal_menu(profile, curve, [0.5])
        assert menu.fees == pytest.approx([0.5])
        assert menu.rewards == pytest.approx([1.0])

    def test_two_types(self, canonical_profile, canonical_curve, canonical_benchmarks):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        np.testing.assert_allclose(menu.rewards, [1.0, 2.0])
        np.testing.assert_allclose(menu.fees, [0.125, 1.625])

    def test_fees_scale_inversely_with_cost(self, canonical_curve, canonical_benchmarks):
        profile = TypeProfile.from_arrays([0.5, 1.0], [0.5, 0.5], 2.0)
        menu = solve_optimal_menu(profile, canonical_curve, canonical_benchmarks)
        np.testing.assert_allclose(menu.rewards, [1.0, 2.0])
        np.testing.assert_allclose(menu.fees, [0.0625, 0.8125])

    def test_scale_property_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            profile = random_profile(rng)
            n = len(profile)
            benchmarks = random_benchmarks(rng, n)
            curve = random_increasing_convex_curve(rng, benchmarks)
            k = float(rng.uniform(0.2, 5.0))
            scaled = TypeProfile.from_arrays(
                profile.thetas, profile.betas, profile.unit_cost * k
            )
            menu = solve_optimal_menu(profile, curve, benchmarks)
            menu_k = solve_optimal_menu(scaled, curve, benchmarks)
            np.testing.assert_allclose(menu_k.rewards, menu.rewards)
            np.testing.assert_allclose(menu_k.fees, menu.fees / k)

    def test_non_increasing_thetas_rejected(self):
        with pytest.raises(ValueError):
            TypeProfile.from_arrays([0.5, 0.5], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError):
            TypeProfile.from_arrays([0.7, 0.5], [0.5, 0.5], 1.0)

    def test_benchmark_count_mismatch(self, canonical_profile, canonical_curve):
        with pytest.raises(MenuMismatchError):
            solve_optimal_menu(canonical_profile, canonical_curve, [0.3])


class TestFeasibility:
    def test_canonical_binding_pattern(self, canonical_profile, canonical_curve, canonical_benchmarks):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        report = verify_feasibility(canonical_profile, menu)
        assert report.feasible
        assert report.ir_binding == (1,)
        assert (2, 1) in report.ic_binding

    def test_tampered_fee_breaks_ic(self, canonical_profile):
        menu = ContractMenu(items=(item(1, 0.125, 1.0, 0.3), item(2, 2.625, 2.0, 0.5)))
        report = verify_feasibility(canonical_profile, menu)
        assert not report.feasible
        assert report.ic_slack(2, 1) == pytest.approx(-1.0)

    def test_degenerate_zero_menu(self, canonical_profile):
        menu = ContractMenu(items=(item(1, 0.0, 0.0, 0.3), item(2, 0.0, 0.0, 0.5)))
        report = verify_feasibility(canonical_profile, menu)
        assert report.feasible
        assert all(s == 0.0 for s in report.ir_slacks)
        assert all(s == 0.0 for _, _, s in report.ic_slacks)

    def test_length_mismatch(self, canonical_profile):
        with pytest.raises(MenuMismatchError):
            verify_feasibility(canonical_profile, ContractMenu(items=()))

    def test_report_serializable(self, canonical_profile, canonical_curve, canonical_benchmarks, tmp_path):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        report = verify_feasibility(canonical_profile, menu)
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["feasible"] is True
        assert payload["ir"][0]["binding"] is True
        assert {e["i"] for e in payload["ic"]} == {1, 2}


class TestMonotonicityLemmas:
    def test_lemmas_on_random_feasible_menus(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            profile = random_profile(rng)
            menu = random_feasible_menu(profile, rng)
            thetas = profile.thetas
            fees, rewards = menu.fees, menu.rewards
            for i, j in itertools.combinations(range(len(profile)), 2):
                assert (thetas[i] - thetas[j]) * (rewards[i] - rewards[j]) >= 0
                assert (rewards[i] - rewards[j]) * (fees[i] - fees[j]) >= 0
                assert (thetas[i] - thetas[j]) * (fees[i] - fees[j]) >= 0

    def test_ir_transitivity_on_solved_menus(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            profile = random_profile(rng)
            benchmarks = random_benchmarks(rng, len(profile))
            curve = random_increasing_convex_curve(rng, benchmarks)
            menu = solve_optimal_menu(profile, curve, benchmarks)
            utilities = [
                client_utility_at_best_response(t.theta, it, profile.unit_cost)
                for t, it in zip(profile.types, menu)
            ]
            assert abs(utilities[0]) <= 1e-9          # IR binds at the bottom
            assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_tight_adjacent_downward_ic(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            profile = random_profile(rng)
            benchmarks = random_benchmarks(rng, len(profile))
            curve = random_increasing_convex_curve(rng, benchmarks)
            menu = solve_optimal_menu(profile, curve, benchmarks, pool_non_monotone=False)
            report = verify_feasibility(profile, menu)
            for i in range(2, len(profile) + 1):
                assert abs(report.ic_slack(i, i - 1)) <= 1e-9

    def test_downward_equality_implies_full_feasibility(self):
        # adjacent downward IC with equality plus monotone rewards gives a
        # menu passing every pairwise constraint
        rng = np.random.default_rng(25)
        for _ in range(100):
            profile = random_profile(rng)
            n = len(profile)
            rewards = np.sort(rng.uniform(0.05, 3.0, n))
            fees = fee_recursion(profile.thetas, rewards, profile.unit_cost)
            menu = ContractMenu(
                items=tuple(
                    item(i + 1, float(f), float(r)) for i, (f, r) in enumerate(zip(fees, rewards))
                )
            )
            assert verify_feasibility(profile, menu).feasible


class TestPooling:
    def test_identity_on_monotone(self, canonical_profile, canonical_curve, canonical_benchmarks):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        assert enforce_monotonicity(canonical_profile, menu) is menu

    def test_pool_single_violation(self):
        profile = TypeProfile.from_arrays([0.4, 0.8], [0.5, 0.5], 1.0)
        menu = ContractMenu(items=(item(1, 0.1, 2.0, 0.3), item(2, 0.2, 1.0, 0.5)))
        pooled = enforce_monotonicity(profile, menu)
        np.testing.assert_allclose(pooled.rewards, [1.5, 1.5])

    def test_pool_decreasing_run(self):
        profile = TypeProfile.from_arrays([0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3], 1.0)
        menu = ContractMenu(
            items=(item(1, 0.0, 1.0, 0.2), item(2, 0.0, 3.0, 0.4), item(3, 0.0, 2.0, 0.6))
        )
        pooled = enforce_monotonicity(profile, menu)
        np.testing.assert_allclose(pooled.rewards, [1.0, 2.5, 2.5])

    def test_beta_weighted_pooling(self):
        profile = TypeProfile.from_arrays([0.4, 0.8], [0.8, 0.2], 1.0)
        menu = ContractMenu(items=(item(1, 0.1, 2.0, 0.3), item(2, 0.2, 1.0, 0.5)))
        pooled = enforce_monotonicity(profile, menu)
        np.testing.assert_allclose(pooled.rewards, [1.8, 1.8])

    def test_cascading_pool(self):
        # pooling the tail run drags it below the head, forcing a re-pool
        profile = TypeProfile.from_arrays([0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3], 1.0)
        menu = ContractMenu(
            items=(item(1, 0.0, 3.0, 0.2), item(2, 0.0, 4.0, 0.4), item(3, 0.0, 1.0, 0.6))
        )
        pooled = enforce_monotonicity(profile, menu)
        # (4, 1) pools to 2.5 < 3, so all three pool to 8/3
        np.testing.assert_allclose(pooled.rewards, np.full(3, 8.0 / 3.0))

    def test_idempotent(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            profile = random_profile(rng, n=4)
            rewards = rng.uniform(0.1, 3.0, 4)
            fees = np.abs(rng.uniform(0, 1, 4))
            menu = ContractMenu(
                items=tuple(item(i + 1, float(f), float(r)) for i, (f, r) in enumerate(zip(fees, rewards)))
            )
            once = enforce_monotonicity(profile, menu)
            twice = enforce_monotonicity(profile, once)
            np.testing.assert_array_equal(once.rewards, twice.rewards)
            np.testing.assert_array_equal(once.fees, twice.fees)
            assert np.all(np.diff(once.rewards) >= 0)

    def test_pooled_menu_fees_rebuilt_and_feasible(self):
        profile = TypeProfile.from_arrays([0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3], 1.0)
        menu = ContractMenu(
            items=(item(1, 0.0, 1.0, 0.2), item(2, 0.0, 3.0, 0.4), item(3, 0.0, 2.0, 0.6))
        )
        pooled = enforce_monotonicity(profile, menu)
        expected_fees = fee_recursion(profile.thetas, pooled.rewards, 1.0)
        np.testing.assert_allclose(pooled.fees, expected_fees)
        assert verify_feasibility(profile, pooled).feasible

    def test_solver_pools_unsorted_benchmarks(self):
        # decreasing benchmarks produce decreasing revenues, forcing pooling
        profile = TypeProfile.from_arrays([0.3, 0.6, 0.9], [1 / 3, 1 / 3, 1 / 3], 1.0)
        curve = RevenueCurve.exponential(0.5, 2.0)
        menu = solve_optimal_menu(profile, curve, [0.7, 0.5, 0.3])
        assert np.all(np.diff(menu.rewards) >= 0)
        assert verify_feasibility(profile, menu).feasible


class TestGridSearch:
    def test_single_type_matches_analytic(self):
        profile = TypeProfile.from_arrays([1.0], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.5], [1.0])
        grid = GridSpec(fee_ranges=[(0.0, 1.0)], reward_ranges=[(0.0, 2.0)],
                        fee_steps=101, reward_steps=201)
        result = grid_search_menu(profile, curve, [0.5], grid)
        assert result.found
        assert result.menu.fees[0] == pytest.approx(0.5, abs=0.011)
        assert result.menu.rewards[0] == pytest.approx(1.0, abs=0.011)

    def test_oracle_not_worse_than_formula(self, canonical_profile, canonical_curve, canonical_benchmarks):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        formula_obj = server_expected_utility(canonical_profile, menu, canonical_curve)
        grid = GridSpec(fee_ranges=[(0.0, 2.0)] * 2, reward_ranges=[(0.0, 2.5)] * 2,
                        fee_steps=101, reward_steps=101)
        result = grid_search_menu(canonical_profile, canonical_curve, canonical_benchmarks, grid)
        assert result.found
        assert result.objective >= formula_obj - 2 * (2.0 / 100 + 2.5 / 100)

    def test_no_feasible_grid_point(self):
        profile = TypeProfile.from_arrays([1.0], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.5], [1.0])
        grid = GridSpec(fee_ranges=[(10.0, 11.0)], reward_ranges=[(0.0, 1.0)],
                        fee_steps=11, reward_steps=11)
        result = grid_search_menu(profile, curve, [0.5], grid)
        assert not result.found
        assert result.menu is None and result.objective is None
        assert result.n_feasible == 0

    def test_matches_plain_enumeration(self, canonical_profile, canonical_curve, canonical_benchmarks):
        # independent re-enumeration on a coarse grid must agree with the
        # dominance-accelerated search
        grid = GridSpec(fee_ranges=[(0.0, 2.0)] * 2, reward_ranges=[(0.0, 2.5)] * 2,
                        fee_steps=9, reward_steps=9)
        result = grid_search_menu(canonical_profile, canonical_curve, canonical_benchmarks, grid)

        best = None
        axes = [grid.fee_axis(0), grid.fee_axis(1), grid.reward_axis(0), grid.reward_axis(1)]
        for f1, f2, r1, r2 in itertools.product(*axes):
            menu = ContractMenu(items=(item(1, f1, r1, 0.3), item(2, f2, r2, 0.5)))
            if not verify_feasibility(canonical_profile, menu).feasible:
                continue
            obj = server_expected_utility(canonical_profile, menu, canonical_curve)
            key = (f1, f2, r1, r2)
            if best is None or obj > best[0] or (obj == best[0] and key < best[1]):
                best = (obj, key)
        assert result.found
        assert result.objective == pytest.approx(best[0], abs=1e-12)
        assert (tuple(result.menu.fees) + tuple(result.menu.rewards)) == pytest.approx(best[1])

    def test_too_many_types_rejected(self):
        profile = random_profile(np.random.default_rng(0), n=4)
        curve = RevenueCurve.exponential(1.0, 1.0)
        grid = GridSpec(fee_ranges=[(0, 1)] * 4, reward_ranges=[(0, 1)] * 4,
                        fee_steps=3, reward_steps=3)
        with pytest.raises(ValueError):
            grid_search_menu(profile, curve, [0.2, 0.3, 0.4, 0.5], grid)


class TestTypesAndSerialization:
    def test_client_type_validation(self):
        with pytest.raises(ValueError):
            ClientType(1, 0.0, 0.5)
        with pytest.raises(ValueError):
            ClientType(1, 1.2, 0.5)
        with pytest.raises(ValueError):
            ClientType(1, 0.5, 1.5)

    def test_profile_beta_sum(self):
        with pytest.raises(ValueError):
            TypeProfile.from_arrays([0.4, 0.8], [0.4, 0.4], 1.0)

    def test_item_validation(self):
        with pytest.raises(ValueError):
            ContractItem(1, -0.1, 1.0, 0.5)
        with pytest.raises(ValueError):
            ContractItem(1, 0.1, -1.0, 0.5)
        with pytest.raises(ValueError):
            ContractItem(1, 0.1, 1.0, 1.5)

    @pytest.mark.parametrize("fee, reward", [(float("nan"), 1.0), (0.1, float("nan")),
                                             (float("inf"), 1.0), (0.1, float("inf"))])
    def test_item_rejects_non_finite(self, fee, reward):
        with pytest.raises(ValueError, match="finite"):
            ContractItem(1, fee, reward, 0.5)

    def test_menu_json_roundtrip(self, canonical_profile, canonical_curve, canonical_benchmarks, tmp_path):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        path = tmp_path / "menu.json"
        menu.to_json(path)
        payload = json.loads(path.read_text())
        assert set(payload["items"][0]) == {"index", "f", "R", "M"}
        back = ContractMenu.from_json(path)
        np.testing.assert_array_equal(back.fees, menu.fees)
        np.testing.assert_array_equal(back.rewards, menu.rewards)
        np.testing.assert_array_equal(back.benchmarks, menu.benchmarks)

    def test_profile_dict_roundtrip(self, canonical_profile):
        back = TypeProfile.from_dict(canonical_profile.to_dict())
        np.testing.assert_array_equal(back.thetas, canonical_profile.thetas)
        assert back.unit_cost == canonical_profile.unit_cost


class TestRevenueCurve:
    def test_exponential_requires_positive(self):
        with pytest.raises(ValueError):
            RevenueCurve.exponential(0.0, 1.0)
        with pytest.raises(ValueError):
            RevenueCurve.exponential(1.0, -0.5)

    def test_table_must_increase(self):
        with pytest.raises(ValueError):
            RevenueCurve.from_table([0.1, 0.2, 0.3], [1.0, 0.9, 1.5])

    def test_table_must_be_convex(self):
        with pytest.raises(ValueError):
            RevenueCurve.from_table([0.1, 0.2, 0.3], [1.0, 2.0, 2.5])

    @pytest.mark.parametrize("benchmarks, values", [
        ([0.1, 0.2, 0.3], [1.0, float("nan"), 3.0]),
        ([0.1], [float("nan")]),
        ([0.1, float("inf")], [1.0, 2.0]),
    ])
    def test_table_rejects_non_finite(self, benchmarks, values):
        with pytest.raises(ValueError, match="finite"):
            RevenueCurve.from_table(benchmarks, values)

    def test_table_lookup_unknown(self):
        curve = RevenueCurve.from_table([0.1, 0.3], [1.0, 2.0])
        with pytest.raises(KeyError):
            curve(0.2)

    def test_exponential_convexity_check_passes(self):
        RevenueCurve.exponential(0.5, 3.0).check_increasing_convex([0.1, 0.4, 0.9])


class TestReferenceSettings:
    def test_table_ratios_strictly_increase(self, mnist_settings):
        ratios = [e / t for e, t in zip(mnist_settings["optimal_efforts"], mnist_settings["thetas"])]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(0.3532, abs=5e-5)
        assert ratios[1] == pytest.approx(0.4164, abs=5e-5)

    def test_solved_menu_reproduces_published_efforts(self, mnist_settings):
        profile = TypeProfile.from_arrays(
            mnist_settings["thetas"], mnist_settings["betas"], 1.0
        )
        ratios = [e / t for e, t in zip(mnist_settings["optimal_efforts"], mnist_settings["thetas"])]
        curve = RevenueCurve.from_table(mnist_settings["benchmarks"], ratios)
        menu = solve_optimal_menu(profile, curve, mnist_settings["benchmarks"])
        assert np.all(np.diff(menu.rewards) > 0)
        efforts = [
            best_response_effort(t.theta, it.reward, 1.0).effort
            for t, it in zip(profile.types, menu)
        ]
        np.testing.assert_allclose(efforts, mnist_settings["optimal_efforts"], atol=1e-12)
        assert verify_feasibility(profile, menu).feasible
