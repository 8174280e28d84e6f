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
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpact import contracts
from fedpact.contracts import (
    ContractMenu,
    FeasibilityReport,
    GridSpec,
    MenuMismatchError,
    RevenueCurve,
    TypeProfile,
    envelope_utilities,
    grid_search_menu,
    server_expected_utility,
    solve_optimal_menu,
    verify_feasibility,
)
from fedpact.simulation import choose_contract
from conftest import (
    best_rows,
    clamped_expected_utility,
    fee_recursion,
    menu_of,
    menu_rows,
    random_benchmarks,
    random_feasible_menu,
    random_increasing_convex_curve,
    random_profile,
)


def item(fee, reward, benchmark=0.5):
    """One (f, R, M) menu row."""
    return (fee, reward, benchmark)


def utility(theta, it, c):
    """The one entry of the envelope-utility matrix of a one-type, one-item menu."""
    return envelope_utilities([theta], menu_of(it), c)[0, 0]


def response(theta, it, c):
    """``choose_contract`` of a one-item menu: (row, effort, tied)."""
    return choose_contract(theta, menu_of(it), c)


class TestEffortAndUtilities:
    def test_zero_quality_zero_effort(self):
        assert response(0.0, item(0.0, 5.0), 1.0) == (0, 0.0, False)

    def test_interior_effort(self):
        assert response(0.5, item(0.0, 1.0), 1.0) == (0, 0.5, False)

    def test_clamped_effort_keeps_raw(self):
        # the envelope utility is at the raw best response theta R / c = 2,
        # (c/2) 2^2 = 2.0, not at the clamped effort 1 (2 - 1/2 = 1.5)
        assert response(1.0, item(0.0, 2.0), 1.0) == (0, 1.0, False)
        assert utility(1.0, item(0.0, 2.0), 1.0) == 2.0

    def test_reference_effort_ratio(self, mnist_settings):
        theta = mnist_settings["thetas"][0]
        ratio = mnist_settings["optimal_efforts"][0] / theta
        assert response(theta, item(0.0, ratio), 1.0)[1] == pytest.approx(0.279, abs=1e-12)

    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            response(0.5, item(0.0, 1.0), 0.0)

    def test_quality_must_be_non_negative(self):
        with pytest.raises(ValueError, match="theta"):
            response(-0.5, item(0.0, 1.0), 1.0)

    def test_zero_effort_pays_the_fee(self):
        # zero reward, zero best-response effort: the fee is all that is left
        assert utility(0.7, item(2.0, 0.0), 1.0) == -2.0

    def test_utility_balances_to_zero(self):
        # fee at the bottom type's IR bound (theta R)^2 / 2c
        assert utility(0.8, item(0.32, 1.0), 1.0) == pytest.approx(0.0)

    def test_utility_top(self):
        assert utility(1.0, item(0.0, 1.0), 1.0) == pytest.approx(0.5)

    def test_envelope_bottom_binds(self):
        assert utility(0.5, item(0.125, 1.0), 1.0) == pytest.approx(0.0)

    def test_envelope_top_own(self):
        assert utility(1.0, item(1.625, 2.0), 1.0) == pytest.approx(0.375)

    def test_envelope_top_downward_equal(self):
        assert utility(1.0, item(0.125, 1.0), 1.0) == pytest.approx(0.375)


class TestServerUtility:
    def test_single_type_reference(self):
        profile = TypeProfile.from_arrays([1.0], [1.0], 1.0)
        curve = RevenueCurve.from_table([0.5], [1.0])
        menu = menu_of(item(0.5, 1.0))
        assert server_expected_utility(profile, menu, curve) == pytest.approx(0.5)

    def test_first_best_substitution(self):
        # with R = G and f = (theta R)^2 / 2c the objective is theta^2 G^2 / 2c
        profile = TypeProfile.from_arrays([0.8], [1.0], 2.0)
        g = 1.7
        curve = RevenueCurve.from_table([0.4], [g])
        fee = (0.8 * g) ** 2 / 4.0
        menu = menu_of(item(fee, g, 0.4))
        expected = 0.8**2 * g**2 / 4.0
        assert server_expected_utility(profile, menu, curve) == pytest.approx(expected)

    def test_zero_fee_at_first_best_reward_is_zero(self, canonical_profile, canonical_curve):
        menu = menu_of(item(0.0, 1.0, 0.3), item(0.0, 2.0, 0.5))
        assert server_expected_utility(canonical_profile, menu, canonical_curve) == pytest.approx(0.0)

    def test_length_mismatch(self, canonical_profile, canonical_curve):
        menu = menu_of(item(0.0, 1.0))
        with pytest.raises(MenuMismatchError):
            server_expected_utility(canonical_profile, menu, canonical_curve)

    def test_clamped_variant_differs_when_raw_exceeds_one(self):
        profile = TypeProfile.from_arrays([1.0], [1.0], 0.5)
        curve = RevenueCurve.from_table([0.5], [2.0])
        menu = menu_of(item(0.0, 1.0))
        raw = server_expected_utility(profile, menu, curve)       # e = 2
        clamped = clamped_expected_utility(profile, menu, curve)
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
        menu = menu_of(item(0.125, 1.0, 0.3), item(2.625, 2.0, 0.5))
        report = verify_feasibility(canonical_profile, menu)
        assert not report.feasible
        assert report.ic_slack(2, 1) == pytest.approx(-1.0)

    def test_degenerate_zero_menu(self, canonical_profile):
        menu = menu_of(item(0.0, 0.0, 0.3), item(0.0, 0.0, 0.5))
        report = verify_feasibility(canonical_profile, menu)
        assert report.feasible
        assert all(s == 0.0 for s in report.ir_slacks)
        assert np.all(report.ic_slacks == 0.0)

    def test_length_mismatch(self, canonical_profile):
        with pytest.raises(MenuMismatchError):
            verify_feasibility(canonical_profile, ContractMenu([], [], []))

    def test_report_serializable(self, canonical_profile, canonical_curve, canonical_benchmarks, tmp_path):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        report = verify_feasibility(canonical_profile, menu)
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"feasible", "tolerance", "ir", "ic"}
        assert payload["feasible"] is True
        assert abs(payload["ir"][0]) <= payload["tolerance"]  # IR binds at type 1
        assert [len(row) for row in payload["ic"]] == [2, 2]
        assert payload["ic"][0][0] == payload["ic"][1][1] == 0.0


def scalar_slacks(profile, menu):
    """IR and IC slacks one pair at a time, by the scalar envelope expression."""
    c = profile.unit_cost

    def u(theta, row):
        fee, reward, _ = row
        return (theta * reward) ** 2 / (2.0 * c) - fee

    thetas, rows = profile.thetas.tolist(), menu_rows(menu)
    own = [u(theta, row) for theta, row in zip(thetas, rows)]
    ic = [[own[i] - u(theta, row) for row in rows] for i, theta in enumerate(thetas)]
    return own, ic


class TestUtilityMatrix:
    @pytest.mark.parametrize("n", [1, 2, 10, 300])
    @pytest.mark.parametrize("kind", ["solved", "random"])
    def test_slacks_bit_identical_to_scalar(self, n, kind):
        rng = np.random.default_rng(n)
        thetas = np.sort(rng.uniform(0.05, 1.0, n))
        profile = TypeProfile.from_arrays(thetas, rng.dirichlet(np.ones(n)), rng.uniform(0.1, 10.0))
        if kind == "solved":
            benchmarks = np.sort(rng.uniform(0.0, 1.0, n))
            curve = RevenueCurve.exponential(rng.uniform(0.1, 2.0), rng.uniform(0.2, 3.0))
            menu = solve_optimal_menu(profile, curve, benchmarks)
        else:
            fees, rewards = rng.uniform(0.0, 3.0, (2, n))
            menu = ContractMenu(fees, rewards, np.full(n, 0.5))
        report = verify_feasibility(profile, menu)
        own, ic = scalar_slacks(profile, menu)
        assert report.ir_slacks.tolist() == own
        assert report.ic_slacks.tolist() == ic
        assert all(report.ic_slacks[i, i] == 0.0 for i in range(n))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.floats(1.0, 1e6))
    def test_decisions_independent_of_revenue_units(self, data, k):
        # G -> kG scales every fee and utility by k^2; the solved menu stays
        # feasible with the same binding pattern and the same ties.  Gaps keep
        # every non-binding slack above the unit-scale tolerance.
        n = data.draw(st.integers(2, 8))
        gap = st.floats(0.02, 0.1)
        thetas = np.cumsum([data.draw(st.floats(0.05, 0.3))] + [data.draw(gap) for _ in range(n - 1)])
        betas = np.array([data.draw(st.floats(0.1, 1.0)) for _ in range(n)])
        profile = TypeProfile.from_arrays(thetas, betas / betas.sum(), data.draw(st.floats(0.1, 10.0)))
        benchmarks = np.cumsum(
            [data.draw(st.floats(0.05, 0.3))] + [data.draw(st.floats(0.02, 0.08)) for _ in range(n - 1)]
        )
        a, b = data.draw(st.floats(0.1, 2.0)), data.draw(st.floats(0.2, 3.0))
        decisions = []
        for scale in (1.0, k):
            menu = solve_optimal_menu(profile, RevenueCurve.exponential(scale * a, b), benchmarks)
            report = verify_feasibility(profile, menu)
            assert report.feasible, (scale, report.violations())
            c = profile.unit_cost
            decisions.append((
                report.ir_binding,
                report.ic_binding,
                [choose_contract(theta, menu, c)[::2] for theta in profile.thetas.tolist()],
                [best_rows(theta, menu, c) for theta in profile.thetas.tolist()],
            ))
        assert decisions[0] == decisions[1]


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
            utilities = envelope_utilities(profile.thetas, menu, profile.unit_cost).diagonal()
            assert abs(utilities[0]) <= 1e-9          # IR binds at the bottom
            assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_tight_adjacent_downward_ic(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            profile = random_profile(rng)
            benchmarks = random_benchmarks(rng, len(profile))
            curve = random_increasing_convex_curve(rng, benchmarks)
            menu = solve_optimal_menu(profile, curve, benchmarks)
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
            menu = ContractMenu(fees, rewards, np.full(n, 0.5))
            assert verify_feasibility(profile, menu).feasible


class TestPooling:
    """``solve_optimal_menu`` pools non-monotone rewards (unsorted benchmarks
    on a table curve) to their beta-weighted average and rebuilds the fees."""

    def test_identity_on_monotone(self, canonical_profile, canonical_curve, canonical_benchmarks):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        assert menu.rewards.tolist() == [canonical_curve(m) for m in canonical_benchmarks]

    def test_pool_single_violation(self):
        profile = TypeProfile.from_arrays([0.4, 0.8], [0.5, 0.5], 1.0)
        curve = RevenueCurve.from_table([0.3, 0.5], [1.0, 2.0])
        pooled = solve_optimal_menu(profile, curve, [0.5, 0.3])
        np.testing.assert_allclose(pooled.rewards, [1.5, 1.5])
        assert pooled.benchmarks.tolist() == [0.5, 0.3]

    def test_pool_decreasing_run(self):
        profile = TypeProfile.from_arrays([0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3], 1.0)
        curve = RevenueCurve.from_table([0.2, 0.4, 0.6], [1.0, 2.0, 3.0])
        pooled = solve_optimal_menu(profile, curve, [0.2, 0.6, 0.4])
        np.testing.assert_allclose(pooled.rewards, [1.0, 2.5, 2.5])

    def test_beta_weighted_pooling(self):
        profile = TypeProfile.from_arrays([0.4, 0.8], [0.8, 0.2], 1.0)
        curve = RevenueCurve.from_table([0.3, 0.5], [1.0, 2.0])
        pooled = solve_optimal_menu(profile, curve, [0.5, 0.3])
        np.testing.assert_allclose(pooled.rewards, [1.8, 1.8])

    def test_cascading_pool(self):
        # pooling the tail run drags it below the head, forcing a re-pool
        profile = TypeProfile.from_arrays([0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3], 1.0)
        curve = RevenueCurve.from_table([0.1, 0.7, 0.9], [1.0, 3.0, 4.0])
        pooled = solve_optimal_menu(profile, curve, [0.7, 0.9, 0.1])
        # (4, 1) pools to 2.5 < 3, so all three pool to 8/3
        np.testing.assert_allclose(pooled.rewards, np.full(3, 8.0 / 3.0))

    def test_idempotent(self):
        # the solver pools only on a decrease, and a pooled sequence has
        # none left, so pooling never fires twice
        rng = np.random.default_rng(26)
        for _ in range(30):
            profile = random_profile(rng, n=4)
            benchmarks = random_benchmarks(rng, 4)
            curve = random_increasing_convex_curve(rng, benchmarks)
            menu = solve_optimal_menu(profile, curve, rng.permutation(benchmarks))
            assert np.all(np.diff(menu.rewards) >= 0)
            np.testing.assert_allclose(
                menu.fees, fee_recursion(profile.thetas, menu.rewards, profile.unit_cost)
            )

    def test_pooled_menu_fees_rebuilt_and_feasible(self):
        profile = TypeProfile.from_arrays([0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3], 1.0)
        curve = RevenueCurve.from_table([0.2, 0.4, 0.6], [1.0, 2.0, 3.0])
        pooled = solve_optimal_menu(profile, curve, [0.2, 0.6, 0.4])
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


# The zero-beta instances offset the last reward axis, so the cheapest
# feasible column of the last fee holds several grid fees and snapping
# to the wrong end of it changes the winner.  In the tie-across-menus
# instances only the last type counts, and its best item ties in several
# menus of the other types (flat indices 0-2 at I = 2; 0, 26 and 52 at
# I = 3).  At I = 1 the outer grid of the search is empty.
PLAIN_ENUMERATION_ARGS = "thetas, betas, fee_steps, reward_steps, last_rewards"
PLAIN_ENUMERATION_CASES = [
    pytest.param([0.5, 1.0], [0.5, 0.5], 9, 9, (0.0, 2.5), id="canonical"),
    pytest.param([0.5, 1.0], [1.0, 0.0], 17, 5, (0.15, 2.65), id="I2-last-beta-zero"),
    pytest.param([0.5, 1.0], [0.0, 1.0], 17, 5, (0.15, 2.65), id="I2-first-beta-zero"),
    pytest.param([0.4, 0.7, 1.0], [0.5, 0.5, 0.0], 5, 5, (0.15, 2.65), id="I3-last-beta-zero"),
    pytest.param([0.4, 0.7, 1.0], [0.0, 0.5, 0.5], 5, 5, (0.15, 2.65), id="I3-first-beta-zero"),
    pytest.param([0.3, 0.6], [0.0, 1.0], 9, 9, (0.0, 2.5), id="I2-tie-across-menus"),
    pytest.param([0.2, 0.35, 0.5], [0.0, 0.0, 1.0], 5, 5, (0.0, 2.5), id="I3-tie-across-menus"),
    pytest.param([1.0], [1.0], 17, 9, (0.15, 2.65), id="I1"),
    pytest.param([0.6], [1.0], 9, 17, (0.0, 2.5), id="I1-low-theta"),
]


def plain_enumeration_instance(thetas, betas, fee_steps, reward_steps, last_rewards):
    """(profile, curve, benchmarks, grid) of one ``PLAIN_ENUMERATION_CASES`` entry."""
    n = len(thetas)
    profile = TypeProfile.from_arrays(thetas, betas, 1.0)
    benchmarks = [0.3, 0.5, 0.7][:n]
    curve = RevenueCurve.from_table(benchmarks, [1.0, 2.0, 3.5][:n])
    grid = GridSpec(fee_ranges=[(0.0, 2.0)] * n,
                    reward_ranges=[(0.0, 2.5)] * (n - 1) + [last_rewards],
                    fee_steps=fee_steps, reward_steps=reward_steps)
    return profile, curve, benchmarks, grid


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

    @pytest.mark.parametrize(PLAIN_ENUMERATION_ARGS, PLAIN_ENUMERATION_CASES)
    def test_matches_plain_enumeration(self, thetas, betas, fee_steps, reward_steps, last_rewards):
        # independent re-enumeration on a coarse grid must agree with the
        # dominance-accelerated search, whichever way a zero beta snaps the fee
        n = len(thetas)
        profile, curve, benchmarks, grid = plain_enumeration_instance(
            thetas, betas, fee_steps, reward_steps, last_rewards
        )
        result = grid_search_menu(profile, curve, benchmarks, grid)

        best = None
        axes = [grid.fee_axis(i) for i in range(n)] + [grid.reward_axis(i) for i in range(n)]
        for key in itertools.product(*axes):
            menu = ContractMenu(key[:n], key[n:], benchmarks)
            if not verify_feasibility(profile, menu).feasible:
                continue
            obj = server_expected_utility(profile, menu, curve)
            if best is None or obj > best[0] or (obj == best[0] and key < best[1]):
                best = (obj, key)
        assert result.found
        assert result.objective == pytest.approx(best[0], abs=1e-12)
        assert (tuple(result.menu.fees) + tuple(result.menu.rewards)) == pytest.approx(best[1])

    # With blocks of 1 and 7 the tie-across-menus winners are settled by
    # the merge between blocks, not within one.
    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize(PLAIN_ENUMERATION_ARGS, PLAIN_ENUMERATION_CASES)
    def test_block_size_does_not_change_result(
        self, monkeypatch, block, thetas, betas, fee_steps, reward_steps, last_rewards
    ):
        instance = plain_enumeration_instance(thetas, betas, fee_steps, reward_steps, last_rewards)
        default = grid_search_menu(*instance)
        monkeypatch.setattr(contracts, "_OUTER_BLOCK", block)
        blocked = grid_search_menu(*instance)
        assert blocked.found and blocked.found == default.found
        assert blocked.menu.to_dict() == default.menu.to_dict()
        assert blocked.objective == default.objective
        assert blocked.n_feasible == default.n_feasible
        assert blocked.n_evaluated == default.n_evaluated

    def test_too_many_types_rejected(self):
        profile = random_profile(np.random.default_rng(0), n=4)
        curve = RevenueCurve.exponential(1.0, 1.0)
        grid = GridSpec(fee_ranges=[(0, 1)] * 4, reward_ranges=[(0, 1)] * 4,
                        fee_steps=3, reward_steps=3)
        with pytest.raises(ValueError):
            grid_search_menu(profile, curve, [0.2, 0.3, 0.4, 0.5], grid)


class TestTypesAndSerialization:
    def test_client_type_validation(self):
        with pytest.raises(ValueError, match="theta must lie"):
            TypeProfile.from_arrays([0.0], [1.0], 1.0)
        with pytest.raises(ValueError, match="theta must lie"):
            TypeProfile.from_arrays([0.5, 1.2], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="beta must lie"):
            TypeProfile.from_arrays([0.5, 0.9], [1.5, -0.5], 1.0)

    @pytest.mark.parametrize("unit_cost", [float("nan"), float("inf")])
    def test_profile_rejects_non_finite_cost(self, unit_cost):
        with pytest.raises(ValueError, match="^unit_cost: must be finite"):
            TypeProfile.from_arrays([0.5, 1.0], [0.5, 0.5], unit_cost)

    def test_profile_beta_sum(self):
        with pytest.raises(ValueError):
            TypeProfile.from_arrays([0.4, 0.8], [0.4, 0.4], 1.0)

    def test_item_validation(self):
        with pytest.raises(ValueError, match="fee must be"):
            ContractMenu([-0.1], [1.0], [0.5])
        with pytest.raises(ValueError, match="reward must be"):
            ContractMenu([0.1, 0.1], [1.0, -1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="benchmark must lie"):
            ContractMenu([0.1], [1.0], [1.5])
        with pytest.raises(ValueError, match="equal length"):
            ContractMenu([0.1, 0.2], [1.0], [0.5])

    @pytest.mark.parametrize("fee, reward", [(float("nan"), 1.0), (0.1, float("nan")),
                                             (float("inf"), 1.0), (0.1, float("inf"))])
    def test_item_rejects_non_finite(self, fee, reward):
        with pytest.raises(ValueError, match="finite"):
            ContractMenu([fee], [reward], [0.5])

    def test_columns_are_read_only(self, canonical_profile, canonical_curve, canonical_benchmarks):
        menu = solve_optimal_menu(canonical_profile, canonical_curve, canonical_benchmarks)
        for column in (menu.fees, menu.rewards, canonical_profile.thetas, canonical_profile.betas):
            assert column.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0

    def test_columns_copy_their_input(self):
        fees = np.array([0.1, 0.2])
        menu = ContractMenu(fees, [1.0, 2.0], [0.3, 0.5])
        fees[0] = 9.0
        assert menu.fees.tolist() == [0.1, 0.2]
        assert fees.flags.writeable

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_dict_roundtrip_and_index_order(self, data):
        # any valid menu comes back bit for bit; an index list that is not
        # 1..I in order is rejected, naming the first misplaced item
        n = data.draw(st.integers(1, 8))
        money = st.floats(0.0, 1e6, allow_subnormal=True)
        fees, rewards = (data.draw(st.lists(money, min_size=n, max_size=n)) for _ in range(2))
        benchmarks = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        menu = ContractMenu(fees, rewards, benchmarks)
        back = ContractMenu.from_dict(json.loads(json.dumps(menu.to_dict())))
        for column in ("fees", "rewards", "benchmarks"):
            assert getattr(back, column).tobytes() == getattr(menu, column).tobytes()
        order = data.draw(st.permutations(range(1, n + 1)))
        payload = menu.to_dict()
        for row, index in zip(payload["items"], order):
            row["index"] = index
        if list(order) == sorted(order):
            assert ContractMenu.from_dict(payload).fees.tobytes() == menu.fees.tobytes()
        else:
            first = next(k for k, index in enumerate(order) if index != k + 1)
            with pytest.raises(ValueError, match=rf"^items\[{first}\]\.index: "):
                ContractMenu.from_dict(payload)

    def test_index_must_equal_position(self):
        payload = {"items": [{"index": 1, "f": 0.1, "R": 1.0, "M": 0.3},
                             {"index": 7, "f": 0.2, "R": 2.0, "M": 0.5}]}
        with pytest.raises(ValueError, match=r"items\[1\]\.index: must be 2"):
            ContractMenu.from_dict(payload)

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


class TestRevenueCurve:
    def test_exponential_requires_positive(self):
        with pytest.raises(ValueError):
            RevenueCurve.exponential(0.0, 1.0)
        with pytest.raises(ValueError):
            RevenueCurve.exponential(1.0, -0.5)

    @pytest.mark.parametrize("a, b", [(float("nan"), 1.0), (float("inf"), 1.0),
                                      (1.0, float("nan")), (1.0, float("inf"))])
    def test_exponential_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            RevenueCurve.exponential(a, b)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            RevenueCurve.from_table([], [])

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
            response(theta, item(0.0, reward), 1.0)[1]
            for theta, reward in zip(profile.thetas.tolist(), menu.rewards.tolist())
        ]
        np.testing.assert_allclose(efforts, mnist_settings["optimal_efforts"], atol=1e-12)
        assert verify_feasibility(profile, menu).feasible
