"""Contract menus for quality-typed clients and their closed-form optimum.

The server publishes a menu of items (f_i, R_i, M_i): pay a registration
fee f_i up front, earn the reward R_i if the submitted model clears the
accuracy benchmark M_i.  A client of quality theta facing reward R picks
its training effort to maximize

    U(e) = theta * e * R - f - (c/2) * e^2,

so the best response is e = theta * R / c and the resulting envelope
utility is (theta * R)^2 / (2c) - f.  The server, knowing only the type
distribution beta, maximizes

    sum_i beta_i * ( f_i + theta_i^2 * R_i * (G(M_i) - R_i) / c )

subject to every type preferring participation (IR) and its own item
over every other item (IC), where G(M) is the revenue an accepted model
of benchmark M generates (G increasing and convex).

Reducing the constraint set to a binding bottom-type IR plus binding
adjacent downward IC gives the closed form implemented here:

    R_i = G(M_i)
    f_1 = (theta_1 * R_1)^2 / (2c)
    f_i = f_{i-1} + (theta_i^2 / (2c)) * (R_i^2 - R_{i-1}^2)

If the resulting rewards are not non-decreasing (possible when the
benchmarks are not sorted), adjacent violating runs are pooled to their
beta-weighted average and the fees are rebuilt by the same recursion.

``verify_feasibility`` checks IR and all ordered IC pairs by exhaustive
enumeration, and ``grid_search_menu`` provides an independent
brute-force optimality oracle for small instances.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

DEFAULT_TOLERANCE = 1e-9


class MenuMismatchError(ValueError):
    """Menu and type profile (or architecture) disagree on shape."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClientType:
    """One quality type: index (1-based), quality theta, population share beta."""

    index: int
    theta: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class TypeProfile:
    """Ordered client types with strictly increasing quality, plus unit effort cost."""

    types: tuple[ClientType, ...]
    unit_cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValueError("profile needs at least one type")
        if self.unit_cost <= 0.0:
            raise ValueError(f"unit cost must be positive, got {self.unit_cost}")
        thetas = [t.theta for t in self.types]
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError(f"thetas must be strictly increasing, got {thetas}")
        total = math.fsum(t.beta for t in self.types)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"betas must sum to 1, got {total}")

    @classmethod
    def from_arrays(
        cls, thetas: Sequence[float], betas: Sequence[float], unit_cost: float
    ) -> "TypeProfile":
        if len(thetas) != len(betas):
            raise ValueError("thetas and betas must have equal length")
        types = tuple(
            ClientType(index=i + 1, theta=float(th), beta=float(b))
            for i, (th, b) in enumerate(zip(thetas, betas))
        )
        return cls(types=types, unit_cost=float(unit_cost))

    def __len__(self) -> int:
        return len(self.types)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([t.theta for t in self.types])

    @property
    def betas(self) -> np.ndarray:
        return np.array([t.beta for t in self.types])

    def to_dict(self) -> dict:
        return {
            "types": [
                {"index": t.index, "theta": t.theta, "beta": t.beta} for t in self.types
            ],
            "c": self.unit_cost,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TypeProfile":
        if "types" in payload:
            return cls.from_arrays(
                [t["theta"] for t in payload["types"]],
                [t["beta"] for t in payload["types"]],
                payload["c"],
            )
        return cls.from_arrays(payload["thetas"], payload["betas"], payload["c"])


@dataclass(frozen=True)
class ContractItem:
    """One menu entry: registration fee, reward, and accuracy benchmark."""

    index: int
    fee: float
    reward: float
    benchmark: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fee) and self.fee >= 0.0):
            raise ValueError(f"fee must be finite and non-negative, got {self.fee}")
        if not (math.isfinite(self.reward) and self.reward >= 0.0):
            raise ValueError(f"reward must be finite and non-negative, got {self.reward}")
        if not 0.0 <= self.benchmark <= 1.0:
            raise ValueError(f"benchmark must lie in [0, 1], got {self.benchmark}")

    def to_dict(self) -> dict:
        return {"index": self.index, "f": self.fee, "R": self.reward, "M": self.benchmark}

    @classmethod
    def from_dict(cls, payload: dict) -> "ContractItem":
        return cls(
            index=int(payload["index"]),
            fee=float(payload["f"]),
            reward=float(payload["R"]),
            benchmark=float(payload["M"]),
        )


@dataclass(frozen=True)
class ContractMenu:
    """Ordered menu, one item per type."""

    items: tuple[ContractItem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i: int) -> ContractItem:
        return self.items[i]

    @property
    def fees(self) -> np.ndarray:
        return np.array([it.fee for it in self.items])

    @property
    def rewards(self) -> np.ndarray:
        return np.array([it.reward for it in self.items])

    @property
    def benchmarks(self) -> np.ndarray:
        return np.array([it.benchmark for it in self.items])

    def to_dict(self) -> dict:
        return {"items": [it.to_dict() for it in self.items]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ContractMenu":
        return cls(items=tuple(ContractItem.from_dict(p) for p in payload["items"]))

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "ContractMenu":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class RevenueCurve:
    """Revenue G(M) the server earns from a model that clears benchmark M.

    Must be increasing and convex where it is used.  Two constructions:
    a closed-form exponential family a * exp(b * M) with a, b > 0, or an
    explicit per-benchmark table.
    """

    def __init__(self, fn: Callable[[float], float], description: str):
        self._fn = fn
        self.description = description

    def __call__(self, benchmark: float) -> float:
        return float(self._fn(benchmark))

    def __repr__(self) -> str:
        return f"RevenueCurve({self.description})"

    @classmethod
    def exponential(cls, a: float, b: float) -> "RevenueCurve":
        if a <= 0.0 or b <= 0.0:
            raise ValueError("exponential revenue curve needs a > 0 and b > 0")
        return cls(lambda m: a * math.exp(b * m), f"{a!r}*exp({b!r}*M)")

    @classmethod
    def from_table(
        cls, benchmarks: Sequence[float], values: Sequence[float]
    ) -> "RevenueCurve":
        if len(benchmarks) != len(values):
            raise ValueError("table benchmarks and values must have equal length")
        order = np.argsort(benchmarks)
        ms = np.asarray(benchmarks, dtype=float)[order]
        gs = np.asarray(values, dtype=float)[order]
        if not (np.all(np.isfinite(ms)) and np.all(np.isfinite(gs))):
            raise ValueError("table benchmarks and values must be finite")
        if len(np.unique(ms)) != len(ms):
            raise ValueError("table benchmarks must be distinct")
        table = {float(m): float(g) for m, g in zip(ms, gs)}

        def lookup(m: float) -> float:
            key = float(m)
            if key in table:
                return table[key]
            near = ms[np.argmin(np.abs(ms - key))]
            if abs(near - key) <= 1e-12:
                return table[float(near)]
            raise KeyError(f"benchmark {m} not in revenue table {sorted(table)}")

        curve = cls(lookup, f"table over {len(table)} benchmarks")
        curve.check_increasing_convex(ms)
        return curve

    def check_increasing_convex(self, benchmarks: Sequence[float]) -> None:
        """Finite-difference check on the sampled values: first differences
        positive, slopes (divided differences, to honor unequal benchmark
        spacing) non-decreasing.  Raises ValueError on violation; a single
        benchmark passes trivially.
        """
        ms = np.unique(np.asarray(benchmarks, dtype=float))
        if len(ms) < 2:
            return
        gs = np.array([self(m) for m in ms])
        if not np.all(np.isfinite(gs)):
            raise ValueError(f"revenue curve not finite on {ms.tolist()}")
        first = np.diff(gs)
        if np.any(first <= 0.0):
            raise ValueError(f"revenue curve not increasing on {ms.tolist()}")
        slopes = first / np.diff(ms)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(slopes))))
        if np.any(np.diff(slopes) < -tol):
            raise ValueError(f"revenue curve not convex on {ms.tolist()}")


# ---------------------------------------------------------------------------
# utilities of the two sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffortResponse:
    """Best-response effort: the value used physically (clamped to [0, 1])
    and the raw stationary point theta*R/c used by the envelope algebra."""

    effort: float
    raw: float


def best_response_effort(theta: float, reward: float, c: float) -> EffortResponse:
    """Effort maximizing theta*e*R - (c/2)e^2, clamped to the feasible [0, 1]."""
    if c <= 0.0:
        raise ValueError(f"unit cost must be positive, got {c}")
    if theta < 0.0 or reward < 0.0:
        raise ValueError("theta and reward must be non-negative")
    raw = theta * reward / c
    return EffortResponse(effort=min(max(raw, 0.0), 1.0), raw=raw)


def client_utility(theta: float, effort: float, item: ContractItem, c: float) -> float:
    """theta*e*R - f - (c/2)e^2 at a given effort level."""
    if not 0.0 <= effort <= 1.0:
        raise ValueError(f"effort must lie in [0, 1], got {effort}")
    return theta * effort * item.reward - item.fee - 0.5 * c * effort**2


def client_utility_at_best_response(theta: float, item: ContractItem, c: float) -> float:
    """Envelope utility (theta*R)^2/(2c) - f at the raw (unclamped) best response."""
    if c <= 0.0:
        raise ValueError(f"unit cost must be positive, got {c}")
    return (theta * item.reward) ** 2 / (2.0 * c) - item.fee


def server_expected_utility(
    profile: TypeProfile,
    menu: ContractMenu,
    curve: RevenueCurve,
    clamp_effort: bool = False,
) -> float:
    """Expected server utility sum_i beta_i * (f_i + theta_i * e_i * (G(M_i) - R_i)).

    With ``clamp_effort=False`` the raw best response theta*R/c is used,
    matching the reduced objective the optimal menu maximizes; with
    ``clamp_effort=True`` efforts are clamped to [0, 1] as a simulated
    round realizes them.
    """
    if len(menu) != len(profile):
        raise MenuMismatchError(
            f"menu has {len(menu)} items for {len(profile)} types"
        )
    c = profile.unit_cost
    total = 0.0
    for ctype, item in zip(profile.types, menu):
        response = best_response_effort(ctype.theta, item.reward, c)
        e = response.effort if clamp_effort else response.raw
        revenue = curve(item.benchmark)
        total += ctype.beta * (item.fee + ctype.theta * e * (revenue - item.reward))
    return total


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    """IR and pairwise IC slacks for a menu against a type profile.

    Slack conventions (envelope utilities, raw best response):
      IR slack of type i:        u_i(i)
      IC slack of pair (i, j):   u_i(i) - u_i(j)
    Feasible iff every slack >= -tolerance; a constraint binds when its
    slack lies within tolerance of zero.
    """

    ir_slacks: tuple[float, ...]
    ic_slacks: tuple[tuple[int, int, float], ...]
    tolerance: float

    @property
    def feasible(self) -> bool:
        ok_ir = all(s >= -self.tolerance for s in self.ir_slacks)
        ok_ic = all(s >= -self.tolerance for _, _, s in self.ic_slacks)
        return ok_ir and ok_ic

    @property
    def ir_binding(self) -> tuple[int, ...]:
        """1-based type indices whose IR constraint binds."""
        return tuple(
            i + 1 for i, s in enumerate(self.ir_slacks) if abs(s) <= self.tolerance
        )

    @property
    def ic_binding(self) -> tuple[tuple[int, int], ...]:
        """(i, j) pairs (1-based) whose IC constraint binds."""
        return tuple((i, j) for i, j, s in self.ic_slacks if abs(s) <= self.tolerance)

    def ic_slack(self, i: int, j: int) -> float:
        for a, b, s in self.ic_slacks:
            if (a, b) == (i, j):
                return s
        raise KeyError(f"no IC pair ({i}, {j})")

    def violations(self) -> list[str]:
        out = []
        for i, s in enumerate(self.ir_slacks):
            if s < -self.tolerance:
                out.append(f"IR type {i + 1}: slack {s:.6g}")
        for i, j, s in self.ic_slacks:
            if s < -self.tolerance:
                out.append(f"IC type {i} vs item {j}: slack {s:.6g}")
        return out

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "tolerance": self.tolerance,
            "ir": [
                {"index": i + 1, "slack": s, "binding": abs(s) <= self.tolerance}
                for i, s in enumerate(self.ir_slacks)
            ],
            "ic": [
                {"i": i, "j": j, "slack": s, "binding": abs(s) <= self.tolerance}
                for i, j, s in self.ic_slacks
            ],
        }

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def verify_feasibility(
    profile: TypeProfile,
    menu: ContractMenu,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FeasibilityReport:
    """Check IR for every type and IC for every ordered pair of types."""
    if len(menu) != len(profile):
        raise MenuMismatchError(f"menu has {len(menu)} items for {len(profile)} types")
    c = profile.unit_cost
    own = [
        client_utility_at_best_response(t.theta, item, c)
        for t, item in zip(profile.types, menu)
    ]
    ir = tuple(own)
    ic = []
    for i, ctype in enumerate(profile.types):
        for j, item in enumerate(menu):
            if i == j:
                continue
            other = client_utility_at_best_response(ctype.theta, item, c)
            ic.append((i + 1, j + 1, own[i] - other))
    return FeasibilityReport(ir_slacks=ir, ic_slacks=tuple(ic), tolerance=tolerance)


# ---------------------------------------------------------------------------
# closed-form optimum
# ---------------------------------------------------------------------------

def _fees_from_rewards(thetas: np.ndarray, rewards: np.ndarray, c: float) -> np.ndarray:
    """Fee recursion: bottom IR binds, adjacent downward IC binds.

    f_1 = (theta_1 R_1)^2 / 2c,
    f_i = f_{i-1} + theta_i^2 (R_i^2 - R_{i-1}^2) / 2c.
    """
    fees = np.empty_like(rewards)
    fees[0] = (thetas[0] * rewards[0]) ** 2 / (2.0 * c)
    for i in range(1, len(rewards)):
        fees[i] = fees[i - 1] + thetas[i] ** 2 * (
            rewards[i] ** 2 - rewards[i - 1] ** 2
        ) / (2.0 * c)
    return fees


def _pooled_rewards(betas: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators with the type probabilities as weights.

    Every maximal decreasing run collapses to its beta-weighted average,
    iterated until the whole sequence is non-decreasing.
    """
    blocks: list[list[float]] = []  # [weight, weighted value sum, length]
    for w, r in zip(betas, rewards):
        blocks.append([w, w * r, 1])
        while len(blocks) > 1:
            w1, s1, n1 = blocks[-2]
            w2, s2, n2 = blocks[-1]
            mean_prev = s1 / w1 if w1 > 0 else 0.0
            mean_last = s2 / w2 if w2 > 0 else 0.0
            if mean_last >= mean_prev:
                break
            blocks[-2:] = [[w1 + w2, s1 + s2, n1 + n2]]
    return np.concatenate(
        [np.full(int(n), (s / w) if w > 0 else 0.0) for w, s, n in blocks]
    )


def solve_optimal_menu(
    profile: TypeProfile,
    curve: RevenueCurve,
    benchmarks: Sequence[float],
    pool_non_monotone: bool = True,
) -> ContractMenu:
    """Closed-form optimal menu: R_i = G(M_i), fees from the binding recursion.

    The constraint reduction is only valid when the reward sequence ends
    up non-decreasing; if it does not (unsorted benchmarks), the rewards
    are pooled to monotonicity before the fee recursion runs.
    ``pool_non_monotone=False`` asks for the raw pre-pooling menu, which
    is well-formed only when the rewards are already monotone (the raw
    fee recursion can go negative otherwise).
    """
    if len(benchmarks) != len(profile):
        raise MenuMismatchError(
            f"{len(benchmarks)} benchmarks for {len(profile)} types"
        )
    curve.check_increasing_convex(benchmarks)
    thetas = profile.thetas
    rewards = np.array([curve(m) for m in benchmarks], dtype=float)
    if pool_non_monotone and np.any(np.diff(rewards) < 0.0):
        rewards = _pooled_rewards(profile.betas, rewards)
    fees = _fees_from_rewards(thetas, rewards, profile.unit_cost)
    return ContractMenu(
        items=tuple(
            ContractItem(index=i + 1, fee=float(f), reward=float(r), benchmark=float(m))
            for i, (f, r, m) in enumerate(zip(fees, rewards, benchmarks))
        )
    )


def enforce_monotonicity(profile: TypeProfile, menu: ContractMenu) -> ContractMenu:
    """Pool adjacent reward violations to restore a non-decreasing sequence.

    Beta-weighted pool-adjacent-violators on the rewards, then fees are
    rebuilt by the binding recursion over the pooled rewards.  Menus that
    are already monotone are returned unchanged, so the map is idempotent.
    """
    if len(menu) != len(profile):
        raise MenuMismatchError(f"menu has {len(menu)} items for {len(profile)} types")
    rewards = menu.rewards
    if np.all(np.diff(rewards) >= 0.0):
        return menu
    pooled = _pooled_rewards(profile.betas, rewards)
    fees = _fees_from_rewards(profile.thetas, pooled, profile.unit_cost)
    return ContractMenu(
        items=tuple(
            ContractItem(
                index=item.index,
                fee=float(f),
                reward=float(r),
                benchmark=item.benchmark,
            )
            for item, f, r in zip(menu, fees, pooled)
        )
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Per-type fee and reward axes for the exhaustive search.

    Each axis is ``steps`` equally spaced points over its closed range.
    """

    fee_ranges: tuple[tuple[float, float], ...]
    reward_ranges: tuple[tuple[float, float], ...]
    fee_steps: int
    reward_steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "fee_ranges", tuple(map(tuple, self.fee_ranges)))
        object.__setattr__(self, "reward_ranges", tuple(map(tuple, self.reward_ranges)))
        if self.fee_steps < 2 or self.reward_steps < 2:
            raise ValueError("grid axes need at least 2 points")
        for lo, hi in (*self.fee_ranges, *self.reward_ranges):
            if hi <= lo:
                raise ValueError(f"empty grid range ({lo}, {hi})")

    def fee_axis(self, i: int) -> np.ndarray:
        lo, hi = self.fee_ranges[i]
        return np.linspace(lo, hi, self.fee_steps)

    def reward_axis(self, i: int) -> np.ndarray:
        lo, hi = self.reward_ranges[i]
        return np.linspace(lo, hi, self.reward_steps)


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of the exhaustive search; ``menu`` is None when no grid
    point satisfies the constraints."""

    menu: ContractMenu | None
    objective: float | None
    n_feasible: int
    n_evaluated: int

    @property
    def found(self) -> bool:
        return self.menu is not None


def grid_search_menu(
    profile: TypeProfile,
    curve: RevenueCurve,
    benchmarks: Sequence[float],
    grid: GridSpec,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GridSearchResult:
    """Maximize the server objective over all feasible menus on a finite grid.

    Independent optimality oracle: enumerates every (f_i, R_i) tuple on
    the grid, keeps those satisfying the IR/IC slack conditions of
    ``verify_feasibility`` at the same tolerance, and returns the best by
    objective (ties broken to the lexicographically smallest
    (f_1..f_I, R_1..R_I) tuple).  The search never consults the closed
    form.  The innermost fee axis is resolved by exact dominance (the
    objective is strictly increasing in each fee when every beta is
    positive), which returns the same optimum as full enumeration; with
    any zero beta it falls back to plain enumeration of that axis.
    ``n_feasible`` counts feasible candidates actually examined (one per
    reward column in dominance mode).  Practical for I <= 3.
    """
    n = len(profile)
    if n > 3:
        raise ValueError("grid search is combinatorial; supported for I <= 3")
    if len(benchmarks) != n:
        raise MenuMismatchError(f"{len(benchmarks)} benchmarks for {n} types")
    if len(grid.fee_ranges) != n or len(grid.reward_ranges) != n:
        raise MenuMismatchError("grid spec must give one fee and one reward range per type")

    thetas = profile.thetas
    betas = profile.betas
    c = profile.unit_cost
    revenues = np.array([curve(m) for m in benchmarks], dtype=float)
    fee_axes = [grid.fee_axis(i) for i in range(n)]
    reward_axes = [grid.reward_axis(i) for i in range(n)]
    last = n - 1
    last_fee_axis = fee_axes[last]
    fee_lo = last_fee_axis[0]
    fee_step = last_fee_axis[1] - last_fee_axis[0]
    dominance_ok = bool(np.all(betas > 0.0))

    def objective_term(i: int, fee: float, reward: float) -> float:
        return betas[i] * (fee + thetas[i] ** 2 * reward * (revenues[i] - reward) / c)

    best_obj = -math.inf
    best_key: tuple[float, ...] | None = None
    n_feasible = 0
    n_evaluated = 0

    outer_axes = [(fee_axes[i], reward_axes[i]) for i in range(last)]
    outer_iter = itertools.product(
        *(itertools.product(fa, ra) for fa, ra in outer_axes)
    ) if outer_axes else iter([()])

    rL = reward_axes[last]
    envelope_last = (thetas[last] * rL) ** 2 / (2.0 * c)

    for outer in outer_iter:
        fees = [fr[0] for fr in outer]
        rewards = [fr[1] for fr in outer]
        # scalar IR / IC checks among the fixed (non-last) types
        ok = True
        for i in range(last):
            if (thetas[i] * rewards[i]) ** 2 / (2.0 * c) - fees[i] < -tolerance:
                ok = False
                break
        if ok:
            for i in range(last):
                ui = (thetas[i] * rewards[i]) ** 2 / (2.0 * c) - fees[i]
                for j in range(last):
                    if i == j:
                        continue
                    if ui - ((thetas[i] * rewards[j]) ** 2 / (2.0 * c) - fees[j]) < -tolerance:
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            n_evaluated += len(rL) * len(last_fee_axis)
            continue

        fixed_obj = math.fsum(
            objective_term(i, fees[i], rewards[i]) for i in range(last)
        )

        # bounds on the last fee, per last reward, from constraints involving it
        ub = envelope_last + tolerance  # IR of the last type
        lb = np.full_like(rL, -math.inf)
        for j in range(last):
            # last type must not prefer item j
            ub_j = (
                thetas[last] ** 2 * (rL**2 - rewards[j] ** 2) / (2.0 * c)
                + fees[j]
                + tolerance
            )
            ub = np.minimum(ub, ub_j)
            # type j must not prefer the last item
            lb_j = (
                thetas[j] ** 2 * (rL**2 - rewards[j] ** 2) / (2.0 * c)
                + fees[j]
                - tolerance
            )
            lb = np.maximum(lb, lb_j)

        if dominance_ok:
            n_evaluated += len(rL) * len(last_fee_axis)
            # largest grid fee not exceeding the upper bound; step down once
            # if float rounding pushed the snapped value over the bound
            idx = np.floor((ub - fee_lo) / fee_step).astype(int)
            idx = np.clip(idx, 0, len(last_fee_axis) - 1)
            over = last_fee_axis[idx] > ub
            idx = np.where(over, np.maximum(idx - 1, 0), idx)
            fL = last_fee_axis[idx]
            feasible = (fL <= ub) & (fL >= lb)
            if not np.any(feasible):
                continue
            n_feasible += int(np.count_nonzero(feasible))
            obj = fixed_obj + betas[last] * (
                fL + thetas[last] ** 2 * rL * (revenues[last] - rL) / c
            )
            obj = np.where(feasible, obj, -math.inf)
            chunk_best = float(np.max(obj))
            if chunk_best == -math.inf:
                continue
            mask = obj == chunk_best
            cand_keys = sorted(
                (*fees, float(fL[k]), *rewards, float(rL[k]))
                for k in np.flatnonzero(mask)
            )
            key = cand_keys[0]
            if chunk_best > best_obj or (chunk_best == best_obj and (best_key is None or key < best_key)):
                best_obj = chunk_best
                best_key = key
        else:
            for fee_last in last_fee_axis:
                for k, r_last in enumerate(rL):
                    n_evaluated += 1
                    if fee_last > ub[k] or fee_last < lb[k]:
                        continue
                    n_feasible += 1
                    obj = fixed_obj + objective_term(last, fee_last, float(r_last))
                    key = (*fees, float(fee_last), *rewards, float(r_last))
                    if obj > best_obj or (obj == best_obj and (best_key is None or key < best_key)):
                        best_obj = obj
                        best_key = key

    if best_key is None:
        return GridSearchResult(menu=None, objective=None, n_feasible=0, n_evaluated=n_evaluated)

    fees_best = best_key[:n]
    rewards_best = best_key[n:]
    menu = ContractMenu(
        items=tuple(
            ContractItem(index=i + 1, fee=fees_best[i], reward=rewards_best[i], benchmark=float(benchmarks[i]))
            for i in range(n)
        )
    )
    report = verify_feasibility(profile, menu, tolerance=tolerance)
    if not report.feasible:  # pragma: no cover - guards float snapping
        raise RuntimeError(f"grid winner failed the feasibility check: {report.violations()}")
    return GridSearchResult(
        menu=menu,
        objective=float(server_expected_utility(profile, menu, curve)),
        n_feasible=n_feasible,
        n_evaluated=n_evaluated,
    )
