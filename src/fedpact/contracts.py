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

``envelope_utilities`` is the one definition of the type-by-item utility
table.  ``verify_feasibility`` turns it in place into the I x I IC slack
matrix, the only place that matrix exists, and returns a
``FeasibilityReport`` of what ``solve`` and ``audit`` report: the IR slacks,
each type's worst IC slack and every IC pair within tolerance of binding.
``simulation.choose_contract`` reads a type's whole response (its item,
clamped effort and tie flag) from that type's row.  ``grid_search_menu``
provides an independent brute-force optimality oracle for small
instances.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

DEFAULT_TOLERANCE = 1e-9


class MenuMismatchError(ValueError):
    """Menu and type profile disagree on shape."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

# the layout of every JSON output: two-space indent, sorted keys, and
# NaN or infinity raises ValueError
_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def _write_json(payload, path: str | Path) -> None:
    """``payload`` in the ``_JSON`` layout, with a final newline."""
    with open(path, "w") as fh:
        fh.writelines(_JSON.iterencode(payload))
        fh.write("\n")


# the input side, for the JSON files that come from outside (a config or an
# audited menu): each raises ValueError naming the file or the field path

def _read_json(path: str | Path):
    """The JSON value in the UTF-8 file ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file") from None
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror})") from None
    except (ValueError, RecursionError) as exc:
        # a decode or UTF-8 error, an integer literal past the int
        # conversion digit limit, or nesting deeper than the decoder's limit
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _object(value, path: str, required: Sequence[str], optional: Sequence[str] = ()) -> dict:
    """``value``, which must be a JSON object holding every ``required``
    key and no key outside ``required`` and ``optional``.  A key is named
    ``path.key``, or bare where ``path`` is empty (a file's top level)."""
    if not isinstance(value, dict):
        raise ValueError(f"{path or 'top level'}: must be an object, got {value!r}")
    where = f"{path}." if path else ""
    known = (*required, *optional)
    for key in value:
        if key not in known:
            raise ValueError(f"{where}{key}: unknown key, valid: {sorted(known)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{where}{key}: missing required field")
    return value


def _number(value, path: str, kind: type):
    """``value`` as ``kind``: an int field needs a JSON integer, a float
    field a JSON number within the float range; a bool or a string is neither."""
    if isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the largest float
            pass
    expected = "an integer" if kind is int else "a number"
    raise ValueError(f"{path}: must be {expected}, got {value!r}")


def _column(values: Sequence[float], name: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, which must be one-dimensional."""
    column = np.array(values, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"{name}: must be one-dimensional, got shape {column.shape}")
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class TypeProfile:
    """Client types as columns, strictly increasing quality ``thetas`` and
    population shares ``betas``, plus the unit effort cost.  Type i (1-based)
    is entry i - 1.  A violated rule raises ValueError whose message starts
    with the field it concerns (``thetas: ``, ``betas: `` or ``unit_cost: ``)."""

    thetas: np.ndarray
    betas: np.ndarray
    unit_cost: float

    def __post_init__(self) -> None:
        thetas, betas = _column(self.thetas, "thetas"), _column(self.betas, "betas")
        if not len(thetas):
            raise ValueError("thetas: at least one type required")
        if len(betas) != len(thetas):
            raise ValueError(f"betas: length {len(betas)} != {len(thetas)} types")
        for theta, beta in zip(thetas.tolist(), betas.tolist()):
            if not 0.0 < theta <= 1.0:
                raise ValueError(f"thetas: every theta must lie in (0, 1], got {theta}")
            if not 0.0 <= beta <= 1.0:
                raise ValueError(f"betas: every beta must lie in [0, 1], got {beta}")
        if np.any(np.diff(thetas) <= 0.0):
            raise ValueError(f"thetas: must be strictly increasing, got {thetas.tolist()}")
        total = math.fsum(betas.tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"betas: must sum to 1 within 1e-9, got {total!r}")
        unit_cost = float(self.unit_cost)
        if not 0.0 < unit_cost < math.inf:
            raise ValueError(f"unit_cost: must be finite and positive, got {unit_cost}")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "unit_cost", unit_cost)

    @classmethod
    def from_arrays(
        cls, thetas: Sequence[float], betas: Sequence[float], unit_cost: float
    ) -> "TypeProfile":
        return cls(thetas, betas, unit_cost)

    def __len__(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True, eq=False)
class ContractMenu:
    """Ordered menu as columns, one (f, R, M) row per type: registration
    ``fees``, ``rewards`` and accuracy ``benchmarks``.  Item i (1-based) is
    row i - 1."""

    fees: np.ndarray
    rewards: np.ndarray
    benchmarks: np.ndarray

    def __post_init__(self) -> None:
        names = ("fees", "rewards", "benchmarks")
        columns = [_column(getattr(self, name), name) for name in names]
        if len({len(column) for column in columns}) > 1:
            raise ValueError("fees, rewards and benchmarks must have equal length")
        for fee, reward, benchmark in zip(*(column.tolist() for column in columns)):
            if not (math.isfinite(fee) and fee >= 0.0):
                raise ValueError(f"fee must be finite and non-negative, got {fee}")
            if not (math.isfinite(reward) and reward >= 0.0):
                raise ValueError(f"reward must be finite and non-negative, got {reward}")
            if not 0.0 <= benchmark <= 1.0:
                raise ValueError(f"benchmark must lie in [0, 1], got {benchmark}")
        for name, column in zip(names, columns):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.fees)

    def to_dict(self) -> dict:
        rows = zip(self.fees.tolist(), self.rewards.tolist(), self.benchmarks.tolist())
        return {
            "items": [{"index": k + 1, "f": f, "R": r, "M": m} for k, (f, r, m) in enumerate(rows)]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ContractMenu":
        """Read a menu; a malformed entry raises ValueError naming it (``items[0].f``).

        ``items[k].index`` must be k + 1: an item's index is its position.
        """
        items = _object(payload, "menu", ("items",))["items"]
        if not isinstance(items, list):
            raise ValueError(f"menu.items: must be a list, got {items!r}")
        rows = [_item_from_dict(p, k) for k, p in enumerate(items)]
        return cls(*np.array(rows, dtype=np.float64).reshape(-1, 3).T)

    def to_json(self, path: str | Path) -> None:
        _write_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, path: str | Path) -> "ContractMenu":
        return cls.from_dict(_read_json(path))


def _item_from_dict(payload: dict, k: int) -> list[float]:
    """Item ``k``'s (f, R, M) row, its index checked against its position."""
    where = f"items[{k}]"
    item = _object(payload, where, ("index", "f", "R", "M"))
    index = _number(item["index"], f"{where}.index", int)
    row = [_number(item[key], f"{where}.{key}", float) for key in ("f", "R", "M")]
    if index != k + 1:
        raise ValueError(
            f"{where}.index: must be {k + 1}, the item's position, got {item['index']!r}"
        )
    return row


class RevenueCurve:
    """Revenue G(M) the server earns from a model that clears benchmark M.

    Must be increasing and convex where it is used.  Two constructions:
    a closed-form exponential family a * exp(b * M) with finite a, b > 0,
    or an explicit, non-empty per-benchmark table.
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
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"exponential revenue curve needs finite a, b > 0, got {a}, {b}")
        return cls(lambda m: a * math.exp(b * m), f"{a!r}*exp({b!r}*M)")

    @classmethod
    def from_table(
        cls, benchmarks: Sequence[float], values: Sequence[float]
    ) -> "RevenueCurve":
        if len(benchmarks) != len(values) or not len(values):
            raise ValueError("table needs matching, non-empty benchmarks and values")
        order = np.argsort(benchmarks)
        ms = np.asarray(benchmarks, dtype=float)[order]
        gs = np.asarray(values, dtype=float)[order]
        if not (np.all(np.isfinite(ms)) and np.all(np.isfinite(gs))):
            raise ValueError("table benchmarks and values must be finite")
        if np.any(np.diff(ms) == 0.0):
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
        """Finite-difference check on the sampled values: every value finite,
        first differences positive, slopes (divided differences, to honor
        unequal benchmark spacing) non-decreasing.  Raises ValueError on
        violation, and the curve's own KeyError or OverflowError where it
        cannot be evaluated; a single benchmark is only evaluated.
        """
        ms = np.sort(np.asarray(benchmarks, dtype=float))
        ms = ms[np.diff(ms, prepend=-math.inf) != 0.0]  # distinct values
        gs = np.array([self(m) for m in ms])
        if not np.all(np.isfinite(gs)):
            raise ValueError(f"revenue curve not finite on {ms.tolist()}")
        if len(ms) < 2:
            return
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

def envelope_utilities(thetas: Sequence[float], menu: ContractMenu, c: float) -> np.ndarray:
    """Type-by-item envelope utilities u[i, j] = (theta_i R_j)^2 / (2c) - f_j
    at the raw (unclamped) best response.

    Squared with libm ``pow``, as the scalar ``x ** 2`` is; an array ``** 2``
    multiplies instead and can differ in the last bit.  A utility, or a
    difference of two (an IC slack, a tie gap), beyond the float range
    raises ValueError.
    """
    if c <= 0.0:
        raise ValueError(f"unit cost must be positive, got {c}")
    reach = np.multiply.outer(np.asarray(thetas, dtype=float), menu.rewards)
    with np.errstate(over="ignore", invalid="ignore"):
        utilities = np.float_power(reach, 2.0) / (2.0 * c) - menu.fees
        spread = utilities.max(initial=0.0) - utilities.min(initial=0.0)
    if not np.isfinite(spread):
        raise ValueError("menu utilities overflow: (theta R)^2 / (2c) - f is not a finite float")
    return utilities


def utility_tolerance(
    thetas: Sequence[float], menu: ContractMenu, c: float, tol: float = DEFAULT_TOLERANCE
) -> float:
    """``tol`` in the units of ``envelope_utilities``: tol * max(1, scale).

    ``scale`` is the largest operand the utility subtraction cancels, the
    largest fee or (theta_max R_max)^2 / (2c).  Revenue in k-fold units
    scales both by k^2, and the tolerance with them, so feasibility and tie
    decisions do not depend on the units; at unit scale it is ``tol``.
    """
    top = float(np.max(thetas)) * float(np.max(menu.rewards))
    scale = max(float(np.max(menu.fees)), top**2 / (2.0 * c))
    return tol * max(1.0, scale)


def server_expected_utility(
    profile: TypeProfile,
    menu: ContractMenu,
    curve: RevenueCurve,
) -> float:
    """Expected server utility sum_i beta_i * (f_i + theta_i * e_i * (G(M_i) - R_i)).

    At the raw best response e_i = theta_i R_i / c, unclamped: the reduced
    objective the optimal menu maximizes.
    """
    if len(menu) != len(profile):
        raise MenuMismatchError(
            f"menu has {len(menu)} items for {len(profile)} types"
        )
    c = profile.unit_cost
    total = 0.0
    for theta, beta, fee, reward, benchmark in zip(
        profile.thetas.tolist(), profile.betas.tolist(),
        menu.fees.tolist(), menu.rewards.tolist(), menu.benchmarks.tolist(),
    ):
        e = theta * reward / c
        total += beta * (fee + theta * e * (curve(benchmark) - reward))
    return total


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """IR slacks, and the IC slacks that decide a menu, against a type profile.

    Slack conventions (envelope utilities, raw best response):
      IR slack of type i:        ir_slacks[i - 1] = u_i(i)
      IC slack of pair (i, j):   u_i(i) - u_i(j), for every item j != i
    ``ic_min[i - 1]`` is type i's worst IC slack and ``ic_argmin[i - 1]`` the
    1-based item that first reaches it (both None at I = 1, which has no IC
    pair).  ``tight`` holds the 1-based ``(i, j, slack)`` of every IC pair
    whose slack is at most ``tolerance``, in row-major order.  Feasible iff
    every IR slack and every ``ic_min`` is >= -tolerance; a constraint binds
    when its slack lies within tolerance of zero.
    """

    ir_slacks: np.ndarray  # (I,)
    ic_min: tuple[float | None, ...]
    ic_argmin: tuple[int | None, ...]
    tight: tuple[tuple[int, int, float], ...]
    tolerance: float

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.ir_slacks >= -self.tolerance)) and all(
            slack >= -self.tolerance for slack in self.ic_min if slack is not None
        )

    @property
    def ir_binding(self) -> tuple[int, ...]:
        """1-based type indices whose IR constraint binds."""
        return tuple((np.flatnonzero(np.abs(self.ir_slacks) <= self.tolerance) + 1).tolist())

    @property
    def ic_binding(self) -> tuple[tuple[int, int], ...]:
        """(i, j) pairs (1-based) whose IC constraint binds."""
        return tuple((i, j) for i, j, slack in self.tight if slack >= -self.tolerance)

    def violations(self) -> list[str]:
        out = [
            f"IR type {i + 1}: slack {float(self.ir_slacks[i]):.6g}"
            for i in np.flatnonzero(self.ir_slacks < -self.tolerance).tolist()
        ]
        out += [f"IC type {i} vs item {j}: slack {slack:.6g}"
                for i, j, slack in self.tight if slack < -self.tolerance]
        return out

    def to_dict(self) -> dict:
        """The written report: ``ir``, ``ic_min``, ``ic_argmin`` and
        ``binding``, the pairs of ``ic_binding``."""
        return {
            "feasible": self.feasible,
            "tolerance": self.tolerance,
            "ir": self.ir_slacks.tolist(),
            "ic_min": list(self.ic_min),
            "ic_argmin": list(self.ic_argmin),
            "binding": [list(pair) for pair in self.ic_binding],
        }

    def to_json(self, path: str | Path) -> None:
        _write_json(self.to_dict(), path)


def verify_feasibility(
    profile: TypeProfile,
    menu: ContractMenu,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FeasibilityReport:
    """Check IR for every type and IC for every ordered pair of types.

    The one place that builds the I x I IC slack matrix; the report keeps
    its row minima and its tight pairs.  ``tolerance`` is scaled to the
    menu's utilities by ``utility_tolerance``; the report carries the
    effective value.
    """
    if len(menu) != len(profile):
        raise MenuMismatchError(f"menu has {len(menu)} items for {len(profile)} types")
    thetas, c = profile.thetas, profile.unit_cost
    # first, so a utility overflow raises its ValueError before the tolerance does
    slacks = envelope_utilities(thetas, menu, c)
    tol = utility_tolerance(thetas, menu, c, tolerance)
    own = slacks.diagonal().copy()
    np.subtract(own[:, None], slacks, out=slacks)
    np.fill_diagonal(slacks, np.inf)  # a type's own item is no IC constraint
    if len(own) == 1:
        ic_min, ic_argmin = [None], [None]
    else:
        ic_min, ic_argmin = slacks.min(axis=1).tolist(), (slacks.argmin(axis=1) + 1).tolist()
    rows, cols = np.nonzero(slacks <= tol)
    tight = zip((rows + 1).tolist(), (cols + 1).tolist(), slacks[rows, cols].tolist())
    return FeasibilityReport(own, tuple(ic_min), tuple(ic_argmin), tuple(tight), tol)


# ---------------------------------------------------------------------------
# closed-form optimum
# ---------------------------------------------------------------------------

def _fees_from_rewards(thetas: np.ndarray, rewards: np.ndarray, c: float) -> np.ndarray:
    """Fee recursion: bottom IR binds, adjacent downward IC binds.

    f_1 = (theta_1 R_1)^2 / 2c,
    f_i = f_{i-1} + theta_i^2 (R_i^2 - R_{i-1}^2) / 2c.

    A fee beyond the float range raises ValueError.
    """
    fees = np.empty_like(rewards)
    with np.errstate(over="ignore", invalid="ignore"):
        fees[0] = (thetas[0] * rewards[0]) ** 2 / (2.0 * c)
        for i in range(1, len(rewards)):
            fees[i] = fees[i - 1] + thetas[i] ** 2 * (
                rewards[i] ** 2 - rewards[i - 1] ** 2
            ) / (2.0 * c)
    if not np.all(np.isfinite(fees)):
        raise ValueError("menu fees overflow: (theta R)^2 / (2c) is not a finite float")
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
) -> ContractMenu:
    """Closed-form optimal menu: R_i = G(M_i), fees from the binding recursion.

    The constraint reduction is only valid when the reward sequence ends
    up non-decreasing; if it does not (unsorted benchmarks), the rewards
    are pooled to monotonicity before the fee recursion runs.
    """
    if len(benchmarks) != len(profile):
        raise MenuMismatchError(
            f"{len(benchmarks)} benchmarks for {len(profile)} types"
        )
    curve.check_increasing_convex(benchmarks)
    thetas = profile.thetas
    rewards = np.array([curve(m) for m in benchmarks], dtype=float)
    if np.any(np.diff(rewards) < 0.0):
        rewards = _pooled_rewards(profile.betas, rewards)
    return ContractMenu(_fees_from_rewards(thetas, rewards, profile.unit_cost), rewards, benchmarks)


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


_OUTER_BLOCK = 1024  # outer menus per block of grid_search_menu; sets its peak memory


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
    form.  The last type's fee axis is resolved by exact dominance, which
    returns the same optimum as full enumeration: with a positive last beta
    the objective rises with that fee, so the largest grid fee within its
    upper bound wins; with a zero last beta it ignores the fee, so the
    tie-break takes the smallest grid fee within its lower bound.

    The outer grid, every (f_i, R_i) of types 1..I-1, is walked by a flat
    index in ``itertools.product`` order, ``_OUTER_BLOCK`` menus at a time
    (I = 1 has one, empty, outer menu).  Within a block the IR/IC checks
    among the outer types are a mask over its rows, and the last type's fee
    bounds, snapped fee, feasibility and objective are (block, |R_I|)
    arrays.  A block's best, the smallest key among its objective ties,
    merges into the running best, so the block size never changes the
    result.  Squares are libm ``pow`` (``np.float_power``), as in
    ``envelope_utilities``, except those of the last reward axis
    (``rL**2``, ``(theta_I rL)**2``), which multiply: a last-bit change
    in either can move a snapped fee across its bound and so the winner.
    ``n_evaluated`` counts outer menus x |R_I| x |f_I|; ``n_feasible``
    counts feasible candidates actually examined, one per reward column.
    Practical for I <= 3.
    """
    n = len(profile)
    if n > 3:
        raise ValueError("grid search is combinatorial; supported for I <= 3")
    if len(benchmarks) != n:
        raise MenuMismatchError(f"{len(benchmarks)} benchmarks for {n} types")
    if len(grid.fee_ranges) != n or len(grid.reward_ranges) != n:
        raise MenuMismatchError("grid spec must give one fee and one reward range per type")

    thetas, betas, c = profile.thetas, profile.betas, profile.unit_cost
    theta_sq = np.float_power(thetas, 2.0)
    revenues = np.array([curve(m) for m in benchmarks], dtype=float)
    last = n - 1
    fee_grid = np.array([grid.fee_axis(i) for i in range(n)])
    reward_grid = np.array([grid.reward_axis(i) for i in range(n)])
    fL_axis, rL = fee_grid[last], reward_grid[last]
    fee_lo, fee_step, top = fL_axis[0], fL_axis[1] - fL_axis[0], len(fL_axis) - 1
    fee_rises = bool(betas[last] > 0.0)
    envelope_last = (thetas[last] * rL) ** 2 / (2.0 * c)
    gain_last = theta_sq[last] * rL * (revenues[last] - rL) / c
    outer_shape = (grid.fee_steps, grid.reward_steps) * last
    n_outer = math.prod(outer_shape)
    outer_types = np.arange(last)[:, None]

    best_obj = -math.inf
    best_key: tuple[float, ...] | None = None
    n_feasible = 0
    for start in range(0, n_outer, _OUTER_BLOCK):
        menus = np.arange(start, min(start + _OUTER_BLOCK, n_outer))
        # the leading unit axis keeps the index rows (I-1 fee, I-1 reward) 2-D at I = 1
        idx = np.array(np.unravel_index(menus, (1, *outer_shape)))
        F = fee_grid[outer_types, idx[1::2]]  # (I-1, block)
        R = reward_grid[outer_types, idx[2::2]]
        # IR and IC among the outer types: U[i, j] is type i's utility for item j
        U = np.float_power(thetas[:last, None, None] * R, 2.0) / (2.0 * c) - F
        own = np.diagonal(U).T  # (I-1, block)
        ok = ~np.any(own < -tolerance, axis=0)
        ok &= ~np.any(own[:, None] - U < -tolerance, axis=(0, 1))
        F, R = F[:, ok], R[:, ok]
        fixed = np.sum(betas[:last, None] * (
            F + theta_sq[:last, None] * R * (revenues[:last, None] - R) / c
        ), axis=0)

        # bounds on the last fee from the constraints involving the last item:
        # its IR and its IC against item j give ub, type j's IC against it lb
        rise = rL**2 - np.float_power(R, 2.0)[..., None]  # (I-1, block, |R_I|)
        ub = np.minimum(envelope_last + tolerance, np.min(
            theta_sq[last] * rise / (2.0 * c) + F[..., None] + tolerance, axis=0, initial=math.inf
        ))
        lb = np.max(
            theta_sq[:last, None, None] * rise / (2.0 * c) + F[..., None] - tolerance,
            axis=0, initial=-math.inf,
        )
        # the one grid fee per reward column dominance keeps: the largest
        # within ub when the objective rises with the fee, else the smallest
        # within lb; step once if float rounding snapped it across its bound
        if fee_rises:
            k = np.clip(np.floor((ub - fee_lo) / fee_step), 0, top).astype(int)
            k = np.where(fL_axis[k] > ub, np.maximum(k - 1, 0), k)
        else:
            k = np.clip(np.ceil((lb - fee_lo) / fee_step), 0, top).astype(int)
            k = np.where(fL_axis[k] < lb, np.minimum(k + 1, top), k)
        fL = fL_axis[k]
        feasible = (fL <= ub) & (fL >= lb)
        n_feasible += int(np.count_nonzero(feasible))
        obj = np.where(feasible, fixed[:, None] + betas[last] * (fL + gain_last), -math.inf)
        # a menu competes with its best column; one with no feasible column
        # or a NaN objective does not compete at all
        row_best = obj.max(axis=1)
        live = np.any(feasible, axis=1) & ~np.isnan(row_best)
        if not np.any(live):
            continue
        block_best = float(row_best[live].max())
        rows, cols = np.nonzero((obj == block_best) & live[:, None])
        keys = (*F[:, rows], fL[rows, cols], *R[:, rows], rL[cols])
        first = np.lexsort(keys[::-1])[0]
        key = tuple(float(col[first]) for col in keys)
        tied = block_best == best_obj and (best_key is None or key < best_key)
        if block_best > best_obj or tied:
            best_obj, best_key = block_best, key

    n_evaluated = n_outer * len(rL) * len(fL_axis)
    if best_key is None:
        return GridSearchResult(menu=None, objective=None, n_feasible=0, n_evaluated=n_evaluated)

    menu = ContractMenu(best_key[:n], best_key[n:], benchmarks)
    report = verify_feasibility(profile, menu, tolerance=tolerance)
    if not report.feasible:  # pragma: no cover - guards float snapping
        raise RuntimeError(f"grid winner failed the feasibility check: {report.violations()}")
    return GridSearchResult(
        menu=menu,
        objective=float(server_expected_utility(profile, menu, curve)),
        n_feasible=n_feasible,
        n_evaluated=n_evaluated,
    )
