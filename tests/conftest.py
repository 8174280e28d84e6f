import json
import math
import os
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from fedpact.contracts import (
    ContractMenu,
    RevenueCurve,
    TypeProfile,
    envelope_utilities,
    utility_tolerance,
    verify_feasibility,
)
from fedpact.learning import ModelVector

FIXTURES = Path(__file__).parent / "fixtures"
CONFIGS = Path(__file__).parent.parent / "configs"
SRC = Path(__file__).parent.parent / "src"


def src_env() -> dict[str, str]:
    """This environment with ``src`` first on PYTHONPATH, for CLI subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def canonical_profile() -> TypeProfile:
    """Two types, hand-solvable: theta (0.5, 1.0), equal shares, unit cost 1."""
    return TypeProfile.from_arrays([0.5, 1.0], [0.5, 0.5], 1.0)


@pytest.fixture(scope="session")
def canonical_curve() -> RevenueCurve:
    return RevenueCurve.from_table([0.3, 0.5], [1.0, 2.0])


@pytest.fixture(scope="session")
def canonical_benchmarks() -> list[float]:
    return [0.3, 0.5]


@pytest.fixture(scope="session")
def mnist_settings() -> dict:
    with open(FIXTURES / "mnist_client_settings.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def mnist_config_path() -> Path:
    return CONFIGS / "mnist_contracts.json"


@pytest.fixture(scope="session")
def synthetic_config_path() -> Path:
    return CONFIGS / "synthetic_default.json"


def fee_recursion(thetas: np.ndarray, rewards: np.ndarray, c: float) -> np.ndarray:
    """Independent re-statement of the binding fee recursion used by tests,
    one fee at a time; every square is a multiply, as in ``contracts``."""
    fees = np.empty_like(rewards, dtype=float)
    reach = thetas[0] * rewards[0]
    fees[0] = reach * reach / (2.0 * c)
    for i in range(1, len(rewards)):
        rise = rewards[i] * rewards[i] - rewards[i - 1] * rewards[i - 1]
        fees[i] = fees[i - 1] + thetas[i] * thetas[i] * rise / (2.0 * c)
    return fees


def reference_running_nearest(queries: np.ndarray, points: np.ndarray) -> Iterator[np.ndarray]:
    """After each row of ``points``, yield (in one array, updated in place) each
    query row's squared distance to its nearest row so far, summed in order:
    the per-point reference for the blocked ``coverage._running_nearest``."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    points = np.asarray(points, dtype=float)
    if queries.ndim != 2 or queries.shape[1:] != points.shape[1:]:
        raise ValueError(f"queries {queries.shape} do not match points {points.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    first, *rest = np.ascontiguousarray(queries.T)
    nearest = np.full(len(queries), np.inf)
    squared, gap = np.empty(len(queries)), np.empty(len(queries))
    for head, *tail in points.tolist():
        np.subtract(first, head, out=squared)
        squared *= squared
        for column, coordinate in zip(rest, tail):
            np.subtract(column, coordinate, out=gap)
            squared += np.multiply(gap, gap, out=gap)
        np.minimum(nearest, squared, out=nearest)
        yield nearest


def reference_local_train(
    model: ModelVector,
    points: np.ndarray,
    labels: np.ndarray,
    effort: float,
    max_epochs: int,
    rng: np.random.Generator,
    learning_rate: float,
    batch_size: int,
) -> ModelVector:
    """One client's mini-batch loop, the reference for the lockstep
    ``learning.local_train``: round(effort * max_epochs) epochs, zero effort
    returns the input model."""
    if not 0.0 <= effort <= 1.0:
        raise ValueError(f"effort must lie in [0, 1], got {effort}")
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    epochs = int(math.floor(effort * max_epochs + 0.5))
    if epochs == 0:
        return model
    x = np.asarray(points, dtype=float)
    y = np.asarray(labels, dtype=int)
    d, k = model.shape
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"data dimension {x.shape} does not match input dimension {d}")
    n = x.shape[0]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    params = flat(model)

    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            xb, yb = x[batch], onehot[batch]
            m = len(batch)
            w = params[: d * k].reshape(d, k)
            b = params[d * k :]
            logits = xb @ w + b
            probs = _reference_softmax(logits)
            g = (probs - yb) / m
            grad = np.concatenate([(xb.T @ g).ravel(), g.sum(axis=0)])
            params -= learning_rate * grad

    return ModelVector(weights=params[: d * k].reshape(d, k), bias=params[d * k :])


def flat(model: ModelVector) -> np.ndarray:
    """The model's weights row by row, then its bias."""
    return np.concatenate([model.weights.ravel(), model.bias])


def _reference_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def clamped_expected_utility(profile: TypeProfile, menu: ContractMenu, curve: RevenueCurve) -> float:
    """Expected server utility at the efforts a simulated round realizes:
    sum_i beta_i (f_i + theta_i e_i (G(M_i) - R_i)), e_i = min(theta_i R_i / c, 1)."""
    c = profile.unit_cost
    return sum(
        beta * (fee + theta * min(theta * reward / c, 1.0) * (curve(benchmark) - reward))
        for theta, beta, (fee, reward, benchmark) in zip(
            profile.thetas.tolist(), profile.betas.tolist(), menu_rows(menu)
        )
    )


def best_rows(theta: float, menu: ContractMenu, c: float) -> tuple[int, ...]:
    """0-based rows whose envelope utility for ``theta`` lies within
    ``utility_tolerance`` of the best, lowest first; () when the best is
    negative (the type rejects)."""
    utilities = envelope_utilities((theta,), menu, c)[0]
    if utilities.max() < 0.0:
        return ()
    tol = utility_tolerance((theta,), menu, c)
    return tuple(np.flatnonzero(utilities.max() - utilities <= tol).tolist())


def dense_ic_slacks(profile: TypeProfile, menu: ContractMenu) -> np.ndarray:
    """Every IC slack u_i(i) - u_i(j) at [i - 1, j - 1], the diagonal zero."""
    utilities = envelope_utilities(profile.thetas, menu, profile.unit_cost)
    return utilities.diagonal()[:, None] - utilities


def menu_of(*rows: tuple[float, float, float]) -> ContractMenu:
    """A menu from its (f, R, M) rows, item 1 first."""
    fees, rewards, benchmarks = zip(*rows)
    return ContractMenu(fees, rewards, benchmarks)


def rebated(menu: ContractMenu, delta: float = 1e-6) -> ContractMenu:
    """Strictly incentive-compatible copy of a solved menu (fee of item i
    lowered by i * delta), so simulated choices are unique rather than tied."""
    index = np.arange(1, len(menu) + 1)
    return ContractMenu(np.maximum(menu.fees - delta * index, 0.0), menu.rewards, menu.benchmarks)


def menu_rows(menu: ContractMenu) -> list[tuple[float, float, float]]:
    """The menu's (f, R, M) rows as Python floats, item 1 first."""
    return list(zip(menu.fees.tolist(), menu.rewards.tolist(), menu.benchmarks.tolist()))


def random_profile(rng: np.random.Generator, n: int | None = None) -> TypeProfile:
    """Strictly increasing thetas in (0, 1], random shares, random positive cost."""
    if n is None:
        n = int(rng.integers(2, 11))
    while True:
        thetas = np.sort(rng.uniform(0.05, 1.0, n))
        if np.all(np.diff(thetas) > 1e-3):
            break
    betas = rng.uniform(0.2, 1.0, n)
    betas /= betas.sum()
    c = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    return TypeProfile.from_arrays(thetas, betas, c)


def random_curve_section(rng: np.random.Generator, benchmarks: np.ndarray) -> dict:
    """A config ``curve`` section: an exponential curve, or a table with
    non-negative second differences over ``benchmarks``."""
    if rng.random() < 0.5:
        a = float(rng.uniform(0.1, 2.0))
        return {"kind": "exponential", "a": a, "b": float(rng.uniform(0.2, 3.0))}
    # table with positive, non-decreasing slopes over the (possibly
    # unequal) benchmark spacing, hence increasing and convex
    base = float(rng.uniform(0.1, 1.0))
    first = float(rng.uniform(0.05, 0.5))
    rises = rng.uniform(0.0, 0.5, max(len(benchmarks) - 2, 0))
    slopes = first + np.cumsum(np.concatenate([[0.0], rises]))
    values = base + np.concatenate([[0.0], np.cumsum(slopes * np.diff(benchmarks))])
    return {"kind": "table", "benchmarks": np.asarray(benchmarks, dtype=float).tolist(),
            "values": values.tolist()}


def random_increasing_convex_curve(
    rng: np.random.Generator, benchmarks: np.ndarray
) -> RevenueCurve:
    """The curve of ``random_curve_section``."""
    section = random_curve_section(rng, benchmarks)
    if section["kind"] == "exponential":
        return RevenueCurve.exponential(section["a"], section["b"])
    return RevenueCurve.from_table(section["benchmarks"], section["values"])


def random_benchmarks(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        ms = np.sort(rng.uniform(0.05, 0.95, n))
        if n == 1 or np.all(np.diff(ms) > 1e-3):
            return ms


def random_feasible_menu(
    profile: TypeProfile, rng: np.random.Generator
) -> ContractMenu:
    """Feasible menu with randomized slack: monotone rewards, fees from the
    binding recursion minus rents bounded by the upward IC slack."""
    n = len(profile)
    thetas = profile.thetas
    c = profile.unit_cost
    rewards = np.sort(rng.uniform(0.1, 3.0, n))
    fees = fee_recursion(thetas, rewards, c)
    drop = np.zeros(n)
    drop[0] = rng.uniform(0.0, 0.9) * fees[0]
    for i in range(1, n):
        upward = (thetas[i] * thetas[i] - thetas[i - 1] * thetas[i - 1]) * (
            rewards[i] * rewards[i] - rewards[i - 1] * rewards[i - 1]
        ) / (2.0 * c)
        headroom = fees[i] - drop[i - 1]
        delta = rng.uniform(0.0, 1.0) * min(upward, max(headroom, 0.0))
        drop[i] = drop[i - 1] + delta
    fees = np.maximum(fees - drop, 0.0)
    menu = ContractMenu(fees, rewards, random_benchmarks(rng, n))
    assert verify_feasibility(profile, menu).feasible
    return menu
