"""Desk-scale federated training with coverage-controlled client data.

Makes the aggregation-scheme comparison concrete: every client gets a
synthetic dataset whose coverage quality is calibrated to its type,
trains a linear softmax classifier from scratch for a number of epochs scaled by
its contracted effort, and submits the model to a server-side sampling
test over the full unit cube.  Passing models are averaged either by
reward share or uniformly.

Three schemes are compared on the same population:

* ``contract``: contract rewards drive efforts, passing models weighted
  by reward share;
* ``fedavg``: identical rewards and efforts, uniform weights;
* ``flat``: every client earns the beta-weighted average reward and pays
  the average fee (same budget on average, no screening), uniform
  weights.  Clients are gated as under ``contract`` so only the
  incentive channel differs.

Each scheme's round is a ``simulation.RoundOutcome``, the engine of
``simulation.run_round``; a trained model's server test decides passes.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, replace
from operator import eq, ge
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, TrainingSpec
from .contracts import ContractMenu, _write_json, solve_optimal_menu
from .coverage import PointCloud, coverage_quality, quality_draws
from .seeding import child_rng
from .simulation import RoundOutcome, sample_population


class ArchitectureMismatchError(ValueError):
    """Models of different shapes cannot be combined."""


class CalibrationError(ValueError):
    """Neither the bisection nor the grid scan found a side within
    tolerance of the target quality.

    ``best`` is the measured quality closest to ``target``; quality need
    not grow with the side, so an unmeasured side may come closer.
    ``where``, if given, names the dataset and leads the message.
    """

    def __init__(self, target: float, best: float, where: str = ""):
        self.target = target
        self.best = best
        message = (
            f"coverage quality {target:.4f} not reached by bisection or grid scan on the "
            f"side; closest measured is {best:.4f}"
        )
        super().__init__(f"{where}: {message}" if where else message)


# ---------------------------------------------------------------------------
# linear classifiers
# ---------------------------------------------------------------------------

INIT_SCALE = 0.5  # standard deviation of a random model's weights and bias


@dataclass(frozen=True, eq=False)
class ModelVector:
    """Linear softmax classifier: class scores ``points @ weights + bias``.

    ``weights`` is ``(d, k)`` for d >= 1 features and k >= 2 classes, and
    ``bias`` is ``(k,)``; both are read-only float copies, and ``shape``
    is ``(d, k)``.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        # order 'K' keeps a transposed input's layout, and so its matmul bits
        weights = np.array(self.weights, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
        d, k = weights.shape if weights.ndim == 2 else (0, 0)
        if d < 1 or k < 2 or bias.shape != (k,):
            raise ArchitectureMismatchError(
                f"need weights (d, k) with d >= 1, k >= 2 and bias (k,), "
                f"got {weights.shape} and {bias.shape}"
            )
        for name, value in (("weights", weights), ("bias", bias)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    @classmethod
    def random(cls, shape: tuple[int, int], rng: np.random.Generator) -> "ModelVector":
        """Weights then bias, row by row, from one ``normal(0, INIT_SCALE)`` stream."""
        d, k = shape
        draws = rng.normal(0.0, INIT_SCALE, (d + 1, k))
        return cls(weights=draws[:d], bias=draws[d])

    def predict(self, points: np.ndarray) -> np.ndarray:
        return np.argmax(np.asarray(points, dtype=float) @ self.weights + self.bias, axis=1)


def model_accuracy(model: ModelVector, points: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(model.predict(points) == np.asarray(labels)))


# ---------------------------------------------------------------------------
# synthetic task
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """Classification task on [0,1]^d with a linear nearest-prototype label rule.

    The rule is a linear classifier fixed by the seed, of the clients'
    model shape; the global test set is drawn uniformly over the whole
    cube, which is what makes it a sampling test: a model fit only to a
    well-covered corner is graded on everything.
    """

    rule: ModelVector
    test_points: np.ndarray
    test_labels: np.ndarray

    @classmethod
    def generate(cls, dimension: int, n_classes: int, seed: int, test_size: int) -> "SyntheticTask":
        rng = child_rng(seed, 911)
        # prototypes on a ring around an anchor on the main diagonal,
        # slightly toward the origin: client data is drawn from
        # origin-anchored sub-cubes, so low-coverage datasets miss the
        # decision boundary entirely while high-coverage ones straddle it
        anchor = np.full(dimension, 0.42)
        if n_classes == 2:
            direction = rng.normal(size=dimension)
            direction /= np.linalg.norm(direction)
            prototypes = np.stack([anchor - 0.25 * direction, anchor + 0.25 * direction])
        else:
            directions = rng.normal(size=(n_classes, dimension))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            prototypes = anchor + 0.25 * directions
        rule = ModelVector(weights=2.0 * prototypes.T, bias=-np.sum(prototypes**2, axis=1))
        test_points = rng.random((test_size, dimension))
        return cls(rule=rule, test_points=test_points, test_labels=rule.predict(test_points))

    @property
    def shape(self) -> tuple[int, int]:
        return self.rule.shape


def server_test(model: ModelVector, task: SyntheticTask) -> float:
    """Accuracy on the task's uniform global test set."""
    return model_accuracy(model, task.test_points, task.test_labels)


# ---------------------------------------------------------------------------
# coverage-calibrated client data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClientDataset:
    """Labeled local data plus the coverage quality it was calibrated to."""

    points: np.ndarray
    labels: np.ndarray
    measured_quality: float
    subcube_side: float


CALIBRATION_TOLERANCE = 0.02  # largest accepted |measured - target| quality
CALIBRATION_STOP = 0.25 * CALIBRATION_TOLERANCE  # bisection ends within this of the target
# shifted R_d draws per coverage_quality evaluation: the fewest, in powers of
# two, whose RMS quality error is no larger than 4,000 i.i.d. draws' at d = 1-5
QUALITY_SAMPLES = 512
MAX_BISECTIONS = 40
CALIBRATION_GRID = np.linspace(1e-3, 1.0, 100).tolist()  # sides scanned when bisection fails


def generate_client_dataset(
    task: SyntheticTask,
    target_theta: float,
    n_points: int,
    seed: int,
) -> ClientDataset:
    """Sample client data whose coverage quality approximates ``target_theta``.

    Points are ``n_points`` fixed unit draws u_j scaled into the sub-cube
    [0, s]^d; the side s is found by bisection on [1e-3, 1] against the
    coverage module, which takes quality to grow with s (it need not, even
    for a few hundred points), stopping once a side's quality is within
    ``CALIBRATION_STOP`` of the target.  When no side it measures is within
    ``CALIBRATION_TOLERANCE``, the sides of ``CALIBRATION_GRID`` are scanned
    and the first closest is taken if it is within the tolerance; otherwise
    ``CalibrationError`` names the closest quality measured (an unmeasured
    side may come closer).

    Side 1 is measured against the top of the band ``CALIBRATION_STOP``
    around the target, side ``1e-3`` against its bottom, and the sides
    between against both: ``coverage_quality`` returns ``-inf`` below the
    band (the ceiling at the cloud's largest coordinate, no larger than s)
    and ``inf`` above it (a prefix of the cloud, a floor).  Such a side
    moves its end as its quality would, and can neither end the search nor
    win it.  If the bisections run out first, those sides are measured and
    the first closest side in bisection order wins, bit for bit the result
    of measuring every side.
    """
    if not 0.0 < target_theta <= 1.0:
        raise ValueError(f"target_theta must lie in (0, 1], got {target_theta}")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    dimension = task.shape[0]
    unit_draws = child_rng(seed, 1).random((n_points, dimension))
    draws = quality_draws(dimension, QUALITY_SAMPLES, int(child_rng(seed, 2).integers(2**31)))

    def quality(side: float, **band: float) -> float:
        return coverage_quality(PointCloud(dimension, unit_draws * side), draws, **band)

    def miss(pair: tuple[float, float]) -> float:
        return abs(pair[1] - target_theta)

    best = _bisect_side(quality, target_theta)
    if miss(best) > CALIBRATION_TOLERANCE:
        # quality need not grow with the side: scan a fixed grid before giving up
        best = min([best, *((side, quality(side)) for side in CALIBRATION_GRID)], key=miss)
        if miss(best) > CALIBRATION_TOLERANCE:
            raise CalibrationError(target_theta, best[1])

    best_side, best_q = best
    points = unit_draws * best_side
    return ClientDataset(
        points=points,
        labels=task.rule.predict(points),
        measured_quality=best_q,
        subcube_side=best_side,
    )


def _bisect_side(quality: Callable[..., float], target_theta: float) -> tuple[float, float]:
    """The bounded bisection of ``generate_client_dataset``: the first side
    closest to the target among those it measures, and its quality.  It
    stops after one end when the target lies beyond that end's quality by
    more than ``CALIBRATION_TOLERANCE``.  ``quality(side, below=, above=)``
    is ``-inf`` or ``inf`` for a side it finds below or above the band."""
    # 1e-9 absorbs the rounding of the bounds and of the measured qualities
    below = target_theta - CALIBRATION_STOP - 1e-9
    above = target_theta + CALIBRATION_STOP + 1e-9

    def error(q: float) -> float:
        return abs(q - target_theta)

    # each end tests only the bound on its own side of the target, so a
    # measured end can still return early for a target it cannot reach
    lo, hi = 1e-3, 1.0
    q_hi = quality(hi, above=above)
    if target_theta > q_hi + CALIBRATION_TOLERANCE:
        return hi, q_hi
    q_lo = quality(lo, below=below)
    if target_theta < q_lo - CALIBRATION_TOLERANCE:
        return lo, q_lo
    tried = [(lo, q_lo), (hi, q_hi)]  # every side in bisection order

    def settled() -> bool:
        return any(error(q) <= CALIBRATION_STOP for _, q in tried)

    for _ in range(MAX_BISECTIONS):
        if settled():
            break
        mid = 0.5 * (lo + hi)
        q_mid = quality(mid, below=below, above=above)
        if q_mid < target_theta:
            lo = mid
        else:
            hi = mid
        tried.append((mid, q_mid))
    if not settled():
        # no side within CALIBRATION_STOP: a side outside the band may be the closest
        tried = [(side, q if math.isfinite(q) else quality(side)) for side, q in tried]
    return min(tried, key=lambda pair: error(pair[1]))


# ---------------------------------------------------------------------------
# local training and aggregation
# ---------------------------------------------------------------------------

def local_train(
    models: Sequence[ModelVector],
    points: np.ndarray,
    labels: np.ndarray,
    effort: float,
    max_epochs: int,
    rngs: Sequence[np.random.Generator],
    learning_rate: float,
    batch_size: int,
) -> tuple[ModelVector, ...]:
    """Mini-batch cross-entropy gradient descent for round(effort * max_epochs)
    epochs, C clients in lockstep.

    ``points`` is ``(C, n, d)`` and ``labels`` ``(C, n)``; row ``i`` trains
    ``models[i]`` with its own shuffle stream ``rngs[i]``, and gets the bits
    a run on that client alone would.  Generators advance in place, so a
    second call with the same generators continues each client's run.  Zero
    epochs return the input models themselves.
    """
    if not 0.0 <= effort <= 1.0:
        raise ValueError(f"effort must lie in [0, 1], got {effort}")
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    models = tuple(models)
    x = np.asarray(points, dtype=float)
    y = np.asarray(labels, dtype=int)
    if not models or not len(models) == len(rngs) == len(x) or y.shape != x.shape[:2]:
        raise ValueError(
            f"{len(models)} models, {len(rngs)} generators, points {x.shape} and "
            f"labels {y.shape} do not describe the same clients"
        )
    d, k = models[0].shape
    if any(model.shape != (d, k) for model in models):
        raise ArchitectureMismatchError(f"models of {len({m.shape for m in models})} shapes")
    if x.ndim != 3 or x.shape[2] != d:
        raise ArchitectureMismatchError(f"data dimension {x.shape} does not match input dimension {d}")
    epochs = _epochs(effort, max_epochs)
    if epochs == 0:
        return models
    n_clients, n = y.shape
    rows = np.arange(n_clients)[:, None]
    onehot = np.zeros((n_clients, n, k))
    onehot[rows, np.arange(n), y] = 1.0
    w = np.stack([model.weights for model in models])
    b = np.stack([model.bias for model in models])

    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, batch_size):
            batch = order[:, start : start + batch_size]
            xb, yb = x[rows, batch], onehot[rows, batch]
            probs = _softmax(xb @ w + b[:, None, :])
            g = (probs - yb) / batch.shape[1]
            w -= learning_rate * (xb.transpose(0, 2, 1) @ g)
            b -= learning_rate * g.sum(axis=1)

    return tuple(ModelVector(weights=wi, bias=bi) for wi, bi in zip(w, b))


def _epochs(effort: float, max_epochs: int) -> int:
    """Epochs an effort buys: effort * max_epochs, rounded half up."""
    return int(math.floor(effort * max_epochs + 0.5))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def aggregate(models: list[tuple[ModelVector, float]]) -> ModelVector:
    """Weighted mean of the models' weights and of their biases.

    Weights must be non-negative and sum to 1 within 1e-9, and model
    shapes must match; inputs are consumed in the given order so the
    floating-point sum is deterministic.
    """
    if not models:
        raise ValueError("no models to aggregate")
    shape = models[0][0].shape
    for model, _ in models:
        if model.shape != shape:
            raise ArchitectureMismatchError(f"model shape {model.shape} != {shape}")
    weights = np.array([w for _, w in models])
    if not (weights >= 0).all():  # NaN fails it too
        raise ValueError(f"weights must be non-negative, got {weights.tolist()!r}")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {float(weights.sum())!r}")
    stacked_w = np.stack([m.weights for m, _ in models])
    stacked_b = np.stack([m.bias for m, _ in models])
    return ModelVector(
        weights=(weights[:, None, None] * stacked_w).sum(axis=0),
        bias=(weights[:, None] * stacked_b).sum(axis=0),
    )


# ---------------------------------------------------------------------------
# scheme comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeRound:
    seed: int
    c: float
    scheme: str
    accuracy: float
    participants: int
    successes: int
    total_fees: float
    total_rewards: float


@dataclass(frozen=True)
class ClientRecord:
    seed: int
    c: float
    scheme: str
    client_id: int
    type_index: int
    theta_target: float
    theta_measured: float
    chosen_index: int | None
    effort: float
    epochs: int
    local_accuracy: float
    server_accuracy: float
    passed: bool


@dataclass(frozen=True)
class SchemeReport:
    rounds: tuple[SchemeRound, ...]
    clients: tuple[ClientRecord, ...]
    c_values: tuple[float, ...]
    schemes: tuple[str, ...]
    flat_items: dict[float, ContractMenu]  # one-row menus

    def mean_accuracy(self, c: float, scheme: str) -> float:
        vals = [r.accuracy for r in self.rounds if r.c == c and r.scheme == scheme]
        finite = [v for v in vals if not math.isnan(v)]
        return float(np.mean(finite)) if finite else float("nan")

    def orderings(self) -> dict:
        """The directional claims the comparison is designed to probe; a
        claim on a scheme without a mean (no finite accuracy) is ``None``."""
        def verdict(claim: Callable[[float, float], bool], a: float, b: float) -> bool | None:
            return None if math.isnan(a) or math.isnan(b) else claim(a, b)

        per_c = {}
        for c in self.c_values:
            means = {s: self.mean_accuracy(c, s) for s in self.schemes}
            entry = {"means": means}
            if {"contract", "fedavg"} <= set(self.schemes):
                entry["contract_ge_fedavg"] = verdict(ge, means["contract"], means["fedavg"])
                # a single shared contract makes reward weights uniform and
                # the two schemes coincide exactly
                entry["degenerate_equal"] = verdict(eq, means["contract"], means["fedavg"])
            if {"fedavg", "flat"} <= set(self.schemes):
                entry["fedavg_ge_flat"] = verdict(ge, means["fedavg"], means["flat"])
            per_c[_c_key(c)] = entry
        out = {"per_c": per_c}
        if len(self.c_values) >= 2 and "contract" in self.schemes:
            lo, hi = min(self.c_values), max(self.c_values)
            out["contract_small_c_ge_large_c"] = verdict(
                ge, self.mean_accuracy(lo, "contract"), self.mean_accuracy(hi, "contract")
            )
        return out

    def summary(self) -> dict:
        orderings = self.orderings()
        for entry in orderings["per_c"].values():
            # a scheme without a finite accuracy has no mean, and JSON no NaN
            entry["means"] = {s: None if math.isnan(v) else v for s, v in entry["means"].items()}
        return {
            "seeds": sorted({r.seed for r in self.rounds}),
            "c_values": list(self.c_values),
            "schemes": list(self.schemes),
            "orderings": orderings,
            "flat_items": {
                _c_key(c): flat.to_dict()["items"][0] for c, flat in sorted(self.flat_items.items())
            },
            "note": (
                "flat scheme signs every client to the beta-weighted average "
                "item of the solved menu"
            ),
        }

    def rounds_to_csv(self, path: str | Path) -> None:
        _records_to_csv(self.rounds, SchemeRound, path)

    def clients_to_csv(self, path: str | Path) -> None:
        _records_to_csv(self.clients, ClientRecord, path)

    def summary_to_json(self, path: str | Path) -> None:
        _write_json(self.summary(), path)


def _records_to_csv(records: Sequence, record_type: type, path: str | Path) -> None:
    """One row per record, columns in ``record_type``'s field order; None is
    written as ``reject`` (a client that signed no item)."""
    names = [field.name for field in fields(record_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for record in records:
            values = (getattr(record, name) for name in names)
            writer.writerow(["reject" if v is None else v for v in values])


def _c_key(c: float) -> str:
    return repr(float(c))


def _flat_item(menu: ContractMenu, betas: np.ndarray) -> ContractMenu:
    """One-row menu of the beta-weighted average fee and reward: same
    expected budget, no screening.

    The benchmark carries the average only for reporting; a flat client is
    gated on the benchmark of its type's pick from the solved menu (the
    lower item on a tie; its own benchmark if it rejects).
    """
    return ContractMenu(
        [np.dot(betas, menu.fees)], [np.dot(betas, menu.rewards)], [np.dot(betas, menu.benchmarks)]
    )


def _epoch_snapshots(
    task: SyntheticTask,
    init_model: ModelVector,
    datasets: list[ClientDataset],
    wanted: dict[int, set[int]],
    seed: int,
    train: TrainingSpec,
) -> dict[tuple[int, int], tuple[ModelVector, float, float]]:
    """Client ``cid``'s model, local and server accuracy after each epoch
    count in ``wanted[cid]``, keyed ``(cid, epochs)``.

    A shorter run is a prefix of a longer one (same init model, same
    ``child_rng(seed, 40, cid)`` shuffle stream), so the clients train
    once, in lockstep, and each count is a snapshot of that run.
    """
    models = dict.fromkeys(wanted, init_model)
    rngs = {cid: child_rng(seed, 40, cid) for cid in wanted}
    snapshots = {}
    done = 0
    for stop in sorted(set().union(*wanted.values())):
        cids = [cid for cid, counts in wanted.items() if max(counts) >= stop]
        if stop > done:
            models.update(zip(cids, local_train(
                [models[cid] for cid in cids],
                np.stack([datasets[cid].points for cid in cids]),
                np.stack([datasets[cid].labels for cid in cids]),
                effort=(stop - done) / train.max_epochs,
                max_epochs=train.max_epochs,
                rngs=[rngs[cid] for cid in cids],
                learning_rate=train.learning_rate,
                batch_size=train.batch_size,
            )))
            done = stop
        for cid in cids:
            if stop in wanted[cid]:
                model, data = models[cid], datasets[cid]
                snapshots[cid, stop] = (
                    model, model_accuracy(model, data.points, data.labels), server_test(model, task)
                )
    return snapshots


def run_scheme_comparison(config: ExperimentConfig) -> SchemeReport:
    """Full federated round per (seed, c) under every configured scheme.

    Clients and their datasets are shared across schemes and c values of
    a seed; contract and fedavg schemes also share trained models (same
    rewards, hence same efforts), so their accuracies differ only through
    the aggregation weights.  A seed's rounds are all signed up before
    any client trains, so every client of the seed trains in one
    lockstep run (``_epoch_snapshots``).  Everything is deterministic
    per config.  A dataset that cannot be calibrated raises
    ``CalibrationError`` naming its seed, client, type and dimension.
    """
    if config.mode != "ml":
        raise ConfigError("mode: compare requires mode='ml' (trains real models)")
    task = SyntheticTask.generate(
        config.task.dimension, config.task.classes, config.task.seed,
        config.task.test_size,
    )
    train = config.training
    rounds: list[SchemeRound] = []
    client_rows: list[ClientRecord] = []
    flat_items: dict[float, ContractMenu] = {}

    thetas = config.profile.thetas.tolist()
    profiles = {c: replace(config.profile, unit_cost=c) for c in config.c_values}
    for seed in config.seeds:
        draws = sample_population(config.profile, config.population, child_rng(seed, 10))
        datasets = []
        for cid, type_idx in enumerate(draws.tolist()):
            try:
                datasets.append(generate_client_dataset(
                    task,
                    target_theta=thetas[type_idx],
                    n_points=train.n_points,
                    seed=int(child_rng(seed, 20, cid).integers(2**31)),
                ))
            except CalibrationError as err:
                where = f"seed {seed}, client {cid}, type {type_idx + 1}, dimension {task.shape[0]}"
                raise CalibrationError(err.target, err.best, where) from err

        booked = []
        wanted: dict[int, set[int]] = {}  # the epoch counts each participant trains
        for c, profile in profiles.items():
            menu = solve_optimal_menu(profile, config.curve, config.benchmarks)
            flat = flat_items[c] = _flat_item(menu, profile.betas)

            # both policies gate a client on the item its type picks from
            # the solved menu, so only incentives differ; compare reads no
            # server utility, so the flat item's benchmark is never priced
            signed = {
                "contract": RoundOutcome.sign_up(profile, menu, config.curve, draws),
                "flat": RoundOutcome.sign_up(profile, flat, config.curve, draws),
            }
            benchmarks = menu.benchmarks.tolist()
            gates = [
                bm if j < 0 else benchmarks[j]
                for j, bm in zip(signed["contract"].type_choice.tolist(), config.benchmarks)
            ]
            for scheme in config.schemes:
                signup = signed["flat" if scheme == "flat" else "contract"]
                type_epochs = [_epochs(e, train.max_epochs) for e in signup.type_effort.tolist()]
                booked.append((c, scheme, signup, gates, type_epochs))
                ptypes = signup.participant_types.tolist()
                for cid, t in zip(signup.participant_ids.tolist(), ptypes):
                    wanted.setdefault(cid, set()).add(type_epochs[t])

        init_model = ModelVector.random(task.shape, child_rng(seed, 30))
        snapshots = _epoch_snapshots(task, init_model, datasets, wanted, seed, train)

        for c, scheme, signup, gates, type_epochs in booked:
            efforts, choices = signup.type_effort.tolist(), signup.type_choice.tolist()
            ptypes = signup.participant_types.tolist()
            results = {
                cid: (*snapshots[cid, type_epochs[t]], type_epochs[t])
                for cid, t in zip(signup.participant_ids.tolist(), ptypes)
            }
            outcome = signup.with_passes(np.array(
                [results[cid][2] >= gates[t] for cid, t in zip(results, ptypes)], dtype=bool
            ))
            passers = np.flatnonzero(outcome.succeeded).tolist()
            if passers:
                weights = (
                    dict.fromkeys(passers, 1.0 / len(passers)) if scheme == "fedavg"
                    else outcome.aggregation_weights
                )
                global_model = aggregate([(results[cid][0], w) for cid, w in weights.items()])
                accuracy = server_test(global_model, task)
            else:
                accuracy = float("nan")
            rounds.append(SchemeRound(
                seed=seed, c=c, scheme=scheme, accuracy=accuracy,
                participants=outcome.participants, successes=outcome.successes,
                total_fees=outcome.fees_collected, total_rewards=outcome.rewards_paid,
            ))
            if scheme == "fedavg" and "contract" in config.schemes:
                continue  # its clients' rows are the contract scheme's
            passed = outcome.succeeded.tolist()
            for cid, t in enumerate(draws.tolist()):
                _, local_acc, serv_acc, epochs = results.get(
                    cid, (None, math.nan, math.nan, 0)
                )
                client_rows.append(ClientRecord(
                    seed=seed, c=c, scheme=scheme, client_id=cid, type_index=t + 1,
                    theta_target=thetas[t],
                    theta_measured=datasets[cid].measured_quality,
                    chosen_index=None if choices[t] < 0 else choices[t] + 1,
                    effort=efforts[t], epochs=epochs, local_accuracy=local_acc,
                    server_accuracy=serv_acc, passed=passed[cid],
                ))

    return SchemeReport(
        rounds=tuple(rounds),
        clients=tuple(client_rows),
        c_values=tuple(config.c_values),
        schemes=tuple(config.schemes),
        flat_items=flat_items,
    )
