"""Synthetic task, coverage-calibrated data, local training, aggregation."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpact import learning
from fedpact.config import ConfigError, ExperimentConfig
from fedpact.contracts import solve_optimal_menu
from fedpact.coverage import PointCloud, coverage_quality, quality_draws
from fedpact.learning import (
    CALIBRATION_GRID,
    CALIBRATION_TOLERANCE,
    MAX_BISECTIONS,
    QUALITY_SAMPLES,
    ArchitectureMismatchError,
    CalibrationError,
    ClientDataset,
    ClientRecord,
    ModelVector,
    SchemeReport,
    SchemeRound,
    SyntheticTask,
    _flat_item,
    aggregate,
    generate_client_dataset,
    local_train,
    model_accuracy,
    run_scheme_comparison,
    server_test,
)
from fedpact.seeding import child_rng
from fedpact.simulation import choose_contract, sample_population

from conftest import CONFIGS, flat, menu_rows, reference_local_train

rng = np.random.default_rng


@pytest.fixture(scope="module")
def task2d() -> SyntheticTask:
    return SyntheticTask.generate(2, 2, seed=7, test_size=2000)


def tiny_ml_config(**overrides) -> ExperimentConfig:
    payload = {
        "schema_version": 1,
        "profile": {
            "thetas": [0.55, 0.7, 0.85],
            "betas": [0.4, 0.3, 0.3],
            "c": 1.0,
        },
        "curve": {"kind": "exponential", "a": 0.022, "b": 4.6},
        "benchmarks": [0.52, 0.58, 0.64],
        "population": 8,
        "seeds": [1, 2],
        "mode": "ml",
        "schemes": ["contract", "fedavg", "flat"],
        "c_values": [1.0],
        "out_dir": "out/tiny",
        "task": {"dimension": 2, "classes": 2, "test_size": 500, "seed": 7},
        "training": {"max_epochs": 12, "n_points": 60, "learning_rate": 0.8,
                     "batch_size": 16},
    }
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


class TestModelVector:
    def test_wrong_size_rejected(self):
        with pytest.raises(ArchitectureMismatchError):
            ModelVector(np.zeros((2, 2)), np.zeros(3))

    def test_random_deterministic(self):
        a = ModelVector.random((2, 3), np.random.default_rng(5))
        b = ModelVector.random((2, 3), np.random.default_rng(5))
        np.testing.assert_array_equal(flat(a), flat(b))

    def test_random_stream_is_weights_then_bias(self):
        # the initial models of every shipped run are drawn from this stream
        for d in range(1, 6):
            for k in range(2, 5):
                for seed in (0, 7):
                    model = ModelVector.random((d, k), np.random.default_rng(seed))
                    assert model.shape == (d, k) and model.bias.shape == (k,)
                    np.testing.assert_array_equal(
                        flat(model), np.random.default_rng(seed).normal(0.0, 0.5, (d + 1) * k)
                    )

    def test_predict_shape(self, task2d):
        model = ModelVector(np.zeros(task2d.shape), np.zeros(task2d.shape[1]))
        points = np.random.default_rng(0).random((17, 2))
        assert model.predict(points).shape == (17,)


class TestSyntheticTask:
    def test_label_rule_deterministic(self):
        a = SyntheticTask.generate(2, 2, seed=3, test_size=2000)
        b = SyntheticTask.generate(2, 2, seed=3, test_size=2000)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)
        np.testing.assert_array_equal(a.rule.weights, b.rule.weights)

    def test_classes_reasonably_balanced(self):
        for seed in range(6):
            task = SyntheticTask.generate(2, 2, seed=seed, test_size=3000)
            share = np.bincount(task.test_labels, minlength=2) / 3000
            assert 0.25 <= share[0] <= 0.75

    def test_random_models_score_chance_level(self, task2d):
        accs = [server_test(ModelVector.random(task2d.shape, rng(s)), task2d) for s in range(30)]
        assert np.mean(accs) == pytest.approx(0.5, abs=0.05)

    def test_multiclass_chance_level(self):
        task = SyntheticTask.generate(3, 4, seed=11, test_size=3000)
        accs = [server_test(ModelVector.random(task.shape, rng(s)), task) for s in range(40)]
        assert np.mean(accs) == pytest.approx(0.25, abs=0.05)


class TestGenerateClientDataset:
    def test_targets_hit_within_tolerance(self, task2d):
        for target in (0.5, 0.65, 0.8, 0.9):
            ds = generate_client_dataset(task2d, target, 150, seed=21)
            assert abs(ds.measured_quality - target) <= 0.02
            assert ds.points.shape == (150, 2)
            assert ds.labels.shape == (150,)

    def test_quality_ordering_preserved(self, task2d):
        low = generate_client_dataset(task2d, 0.55, 120, seed=22)
        high = generate_client_dataset(task2d, 0.85, 120, seed=22)
        assert low.measured_quality < high.measured_quality
        assert low.subcube_side < high.subcube_side

    def test_unreachable_high_target(self, task2d):
        with pytest.raises(CalibrationError) as err:
            generate_client_dataset(task2d, 0.999, 3, seed=23)
        assert err.value.best < 0.999
        assert "closest measured" in str(err.value)

    def test_error_names_only_what_it_measured(self):
        # one point: quality is not monotone in the side (it peaks at 0.7501
        # near side 0.558), so the bisection ends on 0.5944 at side 1; the
        # grid scan then finds the first closest side to 0.7, past the peak
        task = SyntheticTask.generate(1, 2, seed=7, test_size=50)
        assert quality_at_side(task, 1, 2, 1.0) == pytest.approx(0.5944, abs=5e-5)
        ds = generate_client_dataset(task, 0.7, 1, seed=2)
        assert ds.subcube_side == CALIBRATION_GRID[80]
        assert ds.measured_quality == quality_at_side(task, 1, 2, ds.subcube_side)
        assert ds.measured_quality == pytest.approx(0.7005, abs=5e-5)
        # above the peak no side is within tolerance: the error names the
        # closest quality the bisection and the scan measured
        with pytest.raises(CalibrationError) as err:
            generate_client_dataset(task, 0.9, 1, seed=2)
        assert err.value.target == 0.9
        assert err.value.best == pytest.approx(0.7501, abs=5e-5)
        assert str(err.value) == (
            "coverage quality 0.9000 not reached by bisection or grid scan on the side; "
            "closest measured is 0.7501"
        )

    def test_unreachable_low_target(self, task2d):
        # even a collapsed-to-corner sample covers a fair share of the square
        with pytest.raises(CalibrationError):
            generate_client_dataset(task2d, 0.05, 200, seed=24)

    def test_single_point_quality_range(self):
        # a lone point in [0, 1] has quality between 0.5 (endpoint) and
        # 0.75 (midpoint); targets inside that band are reachable
        task1d = SyntheticTask.generate(1, 2, seed=9, test_size=200)
        ds = generate_client_dataset(task1d, 0.6, 1, seed=26)
        assert 0.5 - 0.02 <= ds.measured_quality <= 0.75 + 0.02
        assert abs(ds.measured_quality - 0.6) <= 0.02

    def test_near_full_cube(self, task2d):
        ds = generate_client_dataset(task2d, 0.95, 400, seed=26)
        assert ds.measured_quality >= 0.93


def reference_calibration(
    task: SyntheticTask, target_theta: float, n_points: int, seed: int, calls: list[int]
) -> ClientDataset:
    """``generate_client_dataset`` as a bisection that evaluates every side,
    then, if no side it measured is within tolerance, a scan of every grid
    side; ``calls[0]`` counts its ``coverage_quality`` evaluations."""
    unit_draws = child_rng(seed, 1).random((n_points, task.shape[0]))
    draws = quality_draws(task.shape[0], QUALITY_SAMPLES, int(child_rng(seed, 2).integers(2**31)))

    def quality(side: float) -> float:
        calls[0] += 1
        return coverage_quality(PointCloud(task.shape[0], unit_draws * side), draws)

    def bisect() -> tuple[float, float]:
        lo, hi = 1e-3, 1.0
        q_hi = quality(hi)
        if target_theta > q_hi + CALIBRATION_TOLERANCE:
            return hi, q_hi
        q_lo = quality(lo)
        if target_theta < q_lo - CALIBRATION_TOLERANCE:
            return lo, q_lo
        best_side, best_q = (hi, q_hi) if abs(q_hi - target_theta) < abs(q_lo - target_theta) else (lo, q_lo)
        for _ in range(MAX_BISECTIONS):
            if abs(best_q - target_theta) <= 0.25 * CALIBRATION_TOLERANCE:
                break
            mid = 0.5 * (lo + hi)
            q_mid = quality(mid)
            if abs(q_mid - target_theta) < abs(best_q - target_theta):
                best_side, best_q = mid, q_mid
            if q_mid < target_theta:
                lo = mid
            else:
                hi = mid
        return best_side, best_q

    best_side, best_q = bisect()
    if abs(best_q - target_theta) > CALIBRATION_TOLERANCE:
        for side in CALIBRATION_GRID:
            q_side = quality(side)
            if abs(q_side - target_theta) < abs(best_q - target_theta):
                best_side, best_q = side, q_side
        if abs(best_q - target_theta) > CALIBRATION_TOLERANCE:
            raise CalibrationError(target_theta, best_q)

    points = unit_draws * best_side
    return ClientDataset(
        points=points,
        labels=task.rule.predict(points),
        measured_quality=best_q,
        subcube_side=best_side,
    )


def calibration_outcome(calibrate, task, target, n_points, seed) -> tuple:
    """What a calibration returns or raises, comparable with ``==``."""
    try:
        ds = calibrate(task, target, n_points, seed)
    except CalibrationError as err:
        return ("error", err.target, err.best)
    return ("data", ds.subcube_side, ds.measured_quality, ds.points.tobytes(), ds.labels.tobytes())


def counting_completed(calls: list[int]):
    """``coverage_quality`` that adds its completed evaluations (a finite
    result, not a bound's infinity) to ``calls[0]``."""
    def counted(*args, **kwargs):
        q = coverage_quality(*args, **kwargs)
        calls[0] += math.isfinite(q)
        return q
    return counted


def assert_matches_reference(task, target, n_points, seed) -> tuple[int, int]:
    """Same outcome as ``reference_calibration``, in no more completed
    evaluations; returns both evaluation counts."""
    ref_calls, calls = [0], [0]
    counted = counting_completed(calls)
    expected = calibration_outcome(
        lambda *args: reference_calibration(*args, ref_calls), task, target, n_points, seed
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "coverage_quality", counted)
        got = calibration_outcome(generate_client_dataset, task, target, n_points, seed)
    assert got == expected
    assert calls[0] <= ref_calls[0]
    return calls[0], ref_calls[0]


TASKS = {d: SyntheticTask.generate(d, 2, seed=7, test_size=50) for d in (1, 2, 3)}


def quality_at_side(task: SyntheticTask, n_points: int, seed: int, side: float) -> float:
    """The quality ``generate_client_dataset`` measures at ``side``."""
    unit_draws = child_rng(seed, 1).random((n_points, task.shape[0]))
    draws = quality_draws(task.shape[0], QUALITY_SAMPLES, int(child_rng(seed, 2).integers(2**31)))
    return coverage_quality(PointCloud(task.shape[0], unit_draws * side), draws)


class TestCalibrationSkips:
    """Skipping evaluations that the quality bounds decide changes nothing
    but the number of evaluations."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dimension=st.sampled_from([1, 2, 3]), n_points=st.integers(1, 200),
           target=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2**31 - 1))
    # the low end measured, not skipped, returns early for a target below its reach
    @example(dimension=1, n_points=1, target=0.25, seed=0)
    def test_matches_reference(self, dimension, n_points, target, seed):
        assert_matches_reference(TASKS[dimension], target, n_points, seed)

    @pytest.mark.parametrize("dimension, n_points, seed",
                             [(1, 10, 1), (1, 12, 165), (2, 1, 1), (2, 200, 2), (3, 40, 4)])
    @pytest.mark.parametrize("end, offset", [
        (1.0, 0.006), (1.0, 0.01), (1.0, 0.015), (1.0, 0.0199), (1e-3, -0.006), (1e-3, -0.0199),
    ])
    def test_matches_reference_without_convergence(self, dimension, n_points, seed, end, offset):
        # a target just out of reach at either end: every bisection runs, and
        # the skipped sides are evaluated before the winner is picked (in some
        # of these clouds a skipped side near 1 covers more than the full cube).
        # In (1, 12, 165) side 1's ceiling lies below the band at offsets 0.015
        # and 0.0199: side 1 is tested against the top of the band only
        task = TASKS[dimension]
        target = quality_at_side(task, n_points, seed, end) + offset
        _, ref_calls = assert_matches_reference(task, target, n_points, seed)
        assert ref_calls == MAX_BISECTIONS + 2

    @pytest.mark.parametrize("n_points, seed", [(1, 1), (1, 3), (1, 4), (2, 1)])
    @pytest.mark.parametrize("target", [0.51, 0.54, 0.57])
    def test_matches_reference_on_tight_bounds(self, n_points, seed, target):
        # one or two points on a line: the ceiling is close to the quality,
        # so sides just beyond the stop width get skipped
        assert_matches_reference(TASKS[1], target, n_points, seed)

    @pytest.mark.parametrize("dimension, n_points, seed",
                             [(1, 1, 1), (2, 3, 2), (3, 8, 4), (1, 12, 1), (2, 40, 3)])
    def test_side_one_within_the_stop_width_is_measured(self, dimension, n_points, seed):
        # side 1 within the stop width above the target is measured in full
        # (its prefix floors lie below its quality) and settles the search
        task = TASKS[dimension]
        target = quality_at_side(task, n_points, seed, 1.0) - 0.004
        assert_matches_reference(task, target, n_points, seed)
        assert generate_client_dataset(task, target, n_points, seed).subcube_side == 1.0

    @pytest.mark.parametrize("seed", [1052, 2690])
    def test_skipped_side_one_wins_the_fallback(self, seed):
        # one point at u > 0.995: q(1) lies below every other side's quality
        # and more than the stop width above the target, so side 1 cannot
        # settle the search, no side does, and the fallback picks side 1
        task = TASKS[1]
        target = quality_at_side(task, 1, seed, 1.0) - 0.006
        _, ref_calls = assert_matches_reference(task, target, 1, seed)
        assert ref_calls == MAX_BISECTIONS + 2
        assert generate_client_dataset(task, target, 1, seed).subcube_side == 1.0

    def test_stopped_side_wins_the_fallback(self):
        # a calibrated cloud of more than 8 points seldom lets a stopped side
        # win, so a quality function stands in: side 1 stops above the
        # target, every other side lies far below, nothing settles, and the
        # fallback measures side 1 in full
        target = 0.6
        calls = []

        def quality(side: float, *, below: float = -math.inf, above: float = math.inf) -> float:
            # no ceiling here: no side is rejected below
            calls.append(above)
            q = target + 0.006 if side == 1.0 else target - 0.05
            return math.inf if q > above else q

        assert learning._bisect_side(quality, target) == (1.0, target + 0.006)
        assert len(calls) == MAX_BISECTIONS + 3 and calls[-1] == math.inf

    def test_shipped_seed_needs_fewer_evaluations(self):
        task, datasets = shipped_seed_datasets()
        calls = ref_calls = 0
        for target, n_points, seed in datasets:
            got, ref = assert_matches_reference(task, target, n_points, seed)
            calls, ref_calls = calls + got, ref_calls + ref
        assert len(datasets) == 30
        assert calls <= 0.7 * ref_calls

    def test_shipped_seed_needs_few_evaluations_per_dataset(self):
        # the prefix floors stop side 1 and most sides above the target early
        task, datasets = shipped_seed_datasets()
        calls = [0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learning, "coverage_quality", counting_completed(calls))
            for dataset in datasets:
                generate_client_dataset(task, *dataset)
        assert calls[0] <= 2.0 * len(datasets)


def shipped_seed_datasets() -> tuple[SyntheticTask, list[tuple[float, int, int]]]:
    """The task and the ``(target, n_points, seed)`` of each of the 30
    datasets of seed 1 of the shipped synthetic config."""
    config = ExperimentConfig.from_json(CONFIGS / "synthetic_default.json")
    task = SyntheticTask.generate(
        config.task.dimension, config.task.classes, config.task.seed, config.task.test_size
    )
    draws = sample_population(config.profile, config.population, child_rng(1, 10))
    thetas = config.profile.thetas.tolist()
    return task, [
        (thetas[type_idx], config.training.n_points, int(child_rng(1, 20, cid).integers(2**31)))
        for cid, type_idx in enumerate(draws.tolist())
    ]


class TestLocalTrain:
    def test_zero_effort_identity(self, task2d):
        model = ModelVector.random(task2d.shape, rng(1))
        data = child_rng(2, 0).random((40, 2))
        out = local_train(
            [model], data[None], task2d.rule.predict(data)[None], 0.0, 50, [rng(3)], 0.8, 32
        )
        assert out[0] is model

    def test_separable_task_learned(self, task2d):
        points = child_rng(4, 0).random((200, 2))
        labels = task2d.rule.predict(points)
        model = local_train(
            [ModelVector.random(task2d.shape, rng(5))], points[None], labels[None], 1.0, 50,
            [rng(6)], 0.8, 32,
        )[0]
        assert model_accuracy(model, points, labels) >= 0.95
        assert server_test(model, task2d) >= 0.9

    def test_more_effort_is_usually_better(self, task2d):
        wins = 0
        for seed in range(10):
            points = child_rng(seed, 1).random((150, 2))
            labels = task2d.rule.predict(points)
            init = ModelVector.random(task2d.shape, rng(seed))
            hi = local_train([init], points[None], labels[None], 1.0, 50, [rng(seed)], 0.8, 32)[0]
            lo = local_train([init], points[None], labels[None], 0.2, 50, [rng(seed)], 0.8, 32)[0]
            if server_test(hi, task2d) >= server_test(lo, task2d):
                wins += 1
        assert wins >= 8

    def test_deterministic(self, task2d):
        points = child_rng(8, 0).random((60, 2))
        labels = task2d.rule.predict(points)
        init = ModelVector.random(task2d.shape, rng(9))
        a = local_train([init], points[None], labels[None], 0.7, 20, [rng(10)], 0.8, 32)[0]
        b = local_train([init], points[None], labels[None], 0.7, 20, [rng(10)], 0.8, 32)[0]
        np.testing.assert_array_equal(flat(a), flat(b))

    def test_epoch_rounding(self, task2d):
        # effort 0.04 of 12 epochs rounds to zero epochs: identity
        model = ModelVector.random(task2d.shape, rng(11))
        data = child_rng(12, 0).random((30, 2))
        labels = task2d.rule.predict(data)
        assert local_train([model], data[None], labels[None], 0.04, 12, [rng(13)], 0.8, 32)[0] is model

    def test_dimension_mismatch(self, task2d):
        model = ModelVector.random(task2d.shape, rng(17))
        with pytest.raises(ArchitectureMismatchError):
            local_train(
                [model], np.zeros((1, 5, 3)), np.zeros((1, 5), dtype=int), 1.0, 10, [rng(18)],
                0.8, 32,
            )

    def test_client_count_mismatch(self, task2d):
        model = ModelVector.random(task2d.shape, rng(19))
        points = np.zeros((2, 5, 2))
        labels = np.zeros((2, 5), dtype=int)
        with pytest.raises(ValueError, match="same clients"):
            local_train([model], points, labels, 1.0, 10, [rng(1), rng(2)], 0.8, 32)
        with pytest.raises(ValueError, match="same clients"):
            local_train([model, model], points, labels, 1.0, 10, [rng(1)], 0.8, 32)
        with pytest.raises(ValueError, match="same clients"):
            local_train([model, model], points, labels[:, :4], 1.0, 10, [rng(1), rng(2)], 0.8, 32)


def stacked_clients(dimension: int, classes: int, n_points: int, n_clients: int = 4):
    """Distinct init models and labelled data for ``n_clients`` clients."""
    task = SyntheticTask.generate(dimension, classes, seed=31, test_size=10)
    models = [ModelVector.random(task.shape, child_rng(32, i)) for i in range(n_clients)]
    points = np.stack([child_rng(33, i).random((n_points, dimension)) for i in range(n_clients)])
    labels = np.stack([task.rule.predict(p) for p in points])
    return models, points, labels


class TestLockstepTrain:
    # (n_points, batch_size, effort): n not a multiple of the batch, a
    # batch larger than n, and zero effort
    SHAPES = [(50, 16, 1.0), (40, 64, 0.6), (30, 8, 0.0)]

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("n_points,batch_size,effort", SHAPES)
    def test_rows_match_single_client_loop(self, dimension, classes, n_points, batch_size, effort):
        models, points, labels = stacked_clients(dimension, classes, n_points)
        stacked = local_train(
            models, points, labels, effort, 10,
            [child_rng(34, i) for i in range(len(models))], 0.8, batch_size,
        )
        for i, model in enumerate(models):
            single = reference_local_train(
                model, points[i], labels[i], effort, 10, child_rng(34, i), 0.8, batch_size
            )
            assert stacked[i].shape == single.shape
            # bit for bit, and the very input model when no epoch runs
            np.testing.assert_array_equal(flat(stacked[i]), flat(single))
            assert (stacked[i] is model) == (single is model) == (effort == 0.0)

    @pytest.mark.parametrize("first,total", [(3, 7), (1, 12), (6, 6)])
    def test_shorter_run_is_a_prefix(self, first, total):
        models, points, labels = stacked_clients(2, 3, 45)
        gens = [child_rng(35, i) for i in range(len(models))]
        head = local_train(models, points, labels, first / 12, 12, gens, 0.8, 16)
        tail = local_train(head, points, labels, (total - first) / 12, 12, gens, 0.8, 16)
        whole = local_train(
            models, points, labels, total / 12, 12,
            [child_rng(35, i) for i in range(len(models))], 0.8, 16,
        )
        for a, b in zip(tail, whole):
            np.testing.assert_array_equal(flat(a), flat(b))


class TestAggregate:
    def test_single_model_identity(self, task2d):
        model = ModelVector.random(task2d.shape, rng(20))
        out = aggregate([(model, 1.0)])
        np.testing.assert_array_equal(flat(out), flat(model))

    def test_identical_models_fixed_point(self, task2d):
        model = ModelVector.random(task2d.shape, rng(21))
        out = aggregate([(model, 0.3), (model, 0.7)])
        np.testing.assert_allclose(flat(out), flat(model))

    def test_component_mean(self):
        m1 = ModelVector(np.zeros((1, 2)), np.zeros(2))
        m2 = ModelVector(np.array([[2.0, 4.0]]), np.array([2.0, 4.0]))
        out = aggregate([(m1, 0.5), (m2, 0.5)])
        np.testing.assert_array_equal(flat(out), [1.0, 2.0, 1.0, 2.0])

    def test_weight_sum_enforced(self, task2d):
        model = ModelVector.random(task2d.shape, rng(22))
        with pytest.raises(ValueError):
            aggregate([(model, 0.5), (model, 0.6)])

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (2.0, -1.0)])
    def test_weights_must_be_non_negative(self, task2d, weights):
        # a NaN weight gave a NaN model; 2 and -1 sum to 1
        model = ModelVector.random(task2d.shape, rng(22))
        with pytest.raises(ValueError, match="non-negative"):
            aggregate([(model, w) for w in weights])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            aggregate([])

    def test_architecture_mismatch(self):
        a = ModelVector(np.zeros((2, 2)), np.zeros(2))
        b = ModelVector(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ArchitectureMismatchError):
            aggregate([(a, 0.5), (b, 0.5)])

    def test_permutation_invariant(self, task2d):
        models = [ModelVector.random(task2d.shape, rng(s)) for s in range(3)]
        weights = [0.2, 0.3, 0.5]
        fwd = aggregate(list(zip(models, weights)))
        rev = aggregate(list(zip(models[::-1], weights[::-1])))
        np.testing.assert_allclose(flat(fwd), flat(rev), atol=1e-12)


class TestSchemeComparison:
    def test_report_structure_and_determinism(self):
        config = tiny_ml_config()
        a = run_scheme_comparison(config)
        b = run_scheme_comparison(config)
        assert json.dumps(a.summary(), sort_keys=True) == json.dumps(b.summary(), sort_keys=True)
        assert {r.scheme for r in a.rounds} == {"contract", "fedavg", "flat"}
        assert {r.seed for r in a.rounds} == {1, 2}
        assert len(a.rounds) == 2 * 1 * 3

    def test_single_type_degenerate_equality(self):
        # one type means one contract: reward weights collapse to uniform and
        # the two contract-reward schemes must agree bit for bit
        config = tiny_ml_config(
            profile={"thetas": [0.92], "betas": [1.0], "c": 1.0},
            curve={"kind": "exponential", "a": 0.1, "b": 4.6},
            benchmarks=[0.5],
        )
        report = run_scheme_comparison(config)
        for seed in (1, 2):
            acc = {r.scheme: r.accuracy for r in report.rounds if r.seed == seed}
            successes = {r.scheme: r.successes for r in report.rounds if r.seed == seed}
            assert successes["contract"] > 0
            assert acc["contract"] == acc["fedavg"]
        assert report.orderings()["per_c"]["1.0"]["degenerate_equal"]

    def test_fedavg_alone_writes_its_clients(self):
        # without the contract scheme, fedavg's client rows are its own: the
        # contract rows of a run with both, relabelled
        alone = run_scheme_comparison(tiny_ml_config(schemes=["fedavg"]))
        both = run_scheme_comparison(tiny_ml_config(schemes=["contract", "fedavg"]))
        expected = [replace(r, scheme="fedavg") for r in both.clients if r.scheme == "contract"]
        assert [repr(r) for r in alone.clients] == [repr(r) for r in expected]
        assert len(alone.clients) == 8 * len(alone.rounds)
        for r in alone.rounds:
            rows = [row for row in alone.clients if (row.seed, row.c) == (r.seed, r.c)]
            assert sum(row.chosen_index is not None for row in rows) == r.participants > 0

    def test_requires_ml_mode(self):
        config = tiny_ml_config(mode="analytic")
        with pytest.raises(ConfigError, match="ml"):
            run_scheme_comparison(config)

    def test_csv_outputs(self, tmp_path):
        report = run_scheme_comparison(tiny_ml_config())
        report.rounds_to_csv(tmp_path / "rounds.csv")
        report.clients_to_csv(tmp_path / "clients.csv")
        report.summary_to_json(tmp_path / "summary.json")
        rounds_header = (tmp_path / "rounds.csv").read_text().splitlines()[0]
        assert rounds_header == "seed,c,scheme,accuracy,participants,successes,total_fees,total_rewards"
        clients_header = (tmp_path / "clients.csv").read_text().splitlines()[0]
        assert clients_header.startswith("seed,c,scheme,client_id,type_index")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "orderings" in summary and "flat_items" in summary

    def test_summary_writes_null_for_missing_means(self, tmp_path):
        # nobody passes in the tiny population, so no scheme has an accuracy,
        # and no ordering verdict compares two means
        report = run_scheme_comparison(tiny_ml_config(c_values=[1.0, 2.0]))
        report.summary_to_json(tmp_path / "summary.json")

        def reject(token):
            raise ValueError(f"invalid JSON token {token}")

        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        nothing = {"contract": None, "fedavg": None, "flat": None}
        assert list(summary["orderings"]["per_c"]) == ["1.0", "2.0"]
        for entry in summary["orderings"]["per_c"].values():
            assert entry == {"means": nothing, "contract_ge_fedavg": None,
                             "degenerate_equal": None, "fedavg_ge_flat": None}
        assert summary["orderings"]["contract_small_c_ge_large_c"] is None

    def test_coverage_accuracy_link(self, task2d):
        # at equal effort, higher measured coverage should rank with higher
        # server accuracy
        from scipy.stats import spearmanr

        qualities, accuracies = [], []
        targets = [0.5, 0.58, 0.66, 0.74, 0.82, 0.9]
        for seed in range(10):
            for k, target in enumerate(targets):
                ds = generate_client_dataset(task2d, target, 120, seed=1000 + seed * 10 + k)
                model = local_train(
                    [ModelVector.random(task2d.shape, rng(seed))], ds.points[None],
                    ds.labels[None], 1.0, 50, [rng(seed)], 0.8, 32,
                )[0]
                qualities.append(ds.measured_quality)
                accuracies.append(server_test(model, task2d))
        rho = spearmanr(qualities, accuracies).statistic
        assert rho >= 0.5


# ---------------------------------------------------------------------------
# comparison rounds booked through RoundOutcome against the per-scheme loop
# ---------------------------------------------------------------------------

def reference_comparison(config: ExperimentConfig) -> SchemeReport:
    """The per-scheme loop: signup tuples per type, ``+=`` totals per client,
    and reward-share weights for ``contract`` written out by hand."""
    task = SyntheticTask.generate(
        config.task.dimension, config.task.classes, config.task.seed, config.task.test_size
    )
    train = config.training
    thetas = config.profile.thetas.tolist()
    rounds, client_rows, flat_items = [], [], {}
    for seed in config.seeds:
        draws = child_rng(seed, 10).choice(
            len(thetas), size=config.population, p=np.array(config.profile.betas.tolist())
        )
        datasets = {
            cid: generate_client_dataset(
                task, target_theta=thetas[type_idx], n_points=train.n_points,
                seed=int(child_rng(seed, 20, cid).integers(2**31)),
            )
            for cid, type_idx in enumerate(draws)
        }
        init_model = ModelVector.random(task.shape, child_rng(seed, 30))
        model_cache = {}

        def trained(cid, effort):
            epochs = int(math.floor(effort * train.max_epochs + 0.5))
            if (cid, epochs) not in model_cache:
                data = datasets[cid]
                model = reference_local_train(
                    init_model, data.points, data.labels,
                    effort=epochs / train.max_epochs, max_epochs=train.max_epochs,
                    rng=child_rng(seed, 40, cid), learning_rate=train.learning_rate,
                    batch_size=train.batch_size,
                )
                model_cache[(cid, epochs)] = (
                    model, model_accuracy(model, data.points, data.labels),
                    server_test(model, task),
                )
            return (*model_cache[(cid, epochs)], epochs)

        for c in config.c_values:
            profile = replace(config.profile, unit_cost=c)
            menu = solve_optimal_menu(profile, config.curve, config.benchmarks)
            flat = flat_items[c] = _flat_item(menu, profile.betas)
            rows = menu_rows(menu)
            (flat_fee, flat_reward, _), = menu_rows(flat)
            signups = {"contract": [], "flat": []}
            for type_idx, theta in enumerate(thetas):
                row, effort, _ = choose_contract(theta, menu, c)
                if row < 0:
                    gate = float(config.benchmarks[type_idx])
                    signups["contract"].append(None)
                else:
                    fee, reward, gate = rows[row]
                    signups["contract"].append((row + 1, effort, fee, reward, gate))
                flat_row, flat_effort, _ = choose_contract(theta, flat, c)
                signups["flat"].append(
                    None if flat_row < 0
                    else (1, flat_effort, flat_fee, flat_reward, gate)
                )

            for scheme in config.schemes:
                policy = "flat" if scheme == "flat" else "contract"
                # fedavg's clients are the contract scheme's, written once
                writes_rows = scheme != "fedavg" or "contract" not in config.schemes
                passers, participants, total_fees, total_rewards = [], 0, 0.0, 0.0
                for cid, type_idx in enumerate(draws):
                    signup = signups[policy][type_idx]
                    row = dict(
                        seed=seed, c=c, scheme=scheme, client_id=cid,
                        type_index=int(type_idx) + 1, theta_target=thetas[type_idx],
                        theta_measured=datasets[cid].measured_quality,
                    )
                    if signup is None:
                        if writes_rows:
                            client_rows.append(ClientRecord(
                                **row, chosen_index=None, effort=0.0, epochs=0,
                                local_accuracy=float("nan"), server_accuracy=float("nan"),
                                passed=False,
                            ))
                        continue
                    index, effort, fee, reward, gate = signup
                    participants += 1
                    total_fees += fee
                    model, local_acc, serv_acc, epochs = trained(cid, effort)
                    passed = serv_acc >= gate
                    if passed:
                        total_rewards += reward
                        passers.append((model, reward))
                    if writes_rows:
                        client_rows.append(ClientRecord(
                            **row, chosen_index=index, effort=effort, epochs=epochs,
                            local_accuracy=local_acc, server_accuracy=serv_acc, passed=passed,
                        ))
                accuracy = float("nan")
                if passers:
                    rewards = np.array([r for _, r in passers])
                    if scheme == "contract" and rewards.sum() > 0 and not np.all(
                        rewards == rewards[0]
                    ):
                        weights = rewards / rewards.sum()
                    else:
                        weights = np.full(len(passers), 1.0 / len(passers))
                    global_model = aggregate(
                        [(m, float(w)) for (m, _), w in zip(passers, weights)]
                    )
                    accuracy = server_test(global_model, task)
                rounds.append(SchemeRound(
                    seed=seed, c=c, scheme=scheme, accuracy=accuracy,
                    participants=participants, successes=len(passers),
                    total_fees=total_fees, total_rewards=total_rewards,
                ))
    return SchemeReport(
        rounds=tuple(rounds), clients=tuple(client_rows), c_values=tuple(config.c_values),
        schemes=tuple(config.schemes), flat_items=flat_items,
    )


def shipped_config(**overrides) -> ExperimentConfig:
    payload = json.loads((CONFIGS / "synthetic_default.json").read_text())
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


COMPARISON_CASES = {
    "three-types-flat-rejects": lambda: tiny_ml_config(),
    "table-curve": lambda: tiny_ml_config(
        curve={"kind": "table", "benchmarks": [0.52, 0.58, 0.64], "values": [1.0, 1.5, 2.2]},
        c_values=[0.5, 2.0],
    ),
    "single-type": lambda: tiny_ml_config(
        profile={"thetas": [0.92], "betas": [1.0], "c": 1.0},
        curve={"kind": "exponential", "a": 0.1, "b": 4.6},
        benchmarks=[0.5],
    ),
    # shapes the lockstep trainer reshapes: d = k = 3, and one batch
    # larger than a client's whole dataset
    "three-dims-three-classes": lambda: shipped_config(
        seeds=[3], population=12,
        task={"dimension": 3, "classes": 3, "test_size": 500, "seed": 7},
        training={"max_epochs": 20, "n_points": 50, "learning_rate": 0.8, "batch_size": 16},
    ),
    "batch-larger-than-data": lambda: shipped_config(
        seeds=[3], population=12,
        training={"max_epochs": 20, "n_points": 40, "learning_rate": 0.8, "batch_size": 64},
    ),
    "fedavg-only": lambda: shipped_config(seeds=[5], schemes=["fedavg"]),
    "shipped-seed-3": lambda: shipped_config(seeds=[3]),
    "shipped-seed-8": lambda: shipped_config(seeds=[8]),
}


class TestComparisonEngine:
    @pytest.mark.parametrize("case", list(COMPARISON_CASES))
    def test_matches_per_scheme_loop(self, case, tmp_path):
        config = COMPARISON_CASES[case]()
        report = run_scheme_comparison(config)
        reference = reference_comparison(config)
        # repr compares floats bit for bit, NaN included, and tells a numpy
        # scalar from a Python float
        assert [repr(r) for r in report.rounds] == [repr(r) for r in reference.rounds]
        assert [repr(r) for r in report.clients] == [repr(r) for r in reference.clients]
        for name, rep in (("new", report), ("ref", reference)):
            rep.rounds_to_csv(tmp_path / f"{name}_comparison.csv")
            rep.clients_to_csv(tmp_path / f"{name}_clients.csv")
            rep.summary_to_json(tmp_path / f"{name}_summary.json")
        for output in ("comparison.csv", "clients.csv", "summary.json"):
            new_bytes = (tmp_path / f"new_{output}").read_bytes()
            assert new_bytes == (tmp_path / f"ref_{output}").read_bytes(), output
