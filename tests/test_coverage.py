"""Coverage estimation against analytic oracles.

Closed-form values used below (one point in [0, 1]):
  point at 0.5:  mu(eps) = min(2*eps, 1), so the quality integral is
                 int_0^0.5 2e de + int_0.5^1 1 de = 0.25 + 0.5 = 0.75
  point at 0.0:  mu(eps) = min(eps, 1),  quality = int_0^1 e de = 0.5
"""
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fedpact import coverage
from fedpact.coverage import (
    PointCloud,
    coverage_quality,
    quality_draws,
    subcube_quality_ceiling,
)
from fedpact.learning import QUALITY_SAMPLES

from conftest import reference_running_nearest, src_env


def cloud1d(*xs: float) -> PointCloud:
    return PointCloud(1, [[x] for x in xs])


def reference_quality(cloud: PointCloud, samples: int, seed: int, steps: int = 200_001) -> float:
    """Brute-force nearest distances on the same draws, then a fine trapezoid
    of the empirical radius coverage mu(eps) over [0, sqrt(d)]."""
    diameter = math.sqrt(cloud.dimension)
    draws = quality_draws(cloud.dimension, samples, seed)
    gaps = draws[:, None, :] - cloud.points[None, :, :]
    dist = np.sort(np.sqrt((gaps**2).sum(axis=2).min(axis=1)))
    radii = np.linspace(0.0, diameter, steps)
    mu = np.searchsorted(dist, radii, side="left") / samples  # share strictly within eps
    return float(np.trapezoid(mu, radii)) / diameter


def seeded_quality(cloud: PointCloud, samples: int, seed: int) -> float:
    """``coverage_quality`` on the ``samples`` draws of ``seed``."""
    return coverage_quality(cloud, quality_draws(cloud.dimension, samples, seed))


def floor_counts(n_points: int) -> range:
    """The point counts at which ``coverage_quality`` tests its floor: every
    block end of the pass short of the last."""
    return range(coverage._BLOCK, n_points, coverage._BLOCK)


class TestCoverageQuality:
    def test_empty_cloud(self):
        assert coverage_quality(PointCloud(2, []), quality_draws(2, 100, 0)) == 0.0

    def test_midpoint_oracle(self):
        theta = seeded_quality(cloud1d(0.5), 100_000, seed=8)
        assert theta == pytest.approx(0.75, abs=0.01)

    def test_endpoint_oracle(self):
        theta = seeded_quality(cloud1d(0.0), 100_000, seed=9)
        assert theta == pytest.approx(0.5, abs=0.01)

    def test_dense_grid_near_one(self):
        grid = cloud1d(*np.linspace(0, 1, 1000))
        assert seeded_quality(grid, 20_000, seed=10) >= 0.99

    def test_monotone_under_supersets(self):
        rng = np.random.default_rng(11)
        base = rng.random((4, 2))
        extra = rng.random((10, 2))
        small = PointCloud(2, base)
        large = PointCloud(2, np.vstack([base, extra]))
        draws = quality_draws(2, 4000, 12)
        q_small = coverage_quality(small, draws)
        q_large = coverage_quality(large, draws)
        assert q_large >= q_small

    def test_deterministic_per_seed(self):
        a = seeded_quality(cloud1d(0.4, 0.9), 2000, seed=5)
        b = seeded_quality(cloud1d(0.4, 0.9), 2000, seed=5)
        assert a == b

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("case", range(4))
    def test_exact_radius_integral(self, dimension, case):
        rng = np.random.default_rng(100 * dimension + case)
        n = int(rng.integers(1, 41))
        side = rng.uniform(0.05, 1.0)
        cloud = PointCloud(dimension, rng.random((n, dimension)) * side)
        seed = int(rng.integers(2**31))
        exact = seeded_quality(cloud, 3000, seed)
        assert exact == pytest.approx(reference_quality(cloud, 3000, seed), abs=1e-6)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            cloud = PointCloud(2, rng.random((3, 2)))
            assert 0.0 <= seeded_quality(cloud, 500, seed=14) <= 1.0

    @pytest.mark.parametrize("cloud", [PointCloud(2, []), PointCloud(2, [[0.2, 0.7]])])
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_draws_must_match_the_dimension(self, cloud, dimension):
        with pytest.raises(ValueError, match="do not match dimension 2"):
            coverage_quality(cloud, quality_draws(dimension, 50, 1), below=0.5)

    @pytest.mark.parametrize("cloud", [PointCloud(2, []), PointCloud(2, [[0.2, 0.7]])],
                             ids=["empty", "one-point"])
    def test_draws_must_have_rows(self, cloud):
        with pytest.raises(ValueError, match="no rows"):
            coverage_quality(cloud, np.empty((0, 2)))


# sides from the calibration's lower end 1e-3 up to the full cube
SIDES = st.one_of(st.floats(1e-3, 2e-3), st.floats(1e-3, 1.0))


class TestQualityBounds:
    """The facts calibration skips evaluations on, checked on the draws
    ``coverage_quality`` uses."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dimension=st.integers(1, 10), n_points=st.integers(1, 200),
           side=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2**31 - 1),
           below=st.one_of(st.floats(-0.5, 1.5), st.just(-math.inf)),
           above=st.one_of(st.floats(-0.5, 1.5), st.just(math.inf)))
    # at, one below and one above each block end
    @example(dimension=3, n_points=31, side=1.0, seed=2, below=-math.inf, above=-1.0)  # no floor
    @example(dimension=3, n_points=32, side=1.0, seed=2, below=-math.inf, above=-1.0)  # one block
    @example(dimension=3, n_points=33, side=1.0, seed=2, below=-math.inf, above=-1.0)  # stops at 32
    @example(dimension=2, n_points=33, side=0.1, seed=3, below=0.9, above=math.inf)  # the ceiling rejects
    @example(dimension=1, n_points=63, side=0.4, seed=4, below=-math.inf, above=math.inf)
    @example(dimension=4, n_points=64, side=0.8, seed=5, below=0.2, above=0.9)
    @example(dimension=2, n_points=65, side=0.6, seed=6, below=-math.inf, above=math.inf)
    @example(dimension=5, n_points=95, side=1.0, seed=7, below=-math.inf, above=math.inf)
    @example(dimension=2, n_points=96, side=0.3, seed=8, below=-math.inf, above=math.inf)
    @example(dimension=3, n_points=97, side=0.7, seed=9, below=-math.inf, above=math.inf)
    @example(dimension=10, n_points=128, side=0.9, seed=10, below=-math.inf, above=math.inf)
    @example(dimension=2, n_points=129, side=0.5, seed=1, below=-math.inf, above=1.5)  # every block runs
    def test_bounded_quality_is_exact_or_stops_on_a_prefix_floor(
        self, dimension, n_points, side, seed, below, above
    ):
        units = np.random.default_rng(seed).random((n_points, dimension))
        cloud = PointCloud(dimension, units * side)
        draws = quality_draws(dimension, 500, seed)

        def one_pass(end: int) -> float:
            # the quality of the first ``end`` points, in a single pass
            distances = PointCloud(dimension, cloud.points[:end]).nearest_distances(draws)
            return 1.0 - float(np.mean(distances)) / math.sqrt(dimension)

        q = coverage_quality(cloud, draws)
        assert q.hex() == one_pass(n_points).hex()
        # the points before a block end are a subset of the cloud, so their
        # quality is a floor; every point lies in [0, m]^d, so that
        # sub-cube's ceiling caps it
        floors = [one_pass(end) for end in floor_counts(n_points)]
        assert all(floor <= q for floor in floors)
        ceiling = subcube_quality_ceiling(draws, float(cloud.points.max()))
        assert q <= ceiling <= subcube_quality_ceiling(draws, side)
        bounded = coverage_quality(cloud, draws, below=below, above=above)
        if ceiling < below:
            assert bounded == -math.inf and q < below
        elif any(floor > above for floor in floors):
            assert bounded == math.inf and q > above
        else:
            assert bounded.hex() == q.hex()
        # a ceiling one ulp below ``below`` rejects the cloud; one at it does not
        assert coverage_quality(cloud, draws, below=math.nextafter(ceiling, math.inf)) == -math.inf
        assert coverage_quality(cloud, draws, below=ceiling).hex() == q.hex()
        if floors:
            # a floor one ulp above ``above`` stops the pass; none above it does not
            highest = max(floors)
            assert coverage_quality(cloud, draws, above=math.nextafter(highest, -math.inf)) == math.inf
            assert coverage_quality(cloud, draws, above=highest).hex() == q.hex()
        # distances are a KD-tree's, bit for bit while it sums the squares in
        # order (up to 7 coordinates; beyond, scipy sums them in four lanes)
        reference, _ = cKDTree(cloud.points).query(draws)
        if dimension <= 7:
            assert cloud.nearest_distances(draws).tobytes() == reference.tobytes()
        else:
            np.testing.assert_allclose(cloud.nearest_distances(draws), reference, rtol=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dimension=st.integers(1, 3), n_points=st.integers(1, 8), side=SIDES,
           seed=st.integers(0, 2**31 - 1))
    def test_ceiling_bounds_subcube_clouds(self, dimension, n_points, side, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(dimension, rng.random((n_points, dimension)) * side)
        draws = quality_draws(dimension, 500, seed)
        assert subcube_quality_ceiling(draws, side) >= coverage_quality(cloud, draws)

    def test_ceiling_is_tight_for_a_corner_point(self):
        # a cloud at the origin is as near to a sample as [0, 1e-3]^d up to 1e-3 * sqrt(d)
        for dimension in (1, 2, 3):
            draws = quality_draws(dimension, 2000, 4)
            q = coverage_quality(PointCloud(dimension, np.zeros((1, dimension))), draws)
            assert subcube_quality_ceiling(draws, 1e-3) - q <= 1e-3

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dimension=st.integers(1, 3), n_points=st.integers(1, 8), side=SIDES, other=SIDES,
           seed=st.integers(0, 2**31 - 1))
    def test_quality_is_lipschitz_in_the_side(self, dimension, n_points, side, other, seed):
        units = np.random.default_rng(seed).random((n_points, dimension))
        slope = float(np.max(np.linalg.norm(units, axis=1))) / math.sqrt(dimension)
        draws = quality_draws(dimension, 500, seed)
        q, q_other = (coverage_quality(PointCloud(dimension, units * s), draws)
                      for s in (side, other))
        assert abs(q - q_other) <= slope * abs(side - other) + 1e-12

    def test_draws_are_those_of_coverage_quality(self):
        cloud = PointCloud(2, [[0.2, 0.7], [0.9, 0.1]])
        draws = quality_draws(2, 300, 6)
        expected = 1.0 - float(np.mean(cloud.nearest_distances(draws))) / math.sqrt(2)
        assert coverage_quality(cloud, draws) == expected


def mean_quality(nearest: np.ndarray, dimension: int) -> float:
    """1 - np.mean of the nearest distances / sqrt(d), from their squares."""
    return 1.0 - float(np.mean(np.sqrt(nearest))) / math.sqrt(dimension)


class TestBlockedPass:
    """The blocked nearest-distance pass has the bits of the per-point one."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(dimension=st.integers(1, 5), n_points=st.integers(1, 300),
           samples=st.sampled_from([1, 33, QUALITY_SAMPLES]),
           side=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2**31 - 1))
    # at, one below and one above each block end
    @example(dimension=1, n_points=31, samples=QUALITY_SAMPLES, side=1.0, seed=0)
    @example(dimension=2, n_points=32, samples=QUALITY_SAMPLES, side=0.3, seed=1)
    @example(dimension=3, n_points=33, samples=QUALITY_SAMPLES, side=0.7, seed=2)
    @example(dimension=4, n_points=63, samples=33, side=1.0, seed=3)
    @example(dimension=5, n_points=64, samples=QUALITY_SAMPLES, side=0.5, seed=4)
    @example(dimension=1, n_points=65, samples=QUALITY_SAMPLES, side=0.9, seed=5)
    @example(dimension=2, n_points=95, samples=1, side=0.2, seed=6)
    @example(dimension=3, n_points=96, samples=QUALITY_SAMPLES, side=1.0, seed=7)
    @example(dimension=2, n_points=97, samples=QUALITY_SAMPLES, side=0.4, seed=8)
    @example(dimension=4, n_points=128, samples=QUALITY_SAMPLES, side=0.6, seed=10)
    @example(dimension=5, n_points=129, samples=33, side=0.8, seed=9)
    def test_matches_the_per_point_pass(self, dimension, n_points, samples, side, seed):
        cloud = PointCloud(dimension, np.random.default_rng(seed).random((n_points, dimension)) * side)
        draws = quality_draws(dimension, samples, seed)
        floors, nearest = [], None
        for count, nearest in enumerate(reference_running_nearest(draws, cloud.points), 1):
            if count in floor_counts(n_points):
                floors.append(mean_quality(nearest, dimension))
        q = mean_quality(nearest, dimension)
        assert coverage_quality(cloud, draws).hex() == q.hex()
        assert cloud.nearest_distances(draws).tobytes() == np.sqrt(nearest).tobytes()
        # one ulp either side of each floor: the pass stops there exactly when
        # some floor lies above the bound
        for above in (math.nextafter(f, toward) for f in floors for toward in (-math.inf, math.inf)):
            expected = math.inf if any(f > above for f in floors) else q
            assert coverage_quality(cloud, draws, above=above).hex() == expected.hex()
        *_, gaps = reference_running_nearest(
            np.maximum(draws - side, 0.0), np.zeros((1, dimension))
        )
        assert subcube_quality_ceiling(draws, side).hex() == mean_quality(gaps, dimension).hex()


class TestPointCloud:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PointCloud(2, [[0.5, 1.2]])
        with pytest.raises(ValueError):
            PointCloud(2, [[-0.1, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PointCloud(1, [[bad]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PointCloud(2, [[0.5, 0.5], [0.2, bad]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(3, [[0.1, 0.2]])
        with pytest.raises(ValueError):
            PointCloud(0, [])


class TestNearestDistances:
    """The nearest-distance pass rejects what a KD-tree query rejects, for
    the cloud and in the ceiling."""

    CLOUD = PointCloud(2, [[0.2, 0.7], [0.9, 0.1]])

    @pytest.mark.parametrize("queries", [[[0.5, 0.5, 0.9]], [[0.5]]])
    def test_rejects_dimension_mismatch(self, queries):
        with pytest.raises(ValueError, match="do not match"):
            self.CLOUD.nearest_distances(queries)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_queries(self, bad):
        draws = quality_draws(2, 50, 1).copy()
        draws[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            self.CLOUD.nearest_distances(draws)
        with pytest.raises(ValueError, match="finite"):
            subcube_quality_ceiling(draws, 0.5)

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValueError, match="empty cloud"):
            PointCloud(2, []).nearest_distances([0.2, 0.7])

    def test_single_query_row(self):
        assert self.CLOUD.nearest_distances([0.2, 0.7]).tolist() == [0.0]
        far = PointCloud(2, self.CLOUD.points[1:]).nearest_distances([0.2, 0.7])
        assert far.tolist() == pytest.approx([math.hypot(0.7, 0.6)])


class TestQualityDraws:
    def test_seeded_draws_are_read_only(self):
        draws = quality_draws(2, 50, 1)
        assert not draws.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            draws[0, 0] = 0.5
        # the R_2 sequence, shifted: alpha = (1/phi, 1/phi^2) for the plastic
        # number phi (phi^3 = phi + 1), the shift a uniform draw from the seed
        phi = 1.324717957244746
        alpha = np.array([1.0 / phi, 1.0 / phi / phi])
        shift = np.random.default_rng(1).random(2)
        expected = (np.arange(1, 51)[:, None] * alpha + shift) % 1.0
        assert draws.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dimension=st.integers(1, 10), samples=st.integers(1, 3000),
           more=st.integers(1, 1000), seed=st.integers(0, 2**31 - 1))
    def test_draws_are_a_deterministic_prefix_in_the_unit_cube(self, dimension, samples, more, seed):
        draws = quality_draws(dimension, samples, seed).copy()
        assert draws.shape == (samples, dimension)
        assert ((draws >= 0.0) & (draws < 1.0)).all()
        assert quality_draws(dimension, samples + more, seed)[:samples].tobytes() == draws.tobytes()
        assert quality_draws(dimension, samples, seed + 1).tobytes() != draws.tobytes()
        assert quality_draws(dimension, samples, seed).tobytes() == draws.tobytes()

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
    def test_calibration_draws_are_accurate(self, dimension):
        # fixed 120-point clouds in sub-cubes of sides 0.3-1: the quality on
        # QUALITY_SAMPLES draws lies within 3e-3 of a 2^16-draw reference
        rng = np.random.default_rng(50 + dimension)
        for side in (0.3, 0.65, 1.0):
            cloud = PointCloud(dimension, rng.random((120, dimension)) * side)
            seed = int(rng.integers(2**31))
            reference = seeded_quality(cloud, 2**16, seed + 1)
            assert seeded_quality(cloud, QUALITY_SAMPLES, seed) == pytest.approx(reference, abs=3e-3)

    @pytest.mark.parametrize("seed", [np.random.default_rng(3), 3.0], ids=["generator", "float"])
    def test_only_integer_seeds(self, seed):
        quality_draws(2, 50, 3)
        with pytest.raises(TypeError):
            quality_draws(2, 50, seed)

    @pytest.mark.parametrize("dimension, samples, name", [
        (0, 5, "dimension"), (-1, 5, "dimension"), (2, 0, "samples"), (2, -3, "samples"),
    ])
    def test_sizes_below_one(self, dimension, samples, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            quality_draws(dimension, samples, 1)

    @pytest.mark.parametrize("samples", [2.5, 2.0, np.float64(3.0)], ids=["2.5", "2.0", "float64"])
    def test_only_integer_samples(self, samples):
        with pytest.raises(TypeError):
            quality_draws(2, samples, 1)


def test_coverage_does_not_load_scipy():
    script = (
        "import sys\n"
        "import fedpact.cli\n"
        "from fedpact.coverage import PointCloud, coverage_quality, quality_draws\n"
        "coverage_quality(PointCloud(2, [[0.3, 0.6]]), quality_draws(2, 100, 0))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), check=True)
    assert proc.stdout.strip() == "[]"
