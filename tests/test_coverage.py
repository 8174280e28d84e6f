"""Coverage estimation against analytic oracles.

Closed-form values used below (one point in [0, 1]):
  point at 0.5:  mu(eps) = min(2*eps, 1), so the quality integral is
                 int_0^0.5 2e de + int_0.5^1 1 de = 0.25 + 0.5 = 0.75
  point at 0.0:  mu(eps) = min(eps, 1),  quality = int_0^1 e de = 0.5
"""

import numpy as np
import pytest

from fedpact.coverage import PointCloud, coverage_quality


def cloud1d(*xs: float) -> PointCloud:
    return PointCloud(1, [[x] for x in xs])


class TestCoverageQuality:
    def test_empty_cloud(self):
        assert coverage_quality(PointCloud(2, []), 16, 100, seed=0) == 0.0

    def test_midpoint_oracle(self):
        theta = coverage_quality(cloud1d(0.5), 64, 100_000, seed=8)
        assert theta == pytest.approx(0.75, abs=0.01)

    def test_endpoint_oracle(self):
        theta = coverage_quality(cloud1d(0.0), 64, 100_000, seed=9)
        assert theta == pytest.approx(0.5, abs=0.01)

    def test_dense_grid_near_one(self):
        grid = cloud1d(*np.linspace(0, 1, 1000))
        assert coverage_quality(grid, 64, 20_000, seed=10) >= 0.99

    def test_monotone_under_supersets(self):
        rng = np.random.default_rng(11)
        base = rng.random((4, 2))
        extra = rng.random((10, 2))
        small = PointCloud(2, base)
        large = PointCloud(2, np.vstack([base, extra]))
        q_small = coverage_quality(small, 32, 4000, seed=12)
        q_large = coverage_quality(large, 32, 4000, seed=12)
        assert q_large >= q_small

    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            coverage_quality(cloud1d(0.5), 1, 100, seed=0)

    def test_deterministic_per_seed(self):
        a = coverage_quality(cloud1d(0.4, 0.9), 16, 2000, seed=5)
        b = coverage_quality(cloud1d(0.4, 0.9), 16, 2000, seed=5)
        assert a == b

    def test_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            cloud = PointCloud(2, rng.random((3, 2)))
            assert 0.0 <= coverage_quality(cloud, 16, 500, seed=14) <= 1.0


class TestPointCloud:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PointCloud(2, [[0.5, 1.2]])
        with pytest.raises(ValueError):
            PointCloud(2, [[-0.1, 0.5]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(3, [[0.1, 0.2]])
        with pytest.raises(ValueError):
            PointCloud(0, [])
