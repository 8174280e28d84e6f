"""Data-coverage measurement on the unit hypercube.

A client's local dataset lives in the unit feature space [0, 1]^d.  How
much of that space the dataset "covers" is measured in two steps:

* radius coverage ``mu(A, eps)``: the measure of the unit cube that lies
  strictly within distance ``eps`` of at least one dataset point, i.e.
  the measure of the cube intersected with the union of open balls of
  radius ``eps`` around the points;
* coverage quality ``theta(A) = (1/sqrt(d)) * integral_0^sqrt(d) mu(A, eps) d(eps)``,
  a scalar in [0, 1] that serves as the client's hidden quality type.

The radius coverage is estimated by randomized quasi-Monte Carlo (exact
union-of-balls volume is intractable beyond d = 3), and on those samples
the integral is exact.  A sample at nearest-point distance r is covered
for every eps > r; since r <= sqrt(d) on the unit cube, it contributes
sqrt(d) - r to the integral, so theta = 1 - mean(r) / sqrt(d), with each
r from one pass over the points (squares summed in coordinate order).
The samples are the R_d sequence (Roberts 2018) under a random shift
drawn from the seed (a Cranley-Patterson rotation), so each seed gives an
unbiased estimate; r is Lipschitz in the sample, and such a sequence
integrates it with far fewer samples than independent uniform draws.

A cloud inside the sub-cube [0, s]^d is no nearer to a sample than the
sub-cube itself, so ``subcube_quality_ceiling`` bounds its quality from
above on the same samples; it runs the same pass over each sample's gaps
beyond the sub-cube, so it bounds the computed quality, rounding included.
A cloud is no farther from a sample than any subset of its points, so each
prefix of the cloud bounds its quality from below.  ``coverage_quality``
makes one pass, a running minimum of squared distances, and checks both
bounds against its band, the floor at the prefix ends ``QUALITY_PREFIXES``;
the square root is correctly rounded, hence monotone, so each floor and the
quality have the bits of a pass over just those points.  Seeds are integers
only; the last seed's samples are memoised.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

QUALITY_PREFIXES = (8, 16, 32, 64)  # prefix ends at which coverage_quality may stop early


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite sample set in [0, 1]^d.  May be empty."""

    dimension: int
    points: np.ndarray

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.dimension)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(
                f"points must have shape (n, {self.dimension}), got {pts.shape}"
            )
        if not ((pts >= 0.0) & (pts <= 1.0)).all():  # NaN fails both
            raise ValueError("every coordinate must lie in [0, 1]")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def nearest_distances(self, queries: np.ndarray) -> np.ndarray:
        """Euclidean distance from each query point to its nearest cloud point."""
        if self.is_empty:
            raise ValueError("empty cloud has no nearest distances")
        *_, nearest = _running_nearest(queries, self.points)
        return np.sqrt(nearest)


def _running_nearest(queries: np.ndarray, points: np.ndarray) -> Iterator[np.ndarray]:
    """After each row of ``points``, yield (in one array, updated in place) each
    query row's squared distance to its nearest row so far, summed in order."""
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


def _quality(nearest: np.ndarray, dimension: int) -> float:
    """1 - mean nearest distance / sqrt(d), from the squared distances."""
    return 1.0 - float(np.mean(np.sqrt(nearest))) / math.sqrt(dimension)


@lru_cache(maxsize=1, typed=True)
def quality_draws(dimension: int, samples: int, seed: int) -> np.ndarray:
    """The ``samples`` draws from [0, 1)^d that ``coverage_quality``
    integrates over for the integer ``seed``: the R_d sequence
    ``(shift + n * alpha) mod 1`` for n = 1..samples, shifted by a uniform
    ``shift`` drawn from the seed; any other seed raises ``TypeError``.
    The last call's draws are kept and shared, read-only."""
    shift = np.random.default_rng(np.random.SeedSequence(seed)).random(dimension)
    steps = np.arange(1.0, samples + 1.0)[:, None]
    draws = (steps * _rd_alpha(dimension) + shift) % 1.0
    draws.setflags(write=False)
    return draws


def _rd_alpha(dimension: int) -> np.ndarray:
    """alpha_k = phi^-k, k = 1..d, where phi > 1 solves x^(d+1) = x + 1.

    Only +, -, * and / on Python floats, so the bits do not depend on the
    platform's libm.  Newton's method starts above the root at
    1 + 2 / (d + 1) and runs a fixed 16 steps: for every d up to 2,000 it
    settles by step 7 or, for a few d (8 among them), alternates between
    two neighbouring floats, so the count fixes which one is returned.
    """
    phi = 1.0 + 2.0 / (dimension + 1)
    for _ in range(16):
        power = 1.0  # phi^d
        for _ in range(dimension):
            power *= phi
        phi -= (power * phi - phi - 1.0) / ((dimension + 1) * power - 1.0)
    alpha = [1.0]
    for _ in range(dimension):
        alpha.append(alpha[-1] / phi)
    return np.array(alpha[1:])


def subcube_quality_ceiling(draws: np.ndarray, side: float) -> float:
    """Upper bound on ``coverage_quality`` over ``draws`` of any nonempty
    cloud inside [0, side]^d: 1 - mean distance to the sub-cube / sqrt(d)."""
    # a draw's distance to the sub-cube is that of its gaps beyond it to the origin
    gaps = np.maximum(draws - side, 0.0)
    *_, nearest = _running_nearest(gaps, np.zeros((1, draws.shape[1])))
    return _quality(nearest, draws.shape[1])


def coverage_quality(
    cloud: PointCloud,
    samples: int,
    seed: int,
    *,
    below: float = -math.inf,
    above: float = math.inf,
) -> float:
    """Normalized integral of the radius coverage over eps in [0, sqrt(d)].

    Exact on the ``samples`` draws of ``quality_draws`` for the integer
    ``seed``: 1 - mean nearest-point distance / sqrt(d).  Returns a value
    in [0, 1]; 0 for the empty cloud.  ``-inf`` instead when the ceiling at
    the cloud's largest coordinate is below ``below``, ``inf`` when a
    shorter prefix's quality (see ``QUALITY_PREFIXES``) exceeds ``above``.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    draws = quality_draws(cloud.dimension, samples, seed)
    if cloud.is_empty:
        return 0.0
    if below > -math.inf and subcube_quality_ceiling(draws, float(cloud.points.max())) < below:
        return -math.inf
    d = cloud.dimension
    for count, nearest in enumerate(_running_nearest(draws, cloud.points), 1):
        if count in QUALITY_PREFIXES and count < len(cloud) and _quality(nearest, d) > above:
            return math.inf
    return _quality(nearest, d)
