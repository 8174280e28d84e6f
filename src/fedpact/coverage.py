"""Data-coverage measurement on the unit hypercube.

A client's local dataset lives in the unit feature space [0, 1]^d.  How
much of that space the dataset "covers" is measured in two steps:

* radius coverage ``mu(A, eps)``: the measure of the unit cube that lies
  strictly within distance ``eps`` of at least one dataset point, i.e.
  the measure of the cube intersected with the union of open balls of
  radius ``eps`` around the points;
* coverage quality ``theta(A) = (1/sqrt(d)) * integral_0^sqrt(d) mu(A, eps) d(eps)``,
  a scalar in [0, 1] that serves as the client's hidden quality type.

The radius coverage is estimated by Monte Carlo (exact union-of-balls
volume is intractable beyond d = 3), and on those samples the integral
is exact.  A sample at nearest-point distance r is covered for every
eps > r; since r <= sqrt(d) on the unit cube, it contributes
sqrt(d) - r to the integral, so theta = 1 - mean(r) / sqrt(d), with each
r from one pass over the points (squares summed in coordinate order).

A cloud inside the sub-cube [0, s]^d is no nearer to a sample than the
sub-cube itself, so ``subcube_quality_ceiling`` bounds its quality from
above on the same samples; it runs the same pass over each sample's gaps
beyond the sub-cube, so it bounds the computed quality, rounding included.
A cloud is no farther from a sample than any subset of its points, so each
prefix of the cloud bounds its quality from below.  ``coverage_quality``
keeps a running minimum over the prefixes ending at ``QUALITY_PREFIXES``,
then over all points; the minimum is exact and the square root correctly
rounded, hence monotone, so a full pass gives the bits of one pass over
every point.  Given a band, it returns -inf when the ceiling at the cloud's
largest coordinate lies below it, and inf once a prefix's quality is above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .seeding import as_generator

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

    def nearest_distances(self, queries: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Euclidean distance from each query point to its nearest cloud point
        among ``rows`` (all points by default)."""
        if self.is_empty:
            raise ValueError("empty cloud has no nearest distances")
        return _nearest_distances(queries, self.points[rows])


def _nearest_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each query row to its nearest row of ``points`` (inf if none),
    each square summed over the coordinates in order: a subset is never nearer."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    points = np.asarray(points, dtype=float)
    if queries.ndim != 2 or queries.shape[1:] != points.shape[1:]:
        raise ValueError(f"queries {queries.shape} do not match points {points.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    first, *rest = np.ascontiguousarray(queries.T)
    nearest = np.full(len(queries), np.inf)  # squared distance to the nearest point so far
    squared, gap = np.empty(len(queries)), np.empty(len(queries))
    for head, *tail in points.tolist():
        np.subtract(first, head, out=squared)
        squared *= squared
        for column, coordinate in zip(rest, tail):
            np.subtract(column, coordinate, out=gap)
            squared += np.multiply(gap, gap, out=gap)
        np.minimum(nearest, squared, out=nearest)
    return np.sqrt(nearest)


def quality_draws(dimension: int, samples: int, seed: int | np.random.Generator) -> np.ndarray:
    """The ``samples`` uniform draws from [0, 1]^d that ``coverage_quality``
    integrates over for ``seed``.  The last integer seed's draws are kept and
    shared, read-only; a generator is drawn from afresh on every call."""
    if isinstance(seed, (int, np.integer)):
        return _seeded_draws(dimension, samples, seed)
    return as_generator(seed).random((samples, dimension))


@lru_cache(maxsize=1)
def _seeded_draws(dimension: int, samples: int, seed: int) -> np.ndarray:
    draws = as_generator(seed).random((samples, dimension))
    draws.setflags(write=False)
    return draws


def subcube_quality_ceiling(draws: np.ndarray, side: float) -> float:
    """Upper bound on ``coverage_quality`` over ``draws`` of any nonempty
    cloud inside [0, side]^d: 1 - mean distance to the sub-cube / sqrt(d)."""
    # a draw's distance to the sub-cube is that of its gaps beyond it to the origin
    gaps = np.maximum(draws - side, 0.0)
    distances = _nearest_distances(gaps, np.zeros((1, draws.shape[1])))
    return 1.0 - float(np.mean(distances)) / math.sqrt(draws.shape[1])


def coverage_quality(
    cloud: PointCloud,
    samples: int,
    seed: int | np.random.Generator,
    *,
    below: float = -math.inf,
    above: float = math.inf,
) -> float:
    """Normalized integral of the radius coverage over eps in [0, sqrt(d)].

    Exact on ``samples`` uniform draws from the unit cube:
    1 - mean nearest-point distance / sqrt(d).  Returns a value in
    [0, 1]; 0 for the empty cloud.  ``-inf`` instead when the ceiling at
    the cloud's largest coordinate is below ``below``, ``inf`` when a
    shorter prefix's quality (see ``QUALITY_PREFIXES``) exceeds ``above``.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if cloud.is_empty:
        return 0.0
    draws = quality_draws(cloud.dimension, samples, seed)
    if below > -math.inf and subcube_quality_ceiling(draws, float(cloud.points.max())) < below:
        return -math.inf
    nearest = np.full(samples, np.inf)
    start = 0
    for end in (*(end for end in QUALITY_PREFIXES if end < len(cloud)), len(cloud)):
        np.minimum(nearest, cloud.nearest_distances(draws, slice(start, end)), out=nearest)
        quality = 1.0 - float(np.mean(nearest)) / math.sqrt(cloud.dimension)
        if quality > above and end < len(cloud):
            return math.inf
        start = end
    return quality
