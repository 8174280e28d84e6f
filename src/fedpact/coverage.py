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
r^2 the least, over the points, of the squared gaps summed in coordinate
order.  One pass finds them, ``_BLOCK`` points per numpy step: each block
gives a (points, samples) array of squared distances whose column minima
update a running minimum, exactly, so the bits do not depend on the blocks.
The samples are the R_d sequence (Roberts 2018) under a random shift
drawn from the seed (a Cranley-Patterson rotation), so each seed gives an
unbiased estimate; r is Lipschitz in the sample, and such a sequence
integrates it with far fewer samples than independent uniform draws.

A cloud inside the sub-cube [0, s]^d is no nearer to a sample than the
sub-cube itself, so ``subcube_quality_ceiling`` bounds its quality from
above on the same samples; it sums the squares of each sample's gaps beyond
the sub-cube in the same order, so it bounds the computed quality, rounding
included.  A cloud is no farther from a sample than any subset of its
points, so the points before each block end bound its quality from below.
``coverage_quality`` checks both bounds against its band: the ceiling before
its pass, and the floor at every block end but the last.  The square root is
correctly rounded, hence monotone, so each floor and the quality have the
bits of a pass over just those points.  The draws are the caller's:
``quality_draws`` makes them from an integer seed, and a caller that measures
many clouds, as calibration does, makes them once and passes them in.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

_BLOCK = 32  # cloud points per numpy step of the nearest-distance pass


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
        *_, (_, nearest) = _running_nearest(queries, self.points)
        return np.sqrt(nearest)


def _running_nearest(
    queries: np.ndarray, points: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(count, nearest)`` after every ``_BLOCK`` rows of ``points``
    and after the last: each query row's squared distance (summed in coordinate
    order) to its nearest of the first ``count`` rows, one array updated in place."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    points = np.asarray(points, dtype=float)
    if queries.ndim != 2 or queries.shape[1:] != points.shape[1:]:
        raise ValueError(f"queries {queries.shape} do not match points {points.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    first, *rest = np.ascontiguousarray(queries.T)
    nearest = np.full(len(queries), np.inf)
    squared_rows, gap_rows = np.empty((2, min(_BLOCK, len(points)), len(queries)))
    for start in range(0, len(points), _BLOCK):
        block = points[start : start + _BLOCK]
        squared, gap = squared_rows[: len(block)], gap_rows[: len(block)]
        head, *tail = block.T[:, :, None]  # each coordinate as (b, 1)
        np.subtract(first, head, out=squared)
        squared *= squared
        for column, coordinate in zip(rest, tail):
            np.subtract(column, coordinate, out=gap)
            squared += np.multiply(gap, gap, out=gap)
        np.minimum(nearest, squared.min(axis=0), out=nearest)
        yield start + len(block), nearest


def _quality(nearest: np.ndarray, dimension: int) -> float:
    """1 - mean nearest distance / sqrt(d), from the squared distances; the
    mean is ``np.mean``'s own sum and divide."""
    return 1.0 - float(np.sqrt(nearest).sum()) / len(nearest) / math.sqrt(dimension)


def quality_draws(dimension: int, samples: int, seed: int) -> np.ndarray:
    """``samples`` read-only draws from [0, 1)^d for ``coverage_quality``:
    the R_d sequence ``(shift + n * alpha) mod 1`` for n = 1..samples,
    shifted by a uniform ``shift`` drawn from ``seed``.  An argument that is
    not an integer raises ``TypeError``, a size below 1 ``ValueError``."""
    for name, size in (("dimension", dimension), ("samples", samples)):
        if operator.index(size) < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
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
    if not np.isfinite(draws).all():
        raise ValueError("draws must be finite")
    # a draw's distance to the sub-cube is that of its gaps beyond it to the origin
    first, *rest = np.maximum(draws - side, 0.0).T
    squared = first * first
    for gap in rest:
        squared += gap * gap
    return _quality(squared, draws.shape[1])


def coverage_quality(
    cloud: PointCloud,
    draws: np.ndarray,
    *,
    below: float = -math.inf,
    above: float = math.inf,
) -> float:
    """Normalized integral of the radius coverage over eps in [0, sqrt(d)].

    Exact on ``draws``, the (n, d) samples of ``quality_draws``:
    1 - mean nearest-point distance / sqrt(d).  Returns a value in [0, 1];
    0 for the empty cloud.  ``-inf`` instead when the ceiling at the
    cloud's largest coordinate is below ``below``, ``inf`` when the floor at
    a block end of the pass, short of the last, exceeds ``above``.
    """
    d = cloud.dimension
    if draws.shape[1:] != (d,) or not len(draws):
        raise ValueError(f"draws {draws.shape} have no rows or do not match dimension {d}")
    if cloud.is_empty:
        return 0.0
    if below > -math.inf and subcube_quality_ceiling(draws, float(cloud.points.max())) < below:
        return -math.inf
    for count, nearest in _running_nearest(draws, cloud.points):
        if count < len(cloud) and _quality(nearest, d) > above:
            return math.inf
    return _quality(nearest, d)
