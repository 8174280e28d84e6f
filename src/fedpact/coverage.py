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
sqrt(d) - r to the integral, so theta = 1 - mean(r) / sqrt(d).  Each
sample's nearest distance comes from one KD-tree query.

Two bounds hold on the same samples with no tree.  A cloud inside the
sub-cube [0, s]^d is no nearer to a sample than the sub-cube itself, so
``subcube_quality_ceiling`` bounds its quality from above.  A cloud that
contains some points is no farther from a sample than the nearest of them,
so ``subset_quality_floor`` bounds its quality from below; it sums each
distance's squared coordinates in order before the square root, as the
KD-tree does, so the floor is a bound on the computed quality too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .seeding import as_generator

if TYPE_CHECKING:
    from scipy.spatial import cKDTree


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
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("every coordinate must lie in [0, 1]")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @cached_property
    def _tree(self) -> cKDTree:
        # imported here: scipy.spatial costs most of the package's import
        # time, and only coverage measurement needs it
        from scipy.spatial import cKDTree

        return cKDTree(self.points)

    def nearest_distances(self, queries: np.ndarray) -> np.ndarray:
        """Euclidean distance from each query point to its nearest cloud point."""
        if self.is_empty:
            raise ValueError("empty cloud has no nearest distances")
        dist, _ = self._tree.query(np.asarray(queries, dtype=float), k=1)
        return np.atleast_1d(dist)


def quality_draws(dimension: int, samples: int, seed: int | np.random.Generator) -> np.ndarray:
    """The ``samples`` uniform draws from [0, 1]^d that ``coverage_quality``
    integrates over for ``seed``."""
    return as_generator(seed).random((samples, dimension))


def subcube_quality_ceiling(draws: np.ndarray, side: float) -> float:
    """Upper bound on ``coverage_quality`` over ``draws`` of any nonempty
    cloud inside [0, side]^d: 1 - mean distance to the sub-cube / sqrt(d)."""
    gaps = np.maximum(draws - side, 0.0)
    distances = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
    return 1.0 - float(np.mean(distances)) / math.sqrt(draws.shape[1])


def subset_quality_floor(draws: np.ndarray, points: np.ndarray) -> float:
    """Lower bound on ``coverage_quality`` over ``draws`` of any cloud that
    contains ``points``: 1 - mean distance to the nearest of them / sqrt(d)."""
    first, *rest = np.ascontiguousarray(draws.T)
    nearest = np.full(len(draws), np.inf)  # squared distance to the nearest point so far
    squared, gap = np.empty(len(draws)), np.empty(len(draws))
    # each squared distance is summed over the coordinates in order, as the KD-tree sums it
    for head, *tail in np.asarray(points, dtype=float).tolist():
        np.subtract(first, head, out=squared)
        squared *= squared
        for column, coordinate in zip(rest, tail):
            np.subtract(column, coordinate, out=gap)
            squared += np.multiply(gap, gap, out=gap)
        np.minimum(nearest, squared, out=nearest)
    return 1.0 - float(np.mean(np.sqrt(nearest))) / math.sqrt(draws.shape[1])


def coverage_quality(
    cloud: PointCloud,
    samples: int,
    seed: int | np.random.Generator,
) -> float:
    """Normalized integral of the radius coverage over eps in [0, sqrt(d)].

    Exact on ``samples`` uniform draws from the unit cube:
    1 - mean nearest-point distance / sqrt(d).  Returns a value in
    [0, 1]; 0 for the empty cloud.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if cloud.is_empty:
        return 0.0
    draws = quality_draws(cloud.dimension, samples, seed)
    return 1.0 - float(np.mean(cloud.nearest_distances(draws))) / math.sqrt(cloud.dimension)
