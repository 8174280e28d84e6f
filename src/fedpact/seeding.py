"""Deterministic random-stream plumbing.

A routine that draws from one stream takes it as a ``np.random.Generator``;
a routine that owns several (a round, a client dataset, a task) takes an
integer seed and derives each stream with ``child_rng``, by ``SeedSequence``
from the seed plus integer path keys instead of ad-hoc arithmetic on seeds.
Nothing reads the clock or OS entropy, so identical inputs always give
identical outputs.
"""
from __future__ import annotations

import numpy as np


def child_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (root_seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, path)]))
