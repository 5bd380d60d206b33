"""Seeded random number generation.

One fixed algorithm: PCG64 behind numpy's Generator, seeded through
SeedSequence. numpy guarantees identical streams for a given seed across
platforms and releases, so a run is fully reproducible from the integer seed
recorded in its manifest. `Rng(seed, *key)` addresses one stream by the seed
and a key (per role, epoch, ...) as a SeedSequence spawn key; distinct keys
give non-overlapping streams, and the empty key is the seed's own stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Rng"]

# the first key of every stream drawn; gen and train may share a seed, so all differ
ROLE_INIT = 0      # train: weight init
ROLE_TRAIN = 1     # train: batch order, Rng(seed, ROLE_TRAIN, epoch)
ROLE_META = 2      # train: meta batches, Rng(seed, ROLE_META, epoch, wrap)
GEN_DATA = 10      # gen: the blobs
GEN_SPLIT = 11     # gen: the train/meta/test split
GEN_NOISE = 12     # gen: uniform noise
PROBE_INIT = 101   # gen: the feature-dependent noise probe's init
PROBE_ORDER = 102  # gen: the noise probe's batch orders


class Rng:
    """PCG64 stream addressed by (seed, *key). Same address, same stream."""

    def __init__(self, seed: int, *key: int):
        ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, size=None):
        """Draws in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draws."""
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, a, size=None, replace: bool = True):
        return self._gen.choice(a, size=size, replace=replace)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)
