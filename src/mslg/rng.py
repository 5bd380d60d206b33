"""Seeded random number generation.

One fixed algorithm: PCG64 behind numpy's Generator, seeded through
SeedSequence. numpy guarantees identical streams for a given seed across
platforms and releases, so a run is fully reproducible from the integer seed
recorded in its manifest. `Rng(seed, *key)` is a numpy `Generator` (draw with
numpy's own method names: `random`, `standard_normal`, `permutation`, ...)
addressed by the seed and a key (per role, epoch, ...) as a SeedSequence spawn
key; distinct keys give non-overlapping streams, and the empty key is the
seed's own stream.
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


class Rng(np.random.Generator):
    """PCG64 stream addressed by (seed, *key). Same address, same stream."""

    def __init__(self, seed: int, *key: int):
        ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
        super().__init__(np.random.PCG64(ss))

    # in the class's own dict, where the benchmark's tracer counts its calls
    permutation = np.random.Generator.permutation
