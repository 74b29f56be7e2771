"""Seed derivation and counter-based random streams.

Every stochastic routine in the package takes an explicit 64-bit seed and
builds its generator through these helpers, so results are reproducible and
independent of execution order.

Substream keys reach Philox through `_KeySeed`, which returns the key
verbatim, so no OS entropy is drawn for the `SeedSequence` that
`Philox(key=...)` builds and discards; the streams are bit-identical.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK64 = (1 << 64) - 1
# Philox copies its counter: one read-only zero array spares converting 0 per call
_ZERO_COUNTER = np.zeros(4, np.uint64)
_ZERO_COUNTER.flags.writeable = False

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round (full 64-bit avalanche)."""
    x = (x + _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent child seed from (seed, index).

    The scrambling keeps child seeds far apart even for adjacent indices, so
    substreams keyed off them never collide with the parent's own xor-indexed
    permutation streams.
    """
    return splitmix64((seed & MASK64) ^ splitmix64(index & MASK64))


class _KeySeed(ISeedSequence):
    """Hands Philox the key words (key, 0), as `Philox(key=key)` stores them."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):  # Philox asks for (2, uint64)
        return (self.key, 0)  # Philox only indexes the words: no array to build


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for substream `index` of `seed`.

    Philox is keyed with seed xor index: distinct keys give statistically
    independent streams, so replicate-level work can run in any order.  Each
    call returns a fresh generator whose state (key, zero counter, empty
    buffer) and draws equal `Generator(Philox(key=(seed ^ index) & MASK64))`.
    """
    key = _KeySeed((seed ^ index) & MASK64)
    return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))
