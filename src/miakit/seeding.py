"""Item-stream seeds, hashed in blocks.

``StreamFactory.item_stream`` seeds item k's PCG64 generator from
``SeedSequence((rep_seed, 1_000_000 + k))``.  Building that SeedSequence and
calling its ``generate_state`` costs about 15 us, more than the rest of an
item's set-up.  :class:`ItemSeeds` computes the same seeds for a run of
consecutive ids with numpy's own SeedSequence arithmetic on uint32 arrays,
and hands each one to PCG64 through :class:`PrecomputedSeed`.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe) for a pool of four 32-bit words, as integer constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_HASH_A = tuple(0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _MASK32 for k in range(17))
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(9))
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _uint32_words(n: int) -> list[int]:
    """``n >= 0`` as little-endian 32-bit words, the way SeedSequence splits
    an integer of its entropy."""
    words = []
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words or [0]


def pcg64_seeds(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for many entropies.

    ``entropy`` holds one uint32 array per entropy word (at most four), with
    one element per sequence; row i of the result is sequence i's seed.
    Every step is numpy's, on uint32 arrays that wrap as its C code does.
    """
    u32 = np.uint32
    a = iter(_HASH_A)
    const = u32(next(a))

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = u32(next(a))
        value = value * const
        return value ^ (value >> u32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = []
    for i in range(8):
        value = (pool[i % _POOL_SIZE] ^ u32(_HASH_B[i])) * u32(_HASH_B[i + 1])
        words.append((value ^ (value >> u32(16))).astype(np.uint64))
    pairs = [words[i] | (words[i + 1] << np.uint64(32)) for i in range(0, 8, 2)]
    return np.stack(pairs, axis=1)


class PrecomputedSeed(ISeedSequence):
    """A PCG64 seed computed ahead: what ``generate_state(4, np.uint64)`` of
    the seed sequence it stands for returns."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed only serves PCG64")
        return self._state


class ItemSeeds:
    """Seeds of one replication's item streams, hashed in blocks.

    Items ask for their streams in id order.  The first ``SCALAR`` requests
    are left to SeedSequence, so a replication with few items pays nothing
    extra; after that the seeds of the next ids are hashed together by
    :func:`pcg64_seeds`, in blocks that double up to ``MAX_BLOCK``.
    """

    SCALAR = 32
    FIRST_BLOCK = 64
    MAX_BLOCK = 1024

    def __init__(self, rep_seed: int):
        self._rep_words = _uint32_words(rep_seed)
        self._requests = 0
        self._start = 0
        self._block = np.empty((0, 4), dtype=np.uint64)

    def get(self, stream_id: int) -> PrecomputedSeed | None:
        """``stream_id``'s precomputed seed, or None to seed it directly."""
        self._requests += 1
        offset = stream_id - self._start
        if 0 <= offset < len(self._block):
            return PrecomputedSeed(self._block[offset])
        size = min(2 * len(self._block) or self.FIRST_BLOCK, self.MAX_BLOCK)
        if self._requests <= self.SCALAR or stream_id + size > _MASK32:
            return None
        ids = np.arange(stream_id, stream_id + size, dtype=np.uint32)
        words = [np.full(size, w, dtype=np.uint32) for w in self._rep_words]
        self._block = pcg64_seeds(words + [ids])
        self._start = stream_id
        return PrecomputedSeed(self._block[0])
