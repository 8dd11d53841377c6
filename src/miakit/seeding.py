"""Stream seeds, hashed in blocks.

``StreamFactory`` seeds stream ``i`` of a replication with PCG64 from
``SeedSequence((rep_seed, i))``: the named streams (arrivals, attacker,
defender) and one stream per work item, ``i = 1_000_000 + item_id``.
Building that SeedSequence and calling its ``generate_state`` costs about
17 us per stream.  :class:`ItemSeeds` computes the same seeds for many ids
at once with numpy's own SeedSequence arithmetic on uint32 arrays, and
hands each one to PCG64 through :class:`PrecomputedSeed`.

:func:`replication_seeds` goes one step further and hashes a block of
:data:`REP_BLOCK` replications at once: their replication seeds
``SeedSequence((base_seed, k)).generate_state(1, np.uint64)``, then each
one's first block of stream seeds.  The last block computed is cached, so
the attack and baseline runs of replication k hash it once between them.
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .kernel import StreamFactory

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe) for a pool of four 32-bit words, as integer constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_HASH_A = tuple(0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _MASK32 for k in range(17))
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(9))
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# The same constants as uint32 columns, one row per pool or output word.
_A = np.array(_HASH_A, dtype=np.uint32)[:, None]
_B = np.array(_HASH_B, dtype=np.uint32)[:, None]
_U16 = np.uint32(16)
_L = np.uint32(_MIX_MULT_L)
_R = np.uint32(_MIX_MULT_R)


def _mix_constants(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants that mix pool word ``src`` into each other word,
    in SeedSequence's call order; ``src``'s own row is a zero placeholder."""
    xor, mult = np.zeros((2, _POOL_SIZE, 1), dtype=np.uint32)
    k = _POOL_SIZE + 3 * src
    for dst in range(_POOL_SIZE):
        if dst != src:
            xor[dst], mult[dst] = _HASH_A[k], _HASH_A[k + 1]
            k += 1
    return xor, mult


_MIX = [_mix_constants(src) for src in range(_POOL_SIZE)]

# The streams every replication asks for first, and the stream id of item 1.
NAMED = (StreamFactory.ARRIVALS, StreamFactory.ATTACKER, StreamFactory.DEFENDER)
FIRST_ITEM = StreamFactory._ITEM_BASE + 1

# Replications whose seeds :func:`replication_seeds` hashes together; a power
# of two, so that no block straddles 2**32 (past it an index is two words).
# A block of 16 holds 34 KB of seeds and its hash peaks at about 140 KB;
# a larger one saves a few us per replication for proportionally more.
REP_BLOCK = 16


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
    one element per sequence; row i of the result is sequence i's seed, and
    every row is C-contiguous (PCG64 reads a seed's memory directly).  Each
    step is numpy's, on uint32 arrays that wrap as its C code does; the four
    pool words and the eight output words each go through one array.
    """
    pool = np.zeros((_POOL_SIZE, len(entropy[0])), dtype=np.uint32)
    pool[: len(entropy)] = entropy
    pool ^= _A[:_POOL_SIZE]
    pool *= _A[1 : _POOL_SIZE + 1]
    pool ^= pool >> _U16
    for src, (xor, mult) in enumerate(_MIX):
        # Every word is mixed with a hash of word src; src's own row is then
        # put back, as SeedSequence never mixes a word into itself.
        kept = pool[src].copy()
        hashed = pool[src] ^ xor
        hashed *= mult
        hashed ^= hashed >> _U16
        pool *= _L
        hashed *= _R
        pool -= hashed
        pool ^= pool >> _U16
        pool[src] = kept
    words = np.concatenate((pool, pool))
    words ^= _B[:8]
    words *= _B[1:]
    words ^= words >> _U16
    # A seed's eight words lie in memory as its four uint64 words, as in
    # SeedSequence's own ``state.view(np.uint64)``; no wider copy is made.
    seeds = np.empty((pool.shape[1], 4), dtype=np.uint64)
    seeds.view(np.uint32)[:] = words.T
    return seeds


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
    """Seeds of one replication's streams, hashed in blocks.

    It starts with one block: the :data:`NAMED` streams and the
    ``FIRST_BLOCK`` item streams from :data:`FIRST_ITEM` on.  Items ask for
    their streams in id order; an item id past the current block starts the
    next one there, twice as long, up to ``MAX_BLOCK``.  Any other id (below
    the items and not named, or one whose block would pass 2**32) gets
    ``None`` and is seeded directly.
    """

    FIRST_BLOCK = 64
    MAX_BLOCK = 1024

    def __init__(self, rep_seed: int, first_rows: np.ndarray | None = None):
        """``first_rows``, when given, are the first block's seeds, one per
        id of :data:`FIRST_IDS` (see :func:`first_block_rows`)."""
        self._rep_words = _uint32_words(rep_seed)
        rows = self._hash(FIRST_IDS) if first_rows is None else first_rows
        self._named = dict(zip(NAMED, rows))
        self._start = FIRST_ITEM
        self._block = rows[len(NAMED) :]

    def _hash(self, ids: np.ndarray) -> np.ndarray:
        words = [np.full(len(ids), w, dtype=np.uint32) for w in self._rep_words]
        return pcg64_seeds(words + [ids])

    def get(self, stream_id: int) -> PrecomputedSeed | None:
        """``stream_id``'s precomputed seed, or None to seed it directly."""
        offset = stream_id - self._start
        if 0 <= offset < len(self._block):
            return PrecomputedSeed(self._block[offset])
        row = self._named.get(stream_id)
        if row is not None:
            return PrecomputedSeed(row)
        size = min(2 * len(self._block), self.MAX_BLOCK)
        if stream_id < FIRST_ITEM or stream_id + size > _MASK32:
            return None
        self._block = self._hash(np.arange(stream_id, stream_id + size, dtype=np.uint32))
        self._start = stream_id
        return PrecomputedSeed(self._block[0])


# The stream ids of an :class:`ItemSeeds` first block, in row order.
FIRST_IDS = np.concatenate(
    (
        np.array(NAMED, dtype=np.uint32),
        np.arange(FIRST_ITEM, FIRST_ITEM + ItemSeeds.FIRST_BLOCK, dtype=np.uint32),
    )
)


def first_block_rows(rep_seeds: np.ndarray) -> np.ndarray:
    """The first-block seeds of many replication seeds (uint64), hashed in
    one pass: ``len(FIRST_IDS)`` rows per seed, in :data:`FIRST_IDS` order."""
    ids = np.tile(FIRST_IDS, len(rep_seeds))
    rep_seeds = np.repeat(rep_seeds, len(FIRST_IDS))
    low = (rep_seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (rep_seeds >> np.uint64(32)).astype(np.uint32)
    # A seed below 2**32 is one entropy word, so the stream id is the second
    # word, not the third; SeedSequence hashes an absent word as 0.
    wide = high != 0
    return pcg64_seeds([low, np.where(wide, high, ids), np.where(wide, ids, 0)])


@functools.lru_cache(maxsize=1)
def _replication_block(base_seed: int, block: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The :data:`REP_BLOCK` replications of ``base_seed`` from ``block *
    REP_BLOCK`` on: their seeds, and their first-block rows (read-only,
    ``len(FIRST_IDS)`` per replication)."""
    first = block * REP_BLOCK
    indices = np.arange(first, first + REP_BLOCK, dtype=np.uint32)
    words = [np.full(REP_BLOCK, w, dtype=np.uint32) for w in _uint32_words(base_seed)]
    rep_seeds = pcg64_seeds(words + [indices])[:, 0]
    rows = first_block_rows(rep_seeds)
    rows.flags.writeable = False
    return tuple(rep_seeds.tolist()), rows


def replication_seeds(base_seed: int, replication: int) -> tuple[int, ItemSeeds]:
    """Replication ``replication``'s seed, ``SeedSequence((base_seed,
    replication)).generate_state(1, np.uint64)[0]``, and its stream seeds.

    Both come from the cached block of :data:`REP_BLOCK` replications when
    ``(base_seed, replication)`` fits the pool of four words with a one-word
    index; otherwise they are computed for this replication alone.
    """
    if 0 <= replication <= _MASK32 and 0 <= base_seed < 1 << 96:
        block, offset = divmod(replication, REP_BLOCK)
        rep_seeds, rows = _replication_block(base_seed, block)
        n = len(FIRST_IDS)
        return rep_seeds[offset], ItemSeeds(rep_seeds[offset], rows[offset * n : (offset + 1) * n])
    ss = np.random.SeedSequence((base_seed, replication))
    rep_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
    return rep_seed, ItemSeeds(rep_seed)
