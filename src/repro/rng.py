"""The one sanctioned RNG construction point for the simulation domains.

Determinism is load-bearing here: byte-identical fault replay and the
metrics-derived Section IV numbers both assume that every random stream
in a simulation package flows from an explicit seed.  The
``determinism-rng`` lint rule therefore bans direct ``random`` /
``np.random`` construction inside sim domains; this module is the single
exemption and every generator is built through it.

* :func:`make_rng` — a seeded ``numpy`` generator (the workhorse);
* :func:`derive_seed` — fold a parent seed and a label into a stream seed
  so sub-components get decorrelated but reproducible streams;
* :func:`stable_bytes` — a deterministic byte string keyed by text (the
  bitstream payload stand-in and anything else needing stable opaque
  bytes);
* :func:`start_states` / :func:`reset_rng` — the streams ``make_rng``
  starts for many seeds, computed in one batch and replayed through one
  reused generator (a per-frame stream without a per-frame generator).
"""

from __future__ import annotations

import random  # reprolint: skip=determinism-rng
import zlib
from typing import Sequence

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """A seeded generator; the only legal way to get one in a sim domain.

    The underlying bit generator is numpy's default (PCG64), so streams
    are identical to ``np.random.default_rng(seed)`` — migrating legacy
    call sites to this helper changes no numbers.
    """
    return np.random.default_rng(seed)  # reprolint: skip=determinism-rng


def derive_seed(seed: int, label: str) -> int:
    """Fold ``label`` into ``seed``, giving a decorrelated stream seed.

    Useful when one configured seed must fan out to several independent
    components (sensor noise, fault jitter, scene content) without the
    streams shadowing each other.
    """
    return (seed * 0x9E3779B1 + zlib.crc32(label.encode())) % (2**63)


def stable_bytes(key: str, n: int) -> bytes:
    """``n`` deterministic bytes keyed by ``key``.

    Stream-compatible with ``random.Random(key).randbytes(n)``, which the
    bitstream payload generator historically used — existing CRCs and
    byte-identical replay logs are unchanged.
    """
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    return random.Random(key).randbytes(n)  # reprolint: skip=determinism-rng


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding step (pcg64.h, pcg_setseq_128_srandom_r).
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def start_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` pair ``make_rng(seed)`` starts in, per seed
    (every seed ``derive_seed`` returns, and any other below ``2**128``).

    SeedSequence's entropy hash runs once over every seed as uint32 numpy
    columns (its hash constants do not depend on the data); PCG64's two
    seeding steps then run in Python ints.  A generator handed one of
    these pairs by :func:`reset_rng` draws exactly what ``make_rng(seed)``
    would, at a fraction of a generator's construction cost.
    """
    if min(seeds, default=0) < 0 or max(seeds, default=0) >> 128:
        raise ValueError("seeds must be in [0, 2**128)")
    # SeedSequence's entropy is the seed's 32-bit words, least significant
    # first; zero words padding it to the pool size hash exactly like the
    # pool's own zero fill.
    big = np.array(seeds, dtype=object).reshape(-1)
    entropy = [((big >> (32 * k)) & _MASK32).astype(np.uint32) for k in range(_POOL_SIZE)]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # generate_state(4, uint64): eight uint32 words cycling the pool.
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> _XSHIFT)).tolist())
    # Little-endian uint64 pairs: (w0, w1) seed the state, (w2, w3) the
    # increment, each with its first uint64 as the high half.
    states = []
    for w in zip(*words):
        init_state = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        init_seq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        inc = ((init_seq << 1) | 1) & _MASK128
        states.append((((inc + init_state) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def reset_rng(rng: np.random.Generator, state: tuple[int, int]) -> np.random.Generator:
    """Restart ``rng`` at one of :func:`start_states`' pairs; returns it."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
