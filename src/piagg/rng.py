"""Deterministic 64-bit PRNG used by every stochastic routine in the package.

The generator is xoshiro256** seeded through splitmix64, implemented directly
so that identical seeds give identical streams on any platform or Python
build. All helpers that need randomness take an explicit integer seed and
construct their own generator, so concurrent callers never share state.

Every draw method returns the one-output-at-a-time stream bit for bit and
leaves the same final state. Draws of at least ``_CROSSOVER`` outputs come
from lanes of ``_LANE`` steps, each started one jump (a 256 x 256 bit
matrix over GF(2), built on first use) past the one before and all stepped
together in NumPy uint64 arithmetic.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import check_args

_MASK64 = (1 << 64) - 1

# Weyl-sequence increment of splitmix64; also used to mix replication
# indices into a base seed.
MIX_CONSTANT = 0x9E3779B97F4A7C15

# Outputs per lane, and the smallest draw taken from lanes (measured:
# below it, stepping one output at a time in Python is faster).
_LANE = 128
_CROSSOVER = 1024


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + MIX_CONSTANT) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Derive an independent per-task seed from a base seed and an index.

    The index is folded in with a fixed 64-bit constant before one
    splitmix64 step, so consecutive indices give unrelated streams.
    """
    check_args(base_seed=base_seed, index=index)
    mixed = (int(base_seed) ^ ((int(index) + 1) * MIX_CONSTANT)) & _MASK64
    _, out = splitmix64(mixed)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator with splitmix64 seeding.

    The four state words come from four consecutive splitmix64 outputs of
    the seed, the reference seeding for this family. The output mix is a
    bijection fixing 0 and the four states differ, so at most one word is 0.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_gauss_cache")

    def __init__(self, seed: int):
        state = int(seed) & _MASK64
        words = []
        for _ in range(4):
            state, w = splitmix64(state)
            words.append(w)
        self._s0, self._s1, self._s2, self._s3 = words
        self._gauss_cache: float | None = None

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        check_args(size=size)
        return low + (high - low) * _units(self, size)

    def normal(self, size: int) -> np.ndarray:
        """Standard normal draws via Box-Muller (pairs cached)."""
        check_args(size=size)
        out = np.empty(size, dtype=np.float64)
        head = int(size > 0 and self._gauss_cache is not None)
        if head:
            out[0], self._gauss_cache = self._gauss_cache, None
        u = _units(self, (size - head + 1) // 2 * 2)
        u1, u2 = u[0::2], u[1::2]
        u1[u1 <= 0.0] = 2.0 ** -53
        # math's log, cos and sin: NumPy's own can differ in the last bit
        r = np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
        theta = (2.0 * math.pi * u2).tolist()
        z = (r * [list(map(math.cos, theta)), list(map(math.sin, theta))]).T.ravel()
        out[head:] = z[:size - head]
        if (size - head) % 2:
            self._gauss_cache = float(z[-1])
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        check_args(size=n)
        idx = list(range(n))
        if n > 1:
            js = (_units(self, n - 1) * np.arange(n, 1, -1)).astype(np.int64).tolist()
            for i, j in zip(range(n - 1, 0, -1), js):
                idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)

    def choice_with_replacement(self, cum_probs: np.ndarray, size: int) -> np.ndarray:
        """Draw indices by inverting a cumulative probability vector."""
        check_args(size=size)
        k = np.searchsorted(cum_probs, _units(self, size), side="right")
        return np.minimum(k, len(cum_probs) - 1).astype(np.int64)


def _lockstep(s: np.ndarray, rows: np.ndarray) -> None:
    """Step the (4, k) lane states ``s`` in place once per row of ``rows``,
    writing each pre-step s1 word into that row."""
    (s0s1, s2s3, s3s2), (s1, s2, s3) = (s[0:2], s[2:4], s[3:1:-1]), s[1:]
    t = np.empty(s.shape[1], dtype=np.uint64)
    for row in rows:
        row[...] = s1
        np.left_shift(s1, 17, out=t)
        np.bitwise_xor(s2s3, s0s1, out=s2s3)   # s2 ^= s0; s3 ^= s1
        np.bitwise_xor(s0s1, s3s2, out=s0s1)   # s0 ^= s3; s1 ^= s2
        np.bitwise_xor(s2, t, out=s2)
        np.right_shift(s3, 19, out=t)
        np.left_shift(s3, 45, out=s3)
        np.bitwise_or(s3, t, out=s3)


@functools.cache
def _jump_columns() -> np.ndarray:
    """The jump by _LANE steps as a 4 x 256 bit matrix: column b is the
    state reached from the state holding only bit b % 64 of word b // 64."""
    one_bit = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8")
    s = np.ascontiguousarray(one_bit.T, dtype=np.uint64)
    _lockstep(s, np.empty((_LANE, 256), dtype=np.uint64))
    s.setflags(write=False)
    return s


def _units(gen: Rng, n: int) -> np.ndarray:
    """The next ``n`` values of ``gen.random()``; from lanes if n >= _CROSSOVER."""
    if n < _CROSSOVER:
        return np.array([gen.random() for _ in range(n)], dtype=np.float64)
    k = -(-n // _LANE)
    starts = np.empty((k, 4), dtype="<u8")
    starts[0] = gen._s0, gen._s1, gen._s2, gen._s3
    for prev, nxt in zip(starts[:-1], starts[1:]):
        bits = np.unpackbits(prev.view(np.uint8), bitorder="little").view(bool)
        np.bitwise_xor.reduce(_jump_columns(), axis=1, where=bits, out=nxt)
    s = np.ascontiguousarray(starts.T, dtype=np.uint64)
    x = np.empty((_LANE, k), dtype=np.uint64)
    tail = n - (k - 1) * _LANE   # steps of the last lane that are used
    _lockstep(s, x[:tail])
    gen._s0, gen._s1, gen._s2, gen._s3 = (int(w) for w in s[:, -1])
    _lockstep(s, x[tail:])
    x *= np.uint64(5)
    x = ((x << 7) | (x >> 57)) * np.uint64(9)
    return (x.T.ravel()[:n] >> 11) * 2.0 ** -53
