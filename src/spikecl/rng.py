"""Seeded, reproducible randomness.

The generator is a counter-based splitmix64 recurrence, written out here so
draws are bit-identical across platforms and numpy versions:

    x_i = mix64(base + GAMMA * i),   i = 1, 2, 3, ...

where ``base = mix64(seed)``, GAMMA is the 64-bit golden-ratio increment
0x9E3779B97F4A7C15, and ``mix64`` is the splitmix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

all in wrapping 64-bit arithmetic. A stream owns a monotonically advancing
counter ``i``; vector draws consume a contiguous counter block, so the draw
sequence depends only on the seed and the sequence of draw calls.

The mix runs in place on the counter block; its only other allocation is
one scratch buffer of the same size for the shifted words.
``bernoulli`` compares integers instead of floats: a uniform is
``u = k * 2^-53`` with ``k = x >> 11``, and for any p in [0, 1]
``u < p`` holds exactly when ``k < ceil(p * 2^53)`` (both scalings by a
power of two are exact), so the integer test draws the same bits.

Streams are single-owner. Parallel or per-purpose randomness goes through
``fork``, which derives an independent child stream from the parent's base
and a string tag (FNV-1a hashed), without touching the parent's counter.
``bernoulli_each`` draws from several streams in one block, words
``bases[:, None] + counters * GAMMA``; each row has the bits its stream's
own ``bernoulli`` call would draw.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

_U64_GAMMA = np.uint64(_GAMMA)
_U64_C1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_C2 = np.uint64(0x94D049BB133111EB)

# 2^-53, spacing of uniform doubles built from the top 53 output bits
_UNIT = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int, wrapping at 64 bits."""
    z &= _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash, used only for stable fork-tag derivation."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array."""
    shifted = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= _U64_C1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _U64_C2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


class RngStream:
    """One reproducible draw sequence, fully determined by its seed."""

    def __init__(self, seed: int):
        self._base = mix64(int(seed))
        self._counter = 0

    def fork(self, tag: str | int) -> "RngStream":
        """Derive an independent child stream keyed by (this stream, tag).

        Pure derivation: the parent's counter does not move, and the same
        tag always yields the same child.
        """
        if isinstance(tag, int):
            key = mix64(tag)
        else:
            key = fnv1a64(str(tag).encode("utf-8"))
        child = RngStream.__new__(RngStream)
        child._base = mix64(self._base ^ mix64(key ^ _GAMMA))
        child._counter = 0
        return child

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` 64-bit outputs as a uint64 array; advances the counter."""
        return _raw_each([self], n)[0]

    def uniform(self, shape: tuple[int, ...] | int) -> np.ndarray:
        """Uniform float64 matrix on [0, 1)."""
        shape = _as_shape(shape)
        n = int(np.prod(shape)) if shape else 1
        k = self._raw(n)
        k >>= np.uint64(11)
        u = k.astype(np.float64)
        u *= _UNIT
        return u.reshape(shape)

    def normal(self, shape: tuple[int, ...] | int) -> np.ndarray:
        """Standard normal float64 matrix via Box-Muller.

        Consumes counter values in pairs; an odd request still burns the
        full pair so the stream stays call-sequence deterministic.
        """
        shape = _as_shape(shape)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        w = self._raw(2 * pairs)
        # u1 in (0, 1] so the log is finite
        u1 = ((w[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _UNIT
        u2 = (w[pairs:] >> np.uint64(11)).astype(np.float64) * _UNIT
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(2.0 * math.pi * u2)
        out[1::2] = r * np.sin(2.0 * math.pi * u2)
        return out[:n].reshape(shape)

    def bernoulli(self, p, shape: tuple[int, ...] | int) -> np.ndarray:
        """0/1 float64 matrix; ``p`` is a scalar or array broadcastable to shape."""
        return RngStream.bernoulli_each([self], p, shape)[0]

    @staticmethod
    def bernoulli_each(streams: list["RngStream"], p, shape: tuple[int, ...] | int) -> np.ndarray:
        """(len(streams), *shape) 0/1 float64 array whose row i is what
        ``streams[i].bernoulli(p[i], shape)`` draws, in one block; ``p``
        broadcasts to (len(streams), *shape). Each stream's counter advances
        by the size of ``shape``."""
        p = np.asarray(p, dtype=np.float64)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ContractViolation(f"bernoulli p outside [0, 1]: {p!r}")
        shape = _as_shape(shape)
        n = math.prod(shape)
        # one stream draws through ``_raw``, the name bench/tracer.py times
        k = streams[0]._raw(n)[None] if len(streams) == 1 else _raw_each(streams, n)
        k >>= np.uint64(11)
        bound = np.ceil(p * 2.0**53).astype(np.uint64)
        return (k.reshape((len(streams),) + shape) < bound).astype(np.float64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of uniforms)."""
        return np.argsort(self.uniform((n,)), kind="stable")

    def integers(self, n: int, upper: int) -> np.ndarray:
        """``n`` ints in [0, upper) by scaling uniforms (upper << 2^53)."""
        if upper <= 0:
            raise ContractViolation("upper must be positive")
        return np.minimum((self.uniform((n,)) * upper).astype(np.int64), upper - 1)


def _raw_each(streams: list[RngStream], n: int) -> np.ndarray:
    """The next ``n`` outputs of each stream, (len(streams), n) uint64:
    words base + (counter + i) * GAMMA for i = 1..n, mixed in place.
    Advances every counter by ``n``."""
    starts = np.array([s._counter + 1 for s in streams], dtype=np.uint64)
    words = np.add.outer(starts, np.arange(n, dtype=np.uint64))
    words *= _U64_GAMMA
    words += np.array([s._base for s in streams], dtype=np.uint64)[:, None]
    for s in streams:
        s._counter += n
    return _mix_array(words)


def _as_shape(shape) -> tuple[int, ...]:
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise ContractViolation(f"negative dimension in shape {shape}")
    return shape
