"""Deterministic random streams used wherever the package needs randomness.

The generator is pinned so that an independent implementation can replay
every stream from this module's documentation alone:

* Raw 64-bit words come from SplitMix64.  Output ``i`` (counting from 0) for
  seed ``s`` is ``mix(s + (i + 1) * 0x9E3779B97F4A7C15)`` where ``mix`` is
  the standard SplitMix64 finalizer: xor-shift right 30, multiply by
  0xBF58476D1CE4E5B9, xor-shift right 27, multiply by 0x94D049BB133111EB,
  xor-shift right 31, with every operation modulo 2**64.
* A word ``w`` maps to the uniform ``((w >> 11) + 1) * 2.0**-53`` in (0, 1].
* Standard normals come from the Box-Muller transform.  Pair ``k`` consumes
  uniforms ``2k`` and ``2k + 1`` and yields
  ``sqrt(-2 log u1) * cos(2 pi u2)`` and ``sqrt(-2 log u1) * sin(2 pi u2)``
  as stream elements ``2k`` and ``2k + 1``; an odd request drops the final
  sine half.
* Matrices are filled from the normal stream in row-major order.

The raw words and the uniforms are exact integer and power-of-two arithmetic,
so they are the same bits everywhere.  The normals go through numpy's
``log``, ``cos`` and ``sin``, which are not correctly rounded: their bits are
fixed for one numpy build at one CPU dispatch level, not across them.  On a
CPU with AVX-512, numpy's ``log`` runs a SIMD kernel that differs from the C
library's in the last bit for about 0.35% of the uniforms, so the same seed
gives other normals when ``NPY_DISABLE_CPU_FEATURES`` turns that kernel off.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_ONE_U64 = np.uint64(1)
_SHIFT11 = np.uint64(11)
_SHIFT27 = np.uint64(27)
_SHIFT30 = np.uint64(30)
_SHIFT31 = np.uint64(31)
_TWO_PI = 2.0 * np.pi

# Box-Muller pairs per chunk of ``normals``.  A multiple of 64, so every
# element sits at the same SIMD lane position of numpy's ``log``, ``cos`` and
# ``sin`` loops as in one pass over the whole stream, at any vector width.
_CHUNK_PAIRS = 2**14


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _words_into(seed: int, first: int, z: np.ndarray, tmp: np.ndarray) -> None:
    """Fill ``z`` with SplitMix64 outputs ``first, first + 1, ...`` in place;
    ``tmp`` is uint64 scratch of the same length."""
    np.multiply(np.arange(first + 1, first + 1 + len(z), dtype=np.uint64), _GOLDEN_U64, out=z)
    z += np.uint64(seed & _MASK)
    np.right_shift(z, _SHIFT30, out=tmp)
    z ^= tmp
    z *= _MIX1_U64
    np.right_shift(z, _SHIFT27, out=tmp)
    z ^= tmp
    z *= _MIX2_U64
    np.right_shift(z, _SHIFT31, out=tmp)
    z ^= tmp


def words(seed: int, count: int) -> np.ndarray:
    """First ``count`` raw 64-bit outputs of SplitMix64 for ``seed``."""
    z = np.empty(count, dtype=np.uint64)
    _words_into(seed, 0, z, np.empty_like(z))
    return z


def _uniforms_into(seed: int, first: int, u: np.ndarray, z: np.ndarray) -> None:
    """Fill ``u`` with uniforms ``first, first + 1, ...``; ``z`` is uint64
    scratch of the same length."""
    _words_into(seed, first, z, u.view(np.uint64))
    z >>= _SHIFT11
    z += _ONE_U64
    np.multiply(z, 2.0**-53, out=u)  # exact: every z is at most 2**53


def uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform deviates in (0, 1], one per raw word."""
    u = np.empty(count)
    _uniforms_into(seed, 0, u, np.empty(count, dtype=np.uint64))
    return u


def normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard normal deviates from the pinned Box-Muller stream.

    The stream is produced ``_CHUNK_PAIRS`` pairs at a time into one output
    array, so scratch stays bounded by one chunk.  Each transcendental call
    sees the layout a single pass would give it (``log`` a strided view of
    the uniforms, ``cos`` and ``sin`` a contiguous array), and every element
    equals that pass's bit for bit.
    """
    if count == 0:
        return np.zeros(0)
    pairs = (count + 1) // 2
    out = np.empty(2 * pairs)
    width = min(pairs, _CHUNK_PAIRS)
    u = np.empty(2 * width)
    z = np.empty(2 * width, dtype=np.uint64)
    radius, angle, trig = np.empty(width), np.empty(width), np.empty(width)
    for start in range(0, pairs, _CHUNK_PAIRS):
        k = min(_CHUNK_PAIRS, pairs - start)
        uk, rk, ak, tk = u[: 2 * k], radius[:k], angle[:k], trig[:k]
        _uniforms_into(seed, 2 * start, uk, z[: 2 * k])
        np.log(uk[0::2], out=rk)
        rk *= -2.0
        np.sqrt(rk, out=rk)
        np.multiply(uk[1::2], _TWO_PI, out=ak)
        np.cos(ak, out=tk)
        np.multiply(rk, tk, out=out[2 * start : 2 * (start + k) : 2])
        np.sin(ak, out=tk)
        np.multiply(rk, tk, out=out[2 * start + 1 : 2 * (start + k) : 2])
    return out[:count]


def normal_matrix(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Row-major (n_rows, n_cols) matrix of standard normals."""
    return normals(seed, n_rows * n_cols).reshape(n_rows, n_cols)


def unit_vector(seed: int, n: int) -> np.ndarray:
    """Random direction: a normalized standard normal vector."""
    v = normals(seed, n)
    return v / np.linalg.norm(v)


def derive(seed: int, label: str) -> int:
    """Stable sub-seed for a named task, independent of call order."""
    h = seed & _MASK
    for byte in label.encode("utf-8"):
        h = _mix64_int(h ^ byte)
    return h
