"""Shared fixtures and independent reference implementations.

The reference generator here reimplements the documented pinned algorithm
(SplitMix64 words, Box-Muller pairs) with plain Python integers so the
package's vectorized version is checked against a second, independently
written source.
"""

import math

import numpy as np
import pytest

from bregpcg import CsrMatrix

MASK = (1 << 64) - 1


def ref_words(seed: int, count: int):
    """SplitMix64 outputs, pure-python arithmetic."""
    out = []
    for i in range(count):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def ref_uniforms(seed: int, count: int):
    return [((w >> 11) + 1) * 2.0**-53 for w in ref_words(seed, count)]


def ref_normals(seed: int, count: int):
    pairs = (count + 1) // 2
    us = ref_uniforms(seed, 2 * pairs)
    out = []
    for k in range(pairs):
        radius = math.sqrt(-2.0 * math.log(us[2 * k]))
        angle = 2.0 * math.pi * us[2 * k + 1]
        out.append(radius * math.cos(angle))
        out.append(radius * math.sin(angle))
    return out[:count]


def oneshot_normals(seed: int, count: int) -> np.ndarray:
    """The normal stream in one vectorized pass over the whole count.

    numpy's ``log``, ``cos`` and ``sin`` may run SIMD kernels that differ
    from the C library in the last bit, so this, not ``ref_normals``, is
    what a vectorized stream must equal bit for bit on every CPU.
    """
    pairs = (count + 1) // 2
    z = np.uint64(seed & MASK) + np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def ref_ic0_dense(s_dense):
    """Textbook IC(0) on a dense array, keeping the lower triangle of S.

    Returns the dense factor, or the 0-based row index where the pivot
    failed (as an int) so breakdown cases can be asserted.
    """
    n = s_dense.shape[0]
    pattern = (s_dense != 0.0) & np.tril(np.ones((n, n), dtype=bool))
    low = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            if not pattern[i, j]:
                continue
            acc = s_dense[i, j]
            for k in range(j):
                acc -= low[i, k] * low[j, k]
            low[i, j] = acc / low[j, j]
        pivot = s_dense[i, i]
        for k in range(i):
            pivot -= low[i, k] ** 2
        if pivot <= 0.0:
            return i
        low[i, i] = math.sqrt(pivot)
    return low


def divergence_dense(x, y):
    """Log-det divergence straight from its definition, explicit inverse."""
    prod = x @ np.linalg.inv(y)
    sign, logdet = np.linalg.slogdet(prod)
    assert sign > 0
    return float(np.trace(prod) - logdet - x.shape[0])


def laplacian_2d(m: int) -> np.ndarray:
    """Standard 5-point grid Laplacian on an m-by-m grid, dense."""
    n = m * m
    d = np.zeros((n, n))
    for i in range(m):
        for j in range(m):
            k = i * m + j
            d[k, k] = 4.0
            if i > 0:
                d[k, k - m] = -1.0
            if i < m - 1:
                d[k, k + m] = -1.0
            if j > 0:
                d[k, k - 1] = -1.0
            if j < m - 1:
                d[k, k + 1] = -1.0
    return d


def bumped_band(n: int, bumps: int = 4, scale: float = 0.7, seed: int = 0) -> np.ndarray:
    """Tridiagonal SPD base plus a few sparse positive rank-1 bumps.

    The bumps fall outside the band, so the zero-fill factor is inexact and
    the scaled-error spectrum has a strong positive side.  Useful whenever a
    test needs the sketched paths to behave--their core contract assumes the
    dominant directions are the positive ones.
    """
    gen = np.random.default_rng(seed)
    dense = (
        np.diag(np.full(n, 4.0))
        + np.diag(np.full(n - 1, -1.0), 1)
        + np.diag(np.full(n - 1, -1.0), -1)
    )
    for _ in range(bumps):
        u = np.zeros(n)
        idx = gen.choice(n, size=max(3, n // 20), replace=False)
        u[idx] = gen.standard_normal(idx.size)
        dense += scale * np.outer(u, u)
    return dense


def random_spd(n: int, seed: int, shift: float | None = None) -> np.ndarray:
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    return a @ a.T + (n if shift is None else shift) * np.eye(n)


def spd_with_spectrum(values, seed: int) -> np.ndarray:
    """Symmetric matrix with the given eigenvalues and a random basis."""
    values = np.asarray(values, dtype=float)
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((values.size, values.size)))
    return (q * values) @ q.T


def dynamic_arch_openblas(*modules) -> bool:
    """Whether each of numpy and scipy given links a DYNAMIC_ARCH OpenBLAS,
    whose kernel ``OPENBLAS_CORETYPE`` picks at load time."""
    for module in modules:
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # numpy < 1.25 has no dict form
            return False
        if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
            return False
    return True


@pytest.fixture
def tmp_mtx(tmp_path):
    """Write a dense array to a Matrix Market file, return the path."""

    def _write(dense, name="matrix.mtx"):
        from bregpcg import write_matrix_market

        path = tmp_path / name
        write_matrix_market(path, CsrMatrix.from_dense(np.asarray(dense, dtype=float)))
        return str(path)

    return _write
