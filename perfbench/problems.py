"""Sparse generators for the benchmark's test problems.

Both build the matrix directly in sparse form, so a 40,000-row problem costs
megabytes rather than the gigabytes a dense n-by-n array would.  They return
scipy CSR matrices: the benchmark hands the library a ``CsrMatrix`` made from
them and checks residuals against the scipy matrix itself.  The dense
fixtures in ``tests/conftest.py`` are the reference they are checked against
at small sizes (see ``test_problems.py``).
"""

import numpy as np
import scipy.sparse


def poisson_2d(m: int, shift: float = 0.0) -> scipy.sparse.csr_matrix:
    """5-point Laplacian on an m-by-m grid plus ``shift * I``.

    Formed as the Kronecker sum T (x) I + I (x) T of the 1D second-difference
    matrix T = tridiag(-1, 2, -1), which orders unknowns row by row
    (k = i * m + j), as the dense fixture does.
    """
    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.identity(m)
    a = scipy.sparse.kron(t, eye) + scipy.sparse.kron(eye, t)
    if shift:
        a = a + shift * scipy.sparse.identity(m * m)
    return scipy.sparse.csr_matrix(a)


def bumped_band(n: int, bumps: int = 4, scale: float = 0.7, seed: int = 0) -> scipy.sparse.csr_matrix:
    """Tridiagonal tridiag(-1, 4, -1) plus ``bumps`` sparse positive rank-1 terms.

    Draws the same random stream in the same order as the dense fixture, so
    the two agree for equal arguments.  The bumps fall outside the band,
    which makes the zero-fill factor inexact with a strongly positive
    scaled-error spectrum.
    """
    gen = np.random.default_rng(seed)
    rows = [np.arange(n), np.arange(n - 1), np.arange(1, n)]
    cols = [np.arange(n), np.arange(1, n), np.arange(n - 1)]
    vals = [np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0)]
    for _ in range(bumps):
        idx = gen.choice(n, size=max(3, n // 20), replace=False)
        u = gen.standard_normal(idx.size)
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(scale * np.outer(u, u).ravel())
    coo = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return scipy.sparse.csr_matrix(coo)  # sums the duplicate entries
