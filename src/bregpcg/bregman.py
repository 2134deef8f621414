"""Log-determinant matrix divergence and rank-constrained eigenvalue selection.

The divergence between SPD matrices X and Y is

    D(X, Y) = trace(X Y^{-1}) - logdet(X Y^{-1}) - n,

which is nonnegative, zero only at X = Y, invariant under congruences, and
asymmetric in its arguments.  For a symmetric E with eigenvalues theta above
-1, the cost of *not* correcting an eigendirection is measured by one of two
scalar curves:

    gamma(t) = t - log(1 + t)            forward direction, D(I + E, I + W)
    nu(t)    = 1/(1 + t) + log(1 + t) - 1  reverse direction, D(I + W, I + E)

A rank-r correction W that copies r eigenpairs of E is optimal exactly when
it keeps the r eigenvalues with the largest curve value.  ``select_indices``
implements that rule for both curves and for plain magnitude truncation.

The E that a preconditioner P = Q (I + W) Q^T corrects is the scaled
factorization error Q^{-1} S Q^{-T} - I, and this module defines it both
ways: ``scaled_error`` forms it densely, and ``scaled_operator`` applies
Q^{-1} S Q^{-T} = I + E matrix-free, one product with S per application.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dense_kernels import EigenDecomposition, dense_cholesky, sym_eig, thin_qr
from .eigsolve import LinearOperator
from .errors import CapExceeded, EigenvalueOutOfDomain, NotPositiveDefinite
from .sparse_core import CholFactor, CsrMatrix, scaled_apply, tri_solve

DENSIFY_CAP = 4096

TRUNCATION_RULES = ("bld", "rbld", "tsvd")


def _curve_domain(x: np.ndarray) -> None:
    if np.any(x <= -1.0):
        raise EigenvalueOutOfDomain("curve is undefined at or below -1")


def gamma(x):
    """gamma(t) = t - log(1 + t), nonnegative on (-1, inf), zero only at 0."""
    arr = np.asarray(x, dtype=np.float64)
    _curve_domain(arr)
    out = arr - np.log1p(arr)
    return out if arr.ndim else float(out)


def nu(x):
    """nu(t) = 1/(1 + t) + log(1 + t) - 1, nonnegative on (-1, inf), zero only at 0.

    Evaluated as log1p(t) - t/(1 + t), which is the same function but avoids
    cancelling two order-one terms, so the result never dips below zero.
    """
    arr = np.asarray(x, dtype=np.float64)
    _curve_domain(arr)
    out = np.log1p(arr) - arr / (1.0 + arr)
    return out if arr.ndim else float(out)


def divergence_ld(x, y) -> float:
    """Log-determinant divergence D(X, Y) between SPD matrices.

    Summed over the eigenvalues nu of L_Y^{-1} X L_Y^{-T} (L_Y the Cholesky
    factor of Y) as d - log1p(d) with d = nu - 1, which keeps its digits when
    X is close to Y, where trace - logdet - n would cancel.  No explicit
    inverse is ever formed.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"arguments have shapes {x.shape} and {y.shape}")
    try:
        dense_cholesky(x)
    except NotPositiveDefinite:
        raise NotPositiveDefinite("first argument is not positive definite", which="X") from None
    try:
        ly = dense_cholesky(y)
    except NotPositiveDefinite:
        raise NotPositiveDefinite("second argument is not positive definite", which="Y") from None
    half = scipy.linalg.solve_triangular(ly, x, lower=True)
    whole = scipy.linalg.solve_triangular(ly, half.T, lower=True)
    d = np.linalg.eigvalsh((whole + whole.T) / 2.0) - 1.0
    return float(np.sum(d - np.log1p(d)))


def scaled_error(s: CsrMatrix, q: CholFactor, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Dense scaled factorization error Q^{-1} S Q^{-T} - I.

    Formed by triangular-solve sweeps against the densified S and
    symmetrized before returning.  Guarded by ``cap`` because the result is
    a full n-by-n array.
    """
    if s.n_rows != s.n_cols:
        raise ValueError("matrix must be square")
    if s.n_rows != q.n:
        raise ValueError(f"matrix order {s.n_rows} does not match factor order {q.n}")
    n = s.n_rows
    if n > cap:
        raise CapExceeded(f"order {n} exceeds the densification cap {cap}")
    half = tri_solve(q, s.to_dense())
    whole = tri_solve(q, half.T)
    err = (whole + whole.T) / 2.0
    err[np.diag_indices(n)] -= 1.0
    return err


def scaled_operator(s: CsrMatrix, q: CholFactor) -> LinearOperator:
    """v -> Q^{-1} S Q^{-T} v, one ``sparse_core.scaled_apply`` per application.

    The kernel fuses the upper solve, the S-product and the lower solve
    around the factor's sweeps, makes one ``spmv`` call per vector or block
    column, and returns a fresh C-ordered array that the caller may update
    in place.  An (n, k) block equals its column-by-column applications
    bitwise.
    """
    if s.n_rows != q.n:
        raise ValueError("matrix and factor orders differ")
    return LinearOperator(s.n_rows, lambda v: scaled_apply(s, q, v))


def select_indices(values, r: int, rule: str):
    """Positions of the r eigenvalues a rank-r correction should keep.

    Parameters
    ----------
    values : array
        Eigenvalues in descending order.  For the divergence rules every
        value must lie in (-1, inf).
    r : int
        How many to keep, 0 <= r < len(values).
    rule : str
        "bld" keeps the largest gamma values, "rbld" the largest nu values,
        "tsvd" the largest magnitudes.  Ties go to the smaller index.

    Returns
    -------
    tuple of int, ascending.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("eigenvalues must be a vector")
    if np.any(np.diff(values) > 0.0):
        raise ValueError("eigenvalues must be in descending order")
    if not 0 <= r < len(values):
        raise ValueError(f"rank {r} must satisfy 0 <= r < {len(values)}")
    if rule not in TRUNCATION_RULES:
        raise ValueError(f"unknown truncation rule {rule!r}")
    if rule == "bld":
        scores = gamma(values)
    elif rule == "rbld":
        scores = nu(values)
    else:
        scores = np.abs(values)
    order = np.argsort(-scores, kind="stable")
    return tuple(sorted(int(i) for i in order[:r]))


@dataclass(frozen=True, eq=False)
class LowRank:
    """Symmetric low-rank term Z diag(lam) Z^T with orthonormal columns."""

    Z: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.Z, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        if z.ndim != 2:
            raise ValueError("Z must be a matrix")
        if lam.shape != (z.shape[1],):
            raise ValueError("lam must have one value per column of Z")
        object.__setattr__(self, "Z", z)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def rank(self) -> int:
        return self.Z.shape[1]

    @classmethod
    def empty(cls, n: int) -> "LowRank":
        return cls(np.zeros((n, 0)), np.zeros(0))

    def as_dense(self) -> np.ndarray:
        return (self.Z * self.lam) @ self.Z.T


def compress(z: np.ndarray, lam: np.ndarray) -> LowRank:
    """Z diag(lam) Z^T, for any Z, in eigen form: a thin QR Z = Q R, the
    eigendecomposition V diag(mu) V^T of R diag(lam) R^T, then (Q V, mu)."""
    q, r = thin_qr(z)
    small = sym_eig((r * lam) @ r.T)
    return LowRank(q @ small.vectors, small.values)


def truncate(decomp: EigenDecomposition, indices) -> LowRank:
    """Copy the eigenpairs at ``indices`` into a low-rank term, unmodified.

    Nothing is clamped: an eigenvalue at or near -1 is rejected when the
    term is assembled into a preconditioner (``precond.Preconditioner``).
    """
    idx = np.asarray(tuple(indices), dtype=np.int64)
    if len(idx) != len(set(idx.tolist())):
        raise ValueError("indices must be distinct")
    if len(idx) and (idx.min() < 0 or idx.max() >= len(decomp.values)):
        raise ValueError("index out of range")
    return LowRank(decomp.vectors[:, idx], decomp.values[idx])
