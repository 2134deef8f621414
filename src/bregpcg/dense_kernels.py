"""Dense symmetric eigendecomposition, Cholesky, and thin QR.

Thin wrappers over LAPACK with the package's conventions pinned: descending
eigenvalues with stable tie order, a typed error for failed Cholesky pivots,
and a QR sign convention that makes factors deterministic.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite

_SYM_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order; vectors[:, i] belongs to values[i]."""

    values: np.ndarray
    vectors: np.ndarray


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if m.size:
        scale = 1.0 + np.abs(m).max()
        if np.abs(m - m.T).max() > _SYM_RTOL * scale:
            raise ValueError(f"{name} is not symmetric")
    return m


def sym_eig(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (M + M^T)/2 before factorization so roundoff
    asymmetry cannot leak into the result.  Ties keep the order the
    underlying routine produced, so equal eigenvalues still decompose
    deterministically.
    """
    m = _check_symmetric(np.asarray(m, dtype=np.float64), "matrix")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(-w, kind="stable")
    return EigenDecomposition(values=w[order], vectors=v[:, order])


def dense_cholesky(m) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix.

    Raises NotPositiveDefinite when a pivot is nonpositive, which is also the
    package's working definiteness test.
    """
    m = _check_symmetric(np.asarray(m, dtype=np.float64), "matrix")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite() from None


def thin_qr(b):
    """Reduced QR factorization with the convention diag(R) >= 0."""
    b = np.asarray(b, dtype=np.float64)
    q, r = scipy.linalg.qr(b, mode="economic", check_finite=False)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]
