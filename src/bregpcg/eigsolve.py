"""Matrix-free symmetric eigenvalue estimation by thick-restart Lanczos.

The solver targets the algebraically largest eigenvalues of a symmetric
operator, optionally together with a number of the algebraically smallest
from the same run (both ends of the spectrum, as ARPACK's ``which="BE"``), or
the largest in magnitude, used for truncation-style spectral approximations.
Restarts keep the converged Ritz pairs plus the wanted ones, and full
reorthogonalization (classical Gram-Schmidt, run twice on every step) keeps
the basis clean.  The Krylov basis is stored column-major, so each
Gram-Schmidt pass is a matrix-vector product over one contiguous block of
leading columns.  Everything is driven by the pinned random
streams, so a given (operator, params, seed) triple reproduces bitwise on
one machine and BLAS build.

The solver does not count its operator applications; wrap the operator in
``CountingOperator`` to count them.  ``smallest_from_estimate`` maps a run on
the shifted operator eta*I - Q^{-1} S Q^{-T} back to the bottom of the scaled
error, theta = (eta - 1) - lambda.  The top of the shifted operator is the
bottom of Q^{-1} S Q^{-T} for every eta, so the shift does not decide which
pairs a run finds; it sets only the scale of the per-pair test tol * |theta|,
and so how many applications the run takes.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .bregman import LowRank
from .errors import NoConvergence
from .sparse_core import CholFactor, CsrMatrix, spmv, tri_solve


class LinearOperator:
    """A symmetric operator given by its dimension and an apply callable."""

    def __init__(self, dimension: int, apply):
        self.dimension = dimension
        self._apply = apply

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v)


class CountingOperator(LinearOperator):
    """Wraps an operator and counts how many times it is applied."""

    def __init__(self, inner: LinearOperator):
        super().__init__(inner.dimension, inner.apply)
        self.count = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        self.count += 1
        return self._apply(v)


def operator_from_dense(a: np.ndarray) -> LinearOperator:
    a = np.asarray(a, dtype=np.float64)
    return LinearOperator(a.shape[0], lambda v: a @ v)


def scaled_operator(s: CsrMatrix, q: CholFactor) -> LinearOperator:
    """v -> Q^{-1} S Q^{-T} v.  One S product and two triangular solves."""
    if s.n_rows != q.n:
        raise ValueError("matrix and factor orders differ")

    def apply(v):
        return tri_solve(q, spmv(s, tri_solve(q, v, transposed=True)))

    return LinearOperator(s.n_rows, apply)


def shifted_operator(op: LinearOperator, eta: float) -> LinearOperator:
    """v -> eta*v - op(v); flips the spectrum so its bottom becomes the top."""
    return LinearOperator(op.dimension, lambda v: eta * v - op.apply(v))


@dataclass
class EigsParams:
    """Knobs for the thick-restart solver.

    ``slack`` extra basis vectors ride along with the wanted ones, ``tol``
    is the relative Ritz residual target, and ``max_restarts`` bounds the
    number of restart cycles.
    """

    tol: float = 1e-2
    max_restarts: int = 60
    slack: int = 60
    seed: int = 0


@dataclass
class EigenEstimate:
    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    converged_count: int


def lanczos_tr(
    op: LinearOperator,
    want: int,
    params: EigsParams | None = None,
    which: str = "largest",
    bottom: int = 0,
) -> EigenEstimate:
    """Thick-restart Lanczos with full reorthogonalization.

    Parameters
    ----------
    op : LinearOperator
        Symmetric operator.
    want : int
        Number of eigenpairs to estimate (from the top, with ``bottom``).
    params : EigsParams
        Subspace dimension is want + bottom + slack; an eigenpair counts as
        converged when its Ritz residual is at most tol * max(|theta|, eps * n).
    which : str
        "largest" ranks Ritz values algebraically, "magnitude" by |theta|.
        Returned values are descending either way.
    bottom : int
        With "largest", also estimate this many algebraically smallest pairs
        in the same run (a shift leaves the Krylov space unchanged).  The
        wanted set is then the ``want`` largest and the ``bottom`` smallest
        Ritz values; 0 gives the plain "largest" ranking.

    Raises
    ------
    NoConvergence
        After max_restarts cycles with unconverged wanted pairs.  The
        exception carries the partial estimate.
    """
    if params is None:
        params = EigsParams()
    if which not in ("largest", "magnitude"):
        raise ValueError(f"unknown ranking {which!r}")
    if bottom and which != "largest":
        raise ValueError("a bottom count needs the 'largest' ranking")
    n = op.dimension
    if want < 0 or bottom < 0:
        raise ValueError("want and bottom must be nonnegative")
    total = want + bottom
    if total == 0:
        return EigenEstimate(np.zeros(0), np.zeros((n, 0)), np.zeros(0), 0)
    m = total + params.slack
    if m > n:
        raise ValueError(f"subspace dimension {m} exceeds operator dimension {n}")

    eps = np.finfo(np.float64).eps
    # column-major, so every leading block v_basis[:, :j+1] is contiguous and
    # the Gram-Schmidt passes below sweep long contiguous columns
    v_basis = np.zeros((n, m + 1), order="F")
    v_basis[:, 0] = rng.unit_vector(params.seed, n)
    kept = 0
    theta_kept = np.zeros(0)
    coupling = np.zeros(0)
    injections = 0

    for cycle in range(params.max_restarts):
        t_proj = np.zeros((m, m))
        if kept:
            t_proj[np.arange(kept), np.arange(kept)] = theta_kept
            t_proj[kept, :kept] = coupling
            t_proj[:kept, kept] = coupling
        beta = 0.0
        for j in range(kept, m):
            w = op.apply(v_basis[:, j])
            coeffs = v_basis[:, : j + 1].T @ w
            w = w - v_basis[:, : j + 1] @ coeffs
            coeffs2 = v_basis[:, : j + 1].T @ w
            w = w - v_basis[:, : j + 1] @ coeffs2
            t_proj[j, j] = coeffs[j] + coeffs2[j]
            if j > kept:
                t_proj[j, j - 1] = t_proj[j - 1, j] = beta
            beta = float(np.linalg.norm(w))
            if beta <= n * eps * max(1.0, abs(t_proj[j, j])):
                # invariant subspace: continue in a fresh direction with
                # zero coupling so the projected matrix stays block diagonal
                injections += 1
                fresh = rng.normals(rng.derive(params.seed, f"inject{injections}"), n)
                for _ in range(2):
                    fresh = fresh - v_basis[:, : j + 1] @ (v_basis[:, : j + 1].T @ fresh)
                v_basis[:, j + 1] = fresh / np.linalg.norm(fresh)
                beta = 0.0
            else:
                v_basis[:, j + 1] = w / beta

        theta, ritz = np.linalg.eigh(t_proj)
        residuals = np.abs(beta * ritz[m - 1, :])
        if which == "largest":
            ranking = np.argsort(-theta, kind="stable")
            if bottom:
                # the wanted pairs from both ends first, then the rest descending
                ends = np.concatenate([ranking[:want], ranking[::-1][:bottom]])
                ranking = np.concatenate([ends, ranking[want : m - bottom]])
        else:
            ranking = np.argsort(-np.abs(theta), kind="stable")
        converged = residuals <= params.tol * np.maximum(np.abs(theta), eps * n)
        wanted = ranking[:total]

        done = bool(np.all(converged[wanted]))
        if done or cycle == params.max_restarts - 1:
            order = wanted[np.argsort(-theta[wanted], kind="stable")]
            estimate = EigenEstimate(
                values=theta[order],
                vectors=v_basis[:, :m] @ ritz[:, order],
                residual_norms=residuals[order],
                converged_count=int(np.count_nonzero(converged[order])),
            )
            if done:
                return estimate
            raise NoConvergence(
                f"{total - int(np.count_nonzero(converged[wanted]))} of {total} pairs "
                f"unconverged after {params.max_restarts} restarts",
                estimate=estimate,
            )

        keep_mask = np.zeros(m, dtype=bool)
        keep_mask[wanted] = True
        keep_mask |= converged
        keep_idx = ranking[keep_mask[ranking]][: m - 1]
        new_basis = v_basis[:, :m] @ ritz[:, keep_idx]
        kept = len(keep_idx)
        v_basis[:, :kept] = new_basis
        v_basis[:, kept] = v_basis[:, m]
        theta_kept = theta[keep_idx]
        coupling = beta * ritz[m - 1, keep_idx]

    raise AssertionError("unreachable")  # loop always returns or raises


def smallest_from_estimate(est: EigenEstimate, eta: float) -> LowRank:
    """Map shifted eigenvalues back: theta = (eta - 1) - lambda.

    Whether every theta lies above -1 is checked where the term becomes a
    preconditioner (``precond.Preconditioner``).
    """
    return LowRank(est.vectors, (eta - 1.0) - est.values)
