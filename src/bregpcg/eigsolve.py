"""Matrix-free symmetric eigenvalue estimation by thick-restart Lanczos.

The solver targets the algebraically largest eigenvalues of a symmetric
operator, optionally together with a number of the algebraically smallest
from the same run (both ends of the spectrum, as ARPACK's ``which="BE"``), or
the largest in magnitude, used for truncation-style spectral approximations.
Restarts keep the converged Ritz pairs plus the wanted ones.  The basis is
kept semi-orthogonal (max |V^T V - I| <= sqrt(eps)) by partial
reorthogonalization: each step is the local three-term update, and Simon's
omega recurrence (Math. Comp. 42, 1984) estimates its loss of orthogonality
from the whole projected matrix, thick-restart arrow included, as TRLan does
(Wu & Simon, SIMAX 22, 2000).  A full pass of classical Gram-Schmidt, run
twice, follows only when the estimate passes sqrt(eps) (and then on the next
step too), on the first step of a cycle, and on its last.  Semi-orthogonality
keeps the Ritz values accurate to working precision, so they stay inside the
spectrum.  Below ``ALWAYS_FULL_SIZE`` basis entries every step runs the full
pass, because there the recurrence costs as much as the pass it saves.  The
Krylov basis is stored column-major, so each Gram-Schmidt sweep is a
matrix-vector product over one contiguous block of leading columns.
Everything is driven by the pinned random streams, so a given (operator,
params, seed) triple reproduces bitwise on one machine and BLAS build.

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

# With n * (m + 1) basis entries at most this, every Lanczos step runs the full
# Gram-Schmidt pass: there the omega recurrence's per-step numpy calls cost
# about as much as the pass they save.  Measured on whole runs with one BLAS
# thread, the recurrence path was 28-32% slower at 16k-23k entries, between
# 14% faster and 16% slower from 31k to 73k, and 21-45% faster from 93k on.
ALWAYS_FULL_SIZE = 2**16


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
    full_passes: int = 0


def lanczos_tr(
    op: LinearOperator,
    want: int,
    params: EigsParams | None = None,
    which: str = "largest",
    bottom: int = 0,
) -> EigenEstimate:
    """Thick-restart Lanczos with partial reorthogonalization.

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

    Returns
    -------
    EigenEstimate
        ``full_passes`` counts the steps that ran the full Gram-Schmidt pass
        (every step when n * (m + 1) <= ``ALWAYS_FULL_SIZE``).  A full pass
        removes components along older basis vectors that the projected
        matrix does not record, so ``residual_norms`` bound the true
        residuals: each is the Ritz residual plus the root sum of squares
        of all such components removed in the run.  Convergence is tested
        on the Ritz residual alone.

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
    sqrt_eps = np.sqrt(eps)  # the estimated loss of orthogonality that calls for a full pass
    full_every_step = n * (m + 1) <= ALWAYS_FULL_SIZE
    # column-major, so every leading block v_basis[:, :j+1] is contiguous and
    # the Gram-Schmidt passes below sweep long contiguous columns
    v_basis = np.zeros((n, m + 1), order="F")
    v_basis[:, 0] = rng.unit_vector(params.seed, n)
    # omega[i, k] estimates v_i^T v_k for k <= i (Simon's recurrence)
    omega = np.eye(m + 1)
    t_norm = 0.0  # running bound on ||T||, the scale of the recurrence's noise
    full_passes = 0
    dropped_sq = 0.0  # squared coefficients full passes removed that T does not record
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
        # v_kept, the last cycle's v_m, came out of a full pass
        omega[kept, :kept] = eps
        beta = 0.0
        full_next = True  # the first step of a cycle
        for j in range(kept, m):
            beta_prev = beta
            if j > kept:
                t_proj[j, j - 1] = t_proj[j - 1, j] = beta_prev
            w = op.apply(v_basis[:, j])
            if full_every_step:
                w, coeffs, coeffs2 = _cgs2(v_basis[:, : j + 1], w)
                t_proj[j, j] = coeffs[j] + coeffs2[j]
                beta = float(np.linalg.norm(w))
                full_passes += 1
            else:
                # the local step: subtract beta_{j-1} v_{j-1} (the arrow
                # after a restart), then alpha_j v_j
                if j > kept:
                    w = w - beta_prev * v_basis[:, j - 1]
                elif kept:
                    w = w - v_basis[:, :kept] @ coupling
                alpha = float(v_basis[:, j] @ w)
                w = w - alpha * v_basis[:, j]
                t_proj[j, j] = alpha
                beta = float(np.linalg.norm(w))
                t_norm = max(t_norm, abs(alpha) + beta + beta_prev)
                full = full_next or j == m - 1  # v_m must be clean for the rotation
                full_next = False
                if not full:
                    # beta_j omega_{j+1,k} = (omega_j T)_k - alpha_j omega_{j,k}
                    #                        - beta_{j-1} omega_{j-1,k} + noise
                    est = omega[j, : j + 1] @ t_proj[: j + 1, :j]
                    est -= alpha * omega[j, :j] + beta_prev * omega[j - 1, :j]
                    est += np.copysign(eps * t_norm, est)
                    full_next = full = bool(np.max(np.abs(est)) >= sqrt_eps * beta)
                if full:
                    w, coeffs, coeffs2 = _cgs2(v_basis[:, : j + 1], w)
                    coeffs += coeffs2
                    t_proj[j, j] += coeffs[j]
                    dropped_sq += float(coeffs[:j] @ coeffs[:j])
                    beta = float(np.linalg.norm(w))
                    omega[j + 1, : j + 1] = eps
                    full_passes += 1
                else:
                    omega[j + 1, :j] = est / beta
                    omega[j + 1, j] = eps * t_norm / beta
            if beta <= n * eps * max(1.0, abs(t_proj[j, j])):
                # invariant subspace: continue in a fresh direction with
                # zero coupling so the projected matrix stays block diagonal
                injections += 1
                fresh = rng.normals(rng.derive(params.seed, f"inject{injections}"), n)
                fresh = _cgs2(v_basis[:, : j + 1], fresh)[0]
                v_basis[:, j + 1] = fresh / np.linalg.norm(fresh)
                omega[j + 1, : j + 1] = eps
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
                residual_norms=residuals[order] + np.sqrt(dropped_sq),
                converged_count=int(np.count_nonzero(converged[order])),
                full_passes=full_passes,
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


def _cgs2(basis: np.ndarray, w: np.ndarray):
    """Classical Gram-Schmidt run twice: w less its components along the
    columns of ``basis``, and the coefficients each sweep removed."""
    coeffs = basis.T @ w
    w = w - basis @ coeffs
    coeffs2 = basis.T @ w
    return w - basis @ coeffs2, coeffs, coeffs2


def smallest_from_estimate(est: EigenEstimate, eta: float) -> LowRank:
    """Map shifted eigenvalues back: theta = (eta - 1) - lambda.

    Whether every theta lies above -1 is checked where the term becomes a
    preconditioner (``precond.Preconditioner``).
    """
    return LowRank(est.vectors, (eta - 1.0) - est.values)
