"""Preconditioned conjugate gradients and spectral diagnostics.

The solver starts from x0 = 0, monitors the recurrence residual, and guards
it with true-residual recomputations: every ``_TRUE_RES_EVERY`` iterations,
whenever the recurrence claims convergence, and at termination.  The
reported final residual is always a true one.  Matrix products are counted
exactly: one per iteration plus one per true-residual recomputation.

Every BLAS call of the loop goes to scipy's OpenBLAS, through
``scipy.linalg.blas``, and so do the Woodbury products of
``precond.apply_inverse``.  numpy and scipy wheels each bundle their own
OpenBLAS with its own thread pool, and a loop that calls both each iteration
leaves two pools fighting over the cores (README, Determinism).  The dot
products are ``ddot`` and a norm is the square root of one, as numpy's 1-D
norm forms it.  The vector updates are in-place level-1 calls, one pass over
memory each: x and the residual take a ``daxpy``, the direction a ``dscal``
by rho_next / rho and then a ``daxpy`` of z with a = 1.  The direction
update is bitwise ``d *= beta; d += z``; the x and residual updates round
once per element wherever the BLAS kernel fuses the multiply and the add, so
their last bits depend on the BLAS build and core type, as the dot
products' do.

The diagnostics all read one spectrum.  For P = Q (I + W) Q^T and the scaled
system I + E = Q^{-1} S Q^{-T}, the eigenvalues mu of P^{-1} S are those of
(I + W)^{-1/2} (I + E) (I + W)^{-1/2}, so one eigenvalue solve gives the
condition number mu_max / mu_min and both log-determinant divergences,

    D(S, P) = sum gamma(mu - 1),    D(P, S) = sum nu(mu - 1),

without materializing P or factoring anything densely.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy, ddot, dscal

from .bregman import DENSIFY_CAP, gamma, nu, scaled_error
from .errors import CapExceeded, IndefinitePreconditionerDetected, NotPositiveDefinite
from .precond import Preconditioner
from .sparse_core import CsrMatrix, spmv

_TRUE_RES_EVERY = 25
_STAGNATION_WINDOW = 50
_STAGNATION_DECREASE = 10.0 * np.finfo(float).eps  # required true-residual progress


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_rel_residual: float
    rel_residual_history: list
    matvecs_S: int
    preconditioner_label: str
    reason: str | None = None  # "maxit" or "stagnation" when not converged
    residual_discrepancy: bool = False
    time_solve_s: float = 0.0


def pcg_solve(
    s: CsrMatrix,
    b: np.ndarray,
    p: Preconditioner,
    tol: float = 1e-10,
    maxit: int = 100,
):
    """Run PCG on S x = b from x0 = 0.

    Convergence is declared at the first iterate whose *true* relative
    residual is at or below ``tol``; the cheap recurrence residual only
    decides when to check.  A recurrence/true mismatch larger than 10x tol
    is flagged on the report.  Stagnation is declared when the true residual
    has not decreased by at least 10 machine epsilons over 50 iterations.

    ``tol`` must be at least 0; at 0 the run stops only at an exactly zero
    residual, at ``maxit``, or on stagnation.

    Raises NotPositiveDefinite (``which="s"``) when a search direction has
    nonpositive curvature ``<d, S d>``, which an SPD ``S`` rules out, and
    IndefinitePreconditionerDetected when ``<z, r>`` is not positive, NaN
    included, at the iteration where it appears.

    Returns (x, SolveReport).
    """
    b = np.asarray(b, dtype=np.float64)
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, not {tol}")
    if s.n_rows != s.n_cols:
        raise ValueError("matrix must be square")
    if b.shape != (s.n_rows,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({s.n_rows},)")
    started = time.perf_counter()
    b_norm = math.sqrt(ddot(b, b))
    matvecs = 0

    def true_rel(x):
        nonlocal matvecs
        matvecs += 1
        t = b - spmv(s, x)
        return math.sqrt(ddot(t, t)) / b_norm

    if b_norm == 0.0:
        report = SolveReport(
            converged=True,
            iterations=0,
            final_rel_residual=0.0,
            rel_residual_history=[0.0],
            matvecs_S=0,
            preconditioner_label=p.label,
            time_solve_s=time.perf_counter() - started,
        )
        return np.zeros(s.n_rows), report

    # with the identity, z is the residual itself and rho is r.r.  A
    # duck-typed preconditioner without a factor takes the general path
    plain = isinstance(p, Preconditioner) and p.Q is None
    x = np.zeros(s.n_rows)
    residual = b.copy()
    history = [1.0]
    z = residual if plain else p.apply_inverse(residual)
    rho = ddot(residual, z)
    if not rho > 0.0:  # NaN included
        raise IndefinitePreconditionerDetected(f"<z, r> = {rho:.6g} at iteration 0")
    # the loop writes only into x, the residual and this copy, never into
    # an array apply_inverse returned (the identity's z is the residual)
    direction = z.copy()

    converged = False
    reason = None
    discrepancy = False
    iterations = 0
    best_true = 1.0
    best_true_iter = 0
    final_true = None

    for k in range(1, maxit + 1):
        s_dir = spmv(s, direction)
        matvecs += 1
        curvature = ddot(direction, s_dir)
        if curvature <= 0.0:
            raise NotPositiveDefinite(f"<d, S d> = {curvature:.6g} at iteration {k}", which="s")
        step = rho / curvature
        # daxpy(x, y, n, a); f2py parses keywords at some 0.1 us a call
        x = daxpy(direction, x, s.n_rows, step)
        residual = daxpy(s_dir, residual, s.n_rows, -step)
        rr = ddot(residual, residual)
        rel = math.sqrt(rr) / b_norm
        history.append(rel)
        iterations = k

        checked = None
        if rel <= tol:
            checked = true_rel(x)
            if checked > 10.0 * tol:
                discrepancy = True
            if checked <= tol:
                converged = True
                final_true = checked
                break
        elif k % _TRUE_RES_EVERY == 0:
            checked = true_rel(x)

        if checked is not None:
            if checked <= best_true - _STAGNATION_DECREASE:
                best_true = checked
                best_true_iter = k
            elif k - best_true_iter >= _STAGNATION_WINDOW:
                reason = "stagnation"
                final_true = checked
                break

        if plain:
            z = residual
            rho_next = rr
        else:
            z = p.apply_inverse(residual)
            rho_next = ddot(residual, z)
        if not rho_next > 0.0:
            raise IndefinitePreconditionerDetected(f"<z, r> = {rho_next:.6g} at iteration {k}")
        # f2py updates a copy of an argument that is not contiguous float64
        # and returns it, so the direction is always the array returned
        direction = dscal(rho_next / rho, direction)
        direction = daxpy(z, direction)
        rho = rho_next

    if not converged and reason is None:
        reason = "maxit"
    if final_true is None:
        final_true = true_rel(x)

    report = SolveReport(
        converged=converged,
        iterations=iterations,
        final_rel_residual=final_true,
        rel_residual_history=history,
        matvecs_S=matvecs,
        preconditioner_label=p.label,
        reason=None if converged else reason,
        residual_discrepancy=discrepancy,
        time_solve_s=time.perf_counter() - started,
    )
    return x, report


def preconditioned_spectrum(s: CsrMatrix, p: Preconditioner, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Eigenvalues of P^{-1} S in ascending order, from one dense solve.

    The factor kinds start from Q^{-1} S Q^{-T} = I + E (sparse triangular
    sweeps) and apply the congruence X (I + E) X with X = (I + W)^{-1/2} =
    I + Z diag(c) Z^T, c = (1 + lam)^{-1/2} - 1, in O(n^2 r).  Raises
    CapExceeded above ``cap`` and NotPositiveDefinite (``which="s"``) when
    the smallest eigenvalue is not positive.
    """
    if p.Q is None:
        if s.n_rows > cap:
            raise CapExceeded(f"order {s.n_rows} exceeds the densification cap {cap}")
        m = s.to_dense()
    else:
        m = scaled_error(s, p.Q, cap)
        m[np.diag_indices(s.n_rows)] += 1.0
        if p.W is not None:
            z = p.W.Z
            c = 1.0 / np.sqrt(1.0 + p.W.lam) - 1.0
            mz = m @ z
            m += (z * c) @ mz.T + (mz * c) @ z.T + (z * c) @ (c[:, None] * (z.T @ mz)) @ z.T
    mu = scipy.linalg.eigvalsh((m + m.T) / 2.0)
    if mu[0] <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue of P^-1 S is {mu[0]:.6g}", which="s")
    return mu


def cond2_preconditioned(s: CsrMatrix, p: Preconditioner, cap: int = DENSIFY_CAP) -> float:
    """Two-norm condition number mu_max / mu_min of the preconditioned system."""
    mu = preconditioned_spectrum(s, p, cap)
    return float(mu[-1] / mu[0])


def divergence_columns(s: CsrMatrix, p: Preconditioner, cap: int = DENSIFY_CAP):
    """Both divergence directions between the system and its preconditioner.

    Returns (D(S, P), D(P, S)); the reverse direction is what a reverse
    truncation minimizes, so tables report it for that row.
    """
    mu = preconditioned_spectrum(s, p, cap)
    return float(gamma(mu - 1.0).sum()), float(nu(mu - 1.0).sum())
