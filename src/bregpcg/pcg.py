"""Preconditioned conjugate gradients and spectral diagnostics.

The solver starts from x0 = 0, monitors the recurrence residual, and guards
it with true-residual recomputations: every ``true_res_every`` iterations,
whenever the recurrence claims convergence, and at termination.  The
reported final residual is always a true one.  Matrix products are counted
exactly: one per iteration plus one per true-residual recomputation.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .bregman import divergence_ld
from .dense_kernels import dense_cholesky, sym_eig
from .errors import CapExceeded, IndefinitePreconditionerDetected, NotPositiveDefinite
from .precond import KIND_IDENTITY, Preconditioner
from .sparse_core import CsrMatrix, spmv

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
    r: int | None = None
    alpha: float | None = None
    reason: str | None = None  # "maxit" or "stagnation" when not converged
    residual_discrepancy: bool = False
    time_construct_s: float = 0.0
    time_solve_s: float = 0.0
    initial_guess: str = "zero"
    notes: tuple = field(default_factory=tuple)


def pcg_solve(
    s: CsrMatrix,
    b: np.ndarray,
    p: Preconditioner,
    tol: float = 1e-10,
    maxit: int = 100,
    true_res_every: int = 25,
):
    """Run PCG on S x = b from x0 = 0.

    Convergence is declared at the first iterate whose *true* relative
    residual is at or below ``tol``; the cheap recurrence residual only
    decides when to check.  A recurrence/true mismatch larger than 10x tol
    is flagged on the report.  Stagnation is declared when the true residual
    has not decreased by at least 10 machine epsilons over 50 iterations.

    Raises NotPositiveDefinite (``which="s"``) when a search direction has
    nonpositive curvature ``<d, S d>``, which an SPD ``S`` rules out, and
    IndefinitePreconditionerDetected when ``<z, r> <= 0``.

    Returns (x, SolveReport).
    """
    b = np.asarray(b, dtype=np.float64)
    if s.n_rows != s.n_cols:
        raise ValueError("matrix must be square")
    if b.shape != (s.n_rows,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({s.n_rows},)")
    started = time.perf_counter()
    b_norm = float(np.linalg.norm(b))
    matvecs = 0

    def true_rel(x):
        nonlocal matvecs
        matvecs += 1
        return float(np.linalg.norm(b - spmv(s, x)) / b_norm)

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

    x = np.zeros(s.n_rows)
    residual = b.copy()
    history = [1.0]
    z = p.apply_inverse(residual)
    rho = float(residual @ z)
    if rho <= 0.0:
        raise IndefinitePreconditionerDetected(f"<z, r> = {rho:.6g} at iteration 0")
    direction = z

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
        curvature = float(direction @ s_dir)
        if curvature <= 0.0:
            raise NotPositiveDefinite(f"<d, S d> = {curvature:.6g} at iteration {k}", which="s")
        step = rho / curvature
        x = x + step * direction
        residual = residual - step * s_dir
        rel = float(np.linalg.norm(residual) / b_norm)
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
        elif k % true_res_every == 0:
            checked = true_rel(x)

        if checked is not None:
            if checked <= best_true - _STAGNATION_DECREASE:
                best_true = checked
                best_true_iter = k
            elif k - best_true_iter >= _STAGNATION_WINDOW:
                reason = "stagnation"
                final_true = checked
                break

        z = p.apply_inverse(residual)
        rho_next = float(residual @ z)
        if rho_next <= 0.0:
            raise IndefinitePreconditionerDetected(f"<z, r> = {rho_next:.6g} at iteration {k}")
        direction = z + (rho_next / rho) * direction
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


def _materialize(s: CsrMatrix, p: Preconditioner, cap: int):
    if s.n_rows > cap:
        raise CapExceeded(f"order {s.n_rows} exceeds the densification cap {cap}")
    s_dense = s.to_dense()
    if p.kind == KIND_IDENTITY:
        p_dense = np.eye(s.n_rows)
    else:
        p_dense = p.to_dense()
    return s_dense, p_dense


def cond2_preconditioned(s: CsrMatrix, p: Preconditioner, cap: int = 4096) -> float:
    """Two-norm condition number of the preconditioned system.

    Forms L_P^{-1} S L_P^{-T} densely from the Cholesky factor of the
    materialized P and takes the eigenvalue ratio.
    """
    s_dense, p_dense = _materialize(s, p, cap)
    lp = dense_cholesky(p_dense)
    half = scipy.linalg.solve_triangular(lp, s_dense, lower=True)
    whole = scipy.linalg.solve_triangular(lp, half.T, lower=True)
    spectrum = sym_eig((whole + whole.T) / 2.0)
    return float(spectrum.values[0] / spectrum.values[-1])


def divergence_columns(s: CsrMatrix, p: Preconditioner, cap: int = 4096):
    """Both divergence directions between the system and its preconditioner.

    Returns (D(S, P), D(P, S)); the reverse direction is what a reverse
    truncation minimizes, so tables report it for that row.
    """
    s_dense, p_dense = _materialize(s, p, cap)
    return divergence_ld(s_dense, p_dense), divergence_ld(p_dense, s_dense)
