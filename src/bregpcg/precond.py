"""Preconditioner assembly and application.

Every preconditioner here has the shape P = Q (I + W) Q^T with Q a sparse
triangular factor and W a symmetric low-rank term with orthonormal columns,
which makes the inverse cheap: with d_i = lam_i / (1 + lam_i) and the
Woodbury basis Y = Q^{-T} Z, solved once when P is built,

    P^{-1} v = (Q Q^T)^{-1} v - Y diag(d) Y^T v,

one forward and one backward sweep with the factor (``chol_solve``) plus
two skinny products.

P is SPD exactly when every lam lies above -1.  ``Preconditioner`` checks
that when it is built, by a builder or directly, and derives its kind, d and
Y from Q and W; ``assemble`` and ``identity`` add default labels.

Every builder runs one pipeline, ``_low_rank_build``: it counts S-products
with one CountingOperator around Q^{-1} S Q^{-T} (``bregman.scaled_operator``),
merges the parts the builder estimates of the scaled error
E = Q^{-1} S Q^{-T} - I, assembles P and records BuildInfo.  The eigensolver
and the sketches see operators only; this module owns every map between
them and E: the minus-one shift, the shift eta and the map back from it.
Builders differ only in how they estimate each end of E:

- top: Lanczos on Q^{-1} S Q^{-T} minus 1, or Nystrom on E;
- both ends: one two-ended Lanczos run on Q^{-1} S Q^{-T} minus 1, which
  ``build_alpha`` uses at every alpha when its positive part is Krylov;
- bottom: Lanczos on eta I - Q^{-1} S Q^{-T}, mapped back to E by
  theta = (eta - 1) - lambda (``smallest_part``), for ``build_alpha`` with
  the Nystrom positive part;
- magnitude: Lanczos ranked by |theta|, or the widened indefinite Nystrom;
- exact: the dense eigendecomposition of E, truncated (no S-products).

``build`` maps a label from ``LABELS`` to its builder for the CLI and the
large suite; the factor alone (``ichol``) comes from ``harness.factor_stage``.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import sketch as sketch_mod
from .bregman import DENSIFY_CAP, LowRank, scaled_error, scaled_operator, select_indices, truncate
from .dense_kernels import sym_eig, thin_qr
from .eigsolve import CountingOperator, EigsParams, LinearOperator, lanczos_tr
from .errors import InfeasibleLowRank, NoConvergence
from .sparse_core import CholFactor, CsrMatrix, chol_solve, tri_solve

POSITIVE_PART_METHODS = ("krylov_schur", "nystrom")

FEASIBILITY_MARGIN = 1e-12

ETA_MARGIN = 1.01


@dataclass
class BuildInfo:
    """Construction accounting: S-products consumed, wall time, and notes."""

    matvecs_s: int = 0
    seconds: float = 0.0
    notes: tuple = ()


@dataclass(eq=False)
class Preconditioner:
    """P = Q (I + W) Q^T, or the identity when Q is None.

    Construction is the one place that checks I + W: a low-rank eigenvalue
    with 1 + lam at or below ``FEASIBILITY_MARGIN`` raises InfeasibleLowRank.
    Directions whose Woodbury weight lam / (1 + lam) is exactly zero change
    nothing and are dropped, and a term left with none becomes W = None.
    The weights and the basis Y = Q^{-T} Z are derived here, so that block
    solve counts as construction.
    """

    Q: CholFactor | None = None
    W: LowRank | None = None
    label: str = ""
    build_info: BuildInfo = field(default_factory=BuildInfo)
    woodbury_diag: np.ndarray | None = field(default=None, init=False, repr=False)
    Y: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        w = self.W
        if w is None:
            return
        if self.Q is None:
            raise ValueError("a low-rank term needs a factor")
        if w.n != self.Q.n:
            raise ValueError("low-rank term and factor orders differ")
        if np.any(1.0 + w.lam <= FEASIBILITY_MARGIN):
            raise InfeasibleLowRank(
                f"low-rank eigenvalue {w.lam.min():.9g} makes I + W indefinite"
            )
        diag = w.lam / (1.0 + w.lam)
        keep = diag != 0.0
        if not keep.any():
            self.W = None
            return
        if not keep.all():
            self.W, diag = LowRank(w.Z[:, keep], w.lam[keep]), diag[keep]
        self.woodbury_diag = diag
        self.Y = tri_solve(self.Q, self.W.Z, transposed=True)

    @property
    def kind(self) -> str:
        """"identity", "factor_only" or "factor_low_rank"."""
        if self.Q is None:
            return "identity"
        return "factor_only" if self.W is None else "factor_low_rank"

    @property
    def n(self) -> int:
        if self.Q is None:
            raise ValueError("identity preconditioner has no fixed order")
        return self.Q.n

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        return apply_inverse(self, v)

    def to_dense(self) -> np.ndarray:
        """Materialize P = Q (I + W) Q^T densely."""
        if self.Q is None:
            raise ValueError("identity preconditioner needs a dimension to densify")
        q = self.Q.to_dense()
        inner = np.eye(self.Q.n)
        if self.W is not None:
            inner = inner + self.W.as_dense()
        return q @ inner @ q.T


def identity(label: str = "none") -> Preconditioner:
    return Preconditioner(label=label)


def assemble(q: CholFactor, w: LowRank | None = None, label: str = "") -> Preconditioner:
    """P = q (I + w) q^T, labelled "factor" or "factor+lowrank" unless
    ``label`` is given; ``Preconditioner`` checks and trims w."""
    p = Preconditioner(Q=q, W=w, label=label)
    p.label = label or ("factor" if p.W is None else "factor+lowrank")
    return p


def apply_inverse(p: Preconditioner, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if p.Q is None:
        return v.copy()
    if v.shape != (p.Q.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({p.Q.n},)")
    # chol_solve returns a fresh array, so it may be updated in place
    x = chol_solve(p.Q, v)
    if p.W is not None:
        x -= p.Y @ (p.woodbury_diag * (p.Y.T @ v))
    return x


def _recompress(parts: list[LowRank], n: int) -> LowRank:
    """Merge low-rank blocks into one term with orthonormal columns; rank-0
    blocks are dropped, and nothing left gives the empty term."""
    parts = [p for p in parts if p.rank]
    if not parts:
        return LowRank.empty(n)
    if len(parts) == 1:
        return parts[0]
    z_all = np.hstack([p.Z for p in parts])
    lam_all = np.concatenate([p.lam for p in parts])
    q_merge, r_merge = thin_qr(z_all)
    small = (r_merge * lam_all) @ r_merge.T
    merged = sym_eig(small)
    return LowRank(q_merge @ merged.vectors, merged.values)


def _minus_identity(op: LinearOperator) -> LinearOperator:
    """v -> op(v) - v; on the scaled operator, the scaled error."""
    return LinearOperator(op.dimension, lambda v: op.apply(v) - v)


def _low_rank_build(s: CsrMatrix, q: CholFactor, label: str, estimate) -> Preconditioner:
    """The one build pipeline: ``estimate(scaled, notes)`` returns low-rank
    parts in scaled-error units, which are merged and assembled on q."""
    started = time.perf_counter()
    scaled = CountingOperator(scaled_operator(s, q))  # one S-product per apply
    notes = []
    w = _recompress(estimate(scaled, notes), s.n_rows)
    built = assemble(q, w, label=label)
    built.build_info = BuildInfo(
        matvecs_s=scaled.count, seconds=time.perf_counter() - started, notes=tuple(notes)
    )
    return built


def _lanczos(op, want, params, notes, allow_partial, which="largest", bottom=0):
    """lanczos_tr; with ``allow_partial`` a NoConvergence becomes a note and
    its partial estimate is returned."""
    try:
        return lanczos_tr(op, want, params, which=which, bottom=bottom)
    except NoConvergence as exc:
        if not allow_partial:
            raise
        notes.append(f"partial:{exc.estimate.converged_count}/{want + bottom}")
        return exc.estimate


def _bottom(scaled, r, eta, params, notes, allow_partial) -> LowRank:
    """Bottom of the scaled error: the top of eta*I - Q^{-1} S Q^{-T}, mapped
    back by theta = (eta - 1) - lambda.  Any eta gives the bottom (see
    ``smallest_part``); it sets only the scale of the per-pair test."""
    shifted = LinearOperator(scaled.dimension, lambda v: eta * v - scaled.apply(v))
    est = _lanczos(shifted, r, params, notes, allow_partial)
    return LowRank(est.vectors, (eta - 1.0) - est.values)


def smallest_part(s: CsrMatrix, q: CholFactor, r_minus: int, eta: float, params: EigsParams) -> LowRank:
    """Smallest eigenpairs of the scaled error, reached through the shift.

    Lanczos ranks eta*I - Q^{-1} S Q^{-T} from its top, which is the bottom
    of Q^{-1} S Q^{-T} for every eta, and a shift leaves the Krylov space
    unchanged; each Ritz value of the shifted operator lies in
    [eta - a_max, eta - a_min], so for SPD S every value mapped back is at
    least a_min - 1 > -1, whatever eta is.  The shift does not decide
    correctness: it sets only the scale of the per-pair test tol * |theta|,
    and so how many operator applications a run takes.  Only operator
    applications are used, never inner solves.
    """
    return _bottom(scaled_operator(s, q), r_minus, eta, params, [], allow_partial=False)


def build_exact(
    s: CsrMatrix, q: CholFactor, r: int, rule: str, cap: int = DENSIFY_CAP, label: str = ""
) -> Preconditioner:
    """Truncation preconditioner from the dense scaled-error eigendecomposition."""

    def estimate(scaled, notes):
        notes.append("dense-exact")
        decomp = sym_eig(scaled_error(s, q, cap=cap))
        return [truncate(decomp, select_indices(decomp.values, r, rule))]

    return _low_rank_build(s, q, label or rule, estimate)


def build_alpha(
    s: CsrMatrix,
    q: CholFactor,
    r: int,
    alpha: float,
    eig_params: EigsParams,
    positive_method: str = "krylov_schur",
    sketch_params=None,
    allow_partial: bool = False,
    label: str = "",
) -> Preconditioner:
    """Split-rank preconditioner: floor(alpha*r) directions from the top of
    the scaled error, the rest from the bottom.

    With the Krylov positive part, one two-ended Lanczos run on
    Q^{-1} S Q^{-T} gives both sides at every alpha (with no top pairs when
    alpha*r < 1); its Ritz values lie inside the operator's spectrum, so
    every value it maps back is above -1.  With the Nystrom positive part,
    the bottom comes from a run on the shifted operator, whose shift is the
    top Ritz value of a short one-pair probe run inflated by its residual
    norm and a one percent margin (it scales the convergence test; see
    ``smallest_part``).
    Without ``sketch_params`` the Nystrom part uses ``SketchParams(seed=eig_params.seed)``.
    ``allow_partial`` downgrades eigensolver NoConvergence to a note
    and continues with the partial estimates.
    """
    if positive_method not in POSITIVE_PART_METHODS:
        raise ValueError(f"unknown positive-part method {positive_method!r}")
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    r_plus = int(math.floor(alpha * r))
    r_minus = r - r_plus

    def estimate(scaled, notes):
        if positive_method == "krylov_schur":
            both = _lanczos(scaled, r_plus, eig_params, notes, allow_partial, bottom=r_minus)
            return [LowRank(both.vectors, both.values - 1.0)]
        parts = []
        if r_plus:
            params = sketch_params or sketch_mod.SketchParams(seed=eig_params.seed)
            parts.append(sketch_mod.nystrom(_minus_identity(scaled), r_plus, params))
        if r_minus:
            probe = _lanczos(scaled, 1, eig_params, notes, allow_partial)
            notes.append("eta-probe")
            eta = (float(probe.values[0]) + float(probe.residual_norms[0])) * ETA_MARGIN
            parts.append(_bottom(scaled, r_minus, eta, eig_params, notes, allow_partial))
        return parts

    return _low_rank_build(s, q, label or f"alpha={alpha}", estimate)


def build_randomized(
    s: CsrMatrix,
    q: CholFactor,
    r: int,
    variant: str = "nystrom",
    sketch_params=None,
    label: str = "",
) -> Preconditioner:
    """Sketched preconditioner: Nystrom (or its indefinite widening) of the
    scaled error.  A sketch that misestimates an eigenvalue near -1 surfaces
    as InfeasibleLowRank; nothing is repaired here."""
    if variant not in ("nystrom", "nystrom_indefinite"):
        raise ValueError(f"unknown sketch variant {variant!r}")

    def estimate(scaled, notes):
        sketch = sketch_mod.nystrom if variant == "nystrom" else sketch_mod.nystrom_indefinite
        return [sketch(_minus_identity(scaled), r, sketch_params)]

    return _low_rank_build(s, q, label or variant, estimate)


def build_svd_krylov(
    s: CsrMatrix,
    q: CholFactor,
    r: int,
    eig_params: EigsParams,
    allow_partial: bool = False,
    label: str = "",
) -> Preconditioner:
    """Magnitude truncation of the scaled error estimated by one Lanczos run."""

    def estimate(scaled, notes):
        est = _lanczos(_minus_identity(scaled), r, eig_params, notes, allow_partial, which="magnitude")
        return [LowRank(est.vectors, est.values)]

    return _low_rank_build(s, q, label or "svd_ks", estimate)


# Every label ``build`` maps to a builder, in the large suite's row order.
LABELS = ("nys", "nys_indef", "svd_ks", "breg_alpha", "breg", "rbreg", "svd")
# The exact truncations and their selection rules, in the small suite's column order.
EXACT_RULES = {"rbreg": "rbld", "svd": "tsvd", "breg": "bld"}
_SKETCH_VARIANTS = {"nys": "nystrom", "nys_indef": "nystrom_indefinite"}


def build(
    label: str,
    s: CsrMatrix,
    q: CholFactor,
    r: int,
    *,
    alpha: float = 0.5,
    eig: EigsParams | None = None,
    sketch=None,
    positive_method: str = "krylov_schur",
    cap: int = DENSIFY_CAP,
) -> Preconditioner:
    """Build the preconditioner a label from ``LABELS`` names, on the factor q.

    ``breg``, ``rbreg`` and ``svd`` are exact truncations under ``cap``;
    ``nys`` and ``nys_indef`` sketch with ``sketch``; ``svd_ks`` and
    ``breg_alpha`` run Lanczos with ``eig`` (``breg_alpha`` splits r by
    ``alpha`` and takes its positive part by ``positive_method``, Krylov by
    default as in ``build_alpha``; the commands pass
    ``harness.POSITIVE_PART``).  Krylov builds keep partial estimates as
    notes.
    """
    eig = eig or EigsParams()
    if label in EXACT_RULES:
        return build_exact(s, q, r, EXACT_RULES[label], cap=cap, label=label)
    if label in _SKETCH_VARIANTS:
        return build_randomized(s, q, r, _SKETCH_VARIANTS[label], sketch, label=label)
    if label == "svd_ks":
        return build_svd_krylov(s, q, r, eig, allow_partial=True, label=label)
    if label == "breg_alpha":
        return build_alpha(
            s, q, r, alpha, eig, positive_method=positive_method, sketch_params=sketch,
            allow_partial=True, label=label,
        )
    raise ValueError(f"unknown preconditioner {label!r}; expected one of {', '.join(LABELS)}")
