import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.sparse
from scipy.linalg import hilbert

import bregpcg

from bregpcg import (
    CapExceeded,
    CholFactor,
    CsrMatrix,
    EigsParams,
    IndefinitePreconditionerDetected,
    NoConvergence,
    NotPositiveDefinite,
    SketchParams,
    assemble,
    build_alpha,
    build_exact,
    build_randomized,
    build_svd_krylov,
    cond2_preconditioned,
    divergence_columns,
    divergence_ld,
    ic0,
    identity,
    make_rhs,
    pcg_solve,
)
import bregpcg.pcg as pcg_module
from bregpcg.pcg import preconditioned_spectrum
from conftest import bumped_band, dynamic_arch_openblas


def band(n, **kw):
    return CsrMatrix.from_dense(bumped_band(n, **kw))


def shifted_laplacian(m):
    """The five-point Laplacian on an m x m grid plus 0.01 I."""
    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    return CsrMatrix.from_scipy(scipy.sparse.kronsum(t, t) + 0.01 * scipy.sparse.identity(m * m))


def test_identity_system_converges_immediately():
    s = CsrMatrix.from_dense(np.eye(8))
    b = np.arange(1.0, 9.0)
    x, rep = pcg_solve(s, b, identity(), tol=1e-12)
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(x, b, atol=1e-14)
    assert rep.rel_residual_history[0] == 1.0


def test_exact_completion_solves_in_few_iterations():
    gen = np.random.default_rng(2)
    n, r = 200, 6
    low = np.tril(gen.standard_normal((n, n)), -1)
    low[np.abs(low) < 1.2] = 0.0
    low = 0.25 * low + np.diag(gen.uniform(1.0, 2.0, size=n))
    z, _ = np.linalg.qr(gen.standard_normal((n, r)))
    lam = gen.uniform(-0.5, 1.2, size=r)
    s_dense = low @ (np.eye(n) + (z * lam) @ z.T) @ low.T
    s = CsrMatrix.from_dense((s_dense + s_dense.T) / 2.0)
    fac = CholFactor(CsrMatrix.from_dense(low))
    p = build_exact(s, fac, r, "bld")
    b = gen.standard_normal(n)
    x, rep = pcg_solve(s, b, p, tol=1e-10)
    assert rep.converged
    assert rep.iterations <= 3
    np.testing.assert_allclose(s.to_dense() @ x, b, atol=1e-8 * np.linalg.norm(b))


def every_variant(s, fac, r, seed):
    eig = EigsParams(tol=1e-8, slack=30, seed=seed)
    sk = SketchParams(oversample=30, seed=seed)
    yield identity()
    yield assemble(fac, None, label="ichol")
    for rule in ("bld", "rbld", "tsvd"):
        yield build_exact(s, fac, r, rule)
    yield build_alpha(s, fac, r, 0.5, eig)
    yield build_svd_krylov(s, fac, r, eig)
    yield build_randomized(s, fac, r, "nystrom", sk)
    yield build_randomized(s, fac, r, "nystrom_indefinite", sk)


def test_all_variants_match_dense_solve():
    s = band(150, seed=4)
    fac = ic0(s)
    dense = s.to_dense()
    gen = np.random.default_rng(5)
    b = gen.standard_normal(150)
    exact = np.linalg.solve(dense, b)
    scale = np.linalg.norm(exact)
    for p in every_variant(s, fac, 5, seed=6):
        x, rep = pcg_solve(s, b, p, tol=1e-12, maxit=400)
        assert rep.converged, p.label
        assert np.linalg.norm(x - exact) <= 1e-8 * scale, p.label


@pytest.mark.xfail(strict=True, raises=NoConvergence, reason="the restart drops the twin of a wanted pair")
def test_alpha_build_converges_when_its_wanted_set_splits_a_pair():
    # the scaled error's third and fourth largest eigenvalues are 0.19601733
    # and 0.19601714, and three top pairs split them: a thick restart keeps
    # the wanted and the converged pairs only, so it throws the unconverged
    # twin of the third away at every restart, and that pair never reaches
    # tol.  r = 4 and r = 8 converge
    s = shifted_laplacian(20)
    build_alpha(s, ic0(s), 6, 0.5, EigsParams(tol=1e-8, slack=30, seed=1))


def test_matvec_accounting_is_exact(monkeypatch):
    calls = {"n": 0}
    real_spmv = pcg_module.spmv

    def counting_spmv(a, v):
        calls["n"] += 1
        return real_spmv(a, v)

    monkeypatch.setattr(pcg_module, "spmv", counting_spmv)
    s = band(60, seed=7)
    b = np.random.default_rng(8).standard_normal(60)
    p = assemble(ic0(s), None, label="ichol")
    x, rep = pcg_solve(s, b, p, tol=1e-10, maxit=200)
    assert rep.converged
    assert rep.matvecs_S == calls["n"]
    # every true-residual verification beyond the iteration products
    # is visible in the count
    assert rep.matvecs_S > rep.iterations
    checkpoints = rep.iterations // 25
    assert rep.matvecs_S <= rep.iterations + checkpoints + 2


def test_single_true_check_on_clean_convergence(monkeypatch):
    calls = {"n": 0}
    real_spmv = pcg_module.spmv

    def counting_spmv(a, v):
        calls["n"] += 1
        return real_spmv(a, v)

    monkeypatch.setattr(pcg_module, "spmv", counting_spmv)
    s = CsrMatrix.from_dense(np.diag([2.0, 3.0, 5.0]))
    b = np.array([1.0, 1.0, 1.0])
    x, rep = pcg_solve(s, b, identity(), tol=1e-12)
    assert rep.converged and rep.iterations < 25
    assert rep.matvecs_S == rep.iterations + 1
    assert rep.matvecs_S == calls["n"]
    assert not rep.residual_discrepancy


def test_maxit_reason_and_final_residual():
    s = band(80, seed=9)
    b = np.random.default_rng(10).standard_normal(80)
    x, rep = pcg_solve(s, b, identity(), tol=1e-14, maxit=3)
    assert not rep.converged
    assert rep.reason == "maxit"
    assert rep.iterations == 3
    true_rel = np.linalg.norm(b - s.to_dense() @ x) / np.linalg.norm(b)
    assert abs(rep.final_rel_residual - true_rel) <= 1e-12


def test_stagnation_reason_on_hopeless_system():
    n = 16
    s = CsrMatrix.from_dense(hilbert(n) + 1e-14 * np.eye(n))
    b = np.ones(n) / np.sqrt(n)
    x, rep = pcg_solve(s, b, identity(), tol=1e-15, maxit=2000)
    assert not rep.converged
    assert rep.reason == "stagnation"
    assert rep.iterations < 2000


class _NegatedIdentity:
    """P^-1 v = -v: pcg_solve reads only ``apply_inverse`` and ``label``, so this
    stands in for an indefinite P that ``Preconditioner`` refuses to build."""

    label = "negated"

    def apply_inverse(self, v):
        return -v


def test_indefinite_preconditioner_detected():
    n = 5
    s = CsrMatrix.from_dense(np.eye(n))
    with pytest.raises(IndefinitePreconditionerDetected, match="at iteration 0"):
        pcg_solve(s, np.ones(n), _NegatedIdentity(), tol=1e-10)


class _NanFrom:
    """P^-1 v = v until call ``first``, NaN from there on: a non-finite
    preconditioner output, which ``<z, r> <= 0`` let through."""

    label = "nan"

    def __init__(self, first):
        self.first, self.calls = first, 0

    def apply_inverse(self, v):
        self.calls += 1
        return v.copy() if self.calls <= self.first else np.full_like(v, np.nan)


@pytest.mark.parametrize("first", [0, 3])
def test_nan_preconditioner_output_is_detected_where_it_appears(first):
    s = CsrMatrix.from_dense(4.0 * np.eye(10) - np.eye(10, k=1) - np.eye(10, k=-1))
    with pytest.raises(IndefinitePreconditionerDetected, match=f"<z, r> = nan at iteration {first}$"):
        pcg_solve(s, np.arange(1.0, 11.0), _NanFrom(first), tol=1e-12, maxit=50)


@pytest.mark.parametrize("second", [0.0, -1.0], ids=["zero", "negative"])
def test_nonpositive_curvature_is_a_typed_error(second):
    # b points along the second axis, so <d, S d> = second at iteration 1
    s = CsrMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, second])
    with pytest.raises(NotPositiveDefinite, match="at iteration 1") as info:
        pcg_solve(s, np.array([0.0, 1.0]), identity(), tol=1e-10)
    assert info.value.which == "s"


def test_ichol_pcg_golden_laplacian():
    # 50x50 five-point Laplacian + 0.01 I; the counts and the residual bits
    # are pinned so that faster kernels must reproduce the same arithmetic
    # (the bits are those of chol_solve's two unit sweeps with the division
    # by d^2 between them, on the BLAS-free ic0 factor, and of the loop's
    # BLAS updates on one OpenBLAS core type: see the test below)
    m = 50
    s = shifted_laplacian(m)
    p = assemble(ic0(s), None, label="ichol")
    _, rep = pcg_solve(s, make_rhs(m * m, 0), p, tol=1e-10, maxit=2000)
    assert rep.converged
    assert rep.iterations == 53
    assert rep.matvecs_S == 56
    assert rep.final_rel_residual == 7.473133681684328e-11


def test_plain_cg_golden_laplacian():
    # same problem as above without a preconditioner; pins the loop's
    # daxpy and dscal updates and its dot products on one OpenBLAS core
    # type: with OPENBLAS_CORETYPE=Prescott, whose daxpy does not fuse, the
    # residual reads 8.246888930100133e-11.  The counts hold on every core
    # type measured
    m = 50
    s = shifted_laplacian(m)
    b = make_rhs(m * m, 0)
    b_before = b.copy()
    _, rep = pcg_solve(s, b, identity(), tol=1e-10, maxit=2000)
    assert rep.converged
    assert rep.iterations == 159
    assert rep.matvecs_S == 166
    assert rep.final_rel_residual == 8.246888864106131e-11
    np.testing.assert_array_equal(b, b_before)


class _CopyingIdentity:
    """P^-1 v = v through ``apply_inverse``: the general path of the loop."""

    label = "copying"

    def apply_inverse(self, v):
        return v.copy()


@pytest.mark.parametrize("tol, maxit", [(1e-10, 2000), (1e-14, 60)], ids=["converged", "maxit"])
def test_identity_path_is_bitwise_the_general_path(tol, maxit):
    # identity() skips apply_inverse and reuses r.r; the iterates, the
    # history and the report must not notice
    m = 30
    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    s = CsrMatrix.from_scipy(scipy.sparse.kronsum(t, t) + 0.01 * scipy.sparse.identity(m * m))
    b = make_rhs(m * m, 3)
    x_lean, lean = pcg_solve(s, b, identity(), tol=tol, maxit=maxit)
    x_general, general = pcg_solve(s, b, _CopyingIdentity(), tol=tol, maxit=maxit)
    np.testing.assert_array_equal(x_lean, x_general)
    assert lean.rel_residual_history == general.rel_residual_history
    assert (lean.iterations, lean.matvecs_S, lean.final_rel_residual, lean.reason) == (
        general.iterations, general.matvecs_S, general.final_rel_residual, general.reason
    )


def _numpy_daxpy(x, y, n=None, a=1.0):
    # y + a x as the loop formed it before its BLAS calls: the product is
    # rounded into a buffer, then added (r - step Sd is r + (-step) Sd
    # bitwise); the loop's n is always the full length
    assert n in (None, len(y))
    y += np.multiply(x, a)
    return y


def _numpy_dscal(a, x):
    x *= a
    return x


def solve_with_both_updates(s, b, p):
    """pcg_solve with its BLAS updates, then with the numpy updates they replaced."""
    blas = pcg_solve(s, b, p, tol=1e-10, maxit=2000)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pcg_module, "daxpy", _numpy_daxpy)
        patch.setattr(pcg_module, "dscal", _numpy_dscal)
        return blas, pcg_solve(s, b, p, tol=1e-10, maxit=2000)


def update_cases():
    """Plain CG and ichol-PCG at n = 2,500, and a Krylov breg_alpha build at n = 400."""
    s = shifted_laplacian(50)
    b = make_rhs(s.n_rows, 0)
    small = shifted_laplacian(20)
    alpha = build_alpha(small, ic0(small), 8, 0.5, EigsParams(tol=1e-8, slack=30, seed=1))
    return [
        ("none", s, b, identity()),
        ("ichol", s, b, assemble(ic0(s), None, label="ichol")),
        ("breg_alpha", small, make_rhs(small.n_rows, 1), alpha),
    ]


def test_blas_updates_keep_the_counts_of_the_numpy_updates():
    # daxpy rounds a x + y once where OpenBLAS fuses it, so the final true
    # residuals move by some 5e-7 relative (they sit at roundoff level) but
    # the counts must not move.  The recurrence histories differed by at
    # most 1.5e-13 relative under the native, Haswell and Prescott kernels
    # and with numpy's AVX-512 kernels off
    for label, s, b, p in update_cases():
        (_, blas), (_, numpy_) = solve_with_both_updates(s, b, p)
        assert blas.converged and numpy_.converged, label
        assert (blas.iterations, blas.matvecs_S) == (numpy_.iterations, numpy_.matvecs_S), label
        np.testing.assert_allclose(
            blas.rel_residual_history, numpy_.rel_residual_history, rtol=1e-12, atol=0, err_msg=label
        )


_COMPARE_UPDATES = """
import hashlib, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from scipy.linalg.blas import daxpy
from test_pcg import solve_with_both_updates, update_cases
gen = np.random.default_rng(0)
x, y = gen.standard_normal(1001), gen.standard_normal(1001)
probe = hashlib.sha1(daxpy(x, y, a=0.1).tobytes()).hexdigest()
same = True
for label, s, b, p in update_cases():
    (x_blas, blas), (x_numpy, numpy_) = solve_with_both_updates(s, b, p)
    same &= np.array_equal(x_blas, x_numpy)
    same &= blas.rel_residual_history == numpy_.rel_residual_history
    same &= blas.final_rel_residual == numpy_.final_rel_residual
print(probe, same)
"""


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not dynamic_arch_openblas(np, scipy),
    reason="needs numpy and scipy on a DYNAMIC_ARCH OpenBLAS on x86-64",
)
def test_blas_updates_are_the_numpy_updates_where_daxpy_does_not_fuse():
    # Prescott's daxpy rounds the product and the sum apart, as numpy does,
    # so there the single rounding of a fused kernel is the only change
    paths = [
        os.path.dirname(os.path.dirname(os.path.abspath(bregpcg.__file__))),
        os.path.dirname(os.path.abspath(__file__)),
    ]
    runs = {}
    for core in (None, "Prescott"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["OPENBLAS_NUM_THREADS"] = "1"
        if core:
            env["OPENBLAS_CORETYPE"] = core
        out = subprocess.run(
            [sys.executable, "-c", _COMPARE_UPDATES, *paths],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        runs[core] = out.stdout.split()
    if runs[None][0] == runs["Prescott"][0]:
        pytest.skip("OPENBLAS_CORETYPE=Prescott did not change daxpy here")
    assert runs["Prescott"][1] == "True"


class _ReturningIdentity:
    """P^-1 v = v, returned as the argument itself."""

    label = "returning"

    def apply_inverse(self, v):
        return v


class _StridedIdentity:
    """P^-1 v = v, returned as a strided view of a fresh array."""

    label = "strided"

    def apply_inverse(self, v):
        return np.repeat(v, 2)[::2]


def test_loop_only_reads_what_the_preconditioner_returns():
    # the first direction is a copy of z, so z may be the residual itself
    s = shifted_laplacian(30)
    b = make_rhs(s.n_rows, 3)
    b_before = b.copy()
    x_returning, returning = pcg_solve(s, b, _ReturningIdentity(), tol=1e-10, maxit=2000)
    x_copying, copying = pcg_solve(s, b, _CopyingIdentity(), tol=1e-10, maxit=2000)
    assert returning.converged
    np.testing.assert_array_equal(x_returning, x_copying)
    assert returning.rel_residual_history == copying.rel_residual_history
    assert (returning.iterations, returning.matvecs_S, returning.final_rel_residual) == (
        copying.iterations, copying.matvecs_S, copying.final_rel_residual
    )
    np.testing.assert_array_equal(b, b_before)


def test_strided_preconditioner_output_solves_as_a_contiguous_one():
    # daxpy reads a contiguous copy of a strided z; <r, z> runs numpy's dot
    # with a stride of 2, which sums in another order, so the bits differ:
    # the histories by at most 6e-15 relative and x by 1e-15 of its largest
    # entry at m = 20, 30 and 50
    s = shifted_laplacian(30)
    b = make_rhs(s.n_rows, 3)
    b_before = b.copy()
    x_strided, strided = pcg_solve(s, b, _StridedIdentity(), tol=1e-10, maxit=2000)
    x_copying, copying = pcg_solve(s, b, _CopyingIdentity(), tol=1e-10, maxit=2000)
    assert strided.converged
    assert (strided.iterations, strided.matvecs_S) == (copying.iterations, copying.matvecs_S)
    np.testing.assert_allclose(strided.rel_residual_history, copying.rel_residual_history, rtol=1e-13, atol=0)
    np.testing.assert_allclose(x_strided, x_copying, rtol=0, atol=1e-13 * np.abs(x_copying).max())
    np.testing.assert_array_equal(b, b_before)


def test_zero_rhs_short_circuits():
    s = band(10)
    x, rep = pcg_solve(s, np.zeros(10), identity(), tol=1e-10)
    assert rep.converged and rep.iterations == 0
    np.testing.assert_array_equal(x, np.zeros(10))
    assert rep.matvecs_S == 0


def test_history_shape_and_start():
    s = band(50, seed=11)
    b = np.random.default_rng(12).standard_normal(50)
    x, rep = pcg_solve(s, b, assemble(ic0(s), None), tol=1e-10, maxit=300)
    assert rep.rel_residual_history[0] == 1.0
    assert len(rep.rel_residual_history) == rep.iterations + 1


def test_input_validation():
    s = band(6)
    with pytest.raises(ValueError):
        pcg_solve(s, np.zeros(5), identity())
    rect = CsrMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError):
        pcg_solve(rect, np.zeros(2), identity())


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan")])
def test_negative_tol_is_rejected(tol):
    # a tol below 0 is never met: the run went on to an exactly zero
    # residual, where the <z, r> check blamed the preconditioner
    s = band(40, seed=3)
    b = np.random.default_rng(5).standard_normal(40)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        pcg_solve(s, b, assemble(ic0(s), None), tol=tol, maxit=200)


def test_energy_norm_error_is_monotone():
    # iterates are deterministic, so truncated reruns reproduce the
    # intermediate iterates exactly
    s = band(70, seed=13)
    dense = s.to_dense()
    b = np.random.default_rng(14).standard_normal(70)
    exact = np.linalg.solve(dense, b)
    p = assemble(ic0(s), None)
    _, full = pcg_solve(s, b, p, tol=1e-12, maxit=120)
    errors = []
    for k in range(1, full.iterations + 1):
        xk, _ = pcg_solve(s, b, p, tol=0.0, maxit=k)
        diff = xk - exact
        errors.append(float(np.sqrt(diff @ (dense @ diff))))
    for prev, cur in zip(errors, errors[1:]):
        assert cur <= prev * (1.0 + 1e-10)


def test_cond2_identity_preconditioner_is_condition_number():
    dense = np.diag([1.0, 4.0, 100.0])
    s = CsrMatrix.from_dense(dense)
    got = cond2_preconditioned(s, identity())
    assert abs(got - 100.0) <= 1e-10


def test_cond2_exact_preconditioner_is_one():
    gen = np.random.default_rng(15)
    n = 40
    low = np.tril(gen.standard_normal((n, n)), -1) * 0.2 + np.eye(n)
    dense = low @ low.T
    s = CsrMatrix.from_dense(dense)
    p = assemble(CholFactor(CsrMatrix.from_dense(low)), None)
    assert abs(cond2_preconditioned(s, p) - 1.0) <= 1e-8


def test_cond2_matches_dense_oracle():
    s = band(60, seed=16)
    fac = ic0(s)
    p = assemble(fac, None)
    got = cond2_preconditioned(s, p)
    q = fac.L.to_dense()
    scaled = np.linalg.solve(q, np.linalg.solve(q, s.to_dense()).T).T
    vals = np.linalg.eigvalsh((scaled + scaled.T) / 2.0)
    assert abs(got - vals[-1] / vals[0]) <= 1e-8 * (vals[-1] / vals[0])


def test_divergence_columns_zero_for_exact():
    gen = np.random.default_rng(17)
    low = np.tril(gen.standard_normal((20, 20)), -1) * 0.2 + np.eye(20)
    s = CsrMatrix.from_dense(low @ low.T)
    p = assemble(CholFactor(CsrMatrix.from_dense(low)), None)
    fwd, rev = divergence_columns(s, p)
    assert abs(fwd) <= 1e-9 and abs(rev) <= 1e-9


def test_divergence_columns_worked_example():
    theta = np.array([1.0, 0.72, 0.54, 0.5, 0.18, -0.3, -0.4, -0.46])
    s = CsrMatrix.from_dense(np.diag(1.0 + theta))
    fac = CholFactor(CsrMatrix.from_dense(np.eye(8)))
    fwd_bld, rev_bld = divergence_columns(s, build_exact(s, fac, 4, "bld"))
    fwd_tsvd, rev_tsvd = divergence_columns(s, build_exact(s, fac, 4, "tsvd"))
    assert abs(rev_bld - 0.2381) <= 1e-3
    assert abs(rev_tsvd - 0.4764) <= 1e-3
    assert fwd_bld < fwd_tsvd
    # both columns agree with the dense definition
    p = build_exact(s, fac, 4, "bld")
    assert abs(fwd_bld - divergence_ld(s.to_dense(), p.to_dense())) <= 1e-12
    assert abs(rev_bld - divergence_ld(p.to_dense(), s.to_dense())) <= 1e-12


def test_report_carries_label():
    s = band(30)
    p = assemble(ic0(s), None, label="ichol")
    _, rep = pcg_solve(s, np.ones(30), p, tol=1e-10, maxit=200)
    assert rep.preconditioner_label == "ichol"


def dense_spectrum_oracle(s, p):
    """cond and both divergences from the materialized P and its Cholesky factor."""
    s_dense, p_dense = s.to_dense(), p.to_dense()
    lp = np.linalg.cholesky(p_dense)
    scaled = np.linalg.solve(lp, np.linalg.solve(lp, s_dense).T)
    vals = np.linalg.eigvalsh((scaled + scaled.T) / 2.0)
    return vals[-1] / vals[0], divergence_ld(s_dense, p_dense), divergence_ld(p_dense, s_dense)


@pytest.mark.parametrize("kind", ["factor", "rbld", "svd_krylov"])
def test_spectrum_matches_dense_definitions(kind):
    s = band(120)
    fac = ic0(s)
    if kind == "factor":
        p = assemble(fac, None)
    elif kind == "rbld":
        p = build_exact(s, fac, 6, "rbld")
        assert p.W.lam.min() < 0.0
    else:  # Ritz vectors, not exact eigenvectors
        p = build_svd_krylov(s, fac, 6, EigsParams(tol=1e-8, slack=30, seed=3))
    cond, forward, reverse = dense_spectrum_oracle(s, p)
    mu = preconditioned_spectrum(s, p)
    assert np.all(np.diff(mu) >= 0.0)
    assert cond2_preconditioned(s, p) == pytest.approx(cond, rel=1e-10)
    got_forward, got_reverse = divergence_columns(s, p)
    assert got_forward == pytest.approx(forward, rel=1e-10)
    assert got_reverse == pytest.approx(reverse, rel=1e-10)


def test_spectrum_rejects_indefinite_system():
    s = CsrMatrix.from_dense(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite) as info:
        cond2_preconditioned(s, identity())
    assert info.value.which == "s"
    with pytest.raises(NotPositiveDefinite) as info:
        divergence_columns(s, identity())
    assert info.value.which == "s"


@pytest.mark.parametrize("kind", ["identity", "factor"])
def test_spectrum_respects_cap(kind):
    s = band(30)
    p = identity() if kind == "identity" else assemble(ic0(s), None)
    with pytest.raises(CapExceeded):
        cond2_preconditioned(s, p, cap=29)
    with pytest.raises(CapExceeded):
        divergence_columns(s, p, cap=29)
    assert len(preconditioned_spectrum(s, p, cap=30)) == 30
