import itertools
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregpcg import (
    CholFactor,
    CountingOperator,
    CsrMatrix,
    EigsParams,
    InfeasibleLowRank,
    LowRank,
    Preconditioner,
    RankCollapse,
    SketchParams,
    apply_inverse,
    assemble,
    build_alpha,
    build_exact,
    build_randomized,
    build_svd_krylov,
    divergence_ld,
    ic0,
    identity,
    lanczos_tr,
    pcg_solve,
    scaled_error,
    scaled_operator,
    select_indices,
    truncate,
)
from bregpcg import eigsolve, precond, rng, sparse_core
from bregpcg import sketch as sketch_mod
from bregpcg.dense_kernels import sym_eig
from bregpcg.harness import factor_stage
from bregpcg.precond import LABELS, build
from conftest import bumped_band, laplacian_2d


def band(n, **kw):
    return CsrMatrix.from_dense(bumped_band(n, **kw))


def sparse_lower(n, gen):
    """Sparse lower-triangular with mild conditioning at any tested size."""
    low = np.tril(gen.standard_normal((n, n)), -1)
    low[np.abs(low) < 1.2] = 0.0
    low *= 0.25
    low += np.diag(gen.uniform(1.0, 2.0, size=n))
    return low


def completed_system(n, r, seed):
    """S = Q (I + Z diag(lam) Z^T) Q^T with a sparse lower-triangular Q."""
    gen = np.random.default_rng(seed)
    low = sparse_lower(n, gen)
    z, _ = np.linalg.qr(gen.standard_normal((n, r)))
    lam = gen.uniform(-0.6, 1.5, size=r)
    inner = np.eye(n) + (z * lam) @ z.T
    s_dense = low @ inner @ low.T
    s_dense = (s_dense + s_dense.T) / 2.0
    return CsrMatrix.from_dense(s_dense), CholFactor(CsrMatrix.from_dense(low))


def test_assemble_degrades_to_factor_only():
    s = band(12)
    fac = ic0(s)
    for w in (None, LowRank.empty(12)):
        p = assemble(fac, w)
        assert p.kind == "factor_only"
        assert p.W is None


def test_assemble_woodbury_diagonal():
    s = band(10)
    fac = ic0(s)
    lam = np.array([0.5, -0.999999])
    z = np.zeros((10, 2))
    z[0, 0] = 1.0
    z[1, 1] = 1.0
    p = assemble(fac, LowRank(z, lam))
    np.testing.assert_allclose(p.woodbury_diag, lam / (1.0 + lam), rtol=1e-15)


def test_assemble_rejects_infeasible_eigenvalue():
    fac = CholFactor(CsrMatrix.from_dense(np.eye(4)))
    z = np.zeros((4, 1))
    z[0, 0] = 1.0
    for bad in (-1.0, -1.0000001, -5.0):
        with pytest.raises(InfeasibleLowRank):
            assemble(fac, LowRank(z, np.array([bad])))


@pytest.mark.parametrize(
    "lam, z_entry, message",
    [
        (np.nan, 0.0, r"^low-rank eigenvalue \[0\] = nan is not finite$"),
        (np.inf, 0.0, r"^low-rank eigenvalue \[0\] = inf is not finite$"),
        (0.5, -np.inf, r"^low-rank basis entry \[2, 0\] = -inf is not finite$"),
        (0.5, np.nan, r"^low-rank basis entry \[2, 0\] = nan is not finite$"),
    ],
    ids=["nan_lam", "inf_lam", "inf_z", "nan_z"],
)
def test_assemble_rejects_a_non_finite_term(lam, z_entry, message):
    # each built a factor_low_rank preconditioner, and PCG then ran to
    # stagnation on a NaN residual
    fac = CholFactor(CsrMatrix.from_dense(np.eye(4)))
    z = np.zeros((4, 1))
    z[0, 0] = 1.0
    z[2, 0] = z_entry
    with pytest.raises(InfeasibleLowRank, match=message):
        assemble(fac, LowRank(z, np.array([lam])))


def test_direct_construction_is_gated():
    # the constructor is the one SPD check: no builder or keyword skips it
    fac = ic0(band(5))
    z = np.eye(5)[:, :1]
    with pytest.raises(InfeasibleLowRank):
        Preconditioner(Q=fac, W=LowRank(z, [-3.0]))
    zeros = Preconditioner(Q=fac, W=LowRank(np.eye(5)[:, :2], [0.0, -0.0]))
    assert zeros.kind == "factor_only" and zeros.W is None and zeros.Y is None
    assert Preconditioner().kind == "identity"
    with pytest.raises(ValueError):
        Preconditioner(W=LowRank(z, [0.5]))  # a low-rank term needs a factor
    with pytest.raises(TypeError):
        Preconditioner(kind="factor_low_rank", Q=fac)
    with pytest.raises(AttributeError):
        zeros.kind = "factor_low_rank"


def test_apply_inverse_identity_kind():
    p = identity()
    v = np.arange(5.0)
    out = apply_inverse(p, v)
    np.testing.assert_array_equal(out, v)
    assert out is not v


def test_apply_inverse_round_trip():
    s, fac = completed_system(40, 5, seed=2)
    p = assemble(fac, _exact_term(s, fac, 5))
    dense = p.to_dense()
    gen = np.random.default_rng(3)
    v = gen.standard_normal(40)
    np.testing.assert_allclose(dense @ apply_inverse(p, v), v, atol=1e-9)
    np.testing.assert_allclose(apply_inverse(p, dense @ v), v, atol=1e-9)


def _exact_term(s, fac, r, rule="bld"):
    decomp = sym_eig(scaled_error(s, fac, cap=4096))
    return truncate(decomp, select_indices(decomp.values, r, rule))


def test_apply_inverse_matches_dense_inverse():
    s, fac = completed_system(150, 8, seed=5)
    p = assemble(fac, _exact_term(s, fac, 8))
    inv = np.linalg.inv(p.to_dense())
    gen = np.random.default_rng(7)
    for _ in range(3):
        v = gen.standard_normal(150)
        np.testing.assert_allclose(apply_inverse(p, v), inv @ v, atol=1e-10)


def test_apply_inverse_rank_zero_is_one_cholesky_solve():
    s = band(30)
    fac = ic0(s)
    p = assemble(fac, None)
    low = fac.L.to_dense()
    gen = np.random.default_rng(9)
    v = gen.standard_normal(30)
    expected = np.linalg.solve(low.T, np.linalg.solve(low, v))
    np.testing.assert_allclose(apply_inverse(p, v), expected, atol=1e-12)
    np.testing.assert_array_equal(apply_inverse(p, v), sparse_core.chol_solve(fac, v))


def test_apply_inverse_low_rank_matches_two_triangular_solves():
    # the fused path against the textbook one: Q^-T (v' - Z diag(d) Z^T v'),
    # v' = Q^-1 v; the two differ only in roundoff
    s, fac = completed_system(150, 8, seed=5)
    p = assemble(fac, _exact_term(s, fac, 8))
    z = p.W.Z
    gen = np.random.default_rng(8)
    for _ in range(3):
        v = gen.standard_normal(150)
        u = sparse_core.tri_solve(fac, v)
        want = sparse_core.tri_solve(fac, u - z @ (p.woodbury_diag * (z.T @ u)), transposed=True)
        np.testing.assert_allclose(apply_inverse(p, v), want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_apply_inverse_returns_a_fresh_array():
    # pcg_solve updates its first direction (the first z) in place, and the
    # low-rank kind subtracts its projection in place: neither may touch the
    # input, the basis Y or an array the factor's cached sweeps hold
    s, fac = completed_system(40, 5, seed=2)
    kinds = {
        "identity": identity(),
        "factor_only": assemble(fac, None),
        "factor_low_rank": assemble(fac, _exact_term(s, fac, 5)),
    }
    v = np.random.default_rng(6).standard_normal(40)
    kept = v.copy()
    for kind, p in kinds.items():
        assert p.kind == kind
        first, second = apply_inverse(p, v), apply_inverse(p, v)
        held = [v]
        if p.Y is not None:
            held.append(p.Y)
        if kind != "identity":
            rows, ends, *sweeps = fac._chol
            held += [rows, ends] + [arr for sweep in sweeps for arr in sweep if arr is not None]
            held += list(fac._split)
        assert not np.shares_memory(first, second)
        for arr in held:
            assert not np.shares_memory(first, arr), kind
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(v, kept)


def test_woodbury_basis_is_solved_at_construction():
    s, fac = completed_system(40, 5, seed=2)
    p = assemble(fac, _exact_term(s, fac, 5))
    np.testing.assert_array_equal(p.Y, sparse_core.tri_solve(fac, p.W.Z, transposed=True))
    assert assemble(fac, None).Y is None and identity().Y is None


def test_assemble_drops_zero_weight_directions():
    fac = ic0(band(10))
    z = np.eye(10)[:, :4]
    p = assemble(fac, LowRank(z, np.array([0.5, 0.0, -0.0, -0.25])))
    assert p.kind == "factor_low_rank"
    np.testing.assert_array_equal(p.W.Z, z[:, [0, 3]])
    np.testing.assert_array_equal(p.W.lam, [0.5, -0.25])
    np.testing.assert_array_equal(p.woodbury_diag, [0.5 / 1.5, -0.25 / 0.75])
    assert p.Y.shape == (10, 2)
    # no tolerance: a tiny weight is still a direction
    assert assemble(fac, LowRank(z[:, :1], np.array([3e-17]))).kind == "factor_low_rank"
    only_zeros = assemble(fac, LowRank(z, np.zeros(4)), label="zeros")
    assert only_zeros.kind == "factor_only" and only_zeros.W is None and only_zeros.Y is None
    assert only_zeros.label == "zeros"


def assert_fortran_float64(y):
    # apply_inverse's dgemv reads a Fortran-ordered float64 Y in place;
    # f2py would copy any other Y, n x k, on every PCG iteration
    assert y.dtype == np.float64 and y.flags.f_contiguous, (y.dtype, y.flags)


@pytest.mark.parametrize("label", LABELS)
def test_every_build_gives_a_fortran_ordered_woodbury_basis(label):
    s = band(120)
    p = build(label, s, ic0(s), 6, eig=_CONVERGED, sketch=SketchParams(oversample=20, seed=4))
    assert p.Y.shape[1] > 1
    assert_fortran_float64(p.Y)


def test_assembled_woodbury_basis_is_fortran_ordered():
    # a C-ordered basis with a zero-weight column, which construction drops
    fac = ic0(band(30))
    z = np.ascontiguousarray(np.linalg.qr(np.random.default_rng(3).standard_normal((30, 4)))[0])
    assert not z.flags.f_contiguous
    p = assemble(fac, LowRank(z, np.array([0.5, 0.0, -0.25, 2.0])))
    assert p.Y.shape == (30, 3)
    assert_fortran_float64(p.Y)


def test_exact_factor_gives_factor_only_alpha_build():
    # ic0 of tridiag(-1, 4, -1) is its exact Cholesky factor, so the scaled
    # error is zero and every Ritz value maps back to a weight of exactly 0,
    # so one cycle fills the basis of 4 + 20 vectors and stops
    n = 200
    s = CsrMatrix.from_dense(4 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    params = EigsParams(max_restarts=20, slack=20)
    p = build_alpha(s, ic0(s), 4, 0.5, params, positive_method="krylov_schur")
    assert p.kind == "factor_only"
    assert p.W is None and p.Y is None
    assert p.build_info.matvecs_s == 24


def test_apply_inverse_validates_shape():
    s = band(6)
    p = assemble(ic0(s), None)
    with pytest.raises(ValueError):
        apply_inverse(p, np.zeros(7))


def test_woodbury_identity_fuzz():
    gen = np.random.default_rng(11)
    for trial in range(20):
        n = int(gen.integers(3, 30))
        r = int(gen.integers(1, min(n, 6)))
        z, _ = np.linalg.qr(gen.standard_normal((n, r)))
        lam = gen.uniform(-0.95, 2.0, size=r)
        d = lam / (1.0 + lam)
        left = np.eye(n) + (z * lam) @ z.T
        right = np.eye(n) - (z * d) @ z.T
        np.testing.assert_allclose(left @ right, np.eye(n), atol=1e-12)


def test_divergence_reduces_to_scaled_coordinates():
    # D(S, P) equals D(I + E, I + W) when P = Q (I + W) Q^T and
    # E is the scaled error of S under Q
    s, fac = completed_system(60, 6, seed=13)
    err = scaled_error(s, fac, cap=4096)
    decomp = sym_eig(err)
    w = truncate(decomp, select_indices(decomp.values, 3, "bld"))
    p = assemble(fac, w)
    full = divergence_ld(s.to_dense(), p.to_dense())
    reduced = divergence_ld(np.eye(60) + err, np.eye(60) + w.as_dense())
    assert abs(full - reduced) <= 1e-8 * (1.0 + abs(full))


def test_exact_build_minimizes_divergence_over_subsets():
    s, fac = completed_system(10, 4, seed=17)
    err = scaled_error(s, fac, cap=4096)
    decomp = sym_eig(err)
    r = 3
    p_bld = build_exact(s, fac, r, "bld")
    best = divergence_ld(s.to_dense(), p_bld.to_dense())
    for subset in itertools.combinations(range(10), r):
        w = truncate(decomp, subset)
        candidate = assemble(fac, w)
        assert best <= divergence_ld(s.to_dense(), candidate.to_dense()) + 1e-9


def test_exact_build_closes_low_rank_gap():
    # when the true scaled error has rank <= r the preconditioned system
    # is the identity and the divergence collapses
    s, fac = completed_system(200, 10, seed=19)
    p = assemble(fac, _exact_term(s, fac, 10))
    assert divergence_ld(s.to_dense(), p.to_dense()) <= 1e-9


def test_exact_build_rules_coincide_on_psd_error():
    gen = np.random.default_rng(23)
    n = 40
    low = sparse_lower(n, gen)
    z, _ = np.linalg.qr(gen.standard_normal((n, 12)))
    lam = np.sort(gen.uniform(0.1, 2.0, size=12))[::-1]
    inner = np.eye(n) + (z * lam) @ z.T
    s_dense = low @ inner @ low.T
    s = CsrMatrix.from_dense((s_dense + s_dense.T) / 2.0)
    fac = CholFactor(CsrMatrix.from_dense(low))
    builds = {
        rule: build_exact(s, fac, 5, rule).W.lam for rule in ("bld", "rbld", "tsvd")
    }
    np.testing.assert_allclose(sorted(builds["bld"]), sorted(builds["tsvd"]), atol=1e-10)
    np.testing.assert_allclose(sorted(builds["bld"]), sorted(builds["rbld"]), atol=1e-10)


def test_worked_example_through_preconditioner_interface():
    theta = np.array([1.0, 0.72, 0.54, 0.5, 0.18, -0.3, -0.4, -0.46])
    s = CsrMatrix.from_dense(np.diag(1.0 + theta))
    fac = CholFactor(CsrMatrix.from_dense(np.eye(8)))
    p_bld = build_exact(s, fac, 4, "bld")
    p_tsvd = build_exact(s, fac, 4, "tsvd")
    assert abs(divergence_ld(p_bld.to_dense(), s.to_dense()) - 0.2381) <= 1e-3
    assert abs(divergence_ld(p_tsvd.to_dense(), s.to_dense()) - 0.4764) <= 1e-3
    forward_bld = divergence_ld(s.to_dense(), p_bld.to_dense())
    forward_tsvd = divergence_ld(s.to_dense(), p_tsvd.to_dense())
    assert forward_bld < forward_tsvd


def test_build_exact_notes_and_label():
    s, fac = completed_system(20, 3, seed=29)
    p = build_exact(s, fac, 3, "bld", label="mine")
    assert p.label == "mine"
    assert p.build_info.matvecs_s == 0
    assert "dense-exact" in p.build_info.notes
    assert build_exact(s, fac, 3, "rbld").label == "rbld"


def test_alpha_build_balanced_split_reproduces_completion():
    # rank-6 completed system, 3 positive and 3 negative directions, so the
    # alpha=0.5 split can capture the whole error term
    gen = np.random.default_rng(31)
    n, r = 120, 6
    low = sparse_lower(n, gen)
    z, _ = np.linalg.qr(gen.standard_normal((n, r)))
    lam = np.array([1.4, 1.1, 0.8, -0.3, -0.45, -0.6])
    inner = np.eye(n) + (z * lam) @ z.T
    s_dense = low @ inner @ low.T
    s = CsrMatrix.from_dense((s_dense + s_dense.T) / 2.0)
    fac = CholFactor(CsrMatrix.from_dense(low))
    p = build_alpha(s, fac, r, 0.5, EigsParams(tol=1e-10, slack=40))
    np.testing.assert_allclose(sorted(p.W.lam), sorted(lam), atol=1e-6)
    assert divergence_ld(s.to_dense(), p.to_dense()) <= 1e-6


def test_alpha_zero_and_one_match_spectrum_ends():
    s = band(100)
    fac = ic0(s)
    decomp = sym_eig(scaled_error(s, fac, cap=4096))
    params = EigsParams(tol=1e-10, slack=40)
    top = build_alpha(s, fac, 4, 1.0, params)
    np.testing.assert_allclose(
        np.sort(top.W.lam)[::-1], decomp.values[:4], atol=1e-7
    )
    bottom = build_alpha(s, fac, 4, 0.0, params)
    np.testing.assert_allclose(np.sort(bottom.W.lam), np.sort(decomp.values)[:4], atol=1e-7)
    # the Krylov positive part is one two-ended run at every alpha: no probe
    assert "eta-probe" not in bottom.build_info.notes
    assert "eta-probe" not in top.build_info.notes


@pytest.mark.parametrize("r,alpha,top", [(5, 0.5, 2), (7, 0.25, 1)])
def test_alpha_split_takes_floor_alpha_r_from_the_top(r, alpha, top):
    # floor(alpha * r) pairs from the top of E and the rest from its bottom
    s = band(100)
    fac = ic0(s)
    values = sym_eig(scaled_error(s, fac, cap=4096)).values
    p = build_alpha(s, fac, r, alpha, EigsParams(tol=1e-10, slack=40), positive_method="krylov_schur")
    expected = np.concatenate([values[:top], values[top - r:]])
    np.testing.assert_allclose(np.sort(p.W.lam), np.sort(expected), atol=1e-7)


@pytest.mark.parametrize("r,alpha,match", [(-1, 0.5, "rank"), (3, 1.5, "alpha"), (3, -0.1, "alpha")])
def test_alpha_build_rejects_bad_split(monkeypatch, r, alpha, match):
    s = band(20)
    fac = ic0(s)
    calls = count_spmv(monkeypatch)
    for method in ("krylov_schur", "nystrom"):
        with pytest.raises(ValueError, match=match):
            build_alpha(s, fac, r, alpha, EigsParams(slack=5), positive_method=method)
    assert calls == []  # rejected before any S-product


def test_alpha_krylov_split_takes_both_ends_from_one_run():
    s = band(100)
    fac = ic0(s)
    values = sym_eig(scaled_error(s, fac, cap=4096)).values
    params = EigsParams(tol=1e-10, slack=40)
    p = build_alpha(s, fac, 8, 0.5, params, positive_method="krylov_schur")
    np.testing.assert_allclose(p.W.lam, np.concatenate([values[:4], values[-4:]]), atol=1e-7)
    assert p.build_info.notes == ()  # no eta probe, no shifted run
    assert np.all(p.W.lam > -1.0)
    assert np.max(np.abs(p.W.Z.T @ p.W.Z - np.eye(8))) <= 1e-8
    # the S-products of exactly one two-ended run
    counting = CountingOperator(scaled_operator(s, fac))
    lanczos_tr(counting, 4, params, bottom=4)
    assert p.build_info.matvecs_s == counting.count


def test_alpha_krylov_split_partial_gives_one_note():
    s = band(120)
    p = build_alpha(
        s, ic0(s), 6, 0.5, EigsParams(tol=1e-14, max_restarts=1, slack=5, seed=4),
        positive_method="krylov_schur", allow_partial=True,
    )
    (note,) = p.build_info.notes
    assert note.startswith("partial:") and note.endswith("/6")
    assert p.build_info.matvecs_s == 6 + 5  # the one cycle's basis


def random_sparse_spd(n, density, margin, seed):
    """A random symmetric M-matrix, strictly diagonally dominant by
    ``margin``: SPD, and ic0 exists; ``margin`` near 0 puts the bottom of
    the scaled error near -1."""
    gen = np.random.default_rng(seed)
    a = np.tril(gen.random((n, n)) * (gen.random((n, n)) < density), -1)
    a = a + a.T
    return CsrMatrix.from_dense(np.diag(a.sum(axis=1) + margin) - a)


# random sparse SPD problems, diagonally dominant by a margin down to 1e-6
_SPD_CASES = dict(
    n=st.integers(min_value=30, max_value=70),
    density=st.floats(min_value=0.02, max_value=0.2),
    margin=st.floats(min_value=1e-6, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    r=st.integers(min_value=1, max_value=8),
    alpha=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)


def check_one_feasible_run(n, density, margin, seed, r, alpha):
    s = random_sparse_spd(n, density, margin, seed)
    params = EigsParams(slack=min(20, n - r), seed=seed)
    with mock.patch.object(precond, "lanczos_tr", wraps=lanczos_tr) as runs:
        p = build_alpha(s, ic0(s), r, alpha, params, positive_method="krylov_schur", allow_partial=True)
    assert runs.call_count == 1
    assert "eta-probe" not in p.build_info.notes
    assert p.W is None or np.all(p.W.lam > -1.0)


@settings(max_examples=60, deadline=None)
@given(**_SPD_CASES)
def test_alpha_krylov_build_is_one_feasible_run_at_every_alpha(n, density, margin, seed, r, alpha):
    check_one_feasible_run(n, density, margin, seed, r, alpha)


@settings(max_examples=60, deadline=None)
@given(**_SPD_CASES)
# an operator that rounds far above eps ||T||: full passes run straight on
# op(v_j), not after the local three-term step, make this build infeasible
@example(n=51, density=0.02, margin=1e-6, seed=0, r=1, alpha=0.0)
def test_alpha_krylov_build_is_feasible_on_the_recurrence_path(n, density, margin, seed, r, alpha):
    # these sizes fall below the size crossover; patch it so that the omega
    # recurrence decides which steps run a full pass
    with mock.patch.object(eigsolve, "ALWAYS_FULL_SIZE", 0):
        check_one_feasible_run(n, density, margin, seed, r, alpha)


def test_alpha_build_counts_probe_matvecs():
    s = band(80)
    fac = ic0(s)
    params = EigsParams(tol=1e-8, slack=20)
    p = build_alpha(s, fac, 4, 0.0, params, positive_method="nystrom")
    assert p.build_info.matvecs_s > 0
    assert "eta-probe" in p.build_info.notes


def test_alpha_build_nystrom_positive_method():
    # the sketched positive part assumes the error operator is PSD-like, so
    # test it on a completion whose low-rank term is entirely positive
    gen = np.random.default_rng(33)
    n, r = 90, 4
    low = sparse_lower(n, gen)
    z, _ = np.linalg.qr(gen.standard_normal((n, r)))
    lam = np.array([1.2, 0.9, 0.6, 0.3])
    s_dense = low @ (np.eye(n) + (z * lam) @ z.T) @ low.T
    s = CsrMatrix.from_dense((s_dense + s_dense.T) / 2.0)
    fac = CholFactor(CsrMatrix.from_dense(low))
    p = build_alpha(
        s,
        fac,
        r,
        1.0,
        EigsParams(tol=1e-8, slack=20),
        positive_method="nystrom",
        sketch_params=SketchParams(oversample=30, seed=3),
    )
    assert p.kind == "factor_low_rank"
    assert p.build_info.matvecs_s == r + 30
    np.testing.assert_allclose(np.sort(p.W.lam)[::-1], lam, atol=1e-7)


def test_alpha_build_rejects_unknown_method():
    s = band(10)
    with pytest.raises(ValueError):
        build_alpha(s, ic0(s), 2, 0.5, EigsParams(), positive_method="power")


def test_alpha_rank_zero_is_factor_only():
    s = band(15)
    p = build_alpha(s, ic0(s), 0, 0.5, EigsParams(slack=5))
    assert p.kind == "factor_only"
    assert p.build_info.matvecs_s == 0


def test_svd_krylov_matches_magnitude_truncation():
    s = band(100)
    fac = ic0(s)
    decomp = sym_eig(scaled_error(s, fac, cap=4096))
    keep = np.argsort(-np.abs(decomp.values), kind="stable")[:5]
    expected = np.sort(decomp.values[keep])
    p = build_svd_krylov(s, fac, 5, EigsParams(tol=1e-10, slack=40))
    np.testing.assert_allclose(np.sort(p.W.lam), expected, atol=1e-7)
    assert p.build_info.matvecs_s > 0


def test_randomized_build_nystrom_variants():
    s = band(120)
    fac = ic0(s)
    p_plain = build_randomized(s, fac, 6, "nystrom", SketchParams(oversample=40, seed=2))
    assert p_plain.build_info.matvecs_s == 46
    p_wide = build_randomized(
        s, fac, 6, "nystrom_indefinite", SketchParams(width_factor=1.5, seed=2)
    )
    assert p_wide.build_info.matvecs_s == 9
    for p in (p_plain, p_wide):
        assert p.kind == "factor_low_rank"
        assert p.W.rank <= 6
    with pytest.raises(ValueError):
        build_randomized(s, fac, 3, "hutchinson")


def test_randomized_build_zero_error_degrades():
    # powers of two factor exactly, so the error operator is a true zero
    dense = 4.0 * np.eye(40)
    s = CsrMatrix.from_dense(dense)
    fac = CholFactor(CsrMatrix.from_dense(2.0 * np.eye(40)))
    with pytest.warns(Warning):
        p = build_randomized(s, fac, 3, "nystrom", SketchParams(seed=1))
    assert p.kind == "factor_only"


def test_alpha_one_collapsed_sketch_is_factor_only():
    # 4 I factors exactly, so the sketched error is zero and has rank 0; at
    # alpha 1 the Nystrom positive part must degrade as nys does
    s = CsrMatrix.from_dense(4.0 * np.eye(60))
    fac = ic0(s)
    options = {"eig": EigsParams(slack=10), "sketch": SketchParams(oversample=10)}
    with pytest.warns(RankCollapse):
        nys = build("nys", s, fac, 4, **options)
    with pytest.warns(RankCollapse):
        p = build("breg_alpha", s, fac, 4, alpha=1.0, positive_method="nystrom", **options)
    assert nys.kind == p.kind == "factor_only"
    assert p.build_info.matvecs_s == nys.build_info.matvecs_s == 14


def test_nys_and_alpha_one_nystrom_share_the_top_side():
    s = band(120)
    fac = ic0(s)
    sketch = SketchParams(oversample=20, seed=6)
    nys = build("nys", s, fac, 6, sketch=sketch)
    top = build_alpha(s, fac, 6, 1.0, EigsParams(seed=6), positive_method="nystrom", sketch_params=sketch)
    assert nys.kind == top.kind == "factor_low_rank"
    np.testing.assert_array_equal(top.W.Z, nys.W.Z)
    np.testing.assert_array_equal(top.W.lam, nys.W.lam)
    assert top.build_info.matvecs_s == nys.build_info.matvecs_s == 26


def test_preconditioner_to_dense_identity_needs_dimension():
    with pytest.raises(ValueError):
        identity().to_dense()
    with pytest.raises(ValueError):
        identity().n


def count_calls(monkeypatch, original):
    """Count calls of ``original`` by replacing every bregpcg module's binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bregpcg" or name.startswith("bregpcg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def count_spmv(monkeypatch):
    """Count S-products."""
    return count_calls(monkeypatch, sparse_core.spmv)


_CONVERGED = EigsParams(tol=1e-8, slack=20, seed=4)
_PARTIAL = EigsParams(tol=1e-14, max_restarts=1, slack=5, seed=4)
_COUNT_CASES = [(label, {}) for label in ("ichol", *LABELS)] + [
    ("breg_alpha", {"alpha": 0.0, "positive_method": "nystrom"}),  # eta probe
    ("breg_alpha", {"alpha": 0.5, "positive_method": "krylov_schur"}),
    ("breg_alpha", {"alpha": 1.0, "positive_method": "krylov_schur"}),
    ("breg_alpha", {"alpha": 0.0, "positive_method": "nystrom", "eig": _PARTIAL}),
    ("breg_alpha", {"alpha": 0.5, "positive_method": "krylov_schur", "eig": _PARTIAL}),
    ("svd_ks", {"eig": _PARTIAL}),
    ("breg_alpha", {"alpha": 0.5, "positive_method": "nystrom"}),  # sketch, eta probe, shifted run
]


@pytest.mark.parametrize(
    "label,options", _COUNT_CASES, ids=[f"{label}-{i}" for i, (label, _) in enumerate(_COUNT_CASES)]
)
def test_build_reports_the_spmv_calls_it_makes(monkeypatch, label, options):
    s = band(120)
    fac = ic0(s)
    kwargs = {"alpha": 0.5, "eig": _CONVERGED, "sketch": SketchParams(oversample=20, seed=4), **options}
    calls = count_spmv(monkeypatch)
    p = factor_stage(s) if label == "ichol" else build(label, s, fac, 6, **kwargs)
    assert p.label == label
    assert len(calls) == p.build_info.matvecs_s
    if label in ("ichol", "breg", "rbreg", "svd"):
        assert p.build_info.matvecs_s == 0
    else:
        assert p.build_info.matvecs_s > 0
    notes = p.build_info.notes
    if kwargs["eig"] is _PARTIAL:
        assert any(note.startswith("partial:") for note in notes)
    if label == "breg_alpha" and kwargs["alpha"] == 0.0:
        assert "eta-probe" in notes
    elif label == "breg_alpha" and kwargs.get("positive_method") == "krylov_schur":
        assert "eta-probe" not in notes and np.all(p.W.lam > -1.0)


def test_build_rejects_unknown_label():
    s = band(20)
    with pytest.raises(ValueError, match="breg_alfa"):
        build("breg_alfa", s, ic0(s), 2)


@pytest.mark.parametrize("r", [-1, 20, 500])
@pytest.mark.parametrize("label", LABELS)
def test_build_rejects_a_rank_outside_zero_to_n_before_any_s_product(monkeypatch, label, r):
    # every label, the sketches included, which would otherwise sketch a
    # block wider than n and only warn RankCollapse
    s = band(20)
    fac = ic0(s)
    calls = count_spmv(monkeypatch)
    with pytest.raises(ValueError, match=rf"^rank {r} must satisfy 0 <= r < 20$"):
        build(label, s, fac, r)
    assert not calls


_PUBLIC_BUILDERS = {
    **{f"exact-{rule}": lambda s, q, r, rule=rule: build_exact(s, q, r, rule) for rule in ("bld", "rbld", "tsvd")},
    **{
        variant: lambda s, q, r, variant=variant: build_randomized(s, q, r, variant)
        for variant in ("nystrom", "nystrom_indefinite")
    },
    "svd_krylov": lambda s, q, r: build_svd_krylov(s, q, r, EigsParams()),
    **{
        f"alpha-{method}": lambda s, q, r, method=method: build_alpha(
            s, q, r, 0.5, EigsParams(), positive_method=method
        )
        for method in ("krylov_schur", "nystrom")
    },
}


@pytest.mark.parametrize("r", [-1, 20, 25])
@pytest.mark.parametrize("builder", list(_PUBLIC_BUILDERS))
def test_every_builder_rejects_a_rank_outside_zero_to_n_before_any_work(monkeypatch, builder, r):
    # the sketches built at a collapsed rank and warned, the exact builds
    # ran the full eigendecomposition first, and the Lanczos builds failed
    # on their subspace size or after hundreds of S-products
    s = band(20)
    fac = ic0(s)
    products, eigs = count_spmv(monkeypatch), count_calls(monkeypatch, sym_eig)
    with pytest.raises(ValueError, match=rf"^rank {r} must satisfy 0 <= r < 20$"):
        _PUBLIC_BUILDERS[builder](s, fac, r)
    assert products == [] and eigs == []


def test_ichol_is_the_factor_stage_not_a_build_label():
    s = band(20)
    assert "ichol" not in LABELS
    with pytest.raises(ValueError, match="'ichol'"):
        build("ichol", s, ic0(s), 2)
    p = factor_stage(s, 0.1)
    assert (p.label, p.kind, p.build_info.matvecs_s) == ("ichol", "factor_only", 0)
    np.testing.assert_array_equal(p.Q.L.values, ic0(s, diag_shift=0.1).L.values)


# Counts, notes and iterations are exact; Ritz values hold to rel 1e-10 only,
# because the BLAS kernel numpy picks for the Gram-Schmidt passes depends on
# the basis layout and moves them in the last bits.  r = 30 makes both runs
# restart at least once.
_GOLDEN_LAM_SVD_KS = [
    -0.9498080039639867, -0.9034687023346791, -0.9021458712035649, -0.8591924042795663,
    -0.8317830447896996, -0.8314455167141628, -0.796869685810192, -0.7887006910625992,
    -0.7451128274157657, -0.7445136046460726, -0.7370561188018442, -0.7122740086265213,
    -0.7073821885349112, -0.6738483088676805, -0.6526864576443834, -0.6508549223810833,
    -0.650611754288002, -0.6233013771582442, -0.6184188295697115, -0.6137698729378878,
    -0.5856148873855676, -0.5682246554759852, -0.5590485838428233, -0.5560442449939712,
    -0.5544076793986986, -0.5332153747504869, -0.5293072907857634, -0.5266488694934703,
    -0.5046047645578006, -0.5021516011137354,
]
_GOLDEN_LAM_ALPHA = [  # both ends from one two-ended Lanczos run
    -0.9498080039639867, -0.9034687023346789, -0.9021458712035648, -0.8591924042795667,
    -0.8317830447897002, -0.8314455167141632, -0.7968696858101922, -0.7887006910625993,
    -0.7451128274157661, -0.744513604646073, -0.7370561188018436, -0.7122740086265216,
    -0.7073821885349116, -0.6738483088676809, -0.6526864576443838, 0.17621053347906757,
    0.1790861960716681, 0.18221657128264224, 0.18392574118979743, 0.1877066218202994,
    0.1892380419227837, 0.1914612489710541, 0.19341204270210888, 0.19447014744850377,
    0.19527176966729298, 0.19724461183746844, 0.19923574993175142, 0.2009988431494516,
    0.20282187850886535, 0.2028236809898969,
]


@pytest.mark.parametrize(
    "make,matvecs,iterations,lam",
    [
        (lambda s, q, p: build_svd_krylov(s, q, 30, p), 146, 15, _GOLDEN_LAM_SVD_KS),
        (
            lambda s, q, p: build_alpha(s, q, 30, 0.5, p, positive_method="krylov_schur"),
            136,
            19,
            _GOLDEN_LAM_ALPHA,
        ),
    ],
    ids=["svd_ks", "alpha"],
)
def test_lanczos_builds_are_golden(make, matvecs, iterations, lam):
    s = CsrMatrix.from_dense(laplacian_2d(30) + 0.01 * np.eye(900))
    q = ic0(s)
    p = make(s, q, EigsParams(tol=1e-2, slack=60, seed=0))
    assert p.build_info.matvecs_s == matvecs
    assert p.build_info.notes == ()
    _, report = pcg_solve(s, rng.normals(3, 900), p, tol=1e-10, maxit=200)
    assert report.converged and report.iterations == iterations
    np.testing.assert_allclose(np.sort(p.W.lam), lam, rtol=1e-10, atol=0)


def test_alpha_golden_build_keeps_its_top_cluster():
    # the golden alpha build runs on the omega recurrence (900 * 91 basis
    # entries); its top 15 values must still reach 0.1762, as with a full
    # pass on every step, where the dense 15th largest is 0.1930
    s = CsrMatrix.from_dense(laplacian_2d(30) + 0.01 * np.eye(900))
    assert 900 * (30 + 60 + 1) > eigsolve.ALWAYS_FULL_SIZE
    p = build_alpha(s, ic0(s), 30, 0.5, EigsParams(tol=1e-2, slack=60, seed=0), positive_method="krylov_schur")
    assert np.sort(p.W.lam)[::-1][14] >= 0.1762


def traced_peak(f):
    """The traced peak, in bytes, of what ``f`` allocates."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["nystrom", "nystrom_indefinite", "krylov"])
def test_low_rank_build_working_memory_is_bounded(kind, monkeypatch):
    # at n = 4900, in units of one n-row column of float64: a sketch of
    # width w holds its test matrix and its image (2 w) and two chunks of a
    # block apply; a Krylov build holds its basis of m + 1 columns, the r
    # vectors it returns and one chunk, through its restarts.  5% covers the
    # small arrays.  One more n x k temporary (a second basis, an unchunked
    # apply, a test matrix or image kept past its use) does not fit: the
    # indefinite sketch, whose r is 2/3 of its width, shows the last two
    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(70, 70))
    s = CsrMatrix.from_scipy(scipy.sparse.kronsum(t, t) + 0.01 * scipy.sparse.identity(4900))
    q = ic0(s)
    n, chunk = s.n_rows, sparse_core._BLOCK_COLUMNS
    scaled = scaled_operator(s, q)
    scaled.apply(np.ones((n, 2)))  # the sweeps and the diagonal layout, built once
    if kind == "krylov":
        r, params = 36, EigsParams(tol=1e-2, slack=60, seed=0)
        rotations, rotate = [], eigsolve._rotate_in_place

        def counted(basis, rotation):
            rotations.append(rotation.shape)
            rotate(basis, rotation)

        monkeypatch.setattr(eigsolve, "_rotate_in_place", counted)
        peak = traced_peak(lambda: build_alpha(s, q, r, 0.0, params, allow_partial=True))
        assert rotations  # the build restarted
        columns = (r + params.slack + 1) + r + chunk
    else:
        r, sketch = (36, sketch_mod.nystrom) if kind == "nystrom" else (64, sketch_mod.nystrom_indefinite)
        width = 96  # r + 60 and ceil(1.5 r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankCollapse)
            peak = traced_peak(lambda: sketch(precond._minus_identity(scaled), r, SketchParams()))
        columns = 2 * width + 2 * chunk
    assert peak <= 1.05 * 8 * n * columns
