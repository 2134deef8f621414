import inspect
from unittest import mock

import numpy as np
import pytest
import scipy.sparse

from bregpcg import (
    CountingOperator,
    build_alpha,
    EigenEstimate,
    EigsParams,
    NoConvergence,
    ic0,
    lanczos_tr,
    operator_from_dense,
    scaled_operator,
    shifted_operator,
    smallest_from_estimate,
    smallest_part,
)
from bregpcg import eigsolve
from bregpcg.dense_kernels import sym_eig
from bregpcg.precond import _minus_identity
from bregpcg.sparse_core import CsrMatrix
from conftest import bumped_band, random_spd


def band(n, **kw):
    return CsrMatrix.from_dense(bumped_band(n, **kw))


def dense_symmetric(n, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    return (a + a.T) / 2.0


def poisson_70():
    """The 70x70 Poisson matrix plus 0.01 I (n = 4900)."""
    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(70, 70))
    return CsrMatrix.from_scipy(scipy.sparse.kronsum(t, t) + 0.01 * scipy.sparse.identity(4900))


def test_small_diagonal_top_pair():
    op = operator_from_dense(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
    est = lanczos_tr(op, 2, EigsParams(tol=1e-12, slack=3))
    np.testing.assert_allclose(est.values, [5.0, 4.0], atol=1e-10)
    assert est.converged_count == 2
    # eigenvectors of a diagonal matrix are coordinate axes
    assert abs(abs(est.vectors[0, 0]) - 1.0) <= 1e-8
    assert abs(abs(est.vectors[1, 1]) - 1.0) <= 1e-8


def test_want_zero_is_empty():
    op = operator_from_dense(np.eye(4))
    counting = CountingOperator(op)
    est = lanczos_tr(counting, 0, EigsParams(slack=2))
    assert est.values.size == 0
    assert est.vectors.shape == (4, 0)
    assert counting.count == 0


def test_subspace_larger_than_operator_rejected():
    op = operator_from_dense(np.eye(4))
    with pytest.raises(ValueError):
        lanczos_tr(op, 2, EigsParams(slack=60))
    with pytest.raises(ValueError):
        lanczos_tr(op, 1, EigsParams(slack=2), which="euclidean")


def test_large_random_matches_dense_solver():
    a = dense_symmetric(500, seed=7)
    est = lanczos_tr(operator_from_dense(a), 10, EigsParams(tol=1e-8))
    exact = np.sort(np.linalg.eigvalsh(a))[::-1][:10]
    np.testing.assert_allclose(est.values, exact, rtol=1e-7)
    assert np.all(np.diff(est.values) <= 1e-12)  # descending
    # returned vectors are orthonormal and satisfy the residual bound
    gram = est.vectors.T @ est.vectors
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-8


def check_residual_norms_are_honest():
    a = dense_symmetric(300, seed=11)
    counting = CountingOperator(operator_from_dense(a))
    est = lanczos_tr(counting, 6, EigsParams(tol=1e-9))
    for k in range(6):
        v = est.vectors[:, k]
        actual = np.linalg.norm(a @ v - est.values[k] * v)
        assert actual <= est.residual_norms[k] * 1.01 + 1e-13
    return est, counting.count


def test_residual_norms_are_honest():
    check_residual_norms_are_honest()


def test_matvec_count_matches_operator_counter():
    a = dense_symmetric(200, seed=13)
    counting = CountingOperator(operator_from_dense(a))
    lanczos_tr(counting, 5, EigsParams(tol=1e-8))
    # the count lanczos_tr reported for itself when it still kept one
    assert counting.count == 124


def test_bitwise_determinism():
    a = dense_symmetric(150, seed=17)
    params = EigsParams(tol=1e-9, seed=123)
    op_first = CountingOperator(operator_from_dense(a))
    op_second = CountingOperator(operator_from_dense(a))
    first = lanczos_tr(op_first, 4, params)
    second = lanczos_tr(op_second, 4, params)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)
    assert np.array_equal(first.residual_norms, second.residual_norms)
    assert op_first.count == op_second.count == 122


def test_magnitude_ranking_prefers_large_negative():
    op = operator_from_dense(np.diag([3.0, 1.0, -5.0, 0.5]))
    est = lanczos_tr(op, 2, EigsParams(tol=1e-12, slack=2), which="magnitude")
    np.testing.assert_allclose(sorted(est.values), [-5.0, 3.0], atol=1e-10)
    alg = lanczos_tr(op, 2, EigsParams(tol=1e-12, slack=2), which="largest")
    np.testing.assert_allclose(alg.values, [3.0, 1.0], atol=1e-10)


def check_two_ended_run_matches_dense_oracle_at_both_ends():
    a = dense_symmetric(400, seed=23)
    exact = np.linalg.eigvalsh(a)
    counting = CountingOperator(operator_from_dense(a))
    est = lanczos_tr(counting, 5, EigsParams(tol=1e-9, slack=30), bottom=3)
    np.testing.assert_allclose(est.values, np.concatenate([exact[::-1][:5], exact[:3][::-1]]), rtol=1e-7)
    assert np.all(np.diff(est.values) < 0)  # descending
    assert est.converged_count == 8
    assert np.max(np.abs(est.vectors.T @ est.vectors - np.eye(8))) <= 1e-8
    for k in range(8):
        v = est.vectors[:, k]
        assert np.linalg.norm(a @ v - est.values[k] * v) <= est.residual_norms[k] * 1.01 + 1e-13
    # the run restarted, so the ranking drove which pairs were kept
    assert counting.count > 5 + 3 + 30
    return est, counting.count


def test_two_ended_run_matches_dense_oracle_at_both_ends():
    check_two_ended_run_matches_dense_oracle_at_both_ends()


def test_bottom_zero_is_the_largest_ranking_bitwise():
    a = dense_symmetric(200, seed=13)
    params = EigsParams(tol=1e-8, slack=20)
    ops = [CountingOperator(operator_from_dense(a)) for _ in range(2)]
    plain = lanczos_tr(ops[0], 5, params, which="largest")
    ends = lanczos_tr(ops[1], 5, params, bottom=0)
    assert ops[0].count == ops[1].count > 5 + 20  # restarted
    assert np.array_equal(plain.values, ends.values)
    assert np.array_equal(plain.vectors, ends.vectors)
    assert np.array_equal(plain.residual_norms, ends.residual_norms)


def test_bottom_count_needs_the_largest_ranking_and_room():
    op = operator_from_dense(np.diag(np.arange(10.0)))
    with pytest.raises(ValueError, match="bottom"):
        lanczos_tr(op, 2, EigsParams(slack=2), which="magnitude", bottom=1)
    with pytest.raises(ValueError, match="nonnegative"):
        lanczos_tr(op, 2, EigsParams(slack=2), bottom=-1)
    with pytest.raises(ValueError, match="subspace dimension 11"):
        lanczos_tr(op, 2, EigsParams(slack=6), bottom=3)
    only_bottom = lanczos_tr(op, 0, EigsParams(tol=1e-12, slack=4), bottom=2)
    np.testing.assert_allclose(only_bottom.values, [1.0, 0.0], atol=1e-10)


def test_two_ended_no_convergence_counts_both_ends():
    a = dense_symmetric(200, seed=19)
    with pytest.raises(NoConvergence, match="of 7 pairs") as info:
        lanczos_tr(operator_from_dense(a), 4, EigsParams(tol=1e-15, slack=5, max_restarts=1), bottom=3)
    assert info.value.estimate.values.shape == (7,)


def test_full_passes_run_on_every_step_below_the_size_crossover():
    a = dense_symmetric(200, seed=13)
    assert 200 * (5 + 60 + 1) <= eigsolve.ALWAYS_FULL_SIZE
    counting = CountingOperator(operator_from_dense(a))
    est = lanczos_tr(counting, 5, EigsParams(tol=1e-8))
    assert est.full_passes == counting.count == 124
    # the partial estimate that NoConvergence carries counts them too
    counting = CountingOperator(operator_from_dense(a))
    with pytest.raises(NoConvergence) as info:
        lanczos_tr(counting, 5, EigsParams(tol=1e-15, slack=60, max_restarts=2))
    assert info.value.estimate.full_passes == counting.count


def test_recurrence_path_keeps_the_honesty_checks(monkeypatch):
    # both checks above, with the omega recurrence deciding the full passes:
    # the components those passes remove must enter the returned norms
    monkeypatch.setattr(eigsolve, "ALWAYS_FULL_SIZE", 0)
    for check in (check_residual_norms_are_honest, check_two_ended_run_matches_dense_oracle_at_both_ends):
        est, steps = check()
        assert 0 < est.full_passes < steps


def test_basis_stays_semi_orthogonal_through_restarts():
    # above the size crossover, at tol 1e-8: max |V^T V - I| <= sqrt(eps)
    # for the whole basis before every Rayleigh-Ritz step, read from
    # lanczos_tr's frame when it calls eigh on the projected matrix
    s = poisson_70()
    counting = CountingOperator(scaled_operator(s, ic0(s)))
    params = EigsParams(tol=1e-8, slack=40)
    assert 4900 * (10 + 10 + 40 + 1) > eigsolve.ALWAYS_FULL_SIZE
    worst = []
    eigh = np.linalg.eigh

    def rayleigh_ritz(t_proj):
        m = t_proj.shape[0]
        basis = inspect.currentframe().f_back.f_locals["v_basis"][:, : m + 1]
        worst.append(np.max(np.abs(basis.T @ basis - np.eye(m + 1))))
        return eigh(t_proj)

    with mock.patch.object(eigsolve.np.linalg, "eigh", rayleigh_ritz):
        est = lanczos_tr(counting, 10, params, bottom=10)
    assert len(worst) >= 4  # three restarts at least
    assert max(worst) <= np.sqrt(np.finfo(np.float64).eps)
    # two forced passes per cycle, more where the estimate called for one,
    # and still a small share of the steps
    assert 2 * len(worst) < est.full_passes < counting.count / 4
    assert np.max(np.abs(est.vectors.T @ est.vectors - np.eye(20))) <= np.sqrt(np.finfo(np.float64).eps)


def test_identity_operator_exercises_invariant_subspace_restart():
    # every Krylov direction is invariant immediately; the solver must inject
    # fresh vectors and still report the correct eigenvalue
    op = operator_from_dense(np.eye(40))
    est = lanczos_tr(op, 3, EigsParams(tol=1e-10, slack=5))
    np.testing.assert_allclose(est.values, np.ones(3), atol=1e-12)


def test_no_convergence_carries_partial_estimate():
    a = dense_symmetric(200, seed=19)
    counting = CountingOperator(operator_from_dense(a))
    with pytest.raises(NoConvergence) as info:
        lanczos_tr(counting, 5, EigsParams(tol=1e-15, slack=5, max_restarts=1))
    est = info.value.estimate
    assert isinstance(est, EigenEstimate)
    assert est.values.shape == (5,)
    assert est.vectors.shape == (200, 5)
    assert counting.count == 5 + 5  # the one cycle's basis


def test_shifted_operator_flips_spectrum():
    diag = np.array([4.0, 2.0, -1.0])
    op = shifted_operator(operator_from_dense(np.diag(diag)), 5.0)
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        np.testing.assert_allclose(op.apply(e), (5.0 - diag[k]) * e, atol=1e-14)


def test_scaled_and_error_operators_agree_with_dense():
    s = band(60)
    fac = ic0(s)
    q = fac.L.to_dense()
    s_dense = s.to_dense()
    scaled_dense = np.linalg.solve(q, np.linalg.solve(q, s_dense).T).T
    gen = np.random.default_rng(3)
    v = gen.standard_normal(60)
    np.testing.assert_allclose(
        scaled_operator(s, fac).apply(v), scaled_dense @ v, atol=1e-10
    )
    np.testing.assert_allclose(
        _minus_identity(scaled_operator(s, fac)).apply(v), scaled_dense @ v - v, atol=1e-10
    )


# The largest part of the scaled error is build_alpha's alpha=1 split.


def test_largest_part_exact_factor_vanishes():
    dense = random_spd(30, seed=23)
    dense[np.abs(dense) < 0.4] = 0.0
    dense = (dense + dense.T) / 2.0 + 30 * np.eye(30)
    s = CsrMatrix.from_dense(dense)
    from bregpcg import CholFactor

    fac = CholFactor(CsrMatrix.from_dense(np.linalg.cholesky(dense)))
    p = build_alpha(s, fac, 3, 1.0, EigsParams(tol=1e-10, slack=10))
    assert np.max(np.abs(p.W.lam)) <= 1e-8


def test_largest_part_rank_zero():
    s = band(20)
    p = build_alpha(s, ic0(s), 0, 1.0, EigsParams())
    assert p.kind == "factor_only" and p.n == 20
    assert p.build_info.matvecs_s == 0


def test_largest_part_recovers_leading_error_eigenvalues():
    s = band(120)
    fac = ic0(s)
    q = fac.L.to_dense()
    scaled = np.linalg.solve(q, np.linalg.solve(q, s.to_dense()).T).T
    exact = np.sort(np.linalg.eigvalsh((scaled + scaled.T) / 2.0))[::-1] - 1.0
    p = build_alpha(s, fac, 4, 1.0, EigsParams(tol=1e-9, slack=30))
    np.testing.assert_allclose(np.sort(p.W.lam)[::-1], exact[:4], atol=1e-7)


def test_smallest_from_estimate_shift_arithmetic():
    vec = np.zeros((5, 1))
    vec[0, 0] = 1.0
    ok = EigenEstimate(np.array([1.9]), vec, np.zeros(1), 1)
    w = smallest_from_estimate(ok, 2.0)
    np.testing.assert_allclose(w.lam, [-0.9], atol=1e-15)


@pytest.mark.parametrize("eta", [0.01, 10.0])
def test_smallest_part_does_not_depend_on_eta(eta):
    # Q^-1 S Q^-T spans [0.054, 1.201] here: eta = 0.01 lies below its whole
    # spectrum and eta = 10 far above it, and both runs find the same bottom
    n = 200
    dense = 4.01 * np.eye(n)
    for k in (1, 10):
        dense -= np.eye(n, k=k) + np.eye(n, k=-k)
    s = CsrMatrix.from_dense(dense)
    fac = ic0(s)
    q = fac.L.to_dense()
    scaled = np.linalg.solve(q, np.linalg.solve(q, dense).T).T
    bottom = np.linalg.eigvalsh((scaled + scaled.T) / 2.0)[:5] - 1.0
    w = smallest_part(s, fac, 5, eta, EigsParams(tol=1e-8))
    np.testing.assert_allclose(np.sort(w.lam), bottom, rtol=0, atol=1e-12)


def test_smallest_part_round_trip():
    s = band(150)
    fac = ic0(s)
    q = fac.L.to_dense()
    scaled = np.linalg.solve(q, np.linalg.solve(q, s.to_dense()).T).T
    spectrum = sym_eig((scaled + scaled.T) / 2.0).values
    eta = spectrum[0] * 1.02
    w = smallest_part(s, fac, 3, eta, EigsParams(tol=1e-9, slack=30))
    bottom = np.sort(spectrum)[:3] - 1.0
    np.testing.assert_allclose(np.sort(w.lam), bottom, atol=1e-7)


def test_smallest_part_rank_zero():
    s = band(20)
    w = smallest_part(s, ic0(s), 0, 10.0, EigsParams())
    assert w.rank == 0 and w.n == 20
