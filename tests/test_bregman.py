import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregpcg import (
    CapExceeded,
    CholFactor,
    CsrMatrix,
    EigenvalueOutOfDomain,
    InfeasibleLowRank,
    LowRank,
    NotPositiveDefinite,
    divergence_ld,
    gamma,
    ic0,
    nu,
    scaled_error,
    scaled_operator,
    select_indices,
    truncate,
)
from bregpcg.dense_kernels import sym_eig
from bregpcg.precond import _minus_identity, assemble
from conftest import bumped_band, divergence_dense, random_spd

# the worked diagonal example used throughout: spectrum of the error matrix,
# descending, with four directions to keep
EXAMPLE_SPECTRUM = np.array([1.0, 0.72, 0.54, 0.5, 0.18, -0.3, -0.4, -0.46])
EXAMPLE_R = 4


def curve_sum(values, indices, curve):
    return sum(curve(values[i]) for i in indices)


def test_gamma_spot_values():
    assert gamma(0.0) == 0.0
    assert abs(gamma(-0.5) - 0.1931) <= 5e-5
    assert abs(gamma(0.5) - 0.0945) <= 5e-5
    # closed forms, independent arithmetic
    assert abs(gamma(-0.5) - (-0.5 + math.log(2.0))) <= 1e-15
    assert abs(gamma(1.0) - (1.0 - math.log(2.0))) <= 1e-15


def test_nu_spot_values():
    assert nu(0.0) == 0.0
    assert abs(nu(1.0) - 0.19315) <= 1e-4
    assert abs(nu(-0.5) - 0.30685) <= 1e-4
    assert abs(nu(1.0) - (0.5 + math.log(2.0) - 1.0)) <= 1e-15
    assert abs(nu(-0.5) - (2.0 - math.log(2.0) - 1.0)) <= 1e-15


def test_curves_reject_left_domain_edge():
    for bad in (-1.0, -1.5, -2.0):
        with pytest.raises(EigenvalueOutOfDomain):
            gamma(bad)
        with pytest.raises(EigenvalueOutOfDomain):
            nu(bad)


@given(st.floats(min_value=-0.999, max_value=50.0))
def test_curves_nonnegative_everywhere(t):
    assert gamma(t) >= 0.0
    assert nu(t) >= 0.0


@given(
    st.floats(min_value=-0.999, max_value=50.0).filter(lambda t: abs(t) >= 1e-6)
)
def test_curves_strictly_positive_away_from_zero(t):
    # near the origin both curves behave like t^2/2 and the floating
    # subtraction cancels, so strictness is only claimed at a distance
    assert gamma(t) > 0.0
    assert nu(t) > 0.0
    assert gamma(0.0) == 0.0 and nu(0.0) == 0.0


@given(
    st.floats(min_value=0.0, max_value=30.0),
    st.floats(min_value=0.0, max_value=30.0),
)
def test_curves_increasing_on_nonnegative_axis(a, b):
    lo, hi = min(a, b), max(a, b)
    assert gamma(hi) >= gamma(lo)
    assert nu(hi) >= nu(lo)


def test_selection_on_worked_example():
    bld = select_indices(EXAMPLE_SPECTRUM, EXAMPLE_R, "bld")
    tsvd = select_indices(EXAMPLE_SPECTRUM, EXAMPLE_R, "tsvd")
    rbld = select_indices(EXAMPLE_SPECTRUM, EXAMPLE_R, "rbld")
    assert sorted(EXAMPLE_SPECTRUM[list(bld)]) == [-0.46, -0.4, 0.72, 1.0]
    assert sorted(EXAMPLE_SPECTRUM[list(tsvd)]) == [0.5, 0.54, 0.72, 1.0]
    # on this spectrum the two curve selections agree; magnitude does not
    assert rbld == bld
    assert tsvd != bld


def test_selection_requires_descending_input():
    with pytest.raises(ValueError):
        select_indices(np.array([1.0, 2.0]), 1, "bld")


def test_selection_domain_and_rule_checks():
    with pytest.raises(EigenvalueOutOfDomain):
        select_indices(np.array([0.5, -1.0]), 1, "bld")
    with pytest.raises(EigenvalueOutOfDomain):
        select_indices(np.array([0.5, -1.2]), 1, "rbld")
    # magnitude selection has no domain restriction
    assert select_indices(np.array([0.5, -1.2]), 1, "tsvd") == (1,)
    with pytest.raises(ValueError):
        select_indices(np.array([2.0, 1.0]), 1, "frobenius")
    with pytest.raises(ValueError):
        select_indices(np.array([2.0, 1.0]), 2, "bld")  # r < n required


def test_selection_tie_break_prefers_earlier_position():
    values = np.array([2.0, 2.0, 1.0, -0.5])
    assert select_indices(values, 1, "bld") == (0,)
    assert select_indices(values, 1, "tsvd") == (0,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_selection_attains_exhaustive_optimum(data):
    n = data.draw(st.integers(min_value=3, max_value=9))
    r = data.draw(st.integers(min_value=1, max_value=min(4, n - 1)))
    raw = data.draw(
        st.lists(
            st.floats(min_value=-0.95, max_value=3.0),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    values = np.sort(np.asarray(raw))[::-1].copy()
    for rule, curve in (("bld", gamma), ("rbld", nu), ("tsvd", abs)):
        chosen = select_indices(values, r, rule)
        best = max(
            curve_sum(values, subset, curve)
            for subset in itertools.combinations(range(n), r)
        )
        assert curve_sum(values, chosen, curve) >= best - 1e-10


def test_divergence_of_equal_arguments_is_zero():
    x = random_spd(20, seed=3)
    assert abs(divergence_ld(x, x)) <= 1e-10


def test_divergence_closed_form_scaled_identity():
    for n in (2, 7):
        got = divergence_ld(2.0 * np.eye(n), np.eye(n))
        assert abs(got - n * (1.0 - math.log(2.0))) <= 1e-12


def test_divergence_matches_definition_oracle():
    x = random_spd(30, seed=10)
    y = random_spd(30, seed=11)
    assert abs(divergence_ld(x, y) - divergence_dense(x, y)) <= 1e-9 * (
        1.0 + divergence_dense(x, y)
    )


def test_divergence_nonnegative_on_random_pairs():
    for seed in range(10):
        x = random_spd(15, seed=2 * seed)
        y = random_spd(15, seed=2 * seed + 1)
        assert divergence_ld(x, y) >= -1e-10


def test_divergence_keeps_its_digits_near_equal_arguments():
    # P differs from S only in the 54 left-out directions, all small, so
    # D(P, S) is 7e-5 against a trace of 60; trace - logdet - n was 2.9e-10
    # relative off the spectrum sum here
    s = CsrMatrix.from_dense(bumped_band(60, seed=10))
    factor = ic0(s)
    decomp = sym_eig(scaled_error(s, factor))
    idx = select_indices(decomp.values, 6, "rbld")
    p = assemble(factor, truncate(decomp, idx))
    want = nu(np.delete(decomp.values, idx)).sum()
    assert 5e-5 < want < 1e-4
    assert abs(divergence_ld(p.to_dense(), s.to_dense()) - want) <= 1e-13 * want


def test_divergence_names_offending_argument():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    good = np.eye(2)
    with pytest.raises(NotPositiveDefinite) as info:
        divergence_ld(bad, good)
    assert info.value.which == "X"
    with pytest.raises(NotPositiveDefinite) as info:
        divergence_ld(good, bad)
    assert info.value.which == "Y"


def test_congruence_invariance():
    gen = np.random.default_rng(21)
    for seed in range(8):
        x = random_spd(12, seed=100 + seed)
        y = random_spd(12, seed=200 + seed)
        q = gen.standard_normal((12, 12)) + 3.0 * np.eye(12)
        base = divergence_ld(x, y)
        moved = divergence_ld(q @ x @ q.T, q @ y @ q.T)
        assert abs(base - moved) <= 1e-8 * (1.0 + base)


def test_asymmetry_identity():
    for seed in range(8):
        n = 10
        x = random_spd(n, seed=300 + seed)
        y = random_spd(n, seed=400 + seed)
        lhs = divergence_ld(x, y)
        cross = np.trace(x @ np.linalg.inv(y)) + np.trace(y @ np.linalg.inv(x))
        rhs = cross - divergence_ld(y, x) - 2 * n
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def example_pair(rule):
    err = np.diag(EXAMPLE_SPECTRUM)
    decomp = sym_eig(err)
    idx = select_indices(decomp.values, EXAMPLE_R, rule)
    w = truncate(decomp, idx)
    return np.eye(8) + err, np.eye(8) + w.as_dense()


def test_worked_example_divergences_both_directions():
    x_bld, y_bld = example_pair("bld")
    x_tsvd, y_tsvd = example_pair("tsvd")

    # reverse direction reproduces the quoted constants of the example
    assert abs(divergence_ld(y_bld, x_bld) - 0.2381) <= 1e-3
    assert abs(divergence_ld(y_tsvd, x_tsvd) - 0.4764) <= 1e-3

    # forward direction: frozen values, computed independently as curve sums
    # over the non-selected spectrum (gamma totals of the complements)
    assert abs(divergence_ld(x_bld, y_bld) - 0.273912980927) <= 1e-9
    assert abs(divergence_ld(x_tsvd, y_tsvd) - 0.338172268651) <= 1e-9

    # the ordering the example demonstrates holds in both directions
    assert divergence_ld(x_bld, y_bld) < divergence_ld(x_tsvd, y_tsvd)
    assert divergence_ld(y_bld, x_bld) < divergence_ld(y_tsvd, x_tsvd)


def test_truncation_optimality_matrix_level():
    # keeping the best-curve directions minimizes the divergence between the
    # full matrix and the compressed one, checked exhaustively
    gen = np.random.default_rng(17)
    for trial in range(5):
        n, r = 7, 3
        theta = np.sort(gen.uniform(-0.9, 2.5, size=n))[::-1]
        q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        err = (q * theta) @ q.T
        decomp = sym_eig(err)
        x = np.eye(n) + err

        def compressed(subset):
            w = truncate(decomp, tuple(subset))
            return np.eye(n) + w.as_dense()

        bld_div = divergence_ld(x, compressed(select_indices(decomp.values, r, "bld")))
        rbld_div = divergence_ld(compressed(select_indices(decomp.values, r, "rbld")), x)
        for subset in itertools.combinations(range(n), r):
            assert bld_div <= divergence_ld(x, compressed(subset)) + 1e-10
            assert rbld_div <= divergence_ld(compressed(subset), x) + 1e-10


def test_psd_distinct_spectra_make_all_rules_coincide():
    gen = np.random.default_rng(23)
    for _ in range(25):
        n = int(gen.integers(4, 10))
        r = int(gen.integers(1, n - 1))
        values = np.sort(gen.uniform(0.05, 3.0, size=n))[::-1]
        sets = {rule: select_indices(values, r, rule) for rule in ("bld", "rbld", "tsvd")}
        assert sets["bld"] == sets["rbld"] == sets["tsvd"]


def test_truncate_extracts_selected_pairs():
    theta = np.array([2.0, 1.0, 0.5, -0.5])
    q, _ = np.linalg.qr(np.random.default_rng(31).standard_normal((4, 4)))
    err = (q * theta) @ q.T
    decomp = sym_eig(err)
    w = truncate(decomp, (0, 3))
    assert w.rank == 2
    np.testing.assert_allclose(sorted(w.lam), [-0.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(w.Z.T @ w.Z, np.eye(2), atol=1e-12)
    assert np.all(w.lam > -1.0)
    full = truncate(decomp, (0, 1, 2, 3))
    np.testing.assert_allclose(full.as_dense(), err, atol=1e-12)


def test_truncate_validates_indices_and_feasibility():
    decomp = sym_eig(np.diag([1.0, 0.0, -0.999999999999999]))
    with pytest.raises(ValueError):
        truncate(decomp, (0, 0))
    with pytest.raises(ValueError):
        truncate(decomp, (0, 5))
    # the value near -1 is copied unclamped; assembling it is what fails
    w = truncate(decomp, (2,))
    np.testing.assert_array_equal(w.lam, decomp.values[[2]])
    with pytest.raises(InfeasibleLowRank):
        assemble(CholFactor(CsrMatrix.from_dense(np.eye(3))), w)


def test_low_rank_container():
    empty = LowRank.empty(6)
    assert empty.rank == 0 and empty.n == 6
    np.testing.assert_array_equal(empty.as_dense(), np.zeros((6, 6)))
    with pytest.raises(ValueError):
        LowRank(np.ones((4, 2)), np.array([0.5]))  # one value per column


def test_scaled_error_exact_factor_is_zero():
    dense = random_spd(40, seed=41)
    dense[np.abs(dense) < 0.5] = 0.0
    dense = (dense + dense.T) / 2.0 + 40 * np.eye(40)
    s = CsrMatrix.from_dense(dense)
    low = np.linalg.cholesky(dense)
    fac = CholFactor(CsrMatrix.from_dense(low))
    err = scaled_error(s, fac, cap=4096)
    assert np.max(np.abs(err)) <= 1e-10


def test_scaled_error_identity_factor():
    s = CsrMatrix.from_dense(2.0 * np.eye(6))
    fac = CholFactor(CsrMatrix.from_dense(np.eye(6)))
    np.testing.assert_allclose(scaled_error(s, fac, cap=16), np.eye(6), atol=1e-14)


def test_scaled_error_spectrum_feasible_for_spd_inputs():
    gen = np.random.default_rng(50)
    dense = gen.standard_normal((50, 50))
    dense[gen.random((50, 50)) < 0.8] = 0.0
    dense = dense @ dense.T + 50 * np.eye(50)
    dense[np.abs(dense) < 1e-2] = 0.0
    dense = (dense + dense.T) / 2.0
    s = CsrMatrix.from_dense(dense)
    fac = ic0(s)
    theta = sym_eig(scaled_error(s, fac, cap=4096)).values
    assert np.all(theta > -1.0)


def test_scaled_error_cap():
    s = CsrMatrix.from_dense(np.eye(8))
    fac = CholFactor(CsrMatrix.from_dense(np.eye(8)))
    with pytest.raises(CapExceeded):
        scaled_error(s, fac, cap=7)


def test_scaled_and_error_operators_agree_with_dense():
    s = CsrMatrix.from_dense(bumped_band(60))
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
    # the matrix-free E against its dense twin
    np.testing.assert_allclose(
        _minus_identity(scaled_operator(s, fac)).apply(v), scaled_error(s, fac) @ v, atol=1e-10
    )


def test_scaled_operator_block_is_bitwise_columnwise():
    s = CsrMatrix.from_dense(bumped_band(60))
    fac = ic0(s)
    block = np.random.default_rng(4).standard_normal((60, 7))
    for op in (scaled_operator(s, fac), _minus_identity(scaled_operator(s, fac))):
        got = op.apply(block)
        assert got.shape == block.shape
        for i in range(block.shape[1]):
            np.testing.assert_array_equal(got[:, i], op.apply(block[:, i]))
