import math

import numpy as np
import pytest

from bregpcg import Breakdown, CsrMatrix, ic0, scaled_error
from conftest import bumped_band, laplacian_2d, random_spd, ref_ic0_dense


def ref_ic0_intersect(s, diag_shift=0.0):
    """Row-by-row IC(0) that intersects row patterns entry by entry.

    The order of every dot product and division is the one ``ic0`` must
    keep, so its values are compared bitwise.  Returns the values of L, or
    the row index where the pivot failed (as an int).
    """
    lower = s.lower_triangle()
    row_ptr, cols = lower.row_ptr, lower.col_idx
    vals = np.array(lower.values)
    ends = row_ptr[1:] - 1
    if diag_shift:
        vals[ends] *= 1.0 + diag_shift
    for i in range(s.n_rows):
        lo, hi = row_ptr[i], row_ptr[i + 1]
        cols_i = cols[lo : hi - 1]
        for t in range(lo, hi - 1):
            j = cols[t]
            jlo, jhi = row_ptr[j], row_ptr[j + 1]
            common, ia, ib = np.intersect1d(
                cols_i[: t - lo], cols[jlo : jhi - 1], assume_unique=True, return_indices=True
            )
            acc = float(np.dot(vals[lo + ia], vals[jlo + ib])) if len(common) else 0.0
            vals[t] = (vals[t] - acc) / vals[jhi - 1]
        pivot = vals[hi - 1] - float(np.dot(vals[lo : hi - 1], vals[lo : hi - 1]))
        if pivot <= 0.0:
            return i
        vals[hi - 1] = math.sqrt(pivot)
    return vals


@pytest.mark.parametrize(
    "dense, diag_shift",
    [
        (laplacian_2d(12), 0.0),
        (bumped_band(300), 0.0),  # off-band bumps: rows share earlier columns
        (random_spd(40, seed=3), 0.05),  # dense pattern: long shared-column lists
    ],
    ids=["laplacian", "bumped_band", "random_spd"],
)
def test_values_bitwise_match_intersect_reference(dense, diag_shift):
    s = CsrMatrix.from_dense(dense)
    want = ref_ic0_intersect(s, diag_shift)
    assert not isinstance(want, int)
    np.testing.assert_array_equal(ic0(s, diag_shift=diag_shift).L.values, want)


def test_breakdown_row_matches_intersect_reference():
    # lowering the diagonal makes the bumped band indefinite; the pivot
    # fails only after rows whose dot products run over shared columns
    dense = bumped_band(200, bumps=12, scale=3.0, seed=5) - 2.2 * np.eye(200)
    s = CsrMatrix.from_dense(dense)
    row = ref_ic0_intersect(s)
    assert row == 45
    with pytest.raises(Breakdown) as info:
        ic0(s)
    assert info.value.row == row


def test_identity_factors_to_identity():
    fac = ic0(CsrMatrix.from_dense(np.eye(5)))
    np.testing.assert_array_equal(fac.to_dense(), np.eye(5))


def test_tridiagonal_equals_dense_cholesky():
    # no fill exists for a tridiagonal matrix, so IC(0) is the exact factor
    dense = np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    )
    fac = ic0(CsrMatrix.from_dense(dense))
    np.testing.assert_allclose(fac.to_dense(), np.linalg.cholesky(dense), atol=1e-14)


def test_no_fill_family_gives_zero_scaled_error():
    gen = np.random.default_rng(0)
    for n in (10, 100, 400):
        diag = 2.0 + gen.random(n)
        off = -gen.random(n - 1) * 0.5
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        s = CsrMatrix.from_dense(dense)
        fac = ic0(s)
        np.testing.assert_allclose(fac.to_dense(), np.linalg.cholesky(dense), atol=1e-12)
        err = scaled_error(s, fac, cap=4096)
        assert np.max(np.abs(err)) <= 1e-10


def test_arrowhead_matches_reference_recurrence_entrywise():
    n = 10
    dense = np.eye(n) * 4.0
    dense[0, :] = 1.0
    dense[:, 0] = 1.0
    dense[0, 0] = n
    got = ic0(CsrMatrix.from_dense(dense)).to_dense()
    want = ref_ic0_dense(dense)
    assert not isinstance(want, int)
    np.testing.assert_array_equal(got, want)


def test_general_sparse_matches_reference_recurrence():
    gen = np.random.default_rng(12)
    n = 40
    dense = gen.standard_normal((n, n))
    dense[gen.random((n, n)) < 0.85] = 0.0
    dense = dense @ dense.T + n * np.eye(n)
    dense[np.abs(dense) < 1e-3] = 0.0  # thin the pattern further
    dense = (dense + dense.T) / 2.0
    got = ic0(CsrMatrix.from_dense(dense)).to_dense()
    want = ref_ic0_dense(dense)
    assert not isinstance(want, int)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_pattern_containment():
    dense = laplacian_2d(8)
    s = CsrMatrix.from_dense(dense)
    fac = ic0(s)
    s_pattern = (dense != 0.0) & np.tril(np.ones_like(dense, dtype=bool))
    low = fac.to_dense()
    assert np.all((low != 0.0) <= s_pattern)


def test_explicit_zero_in_pattern_is_kept():
    s = CsrMatrix.from_coo(
        2,
        2,
        np.array([0, 1, 1]),
        np.array([0, 0, 1]),
        np.array([1.0, 0.0, 1.0]),
    )
    fac = ic0(s)
    cols, _ = fac.L.row(1)
    np.testing.assert_array_equal(cols, [0, 1])  # stored zero position survives


def test_breakdown_reports_row():
    # pivot at row 2 goes negative: 1 - (2/1)^2 = -3
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    row = ref_ic0_dense(dense)
    assert isinstance(row, int) and row == 2
    with pytest.raises(Breakdown) as info:
        ic0(CsrMatrix.from_dense(dense))
    assert info.value.row == row


def test_diag_shift_factors_shifted_matrix():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    shift = 4.0  # (1+shift) - (2/(1+shift))^2 stays positive
    fac = ic0(CsrMatrix.from_dense(dense), diag_shift=shift)
    shifted = dense + shift * np.diag(np.diag(dense))
    want = ref_ic0_dense(shifted)
    assert not isinstance(want, int)
    np.testing.assert_allclose(fac.to_dense(), want, atol=1e-14)


def test_rejects_missing_or_negative_diagonal():
    with pytest.raises(ValueError):
        ic0(CsrMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 2.0]])))
    with pytest.raises(ValueError):
        ic0(CsrMatrix.from_dense(np.array([[-1.0, 0.0], [0.0, 2.0]])))
