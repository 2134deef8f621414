import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import bregpcg
from bregpcg import Breakdown, CsrMatrix, ic0, scaled_error
from bregpcg.ichol import _lookup, _shared_slots
from conftest import bumped_band, dynamic_arch_openblas, laplacian_2d, random_spd, ref_ic0_dense


def ref_dot(x, y):
    """Left-to-right sum of rounded products from 0.0: the summation ``ic0`` promises."""
    acc = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        acc += a * b
    return acc


def ref_ic0_intersect(s, diag_shift=0.0):
    """Row-by-row IC(0) that intersects row patterns entry by entry.

    The order of every dot product and division is the one ``ic0`` must
    keep, and each dot product is ``ref_dot``, so its values are compared
    bitwise.  Returns the values of L, or the row index where the pivot
    failed (as an int).
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
            _, ia, ib = np.intersect1d(
                cols_i[: t - lo], cols[jlo : jhi - 1], assume_unique=True, return_indices=True
            )
            acc = ref_dot(vals[lo + ia], vals[jlo + ib])
            vals[t] = (vals[t] - acc) / vals[jhi - 1]
        pivot = vals[hi - 1] - ref_dot(vals[lo : hi - 1], vals[lo : hi - 1])
        if pivot <= 0.0:
            return i
        vals[hi - 1] = math.sqrt(pivot)
    return vals


def ref_shared_slots(row_ptr, cols):
    """Brute-force ``_shared_slots``: intersect the two rows of every entry."""
    pair_ptr, left, right = [0], [], []
    for i in range(len(row_ptr) - 1):
        lo, hi = row_ptr[i], row_ptr[i + 1]
        for t in range(lo, hi):
            j = cols[t]
            if j < i:
                jlo, jhi = row_ptr[j], row_ptr[j + 1]
                _, ia, ib = np.intersect1d(
                    cols[lo:t], cols[jlo : jhi - 1], assume_unique=True, return_indices=True
                )
                left.extend((lo + ia).tolist())
                right.extend((jlo + ib).tolist())
            pair_ptr.append(len(left))
    return pair_ptr, left, right


def arrowhead_band(n):
    """tridiag(-1, 4, -1) with a dense first row and column: every entry
    (i, i - 1) shares column 0 with row i - 1, so ic0 has pairs to sum."""
    dense = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    dense[0, 1:] = dense[1:, 0] = 0.5
    dense[0, 0] = n
    return dense


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


@pytest.mark.parametrize("shift", [-2.0, math.nan, math.inf])
def test_diag_shift_outside_its_domain_fails_before_any_pass(shift, monkeypatch):
    # -2 raised Breakdown(0), a pivot error for a bad argument; NaN and inf
    # ran both passes before CsrMatrix rejected the factor's values
    def no_pass(*args):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(bregpcg.ichol, "_shared_slots", no_pass)
    with pytest.raises(ValueError, match=f"^diag_shift must be > -1, not {shift!r}$"):
        ic0(CsrMatrix.from_dense(laplacian_2d(4)), diag_shift=shift)


def test_rejects_missing_or_negative_diagonal():
    with pytest.raises(ValueError):
        ic0(CsrMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 2.0]])))
    with pytest.raises(ValueError):
        ic0(CsrMatrix.from_dense(np.array([[-1.0, 0.0], [0.0, 2.0]])))


def test_makes_no_blas_call(monkeypatch):
    def no_blas(*args, **kwargs):
        raise AssertionError("ic0 must not call BLAS")

    s = CsrMatrix.from_dense(bumped_band(120))
    want = ref_ic0_intersect(s)
    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, no_blas)
    np.testing.assert_array_equal(ic0(s).L.values, want)


def _stored_zero():
    # (2, 1) is a stored zero, and entry (3, 2) sums over it: rows 3 and 2
    # share column 1
    rows = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3])
    cols = np.array([0, 0, 1, 1, 0, 2, 1, 2, 3])
    vals = np.array([4.0, 1.0, 4.0, 0.0, 1.0, 4.0, 1.0, 1.0, 4.0])
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    vals = np.concatenate([vals, vals]) / np.where(rows == cols, 2.0, 1.0)
    return CsrMatrix.from_coo(4, 4, rows, cols, vals)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CsrMatrix.from_dense(laplacian_2d(12)),
        lambda: CsrMatrix.from_dense(bumped_band(300)),
        lambda: CsrMatrix.from_dense(random_spd(40, seed=3)),
        lambda: CsrMatrix.from_dense(np.eye(1)),
        lambda: CsrMatrix.from_dense(np.diag([1.0, 2.0, 3.0])),
        _stored_zero,
        lambda: CsrMatrix.from_dense(arrowhead_band(30)),
        # a dense last row: its entries walk row j, which has no off-diagonals
        lambda: CsrMatrix.from_dense(arrowhead_band(30)[::-1, ::-1]),
    ],
    ids=[
        "laplacian", "bumped_band", "random_spd", "1x1", "diagonal", "stored_zero",
        "arrowhead", "arrowhead_last_row",
    ],
)
def test_shared_slots_match_brute_force_intersection(make):
    lower = make().lower_triangle()
    pair_ptr, left, right = _shared_slots(lower.row_ptr, lower.col_idx)
    want_ptr, want_left, want_right = ref_shared_slots(lower.row_ptr, lower.col_idx)
    np.testing.assert_array_equal(pair_ptr, want_ptr)
    np.testing.assert_array_equal(left, want_left)
    np.testing.assert_array_equal(right, want_right)
    check_lookup_against_brute_force(lower)


def check_lookup_against_brute_force(lower):
    # every (row, column) of the square, stored or not, in one request and
    # one at a time (short requests are padded up to where the kernel
    # binary-searches)
    n, row_ptr, cols = lower.n_rows, lower.row_ptr, lower.col_idx
    rows = np.repeat(np.arange(n), np.diff(row_ptr))
    slot = {(r, c): t for t, (r, c) in enumerate(zip(rows.tolist(), cols.tolist()))}
    want_rows, want_cols = (a.ravel() for a in np.indices((n, n)))
    want = [slot.get(rc, -1) for rc in zip(want_rows.tolist(), want_cols.tolist())]
    got = _lookup(row_ptr, cols, want_rows, want_cols)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    for k in np.random.default_rng(n).choice(n * n, size=min(n * n, 20), replace=False):
        assert _lookup(row_ptr, cols, want_rows[k : k + 1], want_cols[k : k + 1]).tolist() == [want[k]]
    assert len(_lookup(row_ptr, cols, want_rows[:0], want_cols[:0])) == 0


def test_shared_slots_keys_do_not_wrap_with_int32_indices():
    # n = 50,000, where a flat (row, column) key j * n + k passes 2**31 for
    # j > 42,949: int32 and int64 index arrays must find the same pairs
    n = 50_000
    band = scipy.sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
    rows = np.concatenate([np.arange(n), np.zeros(n - 1, dtype=np.int64)])
    cols = np.concatenate([np.zeros(n, dtype=np.int64), np.arange(1, n)])
    arrow = scipy.sparse.coo_matrix((np.full(2 * n - 1, 0.01), (rows, cols)), shape=(n, n))
    lower = CsrMatrix.from_scipy(band + arrow).lower_triangle()
    assert lower.col_idx.dtype == np.int32
    narrow = _shared_slots(lower.row_ptr, lower.col_idx)
    wide = _shared_slots(lower.row_ptr.astype(np.int64), lower.col_idx.astype(np.int64))
    assert len(wide[1]) == n - 2  # every (i, i - 1), i >= 2, shares column 0
    for got, want in zip(narrow, wide):
        np.testing.assert_array_equal(got, want)


def test_pair_fixtures_are_not_vacuous():
    # the pattern cases above check pairs only where some exist
    for dense in (bumped_band(300), arrowhead_band(30)):
        lower = CsrMatrix.from_dense(dense).lower_triangle()
        assert len(_shared_slots(lower.row_ptr, lower.col_idx)[1]) > 0
    lower = _stored_zero().lower_triangle()
    _, _, right = _shared_slots(lower.row_ptr, lower.col_idx)
    assert 4 in right.tolist()  # the stored zero (2, 1), slot 4, is summed over


@st.composite
def sparse_symmetric(draw):
    """A sparse symmetric matrix with positive diagonal, stored with some
    explicit zeros in its pattern: either B B^T + D with its small entries
    dropped (mostly definite) or B + B^T + D (mostly indefinite)."""
    n = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.05, 0.6))
    spd = draw(st.booleans())
    gen = np.random.default_rng(seed)
    mask = np.tril(gen.random((n, n)) < density, -1)
    low = np.where(mask, gen.standard_normal((n, n)), 0.0)
    if spd:
        dense = low @ low.T + np.diag(0.1 + gen.random(n))
        dense[np.abs(dense) < 0.05] = 0.0
        dense = np.tril(dense, -1) + np.tril(dense, -1).T + np.diag(np.diag(dense))
    else:
        dense = low + low.T + np.diag(0.1 + 2.0 * gen.random(n))
    pattern = np.tril(dense != 0.0) | np.tril(gen.random((n, n)) < density / 4, -1)
    rows, cols = np.nonzero(pattern)
    values = dense[rows, cols]
    off = rows != cols
    return CsrMatrix.from_coo(
        n, n,
        np.concatenate([rows, cols[off]]),
        np.concatenate([cols, rows[off]]),
        np.concatenate([values, values[off]]),
    )


@settings(max_examples=80, deadline=None)
@given(s=sparse_symmetric(), diag_shift=st.sampled_from([0.0, 0.1, 1.5]))
def test_property_bitwise_reference_and_breakdown_row(s, diag_shift):
    lower = s.lower_triangle()
    slots = _shared_slots(lower.row_ptr, lower.col_idx)
    for got, ref in zip(slots, ref_shared_slots(lower.row_ptr, lower.col_idx)):
        np.testing.assert_array_equal(got, ref)
    check_lookup_against_brute_force(lower)
    want = ref_ic0_intersect(s, diag_shift)
    if isinstance(want, int):
        with pytest.raises(Breakdown) as info:
            ic0(s, diag_shift=diag_shift)
        assert info.value.row == want
    else:
        np.testing.assert_array_equal(ic0(s, diag_shift=diag_shift).L.values, want)


_HASH_IC0 = """
import hashlib, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from bregpcg import CsrMatrix, ic0
from conftest import bumped_band
gen = np.random.default_rng(0)
x, y = gen.standard_normal(1001), gen.standard_normal(1001)
blas = hashlib.sha1(np.dot(x, y).tobytes()).hexdigest()
s = CsrMatrix.from_dense(bumped_band(600, bumps=6, seed=2))
print(blas, hashlib.sha1(ic0(s).L.values.tobytes()).hexdigest())
"""


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not dynamic_arch_openblas(np),
    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS on x86-64",
)
def test_factor_bits_do_not_depend_on_the_blas_kernel():
    paths = [
        os.path.dirname(os.path.dirname(os.path.abspath(bregpcg.__file__))),
        os.path.dirname(os.path.abspath(__file__)),
    ]
    blas_hashes, ic0_hashes = set(), set()
    for core in ("Haswell", "Sandybridge", "Prescott"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c", _HASH_IC0, *paths],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        blas, factor = out.stdout.split()
        blas_hashes.add(blas)
        ic0_hashes.add(factor)
    if len(blas_hashes) == 1:
        pytest.skip("OPENBLAS_CORETYPE did not change the BLAS kernel here")
    assert len(ic0_hashes) == 1
