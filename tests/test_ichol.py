import contextlib
import hashlib
import math
import os
import platform
import subprocess
import sys
import timeit
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

import bregpcg
from bregpcg import Breakdown, CsrMatrix, ic0, scaled_error
from bregpcg import ichol
from bregpcg.ichol import _LEVEL_MIN_WIDTH, _level_pass, _levels, _scalar_pass, _shared_slots
from bregpcg.sparse_core import _lookup
from conftest import bumped_band, dynamic_arch_openblas, laplacian_2d, random_spd, ref_ic0_dense


def lower_of(s):
    """S's stored entries on or below the diagonal, stored zeros and their
    signs kept: the pattern and values ``ic0`` starts from."""
    rows = np.repeat(np.arange(s.n_rows), np.diff(s.row_ptr))
    keep = s.col_idx <= rows
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=s.n_rows))])
    return CsrMatrix(s.n_rows, s.n_cols, row_ptr, s.col_idx[keep], s.values[keep])


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
    lower = lower_of(s)
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


PASSES = ("scalar", "level")


def run_pass(which, s, diag_shift=0.0):
    """One numeric pass of ``ic0`` on S, called directly, whichever ``ic0``
    would choose: the values of L, or the row of its Breakdown (as an int).
    The level pass gets its levels from ``ref_levels``, so it runs on
    patterns whose levels ``_levels`` does not find too.  Where it fails it
    must return a row ``start``, leave the values from that row on
    byte-equal to its input and the rows before it byte-equal to the
    recurrence's, and the recurrence from ``start`` must break down: its
    row is the outcome, as in ``ic0``."""
    lower = lower_of(s)
    row_ptr, cols = lower.row_ptr, lower.col_idx
    vals = np.array(lower.values)
    if diag_shift:
        vals[row_ptr[1:] - 1] *= 1.0 + diag_shift
    slots = _shared_slots(row_ptr, cols)
    if which == "level":
        given = vals.copy()
        start = _level_pass(vals, row_ptr, cols, slots, np.array(ref_levels(lower), dtype=cols.dtype))
        if start is None:
            return vals
        done = row_ptr[start]
        assert vals[done:].tobytes() == given[done:].tobytes()
        with pytest.raises(Breakdown) as info:
            _scalar_pass(given, row_ptr, cols, slots)
        assert vals[:done].tobytes() == given[:done].tobytes()
        assert info.value.row >= start
        with pytest.raises(Breakdown) as info:
            _scalar_pass(vals, row_ptr, cols, slots, start)
        return info.value.row
    try:
        _scalar_pass(vals, row_ptr, cols, slots)
    except Breakdown as err:
        return err.row
    return vals


def assert_same_outcome(got, want):
    """The same Breakdown row, or the same bits of L, signed zeros told apart."""
    if isinstance(want, int):
        assert got == want
    else:
        assert not isinstance(got, int), f"Breakdown({got})"
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def arrowhead_band(n):
    """tridiag(-1, 4, -1) with a dense first row and column: every entry
    (i, i - 1) shares column 0 with row i - 1, so ic0 has pairs to sum."""
    dense = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    dense[0, 1:] = dense[1:, 0] = 0.5
    dense[0, 0] = n
    return dense


REFERENCE_FIXTURES = pytest.mark.parametrize(
    "dense, diag_shift",
    [
        (laplacian_2d(12), 0.0),
        (bumped_band(300), 0.0),  # off-band bumps: rows share earlier columns
        (random_spd(40, seed=3), 0.05),  # dense pattern: long shared-column lists
    ],
    ids=["laplacian", "bumped_band", "random_spd"],
)


@REFERENCE_FIXTURES
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
    L = ic0(s).L
    np.testing.assert_array_equal(L.col_idx[L.row_ptr[1] : L.row_ptr[2]], [0, 1])  # stored zero position survives


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
    for which in PASSES:
        np.testing.assert_array_equal(run_pass(which, s), want)


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
    lower = lower_of(make())
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
    lower = lower_of(CsrMatrix.from_scipy(band + arrow))
    assert lower.col_idx.dtype == np.int32
    narrow = _shared_slots(lower.row_ptr, lower.col_idx)
    wide = _shared_slots(lower.row_ptr.astype(np.int64), lower.col_idx.astype(np.int64))
    assert len(wide[1]) == n - 2  # every (i, i - 1), i >= 2, shares column 0
    for got, want in zip(narrow, wide):
        np.testing.assert_array_equal(got, want)


def test_pair_fixtures_are_not_vacuous():
    # the pattern cases above check pairs only where some exist
    for dense in (bumped_band(300), arrowhead_band(30)):
        lower = lower_of(CsrMatrix.from_dense(dense))
        assert len(_shared_slots(lower.row_ptr, lower.col_idx)[1]) > 0
    lower = lower_of(_stored_zero())
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
    lower = lower_of(s)
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


# Both numeric passes, called directly, against the reference


@REFERENCE_FIXTURES
@pytest.mark.parametrize("shift", [0.0, 0.1, 1.5])
@pytest.mark.parametrize("which", PASSES)
def test_each_pass_matches_intersect_reference(dense, diag_shift, shift, which):
    s = CsrMatrix.from_dense(dense)
    assert_same_outcome(run_pass(which, s, diag_shift + shift), ref_ic0_intersect(s, diag_shift + shift))


def _negated_zeros(s):
    """S with every stored zero stored as -0.0."""
    return CsrMatrix(s.n_rows, s.n_cols, s.row_ptr, s.col_idx, np.where(s.values == 0.0, -0.0, s.values))


@pytest.mark.parametrize(
    "make",
    [
        _stored_zero,
        lambda: _negated_zeros(_stored_zero()),
        lambda: CsrMatrix.from_dense(arrowhead_band(30)),
        lambda: CsrMatrix.from_dense(arrowhead_band(30)[::-1, ::-1]),
        lambda: CsrMatrix.from_dense(np.diag([1.0, 2.0, 3.0])),
    ],
    ids=["stored_zero", "negative_zero", "arrowhead", "arrowhead_last_row", "diagonal"],
)
@pytest.mark.parametrize("shift", [0.0, 0.1, 1.5])
@pytest.mark.parametrize("which", PASSES)
def test_each_pass_matches_reference_on_zeros_and_pairs(make, shift, which):
    s = make()
    assert_same_outcome(run_pass(which, s, shift), ref_ic0_intersect(s, shift))


@pytest.mark.parametrize("which", PASSES)
def test_negative_zero_entry_keeps_its_sign(which):
    # -0.0 - 0.0 is -0.0 and -0.0 / d is -0.0, so a stored -0.0 that shares
    # no column keeps its sign bit, which a pass adding 0.0 to it would lose
    s = CsrMatrix.from_coo(
        3, 3, np.array([0, 1, 0, 1, 2, 2, 1]), np.array([0, 0, 1, 1, 1, 2, 2]),
        np.array([4.0, -0.0, -0.0, 4.0, -1.0, 4.0, -1.0]),
    )
    values = run_pass(which, s)
    assert values[1] == 0.0 and math.copysign(1.0, values[1]) == -1.0
    assert_same_outcome(values, ref_ic0_intersect(s))


def ref_levels(lower):
    """Each row's level, 1 plus the highest level of the rows it reads,
    row by row in natural order."""
    row_ptr, cols = lower.row_ptr.tolist(), lower.col_idx.tolist()
    level = []
    for i in range(lower.n_rows):
        level.append(1 + max((level[j] for j in cols[row_ptr[i] : row_ptr[i + 1] - 1]), default=-1))
    return level


def check_levels(lower):
    """``_levels`` gives the levels or None, and None one level too shallow;
    returns whether it found them."""
    want = ref_levels(lower)
    depth = max(want) + 1
    got = _levels(lower.row_ptr, lower.col_idx, depth)
    assert _levels(lower.row_ptr, lower.col_idx, depth - 1) is None
    if got is None:
        return False
    assert got.dtype == lower.col_idx.dtype
    assert got.tolist() == want
    return True


def every_other(n, hub=False, stride=1):
    """Even rows read the even row ``stride`` even rows before and the odd
    row just before, which reads no row (with ``hub``, only row 0, which
    every row reads): the forest of last links is 2 (3) deep, the levels
    some n / (2 stride), ``stride`` interleaved chains of even rows."""
    rows = np.arange(2, n, 2)
    i, j = [rows, rows[rows >= 2 * stride]], [rows - 1, rows[rows >= 2 * stride] - 2 * stride]
    if hub:
        i.append(np.arange(3, n))
        j.append(np.zeros(n - 3, dtype=int))
    i, j = np.concatenate(i), np.concatenate(j)
    pattern = scipy.sparse.coo_matrix((np.full(len(i), -0.25), (i, j)), shape=(n, n))
    return CsrMatrix.from_scipy(scipy.sparse.csr_matrix(pattern + pattern.T + 4.0 * scipy.sparse.identity(n)))


@pytest.mark.parametrize(
    "make, found",
    [
        (lambda: CsrMatrix.from_dense(laplacian_2d(12)), True),
        (lambda: CsrMatrix.from_dense(bumped_band(300)), True),
        (lambda: CsrMatrix.from_dense(random_spd(40, seed=3)), True),
        (lambda: CsrMatrix.from_dense(arrowhead_band(30)), True),
        (lambda: every_other(60), False),
        (lambda: every_other(60, hub=True), False),
    ],
    ids=["laplacian", "bumped_band", "random_spd", "arrowhead", "every_other", "every_other_hub"],
)
def test_levels_are_the_forest_depths_or_none(make, found):
    # the grid's forest depths are its levels, and so are those of a band,
    # a dense matrix and the arrowhead, where each row reads the one before
    # it; in the others a row reads a row deeper in the forest than the
    # last one it reads
    assert check_levels(lower_of(make())) == found


@st.composite
def sparse_symmetric_signed_zeros(draw):
    """``sparse_symmetric``, with its stored zeros as -0.0 in half the draws."""
    s = draw(sparse_symmetric())
    return _negated_zeros(s) if draw(st.booleans()) else s


@settings(max_examples=80, deadline=None)
@given(s=sparse_symmetric_signed_zeros(), diag_shift=st.sampled_from([0.0, 0.1, 1.5]))
def test_property_both_passes_match_reference(s, diag_shift):
    check_levels(lower_of(s))
    want = ref_ic0_intersect(s, diag_shift)
    for which in PASSES:
        assert_same_outcome(run_pass(which, s, diag_shift), want)


def poisson_grid(m, shift=0.01):
    """The 5-point Laplacian of an m x m grid plus ``shift * I``, as the
    benchmark's ``poisson_2d`` forms it."""
    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.identity(m)
    a = scipy.sparse.kron(t, eye) + scipy.sparse.kron(eye, t) + shift * scipy.sparse.identity(m * m)
    return CsrMatrix.from_scipy(scipy.sparse.csr_matrix(a))


def grid_27_point(m):
    """The 27-point stencil of an m x m x m grid, diagonally dominant: some
    3.2 pairs per off-diagonal entry of its lower triangle."""
    d = scipy.sparse.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(m, m))
    a = 28.0 * scipy.sparse.identity(m**3) - scipy.sparse.kron(scipy.sparse.kron(d, d), d)
    return CsrMatrix.from_scipy(scipy.sparse.csr_matrix(a))


@contextlib.contextmanager
def recorded_passes():
    """A list that gets "level" or "scalar" each time ``ic0`` runs that pass."""
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        for which in PASSES:
            original = getattr(ichol, f"_{which}_pass")

            def record(*args, which=which, original=original):
                taken.append(which)
                return original(*args)

            patch.setattr(ichol, f"_{which}_pass", record)
        yield taken


@pytest.fixture
def passes():
    with recorded_passes() as taken:
        yield taken


@pytest.mark.parametrize("make", [lambda: poisson_grid(200), lambda: grid_27_point(14)], ids=["grid200", "grid27"])
def test_ic0_takes_the_level_pass_and_keeps_its_bits(make, passes):
    s = make()
    got = ic0(s).L.values
    assert passes == ["level"]
    want = run_pass("scalar", s)
    assert hashlib.sha256(got.tobytes()).hexdigest() == hashlib.sha256(want.tobytes()).hexdigest()


def grid_breaking_at(m, rows, weak=0.2):
    """The m x m grid Laplacian with diagonal ``weak`` at ``rows``.  At 0.2
    each pivot fails: row m - 1, the end of the first grid line, reads row
    m - 2 (L^2 about 0.27), and row m reads row 0 (L^2 = 0.25)."""
    diagonal = np.full(m * m, 4.0)
    diagonal[list(rows)] = weak
    a = poisson_grid(m, shift=0.0).to_scipy().copy()
    a.setdiag(diagonal)
    return CsrMatrix.from_scipy(a)


def test_breakdown_is_the_lowest_failing_row_not_the_first_failing_level(passes):
    # the 50 x 50 grid is wide enough for the level pass, which gives up at
    # row m's level, one before row m - 1's; the recurrence finds the row
    m = 50
    lower = lower_of(grid_breaking_at(m, ()))
    level = _levels(lower.row_ptr, lower.col_idx, m * m)
    assert level[m - 1] == m - 1 and level[m] == 1  # row m fails at an earlier level
    for rows, want in (((m - 1,), m - 1), ((m,), m), ((m - 1, m), m - 1)):
        s = grid_breaking_at(m, rows)
        assert ref_ic0_intersect(s) == want
        passes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no sqrt of a negative pivot, no warning
            with pytest.raises(Breakdown) as info:
                ic0(s)
            for which in PASSES:
                assert run_pass(which, s) == want
        assert info.value.row == want
        assert passes == ["level", "scalar"]


def test_recurrence_goes_on_from_the_lowest_row_of_the_failing_level(monkeypatch):
    # on the m x m grid the level of row r m + c is r + c.  The level pass
    # gives up at the first failing level, and the recurrence runs from the
    # lowest row of that level and the levels after it, on the level pass's
    # values of the rows before, which are the recurrence's own
    m = 50
    starts = []

    def record(vals, row_ptr, cols, slots, start=0):
        starts.append(start)
        full = np.array(lower.values)
        with pytest.raises(Breakdown):
            original(full, row_ptr, cols, slots)
        assert vals[: row_ptr[start]].tobytes() == full[: row_ptr[start]].tobytes()
        return original(vals, row_ptr, cols, slots, start)

    original = ichol._scalar_pass
    monkeypatch.setattr(ichol, "_scalar_pass", record)
    # row 49 fails at level 49, whose lowest row it is; row 50, at level 1,
    # fails first when both are weak, and level 1's lowest row is row 1; row
    # 2,498 fails at level 97, whose lowest row is 48 m + 49
    for rows, start, want in (((m - 1,), m - 1, m - 1), ((m,), 1, m), ((m - 1, m), 1, m - 1), ((m * m - 2,), 48 * m + 49, m * m - 2)):
        s = grid_breaking_at(m, rows)
        lower = lower_of(s)
        starts.clear()
        with pytest.raises(Breakdown) as info:
            ic0(s)
        assert starts == [start] and info.value.row == want


@st.composite
def weakened_grids(draw):
    """An m x m grid Laplacian, m from 40 to 50, with up to four diagonal
    entries lowered from 4 to 0.2 or 0.5, where pivots fail, or 2.5."""
    m = draw(st.integers(40, 50))
    weak = draw(st.dictionaries(st.integers(0, m * m - 1), st.sampled_from([0.2, 0.5, 2.5]), min_size=1, max_size=4))
    return grid_breaking_at(m, list(weak), weak=list(weak.values()))


@settings(max_examples=25, deadline=None)
@given(s=weakened_grids())
def test_property_level_pass_hands_every_failure_to_the_recurrence(s):
    # from m = 40 on the grid's 2m - 1 levels are wide enough for the level
    # pass, which runs first and hands a failure to the recurrence
    want = ref_ic0_intersect(s)
    with recorded_passes() as taken:
        try:
            got = ic0(s).L.values
        except Breakdown as err:
            got = err.row
    assert_same_outcome(got, want)
    assert taken == (["level", "scalar"] if isinstance(want, int) else ["level"])


def test_empty_matrix_factors_to_an_empty_factor(passes):
    factor = ic0(CsrMatrix(0, 0, np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)))
    assert factor.n == 0 and factor.L.nnz == 0
    assert passes == ["scalar"]  # no levels to schedule


@pytest.mark.parametrize(
    "make, taken",
    [
        (lambda: poisson_grid(16), ["scalar"]),
        (lambda: poisson_grid(20), ["scalar"]),
        (lambda: CsrMatrix.from_dense(bumped_band(256)), ["scalar"]),
        (lambda: poisson_grid(70), ["level"]),
        (lambda: poisson_grid(200), ["level"]),
    ],
    ids=["poisson16", "poisson20", "bumped_band256", "poisson70", "poisson200"],
)
def test_each_benchmark_matrix_takes_its_pass(make, taken, passes):
    # poisson_2d(m, 0.01) as the benchmark forms it: 2m - 1 levels, too
    # narrow at m = 16 and 20 (8.3 and 10.3 rows a level), wide enough at
    # 70 and 200; the bumped band is a chain
    ic0(make())
    assert passes == taken


# The rule between the two passes


def _rule(s):
    """The levels ``ic0`` schedules the level pass by, or None."""
    lower = lower_of(s)
    return _levels(lower.row_ptr, lower.col_idx, s.n_rows // _LEVEL_MIN_WIDTH)


@pytest.fixture
def sweeps(monkeypatch):
    """A list that gets the row count of each ``csr_matvec`` sweep."""
    rows, original = [], _sparsetools.csr_matvec

    def csr_matvec(n_row, *args):
        rows.append(n_row)
        return original(n_row, *args)

    monkeypatch.setattr(_sparsetools, "csr_matvec", csr_matvec)
    return rows


def tridiagonal(n):
    return CsrMatrix.from_scipy(scipy.sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr"))


def test_rule_keeps_the_recurrence_for_chains_after_one_sweep(sweeps):
    # every row reads the one before it, or (the third) the one two before:
    # the forest of last links, one sweep over the rows, turns each away
    n = 4000
    stride_two = CsrMatrix.from_scipy(scipy.sparse.diags([-1.0, 4.0, -1.0], [-2, 0, 2], shape=(n, n), format="csr"))
    chains = [tridiagonal(20_000), CsrMatrix.from_dense(bumped_band(2000)), stride_two]
    for s in chains:
        assert _rule(s) is None
    assert sweeps == [s.n_rows for s in chains]


def test_rule_turns_a_grid_just_below_the_width_away():
    # the 36 x 36 grid: 71 levels of 18.25 rows
    s = poisson_grid(36)
    assert max(ref_levels(lower_of(s))) + 1 == 71 > s.n_rows // _LEVEL_MIN_WIDTH
    assert _rule(s) is None
    assert _rule(poisson_grid(46)) is not None  # 91 levels of 23.25 rows


def randspd1200_pattern():
    """The pattern of the large suite's randspd1200, B^T B + 0.01 I."""
    b = scipy.sparse.random(1500, 1200, density=0.004, random_state=1)
    return CsrMatrix.from_scipy(scipy.sparse.csr_matrix(b.T @ b + 0.01 * scipy.sparse.identity(1200)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: every_other(4000),
        lambda: every_other(4000, hub=True),
        lambda: every_other(4000, stride=20),
        lambda: randspd1200_pattern(),
    ],
    ids=["every_other", "every_other_hub", "every_other_stride20", "randspd1200"],
)
def test_rule_keeps_the_recurrence_where_the_forest_misses_the_levels(make, sweeps):
    # wide enough (2,000, 2,000, 101 and 61 levels of 4,000 or 1,200 rows),
    # but a row reads a row deeper in the forest than the last one it reads
    s = make()
    assert _rule(s) is None
    assert sweeps == [s.n_rows]
    assert check_levels(lower_of(s)) is False


def test_rule_takes_the_level_pass_on_the_200_grid():
    level = _rule(poisson_grid(200))
    assert level is not None and level.max() == 398  # the grid's 399 anti-diagonals
    assert level.dtype == np.int32


def test_chain_check_costs_under_five_percent_of_the_recurrence():
    # the check is one sweep (test_rule_keeps_the_recurrence_for_chains_after_one_sweep);
    # its time is the minimum of many runs, which noise can only lengthen
    s = tridiagonal(20_000)
    lower = lower_of(s)
    row_ptr, cols = lower.row_ptr, lower.col_idx
    slots = _shared_slots(row_ptr, cols)
    check = min(timeit.repeat(lambda: _levels(row_ptr, cols, s.n_rows // _LEVEL_MIN_WIDTH), number=1, repeat=25))
    recurrence = min(
        timeit.repeat(lambda: _scalar_pass(np.array(lower.values), row_ptr, cols, slots), number=1, repeat=3)
    )
    assert check <= 0.05 * recurrence, (check, recurrence)
