import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

from bregpcg import (
    CholFactor, CsrMatrix, chol_solve, ic0, scaled_apply, scaled_operator, sparse_ata, spmv, tri_solve,
)
from bregpcg import sparse_core
from bregpcg.precond import _minus_identity, _shifted
from conftest import bumped_band, laplacian_2d


def naive_spmv(dense, x):
    n_rows, n_cols = dense.shape
    out = np.zeros(n_rows)
    for i in range(n_rows):
        for j in range(n_cols):
            out[i] += dense[i, j] * x[j]
    return out


def test_csr_validation_rejects_bad_structure():
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        CsrMatrix(1, 2, np.array([0, 2]), np.array([1, 0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        CsrMatrix(1, 2, np.array([0, 2]), np.array([0, 0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        CsrMatrix(1, 1, np.array([0, 1]), np.array([0]), np.array([np.nan]))
    with pytest.raises(ValueError):
        CsrMatrix(1, 1, np.array([0, 1]), np.array([1]), np.array([1.0]))


def test_csr_roundtrip_dense():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    a = CsrMatrix.from_dense(dense)
    assert a.nnz == 4
    np.testing.assert_array_equal(a.to_dense(), dense)
    np.testing.assert_array_equal(a.transpose().to_dense(), dense.T)


def test_csr_keeps_explicit_zeros_from_coo():
    a = CsrMatrix.from_coo(
        2, 2, np.array([0, 1, 1]), np.array([0, 0, 1]), np.array([1.0, 0.0, 2.0])
    )
    assert a.nnz == 3
    cols, vals = a.row(1)
    np.testing.assert_array_equal(cols, [0, 1])
    np.testing.assert_array_equal(vals, [0.0, 2.0])


def test_spmv_identity():
    eye = CsrMatrix.from_dense(np.eye(3))
    np.testing.assert_array_equal(spmv(eye, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_spmv_row_sums():
    a = CsrMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    np.testing.assert_array_equal(spmv(a, np.array([1.0, 1.0])), [1.0, 1.0])


def test_spmv_matches_dense_oracle():
    gen = np.random.default_rng(11)
    dense = gen.standard_normal((50, 50))
    dense[gen.random((50, 50)) < 0.6] = 0.0
    x = gen.standard_normal(50)
    got = spmv(CsrMatrix.from_dense(dense), x)
    want = naive_spmv(dense, x)
    assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))


def test_spmv_dimension_mismatch():
    a = CsrMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        spmv(a, np.ones(4))


def test_spmv_is_bitwise_the_scipy_product():
    # spmv calls scipy's private csr_matvec, the kernel behind ``@``; this
    # guards that import on new scipy versions.  A column of a block is a
    # strided operand.
    gen = np.random.default_rng(5)
    for n_rows, n_cols in ((1, 1), (37, 53), (200, 200)):
        dense = gen.standard_normal((n_rows, n_cols))
        dense[gen.random((n_rows, n_cols)) < 0.7] = 0.0
        a = CsrMatrix.from_dense(dense)
        block = gen.standard_normal((n_cols, 3))
        for x in (block[:, 0].copy(), block[:, 1]):
            got = spmv(a, x)
            assert got.shape == (n_rows,)
            np.testing.assert_array_equal(got, a.to_scipy() @ x)


def csr_product(a: CsrMatrix, x) -> np.ndarray:
    y = np.zeros(a.n_rows)
    _sparsetools.csr_matvec(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, a.values, x, y)
    return y


def wide_range(gen, n) -> np.ndarray:
    """Signed magnitudes from 1e-300 to 1e300, with some +0.0 and -0.0."""
    x = np.where(gen.random(n) < 0.5, -1.0, 1.0) * 10.0 ** gen.uniform(-300, 300, n)
    x[gen.random(n) < 0.15] = 0.0
    x[gen.random(n) < 0.15] = -0.0
    return x


def occupied_slots(a: CsrMatrix) -> int:
    """Slots a diagonal layout of ``a`` takes: its occupied diagonals times n_cols."""
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.row_ptr))
    return len(np.unique(a.col_idx - rows)) * a.n_cols


@st.composite
def banded_matrices(draw):
    """A matrix, square or not, whose entries lie on a few diagonals: the
    main diagonal alone or a random set of offsets, each diagonal full or
    thinned, with stored +-0.0, maybe empty rows, and values of every
    magnitude."""
    n_rows, n_cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    offsets = draw(st.one_of(
        st.just([0]),
        st.lists(st.integers(-(n_rows - 1), n_cols - 1), min_size=1, max_size=6, unique=True),
    ))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sampled_from([1.0, 0.8, 0.4]))
    empty = gen.random(n_rows) < draw(st.sampled_from([0.0, 0.2]))
    rows, cols = [], []
    for k in offsets:
        i = np.arange(max(0, -k), min(n_rows, n_cols - k))
        i = i[(gen.random(len(i)) < keep) & ~empty[i]]
        rows.append(i)
        cols.append(i + k)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return CsrMatrix.from_coo(n_rows, n_cols, rows, cols, wide_range(gen, len(rows)))


@settings(max_examples=200, deadline=None)
@given(a=banded_matrices(), wide=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_property_spmv_is_bitwise_the_csr_kernel(a, wide, seed):
    x = wide_range(np.random.default_rng(seed), a.n_cols)
    want = csr_product(a, x).tobytes()
    assert (a._diagonals is not None) == (0 < occupied_slots(a) <= sparse_core._DIA_FILL * a.nnz)
    assert spmv(a, x).tobytes() == want
    # any banded matrix by diagonals, however much padding, and with int64
    # offsets too
    forced = CsrMatrix(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, a.values)
    with mock.patch.object(sparse_core, "_DIA_FILL", np.inf):
        layout = forced._diagonals
    if a.nnz == 0:
        assert layout is None
        return
    offsets, data = layout
    assert np.all(np.diff(offsets) > 0) and data.shape == (len(offsets), a.n_cols)
    dia = scipy.sparse.dia_matrix((data, offsets), shape=a.shape)
    assert dia.toarray().tobytes() == a.to_dense().tobytes()
    if wide:
        forced.__dict__["_diagonals"] = (offsets.astype(np.int64), data)
    assert spmv(forced, x).tobytes() == want


def test_stencil_matrices_are_stored_by_diagonals():
    # the 5-point Laplacian of a 20 x 20 grid takes 2,000 slots for 1,920
    # entries; bumped_band's rank-1 bumps scatter entries over many diagonals
    a = CsrMatrix.from_dense(laplacian_2d(20))
    offsets, data = a._diagonals
    np.testing.assert_array_equal(offsets, [-20, -1, 0, 1, 20])
    assert offsets.dtype == np.int32 and data.shape == (5, 400)
    assert CsrMatrix.from_dense(bumped_band(256))._diagonals is None
    x = np.random.default_rng(4).standard_normal(400)
    assert spmv(a, x).tobytes() == csr_product(a, x).tobytes()


@pytest.mark.parametrize("k,by_diagonals", [(4, True), (5, False)])
def test_fill_limit_is_inclusive(k, by_diagonals):
    # offsets {0, k} of a 6 x 6 matrix: 12 slots for 6 + (6 - k) entries,
    # exactly 1.5 per entry at k = 4
    a = CsrMatrix.from_dense(np.eye(6) + np.eye(6, k=k))
    assert (a._diagonals is not None) == by_diagonals


def test_matrix_just_past_the_fill_limit_stays_on_csr():
    # a periodic tridiagonal: the two corner entries add two diagonals of one
    # entry each, 5 n slots for 3 n entries
    n = 300
    dense = 4 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    dense[0, -1] = dense[-1, 0] = -1.0
    a = CsrMatrix.from_dense(dense)
    assert a._diagonals is None
    x = wide_range(np.random.default_rng(6), n)
    assert spmv(a, x).tobytes() == csr_product(a, x).tobytes()


def test_arrowhead_allocates_no_block_of_diagonals():
    # a dense first row and column occupy all 2n - 1 diagonals: a layout
    # would take (2n - 1) n slots, 64 MB, for 3n - 2 entries
    n = 2000
    rows = np.concatenate([np.arange(n), np.zeros(n - 1, dtype=int), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.zeros(n - 1, dtype=int)])
    a = CsrMatrix.from_coo(n, n, rows, cols, np.ones(len(rows)))
    tracemalloc.start()
    try:
        layout = a._diagonals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layout is None
    assert peak < (2 * n - 1) * n * 8 / 100


def test_csr_indices_are_int32_below_2_31():
    a = CsrMatrix.from_dense(laplacian_2d(5))
    assert a.row_ptr.dtype == a.col_idx.dtype == np.int32
    # the scipy view shares the arrays instead of narrowing copies of them
    assert np.shares_memory(a.to_scipy().indices, a.col_idx)
    assert np.shares_memory(a.to_scipy().indptr, a.row_ptr)
    b = CsrMatrix(2, 2, np.array([0, 1, 2], dtype=np.int64), np.array([1, 0]), np.array([1.0, 2.0]))
    assert b.row_ptr.dtype == b.col_idx.dtype == np.int32


def test_csr_indices_are_int64_from_2_31():
    wide = 2**31
    a = CsrMatrix(1, wide, np.array([0, 1]), np.array([wide - 1]), np.array([1.0]))
    assert a.row_ptr.dtype == a.col_idx.dtype == np.int64
    assert a.col_idx[0] == wide - 1


def test_csr_validation_sees_indices_before_narrowing():
    # 2**32 would wrap to column 0 in int32
    with pytest.raises(ValueError, match="column index out of range"):
        CsrMatrix(1, 2, np.array([0, 1]), np.array([2**32]), np.array([1.0]))


def test_spmv_dense_oracle_various_sizes():
    # pinned relative accuracy on random instances up to n=200
    gen = np.random.default_rng(3)
    for n in (7, 64, 200):
        dense = gen.standard_normal((n, n))
        dense[gen.random((n, n)) < 0.7] = 0.0
        x = gen.standard_normal(n)
        got = spmv(CsrMatrix.from_dense(dense), x)
        want = dense @ x
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def lower_factor(dense) -> CholFactor:
    return CholFactor(CsrMatrix.from_dense(dense))


def test_tri_solve_identity():
    fac = lower_factor(np.eye(4))
    b = np.array([4.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(tri_solve(fac, b), b)
    np.testing.assert_array_equal(tri_solve(fac, b, transposed=True), b)


def test_tri_solve_hand_case():
    fac = lower_factor(np.array([[2.0, 0.0], [1.0, 3.0]]))
    got = tri_solve(fac, np.array([2.0, 7.0]))
    np.testing.assert_allclose(got, [1.0, 2.0], atol=1e-15)


def random_sparse_lower(gen, n):
    dense = np.tril(gen.standard_normal((n, n)))
    dense[gen.random((n, n)) < 0.8] = 0.0
    np.fill_diagonal(dense, 1.0 + gen.random(n))
    return dense


def test_tri_solve_roundtrip_sparse():
    gen = np.random.default_rng(5)
    n = 100
    dense = random_sparse_lower(gen, n)
    fac = lower_factor(dense)
    b = gen.standard_normal(n)
    x = tri_solve(fac, b)
    assert np.linalg.norm(dense @ x - b) / np.linalg.norm(b) <= 1e-12
    y = tri_solve(fac, b, transposed=True)
    assert np.linalg.norm(dense.T @ y - b) / np.linalg.norm(b) <= 1e-12


TRI_FACTORS = {
    "ic0_laplacian": lambda: ic0(CsrMatrix.from_dense(laplacian_2d(12))),
    "ic0_bumped_band": lambda: ic0(CsrMatrix.from_dense(bumped_band(300))),
    "random_sparse_lower": lambda: lower_factor(random_sparse_lower(np.random.default_rng(5), 100)),
}


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("name", sorted(TRI_FACTORS))
def test_tri_solve_is_bitwise_scipy_spsolve_triangular(name, transposed):
    # tri_solve sweeps with scipy's private csr_matvec; this pins it to the
    # public solver bit for bit
    fac = TRI_FACTORS[name]()
    tri = fac.L.to_scipy()
    if transposed:
        tri = tri.T.tocsr()
    gen = np.random.default_rng(21)
    for b in (gen.standard_normal(fac.n), gen.standard_normal((fac.n, 32))):
        want = scipy.sparse.linalg.spsolve_triangular(tri, b, lower=not transposed)
        np.testing.assert_array_equal(tri_solve(fac, b, transposed), want)


def test_tri_solve_never_calls_spsolve_triangular(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("spsolve_triangular reached")

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve_triangular", refuse)
    fac = ic0(CsrMatrix.from_dense(bumped_band(60)))
    b = np.random.default_rng(2).standard_normal((60, 3))
    for _ in range(3):
        for transposed in (False, True):
            tri_solve(fac, b[:, 0], transposed)
            tri_solve(fac, b, transposed)


def test_tri_solve_leaves_right_hand_side_alone():
    fac = ic0(CsrMatrix.from_dense(bumped_band(40)))
    b = np.random.default_rng(4).standard_normal(40)
    kept = b.copy()
    tri_solve(fac, b)
    tri_solve(fac, b, transposed=True)
    np.testing.assert_array_equal(b, kept)


CHOL_FACTORS = {
    "ic0_laplacian": lambda: ic0(CsrMatrix.from_dense(laplacian_2d(12))),
    "ic0_bumped_band": lambda: ic0(CsrMatrix.from_dense(bumped_band(300))),
    "diagonal_only": lambda: lower_factor(np.diag(np.linspace(0.5, 3.0, 50))),
}


@pytest.mark.parametrize("name", sorted(CHOL_FACTORS))
def test_chol_solve_matches_two_triangular_solves(name):
    # the two sweeps with the unit factor and the division by d^2 between
    # them against the public solver run twice
    fac = CHOL_FACTORS[name]()
    low = fac.L.to_scipy()
    b = np.random.default_rng(22).standard_normal(fac.n)
    half = scipy.sparse.linalg.spsolve_triangular(low, b, lower=True)
    want = scipy.sparse.linalg.spsolve_triangular(low.T.tocsr(), half, lower=False)
    got = chol_solve(fac, b)
    assert got.shape == b.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("name", sorted(CHOL_FACTORS))
def test_chol_solve_matches_dense_solve(name):
    fac = CHOL_FACTORS[name]()
    low = fac.to_dense()
    b = np.random.default_rng(23).standard_normal(fac.n)
    want = np.linalg.solve(low @ low.T, b)
    np.testing.assert_allclose(chol_solve(fac, b), want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


def test_chol_solve_diagonal_factor_divides_by_the_square():
    d = np.array([0.5, 2.0, 3.0])
    b = np.array([1.0, -8.0, 9.0])
    np.testing.assert_array_equal(chol_solve(lower_factor(np.diag(d)), b), b / (d * d))


def test_chol_solve_leaves_right_hand_side_alone_and_checks_its_size():
    fac = ic0(CsrMatrix.from_dense(bumped_band(40)))
    b = np.random.default_rng(4).standard_normal(40)
    kept = b.copy()
    x = chol_solve(fac, b)
    np.testing.assert_array_equal(b, kept)
    assert not np.shares_memory(x, b)
    with pytest.raises(ValueError):
        chol_solve(fac, np.zeros(39))


def product_sweeps(low, form):
    """Each sweep of a solve as a matrix built with sparse products by diagonal
    matrices and by the reversal permutation, ascending columns in each row."""
    n = low.shape[0]
    invdiag = scipy.sparse.diags_array(1 / low.diagonal())
    strict = scipy.sparse.tril(low, k=-1, format="csr")
    unit = strict @ invdiag  # M = L D^-1 without its diagonal
    flip = scipy.sparse.csr_array((np.ones(n), (np.arange(n), np.arange(n)[::-1])), shape=(n, n))
    if form == "lower":
        sweeps = [-unit]
    elif form == "upper":
        sweeps = [-(flip @ (invdiag @ strict).T @ flip)]
    else:
        sweeps = [-unit, -(flip @ unit.T @ flip)]
    sweeps = [scipy.sparse.csr_array(m) for m in sweeps]
    for m in sweeps:
        m.sum_duplicates()
        m.eliminate_zeros()
    return sweeps


def rows_reversed(indptr, arr):
    """``arr`` with the entries of each CSR row in reverse order."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    pos = np.arange(len(arr))
    return arr[indptr[rows] + indptr[rows + 1] - 1 - pos]


def factor_with_stored_zero():
    # a stored zero below the diagonal, which a product with a diagonal
    # matrix drops from its result
    dense = random_sparse_lower(np.random.default_rng(8), 40)
    low = scipy.sparse.csr_array(dense)
    lower = low.indices < np.repeat(np.arange(40), np.diff(low.indptr))
    low.data[np.flatnonzero(lower)[:3]] = 0.0
    return CholFactor(CsrMatrix(40, 40, low.indptr, low.indices, low.data))


PLAN_FACTORS = {
    "ic0_poisson20": lambda: ic0(CsrMatrix.from_dense(laplacian_2d(20))),
    "ic0_bumped_band256": lambda: ic0(CsrMatrix.from_dense(bumped_band(256))),
    "ic0_poisson70": lambda: ic0(CsrMatrix.from_scipy(scipy.sparse.kronsum(*[scipy.sparse.diags_array(
        [-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(70, 70))] * 2))),
    "stored_zero": factor_with_stored_zero,
}


def permuted_rows(sweep, rows, columns):
    """``sweep``'s CSR arrays with its rows taken in the order ``rows`` and
    its column indices mapped through ``columns``."""
    counts = np.diff(sweep.indptr)[rows]
    take = np.concatenate([np.arange(sweep.indptr[r], sweep.indptr[r] + c) for r, c in zip(rows, counts)] + [[]])
    take = take.astype(np.intp)
    return np.concatenate([[0], np.cumsum(counts)]), columns[sweep.indices[take]], sweep.data[take]


def natural_sweeps(fac, form):
    """The factor's sweeps of ``form`` in natural order: its own for a
    triangular solve, and for chol_solve's form, whose sweeps run in their
    own order, the same two built from the factor's natural split."""
    if form == "both":
        return [sparse_core._build_sweep(f, fac._split) for f in ("forward", "backward")]
    return [fac._forward if form == "lower" else fac._upper]


def chol_orders(fac):
    """(rows, positions) of chol_solve's forward sweep and of its backward
    sweep, which runs in the reverse order."""
    rows, ends = fac._chol[:2]
    return [(rows, (fac.n - 1) - ends), (rows[::-1], ends)]


# "both" is chol_solve's form, a forward and a backward sweep
@pytest.mark.parametrize("form", ["lower", "upper", "both"])
@pytest.mark.parametrize("name", sorted(PLAN_FACTORS))
def test_solve_plan_arrays_equal_the_diagonal_product_form(name, form):
    # the sweeps scale and permute L's arrays entry by entry; each entry is
    # the one product a sparse product with a diagonal matrix forms, so every
    # array of the natural sweeps is equal.  A reversed sweep keeps ascending
    # original rows, which are descending columns after the reversal
    fac = PLAN_FACTORS[name]()
    low = fac.L.to_scipy()
    if name == "stored_zero":
        assert np.count_nonzero(low.data == 0.0) == 3
    sweeps = natural_sweeps(fac, form)
    want = product_sweeps(low, form)
    assert len(sweeps) == len(want)
    for k, (got, mat) in enumerate(zip(sweeps, want)):
        reversed_ = form == "upper" or k == 1
        indices, data = mat.indices, mat.data
        if reversed_:
            indices, data = rows_reversed(mat.indptr, indices), rows_reversed(mat.indptr, data)
        for a, b in ((got.indptr, mat.indptr), (got.indices, indices)):
            assert a.dtype == fac.L.row_ptr.dtype
            np.testing.assert_array_equal(a, b)
        assert data.dtype == got.data.dtype == np.float64
        assert got.data.tobytes() == data.tobytes()
    diag = low.diagonal()
    np.testing.assert_array_equal(fac._split.invdiag, 1 / diag, strict=True)
    # a reversed sweep divides by its own divisors first, in reversed order
    divisors = {"lower": None, "upper": diag * (1 / diag), "both": diag * diag}[form]
    if form != "upper":
        assert sweeps[0].divisors is None
    if divisors is not None:
        assert sweeps[-1].divisors.tobytes() == divisors[::-1].tobytes()
    # chol_solve's sweeps hold the same rows in its order, each with its
    # entries in the same order, the columns renumbered by position
    n = fac.n
    if form == "both":
        for natural, chol, (rows, positions), natural_rows in zip(
            sweeps, fac._chol[2:], chol_orders(fac), (np.arange(n), np.arange(n)[::-1])
        ):
            want = permuted_rows(natural, natural_rows[rows], positions[natural_rows])
            for got, arr, kept in zip(chol[:3], want, natural[:3]):
                assert got.dtype == kept.dtype
                assert got.tobytes() == arr.astype(kept.dtype).tobytes()
            if natural.divisors is None:
                assert chol.divisors is None
            else:
                assert chol.divisors.tobytes() == natural.divisors[natural_rows[rows]].tobytes()
    # the factor's own arrays are not written
    for arr in (fac.L.row_ptr, fac.L.col_idx, fac.L.values):
        assert not arr.flags.writeable


def counted_sweeps(monkeypatch):
    """The list each ``sparse_core._sweep`` call appends to."""
    original, calls = sparse_core._sweep, []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(sparse_core, "_sweep", counted)
    return calls


def test_every_solve_of_a_factor_shares_its_four_sweeps(monkeypatch):
    # the lower solve and scaled_apply's second half run one forward sweep,
    # the upper solve and scaled_apply's first half one reversed sweep, for
    # vectors and blocks alike; chol_solve runs the two sweeps of its own
    # order, which is the identity on the bumped band: each sweep is built
    # once
    calls = counted_sweeps(monkeypatch)
    for name in ("ic0_poisson20", "ic0_bumped_band256"):
        calls.clear()
        fac = PLAN_FACTORS[name]()
        s = CsrMatrix.from_scipy(fac.L.to_scipy() @ fac.L.to_scipy().T)
        v = np.random.default_rng(3).standard_normal((fac.n, 3))
        for _ in range(2):
            for b in (v[:, 0], v):
                tri_solve(fac, b)
                tri_solve(fac, b, transposed=True)
                scaled_apply(s, fac, b)
            chol_solve(fac, v[:, 0])
        assert len(calls) == 4, name


def test_chol_solve_alone_never_builds_the_upper_sweep(monkeypatch):
    # a forward and a backward sweep in chol_solve's order, and neither
    # natural sweep; a rejected block builds nothing
    calls = counted_sweeps(monkeypatch)
    fac = PLAN_FACTORS["ic0_poisson20"]()
    b = np.random.default_rng(3).standard_normal((fac.n, 3))
    with pytest.raises(ValueError):
        chol_solve(fac, b)
    assert not calls and "_chol" not in vars(fac)
    chol_solve(fac, b[:, 0])
    chol_solve(fac, b[:, 1])
    assert len(calls) == 2
    assert "_upper" not in vars(fac) and "_forward" not in vars(fac)


def test_vector_order_is_a_topological_order_and_natural_on_the_band():
    # on the 70 x 70 grid chol_solve's rows follow each other in another
    # order than the natural one, and each row still comes after every row
    # it reads: L's strict entries, stored zeros included, and each of its
    # sweeps' entries point to earlier positions
    fac = PLAN_FACTORS["ic0_poisson70"]()
    rows, ends, forward, backward = fac._chol
    assert rows.dtype == ends.dtype == np.intp
    assert not np.array_equal(rows, np.arange(fac.n))
    np.testing.assert_array_equal(ends[rows], np.arange(fac.n)[::-1])
    positions = chol_orders(fac)[0][1]
    i, j = fac._split.i, fac._split.j
    assert np.all(positions[j] < positions[i])
    for sweep in (forward, backward):
        sweep_rows = np.repeat(np.arange(fac.n), np.diff(sweep.indptr))
        assert np.all(sweep.indices < sweep_rows)
    # every row of the bumped band reads the row before it, so its order is
    # the identity, and its sweeps are the natural ones
    band = PLAN_FACTORS["ic0_bumped_band256"]()
    rows, ends, *chol = band._chol
    np.testing.assert_array_equal(rows, np.arange(band.n))
    np.testing.assert_array_equal(ends, np.arange(band.n)[::-1])
    for got, natural in zip(chol, natural_sweeps(band, "both")):
        for a, b in zip(got, natural):
            np.testing.assert_array_equal(a, b, strict=True)


def overflowing_factor():
    """A unit-diagonal factor whose row keys overflow to inf: a dense lower
    triangle on the first 1,100 rows, where row i's key is 2**i, then rows
    that read nothing, which the order moves forward, and rows that read
    row 1,099 only, whose keys tie with it at inf."""
    dense, free, tied = 1100, 40, 40
    n = dense + free + tied
    gen = np.random.default_rng(9)
    rows, cols = np.tril_indices(dense, -1)
    rows = np.concatenate([rows, np.arange(dense + free, n)])
    cols = np.concatenate([cols, np.full(tied, dense - 1)])
    vals = 1e-4 * gen.standard_normal(len(rows))
    rows, cols = np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, 1.0 + gen.random(n)])
    return CholFactor(CsrMatrix.from_coo(n, n, rows, cols, vals))


def test_overflowing_keys_still_solve_bitwise():
    fac = overflowing_factor()
    rows, positions = chol_orders(fac)[0]
    assert not np.array_equal(rows, np.arange(fac.n))
    # the free rows come first, and the tied rows keep natural order after
    # the dense ones they tie with
    assert set(rows[1:41].tolist()) == set(range(1100, 1140))
    np.testing.assert_array_equal(rows[-41:], [1099] + list(range(1140, 1180)))
    i, j = fac._split.i, fac._split.j
    assert np.all(positions[j] < positions[i])
    low = fac.L.to_scipy()
    b = np.random.default_rng(10).standard_normal(fac.n)
    for transposed in (False, True):
        tri = low.T.tocsr() if transposed else low
        want = scipy.sparse.linalg.spsolve_triangular(tri, b, lower=not transposed)
        assert tri_solve(fac, b, transposed).tobytes() == want.tobytes()
    assert chol_solve(fac, b).tobytes() == ref_chol_solve(fac.L, b).tobytes()


def test_vector_sweeps_keep_the_index_dtype():
    # int32 from an int32 factor, int64 from widened_factor's int64 split,
    # natural and in chol_solve's order; that order is numpy's index type
    fac = PLAN_FACTORS["ic0_poisson20"]()
    wide = widened_factor(fac)
    for f, index in ((fac, np.int32), (wide, np.int64)):
        assert f._chol[0].dtype == f._chol[1].dtype == np.intp
        for sweep in every_sweep(f):
            assert sweep.indptr.dtype == sweep.indices.dtype == index
    for narrow, widened in zip(every_sweep(fac), every_sweep(wide)):
        for a, b in zip(narrow[:3], widened[:3]):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(wide._chol[0], fac._chol[0])
    gen = np.random.default_rng(11)
    v = gen.standard_normal(fac.n)
    assert chol_solve(wide, v).tobytes() == chol_solve(fac, v).tobytes()


@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_grouping_is_a_stable_sort(index):
    gen = np.random.default_rng(12)
    for m, n in ((0, 3), (1, 1), (50, 4), (500, 60)):
        keys = gen.integers(0, n, m).astype(index)
        indptr, take = sparse_core._grouped(keys, n)
        assert indptr.dtype == take.dtype == index
        np.testing.assert_array_equal(take, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(indptr, np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=n))]))


BAD_OPERANDS = {"0-D": np.float64(1.0), "3-D": np.ones((9, 2, 2)), "empty 3-D": np.ones((9, 0, 1))}
# chol_solve takes vectors only
BLOCK_OPERANDS = {"2-D": np.ones((9, 2)), "empty 2-D": np.ones((9, 0))}
REJECTED = [(operand, kernel) for operand in sorted(BAD_OPERANDS) for kernel in ("lower", "upper", "chol", "scaled")]
REJECTED += [(operand, "chol") for operand in sorted(BLOCK_OPERANDS)]


@pytest.mark.parametrize("operand,kernel", REJECTED, ids=[f"{operand}-{kernel}" for operand, kernel in REJECTED])
def test_solves_reject_operands_that_are_neither_vectors_nor_blocks(kernel, operand):
    fac = diagonal_factor(9)
    s = CsrMatrix.from_dense(np.eye(9))
    run = {
        "lower": lambda b: tri_solve(fac, b),
        "upper": lambda b: tri_solve(fac, b, True),
        "chol": lambda b: chol_solve(fac, b),
        "scaled": lambda b: scaled_apply(s, fac, b),
    }[kernel]
    b = {**BAD_OPERANDS, **BLOCK_OPERANDS}[operand]
    with pytest.raises(ValueError, match=re.escape(f"operand has shape {np.shape(b)}")):
        run(b)


def test_sweep_reads_what_it_has_written():
    # every solve rests on csr_matvec(x, x) updating x row by row in place:
    # on the unit bidiagonal chain a copy of x, a restrict-qualified or a
    # parallel kernel would give ones or a partial sum instead of 1, 2, ..., 6
    indptr = np.array([0, 0, 1, 2, 3, 4, 5], dtype=np.int32)
    indices = np.arange(5, dtype=np.int32)
    data = np.ones(5)
    x = np.ones(6)
    _sparsetools.csr_matvec(6, 6, indptr, indices, data, x, x)
    np.testing.assert_array_equal(x, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    block = np.ones((6, 3))
    _sparsetools.csr_matvecs(6, 6, 3, indptr, indices, data, block, block)
    np.testing.assert_array_equal(block, np.repeat(np.arange(1.0, 7.0)[:, None], 3, axis=1))
    # chol_solve's sweeps run their rows in a permuted order, so a row's
    # column indices, which are positions in that order, need not ascend:
    # row 3 reads the rows at positions 2, 0 and 1 in that stored order, and
    # adds their products in it.  Summed in ascending column order it would
    # round to another value
    indptr = np.array([0, 0, 1, 2, 5], dtype=np.int32)
    indices = np.array([0, 1, 2, 0, 1], dtype=np.int32)
    data = np.array([1.0, 1.0, 1.0, 1e16, -0.5e16])
    x = np.ones(4)
    _sparsetools.csr_matvec(4, 4, indptr, indices, data, x, x)
    x1, x2 = 2.0, 3.0
    stored = ((1.0 + 1.0 * x2) + 1e16 * 1.0) + -0.5e16 * x1
    ascending = ((1.0 + 1e16 * 1.0) + -0.5e16 * x1) + 1.0 * x2
    assert stored != ascending
    np.testing.assert_array_equal(x, [1.0, x1, x2, stored])


def widened(low: CsrMatrix):
    """``low``'s arrays with int64 indices, which CsrMatrix keeps only from 2**31."""
    return SimpleNamespace(
        n_rows=low.n_rows, row_ptr=low.row_ptr.astype(np.int64),
        col_idx=low.col_idx.astype(np.int64), values=low.values,
    )


def every_sweep(fac: CholFactor) -> list:
    """The factor's natural sweeps and chol_solve's two."""
    return [fac._forward, fac._upper, *fac._chol[2:]]


def widened_factor(fac: CholFactor) -> CholFactor:
    """A copy of ``fac`` whose split, and so every sweep built from it, in
    either order, has int64 indices, which CsrMatrix keeps only from 2**31."""
    wide = CholFactor(fac.L)
    split = fac._split
    wide.__dict__["_split"] = split._replace(i=split.i.astype(np.int64), j=split.j.astype(np.int64))
    for sweep in every_sweep(wide):
        assert sweep.indptr.dtype == sweep.indices.dtype == np.int64
    return wide


def ref_chol_solve(low: CsrMatrix, b):
    """(L L^T) x = b for a vector b on Python floats, the arithmetic
    ``chol_solve`` promises.

    L = M D: a forward sweep with M in stored order, x / d^2, then a backward
    sweep with M^T, each row in ascending original row order.  A row adds
    (-m) * x_j to its running value, and a zero m adds nothing.
    """
    n, ptr, cols, vals = low.n_rows, low.row_ptr.tolist(), low.col_idx.tolist(), low.values.tolist()
    d = [vals[ptr[i + 1] - 1] for i in range(n)]
    entries = [
        (i, cols[t], vals[t] * (1 / d[cols[t]]))
        for i in range(n) for t in range(ptr[i], ptr[i + 1] - 1)
    ]
    entries = [(i, j, m) for i, j, m in entries if m != 0.0]
    x = b.tolist()
    for i, j, m in entries:
        x[i] += (-m) * x[j]
    x = [x[i] / (d[i] * d[i]) for i in range(n)]
    for i, j, m in sorted(entries, key=lambda e: -e[1]):  # stable: ascending i per j
        x[j] += (-m) * x[i]
    return np.array(x)


@st.composite
def lower_factors(draw):
    """A sparse lower factor with positive diagonal: random entries, some
    stored zeros, maybe a dense first column or a dense last row."""
    n = draw(st.integers(1, 30))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    mask = np.tril(gen.random((n, n)) < density, -1)
    if draw(st.booleans()):
        mask[1:, 0] = True
    if draw(st.booleans()):
        mask[-1, :-1] = True
    vals = np.where(mask, gen.standard_normal((n, n)), 0.0)
    zeros = mask & (gen.random((n, n)) < 0.2)
    np.fill_diagonal(mask, True)
    np.fill_diagonal(vals, 0.5 + gen.random(n))
    rows, cols = np.nonzero(mask)
    vals = np.where(zeros, 0.0, vals)[rows, cols]
    return CholFactor(CsrMatrix.from_coo(n, n, rows, cols, vals))


@settings(max_examples=60, deadline=None)
@given(
    fac=lower_factors(),
    wide=st.booleans(),
    k=st.sampled_from([None, 0, 1, 4, 40]),  # 40: more than one chunk of columns
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_sweeps_are_bitwise_their_references(fac, wide, k, fortran, seed):
    n = fac.n
    gen = np.random.default_rng(seed)
    b = gen.standard_normal(n) if k is None else gen.standard_normal((n, k))
    if fortran:
        b = np.asfortranarray(b)
    low = fac.L.to_scipy()
    solver = widened_factor(fac) if wide else fac

    def solve(form, rhs):
        if form == "chol":
            return chol_solve(solver, rhs)
        return tri_solve(solver, rhs, form == "upper")
    kept = b.copy()
    for form, tri, lower in (("lower", low, True), ("upper", low.T.tocsr(), False)):
        got = solve(form, b)
        want = scipy.sparse.linalg.spsolve_triangular(tri, b, lower=lower)
        assert got.shape == want.shape and got.flags.f_contiguous
        assert got.tobytes(order="A") == want.tobytes(order="A")
    if k is None:
        got = solve("chol", b)
        assert got.shape == b.shape
        assert got.tobytes() == ref_chol_solve(fac.L, b).tobytes()
        half = scipy.sparse.linalg.spsolve_triangular(low, b, lower=True)
        twice = scipy.sparse.linalg.spsolve_triangular(low.T.tocsr(), half, lower=False)
        np.testing.assert_allclose(got, twice, rtol=1e-10, atol=1e-12 * max(1.0, np.abs(twice).max(initial=0.0)))
    np.testing.assert_array_equal(b, kept)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes(order="C") == b.tobytes(order="C")


def random_square(gen, n) -> CsrMatrix:
    """A sparse n x n matrix with some stored zeros."""
    mask = gen.random((n, n)) < 0.3
    rows, cols = np.nonzero(mask)
    vals = np.where(gen.random(len(rows)) < 0.1, 0.0, gen.standard_normal(len(rows)))
    return CsrMatrix.from_coo(n, n, rows, cols, vals)


def with_int64_indices(fac: CholFactor, s: CsrMatrix):
    """A copy of ``fac`` whose sweeps, and a stand-in for ``s`` whose arrays,
    have int64 indices, which CsrMatrix keeps only from 2**31; the stand-in
    has no diagonal layout, so its products run the CSR kernel."""
    stand_in = SimpleNamespace(shape=s.shape, **vars(widened(s)), n_cols=s.n_cols, _diagonals=None)
    return widened_factor(fac), stand_in


def check_scaled_apply(fac, s, v, wide=False, eta=1.5):
    """``scaled_apply`` and the operators built on it against their
    definitions, bitwise, column by column for a block."""
    n, k = fac.n, None if v.ndim == 1 else v.shape[1]

    def reference(x):
        return tri_solve(fac, spmv(s, tri_solve(fac, x, True)))

    want = reference(v) if k is None else np.empty((n, k))
    for i in range(k or 0):
        want[:, i] = reference(v[:, i])
    kept = v.copy()
    original, calls = sparse_core.spmv, []

    def counted(a, x):
        calls.append(1)
        return original(a, x)

    fac_used, s_used = with_int64_indices(fac, s) if wide else (fac, s)
    sparse_core.spmv = counted  # the binding the kernel looks up when it runs
    try:
        got = scaled_apply(s_used, fac_used, v)
    finally:
        sparse_core.spmv = original
    assert same_bits(got, want)
    assert len(calls) == (1 if k is None else k)
    assert same_bits(v, kept)
    assert got.flags.owndata and got.flags.writeable and not np.shares_memory(got, v)

    op = scaled_operator(s, fac)
    assert same_bits(_minus_identity(op).apply(v), op.apply(v) - v)
    assert same_bits(_shifted(op, eta).apply(v), eta * v - op.apply(v))
    assert same_bits(v, kept)


def diagonal_factor(n):
    return CholFactor(CsrMatrix.from_dense(np.diag(0.5 + np.arange(n, dtype=float))))


def dense_first_column_factor():
    dense = np.diag(1.0 + np.arange(12.0))
    dense[1:, 0] = np.linspace(-2.0, 3.0, 11)
    return CholFactor(CsrMatrix.from_dense(dense))


SCALED_FACTORS = {
    "1x1": lambda: diagonal_factor(1),
    "diagonal": lambda: diagonal_factor(9),
    "dense_first_column": dense_first_column_factor,
    "stored_zero": factor_with_stored_zero,
    "ic0_poisson20": PLAN_FACTORS["ic0_poisson20"],
}


@pytest.mark.parametrize("wide", [False, True], ids=["int32", "int64"])
@pytest.mark.parametrize("k", [None, 0, 1, 4, 40])
@pytest.mark.parametrize("name", sorted(SCALED_FACTORS))
def test_scaled_apply_is_bitwise_its_definition(name, k, wide):
    fac = SCALED_FACTORS[name]()
    gen = np.random.default_rng(21)
    s = random_square(gen, fac.n)
    v = gen.standard_normal(fac.n) if k is None else gen.standard_normal((fac.n, k))
    check_scaled_apply(fac, s, v, wide)
    if k is not None:
        check_scaled_apply(fac, s, np.asfortranarray(v), wide)


@settings(max_examples=60, deadline=None)
@given(
    fac=lower_factors(),
    wide=st.booleans(),
    k=st.sampled_from([None, 0, 1, 4, 40]),
    fortran=st.booleans(),
    eta=st.floats(0.5, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_scaled_apply_is_bitwise_its_definition(fac, wide, k, fortran, eta, seed):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(fac.n) if k is None else gen.standard_normal((fac.n, k))
    check_scaled_apply(fac, random_square(gen, fac.n), np.asfortranarray(v) if fortran else v, wide, eta)


CHUNK = sparse_core._BLOCK_COLUMNS


@pytest.mark.parametrize("width", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("fortran", [False, True], ids=["C", "F"])
def test_chunked_scaled_apply_is_its_column_applies(width, fortran):
    # a block runs CHUNK columns at a time: a partial chunk, one chunk,
    # one past it and several with a remainder each equal the vector
    # applications column by column, in a fresh C-ordered result
    fac = PLAN_FACTORS["ic0_poisson20"]()
    gen = np.random.default_rng(width)
    s = random_square(gen, fac.n)
    v = gen.standard_normal((fac.n, width))
    v = np.asfortranarray(v) if fortran else v
    kept = v.copy()
    got = scaled_apply(s, fac, v)
    want = np.column_stack([scaled_apply(s, fac, v[:, i]) for i in range(width)])
    assert same_bits(got, want)
    assert got.flags.c_contiguous and got.flags.owndata
    assert same_bits(v, kept)


def test_scaled_apply_checks_orders():
    fac = diagonal_factor(4)
    with pytest.raises(ValueError, match="factor order 4"):
        scaled_apply(CsrMatrix.from_dense(np.eye(5)), fac, np.ones(5))
    with pytest.raises(ValueError, match="factor order 4"):
        scaled_apply(CsrMatrix.from_dense(np.eye(4)), fac, np.ones((3, 2)))


def test_chol_factor_rejects_bad_diagonals():
    with pytest.raises(ValueError):
        lower_factor(np.array([[1.0, 0.0], [1.0, 0.0]]))  # missing diagonal entry
    with pytest.raises(ValueError):
        lower_factor(np.array([[1.0, 0.0], [1.0, -2.0]]))  # negative pivot
    with pytest.raises(ValueError):
        lower_factor(np.array([[1.0, 5.0], [1.0, 2.0]]))  # upper entry present


def test_sparse_ata_identity():
    eye = CsrMatrix.from_dense(np.eye(3))
    np.testing.assert_array_equal(sparse_ata(eye).to_dense(), np.eye(3))


def test_sparse_ata_hand_case():
    a = CsrMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_array_equal(sparse_ata(a).to_dense(), [[2.0, 1.0], [1.0, 1.0]])


def test_sparse_ata_matches_dense_and_is_exactly_symmetric():
    gen = np.random.default_rng(7)
    dense = gen.standard_normal((40, 25))
    dense[gen.random((40, 25)) < 0.7] = 0.0
    s = sparse_ata(CsrMatrix.from_dense(dense))
    got = s.to_dense()
    assert np.max(np.abs(got - dense.T @ dense)) <= 1e-13
    # mirrored construction: equality is exact, not approximate
    np.testing.assert_array_equal(got, got.T)
