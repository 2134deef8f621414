"""Compressed sparse row matrices and the kernels built on them.

Dense vectors and matrices are plain float64 numpy arrays throughout the
package; this module owns the sparse side.  Index arrays follow scipy's rule:
int32 while the dimensions and nnz are below 2**31, int64 beyond, so the
scipy view of a matrix shares its arrays.  The kernels are scipy's: ``spmv``
calls ``csr_matvec`` from scipy's private ``_sparsetools``, the kernel that
``A @ x`` runs, without the dispatch around it, and ``tri_solve`` and
``chol_solve`` run SuperLU's triangular solve from a plan each factor
prepares once per form (see ``_SolvePlan``).  ``tests/test_sparse_core.py``
checks ``spmv`` bitwise against scipy's product, which guards the private
import on new scipy versions.  There are three solve forms, each one
``gstrs`` call:

- lower, L y = b, and upper, L^T y = b (``tri_solve``), each agreeing
  bitwise with ``spsolve_triangular``; the lower plan drops the identity
  factor scipy pairs with it, and the upper plan keeps scipy's form;
- both, (L L^T) x = b (``chol_solve``): SuperLU's own L U pair with both
  triangles of the factor, so one call does the forward and the backward
  sweep.  It agrees with the two ``tri_solve`` calls up to roundoff.

No kernel here uses threads, so repeated runs in one environment agree
bitwise.

Explicit zeros are legal stored entries.  They matter: incomplete
factorizations work with the sparsity pattern, and a stored zero is part of
the pattern even though it does not change any product.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.linalg import LinAlgError
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu


def _exact_index(a) -> np.ndarray:
    """``a`` as int32 when it already is, else as int64."""
    a = np.asarray(a)
    return a if a.dtype == np.int32 else np.asarray(a, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """CSR storage with strictly increasing column indices in every row.

    ``row_ptr`` and ``col_idx`` share one dtype, scipy's rule: int32 when
    ``n_rows``, ``n_cols`` and ``nnz`` are all below 2**31, int64 otherwise.
    """

    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        # the index arrays are checked in a dtype that holds any input exactly,
        # then narrowed to scipy's: int32 while every index and nnz fit
        row_ptr, col_idx = _exact_index(self.row_ptr), _exact_index(self.col_idx)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if row_ptr.shape != (self.n_rows + 1,):
            raise ValueError("row_ptr must have length n_rows + 1")
        if len(row_ptr) == 0 or row_ptr[0] != 0 or row_ptr[-1] != len(values):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if col_idx.shape != values.shape:
            raise ValueError("col_idx and values must have equal length")
        if len(col_idx):
            if col_idx.min() < 0 or col_idx.max() >= self.n_cols:
                raise ValueError("column index out of range")
        if len(col_idx) > 1:
            # strictly increasing within a row: a nonpositive jump is only
            # legal where a new row starts
            jumps = np.diff(col_idx)
            new_row = np.zeros(len(col_idx), dtype=bool)
            starts = row_ptr[1:-1]
            new_row[starts[starts < len(col_idx)]] = True
            if np.any((jumps <= 0) & ~new_row[1:]):
                raise ValueError("column indices must increase strictly within each row")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values must be finite")
        index = np.int32 if max(self.n_rows, self.n_cols, len(values)) < 2**31 else np.int64
        row_ptr = np.ascontiguousarray(row_ptr, dtype=index)
        col_idx = np.ascontiguousarray(col_idx, dtype=index)
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        object.__setattr__(self, "values", values)
        for arr in (row_ptr, col_idx, values):
            arr.flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @cached_property
    def _sp(self) -> scipy.sparse.csr_matrix:
        mat = scipy.sparse.csr_matrix(
            (self.values, self.col_idx, self.row_ptr), shape=self.shape, copy=False
        )
        mat.has_sorted_indices = True
        return mat

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        return self._sp

    @classmethod
    def from_scipy(cls, mat) -> "CsrMatrix":
        csr = scipy.sparse.csr_matrix(mat).copy()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            n_rows=csr.shape[0],
            n_cols=csr.shape[1],
            row_ptr=csr.indptr,
            col_idx=csr.indices,
            values=csr.data,
        )

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals) -> "CsrMatrix":
        """Build from triples.  Duplicates are summed; explicit zeros survive."""
        coo = scipy.sparse.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n_rows, n_cols)
        )
        return cls.from_scipy(coo)

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        """Build from a dense array.  Entries that are exactly zero are dropped."""
        return cls.from_scipy(scipy.sparse.csr_matrix(np.asarray(a, dtype=np.float64)))

    def to_dense(self) -> np.ndarray:
        return self._sp.toarray()

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix.from_scipy(self._sp.T)

    def lower_triangle(self) -> "CsrMatrix":
        """Stored entries on or below the diagonal, pattern preserved."""
        mask = self.col_idx <= np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr))
        keep = np.flatnonzero(mask)
        counts = np.bincount(
            np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr))[keep],
            minlength=self.n_rows,
        )
        row_ptr = np.concatenate([[0], np.cumsum(counts)])
        return CsrMatrix(self.n_rows, self.n_cols, row_ptr, self.col_idx[keep], self.values[keep])

    def row(self, i):
        """(columns, values) views of stored row ``i``."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[lo:hi], self.values[lo:hi]

    def __matmul__(self, x):
        return spmv(self, x)


@dataclass(frozen=True, eq=False)
class CholFactor:
    """Sparse lower-triangular factor with strictly positive diagonal."""

    L: CsrMatrix

    def __post_init__(self):
        L = self.L
        if L.n_rows != L.n_cols:
            raise ValueError("triangular factor must be square")
        row_of = np.repeat(np.arange(L.n_rows), np.diff(L.row_ptr))
        if np.any(L.col_idx > row_of):
            raise ValueError("factor has entries above the diagonal")
        ends = L.row_ptr[1:] - 1
        if np.any(np.diff(L.row_ptr) == 0) or np.any(L.col_idx[ends] != np.arange(L.n_rows)):
            raise ValueError("factor must store every diagonal entry")
        if np.any(L.values[ends] <= 0.0):
            raise ValueError("factor diagonal must be strictly positive")

    @property
    def n(self) -> int:
        return self.L.n_rows

    @cached_property
    def _lower_plan(self) -> "_SolvePlan":
        return _SolvePlan(self.L.to_scipy(), "lower")

    @cached_property
    def _upper_plan(self) -> "_SolvePlan":
        return _SolvePlan(self.L.to_scipy(), "upper")

    @cached_property
    def _chol_plan(self) -> "_SolvePlan":
        return _SolvePlan(self.L.to_scipy(), "both")

    def to_dense(self) -> np.ndarray:
        return self.L.to_dense()


class _SolvePlan:
    """One ``gstrs`` call set up once: the CSC ``L``/``U`` pair SuperLU sweeps.

    ``gstrs("N")`` solves L U x = b with L unit lower and U upper, where U's
    diagonal sits in L's stored diagonal (the divisor of the backward sweep);
    ``"T"`` solves (L U)^T x = b.  For a factor L = M D with M unit lower and
    D = diag(d), the three forms are:

    - lower (L y = b): ``L`` = M with its stored diagonal set to exactly 1.0,
      ``U`` empty, then y = x / d.  ``spsolve_triangular`` (scipy 1.17)
      instead transposes the CSR triangle into an upper ``U`` with an identity
      ``L`` and solves with ``"T"``; the identity half is most of the cost of a
      solve.  Both forms subtract the terms of each row in ascending column
      order and divide by exactly 1.0, so the results agree bit for bit.
    - upper (L^T y = b): scipy's own form, ``L`` = D^{-1} L solved by
      ``gstrs("T")``, then y = x / d.  A column-oriented ``"N"`` sweep here
      would reverse the order of each row's sum.
    - both (L L^T x = b): L L^T = M D^2 M^T, so ``L`` = M with stored
      diagonal d^2 and ``U`` = D^2 M^T without its diagonal, which holds
      d_j L[i, j] at (j, i).  ``gstrs("N")`` returns x itself.

    The set-up ``spsolve_triangular`` repeats on every call (copy, transpose,
    scale, sum duplicates, cast indices) is done here once.  The scaling
    multiplies L's stored values by the diagonal entries their rows or
    columns pick: each plan entry is the one product a sparse product with a
    diagonal matrix would form, and like that product the plan drops the
    entries that come out zero.
    ``tests/test_sparse_core.py`` checks every form against public solvers,
    which guards the private ``_superlu`` import on new scipy versions.
    """

    def __init__(self, low: scipy.sparse.csr_matrix, form: str):
        n = low.shape[0]
        diag = low.diagonal()
        invdiag = 1 / diag
        upper = scipy.sparse.csc_array((n, n), dtype=np.float64)
        if form == "upper":
            rows = np.repeat(np.arange(n), np.diff(low.indptr))
            factor = _scaled(low, invdiag[rows]).tocsc()  # D^-1 L
        else:
            factor = _scaled(low, invdiag[low.indices]).tocsc()  # L D^-1
        # L's diagonal is stored and nonzero, so it heads each CSC column
        if form == "lower":
            # gstrs divides by the stored diagonal, and L_jj * (1 / L_jj)
            # need not round to 1; scipy's identity factor divides by 1.0
            factor.data[factor.indptr[:-1]] = 1.0
        elif form == "both":
            factor.data[factor.indptr[:-1]] = diag * diag
            # D L^T's strict upper triangle in CSC: the CSR arrays of L D's
            # strict lower triangle, which leave out the diagonal that ends
            # each row
            strict = np.ones(low.nnz, dtype=bool)
            strict[low.indptr[1:] - 1] = False
            indptr = low.indptr - np.arange(n + 1, dtype=low.indptr.dtype)
            lower = scipy.sparse.csr_array((low.data[strict], low.indices[strict], indptr), shape=(n, n))
            upper = _scaled(lower, diag[lower.indices]).T
        self.trans = "T" if form == "upper" else "N"
        self.invdiag = None if form == "both" else invdiag
        self.args = tuple(
            arg
            for m in (factor, upper)
            for arg in (n, m.nnz, m.data, *scipy.sparse.safely_cast_index_arrays(m, np.intc, "SuperLU"))
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        # gstrs copies b into a fresh Fortran-ordered array, so b is not
        # written and the result shares memory with nothing else
        x, info = _superlu.gstrs(self.trans, *self.args, b)
        if info:
            raise LinAlgError("triangular factor is singular")
        if self.invdiag is not None:
            x *= self.invdiag if x.ndim == 1 else self.invdiag[:, None]
        return x


def _scaled(a, scale: np.ndarray) -> scipy.sparse.csr_array:
    """``a`` with each stored entry times its entry of ``scale``, zeros dropped.

    The result shares ``a``'s index arrays unless a product is zero.
    """
    data = a.data * scale
    if data.all():
        return scipy.sparse.csr_array((data, a.indices, a.indptr), shape=a.shape)
    out = scipy.sparse.csr_array((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)
    out.eliminate_zeros()
    return out


def spmv(a: CsrMatrix, x) -> np.ndarray:
    """Matrix-vector product with row-major, ascending-column accumulation.

    Calls the kernel behind scipy's ``a.to_scipy() @ x`` directly, which
    skips the dispatch around it; the result is the same to the bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n_cols,):
        raise ValueError(f"operand has shape {x.shape}, expected ({a.n_cols},)")
    y = np.zeros(a.n_rows)
    _sparsetools.csr_matvec(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, a.values, x, y)
    return y


def tri_solve(factor: CholFactor, b, transposed: bool = False) -> np.ndarray:
    """Solve L y = b, or L^T y = b when ``transposed``.

    ``b`` may be a vector or a dense matrix of stacked right-hand sides.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != factor.n:
        raise ValueError(f"right-hand side has leading size {b.shape[0]}, expected {factor.n}")
    plan = factor._upper_plan if transposed else factor._lower_plan
    return plan.solve(b)


def chol_solve(factor: CholFactor, b) -> np.ndarray:
    """Solve (L L^T) x = b in one SuperLU call: a forward and a backward sweep.

    ``b`` may be a vector or a dense matrix of stacked right-hand sides.  The
    result equals ``tri_solve(factor, tri_solve(factor, b), True)`` up to
    roundoff and is always a fresh array.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != factor.n:
        raise ValueError(f"right-hand side has leading size {b.shape[0]}, expected {factor.n}")
    return factor._chol_plan.solve(b)


def sparse_ata(a: CsrMatrix) -> CsrMatrix:
    """Normal-equations matrix A^T A with exactly mirrored off-diagonals.

    The strictly lower triangle is computed once and mirrored, so the result
    is symmetric entry for entry, not merely up to roundoff.  Columns of A
    with no entries simply produce a zero diagonal entry here; downstream
    factorizations will reject it.
    """
    sp = a.to_scipy()
    prod = (sp.T @ sp).tocsr()
    low = scipy.sparse.tril(prod, k=-1).tocsr()
    diag = scipy.sparse.diags(prod.diagonal(), 0, shape=prod.shape)
    return CsrMatrix.from_scipy(low + low.T + diag)
