"""Compressed sparse row matrices and the kernels built on them.

Dense vectors and matrices are plain float64 numpy arrays throughout the
package; this module owns the sparse side.  Index arrays follow scipy's rule:
int32 while the dimensions and nnz are below 2**31, int64 beyond, so the
scipy view of a matrix shares its arrays.  Every kernel comes from scipy's
private ``_sparsetools`` and is called without the dispatch around it.

``spmv`` runs one of two.  A matrix whose occupied diagonals, each padded to
``n_cols`` slots, take at most ``_DIA_FILL`` = 1.5 slots per stored entry
(the 5-point Laplacian of a 200 x 200 grid takes 1.004) keeps a copy by
diagonals, built on its first product, and runs ``dia_matvec``; every
other matrix runs ``csr_matvec``, the kernel that ``A @ x`` runs.  For
finite x the two give the same bits: both start each row from +0.0 and
add its products in ascending column order, and a padding slot adds +-0,
which leaves such a partial sum as it is.  A non-finite x_j turns the
padding of column j into NaN, so the diagonal kernel gives NaN in more rows
than the CSR one.

The triangular solves run ``csr_matvec`` (``csr_matvecs`` for a block) in
place: it computes y[i] += sum_jj A[i, j_jj] x[j_jj] row by row in stored
order, so with x and y the same array, row i reads the entries of x that
the rows before it have already written.  With the strict lower triangle of
a unit factor M stored negated, that is forward substitution with M; run on
the reversed vector with M^T's rows stored in reversed order, it is
backward substitution.  A factor L = M D, D = diag(d), splits L once into
its strict entries, d and 1 / d, and builds its sweeps from them on first
use (see ``CholFactor``), which every solve shares:

- ``tri_solve``: L y = b is the forward sweep with -M, then 1 / d; L^T y =
  b is a reversed sweep with -(D^-1 L)^T after a division by its diagonal,
  then 1 / d.  Both agree bitwise with ``spsolve_triangular``: a + (-(m
  x)) is exactly a - m x in IEEE arithmetic, signed zeros included, so each
  row subtracts the same products in the same order that SuperLU's sweeps
  do, and the diagonal scalings are the same divisions and products;
- ``scaled_apply``, Q^-1 S Q^-T v, the operator the low-rank builders
  apply: ``tri_solve``'s two sweeps in place around one ``spmv`` call per
  vector or block column, bitwise ``tri_solve(q, spmv(s, tri_solve(q, v,
  True)))`` without its copies and layout changes.  A block runs in chunks
  of ``_BLOCK_COLUMNS`` columns, as a block solve does, so its scratch does
  not grow with its width.  Each S-product stays a
  separate ``spmv`` call through this module's binding, because that is
  where S-products are counted;
- ``chol_solve``, (L L^T) x = b for a vector b, which P^-1 runs on every
  PCG iteration: a forward sweep with -M, then a reversed sweep with -M^T
  after a division by d^2, both in a row order of their own.  It agrees
  with two ``tri_solve`` calls up to roundoff.

``chol_solve``'s order (``CholFactor._chol``) breaks chains.  Row i of a
sweep must wait for every row it reads, and in natural order each row of a
stencil factor reads the row just before it, so the sweep is one chain of
dependent loads and adds.  Sorted stably by a key that exceeds the keys of
the rows it reads, every row still comes after those rows, while rows that
run one after the other seldom read each other and the CPU overlaps them:
level scheduling (Anderson & Saad 1989), used here for instruction-level
parallelism within one ``csr_matvec`` call, not for threads.  Its two
sweeps are built as the natural ones are, from the split with rows and
columns renumbered by position in that order, so each row holds the same
entries in the same order, does the same arithmetic on the same values,
and the result is bitwise the natural order's.  A gather puts b into that
order and another puts the result back; a factor whose order comes out
natural, such as a band, where each row reads the one before it, gathers
by the identity.  The other solves stay in natural order: a row gather of
an (n, k) block costs several times its copy and ``csr_matvecs`` gains
nothing from the reorder; the gathers around ``scaled_apply``'s S-product,
which must stay in natural order, ate the gain; and a low-rank build's
triangular work is ``scaled_apply`` and block ``tri_solve`` calls, so no
hot path runs a vector ``tri_solve``.

``ichol`` calls no scipy kernel itself; two helpers here serve it.
``_unit_sweep`` is the in-place, unit-weight ``csr_matvec`` that gives each
row 1 plus the sum over the rows it reads: ``chol_solve``'s order keys and
``ic0``'s forest depths.  ``_lookup`` finds the slots of (row, column)
entries by ``csr_sample_offsets``.

``tests/test_sparse_core.py`` checks ``spmv`` bitwise against ``csr_matvec``
on random banded matrices, pins the in-place reading of ``csr_matvec``, in
stored order within a row whose column indices do not ascend, and checks
the counting sort the sweeps are built with against numpy's stable sort;
these guard the private imports on new scipy versions.  No kernel here
uses threads, so repeated runs in one environment agree bitwise.

Explicit zeros are legal stored entries.  They matter: incomplete
factorizations work with the sparsity pattern, and a stored zero is part of
the pattern even though it does not change any product.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools


def _exact_index(a) -> np.ndarray:
    """``a`` as int32 when it already is, else as int64."""
    a = np.asarray(a)
    return a if a.dtype == np.int32 else np.asarray(a, dtype=np.int64)


# A matrix is stored by diagonals when that takes at most this many slots,
# padding included, per stored entry.  At this fill dia_matvec took 0.96-1.03
# times csr_matvec's time where every row holds as many entries, and less
# than 0.7 times where row lengths vary, which makes csr_matvec branch.
_DIA_FILL = 1.5

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

    @cached_property
    def _diagonals(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """(offsets, data) of scipy's DIA format, or None when the occupied
        diagonals, padded to ``n_cols`` slots each, would hold more than
        ``_DIA_FILL`` slots per stored entry.

        ``offsets`` are the occupied ``col - row`` in ascending order and
        ``data[d, j]`` is the entry in column j of diagonal d, 0.0 where none
        is stored.  Indices are int32 while ``n_rows + n_cols`` is below
        2**31, so no offset plus a row index can wrap.
        """
        if self.nnz == 0:
            return None
        index = np.int32 if self.n_rows + self.n_cols < 2**31 else np.int64
        col = self.col_idx.astype(index, copy=False)
        # col - row + (n_rows - 1): each entry's diagonal, counted from 0
        diag = np.repeat(np.arange(self.n_rows, dtype=index), np.diff(self.row_ptr))
        np.subtract(col, diag, out=diag)
        diag += self.n_rows - 1
        occupied = np.flatnonzero(np.bincount(diag))
        slots = len(occupied) * self.n_cols
        if slots > _DIA_FILL * self.nnz:
            return None
        # an entry's place in the flattened data: its diagonal's first slot
        # plus its column.  Fancy indexing keeps the places int32, where
        # np.take would make an int64 copy of ``diag``.
        first = np.zeros(occupied[-1] + 1, dtype=index if slots < 2**31 else np.int64)
        first[occupied] = np.arange(0, slots, self.n_cols)
        place = first[diag]
        place += col
        data = np.zeros(slots)
        data[place] = self.values
        data = data.reshape(len(occupied), self.n_cols)
        offsets = (occupied - (self.n_rows - 1)).astype(index)
        offsets.flags.writeable = data.flags.writeable = False
        return offsets, data

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
    def _split(self) -> "_Split":
        L = self.L
        rows = np.repeat(np.arange(L.n_rows, dtype=L.row_ptr.dtype), np.diff(L.row_ptr))
        strict = L.col_idx < rows
        diag = L.values[L.row_ptr[1:] - 1]
        return _Split(rows[strict], L.col_idx[strict], L.values[strict], diag, 1 / diag)

    # The sweeps (see ``_build_sweep``), each built on first use: the two in
    # natural order that ``tri_solve`` and ``scaled_apply`` run, and the two
    # of ``chol_solve``, which run in their own row order

    @cached_property
    def _forward(self) -> "_Sweep":
        return _build_sweep("forward", self._split)

    @cached_property
    def _upper(self) -> "_Sweep":
        return _build_sweep("upper", self._split)

    @cached_property
    def _chol(self) -> "tuple[np.ndarray, np.ndarray, _Sweep, _Sweep]":
        """(rows, ends, forward, backward): ``chol_solve``'s row order and its
        two sweeps.

        A row's key is 1 plus the sum of the keys of the rows it reads: one
        ``_unit_sweep`` over L's strict pattern.  So a row's key exceeds the
        key of every row it reads, and as rounding is monotone, key_i >=
        key_j holds even where keys overflow to inf.  ``rows``, the row at each position of a stable sort by key,
        keeps ties in natural order, so each row still comes after every row
        it reads, while rows whose keys are close, which run one after the
        other, seldom read each other.  The sweeps are built from the split
        with its rows and columns renumbered by position in that order.  The
        backward sweep runs in the reverse order, where row i sits at
        ``ends[i]``.  ``rows`` and ``ends`` are ``np.intp``, numpy's own index
        type, so a gather by them converts nothing.
        """
        split, n = self._split, self.n
        indptr = np.zeros(n + 1, dtype=split.j.dtype)
        np.cumsum(np.bincount(split.i, minlength=n), out=indptr[1:])
        rows = np.argsort(_unit_sweep(indptr, split.j), kind="stable")
        pos = np.empty(n, dtype=split.j.dtype)
        pos[rows] = np.arange(n, dtype=pos.dtype)
        ends = np.empty_like(rows)
        ends[rows] = np.arange(n - 1, -1, -1)
        renumbered = _Split(pos[split.i], pos[split.j], split.values, split.diag[rows], split.invdiag[rows])
        return rows, ends, _build_sweep("forward", renumbered), _build_sweep("backward", renumbered)

    def to_dense(self) -> np.ndarray:
        return self.L.to_dense()


# columns of a block swept at a time, which bounds the scratch of a block
# solve and of a block ``scaled_apply``
_BLOCK_COLUMNS = 16


class _Split(NamedTuple):
    """L's strictly lower entries (i, j, L_ij) in stored order, its diagonal
    d and 1 / d: what a sweep is built from.  Rows and columns are numbered
    in natural order, or by position in ``chol_solve``'s row order."""

    i: np.ndarray
    j: np.ndarray
    values: np.ndarray
    diag: np.ndarray
    invdiag: np.ndarray


def _by_row(a: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``a``, one value per row, shaped to broadcast against ``like``."""
    return a if like.ndim == 1 else a[:, None]


class _Sweep(NamedTuple):
    """CSR arrays of a strictly lower triangle that ``run`` sweeps in place.

    ``csr_matvec`` computes y[i] += sum_jj data[jj] * x[indices[jj]] row by
    row, in stored order.  With x and y the same array, row i reads entries
    the rows before it have already written: unit forward substitution.  A
    sweep of an upper triangle runs on reversed vectors and holds the
    divisors its input is scaled by first, in its own row order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    divisors: np.ndarray | None = None

    def run(self, x: np.ndarray) -> None:
        n = len(self.indptr) - 1
        if x.ndim == 1:
            _sparsetools.csr_matvec(n, n, self.indptr, self.indices, self.data, x, x)
        else:
            _sparsetools.csr_matvecs(n, n, x.shape[1], self.indptr, self.indices, self.data, x, x)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """A fresh C-ordered copy of ``b``, reversed and divided by
        ``divisors`` for a sweep that has them, swept in place."""
        if self.divisors is None:
            x = np.array(b, order="C")
        else:
            x = np.divide(b[::-1], _by_row(self.divisors, b), order="C")
        self.run(x)
        return x


def _sweep(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, divisors=None) -> _Sweep:
    """The sweep holding ``-values`` at (rows, cols), its rows in ascending
    order, each keeping its entries in the order they come in.  Exact zeros
    are dropped, and the index arrays keep the dtype ``rows`` and ``cols``
    share."""
    keep = values != 0.0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    indptr, take = _grouped(rows, n)
    return _Sweep(indptr, cols[take], -values[take], divisors)


def _grouped(keys: np.ndarray, n: int) -> "tuple[np.ndarray, np.ndarray]":
    """(indptr, take): the places of the entries whose key is k, for keys in
    [0, n), are take[indptr[k]:indptr[k + 1]], in the order the entries come
    in.  This is a counting sort, ``csr_tocsc`` of the one-row matrix whose
    column indices are the keys and whose values are the places, and it
    equals ``np.argsort(keys, kind="stable")`` at a fraction of its cost."""
    m, index = len(keys), keys.dtype
    indptr, take = np.empty(n + 1, dtype=index), np.empty(m, dtype=index)
    places = np.arange(m, dtype=index)
    _sparsetools.csr_tocsc(1, n, np.array([0, m], dtype=index), keys, places, indptr, np.zeros_like(places), take)
    return indptr, take


def _unit_sweep(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """x_i = 1 + the sum of x_j over the columns j of row i, row after row:
    one in-place ``csr_matvec`` with unit weights on ones, in which row i
    reads what the rows before it have written.  Over a strictly lower
    pattern this gives every row 1 plus the sum over the rows it reads;
    with one entry a row, its depth in the forest the entries link."""
    n = len(indptr) - 1
    x = np.ones(n)
    _sparsetools.csr_matvec(n, n, indptr, indices, np.ones(len(indices)), x, x)
    return x


def _lookup(row_ptr: np.ndarray, cols: np.ndarray, want_rows, want_cols) -> np.ndarray:
    """Slot of each wanted (row, column) entry of a square pattern, or -1
    when not stored.

    scipy's ``csr_sample_offsets`` (the kernel behind ``A[rows, cols]``)
    binary-searches each wanted column within its own row; the pattern's
    strictly increasing columns are the sorted rows it needs.  It searches
    only when asked for more than nnz / 10 entries and otherwise scans each
    asked row whole, which would make a few lookups into one long row cost
    its length each, so short requests are padded with entry (0, 0).
    """
    count = len(want_rows)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    index, size = cols.dtype, max(count, len(cols) // 10 + 1)
    rows, wanted = np.zeros(size, dtype=index), np.zeros(size, dtype=index)
    rows[:count], wanted[:count] = want_rows, want_cols
    found = np.empty(size, dtype=index)
    n = len(row_ptr) - 1
    _sparsetools.csr_sample_offsets(n, n, row_ptr, cols, size, rows, wanted, found)
    return found[:count].astype(np.int64)


def _build_sweep(form: str, split: _Split) -> _Sweep:
    """One of a factor's sweeps, its rows numbered as ``split``'s.

    - "forward": -M, M_ij = L_ij (1 / d_j); L y = b is this sweep, then
      y = x / d;
    - "upper": scipy's L^T y = b is N^T x = b, N = D^-1 L, whose diagonal
      L_jj (1 / d_j) need not be 1: divide by it, sweep with -N^T, then
      y = x / d;
    - "backward": L L^T x = M D^2 M^T x = b after the forward sweep: x / d^2,
      then -M^T.

    The last two sweep an upper triangle on the reversed vector: row j of
    the transpose is numbered n - 1 - j, so it runs as far from the end as
    row j of L runs from the start, and keeps its entries in the split's
    order, ascending in L's rows.
    """
    i, j, values, diag, invdiag = split
    n = len(diag)
    if form == "forward":
        return _sweep(n, i, j, values * invdiag[j])
    if form == "upper":
        values, divisors = values * invdiag[i], diag * invdiag
    else:
        values, divisors = values * invdiag[j], diag * diag
    return _sweep(n, (n - 1) - j, (n - 1) - i, values, divisors[::-1].copy())


def _operand(b, n: int) -> np.ndarray:
    """``b`` as float64, checked to be a vector (n,) or a block (n, k)."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2):
        raise ValueError(f"operand has shape {b.shape}, expected ({n},) or ({n}, k)")
    return b


def _solve(factor: CholFactor, b, solve_into, order: str = "F") -> np.ndarray:
    """A fresh ``solve_into(b, out)``; a block comes back in ``order``.

    ``csr_matvecs`` reads the k values of a row as one contiguous run, so a
    block is swept in C-ordered scratch, ``_BLOCK_COLUMNS`` columns at a
    time, and each chunk goes into its columns of ``out``: the working
    memory is the result and a few (n, ``_BLOCK_COLUMNS``) buffers however
    wide the block is, and each chunk's layout changes happen in cache.
    """
    b = _operand(b, factor.n)
    if b.shape[0] != factor.n:
        raise ValueError(f"right-hand side has leading size {b.shape[0]}, expected {factor.n}")
    if b.ndim == 1:
        return solve_into(b, None)
    out = np.empty(b.shape, order=order)
    for lo in range(0, b.shape[1], _BLOCK_COLUMNS):
        solve_into(b[:, lo : lo + _BLOCK_COLUMNS], out[:, lo : lo + _BLOCK_COLUMNS])
    return out


def spmv(a: CsrMatrix, x) -> np.ndarray:
    """y = A x, each row summed from +0.0 in ascending column order.

    A matrix whose entries lie on few diagonals (see ``CsrMatrix._diagonals``)
    runs scipy's ``dia_matvec``; every other matrix runs ``csr_matvec``, the
    kernel behind ``a.to_scipy() @ x``.  Both are called without scipy's
    dispatch.  For finite x the two give the same bits: each row adds its
    diagonals in ascending offset order, which is ascending column order, and
    a padding slot adds 0.0 * x_j = +-0, which leaves a partial sum that
    started from +0.0 unchanged (such a sum is never -0.0).  A non-finite x_j
    makes 0.0 * x_j NaN, which the diagonal layout spreads to every row whose
    diagonals cross column j.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n_cols,):
        raise ValueError(f"operand has shape {x.shape}, expected ({a.n_cols},)")
    y = np.zeros(a.n_rows)
    diagonals = a._diagonals
    if diagonals is None:
        _sparsetools.csr_matvec(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, a.values, x, y)
    else:
        offsets, data = diagonals
        _sparsetools.dia_matvec(a.n_rows, a.n_cols, len(offsets), a.n_cols, offsets, data, x, y)
    return y


def tri_solve(factor: CholFactor, b, transposed: bool = False) -> np.ndarray:
    """Solve L y = b, or L^T y = b when ``transposed``.

    ``b`` may be a vector or a dense matrix of stacked right-hand sides.  The
    result is bitwise ``spsolve_triangular``'s, is a fresh array, and is
    Fortran-ordered for a block.
    """

    def solve_into(chunk, out):
        # the upper sweep runs on the reversed vector; 1 / d scales either
        # result, into ``out`` or a fresh array
        x = (factor._upper if transposed else factor._forward).apply(chunk)
        if transposed:
            x = x[::-1]
        return np.multiply(x, _by_row(factor._split.invdiag, x), out=out, order="F")

    return _solve(factor, b, solve_into)


def chol_solve(factor: CholFactor, b) -> np.ndarray:
    """Solve (L L^T) x = b for a vector b as L = M D: a forward sweep, x / d^2,
    a backward sweep.

    Both sweeps are with the unit factor M, so the divisions by the diagonal
    happen once, between them; a diagonal factor gives exactly b / (d * d).
    This is not the arithmetic of ``tri_solve``'s two forms, so the result
    equals ``tri_solve(factor, tri_solve(factor, b), True)`` only up to
    roundoff.  The sweeps run in ``CholFactor._chol``'s row order: a gather
    puts ``b`` into it and another puts the result back, so the result is
    bitwise that of the same sweeps in natural order, and a fresh array.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (factor.n,):
        raise ValueError(f"operand has shape {b.shape}, expected ({factor.n},)")
    rows, ends, forward, backward = factor._chol
    x = b.take(rows)
    forward.run(x)
    # the backward sweep runs in the reverse order, so it takes x reversed
    x = np.divide(x[::-1], backward.divisors, order="C")
    backward.run(x)
    return x.take(ends)


def scaled_apply(s: CsrMatrix, factor: CholFactor, v) -> np.ndarray:
    """Q^-1 S Q^-T v for Q = ``factor``: the upper solve, S, the lower solve, fused.

    Bitwise ``tri_solve(factor, spmv(s, tri_solve(factor, v, True)))``, on
    the same sweeps: the upper sweep on one fresh C-ordered buffer, a
    scaling by 1 / d into the S-product's input, the forward sweep in place
    on the product, and a scaling by 1 / d.  ``v`` may be a vector or a
    dense (n, k) block, whose columns come out as k vector applications
    would.  A block runs ``_BLOCK_COLUMNS`` columns at a time, each chunk
    scaled into its columns of the result, so its working memory is the
    result and two (n, ``_BLOCK_COLUMNS``) buffers however wide it is.  A
    chunk's S-product input is Fortran-ordered: each product overwrites its
    own contiguous input column, and one layout change then moves all of
    them into the swept buffer, which costs less than writing each product
    into a strided column of it.

    Each S-product is one ``spmv`` call, one per column of a block, looked
    up through this module's binding when it runs: tracers and tests count
    the S-products by wrapping that binding, so a single ``csr_matvecs``
    product with S would hide them.  The result is fresh and C-ordered, so
    callers may update it in place; ``v`` is never written.
    """
    n = factor.n
    v = _operand(v, n)
    if s.n_rows != n or s.n_cols != n or v.shape[0] != n:
        raise ValueError(f"matrix {s.shape} and operand {v.shape} do not match factor order {n}")
    if v.ndim == 1:
        return _scaled_into(s, factor, v)
    return _solve(factor, v, lambda b, out: _scaled_into(s, factor, b, out), order="C")


def _scaled_into(s: CsrMatrix, factor: CholFactor, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scaled_apply`` of a vector or one chunk of columns, scaled into
    ``out``, or in place on a fresh array when ``out`` is None."""
    invdiag = _by_row(factor._split.invdiag, v)
    x = factor._upper.apply(v)
    half = np.multiply(x[::-1], invdiag, order="F")
    if v.ndim == 1:
        x = spmv(s, half)
    else:
        for i in range(v.shape[1]):
            half[:, i] = spmv(s, half[:, i])
        x[...] = half
    factor._forward.run(x)
    return np.multiply(x, invdiag, out=x if out is None else out)


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
