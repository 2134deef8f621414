"""Zero-fill incomplete Cholesky factorization.

Computes a lower-triangular L with the sparsity pattern of the lower
triangle of S (stored zeros included) such that L L^T agrees with S on that
pattern.  The row recurrence (the IKJ form of IC(0)) runs in a fixed order,
off-diagonals in ascending column order and the pivot last.  When the
pattern admits no fill at all this reduces to the exact Cholesky
factorization.

The work is split in two passes.  The symbolic pass (``_shared_slots``) is
vectorized numpy: for every off-diagonal entry (i, j) it finds the pairs of
stored entries of rows i and j that share a column below j, by looking each
candidate (row, column) entry up within its row of the pattern.  The
numeric pass runs the row recurrence over those pairs on Python floats,
reading and writing the numpy buffers through ``memoryview``.

Summation contract: every product is rounded on its own and the products
are summed left to right, in ascending column order, starting from 0.0;
the pivot subtracts the sum of squares of its row, formed the same way.
No BLAS call, no fused multiply-add and no compensated summation (such as
the builtin ``sum`` of Python 3.12) is involved, so the factor is bitwise
the same on every machine, BLAS build and thread count.
"""

import math

import numpy as np
from scipy.sparse import _sparsetools

from .errors import Breakdown
from .sparse_core import CholFactor, CsrMatrix


def ic0(s: CsrMatrix, diag_shift: float = 0.0) -> CholFactor:
    """Incomplete Cholesky with zero fill.

    Parameters
    ----------
    s : CsrMatrix
        Symmetric matrix with strictly positive diagonal.  Only the stored
        lower triangle is accessed.
    diag_shift : float
        When nonzero, factor S + diag_shift * diag(S) instead.  A small
        positive shift is the usual retry after a Breakdown.  It must be
        finite and above -1, so that the shifted diagonal stays positive;
        any other value is a ValueError before any work.

    Raises
    ------
    Breakdown
        When a computed pivot is nonpositive.  Carries the row index.
    """
    if not -1.0 < diag_shift < math.inf:
        raise ValueError(f"diag_shift must be > -1, not {diag_shift!r}")
    if s.n_rows != s.n_cols:
        raise ValueError("matrix must be square")
    lower = s.lower_triangle()
    n = s.n_rows
    row_ptr = lower.row_ptr
    cols = lower.col_idx
    vals = np.array(lower.values)  # mutable working copy, becomes L

    ends = row_ptr[1:] - 1
    if np.any(np.diff(row_ptr) == 0) or np.any(cols[ends] != np.arange(n)):
        raise ValueError("every row needs a stored diagonal entry")
    if np.any(vals[ends] <= 0.0):
        raise ValueError("matrix diagonal must be strictly positive")
    if diag_shift:
        vals[ends] *= 1.0 + diag_shift

    pair_ptr, left, right = _shared_slots(row_ptr, cols)
    v = memoryview(vals)
    pp, lt, rt = memoryview(pair_ptr), memoryview(left), memoryview(right)
    div = memoryview(ends[cols])  # slot of the diagonal entry of column j
    rp = memoryview(row_ptr)
    p0 = 0  # pair_ptr[t]; diagonal slots add no pairs, so it carries across rows
    for i in range(n):
        lo, end = rp[i], rp[i + 1] - 1
        squares = 0.0
        for t in range(lo, end):
            # dot product of rows i and j over their shared columns before j
            p1 = pp[t + 1]
            acc = 0.0
            if p1 > p0:
                for a, b in zip(lt[p0:p1], rt[p0:p1]):
                    acc += v[a] * v[b]
            p0 = p1
            x = (v[t] - acc) / v[div[t]]
            v[t] = x
            squares += x * x
        pivot = v[end] - squares
        if pivot <= 0.0:
            raise Breakdown(i)
        v[end] = math.sqrt(pivot)

    return CholFactor(CsrMatrix(n, n, row_ptr, cols, vals))


def _shared_slots(row_ptr: np.ndarray, cols: np.ndarray):
    """Symbolic pass of ``ic0``: the entry pairs behind each off-diagonal dot product.

    For the stored entry at slot ``t`` = (i, j), j < i, the pairs are the
    slots ``left[k]`` in row i and ``right[k]`` in row j, for ``k`` in
    ``range(pair_ptr[t], pair_ptr[t + 1])``, that hold the same column
    below j, in ascending column order.  Diagonal slots get no pairs.

    Each entry enumerates the shorter of its two candidate lists, the
    slots of row i before t or the off-diagonal slots of row j, and looks
    the other row's (row, column) entry up by a binary search within that
    row (``_lookup``), so one long row costs no more than its own length.
    """
    n, nnz = len(row_ptr) - 1, len(cols)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))
    t = np.flatnonzero(cols < rows)
    i, j = rows[t], cols[t].astype(np.int64)
    before_t = t - row_ptr[i]
    below_j = row_ptr[j + 1] - 1 - row_ptr[j]
    from_i = before_t <= below_j

    # walk row i's slots before t and look up (j, k); or walk row j's
    # off-diagonal slots and look up (i, k)
    seg_a, own = _expand(row_ptr[i[from_i]], before_t[from_i])
    seg_b, other = _expand(row_ptr[j[~from_i]], below_j[~from_i])
    found_a = _lookup(row_ptr, cols, j[from_i][seg_a], cols[own])
    found_b = _lookup(row_ptr, cols, i[~from_i][seg_b], cols[other])

    slot = np.concatenate([t[from_i][seg_a], t[~from_i][seg_b]])
    left = np.concatenate([own, found_b])
    right = np.concatenate([found_a, other])
    hit = np.flatnonzero((left >= 0) & (right >= 0))
    # each slot's candidates came out in ascending column order; a stable
    # sort on the slot keeps that order
    keep = hit[np.argsort(slot[hit], kind="stable")]
    pair_ptr = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot[keep], minlength=nnz), out=pair_ptr[1:])
    return pair_ptr, left[keep], right[keep]


def _expand(starts: np.ndarray, counts: np.ndarray):
    """Segment id and index of every element of the ranges ``[start, start + count)``."""
    seg = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return seg, np.arange(len(seg), dtype=np.int64) + (starts - first)[seg]


def _lookup(row_ptr: np.ndarray, cols: np.ndarray, want_rows, want_cols) -> np.ndarray:
    """Slot of each wanted (row, column) entry of the pattern, or -1 when not stored.

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
