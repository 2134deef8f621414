"""Zero-fill incomplete Cholesky factorization.

Computes a lower-triangular L with the sparsity pattern of the lower
triangle of S (stored zeros included) such that L L^T agrees with S on that
pattern.  The row recurrence runs in a fixed order, off-diagonals in
ascending column order and the pivot last, so results are deterministic.
When the pattern admits no fill at all this reduces to the exact Cholesky
factorization.

The work is split in two passes.  A symbolic pass (``_shared_slots``) finds,
for every off-diagonal entry (i, j), the pairs of stored entries of rows i
and j that share a column below j.  The numeric pass then runs the row
recurrence over those pairs, with one ``np.dot`` per entry in ascending
column order.
"""

import math

import numpy as np

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
        positive shift is the usual retry after a Breakdown.

    Raises
    ------
    Breakdown
        When a computed pivot is nonpositive.  Carries the row index.
    """
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
    rp = row_ptr.tolist()
    for i in range(n):
        lo, hi = rp[i], rp[i + 1]
        for t, j in enumerate(cols[lo : hi - 1].tolist(), lo):
            # dot product of rows i and j over their shared columns before j
            p0, p1 = pair_ptr[t], pair_ptr[t + 1]
            acc = float(np.dot(vals[left[p0:p1]], vals[right[p0:p1]])) if p1 > p0 else 0.0
            vals[t] = (vals[t] - acc) / vals[rp[j + 1] - 1]
        row = vals[lo : hi - 1]
        pivot = vals[hi - 1] - float(np.dot(row, row))
        if pivot <= 0.0:
            raise Breakdown(i)
        vals[hi - 1] = math.sqrt(pivot)

    return CholFactor(CsrMatrix(n, n, row_ptr, cols, vals))


def _shared_slots(row_ptr: np.ndarray, cols: np.ndarray):
    """Symbolic pass of ``ic0``: the entry pairs behind each off-diagonal dot product.

    For the stored entry at slot ``t`` = (i, j), j < i, the pairs are the
    slots ``left[k]`` in row i and ``right[k]`` in row j, for ``k`` in
    ``range(pair_ptr[t], pair_ptr[t + 1])``, that hold the same column
    below j, in ascending column order.  Diagonal slots get no pairs.
    """
    rp = row_ptr.tolist()
    pair_ptr = [0] * (len(cols) + 1)
    left, right = [], []
    for i in range(len(rp) - 1):
        lo, hi = rp[i], rp[i + 1]
        slot_of = {}  # column -> slot, for row i's entries before the current one
        for t, j in enumerate(cols[lo : hi - 1].tolist(), lo):
            if slot_of:  # row i's first entry has no earlier columns to share
                q0 = rp[j]
                for q, k in enumerate(cols[q0 : rp[j + 1] - 1].tolist(), q0):
                    p = slot_of.get(k)
                    if p is not None:
                        left.append(p)
                        right.append(q)
            slot_of[j] = t
            pair_ptr[t + 1] = len(left)
        pair_ptr[hi] = len(left)
    return pair_ptr, np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
