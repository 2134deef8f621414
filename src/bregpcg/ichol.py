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
candidate (row, column) entry up within its row of the pattern.

The numeric pass comes in two forms, which give the same bits:

- ``_scalar_pass`` runs the row recurrence on Python floats, one row after
  another, reading and writing the numpy buffers through ``memoryview``;
- ``_level_pass`` factors by level sets (Anderson & Saad 1989; Saad,
  *Iterative Methods for Sparse Linear Systems*, 2nd ed., section 11.6).
  Row i reads row j for each off-diagonal entry (i, j), and a row's
  level is 1 plus the highest level of the rows it reads, so the rows of
  one level read only rows of lower levels: the 5-point grid of m x m
  rows has 2m - 1 anti-diagonal levels.  ``_levels`` finds them in one
  sweep, as the depths of the forest that links each row to the last row
  it reads, where those depths are the levels, as on natural-order grids.
  For each level and each position k in a row, numpy ufuncs factor the
  k-th entries of all its rows at once, each entry through the same IEEE
  operations, in the same order, as in the row recurrence.

``ic0`` takes the level pass where its levels are wide enough: where
``_levels`` finds them and the mean level width (rows over levels) is at
least ``_LEVEL_MIN_WIDTH``.  Each level costs a fixed number of numpy
calls, so narrow levels leave too little work per call.  A chain, such as
a band, where every row reads the one before it, has a forest as deep as
it has rows, which turns it away after that one sweep; a pattern whose
forest depths are not its levels takes the recurrence.  The level pass
gives up at the first level with a pivot that is not positive and leaves
the values as they were, and the recurrence runs on them: so the row
recurrence alone decides the factor's bits where a pivot fails, and the
row that ``Breakdown`` reports.

Summation contract: every product is rounded on its own and the products
are summed left to right, in ascending column order, starting from 0.0;
the pivot subtracts the sum of squares of its row, formed the same way.
The level pass keeps it: it adds one pair index, or one row position, per
elementwise ufunc call, and never sums along an axis (``np.sum``,
``add.reduce`` and ``reduceat`` sum pairwise); every elementwise ufunc is
one correctly rounded IEEE operation per element, and a multiply and an
add in separate calls cannot fuse.  No BLAS call, no fused multiply-add
and no compensated summation (such as the builtin ``sum`` of Python 3.12)
is involved, so the factor is bitwise the same on every machine, BLAS
build and thread count, whichever pass makes it.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import Breakdown
from .sparse_core import CholFactor, CsrMatrix, _grouped, _lookup, _unit_sweep

# The rule between the two numeric passes: the level pass needs a mean level
# width of this many rows.  On one core (numpy 2.4, Python 3.11) the level
# pass took as long as the recurrence at some 15 rows a level on 5-point
# grids (poisson_2d(30)) and at some 18 on 7-point grids (7^3 rows, 19
# levels), so the bound sits on the recurrence's side of both.  Size is no
# bound: small wide patterns take the level pass too, and on diagonals and
# 2 x 2 blocks of 20 to 500 rows ic0 took some 0.2 to 0.5 ms with either
# pass.  Pairs per entry are no bound either: the level pass took 0.42 to
# 0.62 of the recurrence's time on 27-point grids, at 3.2 pairs per
# off-diagonal entry.
_LEVEL_MIN_WIDTH = 20


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
    n, index = s.n_rows, s.row_ptr.dtype
    keep = s.col_idx <= np.repeat(np.arange(n, dtype=index), np.diff(s.row_ptr))
    kept = np.zeros(s.nnz + 1, dtype=index)  # entries kept before each slot of S
    np.cumsum(keep, dtype=index, out=kept[1:])
    row_ptr, cols = kept[s.row_ptr], s.col_idx[keep]
    vals = s.values[keep]  # a fresh copy, worked on in place: it becomes L

    ends = row_ptr[1:] - 1
    if np.any(np.diff(row_ptr) == 0) or np.any(cols[ends] != np.arange(n)):
        raise ValueError("every row needs a stored diagonal entry")
    if np.any(vals[ends] <= 0.0):
        raise ValueError("matrix diagonal must be strictly positive")
    if diag_shift:
        vals[ends] *= 1.0 + diag_shift

    slots = _shared_slots(row_ptr, cols)
    level = _levels(row_ptr, cols, n // _LEVEL_MIN_WIDTH)
    if level is None or not _level_pass(vals, row_ptr, cols, slots, level):
        _scalar_pass(vals, row_ptr, cols, slots)
    return CholFactor(CsrMatrix(n, n, row_ptr, cols, vals))


def _scalar_pass(vals: np.ndarray, row_ptr: np.ndarray, cols: np.ndarray, slots) -> None:
    """Numeric pass of ``ic0`` by the row recurrence, in place on ``vals``.

    Runs on Python floats, reading and writing ``vals`` through
    ``memoryview``, one row after another in natural order, so it raises
    ``Breakdown`` at the first row whose pivot fails.
    """
    pair_ptr, left, right = slots
    v = memoryview(vals)
    pp, lt, rt = memoryview(pair_ptr), memoryview(left), memoryview(right)
    ends = row_ptr[1:] - 1
    div = memoryview(ends[cols])  # slot of the diagonal entry of column j
    rp = memoryview(row_ptr)
    p0 = 0  # pair_ptr[t]; diagonal slots add no pairs, so it carries across rows
    for i in range(len(row_ptr) - 1):
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


def _levels(row_ptr: np.ndarray, cols: np.ndarray, max_depth: int):
    """Level of each row in the DAG of the rows it reads, when one sweep
    finds it and the DAG is at most ``max_depth`` levels deep, else None.

    Row i reads row j for every off-diagonal entry (i, j) of the pattern,
    and its level is 1 plus the highest level of the rows it reads.  Link
    each row to the last row it reads: one sweep (``_unit_sweep``) gives
    every row its depth in that forest, d_i = 1 + d_link, which is
    no deeper than the DAG.  A chain such as a band, where each row reads
    the one before it, is as deep as it has rows, and so is its forest,
    which turns it away after that sweep.  Where d_i > d_j holds for every
    entry (i, j), d_i = 1 + max d_j over the rows i reads, the recurrence
    of the levels, so d - 1 are the levels: so it is on the natural-order
    grids of 5, 7, 9 and 27 points.  Where it fails the levels would need a
    peel (Kahn's algorithm), and the pattern takes the row recurrence.
    An empty pattern has no levels to schedule: None.  The levels come
    back in the index dtype of ``cols``.
    """
    n = len(row_ptr) - 1
    reads = np.diff(row_ptr) - 1  # rows each row reads
    links = reads > 0
    ends = row_ptr[1:] - 1
    link_ptr = np.zeros(n + 1, dtype=cols.dtype)
    np.cumsum(links, dtype=cols.dtype, out=link_ptr[1:])
    forest = _unit_sweep(link_ptr, cols[ends[links] - 1])
    if not n or forest.max() > max_depth:
        return None
    off = np.ones(len(cols), dtype=bool)
    off[ends] = False
    if not np.all(np.repeat(forest, reads) > forest[cols[off]]):
        return None
    return (forest - 1.0).astype(cols.dtype)


def _level_pass(vals: np.ndarray, row_ptr: np.ndarray, cols: np.ndarray, slots, level: np.ndarray) -> bool:
    """Numeric pass of ``ic0`` by level sets: True with L in ``vals``, or
    False with ``vals`` as they were.

    The rows of one level read only rows of lower levels, so they factor
    together.  Within a level the off-diagonal entries go in steps by
    their position k in the row, and each step does, for all its entries
    at once, what the row recurrence does for one: the pair products
    summed left to right from 0.0, one pair index per step, then
    ``x = (v[t] - acc) / L_jj``.  The squares of each row are added in
    ascending column order, and each pivot becomes ``sqrt(pivot)``.  So
    every entry gets the same IEEE operations in the same order as in
    ``_scalar_pass``, and the same bits.  Where no entry of a level has
    pairs, its entries read no other entry of the level, and one division
    serves all its steps.

    The pass works on a copy in its own layout and writes ``vals`` only
    at the end.  At the first level with a pivot that is not positive
    (NaN included) it returns False, and ``_scalar_pass`` on the untouched
    values finds the row that fails.
    """
    plan = _schedule(row_ptr, cols, slots, level)
    w = np.empty_like(vals)
    w[plan.at] = vals
    divisor, pair_at, pair_left, pair_right = plan.divisor, plan.pair_at, plan.pair_left, plan.pair_right
    gp, gl, sp, ps = plan.group_ptr.tolist(), plan.group_of.tolist(), plan.step_of.tolist(), plan.step_ptr
    squares = np.empty(int(np.diff(plan.level_ptr).max()))
    for lvl in range(len(gl) - 1):
        first, diagonal = gl[lvl], gl[lvl + 1] - 1
        a, d0, d1 = gp[first], gp[diagonal], gp[diagonal + 1]
        if sp[first] == sp[diagonal]:
            # x - 0.0 is x, bit for bit, signed zeros included
            np.divide(w[a:d0], w[divisor[a:d0]], out=w[a:d0])
        else:
            for g in range(first, diagonal):
                lo, hi = gp[g], gp[g + 1]
                acc = np.zeros(hi - lo)
                for step in range(sp[g], sp[g + 1]):
                    p, q = ps[step], ps[step + 1]
                    acc[pair_at[p:q]] += w[pair_left[p:q]] * w[pair_right[p:q]]
                np.divide(np.subtract(w[lo:hi], acc, out=acc), w[divisor[lo:hi]], out=w[lo:hi])
        squared = w[a:d0] * w[a:d0]
        sq = squares[: d1 - d0]
        sq.fill(0.0)
        for g in range(first, diagonal):
            part = sq[: gp[g + 1] - gp[g]]
            part += squared[gp[g] - a : gp[g + 1] - a]
        pivot = np.subtract(w[d0:d1], sq, out=sq)
        if not pivot.min() > 0.0:
            return False
        np.sqrt(pivot, out=w[d0:d1])
    vals[:] = w[plan.at]
    return True


class _Schedule(NamedTuple):
    """The layout of ``_level_pass``: slot t of the pattern at place ``at[t]``.

    Level l holds ``level_ptr[l + 1] - level_ptr[l]`` rows, ordered by
    descending off-diagonal count, so the rows with a k-th off-diagonal
    entry are a prefix of them.  Its groups, from ``group_of[l]`` on, are
    the k-th entries of those rows for each k, then the diagonal entries
    of all of them; group g sits at ``group_ptr[g]:group_ptr[g + 1]``, and
    ``divisor`` holds, for each entry (i, j), the place of L_jj.  Group g
    sums its pairs in steps ``step_of[g]`` to ``step_of[g + 1]``: step s
    adds ``w[pair_left] * w[pair_right]`` over ``step_ptr[s]:step_ptr[s + 1]``
    to the entries at rows ``pair_at`` of the group.
    """

    level_ptr: np.ndarray
    group_of: np.ndarray
    group_ptr: np.ndarray
    at: np.ndarray
    divisor: np.ndarray
    step_of: np.ndarray
    step_ptr: list
    pair_at: np.ndarray | None
    pair_left: np.ndarray | None
    pair_right: np.ndarray | None


def _schedule(row_ptr: np.ndarray, cols: np.ndarray, slots, level: np.ndarray) -> _Schedule:
    """The layout ``_level_pass`` works in, from the levels of the rows.

    Rows are ordered by counting sorts (``_grouped``), and a slot's place
    is its group's start plus its row's rank in the level.  The arrays
    are in the index dtype of ``cols``, but for ``at`` and ``group_ptr``,
    which are ``np.intp``: numpy gathers and scatters by them without a
    conversion.
    """
    pair_ptr, left, right = slots
    n, nnz, index = len(row_ptr) - 1, len(cols), cols.dtype
    count = np.diff(row_ptr) - 1  # off-diagonal entries of each row
    depth, most = int(level.max()) + 1, int(count.max())
    by_count = _grouped(most - count, most + 1)[1]
    level_ptr, take = _grouped(level[by_count], depth)
    order = by_count[take]
    rank = np.empty(n, dtype=index)
    rank[order] = np.arange(n, dtype=index) - np.repeat(level_ptr[:-1], np.diff(level_ptr))
    group_of = np.zeros(depth + 1, dtype=index)
    np.cumsum(count[order[level_ptr[:-1]]] + 1, out=group_of[1:])
    size = count + 1
    group = np.repeat(group_of[:-1][level] - row_ptr[:-1], size)
    group += np.arange(nnz, dtype=index)  # plus the position in the row
    ends = row_ptr[1:] - 1
    group[ends] = group_of[1:][level] - 1
    group_ptr = np.zeros(int(group_of[-1]) + 1, dtype=np.intp)
    np.cumsum(np.bincount(group, minlength=len(group_ptr) - 1), out=group_ptr[1:])
    at = group_ptr[group]
    at += np.repeat(rank, size)
    del rank
    divisor = np.empty(nnz, dtype=index)
    divisor[at] = at[ends][cols]  # place of L_jj for each entry (i, j)

    step_of = np.zeros(len(group_ptr), dtype=index)
    if not len(left):
        return _Schedule(level_ptr, group_of, group_ptr, at, divisor, step_of, [0], None, None, None)
    per_slot = np.diff(pair_ptr)
    per_place = np.empty(nnz, dtype=per_slot.dtype)
    per_place[at] = per_slot
    np.cumsum(np.maximum.reduceat(per_place, group_ptr[:-1]), out=step_of[1:])
    slot = np.repeat(np.arange(nnz), per_slot)  # slot of each pair
    group_at = group[slot]
    step_ptr, take = _grouped(step_of[group_at] + (np.arange(len(left)) - pair_ptr[slot]), int(step_of[-1]))
    return _Schedule(
        level_ptr, group_of, group_ptr, at, divisor, step_of, step_ptr.tolist(),
        (at[slot] - group_ptr[group_at])[take], at[left[take]], at[right[take]],
    )


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
