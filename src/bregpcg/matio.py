"""Matrix Market input and output, plus right-hand-side generation.

Reads coordinate and array files with real or integer fields and general or
symmetric storage.  Duplicate coordinate entries are summed.  Symmetric
files store the lower triangle; the upper one is mirrored on read.  Stored
zeros are kept, because they are part of the sparsity pattern.

Right-hand sides default to a random unit-norm vector drawn from the pinned
generator in :mod:`bregpcg.rng`, so a (matrix, seed) pair always yields the
same problem.  For normal-equations problems an A^T * (random) mode is
available as well; the choice is recorded on the instance.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NotPositiveDefinite, ParseError, UnsupportedFormat
from .sparse_core import CsrMatrix, sparse_ata

_FIELDS = ("real", "integer")
_SYMMETRIES = ("general", "symmetric")
_WRITE_BLOCK = 65536  # entries formatted per write


def _parse_header(line: str):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise ParseError(f"bad Matrix Market header: {line.strip()!r}")
    layout, field, symmetry = (p.lower() for p in parts[2:5])
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unknown layout {layout!r}")
    if field not in _FIELDS:
        raise UnsupportedFormat(f"field {field!r} is not supported (only real or integer)")
    if symmetry not in _SYMMETRIES:
        raise UnsupportedFormat(f"symmetry {symmetry!r} is not supported (only general or symmetric)")
    return layout, field, symmetry


def read_matrix_market(source) -> CsrMatrix:
    """Read a Matrix Market file (a path or a file object) into CSR form.

    A ``str`` or path is opened; text in memory goes in as ``io.StringIO``.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            return _read_stream(handle)
    return _read_stream(source)


def _data_lines(handle):
    for lineno, raw in enumerate(handle, start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield lineno, line


def _read_stream(handle) -> CsrMatrix:
    header = handle.readline()
    if not header:
        raise ParseError("empty input")
    layout, field, symmetry = _parse_header(header)
    lines = _data_lines(handle)

    try:
        lineno, size_line = next(lines)
    except StopIteration:
        raise ParseError("missing size line") from None

    if layout == "coordinate":
        return _read_coordinate(lines, size_line, lineno, field, symmetry)
    return _read_array(lines, size_line, lineno, field, symmetry)


def _split_size(size_line, lineno, expect):
    parts = size_line.split()
    if len(parts) != expect:
        raise ParseError(f"line {lineno}: size line must have {expect} integers")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"line {lineno}: size line must have integers") from None
    if any(v < 0 for v in nums):
        raise ParseError(f"line {lineno}: sizes must be nonnegative")
    return nums


def _parse_value(token, field, lineno):
    try:
        if field == "integer":
            return float(int(token))
        return float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {field} value {token!r}") from None


def _read_coordinate(lines, size_line, size_lineno, field, symmetry) -> CsrMatrix:
    n_rows, n_cols, nnz = _split_size(size_line, size_lineno, 3)
    if symmetry == "symmetric" and n_rows != n_cols:
        raise ParseError("symmetric matrices must be square")
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    count = 0
    for lineno, line in lines:
        if count >= nnz:
            raise ParseError(f"line {lineno}: more entries than the size line declared")
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: coordinate entries need 'row col value'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad indices") from None
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise ParseError(f"line {lineno}: index ({i}, {j}) out of range")
        if symmetry == "symmetric" and j > i:
            raise ParseError(f"line {lineno}: symmetric files must store the lower triangle")
        rows[count], cols[count] = i - 1, j - 1
        vals[count] = _parse_value(parts[2], field, lineno)
        count += 1
    if count != nnz:
        raise ParseError(f"expected {nnz} entries, found {count}")
    if symmetry == "symmetric":
        off = rows != cols
        mirrored_rows = np.concatenate([rows, cols[off]])
        mirrored_cols = np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, vals[off]])
        rows, cols = mirrored_rows, mirrored_cols
    return CsrMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def _read_array(lines, size_line, size_lineno, field, symmetry) -> CsrMatrix:
    n_rows, n_cols = _split_size(size_line, size_lineno, 2)
    if symmetry == "symmetric":
        if n_rows != n_cols:
            raise ParseError("symmetric matrices must be square")
        expected = n_rows * (n_rows + 1) // 2
    else:
        expected = n_rows * n_cols
    data = np.empty(expected, dtype=np.float64)
    count = 0
    for lineno, line in lines:
        for token in line.split():
            if count >= expected:
                raise ParseError(f"line {lineno}: more values than the size line declared")
            data[count] = _parse_value(token, field, lineno)
            count += 1
    if count != expected:
        raise ParseError(f"expected {expected} values, found {count}")
    dense = np.zeros((n_rows, n_cols))
    if symmetry == "general":
        dense = data.reshape((n_cols, n_rows)).T.copy()  # column-major file order
    else:
        pos = 0
        for j in range(n_cols):
            block = n_rows - j
            dense[j:, j] = data[pos : pos + block]
            dense[j, j:] = data[pos : pos + block]
            pos += block
    return CsrMatrix.from_dense(dense)


def write_matrix_market(path, a: CsrMatrix) -> None:
    """Write CSR data as a general real coordinate file, stored zeros included."""
    rows = np.repeat(np.arange(1, a.n_rows + 1), np.diff(a.row_ptr))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        for lo in range(0, a.nnz, _WRITE_BLOCK):
            # one-based Python ints and floats, formatted as one write per
            # entry would format them
            block = slice(lo, lo + _WRITE_BLOCK)
            entries = zip(rows[block].tolist(), (a.col_idx[block] + 1).tolist(), a.values[block].tolist())
            handle.write("".join(f"{i} {j} {v!r}\n" for i, j, v in entries))


def make_rhs(n: int, seed: int) -> np.ndarray:
    """Unit 2-norm right-hand side with standard normal direction.

    Entries come from the pinned SplitMix64 + Box-Muller stream documented in
    :mod:`bregpcg.rng`, then the vector is scaled to unit 2-norm.
    """
    if n <= 0:
        raise ValueError("right-hand side length must be positive")
    return rng.unit_vector(seed, n)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A loaded benchmark problem: the SPD matrix, its RHS, and provenance."""

    name: str
    S: CsrMatrix
    b: np.ndarray
    origin: str  # "spd_direct" or "normal_equations"
    rhs_mode: str  # "random" or "atb"
    seed: int

    @property
    def n(self) -> int:
        return self.S.n_rows


def load_problem(path, seed: int = 0, rhs_mode: str = "random") -> ProblemInstance:
    """Load a Matrix Market file as an SPD system.

    Square inputs are used directly and must be symmetric.  Rectangular
    inputs become normal equations A^T A (transposing first so rows >=
    columns).  ``rhs_mode`` is ``"random"`` for a unit-norm random vector or
    ``"atb"`` for A^T times a random unit vector (normal equations only).
    """
    if rhs_mode not in ("random", "atb"):
        raise ValueError(f"unknown rhs mode {rhs_mode!r}")
    a = read_matrix_market(path)
    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    if a.n_rows == a.n_cols:
        dense_gap = abs(a.to_scipy() - a.to_scipy().T)
        scale = max(1.0, np.abs(a.values).max()) if a.nnz else 1.0
        if dense_gap.nnz and dense_gap.max() > 1e-13 * scale:
            raise NotPositiveDefinite("square input is not symmetric", which="S")
        if dense_gap.nnz:  # symmetrize away last-digit noise
            a = CsrMatrix.from_scipy((a.to_scipy() + a.to_scipy().T) * 0.5)
        if rhs_mode == "atb":
            raise ValueError("rhs mode 'atb' applies only to normal equations")
        return ProblemInstance(name, a, make_rhs(a.n_rows, seed), "spd_direct", rhs_mode, seed)
    if a.n_rows < a.n_cols:
        a = a.transpose()
    s = sparse_ata(a)
    if rhs_mode == "atb":
        u = rng.unit_vector(seed, a.n_rows)
        b = a.transpose() @ u
    else:
        b = make_rhs(s.n_rows, seed)
    return ProblemInstance(name, s, b, "normal_equations", rhs_mode, seed)
