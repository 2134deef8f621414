"""Matrix Market input and output, plus right-hand-side generation.

Reads coordinate and array files with real or integer fields and general or
symmetric storage; the header's words after ``%%MatrixMarket`` may be in any
case.  Other fields and symmetries raise UnsupportedFormat.  After the size
line, the data block is parsed in one ``np.loadtxt`` call: one entry a line
(``row col value``, or one value in column-major order for an array), with
lines that hold only a ``%`` comment, and blank lines, skipped anywhere.
Indices and integer values must be integers that fit in int64.  Duplicate
coordinate entries are summed.  Symmetric files store the lower triangle;
the upper one is mirrored on read.  Stored zeros are kept, because they are
part of the sparsity pattern.

Everything else is a ParseError: a size line without the right count of
nonnegative integers, a symmetric file that is not square, an entry with the
wrong number of tokens (a ``% text`` after an entry included) or a token that
does not parse, an index out of range, an entry above the diagonal of a
symmetric file, and more or fewer entries than the size line declares.  The
error names the size line by its line number and an entry by its 1-based
position in the data block, blank and comment lines not counted; an entry
that does not parse is found again line by line, on the error path only.

Right-hand sides default to a random unit-norm vector drawn from the pinned
generator in :mod:`bregpcg.rng`, so a (matrix, seed) pair always yields the
same problem.  For normal-equations problems an A^T * (random) mode is
available as well; the choice is recorded on the instance.
"""

import io
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NotPositiveDefinite, ParseError, UnsupportedFormat
from .sparse_core import CsrMatrix, sparse_ata

_FIELDS = ("real", "integer")
_SYMMETRIES = ("general", "symmetric")
_WRITE_BLOCK = 65536  # entries formatted per write
# a whole comment line of the data block; "%" after an entry is not a comment
_COMMENT_LINE = re.compile(rb"^[^\S\n]*%.*$", re.MULTILINE)
_INTEGER = re.compile(rb"[+-]?[0-9]+")


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


def _read_stream(handle) -> CsrMatrix:
    header = handle.readline()
    if not header:
        raise ParseError("empty input")
    layout, field, symmetry = _parse_header(header)
    for lineno, raw in enumerate(handle, start=2):
        size_line = raw.strip()
        if size_line and not size_line.startswith("%"):
            break
    else:
        raise ParseError("missing size line")
    n_rows, n_cols, *nnz = _split_size(size_line, lineno, 3 if layout == "coordinate" else 2)
    if symmetry == "symmetric" and n_rows != n_cols:
        raise ParseError(f"line {lineno}: symmetric matrices must be square")
    if layout == "coordinate":
        return _coordinate(_read_entries(handle, field, nnz[0], ("i", "j")), n_rows, n_cols, symmetry)

    count = n_rows * (n_rows + 1) // 2 if symmetry == "symmetric" else n_rows * n_cols
    values = _read_entries(handle, field, count)["v"].astype(np.float64)
    if symmetry == "general":
        return CsrMatrix.from_dense(values.reshape((n_cols, n_rows)).T)  # column-major file order
    dense = np.zeros((n_rows, n_cols))
    # the packed lower triangle, column by column, is the upper one row by row
    upper = np.triu_indices(n_rows)
    dense[upper] = dense.T[upper] = values
    return CsrMatrix.from_dense(dense)


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


def _read_entries(handle, field, count, indices=()):
    """The rest of the stream, one entry a line: int64 columns named by
    ``indices``, then the value ``v``, in one structured array."""
    dtype = [(name, np.int64) for name in indices] + [("v", np.int64 if field == "integer" else np.float64)]
    # as bytes, the text takes a quarter of the memory io.StringIO gives it
    data = handle.read().encode()
    if b"%" in data:  # a scan at C speed spares the regex a comment-free file
        data = _COMMENT_LINE.sub(b"", data)
    with warnings.catch_warnings():
        # no entries is for the count below to judge; numpy < 2 reads "1.0"
        # into an integer column with only a DeprecationWarning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            entries = np.loadtxt(io.BytesIO(data), dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            raise ParseError(_first_bad_entry(data, field, len(indices))) from None
    if len(entries) > count:
        raise ParseError(f"entry {count + 1}: more entries than the size line declared")
    if len(entries) < count:
        raise ParseError(f"expected {count} entries, found {len(entries)}")
    return entries


def _token_parses(token: bytes, integer: bool) -> bool:
    """Whether ``np.loadtxt`` reads ``token`` into an int64 or float64 column."""
    if integer:
        return _INTEGER.fullmatch(token) is not None and -(2**63) <= int(token) < 2**63
    try:
        float(token)
    except ValueError:
        return False
    return b"_" not in token  # Python's float takes digit separators, numpy's parser does not


def _first_bad_entry(data: bytes, field: str, n_indices: int) -> str:
    """What is wrong with the first entry of ``data`` that ``np.loadtxt``
    rejects, numbered as the other reader errors are: the k-th nonblank line
    of the data block is entry k."""
    width = n_indices + 1
    lines = (line for line in data.split(b"\n") if line.strip())
    for k, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != width:
            return f"entry {k}: expected {width} token{'s' * (width > 1)}, found {len(tokens)}"
        for pos, token in enumerate(tokens):
            integer = pos < n_indices or field == "integer"
            if not _token_parses(token, integer):
                kind = "an integer" if integer else "a real number"
                return f"entry {k}: {token.decode(errors='replace')!r} is not {kind}"
    return f"bad {field} entry"


def _coordinate(entries, n_rows, n_cols, symmetry) -> CsrMatrix:
    i, j = entries["i"], entries["j"]
    out = (i < 1) | (i > n_rows) | (j < 1) | (j > n_cols)
    if out.any():
        k = out.argmax()
        raise ParseError(f"entry {k + 1}: index ({i[k]}, {j[k]}) out of range")
    if symmetry == "symmetric" and (j > i).any():
        raise ParseError(f"entry {(j > i).argmax() + 1}: symmetric files must store the lower triangle")
    rows, cols, vals = i - 1, j - 1, entries["v"].astype(np.float64)
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, vals[off]])
    return CsrMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


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


RHS_MODES = ("random", "atb")


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
    if rhs_mode not in RHS_MODES:
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
