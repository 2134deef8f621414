import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregpcg import matio
from bregpcg import (
    CsrMatrix,
    ParseError,
    UnsupportedFormat,
    load_problem,
    make_rhs,
    read_matrix_market,
    write_matrix_market,
)
from conftest import ref_normals


def test_symmetric_coordinate_mirrors_lower_triangle():
    text = """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 2
2 1 -1
2 2 2
"""
    a = read_matrix_market(io.StringIO(text))
    np.testing.assert_array_equal(a.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])


def test_general_roundtrip_is_identical(tmp_path):
    gen = np.random.default_rng(1)
    dense = gen.standard_normal((2, 3))
    dense[0, 1] = 0.0  # never stored, stays structural
    path = tmp_path / "roundtrip.mtx"
    write_matrix_market(path, CsrMatrix.from_dense(dense))
    back = read_matrix_market(path)
    first = back.to_dense()
    write_matrix_market(path, back)
    np.testing.assert_array_equal(read_matrix_market(path).to_dense(), first)
    np.testing.assert_array_equal(first, dense)


def per_entry_mtx(a) -> bytes:
    """The file written one entry at a time, with ``repr`` of each value."""
    lines = ["%%MatrixMarket matrix coordinate real general\n", f"{a.n_rows} {a.n_cols} {a.nnz}\n"]
    for i in range(a.n_rows):
        lo, hi = a.row_ptr[i], a.row_ptr[i + 1]
        cols, vals = a.col_idx[lo:hi], a.values[lo:hi]
        lines += [f"{i + 1} {j + 1} {float(v)!r}\n" for j, v in zip(cols, vals)]
    return "".join(lines).encode("ascii")


@pytest.mark.parametrize("block", [None, 3])
def test_written_bytes_equal_per_entry_formatting(tmp_path, monkeypatch, block):
    # a negative zero, the smallest subnormal, a huge value and a stored zero,
    # in rows of different lengths and an empty row; with a block of 3 the
    # entries span several writes
    if block:
        monkeypatch.setattr(matio, "_WRITE_BLOCK", block)
    values = [-0.0, 5e-324, 1e300, 0.0, -2.5, 1 / 3, 7.0]
    a = CsrMatrix(4, 5, [0, 3, 3, 5, 7], [0, 2, 4, 1, 3, 0, 4], values)
    gen = np.random.default_rng(3)
    b = CsrMatrix.from_dense(gen.standard_normal((30, 20)) * (gen.random((30, 20)) < 0.3))
    for m in (a, b, CsrMatrix(2, 2, [0, 0, 0], [], [])):
        path = tmp_path / "out.mtx"
        write_matrix_market(path, m)
        assert path.read_bytes() == per_entry_mtx(m)
    back = read_matrix_market(tmp_path / "out.mtx")
    assert back.nnz == 0
    write_matrix_market(path, a)
    back = read_matrix_market(path)
    assert back.values.tobytes() == np.asarray(values).tobytes()


def test_duplicate_entries_are_summed():
    text = """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.5
1 1 2.5
2 2 1
"""
    a = read_matrix_market(io.StringIO(text))
    np.testing.assert_array_equal(a.to_dense(), [[4.0, 0.0], [0.0, 1.0]])


def test_integer_field_reads_as_floats():
    text = """%%MatrixMarket matrix coordinate integer symmetric
2 2 2
1 1 3
2 1 -2
"""
    a = read_matrix_market(io.StringIO(text))
    assert a.values.dtype == np.float64
    np.testing.assert_array_equal(a.to_dense(), [[3.0, -2.0], [-2.0, 0.0]])


def test_array_format_column_major():
    text = """%%MatrixMarket matrix array real general
2 3
1
2
3
4
5
6
"""
    a = read_matrix_market(io.StringIO(text))
    np.testing.assert_array_equal(a.to_dense(), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_array_symmetric_packed_lower():
    text = """%%MatrixMarket matrix array real symmetric
3 3
1
2
3
4
5
6
"""
    a = read_matrix_market(io.StringIO(text))
    np.testing.assert_array_equal(
        a.to_dense(), [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]
    )


def test_unsupported_and_malformed_headers():
    for bad in (
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
        "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
        "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
    ):
        with pytest.raises(UnsupportedFormat):
            read_matrix_market(io.StringIO(bad))
    with pytest.raises(ParseError):
        read_matrix_market(io.StringIO("% not a matrix market header\n1 1 1\n"))
    with pytest.raises(ParseError):
        read_matrix_market(io.StringIO("%%MatrixMarket matrix coordinate real general\n2 2\n"))


def test_entry_errors():
    header = "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
    with pytest.raises(ParseError):
        read_matrix_market(io.StringIO(header + "3 1 1.0\n"))  # row out of bounds
    with pytest.raises(ParseError):
        read_matrix_market(io.StringIO(header + "0 1 1.0\n"))  # indices are 1-based
    with pytest.raises(ParseError):
        read_matrix_market(io.StringIO(header + "1 1 abc\n"))
    with pytest.raises(ParseError):
        read_matrix_market(io.StringIO(header))  # fewer entries than promised
    with pytest.raises(ParseError):
        read_matrix_market(
            io.StringIO("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 5.0\n")
        )  # symmetric files store the lower triangle


def test_explicit_zero_entries_are_kept():
    text = """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 2
2 1 0.0
2 2 2
"""
    a = read_matrix_market(io.StringIO(text))
    assert a.nnz == 4  # mirrored stored zero at (0,1) and (1,0)


def test_make_rhs_matches_reference_generator():
    got = make_rhs(3, 123)
    want = np.asarray(ref_normals(123, 3))
    want = want / np.linalg.norm(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_make_rhs_determinism_and_norm():
    a = make_rhs(5, 7)
    b = make_rhs(5, 7)
    np.testing.assert_array_equal(a, b)
    for n, seed in ((1, 0), (17, 3), (100, 9)):
        assert abs(np.linalg.norm(make_rhs(n, seed)) - 1.0) <= 1e-14


def test_load_problem_square_symmetric(tmp_mtx):
    dense = np.array([[4.0, -1.0], [-1.0, 4.0]])
    problem = load_problem(tmp_mtx(dense, "sq.mtx"), seed=5)
    assert problem.origin == "spd_direct"
    assert problem.rhs_mode == "random"
    assert problem.name == "sq"
    np.testing.assert_array_equal(problem.S.to_dense(), dense)
    np.testing.assert_array_equal(problem.b, make_rhs(2, 5))


def test_load_problem_rejects_asymmetric_square(tmp_mtx):
    dense = np.array([[4.0, 2.0], [-1.0, 4.0]])
    with pytest.raises(ValueError):
        load_problem(tmp_mtx(dense, "asym.mtx"), seed=0)


def test_load_problem_rectangular_forms_normal_equations(tmp_path):
    gen = np.random.default_rng(3)
    dense = gen.standard_normal((8, 5))
    dense[gen.random((8, 5)) < 0.4] = 0.0
    path = tmp_path / "rect.mtx"
    write_matrix_market(path, CsrMatrix.from_dense(dense))
    problem = load_problem(str(path), seed=1)
    assert problem.origin == "normal_equations"
    assert problem.n == 5
    np.testing.assert_allclose(problem.S.to_dense(), dense.T @ dense, atol=1e-13)

    # wide inputs are transposed first so the system is the smaller square
    path2 = tmp_path / "wide.mtx"
    write_matrix_market(path2, CsrMatrix.from_dense(dense.T))
    problem2 = load_problem(str(path2), seed=1)
    assert problem2.n == 5
    np.testing.assert_allclose(problem2.S.to_dense(), dense.T @ dense, atol=1e-13)


def test_load_problem_atb_rhs(tmp_path):
    gen = np.random.default_rng(4)
    dense = gen.standard_normal((9, 4))
    path = tmp_path / "rect2.mtx"
    write_matrix_market(path, CsrMatrix.from_dense(dense))
    problem = load_problem(str(path), seed=2, rhs_mode="atb")
    assert problem.rhs_mode == "atb"
    unit = np.asarray(ref_normals(2, 9))
    unit = unit / np.linalg.norm(unit)
    np.testing.assert_allclose(problem.b, dense.T @ unit, atol=1e-13)
    # direct SPD inputs have no A to multiply through, so the mode is rejected
    sq = tmp_path / "sq2.mtx"
    write_matrix_market(sq, CsrMatrix.from_dense(np.eye(3)))
    with pytest.raises(ValueError):
        load_problem(str(sq), seed=0, rhs_mode="atb")


_GENERAL = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param(_GENERAL + "2 2\n1 1 1\n", ParseError, id="size_line_count"),
        pytest.param(_GENERAL + "2 2.0 1\n1 1 1\n", ParseError, id="size_line_not_integer"),
        pytest.param(_GENERAL + "2 -2 1\n1 1 1\n", ParseError, id="size_line_negative"),
        pytest.param(
            "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n", ParseError, id="symmetric_coordinate_not_square"
        ),
        pytest.param(
            "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n", ParseError, id="symmetric_array_not_square"
        ),
        pytest.param("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n5\n", ParseError, id="array_too_many"),
        pytest.param("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", ParseError, id="array_too_few"),
        pytest.param(
            "%%MatrixMarket matrix array integer general\n2 2\n1\n-2\n3\n4\n", [[1.0, 3.0], [-2.0, 4.0]], id="array_integer"
        ),
        pytest.param(
            "%%MatrixMarket matrix array real symmetric\n% before the size line\n\n2 2\n1\n% between values\n\n-2\n  % indented\n3\n",
            [[1.0, -2.0], [-2.0, 3.0]],
            id="array_comment_and_blank_lines",
        ),
        pytest.param(
            "%%MatrixMarket matrix coordinate real symmetric\n%\n2 2 3\n1 1 2\n% a comment\n\n2 1 -1\n   \n  %indented\n2 2 5\n",
            [[2.0, -1.0], [-1.0, 5.0]],
            id="coordinate_comment_and_blank_lines",
        ),
        pytest.param("%%MatrixMarket MATRIX Coordinate Real General\n1 2 1\n1 2 7\n", [[0.0, 7.0]], id="upper_case_header"),
        pytest.param(_GENERAL + "2 2 1\n1 1\n", ParseError, id="entry_two_tokens"),
        pytest.param(_GENERAL + "2 2 1\n1 1 1 0\n", ParseError, id="entry_four_tokens"),
        pytest.param(_GENERAL + "2 2 1\n1 1 1 % text\n", ParseError, id="entry_trailing_comment"),
        pytest.param(_GENERAL + "2 2 1\n1.0 1 1\n", ParseError, id="index_not_integer"),
        pytest.param("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 2.5\n", ParseError, id="integer_field_fraction"),
        pytest.param(_GENERAL + "2 2 1\n1 1 1\n2 2 1\n", ParseError, id="more_entries_than_declared"),
    ],
)
def test_reader_branches_are_pinned(text, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            read_matrix_market(io.StringIO(text))
    else:
        a = read_matrix_market(io.StringIO(text))
        assert a.to_dense().tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        # numpy's own position read "at row 0" for a bad token and "at row 1"
        # for a wrong token count, both on the first entry
        pytest.param(_GENERAL + "2 2 1\nx 1 1.0\n", "entry 1: 'x' is not an integer", id="bad_token"),
        pytest.param(_GENERAL + "2 2 1\n1 1 1 % text\n", "entry 1: expected 3 tokens, found 5", id="token_count"),
        pytest.param(
            _GENERAL + "2 2 2\n1 1 1\n\n   \n% a comment\n2 2 zz\n", "entry 2: 'zz' is not a real number", id="after_blank_lines"
        ),
        pytest.param(
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 2.5\n", "entry 1: '2.5' is not an integer",
            id="integer_field",
        ),
        pytest.param(
            "%%MatrixMarket matrix array real general\n2 2\n1\n2 3\n3\n4\n", "entry 2: expected 1 token, found 2", id="array"
        ),
    ],
)
def test_bad_entries_are_numbered_like_every_reader_error(text, message):
    with pytest.raises(ParseError) as info:
        read_matrix_market(io.StringIO(text))
    assert str(info.value) == message


# the values a text round trip most easily gets wrong, and stored zeros
_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def square_patterns(draw):
    """A square matrix: a stored-entry mask and a value for every cell."""
    n = draw(st.integers(1, 7))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=bool).reshape(n, n)
    values = np.array(draw(st.lists(_VALUES, min_size=n * n, max_size=n * n))).reshape(n, n)
    return mask, values


def _csr_bytes(a):
    return a.row_ptr.tobytes(), a.col_idx.tobytes(), a.values.tobytes()


def _expected_csr(mask, values):
    """CSR of the stored cells, row by row, built without the reader."""
    rows, cols = np.nonzero(mask)
    row_ptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return CsrMatrix(*mask.shape, row_ptr, cols, values[rows, cols])


def _symmetric_coordinate_text(mask, values):
    n = len(mask)
    rows, cols = np.nonzero(np.tril(mask))
    lines = [f"{i + 1} {j + 1} {float(values[i, j])!r}\n" for i, j in zip(rows, cols)]
    return f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {len(lines)}\n" + "".join(lines)


def _array_text(values, symmetry):
    n = len(values)
    if symmetry == "general":
        column_major = values.T.ravel()
    else:  # the lower triangle, column by column
        column_major = np.concatenate([values[j:, j] for j in range(n)])
    body = "".join(f"{float(v)!r}\n" for v in column_major)
    return f"%%MatrixMarket matrix array real {symmetry}\n{n} {n}\n" + body


@settings(max_examples=60, deadline=None)
@given(square_patterns(), st.integers(1, 3))
def test_text_round_trip_is_bitwise(tmp_path_factory, pattern, n_extra_cols):
    mask, values = pattern
    # a rectangular general matrix, stored zeros and signed zeros included
    wide_mask = np.hstack([mask, mask[:, :n_extra_cols]])
    wide_values = np.hstack([values, values[:, :n_extra_cols]])
    a = _expected_csr(wide_mask, wide_values)
    path = tmp_path_factory.mktemp("roundtrip") / "a.mtx"
    write_matrix_market(path, a)
    assert _csr_bytes(read_matrix_market(path)) == _csr_bytes(a)

    # the symmetric matrix with the lower triangle's pattern and values
    low = np.tril(mask)
    full_mask = low | low.T
    full_values = np.where(np.tri(len(mask), dtype=bool), values, values.T)
    back = read_matrix_market(io.StringIO(_symmetric_coordinate_text(mask, values)))
    assert _csr_bytes(back) == _csr_bytes(_expected_csr(full_mask, full_values))

    # array files hold every cell; exact zeros (of either sign) are not stored
    for symmetry, dense in (("general", values), ("symmetric", full_values)):
        back = read_matrix_market(io.StringIO(_array_text(dense, symmetry)))
        assert _csr_bytes(back) == _csr_bytes(_expected_csr(dense != 0, dense))
