import numpy as np
import pytest

from bregpcg import (
    CountingOperator,
    CsrMatrix,
    LinearOperator,
    RankCollapse,
    SketchParams,
    ic0,
    nystrom,
    nystrom_indefinite,
    operator_from_dense,
    scaled_operator,
)
from bregpcg.dense_kernels import sym_eig
from bregpcg.precond import _minus_identity
from conftest import bumped_band


def exact_rank_psd(n, r, seed):
    gen = np.random.default_rng(seed)
    z, _ = np.linalg.qr(gen.standard_normal((n, r)))
    lam = np.sort(gen.uniform(0.5, 3.0, size=r))[::-1]
    return (z * lam) @ z.T


def exact_rank_mixed(n, r, seed):
    gen = np.random.default_rng(seed)
    z, _ = np.linalg.qr(gen.standard_normal((n, r)))
    lam = gen.uniform(0.5, 2.0, size=r) * np.where(np.arange(r) % 2, 1.0, -1.0)
    return (z * lam) @ z.T, np.sort(lam)


def test_nystrom_recovers_exact_rank():
    x = exact_rank_psd(100, 5, seed=3)
    w = nystrom(operator_from_dense(x), 5, SketchParams(seed=4))
    assert w.rank == 5
    err = np.linalg.norm(w.as_dense() - x) / np.linalg.norm(x)
    assert err <= 1e-8
    np.testing.assert_allclose(w.Z.T @ w.Z, np.eye(5), atol=1e-8)
    assert np.all(w.lam > -1.0)


@pytest.mark.parametrize("sketch", [nystrom, nystrom_indefinite])
def test_sketch_core_tolerates_operator_roundoff(sketch):
    # an operator applied with roundoff is symmetric only to its last digits;
    # here the asymmetry, 1e-10 relative, is above what sym_eig accepts
    x = exact_rank_psd(80, 4, seed=5)
    gen = np.random.default_rng(6)
    noisy = x + 1e-10 * np.abs(x).max() * gen.standard_normal(x.shape)
    w = sketch(operator_from_dense(noisy), 4, SketchParams(oversample=8, seed=7))
    assert w.rank == 4
    assert np.linalg.norm(w.as_dense() - x) <= 1e-6 * np.linalg.norm(x)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(noisy)


def test_nystrom_zero_operator_is_empty():
    with pytest.warns(RankCollapse):
        w = nystrom(operator_from_dense(np.zeros((12, 12))), 3, SketchParams(seed=0))
    assert w.rank == 0


def test_nystrom_rank_zero_request():
    w = nystrom(operator_from_dense(np.eye(6)), 0, SketchParams())
    assert w.rank == 0 and w.n == 6


@pytest.mark.parametrize("sketch", [nystrom, nystrom_indefinite])
def test_both_sketches_check_the_rank_alike(sketch):
    op = CountingOperator(operator_from_dense(np.eye(6)))
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        sketch(op, -1)
    w = sketch(op, 0)
    assert (w.rank, w.n, op.count) == (0, 6, 0)


def test_nystrom_matvec_count_is_sketch_width():
    x = exact_rank_psd(80, 4, seed=6)
    op = CountingOperator(operator_from_dense(x))
    nystrom(op, 4, SketchParams(oversample=60, seed=1))
    assert op.count == 4 + 60
    op2 = CountingOperator(operator_from_dense(x))
    nystrom(op2, 4, SketchParams(oversample=10, seed=1))
    assert op2.count == 14


def test_counting_operator_counts_k_per_block():
    op = CountingOperator(operator_from_dense(np.eye(6)))
    op.apply(np.ones(6))
    op.apply(np.ones((6, 4)))
    assert op.count == 5


@pytest.mark.parametrize(
    "sketch, applies, lam, z_abs_sums",
    [
        (
            nystrom,
            4 + 10,
            [0.07997959326668275, 0.07444626426916547, -0.058491853154638236, -0.08871210130863832],
            [3.110180458047232, 3.7410314445078505, 3.393123124465518, 2.7735318280049484],
        ),
        (
            nystrom_indefinite,
            6,
            [0.09222272202013282, -0.04898448895471725, -0.07413097090223324, -0.08723604973991167],
            [3.149468147525503, 3.7719191391706586, 3.6088137989582187, 3.730050250886759],
        ),
    ],
    ids=["nystrom", "nystrom_indefinite"],
)
def test_block_sketch_of_the_scaled_error_is_pinned(sketch, applies, lam, z_abs_sums):
    # the sketch applies the operator to its whole test matrix at once; the
    # result equals the column-by-column sample bitwise, and W the values
    # recorded when the sample was formed one column at a time (to a relative
    # tolerance: eigh and QR round differently across BLAS builds)
    s = CsrMatrix.from_dense(bumped_band(80))
    fac = ic0(s)
    params = SketchParams(oversample=10, seed=3)
    op = CountingOperator(scaled_operator(s, fac))
    w = sketch(_minus_identity(op), 4, params)
    assert op.count == applies
    np.testing.assert_allclose(w.lam, lam, rtol=1e-10, atol=0)
    np.testing.assert_allclose(np.abs(w.Z).sum(axis=0), z_abs_sums, rtol=1e-10, atol=0)
    scaled = scaled_operator(s, fac)
    columns = LinearOperator(80, lambda v: np.column_stack([scaled.apply(c) for c in v.T]))
    by_column = sketch(_minus_identity(columns), 4, params)
    np.testing.assert_array_equal(by_column.Z, w.Z)
    np.testing.assert_array_equal(by_column.lam, w.lam)


def test_nystrom_decaying_spectrum_close_to_best():
    gen = np.random.default_rng(8)
    n, r = 300, 10
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    lam = 2.0 ** -np.arange(n, dtype=np.float64)
    x = (q * lam) @ q.T
    w = nystrom(operator_from_dense(x), r, SketchParams(seed=2))
    best = np.linalg.norm(lam[r:])  # Frobenius error of the spectral truncation
    got = np.linalg.norm(w.as_dense() - x)
    assert got <= best * 10.0 + 1e-12


def test_nystrom_indefinite_exact_rank_and_inertia():
    x, lam_sorted = exact_rank_mixed(90, 6, seed=12)
    op = CountingOperator(operator_from_dense(x))
    w = nystrom_indefinite(op, 6, SketchParams(width_factor=1.5, seed=5))
    assert op.count == 9  # ceil(1.5 * 6)
    assert w.rank == 6
    err = np.linalg.norm(w.as_dense() - x) / np.linalg.norm(x)
    assert err <= 1e-8
    np.testing.assert_allclose(np.sort(w.lam), lam_sorted, atol=1e-8)
    assert np.array_equal(np.sign(np.sort(w.lam)), np.sign(lam_sorted))


def test_nystrom_indefinite_width_rounds_up():
    x, _ = exact_rank_mixed(50, 3, seed=13)
    op = CountingOperator(operator_from_dense(x))
    nystrom_indefinite(op, 3, SketchParams(width_factor=1.5, seed=5))
    assert op.count == 5  # ceil(4.5)


def test_nystrom_indefinite_identity_stays_in_unit_range():
    w = nystrom_indefinite(operator_from_dense(np.eye(10)), 2, SketchParams(seed=7))
    assert w.rank == 2
    assert np.all(w.lam >= 0.0)
    assert np.all(w.lam <= 1.0 + 1e-10)


def test_rank_collapse_warns_and_truncates():
    x = exact_rank_psd(40, 2, seed=20)  # true rank 2, ask for 5
    with pytest.warns(RankCollapse):
        w = nystrom(operator_from_dense(x), 5, SketchParams(seed=3))
    assert w.rank == 2
    err = np.linalg.norm(w.as_dense() - x) / np.linalg.norm(x)
    assert err <= 1e-8


def test_low_rank_output_is_orthonormal():
    x = exact_rank_psd(120, 8, seed=40)
    w = nystrom(operator_from_dense(x), 8, SketchParams(seed=9))
    gram = w.Z.T @ w.Z
    assert np.max(np.abs(gram - np.eye(w.rank))) <= 1e-10
