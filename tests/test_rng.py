"""The generator is a documented contract: same seed, same stream, on any
machine, reproducible from the algorithm description alone.  The reference
implementation lives in conftest and shares no code with the package.
"""

import numpy as np

from bregpcg import rng
from conftest import ref_normals, ref_uniforms, ref_words


def test_words_match_reference():
    for seed in (0, 1, 42, 2**63, -5 % 2**64):
        got = rng.words(seed, 16)
        assert list(got) == ref_words(seed, 16)


def test_uniforms_match_reference_and_stay_in_half_open_unit():
    got = rng.uniforms(123, 1000)
    np.testing.assert_array_equal(got, ref_uniforms(123, 1000))
    assert np.all(got > 0.0)
    assert np.all(got <= 1.0)


def test_normals_match_reference_even_and_odd_counts():
    for count in (1, 2, 7, 64):
        got = rng.normals(77, count)
        np.testing.assert_allclose(got, ref_normals(77, count), rtol=0, atol=0)


def test_normal_matrix_is_row_major_fill():
    # the sketches' Gaussian test matrix: the reference stream, row by row
    flat = rng.normals(9, 12)
    mat = rng.normal_matrix(9, 3, 4)
    np.testing.assert_array_equal(mat, np.asarray(flat).reshape(3, 4))
    np.testing.assert_array_equal(mat, np.array(ref_normals(9, 12)).reshape(3, 4))


def test_unit_vector_normalized_and_deterministic():
    v1 = rng.unit_vector(5, 40)
    v2 = rng.unit_vector(5, 40)
    np.testing.assert_array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1.0) <= 1e-14


def test_derive_depends_on_label_and_seed():
    seeds = {
        rng.derive(0, "a"),
        rng.derive(0, "b"),
        rng.derive(0, "ab"),
        rng.derive(1, "a"),
        rng.derive(0, "a "),
    }
    assert len(seeds) == 5
    assert rng.derive(3, "rhs|x.mtx") == rng.derive(3, "rhs|x.mtx")


def test_normals_sample_statistics():
    x = rng.normals(2024, 10_000)
    assert abs(np.mean(x)) <= 5.0 / np.sqrt(10_000)
    assert abs(np.std(x) - 1.0) <= 0.05
