"""The generator is a documented contract: same seed, same stream, and
reproducible from the algorithm description alone.  The reference
implementation lives in conftest and shares no code with the package.  The
words and uniforms match it on any machine; the normals match it to roundoff
and are bitwise only for one numpy build at one CPU dispatch level.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from bregpcg import rng
from conftest import oneshot_normals, ref_normals, ref_uniforms, ref_words

# numpy dispatch levels the stream is checked under: the CPU's own, and one
# without the AVX-512 kernels, whose log differs from the C library's
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


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


def chunk_counts(chunk_pairs):
    c = chunk_pairs
    return [1, 2 * c - 1, 2 * c, 2 * c + 1, 3 * c + 3, 4 * c + 5]


def check_chunked_stream(chunk_pairs):
    """rng.normals against the one-pass stream, bit for bit, at counts around
    the chunk boundaries; and against the pure-Python reference to roundoff."""
    for seed in (77, 2**63 + 5):
        for count in chunk_counts(chunk_pairs):
            got = rng.normals(seed, count)
            assert got.shape == (count,)
            assert got.tobytes() == oneshot_normals(seed, count).tobytes(), (seed, count)
            np.testing.assert_allclose(got, ref_normals(seed, count), rtol=1e-13, atol=1e-15)
        rows, cols = 3, 2 * chunk_pairs // 3 + 1
        want = oneshot_normals(seed, rows * cols)
        assert rng.normal_matrix(seed, rows, cols).tobytes() == want.reshape(rows, cols).tobytes()
        n = 2 * chunk_pairs + 3
        want = oneshot_normals(seed, n)
        assert rng.unit_vector(seed, n).tobytes() == (want / np.linalg.norm(want)).tobytes()


def test_chunked_normals_equal_one_pass_across_chunk_boundaries():
    assert rng._CHUNK_PAIRS % 64 == 0
    check_chunked_stream(rng._CHUNK_PAIRS)


def test_chunked_normals_equal_one_pass_with_many_small_chunks(monkeypatch):
    # the smallest chunk the lane rule allows, so one call crosses many
    # boundaries
    monkeypatch.setattr(rng, "_CHUNK_PAIRS", 64)
    check_chunked_stream(64)
    for count in (129, 1001, 20_001):
        assert rng.normals(3, count).tobytes() == oneshot_normals(3, count).tobytes()


@pytest.mark.parametrize("chunk_pairs", [None, 64])
def test_chunked_normals_equal_one_pass_without_avx512(chunk_pairs):
    # numpy reads its dispatch level once, at import, so this runs in a
    # fresh interpreter
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    code = (
        "import sys; sys.path[:0] = [{src!r}, {tests!r}]\n"
        "from bregpcg import rng\n"
        "import test_rng\n"
        "chunk = {chunk!r} or rng._CHUNK_PAIRS\n"
        "rng._CHUNK_PAIRS = chunk\n"
        "test_rng.check_chunked_stream(chunk)\n"
    ).format(src=src, tests=tests, chunk=chunk_pairs)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
