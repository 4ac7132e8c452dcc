import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenbound import (
    NotTriangular,
    as_matrix,
    entrywise_abs,
    induced_norm,
    split_triangular,
)
from greenbound.matcore import norm_kind

from conftest import random_dense, random_unitary


def test_split_basic():
    d, n = split_triangular([[-1, 1], [0, 2]])
    assert np.array_equal(d, np.diag([-1, 2]))
    assert np.array_equal(n, [[0, 1], [0, 0]])


def test_split_diagonal():
    b = np.diag([3j, -2])
    d, n = split_triangular(b)
    assert np.array_equal(d, b)
    assert not n.any()


def test_split_rejects_lower_triangular():
    with pytest.raises(NotTriangular):
        split_triangular([[0, 0], [1, 0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_tolerance_where_the_norm_overflows():
    # norm_inf = 2e308 overflowed the tolerance 1e-13 * norm_inf to inf, so
    # any finite subdiagonal entry was dropped with an overflow warning
    with pytest.raises(NotTriangular, match="exceeds tolerance 2e\\+295"):
        split_triangular([[-1e308, 1e308], [1e307, 1e308]])
    d, n = split_triangular([[-1e308, 1e308], [1e290, 1e308]])
    assert np.array_equal(d + n, [[-1e308, 1e308], [0, 1e308]])


def test_split_roundtrip_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = np.triu(random_dense(rng, 6))
        d, n = split_triangular(b)
        assert np.array_equal(d + n, b)


def test_entrywise_abs():
    out = entrywise_abs([[-1, 2j], [0, 1 + 1j]])
    assert np.allclose(out, [[1, 2], [0, np.sqrt(2)]])
    assert out.dtype == float
    assert not entrywise_abs(np.zeros((3, 3))).any()


def test_entrywise_abs_preserves_structure():
    n = np.array([[0, 1j, -2], [0, 0, 3], [0, 0, 0]])
    assert not np.tril(entrywise_abs(n)).any()


@pytest.mark.parametrize("a, message", [
    pytest.param(np.ones((2, 3)), "square", id="non-square"),
    pytest.param([[1.0, math.nan], [0.0, 1.0]], "non-finite", id="nan"),
    pytest.param([[math.inf]], "non-finite", id="inf"),
])
def test_as_matrix_rejects(a, message):
    with pytest.raises(ValueError, match=message):
        as_matrix(a)


def test_norm_kind_rejects_an_unknown_norm():
    with pytest.raises(ValueError, match="unsupported norm kind: '3'"):
        norm_kind("3")


def test_induced_norm_identity():
    for p in (1, 2, "inf"):
        assert induced_norm(np.eye(4), p) == pytest.approx(1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1, "inf"])
def test_induced_norm_beyond_the_float_range_is_quiet_inf(p):
    assert induced_norm([[1e308, 1e308], [1e308, 1e308]], p) == math.inf


def test_induced_norm_rank_one():
    a = [[0, 2], [0, 0]]
    for p in (1, 2, "inf"):
        # rank one: sigma equals the Frobenius norm
        assert induced_norm(a, p) == pytest.approx(2.0, rel=1e-12)


def test_induced_two_norm_jordan():
    # eigenvalues of A^H A = [[1,1],[1,2]] are (3 +/- sqrt 5)/2
    expected = (1 + np.sqrt(5)) / 2
    assert induced_norm([[1, 1], [0, 1]], 2) == pytest.approx(expected, rel=1e-10)


def test_two_norm_start_vector_escape():
    # all-ones start lies in the null space of A^H A here
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert induced_norm(a, 2) == pytest.approx(2.0, rel=1e-10)


def test_diagonal_norm_is_max_abs_entry():
    rng = np.random.default_rng(1)
    diagonals = [rng.normal(size=5) + 1j * rng.normal(size=5)
                 for _ in range(10)]
    # two close singular values, on which a power iteration stalls
    diagonals += [[-1.0, -1.0005, 1.0], [-1.0, 2.0, -2.002]]
    for entries in diagonals:
        d = np.diag(entries)
        expected = np.abs(np.diag(d)).max()
        for p in (1, 2, "inf"):
            assert induced_norm(d, p) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n", [8, 30])
@pytest.mark.parametrize("gap", [1e-3, 1e-9])
def test_two_norm_with_close_top_singular_values(n, gap):
    rng = np.random.default_rng(n)
    sigma = np.sort(rng.uniform(0.1, 0.5, size=n))[::-1]
    sigma[:2] = [1.0, 1.0 - gap]
    u, w = random_unitary(rng, n), random_unitary(rng, n)
    a = u @ np.diag(sigma) @ w.conj().T
    assert induced_norm(a, 2) == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_submultiplicative(n, seed):
    rng = np.random.default_rng(seed)
    a, b = random_dense(rng, n), random_dense(rng, n)
    for p in (1, 2, "inf"):
        assert induced_norm(a @ b, p) <= (
            induced_norm(a, p) * induced_norm(b, p) + 1e-10
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_entrywise_abs_submultiplicative(n, seed):
    rng = np.random.default_rng(seed)
    a, b = random_dense(rng, n), random_dense(rng, n)
    assert np.all(
        entrywise_abs(a @ b) <= entrywise_abs(a) @ entrywise_abs(b) + 1e-12
    )
