import numpy as np
import pytest

from greenbound import hessenberg, schur_decompose, split_triangular
from greenbound.schur import reconstruction_residual, unitarity_residual

from conftest import random_dense, random_triangular, random_unitary


def norm_inf(a):
    return np.abs(a).sum(axis=1).max()


def test_hessenberg_small_is_identity():
    for a in (np.array([[2.0 + 1j]]), random_dense(np.random.default_rng(0), 2)):
        q0, h = hessenberg(a)
        assert np.array_equal(q0, np.eye(len(a)))
        assert np.array_equal(h, a)


def test_hessenberg_hermitian_gives_tridiagonal():
    rng = np.random.default_rng(3)
    a = random_dense(rng, 6)
    a = a + a.conj().T
    q0, h = hessenberg(a)
    assert np.abs(np.triu(h, 2)).max() < 1e-12 * norm_inf(a)


def test_hessenberg_reconstruction(rng):
    a = random_dense(rng, 5)
    q0, h = hessenberg(a)
    assert norm_inf(a - q0 @ h @ q0.conj().T) <= 1e-11 * 5 * norm_inf(a)
    assert np.abs(np.tril(h, -2)).max() == 0.0


@pytest.mark.parametrize("n", [5, 50, 200])
def test_schur_returns_triangular_input_unchanged(n):
    b = random_triangular(np.random.default_rng(n), n)
    form = schur_decompose(b)
    assert np.array_equal(form.q, np.eye(n))
    assert np.array_equal(form.t, b)


def test_schur_rotation_matrix():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    form = schur_decompose(a)
    assert sorted(np.round(form.eigenvalues.imag, 10)) == [-1.0, 1.0]
    assert np.abs(form.eigenvalues.real).max() < 1e-12
    assert reconstruction_residual(a, form) <= 1e-12


def test_schur_spectrum_invariance(rng):
    b = random_triangular(rng, 6)
    qr_ = random_unitary(rng, 6)
    a = qr_ @ b @ qr_.conj().T
    form = schur_decompose(a)
    got = np.sort_complex(np.round(form.eigenvalues, 9))
    want = np.sort_complex(np.round(np.diag(b), 9))
    assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20, 100, 200])
def test_schur_residuals(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = random_dense(rng, n)
        form = schur_decompose(a)
        assert reconstruction_residual(a, form) <= 1e-10 * n * norm_inf(a)
        assert unitarity_residual(form) <= 1e-10 * n
        split_triangular(form.t)  # triangularity holds
