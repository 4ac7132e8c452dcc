import numpy as np
import pytest


def random_triangular(rng, n, gap=0.2):
    """Upper triangular with standard complex Gaussian entries and the
    diagonal real parts pushed at least `gap` away from the imaginary axis."""
    b = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(b).copy()
    re = np.where(d.real >= 0, d.real + gap, d.real - gap)
    np.fill_diagonal(b, re + 1j * d.imag)
    return b


def scaled_nilpotent(seed, n, scale):
    """random_triangular(default_rng(seed), n) with N multiplied by scale."""
    b = random_triangular(np.random.default_rng(seed), n)
    d = np.diag(np.diag(b))
    return d + (b - d) * scale


def random_dense(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_dense(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def log_time_grid(count=40, lo=1e-2, hi=10.0):
    """Symmetric +/- log-spaced times, excluding 0."""
    half = np.logspace(np.log10(lo), np.log10(hi), count // 2)
    return np.concatenate([-half[::-1], half])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
