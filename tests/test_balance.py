import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import greenbound.schur
from greenbound.balance import _sweeps, balance_exponents
from greenbound.schur import schur_decompose

from conftest import random_dense, random_triangular, scaled_nilpotent


def gebal_scales(a) -> np.ndarray:
    """LAPACK's zgebal scales of A with job S (scale, no permutation)."""
    a = np.asarray(a, dtype=complex)
    return scipy.linalg.lapack.zgebal(a, scale=1, permute=0)[3]


def izamax_column(n=7):
    """I with a last column of 1.1 2^-900 five times, then (0.6 + 0.6i)
    2^-900, above a diagonal 5e-324: the second loop stops at zgebal's
    bound on CA, |0.6 + 0.6i| 2^-900 by IZAMAX's |re| + |im|, a binade
    below the largest modulus 1.1 2^-900."""
    a = np.eye(n, dtype=complex)
    a[:-1, -1] = np.append(np.full(n - 2, 1.1), 0.6 + 0.6j) * 2.0 ** -900
    a[-1, -1] = 5e-324
    return a


def tiny_part():
    """t_01 = 1.3 2^-600, whose square is 0 in a double, which zgebal's
    scales of 2^300 on column 1 bring into that column's norm: with it
    lost, the sweeps would put the scale at 2^389."""
    return np.array([[1.0, 1.3 * 2.0 ** -600, 0.0],
                     [0.0, 2.0 ** -390, 1.0],
                     [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("a", [
    pytest.param([[-2.0 + 1j]], id="n=1"),
    pytest.param(random_triangular(np.random.default_rng(1), 12),
                 id="triangular"),
    pytest.param(scaled_nilpotent(20, 20, 10.0), id="Nx10-20"),
    pytest.param(scaled_nilpotent(30, 30, 1e4), id="Nx1e4-30"),
    # integer entries: norms and their ratios land exactly on zgebal's
    # thresholds
    pytest.param(np.triu(np.ones((6, 6))) + np.diag([1.0, -1, 2, -2, 3, 1]),
                 id="ones"),
    pytest.param([[1.0, 4.0, 4.0, 4.0], [0, 1, 0, 0], [0, 0, 1, 0],
                  [0, 0, 0, -1]], id="ties"),
    # past zgebal's bounds on a norm (2^969) and a scale (2^970): its
    # bounds on F SCALE(i) below, SCALE(i) above, R in the first loop and
    # CA in the second act
    pytest.param(scaled_nilpotent(8, 8, 1e300), id="Nx1e300-8"),
    pytest.param(scaled_nilpotent(12, 12, 1e-300), id="Nx1e-300-12"),
    pytest.param(scaled_nilpotent(12, 12, 1e200), id="Nx1e200-12"),
    pytest.param(scaled_nilpotent(0, 4, 1e200), id="Nx1e200-4"),
    pytest.param(scaled_nilpotent(0, 3, 1e250), id="Nx1e250-3"),
    pytest.param([[5e-324, 2.0 ** -950], [0.0, 1.0]], id="row-norm-floor"),
    pytest.param(izamax_column(), id="izamax"),
    pytest.param(random_triangular(np.random.default_rng(2), 20)
                 * 10.0 ** np.linspace(-150, 150, 20)
                 / 10.0 ** np.linspace(-150, 150, 20)[:, None],
                 id="graded-1e150"),
    # a diagonal entry underflows in zgebal's row scaling
    pytest.param([[5e-324, 1.0], [0.0, -3e-320]], id="subnormal"),
    pytest.param([[-1e-305, 1.0], [0.0, 2e-305]], id="tiny"),
    pytest.param([[0.0, 1.0], [0.0, 1.0]], id="zero-column"),
    # a part below 2^-511, whose square loses bits, where the balance moves
    pytest.param(tiny_part(), id="tiny-part"),
])
def test_exponents_are_zgebals(a):
    # whole sweeps where they run, and LAPACK beyond them, give zgebal's
    # scales bit for bit
    e = balance_exponents(a)
    assert e.dtype == np.intc
    assert np.array_equal(np.ldexp(1.0, e), gebal_scales(a))


def test_sweeps_leave_scales_past_their_domain_to_lapack():
    # |t_ij| <= 2^90, but the scales reach 2^518, past EXPONENT_RANGE
    a = scaled_nilpotent(12, 12, 2.0 ** 90).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _sweeps(a) is None
    assert np.array_equal(np.ldexp(1.0, balance_exponents(a)),
                          gebal_scales(a))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 31 - 1),
       st.floats(0.0, 80.0))
def test_exponents_are_zgebals_on_graded_entries(n, seed, spread):
    # entries 2^k times Gaussian, k normal with deviation up to 80: the
    # sweeps' domain, its edge and beyond it
    rng = np.random.default_rng(seed)
    k = rng.normal(0.0, spread, (n, n)).round().astype(int)
    a = random_triangular(rng, n) * np.ldexp(1.0, k)
    assert np.array_equal(np.ldexp(1.0, balance_exponents(a)),
                          gebal_scales(a))


def _record_lapack(monkeypatch) -> list:
    """Record the name and keywords of every routine asked of LAPACK."""
    asked = []
    lapack = greenbound.schur.lapack

    def lapack_logged(name, a):
        func = lapack(name, a)

        def logged(*args, **kwargs):
            asked.append((name, kwargs))
            return func(*args, **kwargs)
        return logged

    monkeypatch.setattr(greenbound.schur, "lapack", lapack_logged)
    return asked


@pytest.mark.parametrize("a", [
    pytest.param(scaled_nilpotent(8, 8, 1e300), id="Nx1e300-8"),
    pytest.param(random_triangular(np.random.default_rng(2), 20)
                 * 10.0 ** np.linspace(-150, 150, 20)
                 / 10.0 ** np.linspace(-150, 150, 20)[:, None],
                 id="graded-1e150"),
])
def test_lapack_balances_off_the_sweeps_domain(monkeypatch, a):
    asked = _record_lapack(monkeypatch)
    balance_exponents(a)
    assert asked == [("gebal", {"scale": 1, "permute": 0})]


@pytest.mark.parametrize("a", [
    *(pytest.param(random_triangular(np.random.default_rng(n), n),
                   id=f"triangular-{n}") for n in (8, 20, 50, 80)),
    pytest.param(scaled_nilpotent(10, 30, 10.0), id="Nx10-30"),
    pytest.param(random_triangular(np.random.default_rng(3), 20, gap=1e-3),
                 id="near-axis"),
    pytest.param(schur_decompose(random_dense(np.random.default_rng(4), 30),
                                 vectors=False).t, id="schur-of-dense"),
])
def test_sweeps_ask_lapack_for_nothing_in_their_domain(monkeypatch, a):
    asked = _record_lapack(monkeypatch)
    e = balance_exponents(a)
    assert asked == []
    assert np.array_equal(np.ldexp(1.0, e), gebal_scales(a))
