import math
import re

import numpy as np
import pytest

from greenbound import (
    FloatOverflow,
    GreenKernel,
    SpectrumOnAxis,
    UndefinedAtZero,
    bounded_solution,
    green_function,
    induced_norm,
    matrix_exp,
    spectral_gaps,
    spectral_projectors,
)

from conftest import random_triangular, random_unitary, scaled_nilpotent


def test_spectral_gaps_two_sided():
    s = spectral_gaps(np.diag([-1.0, 2.0]))
    assert (s.gamma_minus, s.gamma_plus, s.gamma) == (1.0, 2.0, 3.0)
    assert (s.m, s.l, s.alpha) == (1, 1, 2.0)


def test_spectral_gaps_one_sided():
    s = spectral_gaps(np.diag([-3.0, -1.0]))
    assert s.gamma_minus == 1.0
    assert s.gamma_plus == math.inf
    assert s.l == 0


def test_spectral_gaps_axis_eigenvalue():
    with pytest.raises(SpectrumOnAxis):
        spectral_gaps(np.array([[5j]]))
    with pytest.raises(SpectrumOnAxis):
        spectral_gaps(np.diag([1.0, 1e-15]))


def test_projectors_diagonal():
    pm, pp = spectral_projectors(np.diag([-1.0, 2.0]))
    assert np.allclose(pm, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(pp, np.diag([0.0, 1.0]), atol=1e-12)


def test_projector_block_triangular_sylvester():
    # For [[a, c], [0, d]] with Re a < 0 < Re d the left projector is
    # [[1, y], [0, 0]] with a y - y d = c, i.e. y = c / (a - d).
    a = np.array([[-1.0, 1.0], [0.0, 2.0]])
    pm, _ = spectral_projectors(a)
    assert np.allclose(pm, [[1.0, -1.0 / 3.0], [0.0, 0.0]], atol=1e-12)


def test_projectors_one_sided():
    a = random_triangular(np.random.default_rng(5), 4)
    a = a - np.diag(np.abs(np.diag(a).real) * 2)  # push spectrum left
    k = GreenKernel(a)
    assert np.allclose(k.p_minus, np.eye(4), atol=1e-10)
    assert np.abs(k.p_plus).max() <= 1e-10


def test_projector_algebra(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        b = random_triangular(rng, n)
        pm, pp = spectral_projectors(b)
        scale = max(1.0, np.abs(b).max())
        assert np.abs(pm @ pm - pm).max() < 1e-9
        assert np.abs(pp @ pp - pp).max() < 1e-9
        assert np.abs(pm @ pp).max() < 1e-9
        assert np.abs(pm + pp - np.eye(n)).max() < 1e-10
        assert np.abs(pm @ b - b @ pm).max() < 1e-9 * scale


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), rtol=0, atol=1e-15)
    lam = np.array([0.3 - 1j, -2.0, 1.5j + 0.1])
    assert np.allclose(matrix_exp(np.diag(lam)), np.diag(np.exp(lam)), rtol=1e-13)


def test_matrix_exp_parlett_2x2():
    # triangular f(A): off-diagonal entry is c (f(d2) - f(d1)) / (d2 - d1)
    e = matrix_exp(np.array([[-1.0, 1.0], [0.0, 2.0]]))
    expected = [[math.exp(-1), (math.exp(2) - math.exp(-1)) / 3],
                [0.0, math.exp(2)]]
    assert np.allclose(e, expected, rtol=1e-13)


def test_matrix_exp_large_norm():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) * 50.0
    e1 = matrix_exp(a)
    e2 = matrix_exp(a / 8.0)
    for _ in range(3):
        e2 = e2 @ e2
    assert np.abs(e1 - e2).max() <= 1e-9 * np.abs(e1).max()


def test_green_scalar_branches():
    assert green_function(np.diag([-1.0]), 1.0)[0, 0] == pytest.approx(math.exp(-1))
    assert green_function(np.diag([1.0]), -1.0)[0, 0] == pytest.approx(-math.exp(-1))


def test_green_block_triangular():
    g = green_function(np.array([[-1.0, 1.0], [0.0, 2.0]]), 1.0)
    expected = [[math.exp(-1), -math.exp(-1) / 3], [0.0, 0.0]]
    assert np.allclose(g, expected, atol=1e-12)


def test_green_undefined_at_zero():
    with pytest.raises(UndefinedAtZero):
        green_function(np.diag([-1.0]), 0.0)


def test_green_semigroup(rng):
    b = random_triangular(rng, 5)
    k = GreenKernel(b)
    for s, t in [(0.4, 0.9), (1.3, 0.2)]:
        lhs = k.at(s + t)
        rhs = k.at(s) @ matrix_exp(b * t)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_kernel_returns_fresh_arrays(rng):
    b = random_triangular(rng, 5)
    k = GreenKernel(b)
    g = k.at(1.0)
    g *= 0.0
    assert np.array_equal(k.at(1.0), GreenKernel(b).at(1.0))


def test_along_restores_error_settings_while_suspended():
    # the caller's loop body runs between two yields under its own settings
    before = np.geterr()
    kernel = GreenKernel(np.array([[-1.0, 1.0], [0.0, 2.0]]))
    steps = kernel.along([1.0, 2.0])
    next(steps)
    assert np.geterr() == before
    next(steps)
    assert np.geterr() == before


def test_green_unitary_invariance(rng):
    b = random_triangular(rng, 5)
    q = random_unitary(rng, 5)
    a = q @ b @ q.conj().T
    for t in (-1.2, 0.3, 2.0):
        na = induced_norm(green_function(a, t), 2)
        nb = induced_norm(green_function(b, t), 2)
        assert na == pytest.approx(nb, abs=1e-9, rel=1e-9)


def test_green_decay(rng):
    b = random_triangular(rng, 5)
    k = GreenKernel(b)
    gm = k.split.gamma_minus
    for t in (5.0, 10.0, 20.0):
        assert induced_norm(k.at(t), "inf") <= 10.0 * math.exp(-gm * t / 2.0)


def test_bounded_solution_zero_forcing():
    x = bounded_solution(np.diag([-1.0, 2.0]), lambda t: np.zeros(2), 0.7)
    assert np.abs(x).max() == 0.0


def test_bounded_solution_constant_forcing():
    x = bounded_solution(np.diag([-1.0]), lambda t: np.ones(1), 0.3)
    assert x[0] == pytest.approx(1.0, rel=1e-10)
    x = bounded_solution(np.diag([1.0]), lambda t: np.ones(1), 0.3)
    assert x[0] == pytest.approx(-1.0, rel=1e-10)


def test_bounded_solution_residual():
    a = np.array([[-0.8, 0.5, 0.0],
                  [0.0, 1.1, -0.3],
                  [0.0, 0.0, -1.5]])

    def f(t):
        return np.array([math.sin(t), math.cos(2 * t), math.sin(3 * t)])

    t0, dh = 0.4, 1e-4
    xm = bounded_solution(a, f, t0 - dh)
    x0 = bounded_solution(a, f, t0)
    xp = bounded_solution(a, f, t0 + dh)
    xdot = (xp - xm) / (2 * dh)
    residual = xdot - a @ x0 - f(t0)
    assert np.abs(residual).max() < 1e-4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("evaluate, message", [
    pytest.param(lambda a: green_function(a, 0.1),
                 "G(t) overflows at t=0.1", id="green_function"),
    pytest.param(lambda a: bounded_solution(a, lambda s: np.ones(5), 0.1),
                 "bounded solution overflows at t=0.1", id="bounded_solution"),
])
def test_library_overflow_is_a_typed_error(evaluate, message):
    # the CLI's FloatOverflow input: the library returned inf/NaN with
    # numpy overflow warnings where the CLI printed one error line
    with pytest.raises(FloatOverflow, match=f"^{re.escape(message)}$"):
        evaluate(scaled_nilpotent(1, 5, 1e50))
