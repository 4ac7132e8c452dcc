import math
import re

import numpy as np
import pytest
import scipy.linalg

import greenbound.green
from greenbound import (
    ConvergenceFailure,
    DomainError,
    FloatOverflow,
    GreenKernel,
    SingularIteration,
    SpectrumOnAxis,
    UndefinedAtZero,
    bounded_solution,
    green_function,
    induced_norm,
    matrix_exp,
    matrix_sign,
    spectral_gaps,
    spectral_projectors,
)
from greenbound.green import FORCING_BLOCK, GAUSS_NODES, GAUSS_X, default_quad
from greenbound.oracles import green_parlett

from conftest import (log_time_grid, random_triangular, random_unitary,
                      scaled_nilpotent)


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


def test_matrix_sign_singular_input():
    with pytest.raises(SingularIteration):
        matrix_sign(np.diag([-1.0, 0.0]))


def test_matrix_sign_iteration_budget(monkeypatch):
    monkeypatch.setattr(greenbound.green, "SIGN_MAX_ITER", 1)
    with pytest.raises(ConvergenceFailure):
        matrix_sign(np.array([[-1.0, 1.0], [0.0, 2.0]]))


def test_matrix_sign_factorises_each_iterate_once(monkeypatch):
    # one LU per step gives both |det S| and S^-1
    def refuse(*args, **kwargs):
        raise AssertionError("a second factorisation")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    a = np.array([[-1.0, 2.0, 1j], [0.0, 2.0, -1.0], [0.0, 0.0, -3.0 + 1j]])
    s = matrix_sign(a)
    assert np.abs(np.diag(s) - [-1, 1, -1]).max() < 1e-14
    assert np.abs(s @ s - np.eye(3)).max() < 1e-13
    assert np.abs(s @ a - a @ s).max() < 1e-13
    kernel = GreenKernel(a)
    assert np.abs(kernel.p_minus + kernel.p_plus - np.eye(3)).max() < 1e-13


def test_matrix_sign_where_the_inverse_of_the_iterate_overflows():
    # S^-1 has an entry of 1e400 here; (mu S)^-1 fits, and so does the sign
    # of [[a, c], [0, d]], whose corner is 2 c / (d - a)
    s = matrix_sign([[-1e-200, 1.0], [0.0, 1e-200]])
    assert np.abs(s - [[-1.0, 1e200], [0.0, 1.0]]).max() <= 1e-15 * 1e200


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_green_rejects_a_non_finite_time(t):
    # at(inf) warned in its matmul, at(nan) returned nan, and
    # green_function(nan) raised FloatOverflow
    with pytest.raises(DomainError):
        GreenKernel([[-1.0]]).at(t)
    with pytest.raises(DomainError):
        green_function([[-1.0]], t)


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


def _no_expm(*args, **kwargs):
    raise AssertionError("the kernel called a matrix exponential routine")


@pytest.mark.parametrize("a", [
    pytest.param(random_triangular(np.random.default_rng(11), 6),
                 id="triangular"),
    pytest.param(scaled_nilpotent(12, 6, 1e4), id="non-normal"),
])
def test_kernel_reads_its_table_without_expm(monkeypatch, a):
    monkeypatch.setattr(greenbound.green, "matrix_exp", _no_expm)
    monkeypatch.setattr(scipy.linalg, "expm", _no_expm)
    times = list(log_time_grid(10)) + [-1e308, 1e308]
    assert all(np.isfinite(g).all() for g in GreenKernel(a).along(times))


@pytest.mark.parametrize("t", [0.25, -0.25])
def test_taylor_sum_at_the_edge_of_its_range(t):
    # A is symmetric, so its balancing scale is all ones; norm_inf(A) = 4,
    # so B = A / 8 has norm_inf(B) = 1/2, and at |t| = 1/4 no squaring is
    # needed: e^{At} is the Taylor sum at c = 8t = ±2, where
    # |c| norm_inf(B) = 1
    a = np.array([[-1.0, 2.0, 1.0], [2.0, 2.0, 0.0], [1.0, 0.0, -3.0]])
    kernel = GreenKernel(a)
    assert (kernel.k, kernel.norm_b) == (3, 0.5)
    p = kernel.p_minus if t > 0 else kernel.p_plus
    exact = np.sign(t) * scipy.linalg.expm(a * t) @ p
    scale = induced_norm(scipy.linalg.expm(a * t), "inf") * induced_norm(p, "inf")
    assert induced_norm(kernel.at(t) - exact, "inf") <= 1e-14 * scale


# the largest entry error relative to the largest entry of G over
# t = ±0.3, ±2, ±9, against 80-digit Parlett: twice what the balanced kernel
# reads (the unbalanced one read 1.67e-10, 4.16e-10, 3.31e-13, 7.90e-12
# and 1.51e-13)
@pytest.mark.parametrize("a, rtol", [
    pytest.param(scaled_nilpotent(12, 12, 1e4), 2 * 4.30e-14, id="Nx1e4-12"),
    pytest.param(scaled_nilpotent(24, 24, 1e4), 2 * 1.78e-12, id="Nx1e4-24"),
    pytest.param(random_triangular(np.random.default_rng(40), 40),
                 2 * 1.78e-13, id="random-40"),
    pytest.param(scaled_nilpotent(50, 50, 10.0), 2 * 7.25e-13,
                 id="Nx10-50"),
    pytest.param(random_triangular(np.random.default_rng(20), 20, gap=1e-3),
                 2 * 1.51e-13, id="near-axis-20"),
])
def test_kernel_matches_parlett(a, rtol):
    kernel = GreenKernel(a)
    for t in (-9.0, -2.0, -0.3, 0.3, 2.0, 9.0):
        exact = green_parlett(a, t, dps=80)
        err = np.abs(kernel.at(t) - exact).max()
        assert err <= rtol * np.abs(exact).max(), t


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


def _left(seed, n):
    """random_triangular(default_rng(seed), n) with every eigenvalue in the
    left half-plane."""
    b = random_triangular(np.random.default_rng(seed), n)
    return b - 2.0 * np.diag(np.maximum(np.diag(b).real, 0.0))


def _dense(seed, n):
    rng = np.random.default_rng(seed)
    q = random_unitary(rng, n)
    return q @ random_triangular(rng, n) @ q.conj().T


@pytest.mark.parametrize("a", [
    pytest.param(_left(3, 6), id="one-sided-left"),
    pytest.param(-_left(4, 6), id="one-sided-right"),
    pytest.param(random_triangular(np.random.default_rng(7), 8), id="two-sided"),
    pytest.param(scaled_nilpotent(8, 6, 10.0), id="non-normal"),
    pytest.param(_dense(9, 7), id="dense"),
    # ||P-||_inf = 2.9e5: the projectors carry large cancelling entries
    pytest.param(random_triangular(np.random.default_rng(30), 30),
                 id="large-projectors"),
    # ||P-||_inf = 6.24e6: the Horner carry must not amplify the error it
    # leaves in the discarded range
    pytest.param(random_triangular(np.random.default_rng(45), 45),
                 id="larger-projectors"),
])
def test_bounded_solution_matches_closed_form(a):
    # f(s) = e^{i w s} c has the bounded solution (i w I - A)^{-1} c e^{i w t}
    n = a.shape[0]
    c = np.random.default_rng(n).normal(size=n) + 0j
    omega, t = 0.7, 0.5
    x = bounded_solution(a, lambda s: np.exp(1j * omega * s) * c, t)
    exact = np.linalg.solve(1j * omega * np.eye(n) - a, c) * np.exp(1j * omega * t)
    assert np.abs(x - exact).max() <= 1e-9 * np.abs(exact).max()


@pytest.mark.parametrize("a, sides", [
    pytest.param(np.diag([-1.0, -2.0]), 1, id="one-sided"),
    pytest.param(np.array([[-1.0, 1.0], [0.0, 2.0]]), 2, id="two-sided"),
])
def test_bounded_solution_kernel_evaluations(monkeypatch, a, sides):
    # the Horner form: the nodes of one panel plus the one-panel carry per
    # side, where one evaluation per node would take panels * GAUSS_NODES
    calls = []
    at = GreenKernel.at
    monkeypatch.setattr(GreenKernel, "at",
                        lambda self, t: calls.append(t) or at(self, t))
    bounded_solution(a, lambda s: np.ones(2), 0.3)
    panels = default_quad(GreenKernel(a).split)[1]
    assert panels > 1
    assert len(calls) <= sides * (GAUSS_NODES + 1)
    assert 0.0 not in calls


@pytest.mark.parametrize("a, sides", [
    pytest.param(np.diag([-1.0, -2.0]), 1, id="one-sided"),
    pytest.param(np.array([[-1.0, 1.0], [0.0, 2.0]]), 2, id="two-sided"),
])
def test_bounded_solution_calls_f_once_per_node(a, sides):
    # at t = 0 the forcing is asked for at exactly the negated nodes
    calls = []
    bounded_solution(a, lambda s: calls.append(-s) or np.ones(2), 0.0)
    radius, panels = default_quad(GreenKernel(a).split)
    h = radius / panels
    delta = 0.5 * h * (1.0 + GAUSS_X)
    nodes = np.concatenate([delta + j * h for j in range(panels)])
    assert len(calls) == sides * panels * GAUSS_NODES
    assert sorted(calls) == sorted(np.concatenate([nodes, -nodes][:sides]))


def test_bounded_solution_across_forcing_blocks():
    # gap 0.05 lays out 553 panels on the one side, three blocks of f at
    # n = 16, the last one partial
    n, t = 16, 0.37
    a = _left(16, n)
    a[0, 0] = -0.05 + 1j * a[0, 0].imag
    radius, panels = default_quad(GreenKernel(a).split)
    per_block = FORCING_BLOCK // (GAUSS_NODES * n)
    assert panels > 2 * per_block and panels % per_block
    c = np.random.default_rng(n).normal(size=n) + 0j
    omega = 0.7
    calls = []
    x = bounded_solution(
        a, lambda s: calls.append(s) or np.exp(1j * omega * s) * c, t)
    exact = np.linalg.solve(1j * omega * np.eye(n) - a, c) * np.exp(1j * omega * t)
    assert np.abs(x - exact).max() <= 1e-9 * np.abs(exact).max()
    # one call per node, at exactly (t - delta_i) - j h
    h = radius / panels
    delta = 0.5 * h * (1.0 + GAUSS_X)
    nodes = [(t - d) - j * h for j in range(panels) for d in delta]
    assert sorted(calls) == sorted(nodes)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_bounded_solution_rejects_a_non_finite_time(monkeypatch, t):
    # x(nan) and x(inf) read [0.5, -0.5] here, f evaluated at nan or inf
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel built")

    monkeypatch.setattr(greenbound.green, "GreenKernel", no_kernel)
    calls = []
    with pytest.raises(DomainError, match="t must be finite"):
        bounded_solution([[-1.0, 1.0], [0.0, 2.0]],
                         lambda s: calls.append(s) or np.ones(2), t)
    assert calls == []


@pytest.mark.parametrize("n, value", [
    pytest.param(2, lambda s: np.ones(3), id="n+1-entries"),
    pytest.param(2, lambda s: np.ones((2, 1)), id="column"),
    pytest.param(1, lambda s: 1.0, id="scalar"),
])
def test_bounded_solution_rejects_misshapen_forcing(n, value):
    with pytest.raises(ValueError):
        bounded_solution(-np.eye(n), value, 0.3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("evaluate, message", [
    pytest.param(lambda a: green_function(a, 0.1),
                 "G(t) overflows at t=0.1", id="green_function"),
    pytest.param(lambda a: bounded_solution(a, lambda s: np.ones(5), 0.1),
                 "bounded solution overflows at t=0.1", id="bounded_solution"),
])
def test_library_overflow_is_a_typed_error(evaluate, message):
    # the CLI's FloatOverflow input: the library returned inf/NaN with
    # numpy overflow warnings where the CLI printed one error line;
    # 160-digit Parlett puts max|G(0.1)| at 2.2e317
    with pytest.raises(FloatOverflow, match=f"^{re.escape(message)}$"):
        evaluate(scaled_nilpotent(1, 5, 1e80))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sign_iteration_overflow_is_a_typed_error():
    # unbalanced, the Newton iterates of N x 1e200 leave the float range
    with pytest.raises(FloatOverflow, match="^matrix sign iterate overflows$"):
        matrix_sign(scaled_nilpotent(0, 3, 1e200))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_where_the_unbalanced_kernel_overflowed():
    # the squaring count followed N's 1e50 entries and G(0.1) came out
    # non-finite; 120-digit Parlett gives max|G| = 2.2048e197 there
    a = scaled_nilpotent(1, 5, 1e50)
    kernel = GreenKernel(a)
    for t in (0.1, 1.0, -0.1):
        exact = green_parlett(a, t, dps=120)
        err = np.abs(next(kernel.along([t])) - exact).max()
        assert err <= 1e-12 * np.abs(exact).max(), t
