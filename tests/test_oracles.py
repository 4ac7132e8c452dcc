import math

import numpy as np
import pytest

from greenbound import (
    ConvergenceFailure,
    DomainError,
    SingularResolvent,
    conv_power_closed,
    conv_power_numeric,
    green_contour,
    green_function,
    perturbation_residual,
)
from greenbound.oracles import (contour_for, conv_power_grid, default_conv_quad,
                                green_parlett)

from conftest import random_triangular


def test_conv_numeric_k1_is_exact():
    assert conv_power_numeric(1, 0.7, 2.0, 1.0) == math.exp(-1.4)
    assert conv_power_numeric(1, -0.5, 2.0, 1.0) == math.exp(-0.5)


def test_conv_numeric_matches_analytic_self_convolution():
    # h * h for gamma_minus = gamma_plus = 1 is (1 + |t|) e^{-|t|}
    got = conv_power_numeric(2, 1.0, 1.0, 1.0)
    assert got == pytest.approx(2.0 * math.exp(-1), abs=1e-7)


def test_conv_numeric_symmetry():
    quad = default_conv_quad(0.5, 0.5, 4.0)
    grid = conv_power_grid(3, 0.5, 0.5, quad)
    for t in (0.4, 1.7, 3.2):
        a = conv_power_numeric(3, t, 0.5, 0.5, _grid=grid)
        b = conv_power_numeric(3, -t, 0.5, 0.5, _grid=grid)
        assert a == pytest.approx(b, rel=1e-9)


def test_conv_numeric_vs_closed_form():
    for gamma in (0.5, 1.0, 2.0):
        gm = gp = gamma / 2.0
        quad = default_conv_quad(gm, gp, 8.0)
        for k in range(2, 7):
            grid = conv_power_grid(k, gm, gp, quad)
            for t in np.linspace(-8, 8, 17):
                if t == 0:
                    continue
                closed = conv_power_closed(k, float(t), gm, gp)
                numeric = conv_power_numeric(k, float(t), gm, gp, _grid=grid)
                assert numeric == pytest.approx(closed, rel=1e-6)


def test_contour_single_pole():
    g = green_contour(np.diag([-1.0]), 1.0, contour_for(np.diag([-1.0]), 1.0, 20000))
    assert abs(g[0, 0] - math.exp(-1)) < 1e-9


def test_contour_negative_time_branch():
    a = np.diag([1.0])
    g = green_contour(a, -1.0, contour_for(a, -1.0, 20000))
    assert abs(g[0, 0] + math.exp(-1)) < 1e-9


def test_contour_block_triangular():
    a = np.array([[-1.0, 1.0], [0.0, 2.0]])
    g = green_contour(a, 1.0, contour_for(a, 1.0, 4000))
    expected = np.array([[math.exp(-1), -math.exp(-1) / 3], [0.0, 0.0]])
    assert np.abs(g - expected).max() < 1e-8


def test_contour_vanishing_side():
    a = np.diag([-1.0, -2.0])
    assert not green_contour(a, -1.0).any()


def test_contour_convergence_rate():
    a = np.array([[-1.0, 1.0], [0.0, 2.0]])
    exact = green_function(a, 1.0)
    err = {}
    for nodes in (400, 800):
        g = green_contour(a, 1.0, contour_for(a, 1.0, nodes))
        err[nodes] = np.abs(g - exact).max()
    assert err[400] / err[800] >= 3.9


def test_contour_matches_projector_form(rng):
    for _ in range(6):
        n = int(rng.integers(2, 6))
        b = random_triangular(rng, n)
        for t in (-1.3, 0.4, 2.5):
            exact = green_function(b, t)
            approx = green_contour(b, t, contour_for(b, t, 20000))
            assert np.abs(exact - approx).max() < 1e-8


@pytest.mark.parametrize("nodes", [400, 4000])
@pytest.mark.parametrize("gamma", [2e-2, 2e-3, 2e-4])
def test_contour_raises_on_its_error_estimate(monkeypatch, gamma, nodes):
    # eigenvalues -gamma/2 and gamma/2 next to the axis: the rectangle's
    # corners cost too many nodes, and at gamma = 2e-4, 400 nodes per edge
    # returned G with relative error 5.7
    a = np.array([[-gamma / 2, 1, .3], [0, gamma / 2, .5], [0, 0, -2]])
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda x: calls.append(1) or inv(x))
    with pytest.raises(ConvergenceFailure, match="contour error estimate"):
        green_contour(a, 1.0, contour_for(a, 1.0, nodes))
    assert len(calls) == 1


def test_contour_rule_weights():
    nodes, weights = contour_for(np.diag([-1.0, 2.0]), 1.0, 4)
    assert nodes.shape == (20,) and weights.shape == (2, 20)
    # each edge's trapezoid rule on all nodes and on every other node
    edge = weights[:, :5] / weights[0, 1]
    assert edge.tolist() == [[.5, 1, 1, 1, .5], [1, 0, 2, 0, 1]]
    # both rules integrate dlambda around the closed rectangle to 0
    assert abs(weights.sum(axis=1)).max() < 1e-15
    with pytest.raises(ValueError):
        contour_for(np.diag([-1.0]), 1.0, 401)


@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda a: green_contour(a, 0.0), id="green_contour"),
    pytest.param(lambda a: perturbation_residual(a, a, 0.0),
                 id="perturbation_residual"),
])
def test_oracles_reject_t_zero(evaluate):
    with pytest.raises(ValueError, match="t must be nonzero"):
        evaluate(np.diag([-1.0, 2.0]))


def test_conv_power_grid_rejects_power_zero():
    with pytest.raises(ValueError, match="must be >= 1"):
        conv_power_grid(0, 1.0, 1.0, 5.0)


def test_contour_through_an_eigenvalue():
    a = np.diag([-1.0, 2.0])
    nodes, weights = contour_for(a, 1.0, 4)
    nodes[1] = -1.0
    with pytest.raises(SingularResolvent):
        green_contour(a, 1.0, (nodes, weights))


def test_perturbation_identity_cases(rng):
    assert perturbation_residual(np.diag([-1.0]), np.diag([-1.0]), 0.5) < 1e-12
    # scalar case with a hand-checkable integral
    assert perturbation_residual(np.diag([-1.0]), np.diag([-2.0]), 1.0) < 1e-6
    for _ in range(5):
        n = 3
        a = random_triangular(rng, n, gap=0.5)
        b = a + 0.5 * np.triu(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1
        )
        assert perturbation_residual(a, b, 0.7) < 1e-5
        assert perturbation_residual(a, b, -0.7) < 1e-5


@pytest.mark.parametrize("w", [100.0, 1000.0])
def test_perturbation_identity_oscillating(w):
    # fixed 16-node unit panels reported this true identity as failing by
    # 7.38 (w = 100) and 137 (w = 1000)
    a, b = np.array([[-1 + 1j * w]]), np.array([[-1.5 - 1j * w]])
    assert perturbation_residual(a, b, 1.0) <= 1e-12


def test_perturbation_identity_raises_where_quadrature_fails():
    # the panel rule returned a residual of 478 here
    a, b = np.array([[-1 + 1e4j]]), np.array([[-1.5 - 1e4j]])
    with pytest.raises(ConvergenceFailure, match="perturbation integral"):
        perturbation_residual(a, b, 1.0)


@pytest.mark.parametrize("t, expected", [
    # G(t) = e^{At} P- and -e^{At} P+ with P- = [[1, -1/3], [0, 0]]
    pytest.param(1.0, [[math.exp(-1), -math.exp(-1) / 3], [0, 0]], id="t>0"),
    pytest.param(-1.0, [[0, -math.exp(-2) / 3], [0, -math.exp(-2)]],
                 id="t<0"),
])
def test_parlett_block_triangular(t, expected):
    g = green_parlett(np.array([[-1.0, 1.0], [0.0, 2.0]]), t)
    assert np.allclose(g, expected, rtol=1e-15, atol=0)


def test_parlett_rejects_a_repeated_diagonal():
    # the recurrence divided by t_jj - t_ii = 0
    with pytest.raises(DomainError):
        green_parlett([[-1, 1], [0, -1]], 0.4)
