import importlib.util
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import greenbound.green
from greenbound import (
    DomainError,
    FloatOverflow,
    GreenKernel,
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
from greenbound.cli import make_grid
from greenbound.green import (FORCING_BLOCK, GAUSS_NODES, GAUSS_X,
                              TAYLOR_DEGREE, TAYLOR_FACTORIALS, TAYLOR_POWERS,
                              TAYLOR_RANGE, default_quad, kernel_parts)
from greenbound.matcore import ldexp
from greenbound.oracles import green_parlett
from greenbound.schur import schur_decompose

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


# each sign test runs on a triangular input, which takes the direct sign,
# and on one that is not triangular, which goes through its Schur form
# first: mostly the same matrix conjugated exactly by H = [[1, 1], [1, -1]]
# (H^-1 = H / 2) or by the reversal permutation J (J A J is lower
# triangular)
H2 = np.array([[1.0, 1.0], [1.0, -1.0]])


def _flip(a):
    return np.asarray(a)[::-1, ::-1]


def _both_paths(a, dense):
    assert not np.tril(a, -1).any() and np.tril(dense, -1).any()
    return a, dense


def test_matrix_sign_singular_input():
    # an eigenvalue with real part 0 has no sign.  The Schur form of the
    # Hadamard conjugate puts the 0 at -2.5e-32, within the QR iteration's
    # backward error of the axis
    d = np.diag([-1.0, 0.0])
    for a in _both_paths(d, H2 @ d @ H2 / 2):
        with pytest.raises(SpectrumOnAxis):
            matrix_sign(a)
        with pytest.raises(SpectrumOnAxis):
            GreenKernel(a)


@pytest.mark.filterwarnings("error")
def test_sign_where_scaling_would_flush_the_gap():
    # scaled to norm_inf below 1, T's +-1e-300 became +-0 and the gap
    # between them 0j, and 0j / 0j raised ZeroDivisionError.  The sign of
    # [[-e, e], [0, e]] is [[-1, 1], [0, 1]] for every e > 0
    s = matrix_sign(np.diag([-1e-300, 1e-300, 1e30]))
    assert np.array_equal(s, np.diag([-1.0, 1.0, 1.0]))
    a = np.array([[-1e-300, 1e-300, 0.0], [0.0, 1e-300, 1.0],
                  [0.0, 0.0, 1e30]])
    s = matrix_sign(a)
    assert np.array_equal(s[:2, :2], [[-1.0, 1.0], [0.0, 1.0]])
    assert np.abs(s @ s - np.eye(3)).max() <= 1e-15
    # next to 1e300 the gap of 2e-300 is below the scaled T's range: a
    # typed error, where the quotient was an untyped ZeroDivisionError
    with pytest.raises(FloatOverflow, match="gap t_ii - t_jj underflows"):
        matrix_sign(np.diag([-1e-300, 1e-300, 1e300]))


def test_matrix_sign_factorises_each_iterate_once(monkeypatch):
    # the sign is direct: it takes neither |det S| nor an inverse
    def refuse(*args, **kwargs):
        raise AssertionError("a factorisation")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    a = np.array([[-1.0, 2.0, 1j], [0.0, 2.0, -1.0], [0.0, 0.0, -3.0 + 1j]])
    for a in _both_paths(a, _flip(a)):
        s = matrix_sign(a)
        assert np.abs(np.diag(s) - [-1, 1, -1]).max() < 1e-14
        assert np.abs(s @ s - np.eye(3)).max() < 1e-13
        assert np.abs(s @ a - a @ s).max() < 1e-13
        kernel = GreenKernel(a)
        assert np.abs(kernel.p_minus + kernel.p_plus - np.eye(3)).max() < 1e-13


def test_matrix_sign_where_the_inverse_of_the_iterate_overflows():
    # S^-1 has an entry of 1e400 here, and the sign of [[a, c], [0, d]],
    # whose corner is 2 c / (d - a), fits
    s = matrix_sign([[-1e-200, 1.0], [0.0, 1e-200]])
    assert np.abs(s - [[-1.0, 1e200], [0.0, 1.0]]).max() <= 1e-15 * 1e200


def test_triangular_sign_takes_no_lu(monkeypatch):
    # the sign of an upper triangular matrix asks LAPACK for nothing: no
    # LU (getrf, getri) and no triangular inverse (trtri)
    get = scipy.linalg.lapack.get_lapack_funcs
    asked = []

    def record(names, arrays=()):
        asked.extend(names)
        return get(names, arrays)

    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", record)
    a = random_triangular(np.random.default_rng(6), 8)
    s = matrix_sign(a)
    assert asked == []
    assert not np.tril(s, -1).any()
    assert np.abs(s @ s - np.eye(8)).max() < 1e-12
    # a negligible subdiagonal sends the same matrix through Schur alone:
    # gees, and gebal's permutation for the axis check on its T
    dense = matrix_sign(a + 1e-300 * np.eye(8, k=-1))
    assert set(asked) == {"gees", "gebal"}
    assert np.abs(dense - s).max() < 1e-12


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
    # sign(T) = +-I exactly when the spectrum is on one side, so P-/P+ are
    # exactly I and 0, however large N is
    a = random_triangular(np.random.default_rng(5), 4)
    a = a - np.diag(np.abs(np.diag(a).real) * 2)  # push spectrum left
    strict = np.triu(a, 1)
    for b, left in ((a, True), (-a, False), (a + 1e50 * strict, True)):
        k = GreenKernel(b)
        p_side, p_empty = ((k.p_minus, k.p_plus) if left
                           else (k.p_plus, k.p_minus))
        assert np.array_equal(p_side, np.eye(4))
        assert not p_empty.any()


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


# a grid of times is 1-D: on a 2-D or 0-d grid block and blocks ended in
# IndexError, and at n = 128 blocks yielded G at the rows' first times
@pytest.mark.parametrize("ts", [[[1.0, 2.0]], 1.0], ids=["2-d", "0-d"])
@pytest.mark.parametrize("read", [
    pytest.param(lambda k, ts: k.block(ts), id="block"),
    pytest.param(lambda k, ts: next(k.blocks(ts)), id="blocks"),
])
def test_kernel_reads_a_1d_grid(read, ts):
    with pytest.raises(DomainError, match="1-D grid"):
        read(GreenKernel([[-1.0, 1.0], [0.0, 2.0]]), ts)


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
    assert all(np.isfinite(g).all()
               for _, gs in GreenKernel(a).blocks(times) for g in gs)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["t>0", "t<0"])
def test_taylor_sum_at_the_edge_of_its_range(sign):
    # A's balancing scale is all ones; norm_inf(A) = 3, so B = A / 4, and
    # alpha = max(norm_inf(B^6)^(1/6), norm_inf(B^7)^(1/7)) (plus rounding
    # terms) is 0.3834, below norm_inf(B) = 3/4 and the 0.4330 of B^4 and
    # B^5.  At |t| = theta / (4 alpha), theta = TAYLOR_RANGE, no squaring
    # is needed: e^{At} is the Taylor sum at c = 4t, where |c| alpha = theta
    # and |c| norm_inf(B) = 5.87; one ulp further takes a squaring
    a = np.array([[-1.0, 2.0, 0.0], [0.0, 1.0, 2.0], [0.0, 0.0, -1.0]])
    kernel = GreenKernel(a)
    assert kernel.k == 2 and 0.383 < kernel.alpha < 0.384
    t = sign * TAYLOR_RANGE / (4 * kernel.alpha)
    assert kernel.squarings([t, np.nextafter(t, 2 * t)]).tolist() == [0, 1]
    p = kernel.p_minus if t > 0 else kernel.p_plus
    exact = np.sign(t) * scipy.linalg.expm(a * t) @ p
    scale = induced_norm(scipy.linalg.expm(a * t), "inf") * induced_norm(p, "inf")
    assert induced_norm(kernel.at(t) - exact, "inf") <= 1e-14 * scale


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_input(monkeypatch, n, kind):
    """The benchmark's triangular input of this kind, or the Schur T of its
    dense one, drawn first from default_rng(2009)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # inputs imports reference
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # for dataclasses
    spec.loader.exec_module(inputs)
    rng = np.random.default_rng(2009)
    if kind == "dense":
        return schur_decompose(inputs.dense(rng, n), vectors=False).t
    return inputs.triangular(rng, n, kind)


# 10^-150 .. 10^150: D^-1 T D with D = diag(GRADE_150) has entries up to
# 1e300 above the diagonal
GRADE_150 = 10.0 ** np.linspace(-150, 150, 12)


def _table_powers(kernel):
    """The table's rows as n x n powers B^TAYLOR_POWERS[i]: the table keeps
    each upper triangle, row by row, and the strict lower one is 0."""
    n = kernel.a.shape[0]
    assert kernel.table.shape == (len(TAYLOR_POWERS), n * (n + 1) // 2)
    powers = np.zeros((len(TAYLOR_POWERS), n, n), dtype=complex)
    rows, cols = np.triu_indices(n)
    powers[:, rows, cols] = kernel.table
    return powers


# totals over the grid under norm_inf(B) -> under alpha with the degree-18
# table -> under the degree-30 table: 140 -> 94 -> 46, 184 -> 132 -> 70,
# 156 -> 94 -> 44, 236 -> 148 -> 80, 170 -> 102 -> 50, 238 -> 150 -> 80 and
# 136 -> 70 -> 28
@pytest.mark.parametrize("n, kind", [
    (n, kind) for n in (20, 50, 80) for kind in ("two-sided", "non-normal")
] + [(50, "dense")])
def test_squarings_fall_below_the_norm_rule(monkeypatch, n, kind):
    kernel = GreenKernel(_benchmark_input(monkeypatch, n, kind))
    grid = make_grid(-10.0, 10.0, 40)  # the benchmark's CLI grid
    mt, et = np.frexp(np.abs(grid))

    def least_squarings(alpha):
        # the least s with |t| 2^(k-s) alpha <= 1
        m, e = np.frexp(alpha * mt)
        return np.maximum(0, e + kernel.k + et - (m == 0.5))

    powers = _table_powers(kernel)
    norm_b = induced_norm(powers[TAYLOR_POWERS == 1][0], "inf")
    before = least_squarings(norm_b)
    # the degree-18 rule: alpha from B^4 and B^5 with the floor j n 2^-50
    # and the Taylor range 1
    degree_18 = least_squarings(min(norm_b, max(
        (induced_norm(powers[TAYLOR_POWERS == j][0], "inf")
         + j * n * 2.0 ** -50) ** (1 / j) for j in (4, 5))))
    after = kernel.squarings(grid)
    assert (after <= before).all()
    assert after.sum() < before.sum()
    assert (after <= degree_18).all()
    assert after.sum() < degree_18.sum()


def test_kernel_set_up_holds_one_power_at_a_time():
    # the table is filled a power at a time, through two n x n buffers; a
    # (31, n, n) stack of the powers alone would pass this bound
    n = 120
    a = random_triangular(np.random.default_rng(5), n)
    tracemalloc.start()
    try:
        kernel = GreenKernel(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kernel.table.nbytes + 12 * n * n * 16


def _exact_norm_of_power(b, j):
    """norm_inf(B^j) in exact rational arithmetic, B real."""
    b = [[Fraction(float(x)) for x in row] for row in b]
    p = b
    for _ in range(j - 1):
        p = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
             for row in p]
    return max(sum(abs(x) for x in row) for row in p)


def test_alpha_bounds_tiny_powers_at_the_edge_of_balancing():
    # gebal's scales stop near 2^-970, so the balanced chain keeps
    # norm_inf(B) = 0.82 while its eigenvalues are 1e-300 2^967: the
    # computed B^6 and B^7 read 6.2e-35 and 2.1e-43, alpha = 1.99e-6 is
    # norm_inf(B^6)^(1/6) up to its rounding term, and G reaches 7.7e298.
    # The error read 4.5e-8 under the norm_inf(B) rule and 4.5e-11 with
    # alpha = 1.68e-3 from the rounding floor j n 2^-50; it reads 1.1e-13
    d = 1e-300
    a = np.diag([-d, 2 * d, -3 * d]) + 1e-150 * np.eye(3, k=1)
    kernel = GreenKernel(a)
    powers = _table_powers(kernel)
    assert not powers.imag.any()
    assert np.abs(powers[TAYLOR_POWERS >= 4]).max() < 1e-17
    exact = {j: _exact_norm_of_power(powers[-2].real, j) for j in (6, 7)}
    assert kernel.alpha == pytest.approx(float(exact[6]) ** (1 / 6), rel=1e-9)
    for j in (6, 7):
        assert Fraction(kernel.alpha) ** j >= exact[j]
    for t in (0.1 / d, 1 / d, 3 / d):
        for t in (t, -t):
            exact = green_parlett(a, t, dps=60)
            err = np.abs(kernel.at(t) - exact).max()
            assert err <= 1e-10 * np.abs(exact).max(), t


@pytest.mark.parametrize("t", [1e304, -1e304])
def test_kernel_where_the_rounding_floor_held_alpha_high(t):
    # eigenvalues -1e-305 and 2e-305: the balanced B keeps norm_inf(B) = 1/2
    # with eigenvalues near 1e-14.  The floor j n 2^-50 held alpha at 1.5e-3,
    # G took 34 squarings and erred by 7.6e-7; alpha now sits at ALPHA_MIN,
    # 9 squarings, 3.1e-14
    a = np.array([[-1e-305, 1.0], [0.0, 2e-305]])
    kernel = GreenKernel(a)
    assert kernel.squarings([t]).tolist() == [9]
    exact = green_parlett(a, t, dps=60)
    err = np.abs(kernel.at(t) - exact).max()
    assert err <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("a", [
    pytest.param(random_triangular(np.random.default_rng(7), 12),
                 id="triangular"),
    pytest.param(np.diag(2.0 ** np.arange(0, 60, 6))
                 @ np.triu(np.random.default_rng(8).normal(size=(10, 10)))
                 @ np.diag(2.0 ** -np.arange(0, 60, 6)), id="graded"),
    # 181 scale changes over 16 sweeps
    pytest.param(scaled_nilpotent(50, 50, 10.0), id="Nx10-50"),
    # scales of 2^-956 .. 2^949, near zgebal's bound 2^970 on a scale
    pytest.param(scaled_nilpotent(3, 3, 1e300), id="Nx1e300-3"),
    # entries up to 1e300, past zgebal's bound 2^969 on a norm
    pytest.param(random_triangular(np.random.default_rng(3), 12)
                 * GRADE_150 / GRADE_150[:, None], id="graded-1e150"),
])
def test_balanced_table_is_scipys_balance(a):
    # where no entry underflows, S^-1 A S from the in-house balance is
    # bitwise the matrix LAPACK's zgebal (job S) returns; the inputs are
    # triangular, since the table of a dense A is that of its Schur form.
    # zgebal is called directly: scipy.linalg.matrix_balance warns on
    # scales near 2^+-970 as it casts them
    kernel = GreenKernel(a)
    balanced = scipy.linalg.lapack.zgebal(a.astype(complex), scale=1,
                                          permute=0)[0]
    assert not np.array_equal(balanced, a)
    b = _table_powers(kernel)[-2]
    assert b.tobytes() == ldexp(balanced, -kernel.k).tobytes()


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
    # the caller's loop body runs between two yields of blocks under its
    # own settings; at n = 20 a stack holds 40 times, so 41 make two
    before = np.geterr()
    kernel = GreenKernel(random_triangular(np.random.default_rng(20), 20))
    steps = kernel.blocks(np.linspace(0.1, 4.1, 41))
    next(steps)
    assert np.geterr() == before
    next(steps)
    assert np.geterr() == before


def _one_sided(n):
    b = random_triangular(np.random.default_rng(n), n)
    np.fill_diagonal(b, -np.abs(np.diag(b).real) + 1j * np.diag(b).imag)
    return b


# the times make one block at n = 3, two at n = 20 and one per time from
# n = 128 on
@pytest.mark.parametrize("a", [
    pytest.param(random_triangular(np.random.default_rng(3), 3), id="two-3"),
    pytest.param(random_triangular(np.random.default_rng(20), 20),
                 id="two-20"),
    pytest.param(_one_sided(20), id="one-sided-20"),
    pytest.param(_one_sided(130), id="one-sided-130"),
])
def test_block_along_and_at_agree_bitwise(a):
    def one_time(t):
        # the one-time evaluation the blocks replaced, as the reference:
        # the Taylor sum on the upper triangle, one product with P unless
        # P = 0 or P = I, then s squarings with no reprojection
        p = kernel.p_minus if t > 0 else kernel.p_plus
        occupied = kernel.split.m if t > 0 else kernel.split.l
        m_r, e_r = math.frexp(TAYLOR_RANGE)
        mt, et = math.frexp(abs(t))
        m, e = math.frexp(kernel.alpha * mt)
        s = max(0, e + kernel.k + et - e_r + (m > m_r))
        c = math.ldexp(t, kernel.k - s)
        coef = c ** TAYLOR_POWERS / TAYLOR_FACTORIALS
        r = np.zeros_like(p)
        if occupied:  # P = 0 leaves G = 0
            r[np.triu_indices(len(p))] = coef @ kernel.table
            if occupied < len(p):
                r = r @ p
            for _ in range(s):
                r = r @ r
        for factor in kernel.unscale:
            r *= factor
        return r if t > 0 else -r

    kernel = GreenKernel(a)
    ts = np.array([3e-4, -0.02, 0.7, -5.0, 40.0, 0.01, -300.0, 2.0, -1e-3,
                   9e3])
    n = len(a)
    if n < 100:
        ts = np.concatenate([ts, log_time_grid(40)])
    # log2(alpha 2^k |t| / theta), rounded up, is the squaring count where
    # >= 0
    log_norm = (np.frexp(kernel.alpha * np.abs(ts) / TAYLOR_RANGE)[1]
                + kernel.k)
    assert log_norm.min() <= 0 and log_norm.max() >= 8
    expected = np.array([one_time(float(t)) for t in ts]).tobytes()
    assert kernel.block(ts).tobytes() == expected
    assert np.array([g for _, gs in kernel.blocks(ts)
                     for g in gs]).tobytes() == expected
    # blocks yields each part with its slice of ts
    parts = list(kernel.blocks(ts))
    assert [ks for ks, _ in parts] == kernel_parts(ts.size, n)
    assert np.concatenate([g for _, g in parts]).tobytes() == expected
    assert np.array([kernel.at(t) for t in ts]).tobytes() == expected


def _count_products(monkeypatch, kernel, ts):
    """G over ts and the (x, y) of every np.matmul call ``block`` makes."""
    products = []
    matmul = np.matmul

    def count(x, y, *args, **kwargs):
        products.append((x, y))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", count)
    g = kernel.block(ts)
    monkeypatch.setattr(np, "matmul", matmul)
    return g, products


@pytest.mark.parametrize("a", [
    pytest.param(_one_sided(6), id="left"),
    pytest.param(-_one_sided(7), id="right"),
])
def test_one_sided_kernel_makes_no_product_with_its_projector(monkeypatch,
                                                              a):
    # P is 0 on the side with no spectrum, where G is exactly 0, and I on
    # the other, which squares without reprojecting: the grid is one part,
    # so one Taylor product over the table for the occupied side and one
    # stacked product per squaring
    kernel = GreenKernel(a)
    ts = make_grid(-10.0, 10.0, 40)
    occupied = ts < 0 if kernel.split.m == 0 else ts > 0
    g, products = _count_products(monkeypatch, kernel, ts)
    projectors = (kernel.p_minus, kernel.p_plus)
    assert not any(x is p or y is p for x, y in products for p in projectors)
    taylor = [x for x, y in products if y is kernel.table]
    assert [x.shape for x in taylor] == [
        (occupied.sum(), 1, TAYLOR_DEGREE + 1)]
    squarings = kernel.squarings(ts[occupied])
    assert len(products) == 1 + squarings.max() > 1
    assert not g[~occupied].any()
    for t, gt in zip(ts[occupied], g[occupied]):
        exact = green_parlett(a, t, dps=60)
        assert np.abs(gt - exact).max() <= 1e-13 * np.abs(exact).max(), t


@pytest.mark.parametrize("n", [3, 20, 50])
def test_two_sided_kernel_projects_once_per_time(monkeypatch, n):
    # The Taylor sums of a part's times on one side are one stacked product
    # over the table; R = e^{cB} P is formed once per time and then
    # squared s times with no reprojection: len(ts) + sum(s) matrix
    # products per grid, where reprojecting every square made len(ts) +
    # 2 sum(s).  At n = 50 the grid takes seven parts of at most six times,
    # one of them on both sides of 0
    kernel = GreenKernel(random_triangular(np.random.default_rng(n), n))
    assert kernel.split.m and kernel.split.l
    ts = make_grid(-10.0, 10.0, 40)
    g, products = _count_products(monkeypatch, kernel, ts)
    taylor = [x for x, y in products if y is kernel.table]
    sides = [side for part in kernel_parts(ts.size, n)
             for side in (ts[part] > 0, ts[part] < 0) if side.any()]
    assert [x.shape for x in taylor] == [
        (side.sum(), 1, TAYLOR_DEGREE + 1) for side in sides]
    assert len(sides) == (2 if n < 50 else 8)
    matrices = [(x, y) for x, y in products if y is not kernel.table]
    assert all(x.ndim == 3 for x, _ in matrices)
    for p, side in ((kernel.p_minus, ts > 0), (kernel.p_plus, ts < 0)):
        assert sum(len(x) for x, y in matrices if y is p) == side.sum()
    squares = [(x, y) for x, y in matrices
               if y is not kernel.p_minus and y is not kernel.p_plus]
    assert all(x is y for x, y in squares)
    s = kernel.squarings(ts)
    assert sum(len(x) for x, _ in squares) == s.sum() > 0
    assert sum(len(x) for x, _ in matrices) == ts.size + s.sum()
    assert np.isfinite(g).all() and not np.tril(g, -1).any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_along_yields_the_finite_times_then_raises():
    # G(t) e^(1e-6 t) = sum_k (1e60 t)^k J^k / k!: its corner entry
    # (1e60 t)^5 / 120 is 2.6e306 at t = 50 and beyond the range at 500
    kernel = GreenKernel(-1e-6 * np.eye(6) + 1e60 * np.eye(6, k=1))
    ts = [0.5, 5.0, 50.0, 500.0, 5e3]
    got = []
    with pytest.raises(FloatOverflow, match=r"^G\(t\) overflows at t=500\.0$"):
        for _, gs in kernel.blocks(ts):
            got.extend(gs)
    assert len(got) == 3 and all(np.isfinite(g).all() for g in got)
    assert np.abs(got[-1]).max() > 1e306
    # blocks yields the same three, their slice of ts cut short
    steps = kernel.blocks(ts)
    ks, g = next(steps)
    assert ks == slice(0, 3) and g.tobytes() == np.array(got).tobytes()
    with pytest.raises(FloatOverflow):
        next(steps)


@pytest.mark.parametrize("bad, error", [(math.nan, DomainError),
                                        (0.0, UndefinedAtZero)])
def test_blocks_checks_the_grid_before_its_first_stack(monkeypatch, bad,
                                                       error):
    # from n = 128 on a stack is one time: blocks yielded G(1) and G(2)
    # before it reached the bad time
    kernel = GreenKernel(_one_sided(128))
    monkeypatch.setattr(GreenKernel, "_fill", _no_evaluation)
    with pytest.raises(error):
        next(kernel.blocks([1.0, 2.0, bad]))


def _no_evaluation(*args, **kwargs):
    raise AssertionError("G evaluated before the grid was checked")


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


def _hadamard(n, scale, draw):
    """H T H^T, H the n x n Hadamard matrix over sqrt(n): T is a two-sided
    diagonal (|Re| in [0.2, 2]) plus scale times a complex Gaussian strictly
    upper N, the first or second draw from default_rng(0)."""
    rng = np.random.default_rng(0)
    for _ in range(draw + 1):
        mag = rng.uniform(0.2, 2.0, n)
        d = np.where(np.arange(n) % 2, mag, -mag) + 1j * rng.uniform(-2, 2, n)
        nil = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                      1)
    h = scipy.linalg.hadamard(n) / math.sqrt(n)
    return h @ (np.diag(d) + scale * nil) @ h.T


# the Newton sign stalled above its tolerance on all six (eigenvector
# condition up to 4e13) and raised ConvergenceFailure.  A Schur form matches
# A only to rounding, amplified by that condition, so the reference is the
# exact G and x of T' = schur_decompose(A).t, mapped back by its Q
@pytest.mark.parametrize("a", [
    pytest.param(_hadamard(n, scale, draw), id=f"n={n}-Nx{scale:g}-{draw}")
    for n, scale in ((4, 100.0), (16, 10.0), (8, 30.0)) for draw in (0, 1)
])
def test_dense_input_is_solved_on_its_schur_form(a):
    form = schur_decompose(a)
    q, tri = form.q, form.t
    for t in (0.3, -2.0):
        exact = q @ green_parlett(tri, t, dps=60) @ q.conj().T
        err = np.abs(green_function(a, t) - exact).max()
        assert err <= 1e-13 * np.abs(exact).max(), t
    # f(s) = e^{i w s} c: x = Q (i w I - T')^{-1} Q^H c e^{i w t}.  Summed
    # with the carry Q M Q^H the solution erred by 6.5e-5 on the first input
    # and overflowed on the n = 16 ones
    n = len(a)
    c = np.random.default_rng(n).normal(size=n) + 0j
    omega, t = 0.7, 0.5
    x = bounded_solution(a, lambda s: np.exp(1j * omega * s) * c, t)
    exact = q @ scipy.linalg.solve_triangular(
        1j * omega * np.eye(n) - tri, q.conj().T @ c) * np.exp(1j * omega * t)
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


@pytest.mark.parametrize("d", [
    pytest.param([-1 + 100j, -0.5, 0.7], id="oscillatory"),
    pytest.param([-1000.0, -0.5, 0.7], id="stiff"),
])
@pytest.mark.parametrize("omega", [0.0, 1.0])
def test_bounded_solution_resolves_the_largest_eigenvalue(d, omega):
    # panels min(1, 1 / gamma) = 0.833 wide left e^{lambda s} unresolved at
    # |lambda| = 100 and 1000: x erred by up to 3.6e-1 and 9.6e-4 of
    # max|x|.  Capped at 4 / max|lambda|, one panel spans |lambda| h <= 4
    a = np.diag(np.array(d, dtype=complex))
    c, t = np.ones(3, dtype=complex), 0.5
    x = bounded_solution(a, lambda s: np.exp(1j * omega * s) * c, t)
    exact = np.linalg.solve(1j * omega * np.eye(3) - a, c) * np.exp(
        1j * omega * t)
    np.testing.assert_allclose(x, exact, rtol=1e-10)


def test_bounded_solution_nodes_where_the_gap_sets_the_panels():
    # |lambda| <= 2 sqrt 2, as on the benchmark's solve inputs (gap 0.5, |Re|
    # and |Im| at most 2): 4 / max|lambda| > 1, so the panels stay 1 wide,
    # 56 of them over the radius 27.6 / 0.5 on the one occupied side
    a = np.diag([-0.5 + 1j, -2.0 + 2j, -1.2 - 2j]) + np.triu(
        np.full((3, 3), 0.3), 1)
    assert default_quad(GreenKernel(a).split) == (pytest.approx(
        -math.log(1e-12) / 0.5), 56)
    calls = []
    bounded_solution(a, lambda s: calls.append(s) or np.ones(3), 0.2)
    assert len(calls) == 56 * GAUSS_NODES == 896


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
    pytest.param(lambda a: GreenKernel(a).at(0.1),
                 "G(t) overflows at t=0.1", id="at"),
    pytest.param(lambda a: GreenKernel(a).block([0.1, 0.2]),
                 "G(t) overflows at t=0.1", id="block"),
])
def test_library_overflow_is_a_typed_error(evaluate, message):
    # the CLI's FloatOverflow input: the library returned inf/NaN with
    # numpy overflow warnings where the CLI printed one error line, and
    # GreenKernel.at and block did so after green_function raised;
    # 160-digit Parlett puts max|G(0.1)| at 2.2e317
    with pytest.raises(FloatOverflow, match=f"^{re.escape(message)}$"):
        evaluate(scaled_nilpotent(1, 5, 1e80))


@pytest.mark.parametrize("ts, g, error, message", [
    pytest.param([[1.0]], None, DomainError, "1-D grid", id="2-d-grid"),
    pytest.param([1.0, 2.0], None, DomainError, r"must have shape \(2, 2, 2\)",
                 id="length"),
    pytest.param([1.0], np.ones((1, 3, 3)), DomainError, "must have shape",
                 id="size"),
    pytest.param([math.nan], None, DomainError, "finite", id="nan"),
    pytest.param([0.0], None, UndefinedAtZero, "undefined", id="zero"),
])
@pytest.mark.parametrize("p", [1, 2])
def test_kernel_norms_reads_a_checked_grid(ts, g, error, message, p):
    # a 2-D grid or a length mismatch ended in IndexError, and a NaN time
    # read norm 0 where G(1) has norm 0.388
    kernel = GreenKernel([[-1.0, 1.0], [0.0, 2.0]])
    g = kernel.block([1.0]) if g is None else g
    with pytest.raises(error, match=message):
        kernel.norms(ts, g, p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sign_iteration_overflow_is_a_typed_error():
    # unbalanced, the sign of N x 1e200 leaves the float range: its corner
    # is of order 1e400
    a = scaled_nilpotent(0, 3, 1e200)
    for a in _both_paths(a, _flip(a)):
        with pytest.raises(FloatOverflow, match="^matrix sign overflows$"):
            matrix_sign(a)


@pytest.mark.filterwarnings("error")
def test_projectors_of_a_subnormal_spectrum():
    # the Newton sign's determinant scaling mu = e^713.8 overflowed
    # math.exp here.  The triangular projectors are exact; the dense ones
    # are exact up to the rounding of Q, whose entries are 1/sqrt(2)
    d = np.diag([-1e-310, 1e-310])
    p_minus, p_plus = spectral_projectors(d)
    assert np.array_equal(p_minus, np.diag([1.0, 0.0]))
    assert np.array_equal(p_plus, np.diag([0.0, 1.0]))
    p_minus, p_plus = spectral_projectors(H2 @ d @ H2 / 2)
    assert np.abs(H2 @ p_minus @ H2 / 2 - np.diag([1.0, 0.0])).max() <= 2 ** -52
    assert np.abs(H2 @ p_plus @ H2 / 2 - np.diag([0.0, 1.0])).max() <= 2 ** -52


def test_projectors_where_a_pivot_is_subnormal():
    # the eigenvalues -1e-310 and 1e-310 differ by a subnormal.  gees
    # permutes A to triangular form exactly, and the sign divides by that
    # difference; numpy's complex division gives -inf + nan j there, and
    # the Newton sign's LU gave P-[2, 1] = -1.08e-207 with no error
    a = np.array([[1, 0, 0], [0, -1e-310, 0], [0, 1e-310, 1e-310]])
    p_minus, p_plus = spectral_projectors(a)
    assert p_minus[2, 1] == -0.5
    assert np.array_equal(p_minus, [[0, 0, 0], [0, 1, 0], [0, -0.5, 0]])
    assert np.array_equal(p_plus, np.eye(3) - p_minus)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_where_the_unbalanced_kernel_overflowed():
    # the squaring count followed N's 1e50 entries and G(0.1) came out
    # non-finite; 120-digit Parlett gives max|G| = 2.2048e197 there
    a = scaled_nilpotent(1, 5, 1e50)
    kernel = GreenKernel(a)
    for t in (0.1, 1.0, -0.1):
        exact = green_parlett(a, t, dps=120)
        err = np.abs(next(kernel.blocks([t]))[1][0] - exact).max()
        assert err <= 1e-12 * np.abs(exact).max(), t


# the norm taken on G's rank-r core against the full SVD of the same G:
# within 1e-14, and above it by at most the rounding of two n-term complex
# products and an SVD, 4 n eps (a basis off by an angle d lowers the value
# by about d^2 / 2 of it; the largest rise seen is 14.4 eps, on a dense
# n = 8 input)
@pytest.mark.parametrize("a", [
    # norm_inf(P-) reaches 4.3e32 here
    pytest.param(random_triangular(np.random.default_rng(5), 200),
                 id="random-200"),
    pytest.param(scaled_nilpotent(50, 50, 1e4), id="Nx1e4-50"),
    pytest.param(random_triangular(np.random.default_rng(50), 50, gap=1e-3),
                 id="near-axis-50"),
    pytest.param(_one_sided(20), id="one-sided"),
] + [
    pytest.param(_hadamard(n, scale, draw),
                 id=f"dense-n={n}-Nx{scale:g}-{draw}")
    for n, scale in ((4, 100.0), (16, 10.0), (8, 30.0)) for draw in (0, 1)
])
def test_two_norm_on_the_core_is_the_full_svd(a):
    kernel = GreenKernel(a)
    ts = make_grid(-10.0, 10.0, 12)
    g = kernel.block(ts)
    assert np.isfinite(g).all()
    full = induced_norm(g, 2)
    got = kernel.norms(ts, g, 2)
    assert (np.abs(got - full) <= 1e-14 * full).all()
    assert (got <= full * (1 + 4 * len(a) * np.finfo(float).eps)).all()
    if not (kernel.split.m and kernel.split.l):  # n x n SVDs and zeros
        assert np.array_equal(got, full)


# row 0 of P- is (1, c / 0.02, c / 0.02), so G(t) has two entries near
# 50 c for small |t|: at c = 1e306 its norm is 7.07e307, and at c = 3e306
# 2.12e308, beyond the float range, with finite entries
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e306, 3e306])
def test_two_norm_of_g_at_the_edge_of_the_float_range(c):
    a = np.array([[-0.01, c, c], [0, 0.01, 0], [0, 0, 0.01]])
    kernel = GreenKernel(a)
    assert (kernel.split.m, kernel.split.l) == (1, 2)
    ts = np.array([-0.5, -1e-3, 1e-3, 0.5])
    g = kernel.block(ts)
    assert np.isfinite(g).all() and np.abs(g).max() > 4e307
    full = induced_norm(g, 2)
    got = kernel.norms(ts, g, 2)
    if c < 2e306:
        assert np.isfinite(full).all()
        np.testing.assert_allclose(got, full, rtol=1e-14)
    else:
        assert (full == math.inf).all() and (got == math.inf).all()
