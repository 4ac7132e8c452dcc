import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import greenbound.bounds as bounds
from greenbound import (
    BoundParams,
    DomainError,
    Inapplicable,
    NotStrictlyTriangular,
    QtdsParams,
    UndefinedAtZero,
    conv_power_bessel,
    conv_power_closed,
    conv_power_poly,
    entrywise_bound,
    envelope_table,
    h_eval,
    qtds18_bound,
    triangular_bound,
    qtds18_grid,
    van_loan_bound,
)
from greenbound.cli import make_grid
from greenbound.green import GreenKernel, spectral_gaps

from conftest import random_triangular, scaled_nilpotent

INF = float("inf")


def test_h_eval():
    assert h_eval(0.0, 2.0, 3.0) == 1.0
    assert h_eval(1.0, 2.0, 5.0) == pytest.approx(math.exp(-2))
    assert h_eval(-3.0, 2.0, 1.0) == pytest.approx(math.exp(-3))


def test_conv_power_identity_cases():
    for t in (-2.0, 0.0, 0.5, 3.0):
        assert conv_power_closed(1, t, 1.3, 0.6) == pytest.approx(
            h_eval(t, 1.3, 0.6), rel=1e-15
        )
    # analytic self-convolution of exp(-|t|): (1 + |t|) exp(-|t|)
    assert conv_power_closed(2, 1.0, 1.0, 1.0) == pytest.approx(
        2 * math.exp(-1), rel=1e-14
    )
    assert conv_power_closed(3, 1.0, 1.0, 1.0) == pytest.approx(
        3.5 * math.exp(-1), rel=1e-14
    )


def test_conv_power_domain():
    with pytest.raises(DomainError):
        conv_power_closed(0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        conv_power_closed(2, 1.0, INF, 1.0)
    with pytest.raises(ValueError, match="unknown method 'x'"):
        conv_power_closed(2, 1.0, 1.0, 1.0, method="x")
    with pytest.raises(DomainError):
        conv_power_bessel(2, 0.0, 1.0, 1.0)
    assert conv_power_poly(0, 1.0, 1.0) == 0.0
    # u = |t| must be finite, as t must: at u = +inf and gamma = +inf the
    # recurrence would form 0 * inf = nan
    # and gamma > 0: gamma = 0 divided by zero to inf and a NaN gamma gave
    # nan; gamma = +inf stays allowed.  u >= 0 too: at u = -1 it gave
    # P_2(-1) = 3.5, where P_2(1) = 9.5
    for u, gamma in ((INF, INF), (INF, 1.0), (math.nan, 1.0), (1.0, 0.0),
                     (1.0, -1.0), (1.0, -INF), (1.0, math.nan), (-1.0, 1.0),
                     (-1e-300, INF)):
        with pytest.raises(DomainError):
            conv_power_poly(3, u, gamma)
    assert conv_power_poly(3, 2.0, INF) == 2.0
    assert conv_power_poly(3, 1.0, 1.0) == 9.5


# a size is an integer: 2.5 ended in range's TypeError, and 2.0 too
@pytest.mark.parametrize("size", [2.5, 2.0, "2", None])
@pytest.mark.parametrize("call", [
    pytest.param(lambda n: envelope_table(n, 1.0, 2.0, [1.0]),
                 id="envelope_table"),
    pytest.param(lambda n: BoundParams(n, 1.0, 1.0, 2.0), id="BoundParams"),
    pytest.param(lambda n: van_loan_bound(-1.0, 1.0, n, 1.0),
                 id="van_loan_bound"),
    pytest.param(lambda k: conv_power_poly(k, 1.0, 1.0),
                 id="conv_power_poly"),
    pytest.param(lambda k: conv_power_closed(k, 1.0, 1.0, 2.0),
                 id="conv_power_closed"),
    pytest.param(lambda m: QtdsParams(1.0, m, 1, 1.0, 2.0), id="QtdsParams-m"),
    pytest.param(lambda l: QtdsParams(1.0, 1, l, 1.0, 2.0), id="QtdsParams-l"),
])
def test_a_size_must_be_an_integer(call, size):
    with pytest.raises(DomainError, match="must be an integer"):
        call(size)
    call(np.int64(2))  # numpy integers stay sizes
    call(np.intc(2))


def test_conv_power_bessel_agrees_with_poly():
    for k in range(1, 9):
        for x in np.geomspace(1e-6, 50, 25):
            for gm, gp in ((0.5, 0.5), (0.3, 1.1), (2.0, 0.25)):
                t = x / (gm + gp)
                a = conv_power_closed(k, t, gm, gp, "poly")
                b = conv_power_bessel(k, t, gm, gp)
                assert b == pytest.approx(a, rel=1e-10)


def test_conv_power_bessel_where_e_to_the_x_overflows():
    # x = gamma |t| / 2 > 709: e^x K(x) overflowed as a product of two factors
    t = 1500.0
    assert conv_power_bessel(3, t, 1e-3, 1.0) == pytest.approx(
        conv_power_closed(3, t, 1e-3, 1.0), rel=1e-13)


def test_conv_power_leading_term():
    # P_k(t) k! / t^k -> 1 as t -> infinity
    t = 1e6
    for k in range(1, 9):
        for gamma in (1.0, 2.0):
            poly = conv_power_poly(k + 1, t, gamma)
            assert poly * math.factorial(k) / t ** k == pytest.approx(
                1.0, rel=1e-4
            )


def test_triangular_bound_normal_case():
    params = BoundParams(3, 0.0, 1.0, 2.0)
    for t in (-1.5, 0.25, 4.0):
        assert triangular_bound(params, t) == pytest.approx(
            h_eval(t, 1.0, 2.0), rel=1e-14
        )


def test_triangular_bound_two_sided_hand_value():
    # n=2, ||N||=1, gaps 1 and 1: h(1) (1 + (t + 2/gamma)) = 3 e^{-1}
    params = BoundParams(2, 1.0, 1.0, 1.0)
    assert triangular_bound(params, 1.0) == pytest.approx(
        3.0 * math.exp(-1), rel=1e-14
    )


def test_triangular_bound_one_sided():
    params = BoundParams(2, 1.0, 1.0, INF)
    assert triangular_bound(params, 2.0) == pytest.approx(
        3.0 * math.exp(-2), rel=1e-14
    )
    # vanishing side
    assert triangular_bound(params, -1.0) == 0.0
    mirrored = BoundParams(2, 1.0, INF, 1.0)
    assert triangular_bound(mirrored, -2.0) == pytest.approx(
        3.0 * math.exp(-2), rel=1e-14
    )
    assert triangular_bound(mirrored, 1.0) == 0.0


def test_triangular_bound_one_sided_matches_large_gap_limit():
    for n, norm_n, gm in ((2, 1.0, 1.0), (6, 2.3, 0.7)):
        lim = BoundParams(n, norm_n, gm, 1e6)
        one = BoundParams(n, norm_n, gm, INF)
        for t in np.linspace(0.1, 10, 15):
            a = triangular_bound(lim, float(t))
            b = triangular_bound(one, float(t))
            assert a == pytest.approx(b, rel=1e-4)


def test_triangular_bound_undefined_at_zero():
    with pytest.raises(UndefinedAtZero):
        triangular_bound(BoundParams(2, 1.0, 1.0, 1.0), 0.0)


def test_entrywise_bound_undefined_at_zero():
    with pytest.raises(UndefinedAtZero):
        entrywise_bound(np.diag([-1.0, 2.0]), [[0, 1], [0, 0]], 1.0, 2.0, 0.0)


def test_triangular_bound_scale_covariance():
    # the bound depends only on gamma*t and ||N||*t
    params = BoundParams(4, 1.7, 0.6, 1.4)
    c = 3.0
    scaled = BoundParams(4, 1.7 * c, 0.6 * c, 1.4 * c)
    for t in (-2.0, 0.3, 5.0):
        assert triangular_bound(scaled, t / c) == pytest.approx(
            triangular_bound(params, t), rel=1e-12
        )


def test_entrywise_bound_diagonal_case():
    out = entrywise_bound(np.diag([-1.0, 2.0]), np.zeros((2, 2)), 1.0, 2.0, 0.5)
    assert np.allclose(out, h_eval(0.5, 1.0, 2.0) * np.eye(2), rtol=1e-14)


def test_entrywise_bound_hand_value():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = entrywise_bound(np.diag([-1.0, 1.0]), n, 1.0, 1.0, 1.0)
    expected = math.exp(-1) * np.array([[1.0, 2.0], [0.0, 1.0]])
    assert np.allclose(out, expected, rtol=1e-14)


def test_entrywise_bound_nilpotent_truncation():
    n = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
    # the k = 3 term would be |N|^3 = 0 anyway
    out = entrywise_bound(np.zeros((3, 3)), n, 1.0, 1.0, 0.7)
    terms = sum(
        np.linalg.matrix_power(n, k) * conv_power_closed(k + 1, 0.7, 1.0, 1.0)
        for k in range(3)
    )
    assert np.allclose(out, terms, rtol=1e-14)


def test_entrywise_bound_rejects_nonstrict():
    with pytest.raises(NotStrictlyTriangular):
        entrywise_bound(np.eye(2), np.eye(2), 1.0, 1.0, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_entrywise_bound_where_the_norm_overflows():
    # norm_inf(N) = 2e308 made the diagonal tolerance 1e-13 * inf, with an
    # overflow warning, so no diagonal entry could be rejected
    n = np.array([[0.0, 1e308, 1e308], [0.0, 0.0, 1e308], [0.0, 0.0, 0.0]])
    d = np.diag([-1.0, 2.0, -3.0])
    out = entrywise_bound(d, n, 1.0, 2.0, 0.5)
    assert out[0, 1] == pytest.approx(1e308 * conv_power_closed(2, 0.5, 1.0, 2.0),
                                      rel=1e-14)
    assert out[0, 2] == INF
    with pytest.raises(NotStrictlyTriangular):
        entrywise_bound(d, n + np.diag([1e300, 0.0, 0.0]), 1.0, 2.0, 0.5)


@pytest.mark.parametrize("n, gm, gp, seed", [
    (8, 0.3, 0.5, 1), (20, 0.3, 0.5, 2), (50, 0.2, 0.7, 4),
    (20, INF, 0.2, 3), (12, 0.2, INF, 5),
])
def test_matrix_series_is_the_term_by_term_sum(n, gm, gp, seed):
    # the banded sum against sum_k W[t, k] |N|^k in plain float64, one
    # term at a time, within 4 ulps of every entry (2.4 is the largest
    # seen); the strict lower triangle is exactly +0
    nabs = np.abs(np.triu(np.random.default_rng(seed).normal(size=(n, n)), 1))
    ts = np.concatenate([-np.logspace(1, -2, 20), np.logspace(-2, 1, 20)])
    table = envelope_table(n, gm, gp, ts)
    got = table.matrix_series(nabs)
    weights = table.values()
    expected, power = np.zeros_like(got), np.eye(n)
    for k in range(n):
        expected += weights[:, k, None, None] * power
        power = power @ nabs
    lower = np.tril(np.ones((n, n), dtype=bool), -1)
    assert not got[:, lower].any() and not np.signbit(got[:, lower]).any()
    upper = ~lower & (weights[:, :1, None] > 0)
    assert (expected[upper] > 0).all()
    rel = np.abs(got - expected)[upper] / expected[upper]
    assert rel.max() <= 4 * np.finfo(float).eps


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_matrix_series_overflows_only_where_its_own_entry_does():
    # |N|^2 has the entry 1e600 at (0, 2), beyond the float range: at
    # t = 1e-300 its weight t^2 / 2 (below the range too) brings the sum to
    # 0.5, and at t = 1 only that entry exceeds the range
    nabs = np.array([[0.0, 1e300, 0.0], [0.0, 0.0, 1e300], [0.0, 0.0, 0.0]])
    got = envelope_table(3, 1.0, INF, [1e-300, 1.0]).matrix_series(nabs)
    np.testing.assert_allclose(got[0], [[1, 1, 0.5], [0, 1, 1], [0, 0, 1]],
                               rtol=1e-15)
    assert got[1, 0, 2] == INF
    h = math.exp(-1.0)
    got[1, 0, 2] = 0.0
    np.testing.assert_allclose(got[1], [[h, 1e300 * h, 0], [0, h, 1e300 * h],
                                        [0, 0, h]], rtol=1e-15)


def test_packed_series_takes_sixteen_powers_per_product(monkeypatch):
    # n = 400 takes ceil(400 / 16) = 25 batch products, each of (T, 16)
    # weights by the 16 powers over the suffix of the batch's first; one
    # exponent band here, as |N| / sqrt(n) keeps every term below 2^1000
    n = 400
    nabs = np.abs(np.triu(np.random.default_rng(7).normal(size=(n, n)), 1))
    table = envelope_table(n, 0.2, 0.5, [-1.0, 2.0])
    shapes = []
    matmul = np.matmul

    def logged(x, y, *args, **kwargs):
        shapes.append((x.shape, y.shape))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", logged)
    sums, layout = table.packed_series(nabs / math.sqrt(n))
    monkeypatch.setattr(np, "matmul", matmul)
    size = n * (n + 1) // 2
    suffix = [size - (n - k) * (n - k + 1) // 2 for k in range(0, n, 16)]
    assert shapes == [((2, 16), (16, size - lo)) for lo in suffix]
    assert sums.shape == (2, size) and sorted(layout) == sorted(
        np.flatnonzero(np.triu(np.ones((n, n)))))


def test_packed_series_holds_one_batch_and_one_product():
    # below the packed sums plus one batch of 16 powers plus one (T, L)
    # product, L = n (n + 1) / 2 entries on and above the diagonal (14.7
    # MiB here; 14.5 MiB seen).  Summed in full (T, n, n) accumulators and
    # mapped back through a full sum, it peaked at 25.2 MiB
    n = 200
    nabs = np.abs(np.triu(np.random.default_rng(3).normal(size=(n, n)), 1))
    nabs /= math.sqrt(n)
    table = envelope_table(n, 0.2, 0.5, make_grid(-10.0, 10.0, 40))
    count, size = 40, n * (n + 1) // 2
    tracemalloc.start()
    try:
        table.packed_series(nabs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (count + 16 + count) * size * 8


def _near_axis(n):
    """random_triangular(default_rng(n), n) with Re a[5, 5] = 1e-3, which
    makes gamma+ = 1e-3."""
    a = random_triangular(np.random.default_rng(n), n)
    a[5, 5] = 1e-3 + 1j * a[5, 5].imag
    return a


def _one_sided(n, sign):
    """random_triangular(default_rng(100 + n), n) with every eigenvalue on
    the left (sign -1) or right (+1) of the axis."""
    a = random_triangular(np.random.default_rng(100 + n), n)
    d = np.diag(a)
    np.fill_diagonal(a, sign * np.abs(d.real) + 1j * d.imag)
    return a


# The envelope h = c G(A_h, .) b is the Green's function of A_h = diag(-gamma-,
# gamma+) between b = (1, 1)^T and c = (1, -1), so sum_k W[t, k] |N|^k =
# (I (x) c) G(A, t) (I (x) b) with A = I (x) A_h + |N| (x) (b c), upper
# triangular in (i, side) order; one-sided, A_h = -+gamma, b = 1 and c = +-1
# give Van Loan's e^{(-gamma I + |N|) t} on the decaying side.  The kernel
# shares no code with matrix_series.  rtol is twice the largest entrywise
# relative difference seen on the grid
@pytest.mark.parametrize("a, rtol", [
    pytest.param(random_triangular(np.random.default_rng(104), 4),
                 2 * 1.77e-15, id="random-4"),
    pytest.param(random_triangular(np.random.default_rng(108), 8),
                 2 * 1.03e-14, id="random-8"),
    pytest.param(random_triangular(np.random.default_rng(112), 12),
                 2 * 1.12e-15, id="random-12"),
    pytest.param(scaled_nilpotent(12, 12, 1e4), 2 * 1.99e-15, id="Nx1e4-12"),
    pytest.param(_near_axis(12), 2 * 8.35e-16, id="near-axis-12"),
    pytest.param(_one_sided(4, -1), 2 * 8.39e-16, id="left-4"),
    pytest.param(_one_sided(8, 1), 2 * 5.17e-16, id="right-8"),
    pytest.param(_one_sided(12, -1), 2 * 6.15e-16, id="left-12"),
])
def test_matrix_series_is_the_kernel_of_the_lifted_matrix(a, rtol):
    n = len(a)
    split = spectral_gaps(a)
    ts = make_grid(-10.0, 10.0, 40)
    if split.gamma_plus == INF:
        a_h, b, c = np.array([[-split.gamma_minus]]), np.ones(1), np.ones(1)
        empty = ts < 0
    elif split.gamma_minus == INF:
        a_h, b, c = np.array([[split.gamma_plus]]), np.ones(1), -np.ones(1)
        empty = ts > 0
    else:
        a_h = np.diag([-split.gamma_minus, split.gamma_plus])
        b, c = np.ones(2), np.array([1.0, -1.0])
        empty = np.zeros(ts.size, dtype=bool)
    nabs = np.abs(np.triu(a, 1))
    lifted = np.kron(np.eye(n), a_h) + np.kron(nabs, np.outer(b, c))
    assert not np.tril(lifted, -1).any()
    oracle = (np.kron(np.eye(n), c) @ GreenKernel(lifted).block(ts)
              @ np.kron(np.eye(n), b[:, None]))
    got = envelope_table(n, split.gamma_minus, split.gamma_plus,
                         ts).matrix_series(nabs)
    # 0 exactly on the strict lower triangle and on the side with no
    # spectrum, on both sides of the identity
    zero = got == 0
    assert (zero == (np.tri(n, k=-1, dtype=bool) | empty[:, None, None])).all()
    assert not oracle[zero].any()
    rel = np.abs(oracle - got)[~zero] / got[~zero]
    assert rel.max() <= rtol


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_c_int_exponents_match_the_int64_path(monkeypatch):
    # the exponents are clipped to +-4096 and passed as C ints; np.ldexp by
    # the raw int64 exponents must give the same bytes, with exponents past
    # +-1100 (saturating to inf or 0) and _EXP_ZERO entries for zero terms
    rng = np.random.default_rng(11)
    count, n = 6, 9
    mant = rng.uniform(0.5, 1.0, (count, n))
    expo = rng.integers(-1300, 1300, (count, n))
    expo[:, 0] = rng.integers(-5, 5, count)  # some sums stay in range
    zero = rng.random((count, n)) < 0.2
    mant[zero], expo[zero] = 0.0, bounds._EXP_ZERO
    expo[0, 1] = bounds._EXP_ZERO  # a nonzero mantissa at _EXP_ZERO
    table = bounds.EnvelopeTable(mant, expo)
    wm, we = rng.uniform(0.5, 1.0, n), rng.integers(-1200, 1200, n)
    nabs = np.abs(np.triu(rng.normal(size=(n, n)), 1)) * 1e100
    runs = []
    for exponent in (bounds.c_exponent, lambda e: e):
        monkeypatch.setattr(bounds, "c_exponent", exponent)
        runs.append([table.values(), table.dot(wm, we),
                     table.matrix_series(nabs)])
    for fast, raw in zip(*runs):
        assert fast.tobytes() == raw.tobytes()
    values = runs[0][0]
    assert np.isinf(values).any() and (values[~zero] == 0).any()


def test_van_loan_bound():
    assert van_loan_bound(-1.0, 2.0, 2, 1.0) == pytest.approx(
        3.0 * math.exp(-1), rel=1e-14
    )
    assert van_loan_bound(0.3, 0.0, 4, 2.0) == pytest.approx(math.exp(0.6))
    assert van_loan_bound(5.0, 7.0, 3, 0.0) == 1.0
    # alpha t = +-1e20: the binary exponent of e^{alpha t} overflows an int64
    assert van_loan_bound(1.0, 0.0, 1, 1e20) == math.inf
    assert van_loan_bound(-1.0, 0.0, 1, 1e20) == 0.0
    with pytest.raises(DomainError):
        van_loan_bound(0.0, 1.0, 2, -0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_where_the_norm_is_infinite():
    # EnvelopeTable.dot formed 0 * inf = nan where every k >= 1 weight is 0
    assert triangular_bound(BoundParams(3, INF, 1.0, INF), -1.0) == 0.0
    assert triangular_bound(BoundParams(3, INF, 1.0, INF), 1.0) == INF
    assert van_loan_bound(-1.0, INF, 3, 0.0) == 1.0
    assert van_loan_bound(-1.0, INF, 1, 2.0) == math.exp(-2.0)
    table = envelope_table(3, 1.0, 2.0, [-1.0, 0.5])
    assert list(table.series(INF)) == [INF, INF]


def test_nan_gap_or_norm_is_rejected():
    # a NaN gap gave a false bound of 0.0, and a NaN norm a bound of nan
    nan = math.nan
    with pytest.raises(DomainError):
        triangular_bound(BoundParams(2, 1.0, nan, 2.0), 1.0)
    with pytest.raises(DomainError):
        entrywise_bound(None, [[0, 1], [0, 0]], nan, 2.0, 1.0)
    with pytest.raises(DomainError):
        van_loan_bound(nan, 1.0, 2, 1.0)
    # van_loan_bound checks what BoundParams does: a NaN norm gave nan, a
    # negative one a bound of 0.18, and n = 0 numpy's zero-size ValueError
    for norm_n, n in ((nan, 3), (-1.0, 3), (1.0, 0)):
        with pytest.raises(DomainError):
            van_loan_bound(-1.0, norm_n, n, 1.0)
    with pytest.raises(DomainError):
        envelope_table(0, 1.0, 2.0, [1.0])
    with pytest.raises(DomainError):
        conv_power_closed(2, 1.0, 1.0, nan)
    # a gap of -inf made NaN weights, NaN even where a weight is 0, and so
    # van_loan_bound at alpha = +inf returned nan
    for gaps in ((-INF, INF), (INF, -INF), (-INF, 1.0)):
        with pytest.raises(DomainError, match="NaN or -inf"):
            envelope_table(3, *gaps, [1.0, -1.0])
    with pytest.raises(DomainError):
        van_loan_bound(INF, 1.0, 3, 1.0)
    with pytest.raises(ValueError):
        BoundParams(3, nan, 1.0, 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [-1.0, -INF, math.nan])
def test_series_takes_a_nonnegative_norm(x):
    # series(-1.0) read [0.552, 0.203], below series(1.0), and series(-inf)
    # warned
    table = envelope_table(3, 1.0, 2.0, [1.0, -1.0])
    with pytest.raises(DomainError, match=r"^\|\|N\|\| must be nonnegative$"):
        table.series(x)


# a grid of times is 1-D: on [[1.0, 2.0]] envelope_table gave a 2 x 2
# series, and qtds18_grid ended in IndexError
@pytest.mark.parametrize("ts", [[[1.0, 2.0]], 1.0], ids=["2-d", "0-d"])
@pytest.mark.parametrize("read", [
    pytest.param(lambda ts: envelope_table(2, 1.0, 1.0, ts).series(1.0),
                 id="envelope_table"),
    pytest.param(lambda ts: qtds18_grid(QtdsParams(1.0, 1, 1, 1.0, 1.0), ts),
                 id="qtds18_grid"),
])
def test_bounds_read_a_1d_grid(read, ts):
    with pytest.raises(DomainError, match="1-D grid"):
        read(ts)


def test_nan_time_is_rejected():
    # qtds18_grid's output was never written at a NaN time, so it read
    # leftover memory; the envelope table gave nan
    params = QtdsParams(1.0, 1, 1, 1.0, 1.0)
    for ts in ([math.nan, 1.0], [1, math.nan, -1, math.nan]):
        with pytest.raises(DomainError):
            qtds18_grid(params, ts)
        with pytest.raises(DomainError):
            envelope_table(2, 1.0, 2.0, ts)
    for gp in (2.0, INF):
        with pytest.raises(DomainError):
            triangular_bound(BoundParams(2, 1.0, 1.0, gp), math.nan)
    with pytest.raises(DomainError):
        entrywise_bound(None, [[0, 1], [0, 0]], 1.0, 2.0, math.nan)
    with pytest.raises(DomainError):
        van_loan_bound(-1.0, 1.0, 2, math.nan)
    with pytest.raises(DomainError):
        conv_power_closed(2, math.nan, 1.0, 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gm,gp", [(-1.0, 0.5), (1.0, -1.0), (0.0, 1.0),
                                   (1.0, 0.0), (-1.0, 1.0)])
def test_two_sided_gaps_must_be_positive(gm, gp):
    # these gave negative "upper bounds" or, at gamma = 0, divided by zero
    with pytest.raises(DomainError):
        envelope_table(2, gm, gp, [1.0, -1.0])
    with pytest.raises(DomainError):
        triangular_bound(BoundParams(2, 1.0, gm, gp), 1.0)
    with pytest.raises(DomainError):
        entrywise_bound(None, [[0, 1], [0, 0]], gm, gp, 1.0)
    with pytest.raises(DomainError):
        qtds18_bound(QtdsParams(1.0, 1, 1, gm, gp), 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_qtds18_rejects_a_bad_norm_or_gap():
    with pytest.raises(DomainError):
        QtdsParams(-1.0, 1, 1, 1.0, 1.0)
    with pytest.raises(DomainError):
        QtdsParams(math.nan, 1, 1, 1.0, 1.0)
    # gaps of 0 divided by zero
    with pytest.raises(DomainError):
        qtds18_bound(QtdsParams(1.0, 1, 1, 0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        qtds18_grid(QtdsParams(1.0, 1, 1, 1.0, math.nan), [1.0])


def test_bound_params_raise_domain_error():
    with pytest.raises(DomainError):
        BoundParams(0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        BoundParams(2, -1.0, 1.0, 1.0)


def test_qtds18_hand_values():
    p = QtdsParams(2.0, 1, 1, 1.0, 1.0)
    assert qtds18_bound(p, 1.0) == pytest.approx(2.0 * math.exp(-1), rel=1e-14)
    # symmetric parameters mirror exactly
    assert qtds18_bound(p, -1.0) == pytest.approx(qtds18_bound(p, 1.0))
    # m=2, l=1, ||A||=1, gaps 1,1: e^{-1} (1 + 2 + 1) = 4 e^{-1}
    p2 = QtdsParams(1.0, 2, 1, 1.0, 1.0)
    assert qtds18_bound(p2, 1.0) == pytest.approx(4.0 * math.exp(-1), rel=1e-14)


def test_qtds18_inapplicable():
    with pytest.raises(Inapplicable):
        qtds18_bound(QtdsParams(1.0, 0, 2, INF, 1.0), 1.0)
    with pytest.raises(Inapplicable, match="finite gaps"):
        qtds18_grid(QtdsParams(1.0, 1, 1, INF, 1.0), [1.0])
    with pytest.raises(UndefinedAtZero):
        qtds18_bound(QtdsParams(1.0, 1, 1, 1.0, 1.0), 0.0)


def test_qtds18_where_the_sums_overflow():
    # both gaps are finite though their sum is not: the bound applies, and
    # it reads inf once 2 ||A|| leaves the float range
    assert qtds18_bound(QtdsParams(INF, 1, 1, 1e308, 1e308), 0.1) == INF
    assert qtds18_bound(QtdsParams(1e308, 1, 1, 1e308, 1e308), 0.1) == INF


# --- the envelope table against exact arithmetic ---------------------------

def exact_weight_factor(k, u, gamma):
    """W[t, k] / h(t) in exact rationals: h^{*(k+1)} / h for a finite gamma,
    u^k / k! for a one-sided spectrum (gamma = +inf)."""
    u = Fraction(u)
    if gamma == INF:
        return u ** k / math.factorial(k)
    g = Fraction(gamma)
    # (k+j)! / (k! j! (k-j)!) = C(k+j, j) / (k-j)!
    return sum(Fraction(math.comb(k + j, j), math.factorial(k - j))
               * u ** (k - j) / g ** j for j in range(k + 1))


@pytest.mark.parametrize("gm,gp", [
    (0.2, 0.3), (1.0, 5.0), (1e-3, 2e-3),  # two-sided, near-axis
    (0.4, INF), (INF, 0.7), (1e-3, INF),   # one-sided mirrors
])
@pytest.mark.parametrize("n", [1, 7, 60])
def test_envelope_table_matches_exact_reference(n, gm, gp):
    ts = np.array([-10.0, -2.5, -0.1, 0.01, 0.3, 1.7, 10.0])
    table = envelope_table(n, gm, gp, ts)
    got = table.values()
    gamma = gm + gp
    for i, t in enumerate(ts):
        rate = gm if t > 0 else gp
        if rate == INF:
            assert np.all(got[i] == 0.0)
            continue
        h = math.exp(-rate * abs(t))
        factors = [exact_weight_factor(k, abs(t), gamma) for k in range(n)]
        want = np.array([float(f) * h for f in factors])
        np.testing.assert_allclose(got[i], want, rtol=1e-13, atol=0.0)
        for norm_n in (0.3, 7.0):
            series = float(sum(Fraction(norm_n) ** k * f
                               for k, f in enumerate(factors))) * h
            assert table.series(norm_n)[i] == pytest.approx(series, rel=1e-13)
            params = BoundParams(n, norm_n, gm, gp)
            assert triangular_bound(params, float(t)) == pytest.approx(
                series, rel=1e-13)


# |t| at both ends of the float range: u^2 and gap * u overflow there, and the
# table must still hold exact weights, zeros or finite numbers, never NaN
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gm,gp", [(1.0, 2.0), (2.0, INF), (INF, 0.5)])
def test_envelope_table_at_extreme_times(gm, gp):
    ts = np.array([-1.7e308, -1e200, -1e-310, 1e-310, 1e200, 1.7e308])
    table = envelope_table(8, gm, gp, ts)
    got = table.values()
    assert not np.isnan(table.mant).any()
    gamma = gm + gp
    for i, t in enumerate(ts):
        rate = gm if t > 0 else gp
        if rate == INF or abs(t) > 1.0:
            assert np.all(got[i] == 0.0)
        else:  # h(t) = 1 to double precision
            want = [float(exact_weight_factor(k, abs(t), gamma))
                    for k in range(8)]
            np.testing.assert_allclose(got[i], want, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(table.series(3.0)[[0, 1, 4, 5]], 0.0)
    # P_1(u) = 2/gamma + u fits although u^2 does not
    assert conv_power_poly(2, 1e300, 1.0) == 1e300


def ulp(x: Fraction) -> Fraction:
    """The spacing of 53-bit mantissas at x > 0, at any exponent."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if x >= Fraction(2) ** e:
        e += 1  # now 2^(e-1) <= x < 2^e
    return Fraction(2) ** (e - 53)


def test_one_sided_weights_are_powers_over_factorials():
    # gamma = +inf in the two-sided recurrence: P_k = u^2/(k(k-1)) P_{k-2}
    # from P_1 = u, that is u^k / k!.  A tiny u is scaled up before u^2 is
    # formed, where it would underflow; h(t) = 1 at a gap of 0
    us = [0.0, 5e-324, 1e-310, 1e-200, 0.3, 7.0, 1e200]
    table = envelope_table(50, 0.0, INF, us)
    for u, mants, expos in zip(us, table.mant, table.expo):
        for k, (m, e) in enumerate(zip(mants.tolist(), expos.tolist())):
            exact = Fraction(u) ** k / math.factorial(k)
            got = Fraction(m) * Fraction(2) ** e
            if exact == 0:
                assert got == 0, (u, k)
            else:
                assert abs(got - exact) <= 4 * k * ulp(exact), (u, k)
    # sum_{k<6} 1/k!: u^2 underflows at u = 1e-200 unless u is scaled
    params = BoundParams(6, 1e200, 1.0, INF)
    assert triangular_bound(params, 1e-200) == 2.7166666666666663


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gap_sums_near_the_float_limit_warn_nothing():
    # gamma k overflowed in the recurrence's 2(2k-1)/(gamma k) from a gap
    # sum of about 1.8e308 / (n - 1) on: an overflow warning, 0 coefficient
    assert conv_power_poly(5, 1.0, 1.7e308) == pytest.approx(1 / 24,
                                                              rel=1e-15)
    ts = make_grid(-10.0, 10.0, 40)
    got = envelope_table(40, 5e306, 5e306, ts).values()
    assert (got == 0.0).all()  # h(t) = e^{-5e306 |t|}
    gap = 8.5e307
    t = 1e-307  # h(t) = e^{-8.5}
    n_mat = np.triu(np.ones((3, 3)), 1)
    factors = [exact_weight_factor(k, t, 2 * gap) for k in range(3)]
    h = math.exp(-gap * t)
    want = float(sum(factors)) * h
    assert triangular_bound(BoundParams(3, 1.0, gap, gap), t) == (
        pytest.approx(want, rel=1e-13))
    out = entrywise_bound(None, n_mat, gap, gap, t)
    np.testing.assert_allclose(np.diag(out), h, rtol=1e-14)
    assert out[0, 2] == pytest.approx(float(factors[1] + factors[2]) * h,
                                      rel=1e-13)


# --- large n: finite where the value fits, +inf where it does not ------------

LOG_MAX = math.log(np.finfo(float).max)
TINY = np.finfo(float).tiny  # smallest normal float
LARGE_SPECTRA = {"two-sided": (0.2, 0.3), "one-sided": (0.2, INF),
                 "mirrored": (INF, 0.3)}


def assert_matches_log(value, log_ref):
    """value == exp(log_ref) to 1e-9 relative, +inf above the float range,
    and below the smallest normal float at most that."""
    assert not math.isnan(value)
    if log_ref > LOG_MAX + 1e-6:
        assert value == INF
    elif log_ref < math.log(TINY):
        assert 0.0 <= value <= TINY
    else:
        assert math.isfinite(value) and value > 0
        assert math.log(value) == pytest.approx(log_ref, abs=1e-9)


def log_triangular(n, norm_n, gm, gp, t):
    """log sum_k ||N||^k W[t, k] from the explicit double sum."""
    u = abs(t)
    rate, other = (gm, gp) if t > 0 else (gp, gm)
    k = np.arange(n)
    if other == INF:
        terms = k * math.log(norm_n * u) - gammaln(k + 1)
    else:
        kk, jj = np.tril_indices(n)
        terms = (kk * math.log(norm_n) + gammaln(kk + jj + 1)
                 - gammaln(kk + 1) - gammaln(jj + 1) - gammaln(kk - jj + 1)
                 - jj * math.log(gm + gp) + (kk - jj) * math.log(u))
    return -rate * u + logsumexp(terms)


def log_qtds18(norm_a, m, l, gm, gp, t):
    """log of the qtds18 double sum, term by term."""
    outer, inner, gap = (m, l, gm) if t > 0 else (l, m, gp)
    u = abs(t)
    jj, ii = np.tril_indices(outer)
    terms = (gammaln(inner + ii) - gammaln(inner) - gammaln(ii + 1)
             + (jj - ii) * math.log(u) - gammaln(jj - ii + 1)
             + (inner + jj) * math.log(2.0 * norm_a)
             - (inner + ii) * math.log(gm + gp))
    return -gap * u + logsumexp(terms)


@pytest.mark.parametrize("kind", sorted(LARGE_SPECTRA))
@pytest.mark.parametrize("n", [100, 200, 500])
def test_triangular_and_van_loan_large_n(n, kind):
    gm, gp = LARGE_SPECTRA[kind]
    for norm_n in (1e-2, 1.0, 1e3):
        params = BoundParams(n, norm_n, gm, gp)
        for t in (-10.0, -0.1, 0.1, 10.0):
            value = triangular_bound(params, t)
            if (gm if t > 0 else gp) == INF:
                assert value == 0.0
            else:
                assert_matches_log(value, log_triangular(n, norm_n, gm, gp, t))
        for alpha in (-0.2, 0.5):
            for t in (0.1, 10.0):
                k = np.arange(n)
                log_ref = alpha * t + logsumexp(k * math.log(norm_n * t)
                                                - gammaln(k + 1))
                assert_matches_log(van_loan_bound(alpha, norm_n, n, t), log_ref)


@pytest.mark.parametrize("n", [100, 200, 500])
def test_qtds18_large_n(n):
    gm, gp = LARGE_SPECTRA["two-sided"]
    for m in (1, n // 2, n - 1):
        for norm_a in (1e-2, 1.0, 1e3):
            params = QtdsParams(norm_a, m, n - m, gm, gp)
            for t in (-10.0, -0.1, 0.1, 10.0):
                assert_matches_log(qtds18_bound(params, t),
                                   log_qtds18(norm_a, m, n - m, gm, gp, t))


@pytest.mark.parametrize("kind", sorted(LARGE_SPECTRA))
@pytest.mark.parametrize("n", [100, 200, 500])
def test_entrywise_bound_large_n(n, kind):
    gm, gp = LARGE_SPECTRA[kind]
    rng = np.random.default_rng(n)
    # at n = 500 only a trailing block is coupled, which keeps the matrix
    # powers cheap while the nilpotency index (180) stays large
    block = n if n < 500 else 180
    coupling = np.triu(rng.normal(size=(block, block)), 1)
    # scale 1e-2 keeps every entry finite; at 1e2 most entries exceed the
    # float range while the diagonal stays h(t)
    for scale, t in itertools.product((1e-2, 1e2), (-2000.0, -0.5, 0.5, 2000.0)):
        n_mat = np.zeros((n, n))
        n_mat[n - block:, n - block:] = scale * coupling
        norm_inf = np.abs(n_mat).sum(axis=1).max()
        out = entrywise_bound(np.zeros((n, n)), n_mat, gm, gp, t)
        assert not np.any(np.isnan(out))
        assert np.all(out >= 0.0)
        assert np.all(np.tril(out, -1) == 0.0)
        rate = gm if t > 0 else gp
        h = 0.0 if rate == INF else math.exp(-rate * abs(t))
        np.testing.assert_allclose(np.diag(out), h, rtol=1e-14)
        if scale < 1.0 and h > 0.0:
            assert np.all(np.isfinite(out))
        # ||sum_k W_k |N|^k||_inf <= sum_k W_k ||N||_inf^k
        tri = triangular_bound(BoundParams(n, norm_inf, gm, gp), t)
        assert out.sum(axis=1).max() <= tri * (1.0 + 1e-12)


@pytest.mark.parametrize("gm,gp", [(INF, 0.2), (0.2, INF), (0.3, 0.5)])
@pytest.mark.parametrize("n", [8, 20])
def test_envelope_table_row_is_independent_of_the_grid(n, gm, gp):
    # a one-point bound must read the same bits as that time on a grid
    ts = np.array([-1e-5, -0.4, 1.0, 2.0, 7.5])
    grid = envelope_table(n, gm, gp, ts)
    for i, t in enumerate(ts):
        row = envelope_table(n, gm, gp, [t])
        for x in (0.7, 5.5):
            assert row.series(x)[0] == grid.series(x)[i]
