"""Computable upper bounds on the Green's function and matrix exponential.

The central quantity is the two-sided exponential envelope

    h(t) = exp(-gamma_minus * t)  for t >= 0,
           exp( gamma_plus * t)   for t <= 0,

whose k-fold self-convolution h^{*k} has an exact closed form: h(t) times a
polynomial of degree k-1 in |t|.

Every bound is a sum over k of envelope weights W[t, k] times a power of a
norm or matrix, so the whole family reads one table (``EnvelopeTable``) built
once per grid of times, by ``envelope_table`` alone:

  * two-sided spectra:  W[t, k] = h^{*(k+1)}(t) = h(t) P_k(|t|);
  * one-sided spectra:  W[t, k] = h(t) |t|^k / k!  (zero on the side with no
    spectrum), the limit of h(t) P_k(|t|) as gamma_minus + gamma_plus -> inf.

The table holds each weight as mantissa * 2**exponent, built by one
recurrence over k for P_k with exact power-of-two rescaling, so no
intermediate overflows: a bound whose true value fits in a float comes out
finite, and one that does not comes out +inf.

Bounds provided (each scalar function is a one-point view of the table):
  * triangular_bound  - sum_k ||N||^k h^{*(k+1)}(t), the main estimate for an
    upper triangular coefficient B = D + N;
  * entrywise_bound   - the same with |N|^k matrices instead of ||N||^k;
  * van_loan_bound    - e^{alpha t} sum_k ||N t||^k / k!  for ||e^{At}||;
  * qtds18_bound      - a comparison double-sum bound using ||A|| and the
    half-plane eigenvalue counts m, l, on each side's one-sided table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Inapplicable
# induced_norm is part of this module's namespace: perfbench/tracing.py
# rebinds it here as in every module that imports it
from .matcore import (as_size, as_times, c_exponent, induced_norm,  # noqa
                      nonzero_times, require_strictly_triangular)

INF = float("inf")
LN2 = math.log(2.0)

# Exponent standing in for a zero term: far below any float.
_EXP_ZERO = -(1 << 20)
# Exponent band width in matrix sums: n terms below 2**1000 cannot overflow.
_BAND = 1000
# Powers of a matrix per batch in matrix sums: a batch is one product.
_BATCH_POWERS = 16
# exp(y) saturates beyond this |y|: exponents near 2**60 cannot wrap an int64
_EXP_ARG_MAX = 2.0 ** 60 * LN2


@dataclass(frozen=True)
class BoundParams:
    """Scalars feeding the triangular bound."""

    n: int
    norm_n: float
    gamma_minus: float
    gamma_plus: float

    def __post_init__(self):
        if as_size(self.n, "dimension") < 1:
            raise DomainError("dimension must be >= 1")
        if not self.norm_n >= 0:
            raise DomainError("||N|| must be nonnegative")


@dataclass(frozen=True)
class QtdsParams:
    """Scalars feeding the comparison bound (needs m >= 1 and l >= 1)."""

    norm_a: float
    m: int
    l: int
    gamma_minus: float
    gamma_plus: float

    def __post_init__(self):
        as_size(self.m, "m")
        as_size(self.l, "l")
        if not self.norm_a >= 0:
            raise DomainError("||A|| must be nonnegative")

    @property
    def gamma(self) -> float:
        return self.gamma_minus + self.gamma_plus


def h_eval(t: float, gamma_minus: float, gamma_plus: float) -> float:
    """The two-sided exponential envelope; both branches give 1 at t = 0."""
    if t >= 0:
        return math.exp(-gamma_minus * t)
    return math.exp(gamma_plus * t)


# --- numbers as mantissa * 2**exponent --------------------------------------

def _ldexp(m, e):
    """m * 2**e as floats: +inf above the float range, 0 below it."""
    with np.errstate(over="ignore"):
        return np.ldexp(m, c_exponent(e))


def _sum(m, e):
    """Sum of m * 2**e over the last axis, as (mantissa, exponent)."""
    top = np.where(m != 0, e, _EXP_ZERO).max(axis=-1)
    return np.ldexp(m, c_exponent(e - top[..., None])).sum(axis=-1), top


def _exp(y):
    """exp(y) as (mantissa, exponent), also far outside the float range."""
    y = np.clip(y, -_EXP_ARG_MAX, _EXP_ARG_MAX)
    q = np.where(np.abs(y) > 700.0, np.rint(y / LN2), 0.0)
    m, e = np.frexp(np.exp(y - q * LN2))
    return m, e + q.astype(np.int64)


def _cumprod(ratios):
    """Prefix products prod_{j<k} ratios[j], k = 0..len(ratios)."""
    m, e = [1.0], [0]
    for r in ratios:
        mant, shift = math.frexp(m[-1] * r)
        m.append(mant)
        e.append(e[-1] + shift)
    return np.array(m), np.array(e, dtype=np.int64)


def _powers(x: float, n: int):
    """x**k for k < n."""
    return _cumprod([float(x)] * (n - 1))


# --- the envelope-weight table -----------------------------------------------

def _series(u, n: int, gamma: float):
    """P_k(u) = h^{*(k+1)}(t) / h(t), u = |t|, for k < n on a 1-D grid u,
    as (mantissa, exponent), (T, n), with gamma = gamma_minus + gamma_plus:

        P_k(u) = sum_{j<=k} (k+j)! u^(k-j) / (k! j! (k-j)! gamma^j),

    through the reverse-Bessel-polynomial recurrence

        P_0 = 1,  P_1 = 2/gamma + u,
        P_k = 2(2k-1)/(gamma k) P_{k-1} + u^2/(k(k-1)) P_{k-2}.

    gamma = +inf (one-sided spectra) gives its limit P_k = u^k / k!, Van
    Loan's weights.  Every coefficient is nonnegative, so the forward
    recurrence loses no accuracy; the carried values are rescaled by a power
    of two after every step.  gamma enters as gamma 2^eg, eg = -998 - (the
    binary exponent of gamma), so 2(2k-1)/(gamma 2^eg k) <= 2^1001 cannot
    overflow; u enters as u 2^-e, e = max(binary exponent of u, eg), through
    P_k(u; gamma) = 2^(ke) P_k(u 2^-e; gamma 2^e), so u^2 neither overflows
    nor, for a tiny u, underflows.
    """
    k = np.arange(1, n)[:, None]
    eg = -998 - math.frexp(gamma)[1]
    e = np.maximum(np.frexp(u)[1], eg)
    u = np.ldexp(u, -e)
    a = np.ldexp(2.0 * (2 * k - 1) / (math.ldexp(gamma, eg) * k), eg - e)
    b = u * u / np.maximum(k * (k - 1), 1)
    if n > 1:
        b[0] = u  # P_1 = a_1 P_0 + u P_0
    cur = prev = np.ones_like(u)
    mants, shifts = [cur], [np.zeros(u.shape, dtype=np.int64)]
    for j in range(n - 1):
        nxt, shift = np.frexp(a[j] * cur + b[j] * prev)
        prev = np.ldexp(cur, -shift)
        cur = nxt
        mants.append(cur)
        shifts.append(shift)
    expo = np.cumsum(np.array(shifts), axis=0) + np.outer(np.arange(n), e)
    return np.stack(mants, axis=1), np.ascontiguousarray(expo.T)


def _band_layout(size: int):
    """(layout, start): layout[start[d]:start[d + 1]] are the flat indices
    of superdiagonal d of a size x size matrix, so the entries of
    superdiagonals d and above are the suffix layout[start[d]:]."""
    lengths = np.arange(size, 0, -1)
    start = np.concatenate([[0], np.cumsum(lengths)])
    rows = np.arange(start[-1]) - np.repeat(start[:-1], lengths)
    return rows * (size + 1) + np.repeat(np.arange(size), lengths), start


def _matrix_powers(nabs, layout, start):
    """Yield nabs^k as (P, e), nabs^k = 2**e * P with max(P) in [0.5, 1],
    for k = 0, 1, ... until the power vanishes, for a strictly upper
    triangular nabs.  P is the power's band, its entries on superdiagonals
    k and above in the order of ``_band_layout``: the rest is 0.

    The k-th power is zero outside rows [0, size - k) and columns
    [k, size), so each product multiplies only that block, and the next
    power overwrites the block in place.
    """
    size = nabs.shape[0]
    step = math.frexp(float(nabs.max()))[1]
    base = np.ldexp(nabs, -step)
    power, e = np.eye(size), 0
    for k in itertools.count():
        yield power.ravel()[layout[start[k]:]], e
        hi = size - k - 1  # rows of the next power: [0, hi)
        block = power[:hi, k:] @ base[k:, k + 1:]
        peak = float(block.max(initial=0.0))
        if peak == 0.0:
            return
        shift = math.frexp(peak)[1]
        power[:, k] = power[hi] = 0.0  # the k-th power's column k, row hi
        power[:hi, k + 1:] = np.ldexp(block, -shift, out=block)
        e += step + shift


@dataclass(frozen=True)
class EnvelopeTable:
    """Envelope weights W[t, k] = mant * 2**expo on a grid of times, k < n.

    Built by ``envelope_table``; the methods sum the weights against powers
    of a norm, arbitrary weights, or powers of a matrix.
    """

    mant: np.ndarray  # (T, n)
    expo: np.ndarray  # (T, n) int64

    def values(self) -> np.ndarray:
        """W as floats (+inf where a weight exceeds the float range)."""
        return _ldexp(self.mant, self.expo)

    def dot(self, wm, we) -> np.ndarray:
        """sum_k W[:, k] * wm[k] * 2**we[k], shape (T,)."""
        return _ldexp(*_sum(self.mant * wm, self.expo + we))

    def series(self, x: float) -> np.ndarray:
        """sum_k W[:, k] x^k for a norm x = ||N|| >= 0, shape (T,).

        x = +inf gives W[:, 0] where every k >= 1 weight is 0 and +inf
        elsewhere, not 0 * inf.  A NaN or negative x raises DomainError.
        """
        if not x >= 0:
            raise DomainError("||N|| must be nonnegative")
        if x == INF:
            return np.where((self.mant[:, 1:] == 0).all(axis=1),
                            self.values()[:, 0], INF)
        return self.dot(*_powers(x, self.mant.shape[1]))

    def packed_series(self, nabs):
        """sum_k W[:, k] nabs^k for a nonnegative strictly upper triangular
        nabs, on and above the diagonal: (sums, layout), where sums[:, j],
        shape (T, size (size + 1) / 2), is the entry at flat (row-major)
        index layout[j] of the size x size sum.

        Each power is formed once.  The entries are laid out superdiagonal
        by superdiagonal (``_band_layout``): nabs^k is 0 below
        superdiagonal k, so it is a suffix of that layout, and a batch of
        _BATCH_POWERS powers is one matrix product over the suffix of its
        first.  The weights times the power scales are grouped into
        exponent bands of width 2**1000.  Band 0 is summed in sums itself;
        a band above it is summed in its own scale and added, scaled back,
        at the end, so an entry overflows to +inf only when its own value
        does.
        """
        count, terms = self.mant.shape
        layout, start = _band_layout(nabs.shape[0])
        sums = np.zeros((count, layout.size))
        high = {}  # band above 0 -> its sums, in its own scale
        powers = _matrix_powers(nabs, layout, start)
        for first in range(0, terms, _BATCH_POWERS):
            lo = start[first]  # the batch's suffix of the layout
            stacked = np.zeros((min(_BATCH_POWERS, terms - first),
                                layout.size - lo))
            scales = []
            # zip takes a row before a power: none is drawn past the batch
            for row, (p, e) in zip(stacked, powers):
                row[row.size - p.size:] = p
                scales.append(e)
            if not scales:
                break
            ks = slice(first, first + len(scales))
            x = self.expo[:, ks] + np.array(scales)
            band = np.maximum((x - 1) // _BAND, 0)
            for b in np.unique(band):
                coef = np.where(band == b,
                                _ldexp(self.mant[:, ks], x - b * _BAND), 0.0)
                if lo == 0 and b == 0:  # sums is still 0: write, not add
                    np.matmul(coef, stacked[:len(scales)], out=sums)
                    continue
                acc = (sums if b == 0
                       else high.setdefault(b, np.zeros_like(sums)))
                acc[:, lo:] += np.matmul(coef, stacked[:len(scales)])
        for b, acc in high.items():
            sums += _ldexp(acc, b * _BAND)
        return sums, layout

    def matrix_series(self, nabs) -> np.ndarray:
        """sum_k W[:, k] nabs^k for a nonnegative strictly upper triangular
        nabs: ``packed_series`` unpacked, shape (T, n, n)."""
        return unpack(*self.packed_series(nabs), nabs.shape[0])


def unpack(sums, layout, size: int) -> np.ndarray:
    """``packed_series``' (sums, layout) as full (T, size, size) matrices."""
    total = np.zeros((len(sums), size * size))
    total[:, layout] = sums
    return total.reshape(-1, size, size)


def envelope_table(n: int, gamma_minus: float, gamma_plus: float,
                   ts) -> EnvelopeTable:
    """W[t, k] = P_k(|t|) e^{-rate |t|}, k < n, on a grid of times: P_k at
    the gap sum (``_series``), rate gamma_minus for t >= 0, else gamma_plus.

    Two-sided spectra (both gaps finite) give h^{*(k+1)}(t) and need both
    gaps > 0.  With one gap +inf the side it decays on gives h(t)|t|^k/k!
    and the other side (rate +inf) 0; a negative gap there gives the
    growing envelope e^{alpha t} of the Van Loan bound.  An n that is not
    an integer >= 1, a NaN gap, a gap of -inf, or a grid that ``as_times``
    rejects raises DomainError.
    """
    if as_size(n, "dimension") < 1:
        raise DomainError("dimension must be >= 1")
    if not (gamma_minus > -INF and gamma_plus > -INF):
        raise DomainError("spectral gaps must not be NaN or -inf")
    if max(gamma_minus, gamma_plus) < INF and min(gamma_minus, gamma_plus) <= 0:
        raise DomainError("a two-sided envelope needs both gaps > 0")
    ts = as_times(ts)
    u, rate = np.abs(ts), np.where(ts >= 0, gamma_minus, gamma_plus)
    fm, fe = _series(u, n, gamma_minus + gamma_plus)
    live = rate < INF
    with np.errstate(over="ignore"):  # rate * u beyond the range is inf
        hm, he = _exp(-np.where(live, rate, 0.0) * u)
    return EnvelopeTable(fm * np.where(live, hm, 0.0)[:, None],
                         fe + he[:, None])


# --- public bounds -------------------------------------------------------------

def conv_power_poly(k: int, u: float, gamma: float) -> float:
    """The degree-(k-1) polynomial factor P_{k-1}(u) of h^{*k}.

    Coefficient of u^(k-1-j) is (k-1+j)! / ((k-1)! j! (k-1-j)! gamma^j); the
    leading coefficient is 1/(k-1)!, and gamma = +inf leaves u^(k-1)/(k-1)!.
    The empty polynomial (k < 1) is 0; a non-integral k, a u < 0, NaN or
    inf, or a gamma that is NaN or <= 0 raises DomainError.
    """
    u = as_times([u])  # u = |t| is a time
    if u[0] < 0:
        raise DomainError(f"u = |t| must be >= 0, got {float(u[0])!r}")
    if not gamma > 0:
        raise DomainError("gamma must be > 0")
    if as_size(k, "convolution power") < 1:
        return 0.0
    m, e = _series(u, k, gamma)
    return float(_ldexp(m[0, -1], e[0, -1]))


def conv_power_closed(
    k: int, t: float, gamma_minus: float, gamma_plus: float, method: str = "poly"
) -> float:
    """h^{*k}(t), the k-fold self-convolution of the envelope, in closed form.

    ``method="poly"`` reads h(t) P_{k-1}(|t|) (``conv_power_poly``) off
    ``envelope_table``, exact for every real t including 0.
    ``method="bessel"`` evaluates the equivalent Bessel-product form
    (``oracles.conv_power_bessel``; cross-check only, singular at t = 0).
    """
    if as_size(k, "convolution power") < 1:
        raise DomainError("convolution power must be >= 1")
    if gamma_minus <= 0 or gamma_plus <= 0 or gamma_minus == INF or gamma_plus == INF:
        raise DomainError("both gaps must be finite and positive")
    if method == "poly":
        table = envelope_table(k, gamma_minus, gamma_plus, [t])
        return float(table.values()[0, -1])
    if method == "bessel":
        from .oracles import conv_power_bessel

        return conv_power_bessel(k, t, gamma_minus, gamma_plus)
    raise ValueError(f"unknown method {method!r}")


def triangular_bound(params: BoundParams, t: float) -> float:
    """Upper bound on ||G(B, t)||: sum_k ||N||^k h^{*(k+1)}(t).

    One-sided spectra degrade gracefully: with gamma_plus = +inf and t > 0 the
    bound becomes the truncated-exponential (Van Loan style) form; the side
    with no spectrum returns 0.
    """
    table = envelope_table(params.n, params.gamma_minus, params.gamma_plus,
                           nonzero_times([t]))
    return float(table.series(params.norm_n)[0])


def entrywise_bound(
    d, n_mat, gamma_minus: float, gamma_plus: float, t: float
) -> np.ndarray:
    """Entrywise bound matrix: sum_k |N|^k h^{*(k+1)}(t).

    Dominates |G(B, t)| entrywise (1- and inf-norm contexts).  The series
    stops at the nilpotency index of |N|.  ``d``, the diagonal part of B,
    is ignored: the gaps carry all the bound reads of it.
    """
    ts = nonzero_times([t])
    strict = require_strictly_triangular(n_mat)
    table = envelope_table(strict.shape[0], gamma_minus, gamma_plus, ts)
    return table.matrix_series(np.abs(strict))[0]


def van_loan_bound(alpha: float, norm_n: float, n: int, t: float) -> float:
    """||e^{At}|| <= e^{alpha t} sum_{k<n} ||N t||^k / k!  for t >= 0.

    Like ``BoundParams``, a NaN or negative ||N||, and n < 1, raise
    DomainError, and so does alpha = +inf or NaN (``envelope_table``)."""
    if t < 0:
        raise DomainError("van_loan_bound requires t >= 0")
    return float(envelope_table(n, -alpha, INF, [t]).series(norm_n)[0])


def _qtds_weights(outer: int, inner: int, two_a: float, gamma: float):
    """w_p, p < outer, with qtds18 = sum_p w_p e^{-gap u} u^p / p!.

    Summing the double series over p = j - i first gives
    w_p = (2||A||)^p sum_{i < outer-p} C(inner+i-1, i) (2||A||/gamma)^(inner+i).
    """
    a = two_a / gamma
    bm, be = _cumprod([(inner + i) / (i + 1) * a for i in range(outer - 1)])
    am, ae = _powers(a, inner + 1)
    # row p sums the terms i < outer - p
    sm, se = _sum(np.where(np.tri(outer, dtype=bool)[::-1], bm * am[-1], 0.0),
                  be + ae[-1])
    pm, pe = _powers(two_a, outer)
    return pm * sm, pe + se


def qtds18_grid(params: QtdsParams, ts) -> np.ndarray:
    """qtds18_bound on a grid of nonzero times; the gaps must be > 0."""
    ts = nonzero_times(ts)
    m, l, gm, gp = params.m, params.l, params.gamma_minus, params.gamma_plus
    if m < 1 or l < 1:
        raise Inapplicable("bound requires eigenvalues in both half-planes")
    if INF in (gm, gp):
        raise Inapplicable("bound requires finite gaps on both sides")
    if not (gm > 0 and gp > 0):
        raise DomainError("both gaps must be > 0")
    two_a = 2.0 * params.norm_a
    if two_a == INF:  # gamma <= 2 rho(A) <= 2 ||A|| may overflow too
        return np.full(ts.shape, INF)
    # each side reads the one-sided table u^k / k! e^{-gap u} of its gap
    out = np.empty(ts.shape)
    for side, outer, inner, gaps in ((ts > 0, m, l, (gm, INF)),
                                     (ts < 0, l, m, (INF, gp))):
        table = envelope_table(outer, *gaps, ts[side])
        out[side] = table.dot(*_qtds_weights(outer, inner, two_a, gm + gp))
    return out


def qtds18_bound(params: QtdsParams, t: float) -> float:
    """Comparison bound from the half-plane eigenvalue counts.

    For t > 0:
        e^{-gamma_minus t} sum_{j<m} sum_{i<=j} C(l+i-1, l-1)
            t^{j-i}/(j-i)! (2||A||)^{l+j} / gamma^{l+i}
    and the mirrored formula (m <-> l, t -> -t) for t < 0.
    """
    return float(qtds18_grid(params, [t])[0])
