"""Exact Green's function of the bounded-solutions problem.

For x'(t) = A x(t) + f(t) with the spectrum of A off the imaginary axis, the
unique bounded solution is the convolution of f with the kernel

    G(A, t) = e^{At} P-   (t > 0),      G(A, t) = -e^{At} P+   (t < 0),

where P-/P+ are the spectral projectors onto the invariant subspaces of the
left/right half-plane eigenvalues.  The projectors come from the matrix sign
function via a scaled Newton iteration, whose steps invert a triangular
iterate with LAPACK trtri and any other with one LU.  The exponential is
scaling and squaring around a degree-30 Taylor polynomial: A is balanced and
scaled by powers of two to B with norm_inf(B) < 1, the powers of B are
tabulated, and each time reads e^{cB}, |c| alpha <= 3, off the table.  alpha
bounds norm(B^k)^(1/k) for every k >= 31 and is read off the table's B^4 and
B^5 or B^6 and B^7 (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009,
Thm 4.2), so the Taylor tail stays below 3^31 / 31! e^3 with fewer
squarings than norm_inf(B) asks for when B is non-normal; the longer table
and wider range trade table products once per kernel for squarings at every
time (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011, Sec. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DomainError,
    FloatOverflow,
    SingularIteration,
    SpectrumOnAxis,
    UndefinedAtZero,
)
from .matcore import (as_matrix, binary_scale, induced_norm, ldexp,
                      split_triangular)

AXIS_RTOL = 1e-12
SIGN_RTOL = 1e-13
SIGN_MAX_ITER = 100
GAUSS_NODES = 16
# Gauss-Legendre nodes and weights on [-1, 1], built once
GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(GAUSS_NODES)
# e^X = sum_j X^j / j! to this degree, for norm(X^k)^(1/k) <= TAYLOR_RANGE
# for every k >= 31: the tail is at most 3^31 / 31! e^3 < 1.6e-18, below
# the unit roundoff.  The terms are summed from the highest power down,
# smallest first.
TAYLOR_DEGREE = 30
TAYLOR_RANGE = 3.0
TAYLOR_POWERS = np.arange(TAYLOR_DEGREE, -1, -1)
TAYLOR_FACTORIALS = np.array(
    [float(math.factorial(j)) for j in TAYLOR_POWERS])
# GreenKernel keeps alpha at least this, so that |c| <= 2^34 and the
# coefficient c^30 stays finite
ALPHA_MIN = TAYLOR_RANGE * 2.0 ** -34
# bounded_solution holds at most this many complex values of f at once
# (1 MiB), whatever the panel count; one panel's nodes if n > 4096
FORCING_BLOCK = 2 ** 16
# GreenKernel.block holds at most this many complex values per array (256
# KiB): a block of KERNEL_BLOCK // n^2 times, one time from n = 128 on
KERNEL_BLOCK = 2 ** 14

INF = float("inf")


@dataclass(frozen=True)
class SpectralSplit:
    """Dichotomy data read off the spectrum.

    gamma_minus / gamma_plus are the distances from the imaginary axis to the
    left / right part of the spectrum (+inf when that part is empty); alpha is
    the largest real part; m and l count left/right eigenvalues.
    """

    gamma_minus: float
    gamma_plus: float
    alpha: float
    m: int
    l: int

    @property
    def gamma(self) -> float:
        return self.gamma_minus + self.gamma_plus


def spectral_gaps_from_eigenvalues(eigs) -> SpectralSplit:
    """Build a SpectralSplit from an eigenvalue multiset.

    Raises SpectrumOnAxis when an eigenvalue's real part is within
    ``1e-12 * max|eig|`` of zero.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    re = eigs.real
    axis_tol = AXIS_RTOL * scale
    if np.any(np.abs(re) <= axis_tol):
        bad = eigs[np.abs(re) <= axis_tol]
        raise SpectrumOnAxis(
            f"eigenvalue {bad[0]} lies on the imaginary axis (tol {axis_tol:g})"
        )
    left = re[re < 0]
    right = re[re > 0]
    return SpectralSplit(
        gamma_minus=float(-left.max()) if left.size else INF,
        gamma_plus=float(right.min()) if right.size else INF,
        alpha=float(re.max()),
        m=int(left.size),
        l=int(right.size),
    )


def spectral_gaps(t_mat) -> SpectralSplit:
    """Gaps and half-plane counts of an upper triangular matrix."""
    d, _ = split_triangular(t_mat)
    return spectral_gaps_from_eigenvalues(np.diag(d))


def _determinant_scale(diag) -> tuple[float, float]:
    """(mu, 2^q) with mu 2^q = |prod diag|^(-1/n), the Newton step's
    determinant scaling read off a triangular factor's diagonal.  mu is
    e^(log mu - q ln 2): e^(log mu) overflows once the diagonal's geometric
    mean is subnormal."""
    log_mu = -np.log(np.abs(diag)).mean()
    q = max(0, math.ceil((log_mu - 700) / math.log(2)))
    return math.exp(log_mu - q * math.log(2)), 2.0 ** q


def _triangular_step(s):
    """mu S + (mu S)^-1 for an upper triangular S, with mu off its diagonal
    and (mu S)^-1 from LAPACK trtri; the result is upper triangular."""
    trtri, = scipy.linalg.lapack.get_lapack_funcs(("trtri",), (s,))

    def step(s):
        diag = s.diagonal()
        if not diag.all():
            raise SingularIteration("sign iteration hit a singular iterate")
        mu, two_q = _determinant_scale(diag)
        scaled = mu * s * two_q
        inv, info = trtri(scaled)
        if info > 0:
            raise SingularIteration("sign iteration hit a singular iterate")
        return scaled + inv

    return step


def _lu_step(s):
    """mu S + (mu S)^-1 for any S from one LU S = P L U: mu off U's
    diagonal, and getri of P L (mu U) gives (mu S)^-1."""
    upper = np.triu(np.ones(s.shape, dtype=bool))  # U's half of getrf's LU
    getrf, getri, getri_lwork = scipy.linalg.lapack.get_lapack_funcs(
        ("getrf", "getri", "getri_lwork"), (s,))
    lwork = int(getri_lwork(len(s))[0].real)

    def step(s):
        lu, piv, info = getrf(s)
        if info > 0:
            raise SingularIteration("sign iteration hit a singular iterate")
        mu, two_q = _determinant_scale(lu.diagonal())
        for factor in (mu, two_q):
            np.multiply(lu, factor, out=lu, where=upper)
        inv, _ = getri(lu, piv, lwork=lwork, overwrite_lu=True)
        return mu * s * two_q + inv

    return step


def matrix_sign(a) -> np.ndarray:
    """Matrix sign by Newton iteration with determinant scaling,
    S <- (mu S + (mu S)^-1) / 2 with mu = |det S|^(-1/n).  An upper
    triangular S stays triangular: mu is read off its diagonal and LAPACK
    trtri inverts mu S.  Any other S takes one LU per step, which gives
    both mu and (mu S)^-1.  Either way (mu S)^-1 is finite where S^-1 may
    overflow."""
    s = as_matrix(a)
    # sign(2^e S) = sign(S): an S whose entries are all below 1/2 is scaled
    # up, exactly, so that its largest entry is at least 1/2 and no
    # subnormal S reaches LAPACK, whose LU mishandles subnormal pivots
    s = ldexp(s, -min(0, math.frexp(np.abs(s).max())[1]))
    step = (_lu_step if np.tril(s, -1).any() else _triangular_step)(s)
    with np.errstate(all="ignore"):  # checked per step
        for _ in range(SIGN_MAX_ITER):
            s_next = 0.5 * step(s)
            if not np.isfinite(s_next).all():
                raise FloatOverflow("matrix sign iterate overflows")
            delta = induced_norm(s_next - s, np.inf)
            s = s_next
            if delta <= SIGN_RTOL * induced_norm(s, np.inf):
                return s
    raise ConvergenceFailure("matrix sign Newton iteration did not converge")


def spectral_projectors(a) -> tuple[np.ndarray, np.ndarray]:
    """(P-, P+) from the matrix sign function: P∓ = (I ∓ sign(A)) / 2."""
    a = as_matrix(a)
    s = matrix_sign(a)
    eye = np.eye(a.shape[0], dtype=complex)
    return 0.5 * (eye - s), 0.5 * (eye + s)


def matrix_exp(a) -> np.ndarray:
    """e^A by ``scipy.linalg.expm``.

    That is Al-Mohy & Higham's scaling and squaring (2009): the Pade degree
    (3 to 13) and the number of squarings come from 1-norm estimates.
    """
    return scipy.linalg.expm(as_matrix(a))


class GreenKernel:
    """Green's function evaluator for a fixed coefficient matrix.

    Balances A once to S^-1 A S with S a diagonal of powers of two (LAPACK
    gebal), so one large entry cannot set the squaring count, and builds
    the projectors and the Taylor table of the balanced matrix; ``block``
    maps G back as S G S^-1, exactly.  No other state is kept, so every call
    returns a fresh array.  The table holds B^0 .. B^30 for B the balanced
    matrix over 2^k, 2^k the power of two just above its norm_inf.  alpha
    is the least of norm_inf(B) and, for p = 4 and 6, the larger of
    (norm_inf(B^j) + rho_j)^(1/j) over j = p, p + 1, with rho_j bounding
    the rounding of the computed B^j; every k >= 31 is pa + (p + 1)b, so
    norm(B^k) <= alpha^k and the Taylor tail of e^{cB} is at most
    3^31 / 31! e^3 where |c| alpha <= TAYLOR_RANGE = 3.  alpha is at least
    ALPHA_MIN, so the Taylor coefficients stay finite.  With the spectrum on
    one side, one projector is 0 and the other I, and the kernel makes no
    product with either.
    """

    def __init__(self, a, split: SpectralSplit | None = None):
        self.a = as_matrix(a)
        if split is None:
            split = spectral_gaps_from_eigenvalues(np.linalg.eigvals(self.a))
        self.split = split
        # only gebal's scales are kept: it scales a row and then a column,
        # so a tiny diagonal entry can underflow on the way; S^-1 A S is
        # A 2^(e_j - e_i), one exact ldexp per entry
        gebal, = scipy.linalg.lapack.get_lapack_funcs(("gebal",), (self.a,))
        scale = gebal(self.a, scale=1, permute=0)[3]
        e = np.frexp(scale)[1]
        shift = e[:, None] - e[None, :]
        balanced = ldexp(self.a, -shift)
        # S G S^-1 = G 2^(e_i - e_j) as two exact factors 2^h of one sign:
        # gebal keeps the scales within 2^±970, so each half h fits a float
        half = shift // 2
        self.unscale = np.ldexp(1.0, half), np.ldexp(1.0, shift - half)
        if split.m == 0:
            self.p_minus = np.zeros_like(self.a)
            self.p_plus = np.eye(self.a.shape[0], dtype=complex)
        elif split.l == 0:
            self.p_minus = np.eye(self.a.shape[0], dtype=complex)
            self.p_plus = np.zeros_like(self.a)
        else:
            self.p_minus, self.p_plus = spectral_projectors(balanced)
        self.k, b = binary_scale(balanced)
        # row i of the table is B^TAYLOR_POWERS[i], flattened
        n = b.shape[0]
        self.table = np.empty((TAYLOR_DEGREE + 1, n * n), dtype=complex)
        powers = self.table.reshape(-1, n, n)
        powers[-1] = np.eye(n)
        for i in range(TAYLOR_DEGREE, 0, -1):
            np.matmul(powers[i], b, out=powers[i - 1])
        # alpha = min(norm_inf(B), alpha_4, alpha_6), alpha_p the larger
        # of (norm_inf(B^j) + rho_j)^(1/j) over j = p, p + 1: p (p - 1) <= 31,
        # so every k >= 31 is a sum of p's and (p + 1)'s and
        # norm(B^k) <= alpha_p^k; norm_inf(B) is the same bound for p = 1.
        # rho_j = 4 j n u w_j, u = 2^-53 and w_j the computed
        # norm_inf(|B|^j) = max(|B|^j 1), bounds the rounding of the
        # computed B^j: each complex product errs by at most
        # sqrt(2) gamma_2n |X| |B|, so the chain errs by at most
        # ((1 + 2.83 n u)^(j-1) - 1) |B|^j, and 4 j n u also covers the
        # rounding of w_j, of the norms and of the root.  Underflow in these
        # chains is far below ALPHA_MIN^7
        abs_b, w, sums = np.abs(b), np.ones(n), []
        for _ in range(7):
            w = abs_b @ w
            sums.append(w.max())
        j = np.arange(7, 3, -1)  # B^7, B^6, B^5, B^4
        norms = induced_norm(powers[TAYLOR_DEGREE - 7:TAYLOR_DEGREE - 3],
                             np.inf)
        rho = 4 * j * n * 2.0 ** -53 * np.take(sums, j - 1)
        roots = (norms + rho) ** (1 / j)
        self.alpha = max(ALPHA_MIN, min(induced_norm(b, np.inf),
                                        roots[2:].max(), roots[:2].max()))

    def at(self, t: float) -> np.ndarray:
        """G(t); inf/NaN where it leaves the float range (``along`` checks)."""
        return self.block([t])[0]

    def block(self, ts) -> np.ndarray:
        """G(t) for each t in ts, stacked (len(ts), n, n); inf/NaN where G
        leaves the float range (``blocks`` checks).

        Plain e^{At} P cancels catastrophically once the discarded half of
        the spectrum makes e^{At} large, so square up s times from
        e^{At/2^s}, and reproject after every squaring; the retained modes
        decay and the others' contamination cannot amplify.  At / 2^s = cB
        with the exact scalar c = t 2^(k-s), and s (``squarings``) is the
        least count with |c| alpha <= TAYLOR_RANGE, so e^{cB} is the Taylor
        sum over the table.  A is the balanced matrix here.  On a side with
        no spectrum P = 0 and G is 0, with no Taylor sum; where the other
        side has none, P = I and the squares are not reprojected.

        The times are taken KERNEL_BLOCK // n^2 at a time (one from
        n = 128 on).  Each time keeps its own arithmetic: one GEMV for its
        Taylor sum, one product with P and two products per squaring (one
        product per squaring where P = I).  On each side of 0 the times are
        sorted by s, so those still squaring are a prefix and each squaring
        is stacked products with P broadcast.
        """
        ts = np.asarray(ts, dtype=float)
        if (ts == 0).any():
            raise UndefinedAtZero("Green's function is undefined at t = 0")
        bad = ts[~np.isfinite(ts)]
        if bad.size:
            raise DomainError(f"t must be finite, got {float(bad[0])!r}")
        n = self.a.shape[0]
        g = np.empty((ts.size, n, n), dtype=complex)
        for part in self._parts(ts.size):
            self._fill(ts[part], g[part])
        return g

    def _parts(self, count: int) -> list:
        """Slices of range(count), KERNEL_BLOCK // n^2 (at least 1) long."""
        n = self.a.shape[0]
        per = max(1, KERNEL_BLOCK // (n * n))
        return [slice(lo, lo + per) for lo in range(0, count, per)]

    def squarings(self, ts) -> np.ndarray:
        """The squaring count s of each nonzero finite t: the least s >= 0
        with |t| 2^(k-s) alpha <= TAYLOR_RANGE.  alpha |t| 2^k = m 2^(e + k
        + et), the product taken as floats, so s holds where that
        overflows, and m 2^(e + k + et - s) is compared with TAYLOR_RANGE =
        m_r 2^e_r exactly."""
        m_r, e_r = math.frexp(TAYLOR_RANGE)
        mt, et = np.frexp(np.abs(ts))
        m, e = np.frexp(self.alpha * mt)
        return np.maximum(0, e + self.k + et - e_r + (m > m_r))

    def _fill(self, ts, g):
        """Write G(t) for one block of nonzero finite times into g."""
        n = g.shape[-1]
        s = self.squarings(ts)
        # t > 0 first, each side by descending s
        order = np.lexsort((-s, ts < 0))
        ts, s = ts[order], s[order]
        coef = np.ldexp(ts, self.k - s)[:, None] ** TAYLOR_POWERS
        coef = (coef / TAYLOR_FACTORIALS).astype(complex)
        sq = np.empty((ts.size, n, n), dtype=complex)  # e^{cB}, the squares
        r = np.empty_like(sq)
        mid = np.count_nonzero(ts > 0)
        for lo, hi, p, occupied in ((0, mid, self.p_minus, self.split.m),
                                    (mid, ts.size, self.p_plus, self.split.l)):
            if lo == hi:
                continue
            if not occupied:  # P = 0
                r[lo:hi] = 0
                continue
            for row, c in zip(sq[lo:hi].reshape(-1, n * n), coef[lo:hi]):
                np.matmul(c, self.table, out=row)
            identity = occupied == n  # P = I: nothing to reproject
            if not identity:
                np.matmul(sq[lo:hi], p, out=r[lo:hi])
            for j in range(s[lo]):
                live = slice(lo, lo + np.count_nonzero(s[lo:hi] > j))
                if identity:  # the squares alternate between sq and r
                    src, dst = (sq, r) if j % 2 == 0 else (r, sq)
                    np.matmul(src[live], src[live], out=dst[live])
                else:
                    np.matmul(r[live], r[live], out=sq[live])
                    np.matmul(p, sq[live], out=r[live])
            if identity:
                even = lo + np.flatnonzero(s[lo:hi] % 2 == 0)
                r[even] = sq[even]
        for factor in self.unscale:
            r *= factor
        np.negative(r[mid:], out=r[mid:])
        g[order] = r

    def blocks(self, ts):
        """Yield G over ts as consecutive stacks of at most KERNEL_BLOCK
        values each, computed with numpy's overflow warnings off.  At the
        first G(t) beyond the float range, the finite ones before it are
        yielded and FloatOverflow is raised.  The caller's settings hold
        while a stack is yielded."""
        ts = np.asarray(ts, dtype=float)
        for part in self._parts(ts.size):
            with np.errstate(over="ignore", invalid="ignore"):
                g = self.block(ts[part])
            bad = np.flatnonzero(~np.isfinite(g).all(axis=(1, 2)))
            if not bad.size:
                yield g
                continue
            if bad[0]:
                yield g[:bad[0]]
            raise FloatOverflow(
                f"G(t) overflows at t={float(ts[part][bad[0]])!r}")

    def along(self, ts):
        """Yield G(t) for each t in ts, as ``blocks`` does: G(t) beyond the
        float range raises FloatOverflow, and the caller's settings hold
        while a G(t) is yielded."""
        for g in self.blocks(ts):
            yield from g


def green_function(a, t: float) -> np.ndarray:
    """G(A, t) for a single time; builds a throwaway kernel."""
    return next(GreenKernel(a).along([t]))


def default_quad(split: SpectralSplit) -> tuple[float, int]:
    """(radius, panels): the h-envelope tail beyond the radius is below 1e-12,
    and the panels are at most min(1, 1/gamma) wide."""
    finite = [g for g in (split.gamma_minus, split.gamma_plus) if g != INF]
    radius = -math.log(1e-12) / min(finite)
    width = min(1.0, 1.0 / sum(finite))
    return radius, max(1, math.ceil(radius / width))


def bounded_solution(a, f, t: float) -> np.ndarray:
    """Bounded solution x(t) = integral of G(A, s) f(t - s) ds.

    f maps a real time to a vector of length n and must be bounded and
    continuous.  The panels have width h = radius / panels, both numbers
    from ``default_quad`` of the spectral split.

    On one side of 0 the kernel is a semigroup: G(a + d) = G(a) G(d) for
    a, d > 0 and G(a + d) = -G(a) G(d) for a, d < 0.  On the side of sign s
    panel j holds the nodes s (j h + d_i), d_i the 16 Gauss-Legendre nodes
    of [0, h], and s G(s j h) = M^j with M = s G(s h).  With
    y_j = sum_i w_i G(s d_i) f(t - s j h - s d_i), each side is a Horner
    sum, evaluated from the far panel inward:

        x_side = y_0 + M (y_1 + M (y_2 + ...)).

    Each occupied side costs GAUSS_NODES + 1 kernel evaluations, taken as
    one ``GreenKernel.block``.  f is evaluated a block of panels at a time,
    far panel first, the block holding at most FORCING_BLOCK complex
    values, and one matrix product gives y_j for every panel of the block;
    the carry, one matrix-vector product, is the only per-panel step.  G
    is never asked for at 0.
    Raises ValueError when f does not return shape (n,) and DomainError,
    before any kernel or f call, when t is not finite.
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    kernel = GreenKernel(a)
    n = kernel.a.shape[0]
    radius, panels = default_quad(kernel.split)
    h = radius / panels
    delta = 0.5 * h * (1.0 + GAUSS_X)
    weights = 0.5 * h * GAUSS_W
    per_block = max(1, FORCING_BLOCK // (GAUSS_NODES * n))
    far_first = np.arange(panels - 1, -1, -1)
    x = np.zeros(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once below
        for sign, occupied in ((1.0, kernel.split.m), (-1.0, kernel.split.l)):
            if not occupied:
                continue
            g = kernel.block(sign * np.append(delta, h))
            inner = g[:-1] * weights[:, None, None]
            # column i n + l is w_i G(s d_i)[:, l]: y_j = inner @ panel j's f
            inner = inner.transpose(1, 0, 2).reshape(n, -1)
            carry = sign * g[-1]  # M
            first = t - sign * delta  # f's arguments on panel 0
            acc = np.zeros_like(x)
            for lo in range(0, panels, per_block):
                js = far_first[lo:lo + per_block]
                args = first - (sign * js)[:, None] * h
                vals = np.array([f(s) for s in args.ravel()], dtype=complex)
                if vals.shape != (args.size, n):
                    raise ValueError(f"f must return shape ({n},), "
                                     f"got shape {vals.shape[1:]}")
                for y in vals.reshape(js.size, -1) @ inner.T:
                    acc = y + carry @ acc
            x += acc
    if not np.isfinite(x).all():
        raise FloatOverflow(f"bounded solution overflows at t={float(t)!r}")
    return x
