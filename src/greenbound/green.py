"""Exact Green's function of the bounded-solutions problem.

For x'(t) = A x(t) + f(t) with the spectrum of A off the imaginary axis, the
unique bounded solution is the convolution of f with the kernel

    G(A, t) = e^{At} P-   (t > 0),      G(A, t) = -e^{At} P+   (t < 0),

where P-/P+ are the spectral projectors onto the invariant subspaces of the
left/right half-plane eigenvalues.  Everything runs on an upper triangular
T: a dense A is reduced once to its Schur form A = Q T Q^H and G is mapped
back as Q G(T) Q^H.  The projectors come from sign(T), computed directly
(Higham, Functions of Matrices, SIAM 2008, Sec. 5.2).  The exponential is
scaling and squaring around a degree-30 Taylor polynomial, read off a table
of powers of T balanced and scaled to B, with the squaring count set by
bounds on norm(B^k)^(1/k) (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
2009, Thm 4.2; SIAM J. Sci. Comput. 33, 2011, Sec. 3).  The balancing
scales are LAPACK zgebal's, computed in house by whole sweeps
(``balance``), so a triangular A imports no scipy inside the sweeps'
domain; beyond it they are LAPACK's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balance import balance_exponents
from .errors import (ConvergenceFailure, DomainError, FloatOverflow,
                     SpectrumOnAxis)
from .matcore import (EXPONENT_CLIP, as_matrix, as_times, binary_scale,
                      c_exponent, induced_norm, ldexp, nonzero_times,
                      norm_kind, split_triangular)
from . import schur

AXIS_RTOL = 1e-12
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
# GreenKernel._fill holds at most this many complex values per array (256
# KiB): a block of KERNEL_BLOCK // n^2 times, one time from n = 128 on
KERNEL_BLOCK = 2 ** 14
# _triangular_sign scales T to norm_inf in [2^(this - 1), 2^this)
SIGN_EXPONENT = 512

INF = float("inf")


@dataclass(frozen=True)
class SpectralSplit:
    """Dichotomy data read off the spectrum.

    gamma_minus / gamma_plus are the distances from the imaginary axis to the
    left / right part of the spectrum (+inf when that part is empty); alpha is
    the largest real part; m and l count left/right eigenvalues; rho is the
    largest modulus.
    """

    gamma_minus: float
    gamma_plus: float
    alpha: float
    m: int
    l: int
    rho: float

    @property
    def gamma(self) -> float:
        return self.gamma_minus + self.gamma_plus


def spectral_gaps_from_eigenvalues(eigs) -> SpectralSplit:
    """Build a SpectralSplit from an eigenvalue multiset.

    Raises SpectrumOnAxis when an eigenvalue's real part is within
    ``1e-12 * max|eig|`` of zero.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    re = eigs.real
    rho = float(np.abs(eigs).max()) if eigs.size else 0.0
    axis_tol = AXIS_RTOL * rho
    near = np.abs(re) <= axis_tol
    if near.any():
        raise SpectrumOnAxis(f"eigenvalue {eigs[near][0]} lies on the "
                             f"imaginary axis (tol {axis_tol:g})")
    left, right = re[re < 0], re[re > 0]
    return SpectralSplit(
        gamma_minus=float(-left.max()) if left.size else INF,
        gamma_plus=float(right.min()) if right.size else INF,
        alpha=float(re.max()), m=int(left.size), l=int(right.size), rho=rho)


def spectral_gaps(t_mat) -> SpectralSplit:
    """Gaps and half-plane counts of an upper triangular matrix."""
    d, _ = split_triangular(t_mat)
    return spectral_gaps_from_eigenvalues(np.diag(d))


def _triangular_sign(t) -> np.ndarray:
    """sign(T) of an upper triangular T by the Schur method (Higham,
    Functions of Matrices, SIAM 2008, Sec. 5.2), one superdiagonal at a
    time and with no iteration.

    u_ii = sign Re t_ii.  For i < j a pair on one side of the axis follows
    from U^2 = I, (u_ii + u_jj) u_ij = -(U U)_ij, a division by +-2, and a
    pair on opposite sides from T U = U T, (t_ii - t_jj) u_ij =
    (U T - T U)_ij, a division by at least gamma- + gamma+.  The sums run
    over i <= k <= j, u_ij still 0, on band copies of U and T stacked:
    rows[:, i] holds x[i, i:] and cols[:, j] x[j::-1, j], so one einsum
    takes a superdiagonal's U U and T U sums and one more its U T, and U
    is assembled from its band after the last.  T is scaled by a power of
    two to norm_inf in [2^511, 2^512): no entry flushes unless T spans
    2^1533, and norm(U) norm(T) passes the float range only where
    norm(U)^2 does.
    Each quotient is Python's complex division, which divides by
    t_ii - t_jj; numpy forms the reciprocal, which overflows where that is
    subnormal.  A difference the scaling flushes to 0 raises FloatOverflow."""
    sign = np.sign(np.diag(t).real)
    if not sign.all():
        raise SpectrumOnAxis(f"eigenvalue {np.diag(t)[sign == 0][0]} lies "
                             "on the imaginary axis")
    if (sign == sign[0]).all():  # one side: sign(T) = +-I
        return sign[0] * np.eye(t.shape[0], dtype=complex)
    t = ldexp(t, SIGN_EXPONENT - binary_scale(t)[0])
    n, d, idx = t.shape[0], np.diag(t), np.arange(t.shape[0])
    right, up = idx[:, None] + idx, idx[:, None] - idx
    rows, cols = np.zeros((2, 2, n, n), complex)  # [U; T] band copies
    rows[1] = np.where(right < n, t[idx[:, None], right % n], 0)
    cols[1] = np.where(up >= 0, t[up % n, idx[:, None]], 0)
    rows[0, :, 0] = cols[0, :, 0] = sign
    same = sign[:, None] == sign
    den = np.where(same, 2 * sign[:, None], d[:, None] - d)
    if not den.all():
        raise FloatOverflow("matrix sign: a gap t_ii - t_jj underflows")
    with np.errstate(all="ignore"):  # checked once below
        for p in range(1, n):
            r, c = rows[:, :n - p, :p + 1], cols[:, p:, p::-1]
            square, tu = np.einsum("aik,ik->ai", r, c[0])
            ut = np.einsum("ik,ik->i", r[0], c[1])
            num = np.where(np.diagonal(same, p), -square, ut - tu)
            rows[0, :n - p, p] = cols[0, p:, p] = [
                x / y for x, y in zip(num.tolist(),
                                      np.diagonal(den, p).tolist())]
    i, k = np.nonzero(right < n)
    u = np.zeros((n, n), complex)
    u[i, i + k] = rows[0, i, k]
    if not np.isfinite(u).all():
        raise FloatOverflow("matrix sign overflows")
    return u


def _triangular_form(a, vectors=True) -> tuple[np.ndarray | None, np.ndarray]:
    """(Q, T) with A = Q T Q^H and T upper triangular, from one
    ``schur_decompose``, the package's one reduction of a dense A; (None, A)
    where A is upper triangular already, and Q is None for vectors=False.
    Raises SpectrumOnAxis where |Re t_ii| is within the QR iteration's
    backward error, AXIS_RTOL times norm_inf of the block gees iterates on;
    the eigenvalues its permutation (gebal, job P) isolates are exact."""
    a = as_matrix(a)
    if not np.tril(a, -1).any():
        return None, a
    form = schur.schur_decompose(a, vectors)
    permuted, lo, hi = schur.lapack("gebal", a)(a, permute=1, scale=0)[:3]
    if hi > lo:  # a 1 x 1 block is not iterated on either
        k, block = binary_scale(permuted[lo:hi + 1, lo:hi + 1])
        eigs = np.diag(form.t)[lo:hi + 1]
        near = (np.abs(np.ldexp(eigs.real, -k))
                <= AXIS_RTOL * induced_norm(block, np.inf))
        if near.any():
            raise SpectrumOnAxis(f"eigenvalue {eigs[near][0]} lies on the "
                                 "imaginary axis to Schur's accuracy")
    return form.q, form.t


def matrix_sign(a) -> np.ndarray:
    """Matrix sign, computed directly: an upper triangular A by the Schur
    method, any other A as Q sign(T) Q^H from its Schur form A = Q T Q^H.
    Raises SpectrumOnAxis when an eigenvalue is on the axis, for dense A to
    the Schur form's accuracy (``_triangular_form``), and FloatOverflow
    when the sign leaves the float range."""
    q, t = _triangular_form(a)
    s = _triangular_sign(t)
    return s if q is None else q @ s @ q.conj().T


def spectral_projectors(a) -> tuple[np.ndarray, np.ndarray]:
    """(P-, P+) from the matrix sign function: P∓ = (I ∓ sign(A)) / 2."""
    a = as_matrix(a)
    s = matrix_sign(a)
    eye = np.eye(a.shape[0], dtype=complex)
    return 0.5 * (eye - s), 0.5 * (eye + s)


def matrix_exp(a) -> np.ndarray:
    """e^A by ``scipy.linalg.expm``, imported on the first call.

    That is Al-Mohy & Higham's scaling and squaring (2009): the Pade degree
    (3 to 13) and the number of squarings come from 1-norm estimates.
    """
    import scipy.linalg

    return scipy.linalg.expm(as_matrix(a))


def kernel_parts(count: int, n: int) -> list:
    """Slices of range(count), max(1, KERNEL_BLOCK // n^2) long."""
    per = max(1, KERNEL_BLOCK // (n * n))
    return [slice(lo, min(lo + per, count)) for lo in range(0, count, per)]


class GreenKernel:
    """Green's function evaluator for a fixed coefficient matrix.

    Dense input is reduced once to Schur form and G is mapped back: a
    non-triangular A becomes A = Q T Q^H (``_triangular_form``; q is None
    for triangular A, which is T), the split is read off diag(T), and
    ``block`` evaluates G(T) and returns Q G(T) Q^H.  T is balanced once to
    S^-1 T S, S a diagonal of powers of two, bitwise the scales of LAPACK
    3.12's zgebal with job S (``balance_exponents``: whole sweeps in numpy,
    LAPACK beyond their domain), so one large entry cannot set the squaring
    count; the projectors and the Taylor table are built for the balanced
    matrix, and G is mapped back as S G S^-1, exactly.  Every evaluator
    returns a fresh array, and raises FloatOverflow at a G(t) beyond the
    float range.  The table holds B^30 .. B^0, B the balanced matrix over
    2^k, 2^k the power of two just above its norm_inf, each power as its upper
    triangle (n (n + 1) / 2 entries, row by row, at the flat indices
    ``upper``), filled one power at a time; alpha >= ALPHA_MIN bounds
    norm(B^k)^(1/k) for every k >= 31 (see ``__init__``), so the Taylor
    tail of e^{cB} is at most 3^31 / 31! e^3 where |c| alpha <=
    TAYLOR_RANGE.  With the spectrum on one side, one projector is 0 and
    the other I, and the kernel makes no product with either.

    ``norms`` takes the norms of a block just evaluated; its two-norm runs
    on G's rank-r core, an r x r Hermitian eigensolve in place of an n x n
    SVD, with bases (``_core_bases``) built on first use, the only state
    the kernel adds after ``__init__``.
    """

    def __init__(self, a):
        self.a = as_matrix(a)
        self.q, tri = _triangular_form(self.a)
        self.split = spectral_gaps_from_eigenvalues(np.diag(tri))
        # only zgebal's scales are kept: it scales a row and then a column,
        # so a tiny diagonal entry can underflow on the way; S^-1 T S is
        # T 2^(e_j - e_i), one exact ldexp per entry
        self.scale_exp = e = balance_exponents(tri)  # S = diag(2^e)
        shift = e[:, None] - e[None, :]
        balanced = ldexp(tri, -shift)
        # S G S^-1 = G 2^(e_i - e_j) as two exact factors 2^h of one sign:
        # zgebal keeps the scales within 2^±970, so each half h fits a
        # float; with S = I (all exponents equal) there are none
        half = shift // 2
        self.unscale = () if not shift.any() else (
            np.ldexp(1.0, c_exponent(half)),
            np.ldexp(1.0, c_exponent(shift - half)))
        self._bases = {}  # ``norms``' C^H by side, on first use
        self.p_minus, self.p_plus = spectral_projectors(balanced)
        self.k, b = binary_scale(balanced)
        # row i of the table is the upper triangle of B^TAYLOR_POWERS[i],
        # row by row: the powers of the triangular B are 0 below it.  It is
        # stored by columns, an entry's 31 coefficients adjacent: the GEMV
        # of each time's Taylor sum reads it so, and its rounding follows
        # the layout.  The powers pass through two n x n buffers, B^4 .. B^7
        # leaving their norm_inf on the way
        n = b.shape[0]
        self.upper = np.flatnonzero(np.tri(n, dtype=bool).T)
        self.table = np.empty((self.upper.size, TAYLOR_DEGREE + 1),
                              complex).T
        power, spare = np.eye(n, dtype=complex), np.empty((n, n), complex)
        norms = np.empty(4)  # norm_inf of B^7, B^6, B^5, B^4
        for j in range(TAYLOR_DEGREE + 1):  # power = B^j
            self.table[TAYLOR_DEGREE - j] = power.ravel()[self.upper]
            if 4 <= j <= 7:  # induced_norm's sum, without its checks
                norms[7 - j] = np.abs(power).sum(axis=1).max()
            if j < TAYLOR_DEGREE:
                np.matmul(power, b, out=spare)
                power, spare = spare, power
        # alpha = min(norm_inf(B), alpha_4, alpha_6), alpha_p the larger of
        # (norm_inf(B^j) + rho_j)^(1/j) over j = p, p + 1: p (p - 1) <= 31, so
        # every k >= 31 is a sum of p's and (p + 1)'s and norm(B^k) <=
        # alpha_p^k; norm_inf(B) is the same bound for p = 1.  rho_j =
        # 4 j n u w_j, u = 2^-53 and w_j the computed norm_inf(|B|^j) =
        # max(|B|^j 1), bounds the rounding of the computed B^j: each complex
        # product errs by at most sqrt(2) gamma_2n |X| |B|, so the chain errs
        # by at most ((1 + 2.83 n u)^(j-1) - 1) |B|^j, and 4 j n u also
        # covers the rounding of w_j, of the norms and of the root.
        # Underflow in these chains is far below ALPHA_MIN^7
        abs_b, w, sums = np.abs(b), np.ones(n), []
        for _ in range(7):
            w = abs_b @ w
            sums.append(w.max())
        j = np.arange(7, 3, -1)  # B^7, B^6, B^5, B^4
        rho = 4 * j * n * 2.0 ** -53 * np.take(sums, j - 1)
        roots = (norms + rho) ** (1 / j)
        self.alpha = max(ALPHA_MIN, min(induced_norm(b, np.inf),
                                        roots[2:].max(), roots[:2].max()))

    def at(self, t: float) -> np.ndarray:
        """G(t), ``block`` at one time."""
        return self.block([t])[0]

    def block(self, ts) -> np.ndarray:
        """G(t) for each t in ts, stacked (len(ts), n, n): Q G(T) Q^H for
        dense input; the stacks of ``blocks``, joined."""
        g = np.empty((nonzero_times(ts).size,) + self.a.shape, complex)
        for ks, part in self.blocks(ts):
            g[ks] = part
        return g

    def _evaluate(self, ts) -> np.ndarray:
        """G on a checked grid, unchecked for overflow (``blocks``)."""
        g = np.empty((ts.size,) + self.a.shape, dtype=complex)
        for part in kernel_parts(ts.size, self.a.shape[0]):
            self._fill(ts[part], g[part])
        return g if self.q is None else self.q @ g @ self.q.conj().T

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
        """Write G(t) for one block of nonzero finite times into g.

        Plain e^{At} P cancels catastrophically once the discarded half of
        the spectrum makes e^{At} large, so project once, R = e^{At/2^s} P,
        and square R up s times.  R has the eigenvalues e^{At/2^s} keeps
        and exactly 0 on the discarded half, so a square cannot amplify a
        discarded mode and needs no reprojection.  At / 2^s = cB with the
        exact scalar c = t 2^(k-s), and s (``squarings``) is the least count
        with |c| alpha <= TAYLOR_RANGE, so e^{cB} is the Taylor sum over
        the table.  A is the balanced T here.  On a side with no spectrum
        P = 0 and G is 0, with no Taylor sum; where the other side has
        none, P = I and R = e^{cB}.

        Each time keeps its own arithmetic, and each matrix operation is
        one stacked product per side of 0 (numpy runs one GEMV or GEMM per
        time): the Taylor sums over the packed table, written to the upper
        triangle (the strict lower one is 0), the product with P unless
        P = I, and each squaring, taken over the times still squaring, a
        prefix once each side is sorted by s.
        """
        n = g.shape[-1]
        s = self.squarings(ts)
        # t > 0 first, each side by descending s
        order = np.lexsort((-s, ts < 0))
        ts, s = ts[order], s[order]
        coef = (np.ldexp(ts, self.k - s)[:, None] ** TAYLOR_POWERS
                / TAYLOR_FACTORIALS)
        sq = np.zeros((ts.size, n, n), dtype=complex)  # e^{cB}, the squares
        r = np.empty_like(sq)
        mid = np.count_nonzero(ts > 0)
        for lo, hi, p, occupied in ((0, mid, self.p_minus, self.split.m),
                                    (mid, ts.size, self.p_plus, self.split.l)):
            if lo == hi:
                continue
            if not occupied:  # P = 0
                r[lo:hi] = 0
                continue
            sq.reshape(-1, n * n)[lo:hi, self.upper] = np.matmul(
                coef[lo:hi, None], self.table)[:, 0]
            # R = e^{cB} P (P = I leaves R = e^{cB}), then R squared s
            # times: each step moves a time's value from sq to r or back
            first = int(occupied < n)
            if first:
                np.matmul(sq[lo:hi], p, out=r[lo:hi])
            steps = s[lo:hi] + first
            for j in range(first, steps[0]):
                live = slice(lo, lo + np.count_nonzero(steps > j))
                x = (sq, r)[j % 2][live]
                np.matmul(x, x, out=(r, sq)[j % 2][live])
            in_sq = lo + np.flatnonzero(steps % 2 == 0)
            r[in_sq] = sq[in_sq]
        for factor in self.unscale:
            r *= factor
        np.negative(r[mid:], out=r[mid:])
        g[order] = r

    def norms(self, ts, g, p) -> np.ndarray:
        """The p-norm of each G(t) in g, the stack ``block(ts)`` returned.

        p = 1 and inf are ``induced_norm``'s.  For p = 2, G(t) = P G(t) P
        with P = P- for t > 0 and P+ for t < 0, of rank r, the count of
        eigenvalues on that side.  r = n is P = I, and G's own SVD is
        taken; r = 0 is G = 0, with no SVD.  Otherwise, with C an
        orthonormal basis of P's column space (``_core_bases``), G =
        C C^H G, so norm(G)^2 = norm(Y)^2, Y = C^H G, is the largest
        eigenvalue of the r x r Gram matrix Y Y^H, one Hermitian
        eigensolve (LAPACK heevd).  A basis that misses its space by an
        angle d lowers the value by about d^2 / 2 of it, never raises it.
        Each G is scaled by a power of two to entries below 2 before the
        products and the norm scaled back, so a finite G whose norm
        leaves the float range gives +inf, with no warning.  A failed
        eigensolve raises ConvergenceFailure, and a grid ``nonzero_times``
        rejects or a g not of shape (len(ts), n, n) DomainError.
        """
        p, ts, n = norm_kind(p), nonzero_times(ts), self.a.shape[0]
        if np.shape(g) != (ts.size, n, n):
            raise DomainError(f"g must have shape {(ts.size, n, n)}, got "
                              f"{np.shape(g)}")
        if p != 2:
            return induced_norm(g, p)
        g, out = np.asarray(g, dtype=complex), np.zeros(ts.size)
        for side, rank, positive in ((ts > 0, self.split.m, True),
                                     (ts < 0, self.split.l, False)):
            if not rank or not side.any():
                continue
            if rank == n:
                out[side] = induced_norm(g[side], 2)
                continue
            parts = g[side].view(float)  # a copy, each re, im side by side
            e = np.frexp(np.abs(parts).max(axis=(1, 2)))[1]
            y = (self._core_bases()[positive]
                 @ np.ldexp(parts, -e[:, None, None]).view(complex))
            try:
                top = np.linalg.eigvalsh(y @ y.conj().transpose(0, 2, 1))
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(
                    f"two-norm eigensolve failed: {exc}") from exc
            with np.errstate(over="ignore"):
                out[side] = np.ldexp(np.sqrt(top[:, -1]), e)
        return out

    def _core_bases(self) -> dict:
        """{True: C-^H, False: C+^H} for ``norms``, built on first use: C
        is an orthonormal basis of the column space of P- (t > 0) or P+
        (t < 0), n x m or n x l.

        P- is upper triangular with a unit diagonal on the indices K of
        the left eigenvalues and zeros on the rest, so P-[K, K] is
        nonsingular and P-[:, K] spans P-'s column space, with no rank
        decision; P+ likewise on the complement of K.  Each C is the Q
        factor of those columns.  P is the unbalanced S P_B S^-1, entries
        P_B[i, j] 2^(e_i - e_j); each column is scaled by a power of two
        to a largest entry in [1/2, 1), which keeps its span and lets no
        entry overflow.  Dense input maps the bases by Q.
        """
        if self._bases:
            return self._bases
        left = np.diag(self.p_minus).real > 0  # exactly 0 or 1
        cols = np.where(left, self.p_minus, self.p_plus)
        big = np.maximum(np.abs(cols.real), np.abs(cols.imag))
        e = self.scale_exp[:, None]
        top = np.where(big > 0, np.frexp(big)[1] + e, -EXPONENT_CLIP)
        cols = ldexp(cols, e - top.max(axis=0))
        for positive, kept in ((True, left), (False, ~left)):
            c = np.linalg.qr(cols[:, kept])[0]
            if self.q is not None:
                c = self.q @ c
            self._bases[positive] = c.conj().T
        return self._bases

    def blocks(self, ts):
        """Yield (ks, G) for each ``kernel_parts`` slice ks of ts, after one
        check of ts: G(t) on ks, stacked, with numpy's overflow warnings
        off.  At the first G(t) beyond the float range, the finite ones
        before it are yielded, ks cut short, and FloatOverflow is raised.
        The caller's settings hold while a stack is yielded."""
        ts = nonzero_times(ts)
        for ks in kernel_parts(ts.size, self.a.shape[0]):
            with np.errstate(over="ignore", invalid="ignore"):
                g = self._evaluate(ts[ks])
            finite = np.isfinite(g).all(axis=(1, 2))
            good = len(g) if finite.all() else int(finite.argmin())
            if good:
                yield slice(ks.start, ks.start + good), g[:good]
            if good < len(g):
                raise FloatOverflow(
                    f"G(t) overflows at t={float(ts[ks.start + good])!r}")


def green_function(a, t: float) -> np.ndarray:
    """G(A, t) for a single time; builds a throwaway kernel."""
    return GreenKernel(a).at(t)


def default_quad(split: SpectralSplit) -> tuple[float, int]:
    """(radius, panels): the h-envelope tail beyond the radius is below 1e-12,
    and the panels are at most min(1, 1/gamma, 4/rho) wide: |lambda| h <= 4
    on every panel, where 16 Gauss-Legendre nodes resolve e^{lambda s}."""
    finite = [g for g in (split.gamma_minus, split.gamma_plus) if g != INF]
    radius = -math.log(1e-12) / min(finite)
    width = min(1.0, 1.0 / sum(finite), 4.0 / split.rho)
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
    one unchecked ``GreenKernel._evaluate``: x is checked once, at the end,
    since it can overflow where every G is finite.  f is evaluated a block
    of panels at a time, far panel first, the block holding at most
    FORCING_BLOCK complex values, and one matrix product gives y_j for
    every panel of the block; the carry, one matrix-vector product, is the
    only per-panel step.  G is never asked for at 0.

    A non-triangular A is reduced once, A = Q T Q^H (``_triangular_form``),
    and the sums run on the kernel of T, with f(s) taken in as Q^H f(s)
    and x returned as Q x_T: there the eigenvalues M discards are exactly
    0, where Q M Q^H, rounded, diverges on a non-normal A.
    Raises ValueError when f does not return shape (n,) and DomainError,
    before any kernel or f call, when t is not finite.
    """
    as_times([t])
    q, tri = _triangular_form(a)
    kernel, n = GreenKernel(tri), tri.shape[0]
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
            g = kernel._evaluate(sign * np.append(delta, h))
            inner = g[:-1] * weights[:, None, None]
            if q is not None:  # f(s) enters as Q^H f(s)
                inner = inner @ q.conj().T
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
    if q is not None:
        x = q @ x
    if not np.isfinite(x).all():
        raise FloatOverflow(f"bounded solution overflows at t={float(t)!r}")
    return x
