"""Diagonal balancing of an upper triangular matrix, bit for bit LAPACK's.

``balance_exponents(T)`` returns the integer exponents e of the scales
S = diag(2^e) that LAPACK 3.12's zgebal computes for T with job 'S' (scale
only, no permutation).  That is the Parlett-Reinsch iteration as LAPACK
3.5 and later run it, with 2-norms, radix 2 and the acceptance factor 0.95
(James, Langou & Lowery, "On matrix balancing and eigenvector computation",
arXiv:1401.5766, 2014): sweep i = 0 .. n-1, and at each i find the power of
two f that brings column norm c and row norm r of the working copy within a
factor of 2 of each other; accept it, scaling row i by 1/f and then column
i by f, when c f + r / f < 0.95 (c + r); repeat whole sweeps until one
accepts nothing.

Upper triangular T allows whole sweeps (``_sweeps``).  Row i has nothing
left of the diagonal and the similarity leaves the diagonal as it is, so
within a sweep row i still holds its values from the sweep's start when its
turn comes: the row norms are known up front.  Column j, when its turn
comes, has rows k < j scaled by this sweep's accepted 1/f_k and is
otherwise as at the start.  So a guess of the sweep's f gives every column
norm in one matrix-vector product, and every decision in a few array
operations: a screen of the whole sweep.  A decision is exact once the
guesses before it are, so the decisions up to the first one that differs
from its guess are the sweep's; the guess is replaced by the decisions
until they agree with it, which takes at most one screen more than the
sweep has decisions that its earlier ones overturn.

The sweeps' domain: a nonzero diagonal, every row and column norm within
2^+-NORM_RANGE = 2^+-400, every exponent within +-EXPONENT_RANGE = +-500,
and, once a sweep moves, no nonzero part of T below 2^-511, whose square
loses bits.  There each f is within 2^+-401, so zgebal's bounds of 2^+-969
on its norms and of 2^+-970 on a scale never act.  Off it, the scales are
zgebal's own, from LAPACK through ``schur.lapack``; only there is scipy
imported.  The sweeps' norms are numpy's, not the BLAS dznrm2 that LAPACK
calls; the two differ by a few ulps at most, which moves a decision only
where c and r tie to within that.
"""

from __future__ import annotations

import numpy as np

FACTOR = 0.95
# the domain of ``_sweeps`` (see above)
NORM_RANGE = 400
EXPONENT_RANGE = 500


def balance_exponents(t) -> np.ndarray:
    """The exponents e, S = diag(2^e), of zgebal's scales for an upper
    triangular T with job 'S': S^-1 T S is LAPACK's balanced matrix where
    no entry of it underflows on the way."""
    t = np.ascontiguousarray(t, dtype=complex)
    # a screen off the sweeps' domain may overflow, or form 0 inf
    with np.errstate(over="ignore", invalid="ignore"):
        e = _sweeps(t)
    if e is None:
        from .schur import lapack

        scales = lapack("gebal", t)(t, scale=1, permute=0)[3]
        e = (np.frexp(scales)[1] - 1).astype(np.intc)  # scales are 2^e
    return e


def _sweeps(t) -> np.ndarray | None:
    """zgebal's exponents for an upper triangular T by whole sweeps (see
    the module docstring), or None off their domain or for a zero on the
    diagonal, where a norm can be 0.

    In a sweep, m[k, j] = |w_kj|^2 for k < j, W the working copy, and
    m[n, j] = |t_jj|^2; v[k] = 4^-p_k for the guess f_k = 2^p_k, so column
    j's squared norm is (v @ m)[j].  The decision at j is zgebal's: the p
    with c 2^(2p-1) < r <= c 2^(2p+1), which its two loops count, and 0
    unless c 2^p + r 2^-p < 0.95 (c + r).
    """
    if not t.diagonal().all():
        return None
    n = t.shape[0]
    parts = np.square(t.view(float))
    m = np.empty((n + 1, n))
    np.add(parts[:, 0::2], parts[:, 1::2], out=m[:n])  # |t_ij|^2
    m[n] = m[:n].diagonal()
    np.fill_diagonal(m[:n], 0.0)
    upper = None  # m[:n] at e = 0, kept once a sweep moves
    v = np.ones(n + 1)
    e = np.zeros(n, np.intc)
    still = bytes(8 * n)  # a sweep that accepts nothing
    low, high = 2.0 ** -NORM_RANGE, 2.0 ** NORM_RANGE
    while True:
        r = np.sqrt(m[:n].sum(axis=1) + m[n])
        # the p with c 2^(2p-1) < r <= c 2^(2p+1) is, for positive normal
        # floats read as integers (exponent, then mantissa), the difference
        # of the two plus 2^52 - 1, shifted right by 53
        rbits = r.view(np.int64) + (2 ** 52 - 1)
        guess = still
        for _ in range(n + 1):  # a screen per overturned decision, + 1
            c = np.sqrt(v @ m)
            p = (rbits - c.view(np.int64)) >> 53
            f = np.ldexp(1.0, p)
            p *= c * f + r / f < FACTOR * (c + r)
            decided = p.tobytes()
            if decided == guess:
                break
            guess = decided
            np.ldexp(1.0, -2 * p, out=v[:n])
        else:  # only off the domain, where a screen can form NaN
            return None
        if not (low <= min(c.min(), r.min())
                and max(c.max(), r.max()) <= high):
            return None
        if decided == still:
            return e
        if upper is None:
            # a nonzero part below 2^-511 squares to a subnormal or 0, and
            # a later sweep's scaling could bring the lost bits forward
            x = np.abs(t.view(float))
            if np.min(x, where=x > 0, initial=1.0) < 2.0 ** -511:
                return None
            upper = m[:n].copy()
        e += p
        if np.abs(e).max() > EXPONENT_RANGE:
            return None
        twice = 2 * e
        np.ldexp(upper, twice - twice[:, None], out=m[:n])
        v[:n] = 1.0
