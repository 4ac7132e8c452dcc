"""Dense complex matrix helpers: validation, the D+N triangular split,
entrywise absolute values, and induced matrix norms (numpy/LAPACK).

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Upper triangular is the canonical orientation throughout; lower-triangular
inputs are rejected rather than silently transposed.  A grid of times is a
1-D array of finite floats, checked once where it enters (``as_times``;
``nonzero_times`` where t = 0 is outside the domain).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ConvergenceFailure, DomainError, NotStrictlyTriangular,
                     NotTriangular, UndefinedAtZero)

# Subdiagonal noise below this (relative to the inf-norm) is treated as zero.
TRIANGULAR_ATOL_FACTOR = 1e-13
# np.ldexp takes about 16x as long by an int64 exponent as by a C int.  Past
# 2^+-4096 every finite nonzero mantissa has saturated to inf or 0, so an
# exponent clipped to this range gives the same result bit for bit.
EXPONENT_CLIP = 4096

_NORM_ALIASES = {1: 1, "1": 1, 2: 2, "2": 2, np.inf: np.inf, "inf": np.inf}


def norm_kind(p) -> float:
    """Normalize a norm selector to 1, 2 or numpy.inf; else DomainError."""
    try:
        return _NORM_ALIASES[p]
    except (KeyError, TypeError):
        raise DomainError(f"unsupported norm kind: {p!r}") from None


def as_size(n, what: str) -> int:
    """A Python or numpy integer n (a size) as an int; else DomainError."""
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {n!r}")
    return int(n)


def as_matrix(a, stacked: bool = False) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries, or
    with ``stacked`` a stack of them, shape (..., n, n); else DomainError."""
    m = np.asarray(a, dtype=complex)
    if (m.ndim < 2 or (m.ndim > 2 and not stacked)
            or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1):
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    return m


def as_times(ts) -> np.ndarray:
    """A grid of times as a 1-D float64 array; any other shape, or a NaN or
    infinite time, raises DomainError."""
    t = np.asarray(ts, dtype=float)
    if t.ndim != 1:
        raise DomainError(f"times must be a 1-D grid, got shape {t.shape}")
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise DomainError(f"t must be finite, got {float(bad[0])!r}")
    return t


def nonzero_times(ts) -> np.ndarray:
    """``as_times``, and UndefinedAtZero where a time is 0: the domain of
    G and of its bounds."""
    ts = as_times(ts)
    if (ts == 0).any():
        raise UndefinedAtZero("G and its bounds are undefined at t = 0")
    return ts


def c_exponent(e):
    """An integer exponent, or an array of them, as np.ldexp takes it
    fastest: a Python int, or an array of C ints, clipped to
    +-EXPONENT_CLIP.  np.ldexp(m, c_exponent(e)) is np.ldexp(m, e)."""
    if not isinstance(e, np.ndarray):
        return min(max(int(e), -EXPONENT_CLIP), EXPONENT_CLIP)
    if e.dtype == np.intc:  # np.frexp's exponents, say
        return e
    # two ufuncs: np.clip costs twice as much on small arrays
    e = np.maximum(e, -EXPONENT_CLIP)
    return np.minimum(e, EXPONENT_CLIP, out=e).astype(np.intc)


def ldexp(a, e) -> np.ndarray:
    """A * 2^e entry by entry, e an integer or an integer array that
    broadcasts against A; exact, signed zeros included, unless an entry
    underflows."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(e)),
                   dtype=complex)
    e = c_exponent(e)
    out.real, out.imag = np.ldexp(a.real, e), np.ldexp(a.imag, e)
    return out


def binary_scale(a) -> tuple[int, np.ndarray]:
    """(k, A * 2^-k) with 2^(k-1) <= norm_inf(A) < 2^k.

    norm_inf(A) itself overflows once a row sum of finite entries leaves the
    float range, so k is read off A * 2^-e, e the binary exponent of its
    largest entry, whose row sums stay below 2n.
    """
    a = as_matrix(a)
    big = max(np.abs(a.real).max(), np.abs(a.imag).max())
    e = math.frexp(big)[1]
    k = e + math.frexp(induced_norm(ldexp(a, -e), np.inf))[1]
    return k, ldexp(a, -k)


def split_triangular(b) -> tuple[np.ndarray, np.ndarray]:
    """Split an upper triangular B into diagonal D and strictly upper N.

    Subdiagonal entries up to ``1e-13 * norm_inf(B)`` are hard-zeroed; anything
    larger raises :class:`NotTriangular`.  The comparison is made on
    ``binary_scale(B)``, so it holds where norm_inf(B) overflows.  D + N
    reproduces the hard-zeroed B exactly.
    """
    b = as_matrix(b)
    k, scaled = binary_scale(b)
    atol = TRIANGULAR_ATOL_FACTOR * induced_norm(scaled, np.inf)
    lower = np.abs(np.tril(scaled, -1))
    if lower.size and lower.max() > atol:
        i, j = np.unravel_index(np.argmax(lower), lower.shape)
        raise NotTriangular(f"subdiagonal entry ({i},{j}) = {b[i, j]} "
                            f"exceeds tolerance {math.ldexp(atol, k):g}")
    clean = np.triu(b)
    d = np.diag(np.diag(clean))
    n = clean - d
    return d, n


def entrywise_abs(a) -> np.ndarray:
    """|A|: the real matrix of entry magnitudes."""
    return np.abs(as_matrix(a))


def induced_norm(a, p):
    """Operator norm induced by the 1, 2 or infinity vector norm: a float
    for a matrix, an array of one norm per matrix for a stack (..., n, n).

    ``numpy.linalg.norm``: the largest absolute column or row sum for 1 and
    infinity, the largest singular value from LAPACK's SVD for 2.  A norm
    of finite entries beyond the float range is +inf, without a warning.
    An SVD that does not converge raises :class:`ConvergenceFailure`.
    """
    a = as_matrix(a, stacked=True)
    try:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(a, norm_kind(p), axis=(-2, -1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"two-norm SVD failed: {exc}") from exc
    return float(norms) if a.ndim == 2 else norms


def require_strictly_triangular(n) -> np.ndarray:
    """Validate that N is strictly upper triangular: no diagonal entry above
    1e-13 * max(1, norm_inf(N)), compared on ``binary_scale(N)`` so that it
    holds where norm_inf(N) overflows."""
    d, strict = split_triangular(n)
    _, scaled = binary_scale(n)
    if (np.abs(np.diag(d)).max() > TRIANGULAR_ATOL_FACTOR
            and np.abs(np.diag(scaled)).max()
            > TRIANGULAR_ATOL_FACTOR * induced_norm(scaled, np.inf)):
        raise NotStrictlyTriangular("matrix has nonzero diagonal entries")
    return strict
