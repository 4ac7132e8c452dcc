"""Complex Schur decomposition A = Q T Q^H.

The reduction is LAPACK's, through ``scipy.linalg.schur`` (Hessenberg
reduction plus shifted QR); the complex output has no 2x2 real blocks.  An
exactly upper triangular input comes back unchanged, with T = A and Q = I.
A Schur form is unique only up to the order of the eigenvalues on the
diagonal of T, and LAPACK's order is the one returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure
from .matcore import as_matrix, induced_norm


@dataclass(frozen=True)
class SchurForm:
    """Unitary Q and upper triangular T with A = Q T Q^H."""

    q: np.ndarray
    t: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.t)


def hessenberg(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduce A to upper Hessenberg H with unitary Q0, A = Q0 H Q0^H."""
    h, q = scipy.linalg.hessenberg(as_matrix(a), calc_q=True)
    return q, h


def schur_decompose(a) -> SchurForm:
    """Schur decomposition of A.

    Raises ConvergenceFailure when LAPACK's QR iteration does not converge.
    """
    try:
        t, q = scipy.linalg.schur(as_matrix(a), output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK Schur reduction failed: {exc}") from exc
    return SchurForm(q, t)


def reconstruction_residual(a, form: SchurForm) -> float:
    """norm_inf(A - Q T Q^H), for diagnostics and tests."""
    a = as_matrix(a)
    return induced_norm(a - form.q @ form.t @ form.q.conj().T, np.inf)


def unitarity_residual(form: SchurForm) -> float:
    """norm_inf(Q^H Q - I)."""
    eye = np.eye(form.t.shape[0])
    return induced_norm(form.q.conj().T @ form.q - eye, np.inf)
