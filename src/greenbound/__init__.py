"""Green's function of the bounded-solutions problem and computable bounds."""

from .bounds import (
    BoundParams,
    EnvelopeTable,
    QtdsParams,
    conv_power_closed,
    conv_power_poly,
    entrywise_bound,
    envelope_table,
    h_eval,
    qtds18_bound,
    qtds18_grid,
    triangular_bound,
    van_loan_bound,
)
from .errors import (
    ConvergenceFailure,
    DomainError,
    FloatOverflow,
    GreenboundError,
    Inapplicable,
    NotStrictlyTriangular,
    NotTriangular,
    SingularResolvent,
    SpectrumOnAxis,
    UndefinedAtZero,
)
from .green import (
    GreenKernel,
    SpectralSplit,
    bounded_solution,
    green_function,
    matrix_exp,
    matrix_sign,
    spectral_gaps,
    spectral_projectors,
)
from .matcore import (
    as_matrix,
    entrywise_abs,
    induced_norm,
    split_triangular,
)
from .oracles import (
    conv_power_bessel,
    conv_power_numeric,
    green_contour,
    green_parlett,
    perturbation_residual,
)
from .schur import SchurForm, hessenberg, schur_decompose

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
