"""bandkern: numerics for finite-bandwidth reproducing kernel Hilbert spaces.

Spaces with orthonormal basis f_n(z) = z^n * phi(a_n z) for finitely many
distinct unimodular roots of phi and weights a_n -> 1: kernel evaluation
with certified truncation error, the natural-domain verdicts, the
containment verdict, the companion-matrix products, the explicit splitting
into phi * H^2 plus boundary kernel functions, and the z-multiplication
operator with the expansion of 1.  Every coefficient map is a product or
solve with the public band ``BasisBand`` of basis Taylor coefficients L or
its target Lhat: the Taylor coefficients L alpha, their inverse, the
re-expansion L^-1 Lhat, z-multiplication L^-1 S L and the quotient
encoding Lhat^-1 L, which a ``Splitting`` holds at one truncation.
Polynomials (phi, the reduced phi_j, the boundary polynomials Q_n and the
inputs of polynomial_membership) are ascending numpy coefficient arrays.

Importing the package loads numpy only; scipy loads at the first band
product or solve, which binds scipy's compiled BLAS/LAPACK wrappers without
importing scipy.linalg.  BLAS runs on one thread unless the caller set
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.
"""

import os as _os

# Before numpy loads: the band products and solves are short vector calls,
# which BLAS threads slow down.  scipy's BLAS loads later still, with the
# first band, so it follows the setting even when the caller imported numpy
# first.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from .core import (
    BasisBand,
    BoundaryConfig,
    ConfigurationError,
    DomainError,
    SearchFailureError,
    TruncationError,
    WeightSequence,
    beta_coefficients,
    homogeneous_symmetric,
    louck_power_sum,
    mu_weights,
)
from .basis_kernel import (
    DomainReport,
    KernelValue,
    domain_report,
    eval_f_prefix,
    kernel_eval,
)
from .recursion import (
    ContainmentReport,
    EigenBasis,
    NormEstimate,
    StartingDecayFit,
    c_column,
    companion_limit,
    containment_report,
    eigen_basis,
    fit_starting_decay,
    mu_search,
    nu0_expansion,
    product_norm,
    starting_vector,
)
from .decomposition import (
    Decomposition,
    Splitting,
    q_coefficients,
)
from .multiplier import (
    ExpansionReport,
    constant_expansion,
    mz_norm_report,
    polynomial_membership,
)

__version__ = "0.1.0"
