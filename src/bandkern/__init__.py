"""bandkern: numerics for finite-bandwidth reproducing kernel Hilbert spaces.

Spaces with orthonormal basis f_n(z) = z^n * phi(a_n z) for finitely many
distinct unimodular roots of phi and weights a_n -> 1: kernel evaluation
with certified truncation error, the band of basis Taylor coefficients
behind every coefficient route (re-expansion, z-multiplication, the
quotient encoding), the containment verdict with its companion-matrix
products, the explicit splitting into phi * H^2 plus boundary kernel
functions, and the z-multiplication operator with the expansion of 1.
"""

from .core import (
    BasisBand,
    BoundaryConfig,
    ConfigurationError,
    DomainError,
    Poly,
    SearchFailureError,
    TruncationError,
    WeightSequence,
    beta_coefficients,
    homogeneous_symmetric,
    louck_power_sum,
    mu_weights,
    phi_from_roots,
    phi_reduced,
)
from .basis_kernel import (
    DomainReport,
    KernelValue,
    domain_report,
    eval_f_prefix,
    h2_coeffs,
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
    section_norm,
    starting_vector,
    triangular_solve_oracle,
)
from .decomposition import (
    Decomposition,
    GramMatrix,
    bp_apply,
    decompose,
    partial_gram,
    q_polynomial,
    reconstruct,
    taylor_to_basis,
)
from .multiplier import (
    ExpansionReport,
    constant_expansion,
    mz_norm_report,
    polynomial_membership,
)

__version__ = "0.1.0"
