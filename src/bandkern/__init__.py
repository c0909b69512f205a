"""bandkern: numerics for finite-bandwidth reproducing kernel Hilbert spaces.

Spaces with orthonormal basis f_n(z) = z^n * phi(a_n z) for finitely many
distinct unimodular roots of phi and weights a_n -> 1: kernel evaluation
with certified truncation error, the band of basis Taylor coefficients
behind every coefficient route (re-expansion, z-multiplication, the
quotient encoding) and the companion-matrix products, boundedness diagnostics,
the explicit splitting into phi * H^2 plus boundary kernel functions, and
the z-multiplication operator.
"""

from .core import (
    BasisBand,
    BoundaryConfig,
    ConfigurationError,
    DomainError,
    IllConditionedError,
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
    BasisElement,
    DomainReport,
    KernelValue,
    basis_coeffs,
    domain_report,
    eval_f,
    eval_f_prefix,
    h2_coeffs,
    kernel_eval,
)
from .recursion import (
    ContainmentReport,
    EigenBasis,
    NormEstimate,
    StartingDecayFit,
    adams_mcguire_matrix,
    advance_window,
    c_column,
    companion_limit,
    companion_matrix,
    containment_report,
    eigen_basis,
    fit_starting_decay,
    linearization_parts,
    mu_search,
    nu0_expansion,
    product_norm,
    section_norm,
    starting_vector,
    triangular_solve_oracle,
)
from .decomposition import (
    Decomposition,
    FiniteSection,
    GramMatrix,
    PermissibleSequence,
    boundary_coeffs,
    bp_apply,
    chat_apply,
    chat_column_norms,
    decompose,
    enforce_vanishing,
    finite_section_matrix,
    gram_matrix,
    p_polynomials,
    partial_gram,
    permissible,
    q_polynomial,
    reconstruct,
    taylor_to_basis,
)
from .multiplier import (
    ExpansionReport,
    MultiplierColumn,
    constant_expansion,
    mz_apply,
    mz_column,
    mz_norm_report,
    polynomial_membership,
)

__version__ = "0.1.0"
