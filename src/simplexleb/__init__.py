"""Numerical laboratory for Lebesgue constants of anisotropically dilated
simplices: lattice sums, kernel evaluation, L1 quadrature, growth predictors
and the fractional-part ("irrational") study."""

from .core import (
    CoefficientField,
    DilationVector,
    ResourceLimitError,
    SimplexLattice,
    build_lattice,
    fractional_coefficients,
    indicator_coefficients,
)
from .kernels import (
    apply_delta,
    reduce_torus,
    slice_weight_matrix,
)
from .norms import (
    FrakFValue,
    IdentityReport,
    NormConvergenceError,
    NormResult,
    frak_f,
    identity_residuals,
    l1_norm,
    l1_norm_field,
    verify_identity,
)
from .asymptotics import (
    PredictorValue,
    eta_weights,
    full_predictor,
    main_term,
    remainder_envelope,
)
from .irrational import (
    AlphaSpec,
    ContinuedFraction,
    cf_expand,
    fractional_parts,
    study_ratio,
)

__version__ = "0.1.0"
