"""Reciprocal Gamma, negative-argument Gamma and Gamma ratios computed
through regularized hypersingular integral representations, with a
cross-validating Hankel-contour route and classical testing oracles."""

from .errors import (
    ContourDegenerate,
    IntegerArgument,
    NonFiniteArgument,
    NonPositiveArgument,
    PoleError,
    RegammaError,
)
from .gamma_core import (
    GammaValue,
    MethodTag,
    gamma,
    gamma_negative,
    gamma_ratio,
    recip_gamma,
    recip_gamma_neg_reflection,
)
from .hankel import (
    HankelContour,
    arc_contribution,
    hankel_recip_gamma,
    inverse_laplace,
    inverse_laplace_monomial,
    ray_kernel,
)
from .kernel import (
    ArgDecomposition,
    decompose,
    exp_remainder,
    kernel_ratio,
    truncated_exp,
)
from .quadrature import (
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    integrate_finite,
    integrate_regularized_kernel,
    polynomial_tail_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "ArgDecomposition",
    "ConditionFlag",
    "ContourDegenerate",
    "GammaValue",
    "HankelContour",
    "IntegerArgument",
    "IntegralResult",
    "MethodTag",
    "NonFiniteArgument",
    "NonPositiveArgument",
    "PoleError",
    "QuadratureConfig",
    "RegammaError",
    "arc_contribution",
    "decompose",
    "exp_remainder",
    "gamma",
    "gamma_negative",
    "gamma_ratio",
    "hankel_recip_gamma",
    "integrate_finite",
    "integrate_regularized_kernel",
    "inverse_laplace",
    "inverse_laplace_monomial",
    "kernel_ratio",
    "polynomial_tail_closed_form",
    "ray_kernel",
    "recip_gamma",
    "recip_gamma_neg_reflection",
    "truncated_exp",
    "__version__",
]
