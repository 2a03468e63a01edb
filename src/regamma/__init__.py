"""Reciprocal Gamma, negative-argument Gamma and Gamma ratios computed
through regularized hypersingular integral representations, with a
cross-validating Hankel-contour route."""

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
    hankel_recip_gamma,
    inverse_laplace,
    inverse_laplace_monomial,
    recip_gamma,
    recip_gamma_neg_reflection,
)
from .hankel import HankelContour
from .quadrature import (
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
)

__version__ = "0.1.0"

__all__ = [
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
    "gamma",
    "gamma_negative",
    "gamma_ratio",
    "hankel_recip_gamma",
    "inverse_laplace",
    "inverse_laplace_monomial",
    "recip_gamma",
    "recip_gamma_neg_reflection",
    "__version__",
]
