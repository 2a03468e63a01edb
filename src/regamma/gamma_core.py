"""Evaluation API for the reciprocal Gamma function and its relatives.

Every non-integer positive argument is evaluated through a regularized
integral: the numerator of the Euler integrand has its truncated Taylor
polynomial subtracted, which makes the x^{-z} weight integrable and turns
a divergent integral into a convergent one.  Four interchangeable routes
are exposed (selected by MethodTag):

  real_axis         sin(pi z)/pi * int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx
  power_subst       the same integral, its middle stretch after u = x^z
  log_form          the same integral folded onto (0, 1) via u = e^{-x}
  cauchy_saalschutz the order-n regularization of Gamma(-z), reflected back

plus `hankel`, resolved by the hankel module.  The first three only state
their change of variables as segments; quadrature.regularized_integral
assembles them with the shared tail and decides the flag.  gamma_ratio
takes Gamma(A) as the same integral at order n = 0, I(1 - A), which is
Euler's integral, on the real-axis segments (for A < 0.01 as
Gamma(1 + A)/A, with Gamma(1 + A) = I(-A)).  Positive
integers use the exact factorial; zero and negative integers return the
exact zeros of the entire function 1/Gamma.  Negative non-integer arguments
are routed through one reflection step so the quadrature only ever sees
z > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .errors import NonPositiveArgument, PoleError, require_finite
from .kernel import ArgDecomposition, decompose, exp_remainder, kernel_ratio, sinpi
from .quadrature import (
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    Segment,
    combine_product,
    geometric_breakpoints,
    integrate_regularized_kernel,
    origin_segment,
    real_axis_segments,
    regularized_integral,
)

# largest m with (m-1)! representable in double precision
_MAX_EXACT_FACTORIAL_ARG = 171
# first m at which 1/(m-1)! rounds to 0.0
_RECIP_FACTORIAL_ZERO_ARG = 179
# gamma_ratio takes Gamma(A) as Gamma(1 + A)/A below this A
_SHIFT_EULER_BELOW = 0.01


class MethodTag(str, Enum):
    REAL_AXIS = "real_axis"
    POWER_SUBST = "power_subst"
    LOG_FORM = "log_form"
    CAUCHY_SAALSCHUTZ = "cauchy_saalschutz"
    HANKEL = "hankel"


@dataclass(frozen=True)
class GammaValue:
    """An evaluated value plus the route and quadrature diagnostics.

    quadrature is None exactly when the value came from an exact fast
    path (integer factorials and the entire-function zeros).
    """

    value: float
    method: MethodTag
    quadrature: IntegralResult | None = None

    @property
    def is_exact(self) -> bool:
        return self.quadrature is None

    @property
    def condition_flag(self) -> ConditionFlag:
        if self.quadrature is None:
            return ConditionFlag.OK
        return self.quadrature.condition_flag


def _exact_recip_factorial(m: int) -> float:
    # big-int division rounds correctly and degrades to subnormals; past
    # that, skip building (m-1)!, which is slow for large m
    if m >= _RECIP_FACTORIAL_ZERO_ARG:
        return 0.0
    return 1 / math.factorial(m - 1)


def _power_subst_integral(arg: ArgDecomposition, cfg: QuadratureConfig) -> IntegralResult:
    """I(z) with the middle stretch mapped by u = x^z.

    There the integrand is u^{1/z-2} (e^{-u^{1/z}} - e_{n-1} at -u^{1/z})
    times the Jacobian 1/z, over [split^z, R^z].  The origin stretch and the
    tails are the real-axis route's.
    """
    n, z = arg.n, arg.z
    inv_z = 1.0 / z

    def middle(u: float) -> float:
        x = math.exp(math.log(u) * inv_z)
        return exp_remainder(-x, n) * math.exp((inv_z - 2.0) * math.log(u)) * inv_z

    def segments(split: float, R: float) -> list[Segment]:
        if z * math.log(R) > 690.0:
            raise OverflowError(
                f"power-substitution upper split {R}^{z} overflows double precision"
            )
        s_u, U = split**z, R**z
        return [origin_segment(arg, split), (middle, s_u, U, geometric_breakpoints(s_u, U))]

    return regularized_integral(arg, cfg, segments)


def _log_form_integral(arg: ArgDecomposition, cfg: QuadratureConfig) -> IntegralResult:
    """I(z) over x in [0, R] folded onto the unit interval by u = e^{-x}.

    There the integrand is (1 - e_{n-1}(log u)/u) / (log(1/u))^z, whose
    numerator is the exponential remainder at log u, so it is evaluated
    through the cancellation-safe kernel.  Near u = 1 it behaves like
    (1-u)^{-frac}; the substitution u = 1 - t^{1/(1-frac)} removes that.
    The stretch below e^{-R} is the shared closed-form tail (u = e^{-x} is
    an exact change of variables there).
    """
    n, frac = arg.n, arg.frac
    q = 1.0 / (1.0 - frac)
    limit = q * (-1.0) ** n / math.factorial(n)

    def near_one(t: float) -> float:
        w = t**q  # = 1 - u
        if w == 0.0:
            return limit
        x = -math.log1p(-w)
        rho = w / x  # -> 1 as u -> 1
        return q * kernel_ratio(x, n) * rho**frac / (1.0 - w)

    def middle(u: float) -> float:
        x = -math.log(u)
        return kernel_ratio(x, n) * math.exp(-frac * math.log(x)) / u

    def segments(split: float, R: float) -> list[Segment]:
        u1, u0 = math.exp(-split), math.exp(-R)
        return [
            (near_one, 0.0, (1.0 - u1) ** (1.0 - frac), None),
            (middle, u0, u1, geometric_breakpoints(u0, u1)),
        ]

    return regularized_integral(arg, cfg, segments)


# The routes of I(z), each giving 1/Gamma(z) = sin(pi z)/pi * I(z).
_REAL_LINE_ROUTES = {
    MethodTag.REAL_AXIS: integrate_regularized_kernel,
    MethodTag.POWER_SUBST: _power_subst_integral,
    MethodTag.LOG_FORM: _log_form_integral,
}


def recip_gamma(
    z: float,
    cfg: QuadratureConfig | None = None,
    method: MethodTag = MethodTag.REAL_AXIS,
) -> GammaValue:
    """1/Gamma(z) for any real z.

    Positive integers return the exact 1/(m-1)!; zero and negative integers
    return exactly 0, and so does +inf, the limit.  Negative non-integer z
    reflects once to 1-z > 0.  Non-integer positive z goes through the
    representation named by method.  NaN and -inf raise NonFiniteArgument.
    """
    if z == math.inf:
        return GammaValue(0.0, method, None)
    require_finite(z)
    cfg = cfg or QuadratureConfig()
    if z == math.floor(z):
        m = int(z)
        if m <= 0:
            return GammaValue(0.0, method, None)
        return GammaValue(_exact_recip_factorial(m), method, None)
    if z < 0.0:
        base = recip_gamma(1.0 - z, cfg, method)
        value = sinpi(z) / math.pi / base.value
        return GammaValue(value, method, base.quadrature)
    if method is MethodTag.HANKEL:
        from . import hankel

        return hankel.hankel_recip_gamma(z, hankel.HankelContour(), cfg)

    arg = decompose(z)
    sin_over_pi = sinpi(z) / math.pi
    if method is MethodTag.CAUCHY_SAALSCHUTZ:
        res = _cauchy_saalschutz_integral(arg, cfg)
        return GammaValue(-z * sin_over_pi * res.value, method, res)
    res = _REAL_LINE_ROUTES[method](arg, cfg)
    return GammaValue(sin_over_pi * res.value, method, res)


def recip_gamma_neg_reflection(z: float, cfg: QuadratureConfig | None = None) -> GammaValue:
    """1/Gamma(-z) = -sin(pi z)/pi * Gamma(z+1) for z > 0 non-integer.

    That is recip_gamma(-z), whose reflection step evaluates Gamma(z+1).
    """
    decompose(z)  # validates the domain
    return recip_gamma(-z, cfg)


def gamma_negative(z: float, cfg: QuadratureConfig | None = None) -> GammaValue:
    """Gamma(-z) = -(1/z) int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx, z > 0."""
    arg = decompose(z)
    cfg = cfg or QuadratureConfig()
    res = integrate_regularized_kernel(arg, cfg)
    return GammaValue(-res.value / z, MethodTag.REAL_AXIS, res)


def _cauchy_saalschutz_integral(arg: ArgDecomposition, cfg: QuadratureConfig) -> IntegralResult:
    # Raising the truncation order and the power by one maps the integral
    # onto the standard kernel machinery: same fractional part, n+1 = [z+1].
    shifted = ArgDecomposition(z=arg.z + 1.0, n=arg.n + 1, frac=arg.frac)
    return integrate_regularized_kernel(shifted, cfg)


def gamma_cauchy_saalschutz(z: float, cfg: QuadratureConfig | None = None) -> GammaValue:
    """Gamma(-z) = int_0^inf (e^{-tau} - e_n(-tau)) / tau^{z+1} dtau, z > 0.

    Note the truncation order is n = [z], one higher than the reciprocal
    representation uses; integration by parts connects the two.
    """
    arg = decompose(z)
    cfg = cfg or QuadratureConfig()
    res = _cauchy_saalschutz_integral(arg, cfg)
    return GammaValue(res.value, MethodTag.CAUCHY_SAALSCHUTZ, res)


def gamma_ratio(A: float, B: float, cfg: QuadratureConfig | None = None) -> GammaValue:
    """Gamma(A)/Gamma(B) as 1/Gamma(B) times the Euler integral for Gamma(A).

    The double-integral representation of the ratio factorizes into two
    one-dimensional integrals; both factors are evaluated here, with the
    reciprocal factor going through the unit-interval log form.  Gamma(A)
    is I(1 - A) at order n = 0 on the real-axis segments; no sin(pi z)/pi
    product follows it, so it never carries the near-integer flag.

    Below A = 0.01 it is Gamma(1 + A)/A, with Gamma(1 + A) = I(-A): the
    origin stretch of I(1 - A) has the power 1/A, a near-step the panels
    miss below A ~ 2e-4, while that of I(-A) stays close to e^{-u}, and
    -A is exact where 1 - A rounds to 1.  Above 0.01 I(1 - A) is cheaper,
    and the rounding of 1 - A costs at most 2^-54/A <= 6e-15 relative.
    Raises OverflowError once the ratio exceeds double precision.
    """
    require_finite(A, "A")
    require_finite(B, "B")
    if not A > 0.0:
        raise NonPositiveArgument(f"A must be > 0, got {A!r}")
    if not B > 0.0:
        raise NonPositiveArgument(f"B must be > 0, got {B!r}")
    cfg = cfg or QuadratureConfig()
    rg_b = recip_gamma(B, cfg, MethodTag.LOG_FORM)
    shifted = A < _SHIFT_EULER_BELOW
    z = -A if shifted else 1.0 - A
    euler = ArgDecomposition(z=z, n=0, frac=z)
    e_a = regularized_integral(
        euler, cfg, partial(real_axis_segments, euler), near_integer_flag=False
    )
    value = rg_b.value * e_a.value
    if shifted:
        value /= A
    if math.isinf(value):
        raise OverflowError(f"Gamma({A!r})/Gamma({B!r}) overflows double precision")
    return GammaValue(value, MethodTag.LOG_FORM, combine_product(value, [e_a, rg_b.quadrature]))


def gamma(
    z: float,
    cfg: QuadratureConfig | None = None,
    method: MethodTag = MethodTag.REAL_AXIS,
) -> GammaValue:
    """Gamma(z) = 1/recip_gamma(z); exact factorials at positive integers.

    Raises PoleError at non-positive integers, OverflowError once the
    value exceeds double precision (integer z > 171, and z = +inf) and
    NonFiniteArgument at NaN and -inf.
    """
    if z == math.inf:
        raise OverflowError(f"Gamma({z!r}) overflows double precision")
    require_finite(z)
    if z == math.floor(z):
        m = int(z)
        if m <= 0:
            raise PoleError(f"Gamma has a pole at {z!r}")
        if m > _MAX_EXACT_FACTORIAL_ARG:
            raise OverflowError(f"Gamma({z!r}) overflows double precision")
        return GammaValue(float(math.factorial(m - 1)), method, None)
    rg = recip_gamma(z, cfg, method)
    if rg.value == 0.0:
        raise OverflowError(f"Gamma({z!r}) overflows double precision")
    return GammaValue(1.0 / rg.value, rg.method, rg.quadrature)
