"""Evaluation API for the reciprocal Gamma function and its relatives.

Every non-integer positive argument is evaluated through a regularized
integral: the numerator of the Euler integrand has its truncated Taylor
polynomial subtracted, which makes the x^{-z} weight integrable and turns
a divergent integral into a convergent one.  Four interchangeable routes
are exposed (selected by MethodTag):

  real_axis         sin(pi z)/pi * int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx
  power_subst       the same integral after u = x^z, useful for large z
  log_form          the same integral folded onto (0, 1) via u = e^{-x}
  cauchy_saalschutz the order-n regularization of Gamma(-z), reflected back

plus `hankel`, resolved by the hankel module.  Positive integers use the
exact factorial; zero and negative integers return the exact zeros of the
entire function 1/Gamma.  Negative non-integer arguments are routed through
one reflection step so the quadrature only ever sees z > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import NonPositiveArgument, PoleError
from .kernel import ArgDecomposition, decompose, exp_remainder, kernel_ratio, sinpi
from .quadrature import (
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    combine,
    exponential_tail,
    geometric_breakpoints,
    integrate_finite,
    integrate_regularized_kernel,
    near_integer_amplified,
    polynomial_tail_closed_form,
    subdivide_config,
    tail_radius,
)

# largest m with (m-1)! representable in double precision
_MAX_EXACT_FACTORIAL_ARG = 171
# first m at which 1/(m-1)! rounds to 0.0
_RECIP_FACTORIAL_ZERO_ARG = 179


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
    """int_0^inf u^{1/z-2} (e^{-u^{1/z}} - e_{n-1} at -u^{1/z}) du.

    This is the real-axis integral after u = x^z, scaled by z.  The origin
    exponent is (n+1)/z - 2; when negative it is flattened by one more
    power substitution, which lands on the same smooth kernel ratio.  The
    tails map back to the x-space closed forms exactly (scaled by z).
    """
    n, z, frac = arg.n, arg.z, arg.frac
    X = tail_radius(cfg)
    if z * math.log(X) > 690.0:
        raise OverflowError(
            f"power-substitution upper split {X}^{z} overflows double precision"
        )
    s_u = cfg.split_point**z
    U = X**z
    sub = subdivide_config(cfg)
    inv_z = 1.0 / z

    alpha = (n + 1.0) * inv_z - 2.0
    if alpha < 0.0:
        p_v = 1.0 / (1.0 + alpha)
        q = 1.0 / (1.0 - frac)

        def origin(v: float) -> float:
            return p_v * kernel_ratio(v**q, n)

        res_a = integrate_finite(origin, 0.0, cfg.split_point ** (1.0 - frac), sub)
    else:
        # only reachable for n = 0, z <= 1/2: integrand is bounded at 0
        def origin(u: float) -> float:
            return math.exp(-(u**inv_z)) * u ** (inv_z - 2.0)

        res_a = integrate_finite(origin, 0.0, s_u, sub)

    def middle(u: float) -> float:
        x = math.exp(math.log(u) * inv_z)
        return exp_remainder(-x, n) * math.exp((inv_z - 2.0) * math.log(u))

    res_b = integrate_finite(
        middle, s_u, U, sub, breakpoints=geometric_breakpoints(s_u, U)
    )

    tail_poly = IntegralResult(z * polynomial_tail_closed_form(arg, X), 0.0, 0)
    res_c = exponential_tail(z, X, sub)
    res_c = replace(res_c, value=z * res_c.value, abs_error_estimate=z * res_c.abs_error_estimate)
    return combine(
        [res_a, res_b, tail_poly, res_c], amplified=near_integer_amplified(z, cfg.eps_rel)
    )


def _log_form_integral(arg: ArgDecomposition, cfg: QuadratureConfig) -> IntegralResult:
    """int_0^1 (1 - e_{n-1}(log u)/u) / (log(1/u))^z du on the unit interval.

    The numerator is the exponential remainder at log u, so it is evaluated
    through the cancellation-safe kernel.  Near u = 1 the integrand behaves
    like (1-u)^{-frac}; the substitution u = 1 - t^{1/(1-frac)} removes it.
    Near u = 0 the polynomial terms decay only like powers of 1/log(1/u),
    so the stretch below e^{-X} is added via the same closed-form tail as
    the real-axis route (u = e^{-x} is an exact change of variables there).
    """
    n, z, frac = arg.n, arg.z, arg.frac
    X = tail_radius(cfg)
    x1 = cfg.split_point
    u1 = math.exp(-x1)
    u0 = math.exp(-X)
    q = 1.0 / (1.0 - frac)
    sub = subdivide_config(cfg)
    limit = q * (-1.0) ** n / math.factorial(n)

    def near_one(t: float) -> float:
        w = t**q  # = 1 - u
        if w == 0.0:
            return limit
        x = -math.log1p(-w)
        rho = w / x  # -> 1 as u -> 1
        return q * kernel_ratio(x, n) * rho**frac / (1.0 - w)

    res_a = integrate_finite(near_one, 0.0, (1.0 - u1) ** (1.0 - frac), sub)

    def middle(u: float) -> float:
        x = -math.log(u)
        return kernel_ratio(x, n) * math.exp(-frac * math.log(x)) / u

    res_b = integrate_finite(
        middle, u0, u1, sub, breakpoints=geometric_breakpoints(u0, u1)
    )

    tail_poly = IntegralResult(polynomial_tail_closed_form(arg, X), 0.0, 0)
    res_c = exponential_tail(z, X, sub)
    return combine(
        [res_a, res_b, tail_poly, res_c], amplified=near_integer_amplified(z, cfg.eps_rel)
    )


def _euler_gamma_integral(A: float, cfg: QuadratureConfig) -> IntegralResult:
    """Gamma(A) as int_0^1 (-log v)^{A-1} dv, A > 0.

    Endpoint care: at v -> 1 the integrand is (1-v)^{A-1} to leading order
    (algebraic for A < 1), removed by v = 1 - t^{1/A}; at v -> 0 it grows
    like |log v|^{A-1}, handled by switching to x = -log v and integrating
    the incomplete-Gamma stretch numerically.
    """
    if not A > 0.0:
        raise NonPositiveArgument(f"Euler integral needs A > 0, got {A!r}")
    X = tail_radius(cfg)
    v1 = math.exp(-1.0)
    v0 = math.exp(-X)
    inv_A = 1.0 / A
    sub = subdivide_config(cfg)

    def near_one(t: float) -> float:
        w = t**inv_A  # = 1 - v
        if w == 0.0:
            return inv_A
        x = -math.log1p(-w)
        return inv_A * (x / w) ** (A - 1.0)

    res_a = integrate_finite(near_one, 0.0, (1.0 - v1) ** A, sub)

    def middle(v: float) -> float:
        return math.exp((A - 1.0) * math.log(-math.log(v)))

    res_b = integrate_finite(
        middle, v0, v1, sub, breakpoints=geometric_breakpoints(v0, v1)
    )

    # the incomplete-Gamma stretch is the exponential tail with z = 1 - A
    return combine([res_a, res_b, exponential_tail(1.0 - A, X, sub)])


def recip_gamma(
    z: float,
    cfg: QuadratureConfig | None = None,
    method: MethodTag = MethodTag.REAL_AXIS,
) -> GammaValue:
    """1/Gamma(z) for any real z.

    Positive integers return the exact 1/(m-1)!; zero and negative integers
    return exactly 0.  Negative non-integer z reflects once to 1-z > 0.
    Non-integer positive z goes through the representation named by method.
    """
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

        return hankel.recip_gamma_via_contour(z, cfg)

    arg = decompose(z)
    sin_over_pi = sinpi(z) / math.pi
    if method is MethodTag.REAL_AXIS:
        res = integrate_regularized_kernel(arg, cfg)
        value = sin_over_pi * res.value
    elif method is MethodTag.POWER_SUBST:
        res = _power_subst_integral(arg, cfg)
        value = sin_over_pi / z * res.value
    elif method is MethodTag.LOG_FORM:
        res = _log_form_integral(arg, cfg)
        value = sin_over_pi * res.value
    elif method is MethodTag.CAUCHY_SAALSCHUTZ:
        res = _cauchy_saalschutz_integral(arg, cfg)
        value = -z * sin_over_pi * res.value
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown method {method!r}")
    return GammaValue(value, method, res)


def recip_gamma_neg_reflection(z: float, cfg: QuadratureConfig | None = None) -> GammaValue:
    """1/Gamma(-z) = -sin(pi z)/pi * Gamma(z+1) for z > 0 non-integer."""
    decompose(z)  # validates the domain
    cfg = cfg or QuadratureConfig()
    base = recip_gamma(z + 1.0, cfg)
    value = -sinpi(z) / math.pi / base.value
    return GammaValue(value, base.method, base.quadrature)


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
    reciprocal factor going through the unit-interval log form.
    """
    if not A > 0.0:
        raise NonPositiveArgument(f"A must be > 0, got {A!r}")
    if not B > 0.0:
        raise NonPositiveArgument(f"B must be > 0, got {B!r}")
    cfg = cfg or QuadratureConfig()
    rg_b = recip_gamma(B, cfg, MethodTag.LOG_FORM)
    e_a = _euler_gamma_integral(A, cfg)
    value = rg_b.value * e_a.value

    # the factors multiply, so their relative errors add
    parts = [e_a] if rg_b.quadrature is None else [e_a, rg_b.quadrature]
    rel = sum(p.abs_error_estimate / abs(p.value) for p in parts if p.value)
    res = replace(combine(parts), value=value, abs_error_estimate=abs(value) * rel)
    return GammaValue(value, MethodTag.LOG_FORM, res)


def gamma(
    z: float,
    cfg: QuadratureConfig | None = None,
    method: MethodTag = MethodTag.REAL_AXIS,
) -> GammaValue:
    """Gamma(z) = 1/recip_gamma(z); exact factorials at positive integers.

    Raises PoleError at non-positive integers and OverflowError once the
    value exceeds double precision (integer z > 171).
    """
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
