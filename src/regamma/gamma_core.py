"""Evaluation API for the reciprocal Gamma function and its relatives.

Every non-integer argument is evaluated through a regularized
integral: the numerator of the Euler integrand has its truncated Taylor
polynomial subtracted, which makes the x^{-z} weight integrable and turns
a divergent integral into a convergent one.  Four interchangeable routes
are exposed (selected by MethodTag):

  real_axis         sin(pi z)/pi * int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx,
                    its middle stretch after t = log x
  power_subst       the same integral, its middle stretch after v = (x^z - 1)/z
  log_form          the same integral, its middle stretch after u = e^{-x}
  cauchy_saalschutz Gamma(-z) regularized at order n, times -z sin(pi z)/pi

plus `hankel`, the trapezoid rule on the steepest-descent path of Hankel's
integral, and the paper's contour (hankel_recip_gamma) and inverse_laplace,
all three from the hankel module's records.  The four real-line routes are
one table from MethodTag to quadrature's middle functions, the change of
variables on the middle stretch [1, 36] (cauchy_saalschutz takes the real
axis's at the raised order); quadrature.integrate_regularized_kernel sums
[0, 1] as a series, adds the shared tail and decides the flag.  One function,
_real_line, turns that integral into a value at w > 0: 1/Gamma(w), or
Gamma(-w), the paper's regularized hypersingular integral (-I(w)/w, or I
at the raised order itself), which gamma_negative takes on real_axis and
cauchy_saalschutz and gamma(-w) on any of the four, or its reciprocal,
recip_gamma(-w).  It takes w = n + frac as decomposed once by its entry
point.  gamma_ratio is the quotient of two real_axis values, 1/Gamma(B)
over 1/Gamma(A).
Positive integers use the exact factorial; zero and negative integers
return the exact zeros of the entire function 1/Gamma.

The cost and the rounding of I(z) grow with its truncation order n = [z]:
past z of about 65 the closed-form polynomial tail cancels against the
middle stretch.  So no route sees an argument past 9, and this module
chooses every shift: from 9 up the real line takes w = z - m in [8, 9),
m = n - 8, exact and with z's frac, and the hankel route's rule takes
w = z - m, m = floor(z) - 8, at every z.  _moved_back moves each value
back by the recurrence Gamma(x) = (x - 1) Gamma(x - 1) and records it.
inverse_laplace takes both of its Gammas at k + 1 - m in [8, 9) from 9
up, where the factors of the recurrence cancel.
gamma_ratio takes one m for A and B, and recip_gamma shifts each factor.

A GammaValue's quadrature is the record of the value itself, which is
reached from I(z) by products, a quotient or the recurrence:
quadrature.propagate adds the relative errors of the integrals and of
the roundings on the way, and decides the flag.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import NonPositiveArgument, PoleError, RegammaError, require_finite
from .kernel import ArgDecomposition, decompose, sinpi
from .quadrature import (
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    integrate_regularized_kernel,
    log_form_middle,
    power_subst_middle,
    propagate,
    real_axis_middle,
)
# last, after the layers it imports: compiled from source, the import then
# peaks about 0.3 MB lower
from .hankel import HankelContour, contour_recip_gamma, steepest_descent_recip_gamma

# largest m with (m-1)! representable in double precision
_MAX_EXACT_FACTORIAL_ARG = 171
# first m at which 1/(m-1)! rounds to 0.0
_RECIP_FACTORIAL_ZERO_ARG = 179

# Arguments from SHIFT_BASE + 1 up are evaluated at w in
# [SHIFT_BASE, SHIFT_BASE + 1) and moved back by the recurrence.
SHIFT_BASE = 8
# Bounds the digamma function on [SHIFT_BASE, SHIFT_BASE + 1]:
# psi(9) = H_8 - Euler's gamma = 2.1406...
_PSI_SHIFT_BASE = 2.15
# Roundings of a real-line value past the estimate of its integral, at most
# four: sin(pi w), the division by pi, the product and cauchy_saalschutz's
# -w (Gamma(-w) and 1/Gamma(-w): the quotient; gamma_ratio: the quotient of
# its two factors, and the rounding of either one that is an exact 1/(m-1)!).
_ROUTE_ROUNDING = 4


# What _real_line evaluates at w > 0
class _Of(Enum):
    RECIP = "1/Gamma(w)"
    GAMMA_NEG = "Gamma(-w)"
    RECIP_NEG = "1/Gamma(-w)"


class MethodTag(str, Enum):
    REAL_AXIS = "real_axis"
    POWER_SUBST = "power_subst"
    LOG_FORM = "log_form"
    CAUCHY_SAALSCHUTZ = "cauchy_saalschutz"
    HANKEL = "hankel"


# The members the per-call path compares against, looked up once: an Enum
# member lookup costs about 0.1 us on CPython 3.11
_HANKEL = MethodTag.HANKEL
_RECIP, _GAMMA_NEG, _RECIP_NEG = _Of.RECIP, _Of.GAMMA_NEG, _Of.RECIP_NEG
_GAMMA_NEG_ROUTES = (MethodTag.REAL_AXIS, MethodTag.CAUCHY_SAALSCHUTZ)


class GammaValue(NamedTuple):
    """An evaluated value, its route and the record of the value, as an
    immutable named tuple.

    quadrature.value is value, and its error estimate, evaluations and
    flag are the value's (quadrature.propagate).  quadrature is None
    exactly when the value came from an exact fast path (integer
    factorials in the normal range and the entire-function zeros).
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


def recurrence(value: float, x: float, m: int) -> float:
    """value / ((x - 1)(x - 2)...(x - m)) for m >= 0, and
    value x (x + 1)...(x - m - 1) for m < 0.

    By Gamma(x) = (x - 1) Gamma(x - 1), that is 1/Gamma(x) from
    value = 1/Gamma(x - m), and equally Gamma(x - m) from value = Gamma(x).
    The factors are applied one at a time, so that nothing overflows early
    and a result below the normal range underflows gradually; a value that
    reaches 0 or infinity stays there.  For m < 0 the factor x comes last.
    """
    if m < 0:
        for j in range(-m - 1, -1, -1):
            value *= x + j
            if math.isinf(value):
                break
    else:
        for j in range(1, m + 1):
            value /= x - j
            if value == 0.0:
                break
    return value


def _moved_back(base: IntegralResult, x: float, m: int, eps_rel: float) -> IntegralResult:
    """The record of recurrence(base.value, x, m), every shifted value's:
    base is the record at w = x - m, as rounded, its error whole.

    Each of the |m| steps rounds by 2^-53 relative or, below the normal
    range, by up to half a subnormal unit.  For m > 0 every divisor is at
    least 8 in magnitude, so each division shrinks that unit eightfold and
    all m stay below one.  For m < 0 every product before the last, by x,
    is 1/Gamma(x + j), j >= 1, x + j < 9, subnormal only within about
    1e-308 of 0, where x + j never lies for non-integer x, so only the last
    can leave the normal range.  So one rounding is propagate's, with its
    unit, and the |m| - 1 others count their relative part alone, as an
    exact factor 1.  At m = 0 (the hankel route at z in [8, 9)) no step
    is taken: the value is base's own, propagate rounds nothing and the
    count is 0, not -1, so the record is base's error and nothing else.

    The shift is counted too.  Where w = x - m is exact, so is every
    factor x - j (0 < j <= m) or x + j (0 <= j < -m): x and w differ by an
    integer, so both are multiples of the unit in the last place of the
    larger of them in magnitude, and each factor lies between them, so it
    is such a multiple no larger in magnitude, a double.  w is exact on
    the real line, which keeps x's frac, and from 9 up.  Only the
    hankel route's w = z - m in [8, 9] below 8, m < 0, can round.  Its
    rounding d = (w + m) - x is then exact: w + m, a multiple of 2^-49
    below 8 in magnitude, is a double, and it lies within 2^-50 of x, so
    their difference is a multiple of the unit of x.  The rule takes
    1/Gamma at w for 1/Gamma(x - m); they differ by the factor
    e^{lgamma(x - m) - lgamma(w)} = 1 - psi(xi) d to first order, xi in
    [8, 9], and psi(9) = H_8 - gamma < 2.15 bounds psi there: 2.15 |d|
    relative, at most 17.2 units of 2^-53.  The factors x + j, 1 <= j < -m,
    then round once each (x + 0 is x): |m| - 1 units more.  Raises
    OverflowError where 1/Gamma(x) exceeds double precision (only a
    product can).
    """
    value = recurrence(base.value, x, m)
    if math.isinf(value):
        raise OverflowError(f"1/Gamma({x!r}) overflows double precision")
    roundings = 1 if m else 0
    count = abs(m) - roundings
    drift = ((x - m) + m) - x
    if drift:
        count += abs(m) - 1 + _PSI_SHIFT_BASE * abs(drift) * 2.0**53
    steps = IntegralResult(1.0, count * 2.0**-53, 0)
    return propagate(value, [base, steps], roundings, eps_rel)


# The real-line routes, by their change of variables on the middle stretch
# of I(w): 1/Gamma(w) = sin(pi w)/pi * I(w) and Gamma(-w) = -I(w)/w.
# cauchy_saalschutz is the real axis at the raised order, where I is
# Gamma(-w) itself and 1/Gamma(w) = -w sin(pi w)/pi * Gamma(-w).  Each
# route is its middle function and whether it takes the raised order.
_ROUTE_MIDDLE = {
    MethodTag.REAL_AXIS: (real_axis_middle, False),
    MethodTag.POWER_SUBST: (power_subst_middle, False),
    MethodTag.LOG_FORM: (log_form_middle, False),
    MethodTag.CAUCHY_SAALSCHUTZ: (real_axis_middle, True),
}


def _real_line(arg: ArgDecomposition, cfg: QuadratureConfig, method: MethodTag,
               of: _Of) -> GammaValue:
    """1/Gamma(w), Gamma(-w) or 1/Gamma(-w), as of selects, on a real-line
    route, for w = arg.z > 0 non-integer: the route's integral at w0 = w - m,
    scaled, recorded and moved back by _moved_back.  m = arg.n - 8 from 9
    up (else 0), so w0 < 9 is exact and keeps w's frac.

    1/Gamma(w) = recurrence(1/Gamma(w0), w, m), Gamma(-w) = recurrence(
    Gamma(-w0), -w0, m) and 1/Gamma(-w) = recurrence(1/Gamma(-w0), -w, -m).
    Raises OverflowError where Gamma(-w) exceeds double precision (w below
    about 5.6e-309) and is the value or, on cauchy_saalschutz, the integral
    (1/Gamma(-w) = -w/I(w), about -w, stays finite), and where 1/Gamma(-w)
    does (w past about 171.6).
    """
    w = arg.z
    m = arg.n - SHIFT_BASE
    if m > 0:
        arg = ArgDecomposition(w - m, SHIFT_BASE, arg.frac)
    w0 = arg.z
    middle, raised = _ROUTE_MIDDLE[method]
    if raised:
        # same frac at order n + 1: I is the order-n regularization of Gamma(-w0)
        arg = ArgDecomposition(w0 + 1.0, arg.n + 1, arg.frac)
    res = integrate_regularized_kernel(arg, cfg, middle)
    if of is _RECIP:
        scale = sinpi(w0) / math.pi
        # I (about -1/w0 at tiny w0) is scaled before the factor -w0: -w0
        # scale, about -w0^2, would go subnormal there and lose its digits
        value = -w0 * (scale * res.value) if raised else scale * res.value
        x, k = w, m
    elif of is _GAMMA_NEG:
        value = res.value if raised else -res.value / w0
        x, k = -w0, m
    else:
        value = 1.0 / res.value if raised else -w0 / res.value
        x, k = -w, -m
    if math.isinf(value) or math.isinf(res.value):
        raise OverflowError(f"Gamma({-w0!r}) overflows double precision")
    record = propagate(value, [res], _ROUTE_ROUNDING, cfg.eps_rel)
    if m > 0:
        record = _moved_back(record, x, k, cfg.eps_rel)
    return GammaValue(record.value, method, record)


def _steepest_descent(z: float, cfg: QuadratureConfig) -> IntegralResult:
    """The hankel route's record of 1/Gamma(z), z real non-integer: the
    rule at w = z - m in [8, 9], sized from cfg.eps_rel, whose record
    carries its truncation and rounding, moved back (upward below 8), the
    steps' and the shift's roundings counted (_moved_back)."""
    m = math.floor(z) - SHIFT_BASE
    return _moved_back(steepest_descent_recip_gamma(z - m, cfg.eps_rel), z, m, cfg.eps_rel)


def _recip_gamma(z: float, cfg: QuadratureConfig, method: MethodTag) -> GammaValue:
    """1/Gamma(z) at finite non-integer z: recip_gamma's and gamma's evaluator."""
    if method is _HANKEL:
        res = _steepest_descent(z, cfg)
        return GammaValue(res.value, method, res)
    return _real_line(decompose(abs(z)), cfg, method, _RECIP_NEG if z < 0.0 else _RECIP)


def recip_gamma(
    z: float,
    cfg: QuadratureConfig | None = None,
    method: MethodTag = MethodTag.REAL_AXIS,
) -> GammaValue:
    """1/Gamma(z) for any real z.

    Positive integers return the exact 1/(m-1)! (from z = 172 up, where it
    is subnormal or 0, with the record of its rounding); zero and negative
    integers return exactly 0, and so does +inf, the limit.  Other z goes
    through the representation named by method, from |z| = 9 up at
    |z| - m in [8, 9) and moved back by the recurrence; z < 0 is the
    reciprocal of Gamma(z), the integral gamma_negative takes at -z.
    Raises OverflowError where the result exceeds double precision (z below
    about -171.6), and on cauchy_saalschutz where its integral Gamma(-|z|)
    does (|z| below about 5.6e-309); NaN and -inf raise NonFiniteArgument.
    """
    if z == math.inf:
        return GammaValue(0.0, method, None)
    require_finite(z)
    cfg = cfg or QuadratureConfig()
    if z == math.floor(z):
        m = int(z)
        if m <= 0:
            return GammaValue(0.0, method, None)
        value = _exact_recip_factorial(m)
        # from m = 172 up, 1/(m-1)! is subnormal or 0: correctly rounded,
        # but to an absolute unit, not a relative one
        record = propagate(value, [], 1, cfg.eps_rel) if value < sys.float_info.min else None
        return GammaValue(value, method, record)
    return _recip_gamma(z, cfg, method)


def recip_gamma_neg_reflection(z: float, cfg: QuadratureConfig | None = None) -> GammaValue:
    """1/Gamma(-z) for z > 0 non-integer: recip_gamma(-z)."""
    return _real_line(decompose(z), cfg or QuadratureConfig(), MethodTag.REAL_AXIS, _RECIP_NEG)


def gamma_negative(
    z: float,
    cfg: QuadratureConfig | None = None,
    method: MethodTag = MethodTag.REAL_AXIS,
) -> GammaValue:
    """Gamma(-z) for z > 0 non-integer, on the route named by method.

    real_axis is -(1/z) int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx;
    cauchy_saalschutz is int_0^inf (e^{-tau} - e_n(-tau)) / tau^{z+1} dtau,
    the same integral one order higher, n = [z] (integration by parts
    connects the two).  Any other method raises RegammaError.  From z = 9
    up, Gamma(-z) = Gamma(m - z) / ((-z)(1 - z)...(m - 1 - z)) with m - z
    in (-9, -8].  Raises OverflowError where Gamma(-z) exceeds double
    precision.
    """
    arg = decompose(z)
    if method not in _GAMMA_NEG_ROUTES:
        raise RegammaError(f"Gamma(-z) takes real_axis or cauchy_saalschutz, not {method.value}")
    return _real_line(arg, cfg or QuadratureConfig(), method, _GAMMA_NEG)


def gamma_ratio(A: float, B: float, cfg: QuadratureConfig | None = None) -> GammaValue:
    """Gamma(A)/Gamma(B) as 1/Gamma(B) over 1/Gamma(A), both on recip_gamma's
    real_axis route.

    Once both arguments reach 9, one m = floor(min(A, B)) - 8 shifts both:
    the quotient is taken at A - m and B - m, the smaller of which lies in
    [8, 9), and multiplied by (A - j)/(B - j) for j = 1..m in turn, so
    neither Gamma overflows.  Each factor is recip_gamma's, so from 9 up it
    is evaluated in [8, 9) and moved back by its own recurrence, and at an
    integer it is the exact 1/(m-1)!; where 1/Gamma(B - m) underflows to 0,
    the ratio is 0 and flagged.  Raises OverflowError once the ratio
    exceeds double precision (where 1/Gamma(A - m) underflows to 0, too),
    and RegammaError, before any work, once the 2m roundings of the
    factors alone would exceed eps_rel, where the ratio could only be
    flagged.
    """
    require_finite(A, "A")
    require_finite(B, "B")
    if not A > 0.0:
        raise NonPositiveArgument(f"A must be > 0, got {A!r}")
    if not B > 0.0:
        raise NonPositiveArgument(f"B must be > 0, got {B!r}")
    cfg = cfg or QuadratureConfig()
    m = max(0, math.floor(min(A, B)) - SHIFT_BASE)
    # each factor rounds twice: its quotient and the product
    roundings = _ROUTE_ROUNDING + 2 * m
    if roundings * 2.0**-53 > cfg.eps_rel:
        raise RegammaError(
            f"Gamma({A!r})/Gamma({B!r}) needs m = {m} recurrence factors, whose "
            f"roundings alone exceed eps_rel = {cfg.eps_rel!r}"
        )
    rg_a = recip_gamma(A - m, cfg, MethodTag.REAL_AXIS)
    rg_b = recip_gamma(B - m, cfg, MethodTag.REAL_AXIS)
    value = rg_b.value / rg_a.value if rg_a.value else math.inf
    for j in range(1, m + 1):
        value *= (A - j) / (B - j)
    if math.isinf(value):
        raise OverflowError(f"Gamma({A!r})/Gamma({B!r}) overflows double precision")
    record = propagate(value, [rg_a.quadrature, rg_b.quadrature], roundings, cfg.eps_rel)
    return GammaValue(value, MethodTag.REAL_AXIS, record)


def gamma(
    z: float,
    cfg: QuadratureConfig | None = None,
    method: MethodTag = MethodTag.REAL_AXIS,
) -> GammaValue:
    """Gamma(z) = 1/recip_gamma(z); exact factorials at positive integers.

    Negative z on a real-line route is Gamma(-w) at w = -z itself, the
    integral gamma_negative takes, so below about -171.6, where 1/Gamma(z)
    overflows, Gamma(z) is still its subnormal value.  The hankel route
    inverts 1/Gamma(z) at every z, and raises OverflowError there.  Raises
    PoleError at non-positive integers, OverflowError once the value
    exceeds double precision (integer z > 171, |z| below about 5.6e-309,
    and z = +inf) and NonFiniteArgument at NaN and -inf.
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
    cfg = cfg or QuadratureConfig()
    if z < 0.0 and method is not _HANKEL:
        return _real_line(decompose(-z), cfg, method, _GAMMA_NEG)
    rg = _recip_gamma(z, cfg, method)
    value = 1.0 / rg.value if rg.value else math.inf
    if math.isinf(value):
        raise OverflowError(f"Gamma({z!r}) overflows double precision")
    return GammaValue(value, rg.method, propagate(value, [rg.quadrature], 1, cfg.eps_rel))


def hankel_recip_gamma(
    z: float,
    contour: HankelContour | None = None,
    cfg: QuadratureConfig | None = None,
) -> GammaValue:
    """1/Gamma(z) as the paper's regularized contour integral, z > 0
    non-integer: hankel.contour_recip_gamma's record.

    The route's consistency check is invariance of the value under changes
    of delta and r0.  Raises ContourDegenerate for a ray angle outside
    (pi/2, pi), an arc radius not finite and positive, or one whose r0^{-z}
    or arc terms' sum, up to e^{r0} r0^{1-z}, overflow (hankel._validate).  From
    z = 172 (order 172 is past the kernel's table of 1/k!; 1/Gamma's range
    ends at z of about 174.8 at eps_rel 1e-8, 172.1 at 1e-14) the result
    is 0.0, flagged with an unbounded estimate and no evaluation.
    """
    arg = decompose(z)
    res = contour_recip_gamma(arg, contour or HankelContour(), cfg or QuadratureConfig())
    return GammaValue(res.value, _HANKEL, res)


def inverse_laplace(
    k: float, t: float, cfg: QuadratureConfig | None = None
) -> GammaValue:
    """Invert Gamma(k+1)/s^{k+1} at time t; the exact answer is t^k.

    The Bromwich integral of Gamma(k+1) e^{ts} / s^{k+1} over a Hankel
    contour is Gamma(k+1) t^k / Gamma(k+1), with 1/Gamma(k+1) from
    _steepest_descent.  From k + 1 = 9 up, both Gammas would
    be taken at w = k + 1 - m in [8, 9) and moved back by m factors of the
    recurrence that cancel, so both are taken at w and the factors left
    out; the product is formed in that order, so Gamma(w) and its
    reciprocal cancel first and the value overflows only where t^k itself
    does.  The result's record is that of the product: the relative errors
    of 1/Gamma(w) and of Gamma(w) add to those of its three roundings, and
    the flag is decided against cfg.eps_rel.
    """
    decompose(k)
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be finite and > 0, got {t!r}")
    cfg = cfg or QuadratureConfig()
    w = k + 1.0
    w -= max(0, math.floor(w) - SHIFT_BASE)
    gamma_w = gamma(w, cfg)
    recip = _steepest_descent(w, cfg)
    value = gamma_w.value * recip.value * t**k
    record = propagate(value, [recip, gamma_w.quadrature], 3, cfg.eps_rel)
    return GammaValue(value, _HANKEL, record)


def inverse_laplace_monomial(
    k: float,
    t: float,
    contour: None = None,
    cfg: QuadratureConfig | None = None,
) -> float:
    """The value of inverse_laplace: t^k from the contour integral.

    The third argument takes no contour; it must be None.
    """
    if contour is not None:
        raise TypeError(f"inverse_laplace_monomial takes no contour, got {contour!r}")
    return inverse_laplace(k, t, cfg).value
