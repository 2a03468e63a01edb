"""The adaptive quadrature engine and the one assembly of I(z).

integrate_finite is the package's only adaptive engine: an embedded 7/15
Gauss-Kronrod pair with worst-panel bisection and the classical QUADPACK
error scaling.  It takes real or complex integrands alike, so the same
engine sums the real-line parts below and the Hankel contour segments.
Like QUADPACK's round-off detection it stops bisecting once the panels'
round-off floors alone exceed the target, and flags the result.
combine() sums the parts of a composite integral and decides its flag.

The semi-infinite integral I(z) = int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx
is assembled once, by regularized_integral.  A route states only its change
of variables, as segments (integrand, a, b, seeds) that cover x in [0, R],
split at x = 1 and R = 36; the real axis (real_axis_segments) has two:

  [0, split]  -- substitute u = x^{1-frac} (origin_segment); the algebraic
                 x^{-frac} endpoint singularity cancels exactly and the
                 transformed integrand is bounded with limit
                 (-1)^n / ((1-frac) n!) at u = 0;
  [split, R]  -- the raw integrand, over geometrically seeded panels.

At order n = 0 the polynomial is empty and I(1 - A) is Euler's integral
for Gamma(A), A > 0; gamma_ratio takes its Gamma(A) factor that way, on the
real-axis segments (for small A as I(-A) = Gamma(1 + A), over A).

Every route shares the tail past R: the polynomial part -e_{n-1}(-x) x^{-z}
decays only like x^{-1-frac}, so its tail is added in closed form.  The
exponentially small e^{-x} x^{-z} tail has an analytic bound; when that is
below the tolerance on the rest of I(z) by a wide margin the tail is left
out and the bound kept as its error, otherwise it is integrated
numerically over one more stretch and the remainder past it bounded.

All parts share the sign (-1)^n (the Lagrange form of the Taylor
remainder of e^{-x} is single-signed on x > 0), so per-part relative error
control gives global relative control without cancellation surprises.
The near-integer flag of the sin(pi z)/pi product that turns I(z) into
1/Gamma(z) is decided here too, unless no such product follows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Sequence

from .kernel import ArgDecomposition, kernel_ratio, regularized_integrand, sinpi

# 7/15 Gauss-Kronrod abscissae and weights (positive half; node 0 last).
# Odd-indexed abscissae carry the embedded 7-point Gauss rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# Absolute error floor of every integration, below any relative target.
EPS_ABS = 1e-300

# Every route splits its integral at x = _SPLIT_POINT.  Past _TAIL_RADIUS
# the polynomial tail is summed analytically; the exponential tail is
# bounded, or integrated over one further stretch of _EXP_TAIL_SPAN.
_SPLIT_POINT = 1.0
_TAIL_RADIUS = 36.0
_EXP_TAIL_SPAN = 60.0

# An exponential tail whose analytic bound is at most this share of the
# tolerance on the rest of the integral is skipped, its bound kept as error.
_TAIL_NEGLIGIBLE = 0.01

# At the round-off floor, integrate_finite refines until its estimate is
# within this factor of the floor sum, then stops.
_FLOOR_MARGIN = 2.0

# The sin(pi z)/pi prefactor cancels the near-integer growth of I(z)
# analytically, but the product's achievable relative accuracy is about
# pi * eps_rel / |sin(pi z)|; flag once that exceeds this threshold.
_AMPLIFICATION_LIMIT = 1e-6


class ConditionFlag(str, Enum):
    OK = "ok"
    NEAR_INTEGER_AMPLIFICATION = "near_integer_amplification"
    TOLERANCE_NOT_MET = "tolerance_not_met"


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the adaptive engine."""

    eps_rel: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_rel < 1.0:
            raise ValueError(f"eps_rel must be in (0, 1), got {self.eps_rel!r}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    """Value, error estimate and diagnostics of one integration.

    value is complex exactly when the integrand is.
    """

    value: float | complex
    abs_error_estimate: float
    evaluations: int
    condition_flag: ConditionFlag = ConditionFlag.OK


def _fsum(values: list) -> float | complex:
    """math.fsum, taken over the real and imaginary parts of complex values."""
    try:
        return math.fsum(values)
    except TypeError:
        return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def _gk15(f: Callable[[float], float | complex], a: float, b: float):
    """One 15-point Kronrod panel: (value, error estimate, round-off floor).

    The floor is 50 eps resabs, the least error the estimate admits; it is
    0 where resabs is too small for that bound to apply.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    fv = []
    for i, x in enumerate(_XGK):
        dx = half * x
        f1 = f(center - dx)
        f2 = f(center + dx)
        fv.append((f1, f2))
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - reskh)
    for i, (f1, f2) in enumerate(fv):
        resasc += _WGK[i] * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 0.0
    if resabs > _UFLOW / (50.0 * _EPMACH):
        floor = _EPMACH * 50.0 * resabs
        err = max(floor, err)
    return value, err, floor


def integrate_finite(
    f: Callable[[float], float | complex],
    a: float,
    b: float,
    cfg: QuadratureConfig,
    breakpoints: Sequence[float] | None = None,
) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of f over the finite [a, b].

    f may be real or complex valued; |.| is then the complex modulus.
    Optional breakpoints seed the initial panel layout (useful for
    integrands living on many length scales); they must lie inside (a, b).
    The worst panel is bisected until the summed error estimate meets
    max(EPS_ABS, eps_rel * |value|) or the subdivision budget runs out,
    in which case the best value is returned with the flag set.

    No panel's estimate falls below its round-off floor (see _gk15), so
    once the floors alone sum past the target, bisection cannot meet it:
    the worst panels are then refined only until the estimate is within
    _FLOOR_MARGIN times the floor sum, and the result is returned with
    the flag set and an estimate near the floor.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    edges = [a]
    if breakpoints:
        edges.extend(x for x in sorted(breakpoints) if a < x < b)
    edges.append(b)

    panels = []
    evaluations = 0
    floor_sum = 0.0
    for left, right in zip(edges, edges[1:]):
        val, err, floor = _gk15(f, left, right)
        panels.append([err, left, right, val, floor])
        floor_sum += floor
        evaluations += 15

    nsub = 0
    flag = ConditionFlag.OK
    while True:
        total_val = _fsum([p[3] for p in panels])
        total_err = math.fsum(p[0] for p in panels)
        target = max(EPS_ABS, cfg.eps_rel * abs(total_val))
        if total_err <= target:
            break
        if floor_sum > target and total_err <= _FLOOR_MARGIN * floor_sum:
            # at the round-off floor: further bisection cannot certify
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        if nsub >= cfg.max_subdivisions:
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        worst = max(panels, key=lambda p: p[0])
        left, right = worst[1], worst[2]
        mid = 0.5 * (left + right)
        if not left < mid < right:
            # panel is at floating-point resolution; cannot refine further
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        panels.remove(worst)
        floor_sum -= worst[4]
        for lo, hi in ((left, mid), (mid, right)):
            val, err, floor = _gk15(f, lo, hi)
            panels.append([err, lo, hi, val, floor])
            floor_sum += floor
        evaluations += 30
        nsub += 1

    return IntegralResult(
        value=_fsum([p[3] for p in panels]),
        abs_error_estimate=math.fsum(p[0] for p in panels),
        evaluations=evaluations,
        condition_flag=flag,
    )


def geometric_breakpoints(a: float, b: float) -> list[float]:
    """Panel seeds a*2^k inside (a, b), for many-scale integrands."""
    if not a > 0.0:
        raise ValueError("geometric seeding needs a > 0")
    pts = []
    x = 2.0 * a
    while x < b:
        pts.append(x)
        x *= 2.0
    return pts


def polynomial_tail_closed_form(arg: ArgDecomposition, R: float) -> float:
    """int_R^inf -e_{n-1}(-x) x^{-z} dx, summed term by term.

    Each term integrates to (-1)^k/k! * R^{k-z+1}/(k-z+1); every exponent
    k - z + 1 is negative because k <= n-1 < z, so the sum is finite.
    Returns 0 for n = 0 (empty polynomial).
    """
    if not R > 0.0:
        raise ValueError(f"need R > 0, got {R!r}")
    total = 0.0
    coeff = 1.0  # (-1)^k / k!
    for k in range(arg.n):
        expo = k - arg.z + 1.0
        total += coeff * math.exp(expo * math.log(R)) / expo
        coeff *= -1.0 / (k + 1)
    return total


def tail_negligible(bound: float, cfg: QuadratureConfig, rest: float | complex) -> bool:
    """True when a tail bounded by bound cannot matter at cfg's tolerance
    next to the rest of its integral."""
    return bound <= _TAIL_NEGLIGIBLE * cfg.eps_rel * abs(rest)


def exponential_tail(z: float, X: float, cfg: QuadratureConfig, rest: float) -> IntegralResult:
    """int_X^inf e^{-x} x^{-z} dx for X > 0 and any real z.

    rest is the value of the parts of the integral before X.  For X + z > 0
    the tail is at most B = e^{-X} X^{-z} max(1, X / (X + z)): x^{-z} is
    decreasing for z >= 0, and for z < 0 the log-derivative of the
    integrand stays below -(X + z)/X.  When tail_negligible(B, cfg, rest)
    the tail is not integrated: the result is 0 with error B.

    Otherwise it is integrated numerically over [X, X + span], span =
    max(60, 3 (1 - z)), which keeps the stretch well past the peak at
    x = -z; the neglected remainder is bounded by e^{-(X+span)} (X+span)^{-z}
    and added to the error estimate.
    """
    if X + z > 0.0:
        bound = math.exp(-X - z * math.log(X)) * max(1.0, X / (X + z))
        if tail_negligible(bound, cfg, rest):
            return IntegralResult(0.0, bound, 0)

    top = X + max(_EXP_TAIL_SPAN, 3.0 * (1.0 - z))

    def f(x: float) -> float:
        return math.exp(-x - z * math.log(x))

    res = integrate_finite(f, X, top, cfg, breakpoints=[X + 5.0, X + 15.0, X + 30.0])
    bound = math.exp(-top - z * math.log(top))
    return replace(res, abs_error_estimate=res.abs_error_estimate + bound)


def near_integer_amplified(z: float, eps_rel: float) -> bool:
    """True when the final sin(pi z)/pi product cannot be trusted to 1e-6."""
    return abs(sinpi(z)) < math.pi * eps_rel / _AMPLIFICATION_LIMIT


def combine(
    parts: Sequence[IntegralResult], extra_error: float = 0.0, amplified: bool = False
) -> IntegralResult:
    """The sum of the parts of a composite integral, and its flag.

    Values, error estimates and evaluations add up in the order given; a
    closed-form term enters as a part with no error and no evaluations.
    extra_error is a bound on what the parts leave out.  The flag is
    tolerance_not_met if any part missed its tolerance, otherwise
    near_integer_amplification if a part carries it or amplified is set
    (a sin(pi z)/pi factor that multiplies the sum loses accuracy next to
    an integer z), otherwise ok.
    """
    flags = {p.condition_flag for p in parts}
    if ConditionFlag.TOLERANCE_NOT_MET in flags:
        flag = ConditionFlag.TOLERANCE_NOT_MET
    elif amplified or ConditionFlag.NEAR_INTEGER_AMPLIFICATION in flags:
        flag = ConditionFlag.NEAR_INTEGER_AMPLIFICATION
    else:
        flag = ConditionFlag.OK
    return IntegralResult(
        value=sum(p.value for p in parts),
        abs_error_estimate=sum(p.abs_error_estimate for p in parts) + extra_error,
        evaluations=sum(p.evaluations for p in parts),
        condition_flag=flag,
    )


def combine_product(value: float, factors: Sequence[IntegralResult | None]) -> IntegralResult:
    """The diagnostics of value, a product of factors computed by quadrature.

    The relative errors of the factors add; evaluations add and the flag
    is decided as in combine.  An exact factor (None) contributes nothing.
    """
    parts = [f for f in factors if f is not None]
    rel = sum(p.abs_error_estimate / abs(p.value) for p in parts if p.value)
    return replace(combine(parts), value=value, abs_error_estimate=abs(value) * rel)


# One stretch of a route's integral: (integrand, a, b, panel seeds or None).
Segment = tuple[Callable[[float], float], float, float, Sequence[float] | None]


def origin_segment(arg: ArgDecomposition, split: float) -> Segment:
    """I(z) over [0, split] after u = x^{1-frac}: p * kernel_ratio(u^p, n)."""
    n = arg.n
    p = 1.0 / (1.0 - arg.frac)

    def origin(u: float) -> float:
        return p * kernel_ratio(u**p, n)

    return origin, 0.0, split ** (1.0 - arg.frac), None


def real_axis_segments(arg: ArgDecomposition, split: float, R: float) -> list[Segment]:
    """The real-axis route: origin_segment on [0, split], then the raw
    integrand on [split, R] over geometrically seeded panels."""
    middle = (lambda x: regularized_integrand(x, arg), split, R, geometric_breakpoints(split, R))
    return [origin_segment(arg, split), middle]


def regularized_integral(
    arg: ArgDecomposition,
    cfg: QuadratureConfig,
    segments: Callable[[float, float], Sequence[Segment]],
    *,
    near_integer_flag: bool = True,
) -> IntegralResult:
    """I(z) from a route's segments over [0, R] and the shared tail past R.

    segments(split, R) states the route's change of variables: the
    stretches that together cover x in [0, R].  The closed-form polynomial
    tail and the exponential tail follow them, in that order; each part
    gets half the tolerance.  With near_integer_flag (the default) the
    result carries near_integer_amplification when z is close enough to an
    integer that the sin(pi z)/pi product turning I(z) into 1/Gamma(z)
    loses accuracy; a caller after I(z) itself turns it off.
    """
    sub = replace(cfg, eps_rel=cfg.eps_rel / 2.0)
    parts = [
        integrate_finite(f, a, b, sub, seeds)
        for f, a, b, seeds in segments(_SPLIT_POINT, _TAIL_RADIUS)
    ]
    parts.append(IntegralResult(polynomial_tail_closed_form(arg, _TAIL_RADIUS), 0.0, 0))
    rest = sum(p.value for p in parts)
    parts.append(exponential_tail(arg.z, _TAIL_RADIUS, sub, rest))
    amplified = near_integer_flag and near_integer_amplified(arg.z, cfg.eps_rel)
    return combine(parts, amplified=amplified)


def integrate_regularized_kernel(
    arg: ArgDecomposition, cfg: QuadratureConfig | None = None
) -> IntegralResult:
    """I(z) = int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx with n = [z],
    over real_axis_segments; see regularized_integral for the rest."""
    return regularized_integral(arg, cfg or QuadratureConfig(), partial(real_axis_segments, arg))
