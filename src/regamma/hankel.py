"""The contour layer: Hankel's integral for the reciprocal Gamma function,
its nodes and rules, each returning an IntegralResult.  gamma_core chooses
every argument and shift and builds every GammaValue from these records.

steepest_descent_recip_gamma is the hankel route's rule, a trapezoid rule
on the steepest-descent path of 1/Gamma(w) = (1/2 pi i) int_H e^s s^{-w} ds.
With s = w u the exponent is w (u - log u), and the path u(theta) =
theta/sin(theta) e^{i theta}, -pi < theta < pi, keeps Im(u - log u) = 0:
the integrand e^s s^{-w} is real and positive on it, peaks at theta = 0
and falls off faster than exponentially towards both ends, and Im u =
theta.  For real w the two halves are conjugate, so 1/Gamma(w) = (w/pi)
int_0^pi e^s s^{-w} dtheta with s = w u(theta), and the trapezoid rule on
it converges geometrically (Weideman & Trefethen, Math. Comp. 76, 2007).
On a path that stays off the origin the paper's regularizing polynomial
integrates to exactly 0, so each node is the paper's integrand at order 0,
ray_kernel(|s|, log |s|, theta, e^{i theta}, w, 0, 0.0, None).  At w in
[8, 9], where gamma_core takes it, the 14 nodes theta_j = j pi / 14 reach
double precision, and the record's error is counted, not the difference
of two sums: the rule's truncation, TRAPEZOID_TRUNCATION, plus its
rounding, TRAPEZOID_ROUNDING, both measured against mpmath over a dense
grid of w and held by tests.  The strip bound of Weideman & Trefethen
asks the periodic integrand to be analytic on a strip about the real
axis, and at theta = +-pi it is not (it vanishes there, but its
continuation past +-pi grows without bound), so the bound gives no count.

contour_recip_gamma is the paper's own contour, the cross-check of its
claim that the real-line integral equals Hankel's (with arc_contribution).
It runs in from infinity along the ray arg(tau) = -delta, circles the
origin counterclockwise on an arc of radius r0, and runs back out along
arg(tau) = +delta, with pi/2 < delta < pi so the exponential decays on
the rays and the path stays clear of the branch cut on the negative real
axis.  tau^z uses the principal logarithm throughout.  For real z the
integrand at conj(tau) is the conjugate of the one at tau, so the contour
integral is 2i times the imaginary part of its upper half; only that half
is evaluated, the imaginary part of each part kept, and the parts are
divided by pi once at the end.

Because the numerator is the regularized remainder e^tau - e_{n-1}(tau),
the integrand is integrable over the shrinking arc (it vanishes like
r0^{1-frac}), which is exactly what makes the truncation order n = [z]
the right one.  On the arc that remainder is sum_{k>=n} tau^k/k!, which
_arc_series sums term by term.  Every node of the ray, and of the
steepest-descent rule, is ray_kernel, which takes the remainder by the
kernel's own dispatch: beyond max(1, n/2) the direct difference, e_{n-1}
by Horner's rule over the kernel's 1/k!, and within it, for n >= 1, the
kernel's one series n! sum_{j>=0} tau^j/(n+j)! times tau^n/n!, which goes
into the power of tau.  Off the series path, where tau^{-z} alone would
leave the normal range, each term of the difference takes its power of
tau in its exponent, e_{n-1}(tau) as tau^{n-1} times the table's Horner
sum in 1/tau, so neither tau^{-z} nor e_{n-1}(tau) leaves the range on
its own; the table, and the contour, end at order 171.  The public
kernel.exp_remainder and kernel_ratio only see real arguments.

The ray up to R, in t = log r, is entire in t, so it is summed by equal
15-point Gauss-Legendre panels, as on the real axis, whose count
(quadrature._gl15_panels, before any evaluation) is the least whose
closed-form bound holds to an eighth of the tolerance on an a-priori
lower bound of pi/Gamma(z), up to _PANEL_CAP, a limit on cost.  Beyond R
the ray's polynomial part is the real line's closed-form tail with a
phase (quadrature.polynomial_tail_closed_form); it is not shifted, so at
large z its terms dwarf the value, and the result is flagged.  The
exponential part is at most e^{R cos delta} R^{-z} / |cos delta|, and R
is where that bound, R^{-z} taken as 1, is a negligible share
(_TAIL_NEGLIGIBLE) of the ray's tolerance times min(1, z), the a-priori
size of 1/Gamma(z) as z -> 0; it is left out, the bound kept as its
error.  These are the real line's four parts, the arc in place of the
origin's stretch and the ray in place of the middle: no part sets a
flag, and quadrature.combine flags their sum where its error misses the
tolerance.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import ContourDegenerate
from .kernel import _KEPT_ORDERS, _TAYLOR, ArgDecomposition, _ratio_series, _taylor, decompose
from .quadrature import (
    _EPMACH,
    _GL15,
    _SUBNORMAL,
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    _Frozen,
    _gl15_panels,
    combine,
    polynomial_tail_closed_form,
    propagate,
)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_SUBNORMAL = math.log(math.ulp(0.0))
_ARC_HEADROOM = math.log(8.0)  # the arc's sums, up to 1 + pi times its terms' bound
# The ray ends where the bound on its exponential part past it is this
# share of the ray's tolerance on 1/Gamma(z).
_TAIL_NEGLIGIBLE = 0.01
# 15-point panels the paper's ray takes at most, a limit on cost alone: a
# capped ray keeps its bound in its error.
_PANEL_CAP = 64
# Relative rounding of a node of the paper's contour, in units of eps,
# before the rounding of the kernel's exponents is added.
_NODE_ROUNDING = 4
# The rounding of the kernel's direct path, e^tau - e_{n-1}(tau), past the
# node's own count, in units of eps times the terms' sum e_{n-1}(|tau|):
# measured against mpmath at n = 20 to 161, |tau| in (n/2, 1.3 n), it
# reached 0.18 at arg tau >= 1.6, where every ray lies (5.4 next to the
# positive real axis, where the terms all add, but no node lies there).
_RAY_CANCELLATION = 0.25

# The route's trapezoid rule at w in [8, 9]: its nodes theta_j = j pi / N,
# j < N, on the steepest-descent path, stored as (theta, e^{i theta},
# theta / sin theta).
_TRAPEZOID_N = 14
_PATH_NODES = tuple(
    (theta, cmath.rect(1.0, theta), theta / math.sin(theta) if theta else 1.0)
    for theta in (j * math.pi / _TRAPEZOID_N for j in range(_TRAPEZOID_N))
)
# The rule's truncation error relative to 1/Gamma(w), in units of 2^-53:
# the sum of the exact nodes against mpmath at 40 digits, over 2,001 w
# spread evenly over [8, 9], was at most 0.144 units (16.1 at 12 nodes,
# 1.6 at 13); tests/test_hankel.py holds it.
TRAPEZOID_TRUNCATION = 1.0
# The rule's rounding relative to 1/Gamma(w), in units of 2^-53: the
# kernel's exponent, tau - w log tau, has terms up to about 20 at the peak;
# the 14-node sum in doubles was at most 21.6 units off over 3,000 w in
# [8, 9), truncation included.  t = log w + log rho in place of
# log(w rho) took a 24-node sum's from 26.3 to 36.5.
TRAPEZOID_ROUNDING = 32


class HankelContour(_Frozen):
    """Ray angle and arc radius, validated where a contour is used
    (_validate), as the limits depend on z."""

    __slots__ = ("delta", "r0")

    def __init__(self, delta: float = 0.75 * math.pi, r0: float = 0.5) -> None:
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "r0", r0)


def _validate(contour: HankelContour, z: float, n: int) -> None:
    if not 0.5 * math.pi < contour.delta < math.pi:
        raise ContourDegenerate(
            f"ray angle must lie in (pi/2, pi), got {contour.delta!r}"
        )
    if not 0.0 < contour.r0 < math.inf:
        raise ContourDegenerate(f"arc radius must be finite and > 0, got {contour.r0!r}")
    log_r0 = math.log(contour.r0)
    # the integrand carries |tau|^{-z}, which is largest on the arc
    if -z * log_r0 > _LOG_FLOAT_MAX:
        raise ContourDegenerate(
            f"arc radius {contour.r0!r} is too small for z = {z!r}: r0^-z overflows"
        )
    # _arc_series' terms, times 2^s, sum to at most 2^s e^{r0} r0^{1-z} min(1, r0^n/n!)
    log_sum = contour.r0 + (1.0 - z) * log_r0 + min(0.0, n * log_r0 - math.lgamma(n + 1))
    if log_sum + _arc_shift(n) * math.log(2.0) > _LOG_FLOAT_MAX - _ARC_HEADROOM:
        raise ContourDegenerate(f"arc radius {contour.r0!r} is too large for z = {z!r}: "
                                "the arc's terms, up to e^r0 r0^(1-z), overflow")


def _arc_shift(n: int) -> int:
    """s of the arc series' start 2^s/n!, the least >= 0 keeping it above 2^-1000."""
    return max(0, math.factorial(n).bit_length() - 1000)


def _phases(theta: float, z: float, n: int) -> tuple[complex, complex]:
    """e^{i(n-z) theta} and e^{-iz theta}: on the principal branch, the
    angular factors of tau^{n-z} and tau^{-z} at arg tau = theta."""
    return cmath.rect(1.0, (n - z) * theta), cmath.rect(1.0, -z * theta)


def ray_kernel(r: float, t: float, theta: float, unit: complex, z: float, n: int,
               log_fact: float, phases: tuple[complex, complex] | None) -> tuple[complex, float]:
    """(e^tau - e_{n-1}(tau)) / tau^z at tau = r e^{i theta}, a node of the
    paper's ray or of the steepest-descent rule, with e_{n-1}(r) r^{-z},
    the moduli its direct path cancels (0.0 at order 0 and on the series path).

    Beside r and theta the caller passes t = log r, unit = e^{i theta},
    log_fact = lgamma(n + 1) and phases = _phases(theta, z, n), formed once
    per ray, which holds them constant; order 0 takes neither.  A series
    node is the kernel's series times exp((n - z) t - log_fact) times
    phases[0], a direct node e^tau - e_{n-1}(tau) times e^{-zt} times
    phases[1], e_{n-1}(tau) and e_{n-1}(r) by Horner's rule in one loop
    over the kernel's table of 1/k!.  Past z t = log(largest double) - 10,
    where tau^{-z} leaves the normal range, the node is exp(tau - z log tau)
    minus exp((n - 1 - z) log tau) times that loop in 1/tau from 1/0! up, the
    moduli alike in 1/r: to order 171, the table's last, all stay in range.
    """
    tau = r * unit
    if not n:
        return cmath.exp(tau - z * complex(t, theta)), 0.0
    if r <= 1.0 or r <= 0.5 * n:  # the kernel's series radius, as in exp_remainder
        return _ratio_series(tau, n) * (math.exp((n - z) * t - log_fact) * phases[0]), 0.0
    if z * t > _LOG_FLOAT_MAX - 10.0:
        log_tau = complex(t, theta)
        u, v = 1.0 / tau, 1.0 / r
        total = moduli = 0.0
        for c in reversed(_TAYLOR.get(n) or _taylor(n)):
            total = total * u + c
            moduli = moduli * v + c
        return (cmath.exp(tau - z * log_tau) - total * cmath.exp((n - 1 - z) * log_tau),
                moduli * math.exp((n - 1 - z) * t))
    total = moduli = 0.0
    for c in _TAYLOR.get(n) or _taylor(n):
        total = total * tau + c
        moduli = moduli * r + c
    scale = math.exp(-z * t)
    return (cmath.exp(tau) - total) * (scale * phases[1]), moduli * scale


def steepest_descent_recip_gamma(w: float) -> IntegralResult:
    """The record of 1/Gamma(w), w in [8, 9]: the 14-node trapezoid sum of
    (w/pi) int_0^pi e^s s^{-w} dtheta, its whole error, the truncation
    count TRAPEZOID_TRUNCATION and the rounding count TRAPEZOID_ROUNDING,
    in units of 2^-53 of the value, which is positive."""
    terms = [ray_kernel(w * rho, math.log(w * rho), theta, unit, w, 0, 0.0, None)[0].real
             for theta, unit, rho in _PATH_NODES]
    value = (0.5 * terms[0] + math.fsum(terms[1:])) * (w / _TRAPEZOID_N)
    err = (TRAPEZOID_TRUNCATION + TRAPEZOID_ROUNDING) * 2.0**-53 * value
    return IntegralResult(value, err, _TRAPEZOID_N)


def _target(z: float, eps_rel: float) -> float:
    """The ray's target: an eighth of eps_rel times pi/Gamma(z), the
    contour integral's size, bounded below a priori.  1/Gamma(z) is at least
    z up to 1, as 1/Gamma(z) = z/Gamma(1 + z) and Gamma <= 1 on [1, 2]; from
    1 up, Stirling's upper bound Gamma(z) <= sqrt(2 pi) z^{z-1/2}
    e^{-z + 1/(12 z)} bounds it."""
    if z <= 1.0:
        log_floor = math.log(z)
    else:
        log_floor = -((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI + 1.0 / (12.0 * z))
    return eps_rel / 8.0 * math.pi * math.exp(log_floor)


def _ray(arg: ArgDecomposition, contour: HankelContour, R: float, target: float) -> IntegralResult:
    """The imaginary part of the integral of f(s) = (e^s - e_{n-1}(s)) / s^z
    over the ray tau = r e^{i delta}, r0 <= r <= R.

    In t = log r, d tau = tau dt and the integrand tau f(tau) is the kernel
    at the power z - 1, entire in t; the ray's direction, its phases and
    lgamma(n + 1) are formed once, and each node passes t itself.  On the
    strip |Im t| <= delta - pi/2, Re tau <= 0, so |e^tau - e_{n-1}(tau)| <=
    |tau|^n/n! (as on the real axis) and |tau f| <= e^{(1-frac) Re t}/n!:
    the panel count is the least whose bound meets target, at most
    _PANEL_CAP, where the bound, in the error all the same, may miss it.

    Each node, one ray_kernel call, adds w Im f, w |f| and w c, its weight
    w times the pair (f, c) that ray_kernel returns; w Im f, not the complex
    w f, which has the same imaginary part wherever f is finite.  The value
    is h times the sum of w Im f, by math.fsum, so rounded once whatever
    the node count.  The error is the rule's bound plus (_NODE_ROUNDING +
    a) eps of h sum w |f|, a = z log_tau + 2 log n! bounding the exponents
    that the kernel exponentiates, log_tau = max |t| + delta bounding
    |log tau| (their rounding, lgamma's to 2 eps, is relative to the node),
    and _RAY_CANCELLATION eps of h sum w c, the terms that the kernel's
    direct path cancels, counted by each node.
    """
    z, n, frac = arg.z, arg.n, arg.frac
    delta, r0 = contour.delta, contour.r0
    power = z - 1.0
    unit = cmath.rect(1.0, delta)
    log_fact = math.lgamma(n + 1)
    phases = _phases(delta, power, n)
    lo, hi = math.log(r0), math.log(R)
    panels, bound = _gl15_panels(lo, hi, _PANEL_CAP, delta - 0.5 * math.pi, -log_fact,
                                 1.0 - frac, target)
    h = (hi - lo) / (2 * panels)
    imags, moduli, cancelled = [], 0.0, 0.0
    for p in range(panels):
        centre = lo + (2 * p + 1) * h
        for x, w in _GL15:
            t = centre + h * x
            f, c = ray_kernel(math.exp(t), t, delta, unit, power, n, log_fact, phases)
            imags.append(w * f.imag)
            moduli += w * abs(f)
            cancelled += w * c
    lo_size, hi_size = abs(lo), abs(hi)
    log_tau = (hi_size if hi_size > lo_size else lo_size) + delta
    amplification = z * log_tau + 2.0 * log_fact
    rounding = (_NODE_ROUNDING + amplification) * moduli + _RAY_CANCELLATION * cancelled
    return IntegralResult(h * math.fsum(imags), bound + _EPMACH * h * rounding, len(imags))


def _arc_series(arg: ArgDecomposition, r0: float, delta: float) -> IntegralResult:
    """Im of the integral of (e^tau - e_{n-1}(tau)) tau^{-z} over the arc
    tau = r0 e^{i theta}, 0 <= theta <= delta.  The remainder is
    sum_{k>=n} tau^k/k!, so the arc is sum_{k>=n} r0^a sin(delta a)/(a k!),
    a = k + 1 - z = j + b, j = k - n, b = 1 - frac: the real line's origin
    series with sin(delta a) in place of (-1)^k, (-1)^k sinpi(z) at delta =
    pi.  The terms are the real line's with e^{i delta} in place of -1, and
    the imaginary part of their sum is kept.  frac = z - order > 1 (lower
    orders of arc_contribution) makes b exact and negative.  1/n! is 2^s/n!
    (_arc_shift), a ratio of integers, and the sum is scaled by 2^-s: while
    r0 > k the terms grow, but their sum stays in range (_validate).  The
    sum stops once a term is below eps of it, a > 0 and the next factor is
    at most 1/2, so all the rest is below that term; a NaN stops it too.

    Below the order [z], where b is exact and negative, a is exact too,
    and the one or two terms with |a| < 1 are formed as the first is, from
    r0^a and 2^s/k!, their real parts not summed either: from the running
    product, sin(a delta) next to a = 0 would inherit a phase error of a
    few eps k delta, relative to a delta, which is all of its size.

    The error is derived in units u = eps/2, to first order (pow, cos and
    sin to 1 ulp), of S, the imaginary parts of the terms formed directly
    plus the other terms' moduli:
    - a term formed directly, r0^a e^{i a delta} 2^s/(k! a) (a = b for the
      first): pow, 2^s/k!, sin, a and their products and division 9u, and
      a's rounding |a| |log r0| u (0 but for the first), of its imaginary
      part; a delta's rounding 2 |a| delta u of its modulus;
    - every other term j > 0: the first's 7u + |b| (2 delta + |log r0|) u
      (or less, from a term formed directly since), the running factor
      r0 e^{i delta}/k's 6.3u a step (cmath.rect 3u, the division u, the
      complex product sqrt(5) u), a's and the division's 3u: at most
      5 + |b| (delta + |log r0|) + 3.2 j eps of its modulus;
    - the rest past the last term J is below eps S, and the running sum
      rounds by u of its imaginary part, at most u ((J + 1) S - sum j |t_j|).
    In all 9 + |b| (delta + |log r0|) + (J + 1)/2 eps of S, 2.7 eps of
    sum j |t_j| and |a| delta eps of the moduli of the terms formed
    directly, and below the normal range 4 subnormal units a term and one
    for the scaling.
    """
    n, base, shift = arg.n, 1.0 - arg.frac, _arc_shift(arg.n)
    coeff = cmath.rect(r0**base * ((1 << shift) / math.factorial(n)), base * delta)
    step = cmath.rect(r0, delta)
    first = coeff / base  # the term k = n
    total = complex(0.0, first.imag)  # Re first, not summed, would dominate |total|
    phase = abs(base) * delta
    near = phase * abs(first)  # b delta's rounding, and a delta's of terms formed as it is
    abs_sum, steps, j = abs(total), 0.0, 0  # j = k - n
    while True:
        j += 1
        a = j + base
        if a < 1.0 and a > -1.0:
            # below the order [z]: formed as the first term is, its real
            # part not summed either
            coeff = cmath.rect(r0**a * ((1 << shift) / math.factorial(n + j)), a * delta)
            term = coeff / a
            total += complex(0.0, term.imag)
            abs_sum += abs(term.imag)
            near += abs(a) * delta * abs(term)
            continue
        coeff *= step / (n + j)
        term = coeff / a
        total += term
        size = abs(term)
        abs_sum += size
        steps += j * size
        if not size > _EPMACH * abs(total) and a > 0.0 and 2.0 * r0 <= n + j + 1:
            break
    count = ((9.0 + phase + abs(base) * abs(math.log(r0)) + 0.5 * (j + 1)) * abs_sum
             + 2.7 * steps + near)
    err = math.ldexp(_EPMACH * count + 4 * (j + 1) * _SUBNORMAL, -shift) + _SUBNORMAL
    return IntegralResult(math.ldexp(total.imag, -shift), err, 0)


def contour_recip_gamma(
    arg: ArgDecomposition, contour: HankelContour, cfg: QuadratureConfig
) -> IntegralResult:
    """The record of 1/Gamma(z), z = arg.z > 0 non-integer, as the paper's
    (1/2 pi i) contour integral of (e^s - e_{n-1}(s)) / s^z.

    The value is real: Im of the upper half's integral over pi, by propagate:
    a sum that underflowed to 0 is never ok.  Past 1/Gamma's range no value
    that lies within its estimate can be ok, so none is summed.
    propagate's one rounding puts at least one subnormal unit u = 2^-1074
    in the error, so an ok value v has u <= eps_rel |v|; within its
    estimate, |v - 1/Gamma(z)| <= eps_rel |v|, so |v| <= |1/Gamma(z)| /
    (1 - eps_rel).  By Stirling's lower bound Gamma(z) >= sqrt(2 pi)
    z^{z-1/2} e^{-z}, which holds at every z > 0, |1/Gamma(z)| <=
    e^{z - (z-1/2) log z} / sqrt(2 pi).  Where eps_rel / (1 - eps_rel)
    times that bound is below u, from z of about 174.8, 173.0 and 172.1 at
    eps_rel 1e-8, 1e-12 and 1e-14, and from order 172, past the kernel's
    table of 1/k!, at any eps_rel, the record of a sum that underflowed to
    0 is returned before any node.
    """
    z = arg.z
    _validate(contour, z, arg.n)
    log_bound = z - (z - 0.5) * math.log(z) - _HALF_LOG_2PI
    if (arg.n > _KEPT_ORDERS
            or log_bound + math.log(cfg.eps_rel / (1.0 - cfg.eps_rel)) < _LOG_SUBNORMAL):
        return IntegralResult(0.0, math.inf, 0, ConditionFlag.TOLERANCE_NOT_MET)
    delta, r0 = contour.delta, contour.r0
    decay = abs(math.cos(delta))
    # R as in the module's docstring, at least 4 r0; L is summed as logs:
    # as a product it underflows at tiny z
    L = -(
        math.log(_TAIL_NEGLIGIBLE)
        + math.log(cfg.eps_rel)
        - math.log(8.0)
        + math.log(min(1.0, z))
        + math.log(decay)
    )
    R = max(4.0 * r0, L / decay)
    target = _target(z, cfg.eps_rel)
    parts = [
        # the upper half-arc, the origin series at r0 with delta
        _arc_series(arg, r0, delta),
        _ray(arg, contour, R, target),
        # the polynomial part of the ray beyond R, in closed form
        polynomial_tail_closed_form(arg, R, delta),
        # the exponential part of the ray beyond R: left out, its bound kept
        IntegralResult(0.0, math.exp(R * math.cos(delta) - z * math.log(R)) / decay, 0),
    ]
    # each part meets its own tolerance, but the parts can cancel (the
    # value is about z as z -> 0), so the sum is checked as well
    raw = combine(parts, cfg.eps_rel)
    return propagate(raw.value / math.pi, [raw], 1, cfg.eps_rel)


def arc_contribution(
    z: float, contour: HankelContour | None = None, order: int | None = None
) -> float:
    """The (1/2 pi i)-normalized integral over the arc alone, a real number,
    (1/pi) sum_{k>=order} r0^a sin(a delta)/(a k!), a = k + 1 - z, by
    _arc_series, which forms every term with |a| < 1 on its own, so that z
    next to an integer loses no digits below the order [z] either.

    With the regularizing order n = [z] (the default) the magnitude decays
    like r0^{1-frac} as the arc shrinks; passing order=0 reproduces the
    unregularized kernel, whose arc contribution does not vanish for z > 1.
    A negative order raises ValueError, as in kernel.exp_remainder.
    """
    arg = decompose(z)
    contour = contour or HankelContour()
    n = arg.n if order is None else order
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    _validate(contour, z, n)
    arc = _arc_series(ArgDecomposition(z, n, z - n), contour.r0, contour.delta)
    return arc.value / math.pi
