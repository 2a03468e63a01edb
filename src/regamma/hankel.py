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
ray_kernel(|s|, theta, w, 0).  At w in [8, 9), where gamma_core takes it,
24 nested nodes reach double precision; the difference of the 12- and
24-node sums is the error estimate.

contour_recip_gamma is the paper's own contour, the cross-check of its
claim that the real-line integral equals Hankel's (with arc_contribution).
It runs in from infinity along the ray
arg(tau) = -delta, circles the origin counterclockwise on an arc of
radius r0, and runs back out along arg(tau) = +delta, with
pi/2 < delta < pi so the exponential decays on the rays and the path
stays clear of the branch cut on the negative real axis.  tau^z uses the
principal logarithm throughout.

Because the numerator is the regularized remainder e^tau - e_{n-1}(tau),
the integrand is integrable over the shrinking arc (it vanishes like
r0^{1-frac}), which is exactly what makes the truncation order n = [z]
the right one.  Every node of the contour, and of the steepest-descent
rule, is ray_kernel, which takes the remainder by the kernel's own
dispatch: beyond max(1, n/2) the direct difference, and within it, for
n >= 1, the kernel's one series n! sum_{j>=0} tau^j/(n+j)! times
tau^n/n!, which goes into the power of tau; each segment forms what it
holds constant once.  A series node underflows only where its own value
does (at z = 108.03 and r0 = 0.025, r0^n/n! alone underflows; the arc is
about 7e-177).  Off the series path, where tau^{-z} alone would leave the
normal range (z log|tau| > 699.8), each term of the difference takes its
power of tau in its exponent, so neither tau^{-z} nor e_{n-1}(tau) leaves
the range alone.  The public kernel.exp_remainder and kernel_ratio only
ever see real arguments.
Beyond the truncation radius the polynomial part of each ray has an
elementary antiderivative, the real line's closed-form tail
with a phase (quadrature.polynomial_tail_closed_form, with the rounding
bound of its terms as its error).  It is not shifted: at large z its
terms dwarf the value, and the result is flagged.  The exponential part is
bounded by e^{R cos delta} R^{-z} / |cos delta|, and R is where that
bound, R^{-z} taken as 1, is a negligible share (_TAIL_NEGLIGIBLE) of a
segment's tolerance times min(1, z), the a-priori size of 1/Gamma(z) as
z -> 0.  That part is never integrated: it is left out, the bound kept as
its error; where the tolerance cannot hold the bound, it flags the result.

For real z the integrand at conj(tau) is the conjugate of the one at tau,
so the contour integral is 2i times the imaginary part of its upper half;
only that half is evaluated, and its parts are divided by pi once at the
end.  The arc's share is the real integrand Re(tau f(tau)); of the ray's
complex integral the imaginary part is kept.

Both segments, the ray up to R in t = log r and the arc in theta, are
entire in their path variable, so each is summed by equal 15-point
Gauss-Legendre panels, as on the real axis, whose count
(quadrature._gl15_panels, before any evaluation) is the least whose
closed-form bound holds to an eighth of the tolerance on an a-priori
lower bound of pi/Gamma(z), up to _PANEL_CAP, a limit on cost.  No
segment sets a flag (_segment): quadrature.combine sums the segments with
the closed-form polynomial tail and the bound on the exponential tail
left out, and flags the sum where its error misses the tolerance.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import ContourDegenerate
from .kernel import ArgDecomposition, _ratio_series, decompose
from .quadrature import (
    _EPMACH,
    _GL15,
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    _gl15_panels,
    combine,
    polynomial_tail_closed_form,
    propagate,
)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_SUBNORMAL = math.log(math.ulp(0.0))
# The ray ends where the bound on its exponential part past it is this
# share of a segment's tolerance on 1/Gamma(z).
_TAIL_NEGLIGIBLE = 0.01
# 15-point panels a segment of the paper's contour takes at most, a limit
# on cost alone: a capped segment keeps its bound in its error.
_PANEL_CAP = 64
# Relative rounding of a node of the paper's contour, in units of eps,
# before the rounding of the kernel's exponents is added.
_NODE_ROUNDING = 4
# The rounding of the kernel's direct path, e^tau - e_{n-1}(tau), in units
# of eps times the terms' sum e_{n-1}(|tau|), where that sum dominates the
# node: measured against mpmath at n = 80 to 120, it reached 0.14 off the
# positive real axis (arg tau >= 1.6: the rays) and 7 next to it, where
# the terms all add (the arc near theta = 0, counted as 1 + n/8).
_RAY_CANCELLATION = 0.25
# The 15-point rule's abscissae and weights, apart.
_GL15_X, _GL15_W = zip(*_GL15)

# The route's trapezoid rule at w in [8, 9): the nodes theta_j = j pi / (2 N),
# j < 2 N, of the steepest-descent path are stored as (theta, e^{i theta},
# theta / sin theta); the even ones are the N-node rule.
_TRAPEZOID_N = 12
_PATH_NODES = tuple(
    (theta, cmath.rect(1.0, theta), theta / math.sin(theta) if theta else 1.0)
    for theta in (j * math.pi / (2 * _TRAPEZOID_N) for j in range(2 * _TRAPEZOID_N))
)
# Relative rounding of the 24-node sum, in units of eps: the kernel's
# exponent, tau - w log tau, has terms up to about 20 at the peak; the
# error measured over 3,000 w in [8, 9) reached 25 eps, and 26.3 over
# 1,500 more with the node as one exponential.  t = log w + log rho in
# place of log(w rho) took that to 36.5.
TRAPEZOID_ROUNDING = 32


@dataclass(frozen=True)
class HankelContour:
    """Ray angle and arc radius."""

    delta: float = 0.75 * math.pi
    r0: float = 0.5


def _validate(contour: HankelContour, z: float) -> None:
    if not 0.5 * math.pi < contour.delta < math.pi:
        raise ContourDegenerate(
            f"ray angle must lie in (pi/2, pi), got {contour.delta!r}"
        )
    if not 0.0 < contour.r0 < math.inf:
        raise ContourDegenerate(f"arc radius must be finite and > 0, got {contour.r0!r}")
    # the integrand carries |tau|^{-z}, which is largest on the arc
    if -z * math.log(contour.r0) > _LOG_FLOAT_MAX:
        raise ContourDegenerate(
            f"arc radius {contour.r0!r} is too small for z = {z!r}: r0^-z overflows"
        )


def _phases(theta: float, z: float, n: int) -> tuple[complex, complex]:
    """e^{i(n-z) theta} and e^{-iz theta}: on the principal branch, the
    angular factors of tau^{n-z} and tau^{-z} at arg tau = theta."""
    return cmath.rect(1.0, (n - z) * theta), cmath.rect(1.0, -z * theta)


def ray_kernel(r: float, t: float, theta: float, unit: complex, z: float, n: int,
               log_fact: float, phases: tuple[complex, complex] | None) -> tuple[complex, float]:
    """(e^tau - e_{n-1}(tau)) / tau^z at tau = r e^{i theta}, a node of the
    paper's contour or of the steepest-descent rule, with e_{n-1}(r) r^{-z},
    the moduli its direct path cancels (0.0 at order 0 and on the series path).

    Beside r and theta the caller passes t = log r, unit = e^{i theta},
    log_fact = lgamma(n + 1) and phases = _phases(theta, z, n), formed once
    per segment where the segment holds them constant; order 0 takes
    neither log_fact nor phases.  A series node is the kernel's series
    times exp((n - z) t - log_fact) times phases[0], a direct node
    e^tau - e_{n-1}(tau) times e^{-zt} times phases[1], e_{n-1}(r) summed
    in the same loop.
    """
    tau = r * unit
    if not n:
        return cmath.exp(tau - z * complex(t, theta)), 0.0
    if r <= 1.0 or r <= 0.5 * n:  # the kernel's series radius, as in exp_remainder
        return _ratio_series(tau, n) * (math.exp((n - z) * t - log_fact) * phases[0]), 0.0
    if z * t > _LOG_FLOAT_MAX - 10.0:
        # tau^{-z} would leave the normal range, and e_{n-1}(tau) may, though
        # the product need not: each term takes its power of tau in its
        # exponent, the polynomial as tau^{n-1}/(n-1)! times a Horner sum in
        # 1/tau, sum_j (n-1)!/(n-1-j)! tau^{-j}, and its moduli the same in 1/r
        log_tau = complex(t, theta)
        p = q = 1.0
        for k in range(1, n):
            p = 1.0 + p * k / tau
            q = 1.0 + q * k / r
        log_fact_below = math.lgamma(n)
        return (cmath.exp(tau - z * log_tau)
                - p * cmath.exp((n - 1 - z) * log_tau - log_fact_below),
                math.exp((n - 1 - z) * t - log_fact_below + math.log(q)))
    term = total = size = moduli = 1.0
    for k in range(1, n):
        term *= tau / k
        total += term
        size *= r / k
        moduli += size
    scale = math.exp(-z * t)
    return (cmath.exp(tau) - total) * (scale * phases[1]), moduli * scale


def steepest_descent_recip_gamma(w: float) -> IntegralResult:
    """The record of 1/Gamma(w), w in [8, 9): the 24-node sum of (w/pi)
    int_0^pi e^s s^{-w} dtheta, its difference from the 12-node sum as its
    error.  gamma_core adds its rounding, TRAPEZOID_ROUNDING."""
    terms = [ray_kernel(w * rho, math.log(w * rho), theta, unit, w, 0, 0.0, None)[0].real
             for theta, unit, rho in _PATH_NODES]
    head = 0.5 * terms[0]
    fine = (head + math.fsum(terms[1:])) * (w / len(terms))
    coarse = (head + math.fsum(terms[2::2])) * (2.0 * w / len(terms))
    return IntegralResult(fine, abs(fine - coarse), len(terms))


def _target(z: float, eps_rel: float) -> float:
    """Each segment's target: an eighth of eps_rel times pi/Gamma(z), the
    contour integral's size, bounded below a priori.  1/Gamma(z) is at least
    z up to 1, as 1/Gamma(z) = z/Gamma(1 + z) and Gamma <= 1 on [1, 2]; from
    1 up, Stirling's upper bound Gamma(z) <= sqrt(2 pi) z^{z-1/2}
    e^{-z + 1/(12 z)} bounds it."""
    if z <= 1.0:
        log_floor = math.log(z)
    else:
        log_floor = -((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI + 1.0 / (12.0 * z))
    return eps_rel / 8.0 * math.pi * math.exp(log_floor)


def _panels(lo: float, hi: float, rule: tuple[float, float, float],
            target: float) -> tuple[list[float], tuple[float, ...], float, float]:
    """The nodes and weights of equal 15-point Gauss-Legendre panels on
    [lo, hi], their half-width h and the bound on the rule's error.

    rule = (half_height, log_m, growth) states that |f(t)| <=
    exp(log_m + growth Re t) on the strip |Im t| <= half_height; the panel
    count is the least whose bound meets target, at most _PANEL_CAP; at the
    cap the bound may miss it.  It is in the error all the same, so the
    segment sets no flag: combine flags the sum where its error misses.
    """
    panels, bound = _gl15_panels(lo, hi, _PANEL_CAP, *rule, target)
    h = (hi - lo) / (2 * panels)
    nodes = [lo + (2 * p + 1) * h + h * x for p in range(panels) for x in _GL15_X]
    return nodes, _GL15_W * panels, h, bound


def _segment(nodes: list[tuple[complex, float]], weights: tuple[float, ...], h: float,
             bound: float, arg: ArgDecomposition, log_tau: float, share: float,
             imag: bool) -> IntegralResult:
    """The record of a segment from its nodes (f(t), cancelled), ray_kernel's
    pairs, and their weights w (_panels): h times the real part of
    sum w f(t), or its imaginary part where imag is true.

    The sum is math.fsum's, so it adds one rounding of its own value,
    whatever the node count.  The error is the rule's bound plus the
    rounding of the nodes: relative (_NODE_ROUNDING + a) eps of
    h sum w |f|, where a = z log_tau + 2 log n! bounds the exponents that
    the kernel exponentiates, log_tau bounding |log tau| (their rounding,
    lgamma's to 2 eps, is relative to the node's value), and share eps
    times h sum w cancelled, the terms that the kernel's direct path
    cancels, counted by each node.
    """
    values, cancelled = [], 0.0
    for w, (f, c) in zip(weights, nodes):
        values.append(w * f)
        cancelled += w * c
    total = math.fsum([v.imag for v in values] if imag else [v.real for v in values])
    amplification = arg.z * log_tau + 2.0 * math.lgamma(arg.n + 1)
    rounding = (_NODE_ROUNDING + amplification) * sum(map(abs, values)) + share * cancelled
    return IntegralResult(h * total, bound + _EPMACH * h * rounding, len(values))


def _ray(arg: ArgDecomposition, contour: HankelContour, R: float, target: float) -> IntegralResult:
    """The imaginary part of the integral of f(s) = (e^s - e_{n-1}(s)) / s^z
    over the ray tau = r e^{i delta}, r0 <= r <= R.

    In t = log r, d tau = tau dt and the integrand tau f(tau) is the kernel
    at the power z - 1, entire in t; the ray's direction, its phases and
    lgamma(n + 1) are formed once, and each node passes t itself.  On the
    strip |Im t| <= delta - pi/2, arg tau stays in [pi/2, 3 pi/2], so
    Re tau <= 0, |e^tau - e_{n-1}(tau)| <= |tau|^n/n! (as on the real axis)
    and |tau f| <= e^{(1-frac) Re t}/n!.  Each direct-path node counts the
    moduli it cancels, e_{n-1}(r) r^{1-z}, and _RAY_CANCELLATION of them
    goes into the error with the node's weight.
    """
    z, n, frac = arg.z, arg.n, arg.frac
    delta, r0 = contour.delta, contour.r0
    power = z - 1.0
    unit = cmath.rect(1.0, delta)
    log_fact = math.lgamma(n + 1)
    phases = _phases(delta, power, n)
    lo, hi = math.log(r0), math.log(R)
    nodes, weights, h, bound = _panels(lo, hi, (delta - 0.5 * math.pi, -log_fact, 1.0 - frac),
                                       target)
    pairs = [ray_kernel(math.exp(t), t, delta, unit, power, n, log_fact, phases) for t in nodes]
    return _segment(pairs, weights, h, bound, arg, max(abs(lo), abs(hi)) + delta,
                    _RAY_CANCELLATION, True)


def _arc(arg: ArgDecomposition, order: int, contour: HankelContour,
         target: float) -> IntegralResult:
    """(1/2i) times the integral of f(s) = (e^s - e_{order-1}(s)) / s^z over
    the arc |s| = r0, which is that of Re(tau f(tau)) over theta in [0, delta];
    tau f(tau) is the kernel at the power z - 1.  The value is real.

    On the strip |Im theta| <= a, |tau| <= r0 e^a =: rho, so with
    k = order + 1 - z, |tau f| <= e^rho rho^{order}/order! |tau^{1-z}|
    <= e^rho r0^k e^{|k| a}/order!.  a solves a r0 e^a = 30, about where
    the bound is least.  log r0 and lgamma(order + 1) are formed once, the
    node's direction and phases by cmath.rect at each node.  Next to
    theta = 0 the terms that the kernel's direct path cancels all add, so
    1 + order/8 of each node's count goes into the error.
    """
    z = arg.z
    delta, r0 = contour.delta, contour.r0
    log_r0 = math.log(r0)
    k = order + 1 - z
    c = 30.0 / r0
    a = math.log1p(c)
    for _ in range(4):  # Newton's method on a = c e^{-a}
        e = c * math.exp(-a)
        a -= (a - e) / (1.0 + e)
    log_fact = math.lgamma(order + 1)
    log_m = k * log_r0 + abs(k) * a + r0 * math.exp(a) - log_fact
    power = z - 1.0
    nodes, weights, h, bound = _panels(0.0, delta, (a, log_m, 0.0), target)
    pairs = [ray_kernel(r0, log_r0, theta, cmath.rect(1.0, theta), power, order, log_fact,
                        _phases(theta, power, order))
             for theta in nodes]
    return _segment(pairs, weights, h, bound, arg, abs(log_r0) + delta, 1.0 + order / 8.0, False)


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
    eps_rel 1e-8, 1e-12 and 1e-14, the record of a sum that underflowed to
    0 is returned before any node.
    """
    z = arg.z
    _validate(contour, z)
    log_bound = z - (z - 0.5) * math.log(z) - _HALF_LOG_2PI
    if log_bound + math.log(cfg.eps_rel / (1.0 - cfg.eps_rel)) < _LOG_SUBNORMAL:
        return IntegralResult(0.0, math.inf, 0, ConditionFlag.TOLERANCE_NOT_MET)
    delta, r0 = contour.delta, contour.r0
    decay = abs(math.cos(delta))
    # R is where the bound on the exponential part past it (below), R^{-z}
    # taken as 1, is the share _TAIL_NEGLIGIBLE of an eighth of the
    # tolerance times min(1, z), the a-priori size of 1/Gamma(z) as z -> 0.
    # L is summed as logs: as a product it underflows at tiny z.  R clears
    # the arc: it is at least 4 r0.
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
        # the polynomial part of the ray beyond R, in closed form
        polynomial_tail_closed_form(arg, R, delta),
        _ray(arg, contour, R, target),
        _arc(arg, arg.n, contour, target),
        # the exponential part of the ray beyond R, at most
        # e^{R cos delta} R^{-z} / |cos delta| (z > 0): left out, a part of
        # value 0 with the bound as its error
        IntegralResult(0.0, math.exp(R * math.cos(delta) - z * math.log(R)) / decay, 0),
    ]
    # each part meets its own tolerance, but the parts can cancel (the
    # value is about z as z -> 0), so the sum is checked as well
    raw = combine(parts, cfg.eps_rel)
    return propagate(raw.value / math.pi, [raw], 1, cfg.eps_rel)


def arc_contribution(
    z: float,
    contour: HankelContour | None = None,
    cfg: QuadratureConfig | None = None,
    order: int | None = None,
) -> float:
    """The (1/2 pi i)-normalized integral over the arc alone, a real number.

    With the regularizing order n = [z] (the default) the magnitude decays
    like r0^{1-frac} as the arc shrinks; passing order=0 reproduces the
    unregularized kernel, whose arc contribution does not vanish for z > 1.
    A negative order raises ValueError, as in kernel.exp_remainder.
    """
    arg = decompose(z)
    contour = contour or HankelContour()
    cfg = cfg or QuadratureConfig()
    _validate(contour, z)
    n = arg.n if order is None else order
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return _arc(arg, n, contour, _target(arg.z, cfg.eps_rel)).value / math.pi
