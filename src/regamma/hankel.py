"""Complex-plane evaluation of the reciprocal Gamma function.

The route (recip_gamma with MethodTag.HANKEL, and inverse_laplace) is a
trapezoid rule on the steepest-descent path of Hankel's integral
1/Gamma(w) = (1/2 pi i) int_H e^s s^{-w} ds.  With s = w u the exponent
is w (u - log u), and the path u(theta) = theta/sin(theta) e^{i theta},
-pi < theta < pi, keeps Im(u - log u) = 0: the integrand e^s s^{-w} is
real and positive on it, peaks at theta = 0 and falls off faster than
exponentially towards both ends, and Im u = theta.  For real w the two
halves are conjugate, so 1/Gamma(w) = (w/pi) int_0^pi e^s s^{-w} dtheta
with s = w u(theta), and the trapezoid rule on it converges geometrically
(Weideman & Trefethen, Math. Comp. 76, 2007).  On a path that stays off
the origin the paper's regularizing polynomial integrates to exactly 0,
so each node is the paper's integrand at order 0, ray_kernel(|s|, theta,
w, 0).  z is first moved into [8, 9) by the recurrence, where 24 nested
nodes reach double precision; the difference of the 12- and 24-node sums
is the error estimate.

The paper's own contour stays as the cross-check of its claim that the
real-line integral equals Hankel's (hankel_recip_gamma, arc_contribution
and verify --hankel).  It runs in from infinity along the ray
arg(tau) = -delta, circles the origin counterclockwise on an arc of
radius r0, and runs back out along arg(tau) = +delta, with
pi/2 < delta < pi so the exponential decays on the rays and the path
stays clear of the branch cut on the negative real axis.  tau^z uses the
principal logarithm throughout.

Because the numerator is the regularized remainder e^tau - e_{n-1}(tau),
the integrand is integrable over the shrinking arc (it vanishes like
r0^{1-frac}), which is exactly what makes the truncation order n = [z]
the right one.  ray_kernel, every node and arc integrand, and the ray
integrand take the remainder by the kernel's own dispatch: beyond
max(1, n/2) the direct difference, and within it, for n >= 1, the
kernel's one series n! sum_{j>=0} tau^j/(n+j)! times tau^n/n!, which goes
into the power of tau.  The integrand is then the series times
exp((n - z) log tau - log n!), and underflows only where its own value
does (at z = 108.03 and r0 = 0.025, r0^n/n! alone underflows; the arc is
about 7e-177).  The public kernel.exp_remainder and kernel_ratio only
ever see real arguments.  On a ray the phases of tau^{n-z} and tau^{-z},
times that of d tau, are the same at every node, so they are formed once
per contour.  Beyond the truncation radius the polynomial part of each
ray has an elementary antiderivative, the real line's closed-form tail
with a phase (quadrature.polynomial_tail_closed_form, with the rounding
bound of its terms as its error).  It is not shifted: at large z its
terms dwarf the value, and the result is flagged.  The exponential part is
bounded by e^{R cos delta} R^{-z} / |cos delta|, and R is where that
bound, R^{-z} taken as 1, is a negligible share (_TAIL_NEGLIGIBLE) of a
segment's tolerance times min(1, z), the a-priori size of 1/Gamma(z) as
z -> 0.  That part is never integrated: it is left out, the bound kept as
its error; where the tolerance cannot hold the bound, or R would need more
than _NODES ray panels and the ray ends where they reach, it flags the result.

For real z the integrand at conj(tau) is the conjugate of the one at tau,
so the contour integral is 2i times the imaginary part of its upper half;
only that half is evaluated, and its parts are divided by pi once at the
end.  The arc's share is the real integrand Re(tau f(tau)).  Each ray stays
a complex integral of which the imaginary part is kept, so its tolerance is
relative to the whole ray: past R the imaginary part alone, oscillating and
far below the result, would not meet a relative tolerance.

Both segments, the ray up to R and the arc, are integrated by the
adaptive engine that power_subst and log_form use on the real line
(quadrature.integrate_finite, with complex values on the ray) and summed
by quadrature.combine with the closed-form polynomial tail, the bound on
the exponential tail left out being one more part.  A contour is set by
delta and r0, and its truncation radius by them, z and the tolerance;
each segment gets the same share of the tolerance and the engine's one
bisection budget.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

from . import gamma_core
from .errors import ContourDegenerate
from .kernel import ArgDecomposition, _ratio_series, _use_series, decompose, truncated_exp
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    combine,
    integrate_finite,
    polynomial_tail_closed_form,
    propagate,
)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# The ray ends where the bound on its exponential part past it is this
# share of a segment's tolerance on 1/Gamma(z).
_TAIL_NEGLIGIBLE = 0.01
# ray panels per layout
_NODES = 128

# The route's trapezoid rule: z is moved into [8, 9) by the recurrence
# (gamma_core.recurrence), and the nodes theta_j = j pi / (2 N), j < 2 N, of
# the steepest-descent path are stored as (theta, theta / sin theta); the
# even ones are the N-node rule.
_TRAPEZOID_N = 12
_PATH_NODES = tuple(
    (theta, theta / math.sin(theta) if theta else 1.0)
    for theta in (j * math.pi / (2 * _TRAPEZOID_N) for j in range(2 * _TRAPEZOID_N))
)
# Relative rounding of the 24-node sum, in units of eps: the kernel's two
# exponentials have arguments up to about 20 at the peak; the error
# measured over 3,000 w in [8, 9) reached 25 eps.
_TRAPEZOID_ROUNDING = 32


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


def ray_kernel(r: float, delta: float, z: float, n: int) -> complex:
    """(e^tau - e_{n-1}(tau)) / tau^z at tau = r e^{i delta}."""
    tau = r * cmath.exp(1j * delta)
    log_tau = complex(math.log(r), delta)
    if n and _use_series(tau, n):
        return _ratio_series(tau, n) * cmath.exp((n - z) * log_tau - math.lgamma(n + 1))
    return (cmath.exp(tau) - truncated_exp(tau, n - 1)) * cmath.exp(-z * log_tau)


def steepest_descent_recip_gamma(z: float, cfg: QuadratureConfig) -> IntegralResult:
    """1/Gamma(z) for real non-integer z by the steepest-descent trapezoid rule.

    With m = floor(z) - 8, w = z - m lies in [8, 9), and
    gamma_core.recurrence moves 1/Gamma(w) back to 1/Gamma(z), the one
    shift that every route shares: below 8, negative z included, it
    multiplies by z (z+1)...(z+|m|-1), from 9 up it divides by
    (z-1)...(z-m), one factor at a time.  1/Gamma(w) is the 24-node sum of
    (w/pi) int_0^pi e^s s^{-w} dtheta (see the module docstring).

    The record is that of 1/Gamma(z) itself, with 24 evaluations: the
    24-node sum, whose error is its difference from the 12-node sum, moved
    back by the recurrence's |m| factors.  quadrature.propagate adds the
    rounding of the sum and of the factors and decides the flag.  The sum
    lies in the normal range.  From 9 up every divisor is at least 8, so
    the absolute roundings of the divisions stay below one subnormal unit
    together, as in gamma_core._by_recurrence; below 8 only the last
    product, by the factor z, can leave the normal range.  So one
    rounding counts an absolute unit, and the others their relative part
    alone, as an exact factor 1 that carries it.
    """
    m = math.floor(z) - gamma_core.SHIFT_BASE
    w = z - m
    terms = [ray_kernel(w * rho, theta, w, 0).real for theta, rho in _PATH_NODES]
    head = 0.5 * terms[0]
    fine = (head + math.fsum(terms[1:])) * (w / len(terms))
    coarse = (head + math.fsum(terms[2::2])) * (2.0 * w / len(terms))
    trapezoid = IntegralResult(fine, abs(fine - coarse), len(terms))
    value = gamma_core.recurrence(fine, z, m)
    roundings = IntegralResult(1.0, (_TRAPEZOID_ROUNDING + abs(m) - 1) * 2.0**-53, 0)
    return propagate(value, [trapezoid, roundings], 1, cfg.eps_rel)


def _ray_breakpoints(r0: float, R: float, width_cap: float) -> tuple[list[float], float]:
    # geometric growth near the origin, capped panels once oscillation
    # matters; the ray ends at R, or where _NODES panels reach
    pts = []
    x = r0
    while True:
        x = x + min(x, width_cap)
        if x >= R or len(pts) == _NODES - 1:
            return pts, min(x, R)
        pts.append(x)


def _segment_config(cfg: QuadratureConfig) -> QuadratureConfig:
    # an eighth of a subnormal tolerance may round to 0: it is then the
    # least positive double, which no segment meets either
    return QuadratureConfig(max(cfg.eps_rel / 8.0, math.ulp(0.0)))


def _arc(order: int, z: float, contour: HankelContour, sub: QuadratureConfig) -> IntegralResult:
    """(1/2i) times the integral of f(s) = (e^s - e_{order-1}(s)) / s^z over
    the arc |s| = r0, which is that of Re(tau f(tau)) over theta in [0, delta];
    tau f(tau) is the kernel at the power z - 1."""
    delta, r0 = contour.delta, contour.r0

    def arc(theta: float) -> float:
        return ray_kernel(r0, theta, z - 1.0, order).real

    return integrate_finite(arc, 0.0, delta, sub, [0.5 * delta])


def _contour_eval(
    arg: ArgDecomposition, contour: HankelContour, cfg: QuadratureConfig
) -> IntegralResult:
    """(1/2 pi i) contour integral of (e^s - e_{n-1}(s)) / s^z.

    The value is real: Im of the upper half's integral, over pi.
    """
    z, order = arg.z, arg.n
    _validate(contour, z)
    delta, r0 = contour.delta, contour.r0
    decay = abs(math.cos(delta))
    sub = _segment_config(cfg)
    # R is where the bound on the exponential part past it (below), R^{-z}
    # taken as 1, is the share _TAIL_NEGLIGIBLE of the segment tolerance times
    # min(1, z), the a-priori size of 1/Gamma(z) as z -> 0.  L is summed as
    # logs: as a product it underflows at tiny z.  R clears the arc: it is
    # at least 4 r0, and capped where _NODES panels reach.
    L = -(
        math.log(_TAIL_NEGLIGIBLE)
        + math.log(sub.eps_rel)
        + math.log(min(1.0, z))
        + math.log(decay)
    )
    seeds, R = _ray_breakpoints(r0, max(4.0 * r0, L / decay), math.pi / math.sin(delta))
    # on the ray tau = r phase the integrand is ray_kernel's times phase:
    # turn_n and turn are the phases of its tau^{n-z} and tau^{-z} times phase
    phase = cmath.exp(1j * delta)
    turn = phase * cmath.exp(-1j * z * delta)
    turn_n = phase * cmath.exp(1j * (order - z) * delta)
    log_factorial = math.lgamma(order + 1)

    def ray(r: float) -> complex:
        tau = r * phase
        if order and _use_series(tau, order):
            scale = math.exp((order - z) * math.log(r) - log_factorial)
            return _ratio_series(tau, order) * (turn_n * scale)
        return (cmath.exp(tau) - truncated_exp(tau, order - 1)) * (turn * r**-z)

    res = integrate_finite(ray, r0, R, sub, seeds)
    parts = [
        # the polynomial part of the ray beyond R, in closed form
        polynomial_tail_closed_form(arg, R, delta),
        replace(res, value=res.value.imag),
        _arc(order, z, contour, sub),
        # the exponential part of the ray beyond R, at most
        # e^{R cos delta} R^{-z} / |cos delta| (z > 0): left out, a part of
        # value 0 with the bound as its error
        IntegralResult(0.0, math.exp(R * math.cos(delta) - z * math.log(R)) / decay, 0),
    ]
    # each part meets its own tolerance, but the parts can cancel (the
    # value is about z as z -> 0), so the sum is checked as well
    raw = combine(parts, cfg.eps_rel)
    return replace(
        raw, value=raw.value / math.pi, abs_error_estimate=raw.abs_error_estimate / math.pi
    )


def hankel_recip_gamma(
    z: float,
    contour: HankelContour | None = None,
    cfg: QuadratureConfig | None = None,
) -> gamma_core.GammaValue:
    """1/Gamma(z) as the regularized contour integral, z > 0 non-integer.

    The value is real by construction (only the upper half of the contour
    is evaluated) and carries the contour integral's diagnostics; the
    route's consistency check is invariance of the value under changes of
    delta and r0.  Raises ContourDegenerate for a ray angle outside
    (pi/2, pi), an arc radius that is not finite and positive, or one so
    small that r0^{-z} overflows; a contour whose rays would need more
    than _NODES panels to reach the tolerance gives a flagged value.
    """
    arg = decompose(z)
    res = _contour_eval(arg, contour or HankelContour(), cfg or QuadratureConfig())
    return gamma_core.GammaValue(res.value, gamma_core.MethodTag.HANKEL, res)


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
    return _arc(n, z, contour, _segment_config(cfg)).value / math.pi


def inverse_laplace(
    k: float, t: float, cfg: QuadratureConfig | None = None
) -> gamma_core.GammaValue:
    """Invert Gamma(k+1)/s^{k+1} at time t; the exact answer is t^k.

    The Bromwich integral of Gamma(k+1) e^{ts} / s^{k+1} over a Hankel
    contour is Gamma(k+1) t^k / Gamma(k+1), with 1/Gamma(k+1) from
    steepest_descent_recip_gamma.  From k + 1 = 9 up, both Gammas would
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
    w -= max(0, math.floor(w) - gamma_core.SHIFT_BASE)
    gamma_w = gamma_core.gamma(w, cfg)
    recip = steepest_descent_recip_gamma(w, cfg)
    value = gamma_w.value * recip.value * t**k
    record = propagate(value, [recip, gamma_w.quadrature], 3, cfg.eps_rel)
    return gamma_core.GammaValue(value, gamma_core.MethodTag.HANKEL, record)


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
