"""Complex-plane evaluation of the regularized reciprocal-Gamma integral.

The contour runs in from infinity along the ray arg(tau) = -delta, circles
the origin counterclockwise on an arc of radius r0, and runs back out along
arg(tau) = +delta, with pi/2 < delta < pi so the exponential decays on the
rays and the path stays clear of the branch cut on the negative real axis.
tau^z uses the principal logarithm throughout.

Because the numerator is the regularized remainder e^tau - e_{n-1}(tau),
the integrand is integrable over the shrinking arc (it vanishes like
r0^{1-frac}), which is exactly what makes the truncation order n = [z]
the right one.  Beyond the truncation radius the polynomial part of each
ray has an elementary antiderivative (added in closed form) and the
exponential part is integrated over one further stretch.

Every segment is integrated by the same adaptive engine as the real-line
routes (quadrature.integrate_finite, with complex values) and the segments
are summed by quadrature.combine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from . import gamma_core
from .errors import ContourDegenerate
from .kernel import decompose
from .quadrature import IntegralResult, QuadratureConfig, combine, integrate_finite

_EPS = 2.0 ** -53
_MAX_TERMS = 500
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HankelContour:
    """Ray angle, arc radius, outer truncation and per-segment budget."""

    delta: float = 0.75 * math.pi
    r0: float = 0.5
    R: float | None = None  # None -> automatic from the decay rate
    nodes: int = 128


@dataclass(frozen=True)
class ComplexValue:
    re: float
    im: float

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)


def _validate(contour: HankelContour) -> None:
    if not 0.5 * math.pi < contour.delta < math.pi:
        raise ContourDegenerate(
            f"ray angle must lie in (pi/2, pi), got {contour.delta!r}"
        )
    if not contour.r0 > 0.0:
        raise ContourDegenerate(f"arc radius must be > 0, got {contour.r0!r}")
    if contour.R is not None and contour.R - contour.r0 <= 1e-12 * contour.r0:
        raise ContourDegenerate(
            f"truncation radius {contour.R!r} does not clear the arc radius"
        )
    if contour.nodes < 1:
        raise ContourDegenerate("node budget must be >= 1")


def _cremainder(w: complex, order: int) -> complex:
    """e^w - e_{order-1}(w) for complex w, cancellation-safe near 0."""
    if order == 0:
        return cmath.exp(w)
    if w == 0:
        return 0.0 + 0.0j
    if abs(w) <= max(1.0, 0.5 * order):
        term = 1.0 + 0.0j
        for k in range(1, order + 1):
            term *= w / k
        total = term
        k = order
        for _ in range(_MAX_TERMS):
            k += 1
            term *= w / k
            total += term
            if abs(term) < _EPS * abs(total):
                break
        return total
    poly = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(1, order):
        term *= w / k
        poly += term
    return cmath.exp(w) - poly


def ray_kernel(r: float, delta: float, z: float, n: int, scale: float = 1.0) -> complex:
    """(e^{a tau} - e_{n-1}(a tau)) / tau^z at tau = r e^{i delta}, a = scale."""
    tau = r * cmath.exp(1j * delta)
    return _cremainder(scale * tau, n) * cmath.exp(-z * complex(math.log(r), delta))


def ray_difference_kernel(r: float, delta: float, z: float, n: int) -> ComplexValue:
    """Closed form of Ker(r e^{i delta}) - Ker(r e^{-i delta}).

    The difference of the two ray integrands collapses to a purely
    imaginary combination of one exponential-cosine term and two short
    trigonometric-weighted polynomial sums; as delta -> pi it reduces to
    -2i sin(pi z) (e^{-r} - e_{n-1}(-r)) / r^z.
    """
    s_cos = 0.0
    s_sin = 0.0
    term = 1.0  # r^k / k!
    for k in range(n):
        s_cos += math.cos(delta * k) * term
        s_sin += math.sin(delta * k) * term
        term *= r / (k + 1)
    bracket = (
        math.exp(math.cos(delta) * r) * math.sin(delta * z - math.sin(delta) * r)
        - s_cos * math.sin(delta * z)
        + s_sin * math.cos(delta * z)
    )
    return ComplexValue(0.0, -2.0 * bracket * math.exp(-z * math.log(r)))


def _ray_breakpoints(r0: float, R: float, width_cap: float, max_panels: int) -> list[float]:
    # geometric growth near the origin, capped panels once oscillation matters
    pts = []
    x = r0
    while True:
        x = x + min(x, width_cap)
        if x >= R:
            return pts
        pts.append(x)
        if len(pts) >= max_panels:
            raise ContourDegenerate(
                f"ray from {r0!r} to {R!r} needs more than {max_panels} panels"
            )


def _auto_truncation(contour: HankelContour, scale: float) -> float:
    if contour.R is not None:
        return contour.R
    decay = scale * abs(math.cos(contour.delta))
    return max(4.0 * contour.r0, 45.0 / decay)


def _segment_config(cfg: QuadratureConfig, contour: HankelContour) -> QuadratureConfig:
    return replace(cfg, eps_rel=cfg.eps_rel / 8.0, max_subdivisions=contour.nodes)


def _arc(
    order: int, z_exp: float, scale: float, contour: HankelContour, sub: QuadratureConfig
) -> IntegralResult:
    """Integral of (e^{a s} - e_{order-1}(a s)) / s^{z_exp} over the arc |s| = r0."""
    delta, r0 = contour.delta, contour.r0

    def arc(theta: float) -> complex:
        tau = r0 * cmath.exp(1j * theta)
        return (
            1j
            * tau
            * _cremainder(scale * tau, order)
            * cmath.exp(-z_exp * complex(math.log(r0), theta))
        )

    return integrate_finite(arc, -delta, delta, sub, [-0.5 * delta, 0.0, 0.5 * delta])


def _contour_eval(
    order: int,
    z_exp: float,
    scale: float,
    contour: HankelContour,
    cfg: QuadratureConfig,
) -> IntegralResult:
    """(1/2 pi i) contour integral of (e^{a s} - e_{order-1}(a s)) / s^{z_exp}.

    The result's value is complex.
    """
    _validate(contour)
    delta, r0 = contour.delta, contour.r0
    R = _auto_truncation(contour, scale)
    if R - r0 <= 1e-12 * r0:
        raise ContourDegenerate(f"computed truncation radius {R!r} too close to arc")
    sub = _segment_config(cfg, contour)
    width_cap = math.pi / (scale * abs(math.sin(delta)))
    seeds = _ray_breakpoints(r0, R, width_cap, contour.nodes)

    phase_out = cmath.exp(1j * delta)
    phase_in = cmath.exp(-1j * delta)

    def outgoing(r: float) -> complex:
        return phase_out * ray_kernel(r, delta, z_exp, order, scale)

    def incoming(r: float) -> complex:
        return -phase_in * ray_kernel(r, -delta, z_exp, order, scale)

    # exponential part of the rays beyond R, integrated over one stretch
    span = 50.0 / (scale * abs(math.cos(delta)))
    top = R + span

    def outgoing_exp(r: float) -> complex:
        return phase_out * cmath.exp(
            scale * r * phase_out - z_exp * complex(math.log(r), delta)
        )

    def incoming_exp(r: float) -> complex:
        return -phase_in * cmath.exp(
            scale * r * phase_in - z_exp * complex(math.log(r), -delta)
        )

    tail_seeds = [R + span * s for s in (0.1, 0.3, 0.6)]

    # polynomial part of the rays beyond R, in closed form (the two rays
    # combine into 2i times a real sum; each exponent k - z_exp + 1 < 0)
    poly = 0.0
    coeff = 1.0  # scale^k / k!
    for k in range(order):
        expo = k - z_exp + 1.0
        poly += coeff * math.exp(expo * math.log(R)) * math.sin(delta * expo) / expo
        coeff *= scale / (k + 1)

    # neglected exponential remainder past R + span, both rays
    neglect = 2.0 * math.exp(
        scale * top * math.cos(delta) - z_exp * math.log(top)
    ) / (scale * abs(math.cos(delta)))

    raw = combine(
        [
            IntegralResult(2j * poly, 0.0, 0),
            integrate_finite(incoming, r0, R, sub, seeds),
            _arc(order, z_exp, scale, contour, sub),
            integrate_finite(outgoing, r0, R, sub, seeds),
            integrate_finite(incoming_exp, R, top, sub, tail_seeds),
            integrate_finite(outgoing_exp, R, top, sub, tail_seeds),
        ],
        extra_error=neglect,
    )
    return replace(
        raw,
        value=raw.value / (2j * math.pi),
        abs_error_estimate=raw.abs_error_estimate / _TWO_PI,
    )


def hankel_recip_gamma(
    z: float,
    contour: HankelContour | None = None,
    cfg: QuadratureConfig | None = None,
) -> ComplexValue:
    """1/Gamma(z) as the regularized contour integral, z > 0 non-integer.

    The real part approximates 1/Gamma(z); the imaginary part should
    vanish to within the quadrature tolerance and is returned as a
    consistency diagnostic rather than forced to zero.
    """
    arg = decompose(z)
    contour = contour or HankelContour()
    cfg = cfg or QuadratureConfig()
    value = _contour_eval(arg.n, z, 1.0, contour, cfg).value
    return ComplexValue(value.real, value.imag)


def recip_gamma_via_contour(z: float, cfg: QuadratureConfig | None = None) -> gamma_core.GammaValue:
    """GammaValue wrapper used by the method dispatch in gamma_core."""
    arg = decompose(z)
    cfg = cfg or QuadratureConfig()
    res = _contour_eval(arg.n, z, 1.0, HankelContour(), cfg)
    res = replace(res, value=res.value.real)
    return gamma_core.GammaValue(res.value, gamma_core.MethodTag.HANKEL, res)


def arc_contribution(
    z: float,
    contour: HankelContour | None = None,
    cfg: QuadratureConfig | None = None,
    order: int | None = None,
) -> ComplexValue:
    """The (1/2 pi i)-normalized integral over the arc alone.

    With the regularizing order n = [z] (the default) the magnitude decays
    like r0^{1-frac} as the arc shrinks; passing order=0 reproduces the
    unregularized kernel, whose arc contribution does not vanish for z > 1.
    """
    arg = decompose(z)
    contour = contour or HankelContour()
    cfg = cfg or QuadratureConfig()
    _validate(contour)
    n = arg.n if order is None else order
    val = _arc(n, z, 1.0, contour, _segment_config(cfg, contour)).value / (2j * math.pi)
    return ComplexValue(val.real, val.imag)


def inverse_laplace_monomial(
    k: float,
    t: float,
    contour: HankelContour | None = None,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Invert Gamma(k+1)/s^{k+1} at time t; the exact answer is t^k.

    The image function has a branch point at s = 0, and the regularized
    contour integral converges without any Bromwich shift: the kernel is
    Gamma(k+1) (e^{ts} - e_{[k]}(ts)) / s^{k+1} over the same contour.
    """
    arg = decompose(k)
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be finite and > 0, got {t!r}")
    contour = contour or HankelContour()
    cfg = cfg or QuadratureConfig()
    gamma_k1 = gamma_core.gamma(k + 1.0, cfg).value
    value = _contour_eval(arg.n + 1, k + 1.0, t, contour, cfg).value
    return gamma_k1 * value.real
