"""A fixed, seeded scan of the paper's contour against mpmath.

The hypothesis tests draw anew on every run, so a defect that one draw
finds can pass the next run.  This scan takes the same 200 draws every
time, over TestContourProperty's box with z in (0, 30): the ray angle in
[1.65, 3.12] and the arc radius r0 t, r0 in [0.05, 2.5] and t in
[0.2, 10].  A small stratum takes the ray next to the imaginary axis at
large z: z in (100, 171.6), the ray angle pi/2 + 10^U(-3, -1) and r0 in
[0.05, 2.5].  A third takes z past 1/Gamma's range, log-uniform in
(171.6, 1000), on the default contour, where every result must be
flagged.  A fourth takes 200 z uniform in (0.01, 171.6) on the default
contour, at eps 1e-8 and 1e-12, where the ray's end moves with z.  On
each draw it asserts that the value is finite, that no result flagged ok
is off by more than eps_rel, and that every result lies within its own
error estimate.  It costs about 0.4 s, the default-contour stratum 0.2 s
of it.

A second scan holds the real-line entry points to the same contract, on
three strata of |z| at both signs: log-uniform in (1e-300, 171.6);
within 10^U(-15, -2) of an integer from 1 to 170; and uniform in
(160, 171.6).  recip_gamma and gamma run on real_axis, cauchy_saalschutz
and hankel, gamma_negative on both of its routes, and
recip_gamma_neg_reflection and gamma_ratio(A, B), B within 5 of A, at
|z|; power_subst and log_form, the same integral with its middle stretch
by an adaptive rule, stay out for their cost.  Beside the contract, a
call may raise only where its documentation says it does.  It costs
about 0.7 s.

A third searches the hankel route and the real_axis route for their
largest error / estimate: seeded draws, then the worst few refined by
relative steps from 1e-3 down to 1e-13.  Every result it evaluates, at
eps 1e-8, 1e-12 and 1e-14, must lie within its estimate, and an ok one
within eps_rel.  It costs about 0.5 s a route.
"""

import math
import random
import sys

import mpmath
import pytest

from regamma.errors import RegammaError
from regamma.gamma_core import (
    MethodTag,
    gamma,
    gamma_negative,
    gamma_ratio,
    hankel_recip_gamma,
    recip_gamma,
    recip_gamma_neg_reflection,
)
from regamma.hankel import HankelContour
from regamma.quadrature import ConditionFlag, QuadratureConfig


def contour_draws(
    seed: int, count: int, near_axis: bool = False
) -> list[tuple[float, float, float]]:
    """(z, delta, r0) triples, z non-integer: over the box, or the stratum
    next to the imaginary axis."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        if near_axis:
            z = rng.uniform(100.0, 171.6)
            delta, r0 = 0.5 * math.pi + 10.0 ** rng.uniform(-3.0, -1.0), rng.uniform(0.05, 2.5)
        else:
            z = rng.uniform(0.0, 30.0)
            delta, r0 = rng.uniform(1.65, 3.12), rng.uniform(0.05, 2.5) * rng.uniform(0.2, 10.0)
        if z != math.floor(z):
            draws.append((z, delta, r0))
    return draws


def past_range_draws(seed: int, count: int) -> list[float]:
    """z log-uniform in (171.6, 1000), past 1/Gamma's range."""
    rng = random.Random(seed)
    return [math.exp(rng.uniform(math.log(171.6), math.log(1000.0))) for _ in range(count)]


def default_contour_draws(seed: int, count: int) -> list[float]:
    """z non-integer, uniform in (0.01, 171.6)."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        z = rng.uniform(0.01, 171.6)
        if z != math.floor(z):
            draws.append(z)
    return draws


DRAWS = contour_draws(2026, 200)
# There the ray runs out to R of about 30 / |cos delta|, up to 2e4, where
# e_{n-1}(tau) overflows: two of these six draws were NaN at either
# tolerance, and every one sums its ray at the panel cap.
NEAR_AXIS = contour_draws(2026, 6, near_axis=True)
# Past 1/Gamma's range the contour's parts underflow: their sum was 0 with
# estimate 0, flagged ok at relative error 1.
PAST_RANGE = past_range_draws(2026, 20)
# Results certified on DRAWS while the arc was a 15-node rule of its own
# (the adaptive Gauss-Kronrod engine certified 198 and 186): the closed-form
# arc may not certify fewer.
CERTIFIED = {1e-8: 199, 1e-12: 192}
DEFAULT_CONTOUR = default_contour_draws(5, 200)
# Results certified on DEFAULT_CONTOUR once the ray reached past the saddle
# at |tau| = z (75 and 66 while it ended near 36 at every z, so that the
# polynomial tail's terms flooded the value from z of about 75 on).
DEFAULT_CERTIFIED = {1e-8: 158, 1e-12: 71}


def check(z: float, delta: float, r0: float, eps: float) -> bool:
    """Evaluate one draw, assert the contract, and return whether it is ok."""
    gv = hankel_recip_gamma(z, HankelContour(delta=delta, r0=r0), QuadratureConfig(eps))
    assert math.isfinite(gv.value), (z, delta, r0, eps)
    with mpmath.workdps(30):
        ref = mpmath.rgamma(z)
        err = abs(gv.value - ref)
        assert err <= gv.quadrature.abs_error_estimate, (z, delta, r0, eps)
        ok = gv.condition_flag is ConditionFlag.OK
        if ok:
            assert err <= eps * abs(ref), (z, delta, r0, eps)
    return ok


@pytest.mark.parametrize("eps", sorted(CERTIFIED))
def test_contour_scan(eps):
    certified = sum(check(z, delta, r0, eps) for z, delta, r0 in DRAWS)
    print(f"paper's contour at eps {eps:g}: {certified} of {len(DRAWS)} ok")
    assert certified >= CERTIFIED[eps], certified


@pytest.mark.parametrize("eps", sorted(DEFAULT_CERTIFIED))
def test_default_contour_scan(eps):
    contour = HankelContour()
    certified = sum(check(z, contour.delta, contour.r0, eps) for z in DEFAULT_CONTOUR)
    print(f"default contour at eps {eps:g}: {certified} of {len(DEFAULT_CONTOUR)} ok")
    assert certified >= DEFAULT_CERTIFIED[eps], certified


@pytest.mark.parametrize("eps", sorted(CERTIFIED))
def test_ray_next_to_the_imaginary_axis(eps):
    for z, delta, r0 in NEAR_AXIS:
        check(z, delta, r0, eps)


@pytest.mark.parametrize("eps", sorted(CERTIFIED))
def test_past_the_range_of_recip_gamma(eps):
    contour = HankelContour()
    for z in PAST_RANGE:
        assert not check(z, contour.delta, contour.r0, eps)


def test_cancelling_direct_path_is_flagged():
    # Past the series radius the kernel's difference e^tau - e_{n-1}(tau)
    # cancels terms near e^{|tau|}: without their rounding in the record this
    # call returned a value 1.35e-9 off, flagged ok
    assert not check(111.5, 2.0, 2.0, 1e-10)


def real_line_draws(seed: int, count: int) -> list[tuple[float, float]]:
    """(A, B) pairs, count per stratum: A = |z| non-integer, and B within 5
    of A, positive."""
    rng = random.Random(seed)
    strata = (
        lambda: 10.0 ** rng.uniform(-300.0, math.log10(171.6)),
        lambda: rng.randint(1, 170) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -2.0),
        lambda: rng.uniform(160.0, 171.6),
    )
    draws = []
    for stratum in strata:
        drawn = 0
        while drawn < count:
            a, delta = stratum(), rng.uniform(-5.0, 5.0)
            if a != math.floor(a):
                draws.append((a, a + delta if a + delta > 0.0 else a - delta))
                drawn += 1
    return draws


REAL_LINE_DRAWS = real_line_draws(404, 30)
_ROUTES = (MethodTag.REAL_AXIS, MethodTag.CAUCHY_SAALSCHUTZ, MethodTag.HANKEL)
_GAMMA_NEG_ROUTES = (MethodTag.REAL_AXIS, MethodTag.CAUCHY_SAALSCHUTZ)
# ok results of the 1,440 calls at each eps when the scan was committed: a
# change that flags more of them fails here.  At 1e-14 the recurrence's
# rounding count flags most results from z = 9 up.
REAL_LINE_OK = {1e-8: 1430, 1e-12: 1430, 1e-14: 609}


def real_line_calls(a: float, b: float, eps: float):
    """(label, function, arguments, reference, documented exception or None)
    for one draw.

    Every function raises OverflowError where its value exceeds double
    precision (the caller checks that from the reference); the hankel
    route's gamma inverts 1/Gamma(z) and raises where that does too;
    gamma_ratio raises RegammaError before any work where the roundings of
    its m = floor(min(A, B)) - 8 factors alone pass eps.
    """
    cfg = QuadratureConfig(eps)
    mp = mpmath.mpf
    for z in (a, -a):
        for method in _ROUTES:
            rg = mpmath.rgamma(mp(z))
            yield ("recip_gamma", method.value, z), recip_gamma, (z, cfg, method), rg, None
            inverted = method is MethodTag.HANKEL and abs(rg) > sys.float_info.max
            yield (("gamma", method.value, z), gamma, (z, cfg, method), mpmath.gamma(mp(z)),
                   OverflowError if inverted else None)
    for method in _GAMMA_NEG_ROUTES:
        yield (("gamma_negative", method.value, a), gamma_negative, (a, cfg, method),
               mpmath.gamma(-mp(a)), None)
    yield (("recip_gamma_neg_reflection", a), recip_gamma_neg_reflection, (a, cfg),
           mpmath.rgamma(-mp(a)), None)
    m = max(0, math.floor(min(a, b)) - 8)
    yield (("gamma_ratio", a, b), gamma_ratio, (a, b, cfg),
           mpmath.gamma(mp(a)) / mpmath.gamma(mp(b)),
           RegammaError if (4 + 2 * m) * 2.0**-53 > eps else None)


@pytest.mark.parametrize("eps", sorted(REAL_LINE_OK))
def test_real_line_scan(eps):
    certified = 0
    with mpmath.workdps(30):
        for a, b in REAL_LINE_DRAWS:
            for label, fn, args, ref, documented in real_line_calls(a, b, eps):
                if documented is None and abs(ref) > sys.float_info.max:
                    documented = OverflowError
                if documented is not None:
                    with pytest.raises(documented):
                        fn(*args)
                    continue
                gv = fn(*args)
                assert math.isfinite(gv.value), (label, eps)
                err = abs(gv.value - ref)
                assert err <= gv.quadrature.abs_error_estimate, (label, eps)
                if gv.condition_flag is ConditionFlag.OK:
                    assert err <= eps * abs(ref), (label, eps)
                    certified += 1
    assert certified >= REAL_LINE_OK[eps]


def search_draws(seed: int, count: int) -> list[float]:
    """count non-integer z per stratum: uniform in (0.001, 9), where a route
    is taken at z + |m| and moved back down; log-uniform in (1e-3, 171.6);
    within 10^U(-12, -2) of an integer from 1 to 20; and uniform in
    (-20, 0)."""
    rng = random.Random(seed)
    strata = (
        lambda: rng.uniform(0.001, 9.0),
        lambda: math.exp(rng.uniform(math.log(1e-3), math.log(171.6))),
        lambda: rng.randint(1, 20) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -2.0),
        lambda: rng.uniform(-20.0, 0.0),
    )
    draws = []
    for stratum in strata:
        drawn = 0
        while drawn < count:
            z = stratum()
            if z != math.floor(z):
                draws.append(z)
                drawn += 1
    return draws


# Two results that lay past their estimates, at every eps (1.013 times)
# and at 1e-14 (1.044 times), while the rounding of the shift below 8 was
# left out of the count.
HANKEL_WORST = [5.886564970068732, 7.958137526551325]
HANKEL_DRAWS = HANKEL_WORST + search_draws(37, 500)
REAL_AXIS_DRAWS = search_draws(39, 250)
_SEARCH_CFGS = [QuadratureConfig(eps) for eps in (1e-8, 1e-12, 1e-14)]


def route_ratio(z: float, method: MethodTag) -> float:
    """The largest error / estimate of recip_gamma on the route at z over
    the three eps, asserting the contract on each."""
    ref = mpmath.rgamma(z)
    worst = 0.0
    for cfg in _SEARCH_CFGS:
        gv = recip_gamma(z, cfg, method)
        err = float(abs(gv.value - ref))
        estimate = gv.quadrature.abs_error_estimate
        assert err <= estimate, (z, cfg.eps_rel, err / estimate)
        if gv.condition_flag is ConditionFlag.OK:
            assert err <= cfg.eps_rel * abs(ref), (z, cfg.eps_rel)
        worst = max(worst, err / estimate)
    return worst


def worst_case_search(method: MethodTag, draws: list[float], seed: int) -> tuple[float, float]:
    """The largest (error / estimate, z) of the route: over draws, then
    each of the worst 5 refined by relative steps from 1e-3 down to 1e-13,
    40 draws per step."""
    rng = random.Random(seed)
    with mpmath.workdps(30):
        scored = sorted(((route_ratio(z, method), z) for z in draws), reverse=True)
        largest = scored[0]
        for ratio, z in scored[:5]:
            for step in (10.0**-k for k in range(3, 14)):
                for _ in range(40):
                    y = z * (1.0 + step * rng.uniform(-1.0, 1.0))
                    if y != math.floor(y):
                        ratio, z = max((ratio, z), (route_ratio(y, method), y))
            largest = max(largest, (ratio, z))
    return largest


def test_hankel_worst_case_search():
    largest = worst_case_search(MethodTag.HANKEL, HANKEL_DRAWS, 2037)
    print(f"hankel route: largest error / estimate {largest[0]:.3f} at z = {largest[1]!r}")


def test_real_axis_worst_case_search():
    # every real-line value passes through the kernel's direct path
    largest = worst_case_search(MethodTag.REAL_AXIS, REAL_AXIS_DRAWS, 2039)
    print(f"real_axis route: largest error / estimate {largest[0]:.3f} at z = {largest[1]!r}")
