"""A fixed, seeded scan of the paper's contour against mpmath.

The hypothesis tests draw anew on every run, so a defect that one draw
finds can pass the next run.  This scan takes the same 200 draws every
time, over TestContourProperty's box with z in (0, 30): the ray angle in
[1.65, 3.12] and the arc radius r0 t, r0 in [0.05, 2.5] and t in
[0.2, 10].  A small stratum takes the ray next to the imaginary axis at
large z: z in (100, 171.6), the ray angle pi/2 + 10^U(-3, -1) and r0 in
[0.05, 2.5].  A third takes z past 1/Gamma's range, log-uniform in
(171.6, 1000), on the default contour, where every result must be
flagged.  On each draw it asserts that the value is finite, that no
result flagged ok is off by more than eps_rel, and that every result lies
within its own error estimate.  It costs about 0.5 s.
"""

import math
import random

import mpmath
import pytest

from regamma.hankel import HankelContour, hankel_recip_gamma
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


DRAWS = contour_draws(2026, 200)
# There the ray runs out to R of about 30 / |cos delta|, up to 2e4, where
# e_{n-1}(tau) overflows: two of these six draws were NaN at either
# tolerance, and every one sums its ray at the panel cap.
NEAR_AXIS = contour_draws(2026, 6, near_axis=True)
# Past 1/Gamma's range the contour's parts underflow: their sum was 0 with
# estimate 0, flagged ok at relative error 1.
PAST_RANGE = past_range_draws(2026, 20)
# Results the adaptive Gauss-Kronrod engine certified on DRAWS when it
# summed the contour: the fixed rules may not certify fewer.
ADAPTIVE_OK = {1e-8: 198, 1e-12: 186}


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


@pytest.mark.parametrize("eps", sorted(ADAPTIVE_OK))
def test_contour_scan(eps):
    certified = sum(check(z, delta, r0, eps) for z, delta, r0 in DRAWS)
    assert certified >= ADAPTIVE_OK[eps]


@pytest.mark.parametrize("eps", sorted(ADAPTIVE_OK))
def test_ray_next_to_the_imaginary_axis(eps):
    for z, delta, r0 in NEAR_AXIS:
        check(z, delta, r0, eps)


@pytest.mark.parametrize("eps", sorted(ADAPTIVE_OK))
def test_past_the_range_of_recip_gamma(eps):
    contour = HankelContour()
    for z in PAST_RANGE:
        assert not check(z, contour.delta, contour.r0, eps)


def test_cancelling_direct_path_is_flagged():
    # Past the series radius the kernel's difference e^tau - e_{n-1}(tau)
    # cancels terms near e^{|tau|}: without their rounding in the record this
    # call returned a value 1.35e-9 off, flagged ok
    assert not check(111.5, 2.0, 2.0, 1e-10)
