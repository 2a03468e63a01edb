import cmath
import math

import pytest

from regamma.errors import ContourDegenerate, IntegerArgument
from regamma.gamma_core import recip_gamma
from regamma.hankel import (
    HankelContour,
    arc_contribution,
    hankel_recip_gamma,
    inverse_laplace_monomial,
    ray_difference_kernel,
    ray_kernel,
)
from regamma.quadrature import QuadratureConfig, geometric_breakpoints, integrate_finite

CFG = QuadratureConfig()
REFERENCE_CONTOUR = HankelContour(delta=0.75 * math.pi, r0=0.5, R=40.0)


def fitted_arc_exponent(z, radii, order=None):
    mags = [
        arc_contribution(z, HankelContour(r0=r0), CFG, order=order).magnitude
        for r0 in radii
    ]
    return (math.log(mags[0]) - math.log(mags[-1])) / (
        math.log(radii[0]) - math.log(radii[-1])
    )


class TestHankelRecipGamma:
    def test_half(self):
        cv = hankel_recip_gamma(0.5, REFERENCE_CONTOUR, CFG)
        assert cv.re == pytest.approx(0.56418958354775628695, rel=1e-8)
        assert abs(cv.im) <= 1e-10

    def test_matches_real_axis_at_five_halves(self):
        cv = hankel_recip_gamma(2.5, REFERENCE_CONTOUR, CFG)
        ref = recip_gamma(2.5, CFG).value
        assert abs(cv.re - ref) <= 1e-6
        assert abs(cv.im) <= 1e-8

    def test_arc_radius_invariance(self):
        a = hankel_recip_gamma(1.5, HankelContour(r0=0.5), CFG)
        b = hankel_recip_gamma(1.5, HankelContour(r0=1.0), CFG)
        assert abs(a.re - b.re) <= 1e-8

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.3])
    def test_contour_invariance(self, z):
        vals = [
            hankel_recip_gamma(z, HankelContour(delta=delta, r0=r0), CFG).re
            for delta in (2.0, 2.5, 3.0)
            for r0 in (0.25, 0.5, 1.0)
        ]
        spread = max(vals) - min(vals)
        assert spread <= 10.0 * CFG.eps_rel * abs(vals[0])

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.3])
    def test_real_axis_agreement(self, z):
        cv = hankel_recip_gamma(z, HankelContour(), CFG)
        assert abs(cv.re - recip_gamma(z, CFG).value) <= 1e-6
        assert abs(cv.im) <= 1e-7

    def test_integer_rejected(self):
        with pytest.raises(IntegerArgument):
            hankel_recip_gamma(2.0, REFERENCE_CONTOUR, CFG)

    def test_degenerate_contours_rejected(self):
        with pytest.raises(ContourDegenerate):
            hankel_recip_gamma(0.5, HankelContour(delta=0.3), CFG)
        with pytest.raises(ContourDegenerate):
            hankel_recip_gamma(0.5, HankelContour(r0=-1.0), CFG)
        with pytest.raises(ContourDegenerate):
            hankel_recip_gamma(0.5, HankelContour(r0=2.0, R=2.0), CFG)
        with pytest.raises(ContourDegenerate):  # more ray panels than nodes
            hankel_recip_gamma(1.5, HankelContour(nodes=4), CFG)


class TestRayDifferenceKernel:
    def test_closed_form_at_delta_pi(self):
        # collapses to -2i e^{-1} at r=1, z=0.5, n=0
        cv = ray_difference_kernel(1.0, math.pi, 0.5, 0)
        assert cv.re == 0.0
        assert cv.im == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("r", [0.2, 1.0, 3.7])
    def test_integer_z_structure_at_delta_pi(self, r):
        # at delta = pi every surviving term carries sin(pi z) = 0
        cv = ray_difference_kernel(r, math.pi, 2.0, 2)
        assert abs(cv.im) <= 1e-12

    @pytest.mark.parametrize(
        "r,delta,z,n",
        [(0.7, 2.9, 1.5, 1), (0.4, 2.2, 2.5, 2), (2.3, 3.0, 0.5, 0)],
    )
    def test_matches_direct_ray_difference(self, r, delta, z, n):
        direct = ray_kernel(r, delta, z, n) - ray_kernel(r, -delta, z, n)
        cv = ray_difference_kernel(r, delta, z, n)
        assert complex(cv.re, cv.im) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.5, 7.0])
    def test_conjugate_symmetry_pointwise(self, r):
        # the lower-ray integrand is exactly the conjugate of the upper one
        upper = ray_kernel(r, 2.7, 1.5, 1)
        lower = ray_kernel(r, -2.7, 1.5, 1)
        assert lower == upper.conjugate()


class TestArcContribution:
    @pytest.mark.parametrize("z", [0.5, 1.5])
    def test_vanishing_rate(self, z):
        frac = z - math.floor(z)
        slope = fitted_arc_exponent(z, (1e-1, 1e-2, 1e-3))
        assert abs(slope - (1.0 - frac)) <= 0.1

    def test_small_radius_bound(self):
        # |arc(r0)| <= C r0^{1-frac} with C measured at the reference radius
        frac = 0.5
        ref = arc_contribution(0.5, HankelContour(r0=1e-1), CFG)
        C = ref.magnitude / (1e-1) ** (1.0 - frac)
        small = arc_contribution(0.5, HankelContour(r0=1e-2), CFG)
        assert small.magnitude <= 2.0 * C * (1e-2) ** (1.0 - frac)

    def test_unregularized_arc_does_not_vanish(self):
        slope = fitted_arc_exponent(1.5, (1e-1, 1e-2, 1e-3), order=0)
        assert slope <= 0.0


class TestDeltaToPiLimit:
    @pytest.mark.parametrize("z", [0.5, 1.5])
    def test_two_ray_integral_approaches_real_representation(self, z):
        delta = math.pi - 1e-3
        n = math.floor(z)
        cfg = QuadratureConfig(eps_rel=1e-9, max_subdivisions=600)
        R = 1e4
        res = integrate_finite(
            lambda r: ray_difference_kernel(r, delta, z, n).im,
            1e-12,
            R,
            cfg,
            breakpoints=geometric_breakpoints(1e-12, R),
        )
        # analytic tail of the polynomial terms past R
        tail = 0.0
        coeff = 1.0
        for k in range(n):
            tail += (
                -math.sin(delta * (z - k))
                / math.pi
                * coeff
                * R ** (k - z + 1.0)
                / (z - k - 1.0)
            )
            coeff /= k + 1
        two_ray = -res.value / (2.0 * math.pi) + tail
        ref = recip_gamma(z, CFG).value
        assert abs(two_ray - ref) / abs(ref) <= 1e-4


class TestInverseLaplace:
    @pytest.mark.parametrize("k", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_monomial_pairs(self, k, t):
        val = inverse_laplace_monomial(k, t, HankelContour(), CFG)
        assert val == pytest.approx(t**k, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(IntegerArgument):
            inverse_laplace_monomial(2.0, 1.0, HankelContour(), CFG)
        for t in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                inverse_laplace_monomial(1.5, t, HankelContour(), CFG)

    @pytest.mark.parametrize("t", [1e15, 1e17])
    def test_huge_time_exceeds_panel_budget(self, t):
        # the panel width cap pi/(t sin delta) no longer moves the ray seeds
        with pytest.raises(ContourDegenerate):
            inverse_laplace_monomial(1.5, t, HankelContour(), CFG)


class TestComplexValue:
    def test_round_trip(self):
        cv = hankel_recip_gamma(1.5, REFERENCE_CONTOUR, CFG)
        as_c = complex(cv)
        assert as_c.real == cv.re and as_c.imag == cv.im
        assert cv.magnitude == pytest.approx(abs(as_c))
        assert math.isfinite(cv.re) and math.isfinite(cv.im)
