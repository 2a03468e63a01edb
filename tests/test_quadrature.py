import cmath
import math
import sys

import mpmath
import pytest

from regamma import quadrature
from regamma.gamma_core import recip_gamma
from regamma.kernel import decompose, regularized_integrand, truncated_exp
from regamma.oracle import brute_force_integral
from regamma.quadrature import (
    EPS_ABS,
    ConditionFlag,
    QuadratureConfig,
    exponential_tail,
    geometric_breakpoints,
    integrate_finite,
    integrate_regularized_kernel,
    polynomial_tail_closed_form,
    real_axis_segments,
    regularized_integral,
)

CFG = QuadratureConfig()

# pi / (sin(pi z) Gamma(z)), frozen from a 50-digit evaluation
I_HALF = 1.7724538509055160273
I_THREE_HALVES = -3.5449077018110320546
I_FIVE_HALVES = 2.3632718012073547031


class TestIntegrateFinite:
    def test_constant(self):
        res = integrate_finite(lambda x: 1.0, 0.0, 1.0, CFG)
        assert res.value == pytest.approx(1.0, rel=1e-14)
        assert res.abs_error_estimate <= 1e-12
        assert res.condition_flag is ConditionFlag.OK

    def test_parabola(self):
        res = integrate_finite(lambda x: x * x, 0.0, 1.0, CFG)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_decaying_exponential(self):
        res = integrate_finite(lambda x: math.exp(-x), 0.0, 50.0, CFG)
        assert res.value == pytest.approx(1.0 - math.exp(-50.0), rel=1e-10)

    def test_breakpoints_do_not_change_value(self):
        f = lambda x: math.sin(3.0 * x) ** 2
        plain = integrate_finite(f, 0.0, 4.0, CFG)
        seeded = integrate_finite(f, 0.0, 4.0, CFG, breakpoints=[0.5, 1.0, 2.0])
        assert plain.value == pytest.approx(seeded.value, rel=1e-11)

    def test_budget_exhaustion_signals_not_raises(self):
        cfg = QuadratureConfig(eps_rel=1e-15, max_subdivisions=3)
        res = integrate_finite(lambda x: math.sqrt(x), 0.0, 1.0, cfg)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert res.value == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_result_invariants(self):
        res = integrate_finite(lambda x: math.exp(-x * x), 0.0, 3.0, CFG)
        assert res.evaluations > 0
        assert res.abs_error_estimate >= 0.0
        assert (
            res.abs_error_estimate
            <= CFG.eps_rel * abs(res.value) + EPS_ABS
        )

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0, CFG)

    def test_complex_integrand_matches_its_parts(self):
        # a fixed complex multiple of a real integrand adapts exactly like it
        c = 1.0 - 2.0j
        f = lambda x: math.sqrt(x) * math.exp(-x)
        cfg = QuadratureConfig(eps_rel=1e-10)
        whole = integrate_finite(lambda x: c * f(x), 0.0, 4.0, cfg, breakpoints=[1.0])
        re = integrate_finite(lambda x: c.real * f(x), 0.0, 4.0, cfg, breakpoints=[1.0])
        im = integrate_finite(lambda x: c.imag * f(x), 0.0, 4.0, cfg, breakpoints=[1.0])
        assert isinstance(whole.value, complex)
        assert whole.value.real == pytest.approx(re.value, rel=1e-14)
        assert whole.value.imag == pytest.approx(im.value, rel=1e-14)
        assert whole.evaluations == re.evaluations == im.evaluations > 15
        assert whole.condition_flag is re.condition_flag is im.condition_flag
        assert whole.condition_flag is ConditionFlag.OK

    def test_oscillatory_complex_integrand(self):
        whole = integrate_finite(lambda x: cmath.exp(3j * x), 0.0, 5.0, CFG)
        re = integrate_finite(lambda x: math.cos(3.0 * x), 0.0, 5.0, CFG)
        im = integrate_finite(lambda x: math.sin(3.0 * x), 0.0, 5.0, CFG)
        assert whole.value.real == pytest.approx(re.value, rel=1e-10)
        assert whole.value.imag == pytest.approx(im.value, rel=1e-10)
        assert whole.value == pytest.approx((cmath.exp(15j) - 1.0) / 3j, rel=1e-10)
        assert whole.condition_flag is ConditionFlag.OK


class TestRegularizedKernel:
    @pytest.mark.parametrize(
        "z,expected",
        [(0.5, I_HALF), (1.5, I_THREE_HALVES), (2.5, I_FIVE_HALVES)],
    )
    def test_reference_values(self, z, expected):
        res = integrate_regularized_kernel(decompose(z), CFG)
        assert res.value == pytest.approx(expected, rel=1e-8)
        assert res.condition_flag is ConditionFlag.OK

    @staticmethod
    def at_split(z, split):
        """I(z) on the real-axis segments split at x = split, not at 1."""
        arg = decompose(z)
        return regularized_integral(
            arg, CFG, lambda _split, R: real_axis_segments(arg, split, R)
        )

    @pytest.mark.parametrize("z", [0.3, 1.7, 3.2, 6.9])
    def test_split_invariance(self, z):
        vals = [self.at_split(z, sp).value for sp in (0.5, 1.0, 2.0)]
        spread = (max(vals) - min(vals)) / abs(vals[0])
        assert spread <= 10.0 * CFG.eps_rel

    @pytest.mark.parametrize("z", [0.7, 2.5, 4.3])
    def test_no_adaptive_blowup_at_origin(self, z):
        e_full = self.at_split(z, 1.0).evaluations
        e_half = self.at_split(z, 0.5).evaluations
        assert e_half <= 4 * e_full

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_near_integer_growth_and_flag(self, m):
        delta = 1e-3
        res = integrate_regularized_kernel(decompose(m + delta), CFG)
        predicted = 1.0 / (delta * math.factorial(m - 1))
        assert predicted / 3.0 <= abs(res.value) <= predicted * 3.0
        assert res.condition_flag is ConditionFlag.NEAR_INTEGER_AMPLIFICATION

    def test_sign_pattern(self):
        # single-signed integrand: sign of I(z) is (-1)^n
        for z in (0.4, 1.3, 2.8, 3.1, 4.9):
            res = integrate_regularized_kernel(decompose(z), CFG)
            assert math.copysign(1.0, res.value) == (-1.0) ** math.floor(z)


class TestPolynomialTail:
    def test_empty_for_n_zero(self):
        assert polynomial_tail_closed_form(decompose(0.5), 10.0) == 0.0

    def test_single_term(self):
        # int_10^inf -x^{-1.5} dx = -2/sqrt(10)
        val = polynomial_tail_closed_form(decompose(1.5), 10.0)
        assert val == pytest.approx(-0.63245553203367587, rel=1e-12)

    def test_two_terms(self):
        # int_4^inf (x - 1) x^{-2.5} dx = 11/12
        val = polynomial_tail_closed_form(decompose(2.5), 4.0)
        assert val == pytest.approx(11.0 / 12.0, rel=1e-12)

    @pytest.mark.parametrize("z,n", [(1.5, 1), (2.5, 2)])
    def test_against_brute_force(self, z, n):
        # compare the closed form over [R, 1e6] with decade-wise midpoint sums
        arg = decompose(z)
        R = 10.0

        def poly_part(x):
            return -truncated_exp(-x, n - 1) * x**-z

        brute = 0.0
        lo = R
        while lo < 1e6:
            hi = min(lo * 10.0, 1e6)
            brute += brute_force_integral(poly_part, lo, hi, 300_000)
            lo = hi
        closed = polynomial_tail_closed_form(arg, R) - polynomial_tail_closed_form(
            arg, 1e6
        )
        assert brute == pytest.approx(closed, rel=1e-9)


class TestExponentialTail:
    def test_against_gamma_tail(self):
        # int_X^inf e^{-x} x^{-z} dx at z=0.5, X=1 equals
        # Gamma(0.5, 1) = sqrt(pi) erfc(1); frozen 50-digit value
        res = exponential_tail(0.5, 1.0, CFG, 0.0)
        assert res.value == pytest.approx(0.27880558528066197650, rel=1e-9)

    def test_negligible_for_large_radius(self):
        res = exponential_tail(1.5, 36.0, CFG, 0.0)
        assert abs(res.value) < 1e-16

    @pytest.mark.parametrize("z", [-35.0, -10.0, -1.0, 0.0, 0.5, 5.0, 49.9])
    def test_skipped_tail_error_bounds_the_tail(self, z):
        # a huge rest makes the tail negligible; the error it reports must
        # bound int_36^inf e^{-x} x^{-z} dx = Gamma(1 - z, 36)
        res = exponential_tail(z, 36.0, CFG, 1e300)
        assert res.value == 0.0
        assert res.evaluations == 0
        with mpmath.workdps(30):
            exact = float(mpmath.gammainc(1 - mpmath.mpf(z), 36))
        assert exact <= res.abs_error_estimate * (1.0 + 1e-12)
        assert res.abs_error_estimate <= 5.0 * exact

    def test_regularized_integral_skips_a_negligible_tail(self):
        # the tail past R = 36 is about 1e-20 of I(2.5); integrating it
        # would take 90 more evaluations
        gv = recip_gamma(2.5, CFG)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.quadrature.evaluations <= 105
        assert gv.value == pytest.approx(float(mpmath.rgamma(2.5)), rel=CFG.eps_rel)

    def test_tail_above_the_tolerance_is_integrated(self, monkeypatch):
        # at z = 0.05 the bound e^{-36} 36^{-z} is above 1e-16 of I(z)
        tails = []

        def spy(*args):
            tails.append(exponential_tail(*args))
            return tails[-1]

        monkeypatch.setattr(quadrature, "exponential_tail", spy)
        recip_gamma(0.05, QuadratureConfig(eps_rel=1e-14))
        assert len(tails) == 1
        assert tails[0].evaluations > 0


class TestRoundOffFloor:
    """Below 50 eps, the least error a GK15 panel admits, the engine stops."""

    def test_stops_near_the_floor(self):
        # positive integrand: the panels' resabs sum to the value, so the
        # floor sum is 50 eps |value|, above the 1e-15 target
        cfg = QuadratureConfig(eps_rel=1e-15)
        res = integrate_finite(lambda x: 1.0 / (1e-2 + x * x), -1.0, 1.0, cfg)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert res.evaluations <= 600
        floor_sum = 50.0 * sys.float_info.epsilon * res.value
        assert res.abs_error_estimate <= 2.0 * floor_sum * (1.0 + 1e-9)
        assert res.value == pytest.approx(20.0 * math.atan(10.0), rel=1e-14)

    def test_tolerance_above_the_floor_is_met(self):
        cfg = QuadratureConfig(eps_rel=1e-13)
        res = integrate_finite(lambda x: 1.0 / (1e-2 + x * x), -1.0, 1.0, cfg)
        assert res.condition_flag is ConditionFlag.OK

    def test_recip_gamma_below_the_floor(self):
        # bisecting to the budget would take 18,165 evaluations
        cfg = QuadratureConfig(eps_rel=1e-14)
        gv = recip_gamma(2.5, cfg)
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gv.quadrature.evaluations <= 500
        # the estimate is near the floor and still honest
        res = gv.quadrature
        exact = float(mpmath.pi / (mpmath.sinpi(2.5) * mpmath.gamma(2.5)))
        assert abs(res.value - exact) <= res.abs_error_estimate <= 10.0 * cfg.eps_rel * abs(exact)


class TestConfigValidation:
    def test_bad_eps_rel(self):
        with pytest.raises(ValueError):
            QuadratureConfig(eps_rel=2.0)

    def test_geometric_breakpoints_inside(self):
        pts = geometric_breakpoints(1.0, 36.0)
        assert all(1.0 < p < 36.0 for p in pts)
        assert pts == sorted(pts)
