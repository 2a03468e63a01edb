import cmath
import copy
import math
import os
import pickle
import random
import subprocess
import sys

import mpmath
import pytest

from regamma import kernel, quadrature
from regamma.gamma_core import MethodTag, gamma_negative, recip_gamma
from regamma.hankel import HankelContour
from regamma.kernel import ArgDecomposition, decompose, sinpi
from regamma.quadrature import (
    EPS_ABS,
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    combine,
    geometric_breakpoints,
    integrate_finite,
    integrate_regularized_kernel,
    log_form_middle,
    origin_closed_form,
    polynomial_tail_closed_form,
    power_subst_middle,
    propagate,
    real_axis_middle,
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

    def test_budget_exhaustion_signals_not_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_BISECTIONS", 3)
        cfg = QuadratureConfig(eps_rel=1e-15)
        res = integrate_finite(lambda x: math.sqrt(x), 0.0, 1.0, cfg)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert res.value == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_resolution_stop_signals_not_raises(self):
        # a step at x = 1 on a stretch 6 ulp(1) wide: bisection reaches
        # panels one ulp wide, whose midpoint rounds onto an end, long
        # before the budget, and the step keeps their estimate far above
        # the round-off floor
        u = math.ulp(1.0)
        cfg = QuadratureConfig(eps_rel=1e-15)
        res = integrate_finite(lambda x: float(x >= 1.0), 1.0 - 2.0 * u, 1.0 + 4.0 * u, cfg)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert math.isfinite(res.value) and math.isfinite(res.abs_error_estimate)
        assert res.abs_error_estimate > 1e-3 * abs(res.value)
        assert res.evaluations < 15 + 30 * quadrature._MAX_BISECTIONS

    @pytest.mark.parametrize("ulps", [(0, 1), (-2, 4)])
    def test_narrow_panel_samples_only_inside(self, ulps):
        # on a panel an ulp or so wide, center -+ dx rounds past the ends;
        # the nodes are clamped, and the estimate still covers the error
        u = math.ulp(1.0)
        a, b = 1.0 + ulps[0] * u, 1.0 + ulps[1] * u

        def step(x):
            if not a <= x <= b:
                raise ValueError(f"evaluated outside [a, b] at {x!r}")
            return float(x >= 1.0)

        res = integrate_finite(step, a, b, QuadratureConfig(eps_rel=1e-15))
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert res.abs_error_estimate >= abs(res.value - (b - 1.0))

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

    def test_opposite_infinite_panels_are_flagged(self):
        # math.fsum raises ValueError on +inf beside -inf
        nodes = []
        quadrature._gk15(lambda x: nodes.append(x) or 0.0, 0.0, 1.0)
        node = nodes[3]
        f = lambda x: math.inf if x == node else (-math.inf if x == node + 1.0 else 1.0)
        res = integrate_finite(f, 0.0, 2.0, CFG, [1.0])
        assert math.isnan(res.value)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET


class TestRegularizedKernel:
    @pytest.mark.parametrize(
        "z,expected",
        [(0.5, I_HALF), (1.5, I_THREE_HALVES), (2.5, I_FIVE_HALVES)],
    )
    def test_reference_values(self, z, expected):
        res = integrate_regularized_kernel(decompose(z), CFG, real_axis_middle)
        assert res.value == pytest.approx(expected, rel=1e-8)
        assert res.condition_flag is ConditionFlag.OK

    @staticmethod
    def at_split(z, split, monkeypatch, middle=real_axis_middle):
        """I(z) with the origin series and the middle split at x = split."""
        monkeypatch.setattr(quadrature, "_SPLIT_POINT", split)
        return integrate_regularized_kernel(decompose(z), CFG, middle)

    @pytest.mark.parametrize(
        "middle",
        [real_axis_middle, power_subst_middle, log_form_middle],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("z", [0.3, 1.7, 3.2, 6.9])
    def test_split_invariance(self, z, middle, monkeypatch):
        # every route reads the shared split: one that kept its own would
        # leave a gap or an overlap with the origin series as the split moves
        vals = [self.at_split(z, sp, monkeypatch, middle).value for sp in (0.5, 1.0, 2.0)]
        spread = (max(vals) - min(vals)) / abs(vals[0])
        assert spread <= 10.0 * CFG.eps_rel

    @pytest.mark.parametrize("z", [0.7, 2.5, 4.3])
    def test_no_adaptive_blowup_at_origin(self, z, monkeypatch):
        e_full = self.at_split(z, 1.0, monkeypatch).evaluations
        e_half = self.at_split(z, 0.5, monkeypatch).evaluations
        assert e_half <= 4 * e_full

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_near_integer_growth_and_flag(self, m):
        # I(z) grows like 1/dist(z, Z), and sin(pi z)/pi I(z) stays accurate
        delta = 1e-3
        z = m + delta
        res = integrate_regularized_kernel(decompose(z), CFG, real_axis_middle)
        predicted = 1.0 / (delta * math.factorial(m - 1))
        assert predicted / 3.0 <= abs(res.value) <= predicted * 3.0
        assert res.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            value = sinpi(z) / math.pi * res.value
            assert abs(value - ref) <= 10.0 * CFG.eps_rel * abs(ref)

    def test_sign_pattern(self):
        # single-signed integrand: sign of I(z) is (-1)^n
        for z in (0.4, 1.3, 2.8, 3.1, 4.9):
            res = integrate_regularized_kernel(decompose(z), CFG, real_axis_middle)
            assert math.copysign(1.0, res.value) == (-1.0) ** math.floor(z)


def euler(A):
    """I(1 - A), Euler's integral for Gamma(A), at order n = 0."""
    return ArgDecomposition(z=1.0 - A, n=0, frac=1.0 - A)


class TestRealAxisMiddle:
    """The middle stretch [1, 36] in t = log x: one or two fixed GL15 panels."""

    @staticmethod
    def middle_exact(arg):
        """int_1^36 (e^{-x} - e_{n-1}(-x)) x^{-z} dx: the upper incomplete
        gamma function between the ends, less the polynomial's terms, at 50
        digits, well past the few the terms cancel."""
        with mpmath.workdps(50):
            z = arg.n + mpmath.mpf(arg.frac)
            value = mpmath.gammainc(1 - z, 1, 36)
            for k in range(arg.n):
                expo = k + 1 - z
                value -= (-1) ** k * (mpmath.mpf(36) ** expo - 1) / (mpmath.factorial(k) * expo)
            return float(value)

    FRACS = [1e-15, 1e-6, 1e-3, 0.1, 0.37, 0.5, 0.83, 0.99, 1.0 - 1e-6]

    @pytest.mark.parametrize("frac", FRACS)
    @pytest.mark.parametrize("n", range(10))
    def test_estimate_bounds_the_error(self, n, frac):
        # scale inf admits one panel at any tolerance, scale 0 forces two;
        # on either the bound and the rounding cover the error against mpmath
        arg = ArgDecomposition(z=n + frac, n=n, frac=frac)
        exact = self.middle_exact(arg)
        for scale, evaluations in ((math.inf, 15), (0.0, 30)):
            res = real_axis_middle(arg, 1e-8, scale)
            assert res.evaluations == evaluations
            assert res.condition_flag is ConditionFlag.OK
            assert abs(res.value - exact) <= res.abs_error_estimate, (scale, exact)
        # two panels are certified to a few eps, one to 1e-8 of the origin part
        origin = abs(origin_closed_form(arg, 1.0).value)
        assert res.abs_error_estimate <= 20.0 * sys.float_info.epsilon * abs(exact)
        assert real_axis_middle(arg, 1e-8, math.inf).abs_error_estimate <= 1e-8 * origin

    def test_two_panels_are_below_the_rounding(self):
        # no third panel is needed: over n <= 9 and 0 < frac < 1 the
        # two-panel bound is at most 2.4e-16 of the origin part
        lo, hi = 0.0, math.log(36.0)
        for n in range(10):
            for frac in self.FRACS:
                arg = ArgDecomposition(z=n + frac, n=n, frac=frac)
                origin = abs(origin_closed_form(arg, 1.0).value)
                bound = quadrature._gl15_bound(
                    lo, hi, 2, 0.5 * math.pi, -math.lgamma(n + 1), 1.0 - frac
                )
                assert bound <= 2.5e-16 * origin

    def test_cost_at_eps_1e_8(self):
        # the panel count comes from the bound: one panel for most z, two
        # where frac is small enough that one panel's bound passes eps/2
        rng = random.Random(13)
        zs = [rng.uniform(0.0, 9.0) for _ in range(100)]
        counts = [recip_gamma(z, CFG).quadrature.evaluations for z in zs]
        assert set(counts) <= {15, 30}
        assert counts.count(15) >= 90

    @pytest.mark.parametrize("eps,evaluations", [(1e-8, 15), (1e-12, 30)])
    def test_panel_count_follows_the_tolerance(self, eps, evaluations):
        gv = recip_gamma(2.5, QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.quadrature.evaluations == evaluations

    def test_integrand_calls_the_kernel_by_its_module_name(self, monkeypatch):
        # a tracer that rebinds quadrature.exp_remainder sees every
        # evaluation, each at -x for an x in [1, 36]
        calls = []

        def spy(x, n):
            calls.append(x)
            return kernel.exp_remainder(x, n)

        monkeypatch.setattr(quadrature, "exp_remainder", spy)
        res = integrate_regularized_kernel(decompose(2.5), CFG, real_axis_middle)
        assert len(calls) == res.evaluations == 15
        assert all(1.0 <= -x <= 36.0 for x in calls)


class TestOriginClosedForm:
    """The series for I(z) over [0, split] against mpmath."""

    ARGS = [decompose(z) for z in (0.9999, 2.5, 4.9999, 49.7)]
    ARGS += [euler(A) for A in (0.011, 1.5, 10.5, 45.5)]
    ARGS += [ArgDecomposition(z=-A, n=0, frac=-A) for A in (1e-17, 1e-4)]

    @staticmethod
    def reference(arg, split):
        # the lower incomplete gamma function gamma(1 - z, split), continued
        # analytically in z, less the polynomial's terms; at 150 digits, as
        # the subtraction cancels about 80 of them at z = 49.7
        with mpmath.workdps(150):
            z, s = mpmath.mpf(arg.z), mpmath.mpf(split)
            value = mpmath.gammainc(1 - z, 0, s)
            for k in range(arg.n):
                value -= (-1) ** k * s ** (k + 1 - z) / (mpmath.factorial(k) * (k + 1 - z))
            return float(value)

    @pytest.mark.parametrize("split", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("arg", ARGS, ids=lambda a: repr(a.z))
    def test_against_mpmath(self, arg, split):
        res = origin_closed_form(arg, split)
        exact = self.reference(arg, split)
        assert res.evaluations == 0
        assert res.condition_flag is ConditionFlag.OK
        assert abs(res.value - exact) <= res.abs_error_estimate <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("A", [10.5, 45.5])
    def test_euler_argument_is_refused_by_the_assembly(self, A):
        # the origin series takes it (above), but the assembly bounds its
        # exponential tail for z >= 0 alone, and frac = 1 - A is not in (0, 1)
        with pytest.raises(ValueError, match="frac"):
            integrate_regularized_kernel(euler(A), QuadratureConfig(1e-12), real_axis_middle)

    @pytest.mark.parametrize("z", [171.5, 172.25, 300.5])
    def test_order_past_170_is_refused(self, z):
        # 1/n! as a double overflowed the start: the call raised a bare
        # OverflowError (int too large to convert to float)
        with pytest.raises(ValueError, match="170"):
            origin_closed_form(decompose(z), 1.0)
        with pytest.raises(ValueError, match="170"):
            integrate_regularized_kernel(decompose(z), CFG, real_axis_middle)

    def test_order_170_is_summed(self):
        # sum_{k>=170} (-1)^k / (k! (k + 1 - z)) at split 1, term by term:
        # the reference above would cancel about 300 digits here
        res = origin_closed_form(decompose(170.5), 1.0)
        with mpmath.workdps(30):
            exact = float(mpmath.fsum((-1) ** k / (mpmath.factorial(k) * (k - 169.5))
                                      for k in range(170, 200)))
        assert abs(res.value - exact) <= res.abs_error_estimate <= 1e-13 * abs(exact)
        res = integrate_regularized_kernel(decompose(170.5), CFG, real_axis_middle)
        assert math.isfinite(res.value)


class TestPolynomialTail:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            polynomial_tail_closed_form(decompose(1.5), 0.0)

    def test_empty_for_n_zero(self):
        assert polynomial_tail_closed_form(decompose(0.5), 10.0).value == 0.0

    def test_single_term(self):
        # int_10^inf -x^{-1.5} dx = -2/sqrt(10)
        val = polynomial_tail_closed_form(decompose(1.5), 10.0).value
        assert val == pytest.approx(-0.63245553203367587, rel=1e-12)

    def test_two_terms(self):
        # int_4^inf (x - 1) x^{-2.5} dx = 11/12
        val = polynomial_tail_closed_form(decompose(2.5), 4.0).value
        assert val == pytest.approx(11.0 / 12.0, rel=1e-12)

    @pytest.mark.parametrize("z,n", [(1.5, 1), (2.5, 2)])
    def test_against_mpmath_quad(self, z, n):
        # the closed form over [R, 1e6] against mpmath's quadrature, decade by decade
        arg = decompose(z)
        R = 10.0

        def poly_part(x):
            return -mpmath.fsum((-x) ** k / mpmath.factorial(k) for k in range(n)) * x**-z

        with mpmath.workdps(30):
            quad = float(mpmath.quad(poly_part, [R, 1e2, 1e3, 1e4, 1e5, 1e6]))
        closed = (
            polynomial_tail_closed_form(arg, R).value
            - polynomial_tail_closed_form(arg, 1e6).value
        )
        assert quad == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("z", [1.5, 2.5, 4.5])
    def test_ray_of_the_hankel_contour(self, z):
        # Im int_R^inf -e_{n-1}(tau) tau^{-z} dtau on tau = r e^{i delta}
        arg, R, delta = decompose(z), 4.0, 2.2

        def integrand(r):
            tau = r * mpmath.expj(delta)
            poly = sum(tau**k / mpmath.factorial(k) for k in range(arg.n))
            return mpmath.im(-poly * tau ** (-z) * mpmath.expj(delta))

        with mpmath.workdps(30):
            ref = mpmath.quad(integrand, [R * 10**j for j in range(5)] + [mpmath.inf])
        val = polynomial_tail_closed_form(arg, R, delta).value
        assert val == pytest.approx(float(ref), rel=1e-12)

    def test_large_z_rounding_is_flagged(self):
        # unshifted, the terms of the polynomial tail dwarf the sum at
        # z = 100.5; their rounding bound must say so
        res = integrate_regularized_kernel(decompose(100.5), CFG, real_axis_middle)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET


class TestExponentialTail:
    """Past R = 36 the exponential part is bounded, never integrated."""

    @pytest.mark.parametrize("z", [1e-300, 0.5, 5.5, 49.9])
    def test_skipped_tail_error_bounds_the_tail(self, monkeypatch, z):
        # the last part of the real line's record is the bound: value 0, no
        # evaluations, and an error of at least
        # int_36^inf e^{-x} x^{-z} dx = Gamma(1 - z, 36)
        combined, combine = [], quadrature.combine

        def spy(parts, eps_rel):
            combined.append(list(parts))
            return combine(parts, eps_rel)

        monkeypatch.setattr(quadrature, "combine", spy)
        integrate_regularized_kernel(decompose(z), CFG, real_axis_middle)
        bound = combined[-1][-1]
        assert bound.value == 0.0
        assert bound.evaluations == 0
        with mpmath.workdps(30):
            exact = float(mpmath.gammainc(1 - mpmath.mpf(z), 36))
        assert exact <= bound.abs_error_estimate * (1.0 + 1e-12)
        assert bound.abs_error_estimate <= 5.0 * exact

    def test_regularized_integral_skips_a_negligible_tail(self):
        # the tail past R = 36 is about 1e-20 of I(2.5); the middle stretch
        # takes 30 evaluations, and integrating the tail at least 60 more
        gv = recip_gamma(2.5, CFG)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.quadrature.evaluations <= 30
        assert gv.value == pytest.approx(float(mpmath.rgamma(2.5)), rel=CFG.eps_rel)

    def test_no_evaluation_past_the_radius(self, monkeypatch):
        # at z = 0.05 the bound e^{-36} 36^{-z} is above 1e-16 of I(z), yet
        # the kernel is only called on the middle stretch, at x in [1, 36]
        calls = []

        def spy(x, n):
            calls.append(x)
            return kernel.exp_remainder(x, n)

        monkeypatch.setattr(quadrature, "exp_remainder", spy)
        gv = recip_gamma(0.05, QuadratureConfig(eps_rel=1e-14))
        assert all(1.0 <= -x <= 36.0 for x in calls)
        assert gv.quadrature.evaluations == len(calls) > 0


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
        # 1/Gamma(100.5) is 1/Gamma(8.5) moved back by 92 divisions, whose
        # roundings alone pass 1e-14; no bisection can mend that
        cfg = QuadratureConfig(eps_rel=1e-14)
        gv = recip_gamma(100.5, cfg)
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gv.quadrature.evaluations <= 500
        # the value's estimate is near the floor and still honest
        res = gv.quadrature
        exact = float(mpmath.rgamma(100.5))
        assert abs(res.value - exact) <= res.abs_error_estimate <= 10.0 * cfg.eps_rel * abs(exact)


class TestPropagate:
    def test_error_counts_factors_and_roundings(self):
        # the parts' relative errors, 5e-11 each, add; None is exact
        eps = 2.0**-53
        parts = [IntegralResult(4.0, 2e-10, 15), None, IntegralResult(-1.0, 5e-11, 30)]
        res = propagate(2.0, parts, 7, 1e-8)
        assert res.value == 2.0 and res.evaluations == 45
        assert res.abs_error_estimate == 2.0 * (1e-10 + 7 * eps) + 7 * 5e-324
        assert res.condition_flag is ConditionFlag.OK

    def test_flag_needs_every_part_and_the_tolerance(self):
        missed = IntegralResult(1.0, 1e-12, 15, ConditionFlag.TOLERANCE_NOT_MET)
        assert propagate(1.0, [missed], 0, 1e-8).condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        loose = IntegralResult(1.0, 1e-9, 15)
        assert propagate(1.0, [loose], 0, 1e-8).condition_flag is ConditionFlag.OK
        assert propagate(1.0, [loose], 0, 1e-10).condition_flag is ConditionFlag.TOLERANCE_NOT_MET

    def test_infinite_value_is_never_ok(self):
        # its estimate is inf, which inf * eps_rel would otherwise admit
        res = propagate(math.inf, [], 1, 1e-8)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET

    def test_underflow_to_zero_is_unbounded(self):
        part = IntegralResult(1.0, 1e-12, 15)
        for value, parts in ((0.0, [part]), (0.0, [propagate(0.0, [part], 1, 1e-8)])):
            res = propagate(value, parts, 1, 1e-8)
            assert res.abs_error_estimate == math.inf
            assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET


class TestRecords:
    """IntegralResult and ArgDecomposition are named tuples: their fields,
    order and defaults are the public contract, and they are immutable."""

    def test_fields_and_defaults(self):
        assert IntegralResult._fields == (
            "value", "abs_error_estimate", "evaluations", "condition_flag")
        assert IntegralResult._field_defaults == {"condition_flag": ConditionFlag.OK}
        assert IntegralResult(1.0, 2e-16, 15).condition_flag is ConditionFlag.OK
        assert ArgDecomposition._fields == ("z", "n", "frac")
        assert ArgDecomposition._field_defaults == {}

    @pytest.mark.parametrize("record, name", [
        (IntegralResult(1.0, 2e-16, 15), "value"),
        (IntegralResult(1.0, 2e-16, 15), "condition_flag"),
        (ArgDecomposition(2.5, 2, 0.5), "frac"),
        (ArgDecomposition(2.5, 2, 0.5), "extra"),
    ])
    def test_assignment_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)

    def test_iterate_and_compare_as_tuples(self):
        arg = decompose(2.5)
        assert arg == (2.5, 2, 0.5)
        z, n, frac = arg
        assert (z, n, frac) == (arg.z, arg.n, arg.frac)

    @pytest.mark.parametrize("record", [
        IntegralResult(-1.5 + 0.25j, 3e-17, 30, ConditionFlag.TOLERANCE_NOT_MET),
        integrate_regularized_kernel(decompose(3.3), CFG, real_axis_middle),
        decompose(7.25),
    ])
    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record


class TestCombine:
    @pytest.mark.parametrize(
        "part",
        [
            IntegralResult(math.nan, 0.0, 15),
            IntegralResult(1.0, math.nan, 15),
            IntegralResult(math.inf, 0.0, 15),
        ],
    )
    def test_non_finite_sum_is_never_ok(self, part):
        # a NaN fails the comparison with the tolerance, and inf * eps_rel
        # admits any estimate: none of these may read as ok
        res = combine([IntegralResult(1.0, 1e-12, 15), part], 1e-8)
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET


class TestConfigValidation:
    @pytest.mark.parametrize("eps", [2.0, 1.0, 0.0, -1e-8, math.nan, math.inf])
    def test_bad_eps_rel(self, eps):
        with pytest.raises(ValueError):
            QuadratureConfig(eps_rel=eps)
        with pytest.raises(ValueError):
            QuadratureConfig(eps)

    @pytest.mark.parametrize("cls, args, text", [
        (QuadratureConfig, (1e-10,), "QuadratureConfig(eps_rel=1e-10)"),
        (HankelContour, (2.0, 0.25), "HankelContour(delta=2.0, r0=0.25)"),
    ])
    def test_settings_are_values(self, cls, args, text):
        # immutable, equal, hashed and shown by value, as the frozen
        # dataclasses they replace were
        cfg = cls(*args)
        assert cfg == cls(*args) and hash(cfg) == hash(cls(*args))
        assert cfg != cls() and cfg != args and len({cfg, cls(*args)}) == 1
        assert repr(cfg) == text
        for name in cls.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(cfg, name, 0.5)
        with pytest.raises(AttributeError):
            delattr(cfg, cls.__slots__[0])
        for back in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
            assert type(back) is cls and back == cfg
        assert QuadratureConfig() == QuadratureConfig(1e-8)
        assert HankelContour() == HankelContour(delta=0.75 * math.pi, r0=0.5)

    def test_reading_back_validates(self):
        # a pickle calls the constructor, so a stored value is validated
        data = pickle.dumps(QuadratureConfig(0.5), protocol=0)
        assert b"F0.5\n" in data
        with pytest.raises(ValueError):
            pickle.loads(data.replace(b"F0.5\n", b"F2.0\n"))

    @pytest.mark.parametrize("module", ["regamma", "regamma.cli"])
    def test_import_loads_no_dataclasses(self, module):
        # every regamma command imports regamma.cli
        src = os.path.dirname(os.path.dirname(os.path.abspath(quadrature.__file__)))
        code = (f"import sys, {module}; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=60).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("eps", [5e-324, 1.5e-323])
    def test_subnormal_tolerance_is_flagged(self, eps):
        # its share for a part rounds to 0; the result is flagged, not an
        # error from the part's config
        cfg = QuadratureConfig(eps_rel=eps)
        for method in MethodTag:
            gv = recip_gamma(2.5, cfg, method)
            assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
            assert gv.value == pytest.approx(float(mpmath.rgamma(2.5)), rel=1e-14)
        gv = gamma_negative(2.5, cfg, MethodTag.CAUCHY_SAALSCHUTZ)
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET

    def test_geometric_breakpoints_need_a_positive_start(self):
        with pytest.raises(ValueError):
            geometric_breakpoints(0.0, 1.0)

    def test_geometric_breakpoints_inside(self):
        pts = geometric_breakpoints(1.0, 36.0)
        assert all(1.0 < p < 36.0 for p in pts)
        assert pts == sorted(pts)
