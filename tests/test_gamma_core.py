import math
import pickle
import random
import sys
import time
from functools import partial

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import regamma.gamma_core as gamma_core
from regamma.errors import (
    IntegerArgument,
    NonFiniteArgument,
    NonPositiveArgument,
    PoleError,
    RegammaError,
)
from regamma.gamma_core import (
    GammaValue,
    MethodTag,
    gamma,
    gamma_negative,
    gamma_ratio,
    hankel_recip_gamma,
    inverse_laplace,
    inverse_laplace_monomial,
    recip_gamma,
    recip_gamma_neg_reflection,
    recurrence,
)
from regamma.kernel import decompose
from regamma.quadrature import ConditionFlag, QuadratureConfig

CFG = QuadratureConfig()

SQRT_PI = 1.7724538509055160273
INV_SQRT_PI = 0.56418958354775628695
GAMMA_25 = 1.3293403881791370205

_REAL_LINE = (
    MethodTag.REAL_AXIS,
    MethodTag.POWER_SUBST,
    MethodTag.LOG_FORM,
    MethodTag.CAUCHY_SAALSCHUTZ,
)


class TestRecipGamma:
    def test_positive_integer_exact(self):
        gv = recip_gamma(3.0)
        assert gv.value == 0.5 and gv.is_exact

    def test_zero_exact(self):
        gv = recip_gamma(0.0)
        assert gv.value == 0.0 and gv.is_exact

    @pytest.mark.parametrize("m", [0, -1, -2, -3])
    def test_entire_function_zeros(self, m):
        assert recip_gamma(float(m)).value == 0.0

    def test_half(self):
        assert recip_gamma(0.5, CFG).value == pytest.approx(INV_SQRT_PI, rel=1e-9)

    def test_negative_half_by_reflection(self):
        gv = recip_gamma(-0.5, CFG)
        assert gv.value == pytest.approx(-0.28209479177387814347, rel=1e-9)

    def test_records_method_and_result(self):
        gv = recip_gamma(2.5, CFG)
        assert gv.method is MethodTag.REAL_AXIS
        assert gv.quadrature is not None
        assert gv.quadrature.evaluations > 0

    def test_hankel_dispatch(self):
        gv = recip_gamma(1.5, CFG, MethodTag.HANKEL)
        assert gv.method is MethodTag.HANKEL
        assert gv.value == pytest.approx(recip_gamma(1.5, CFG).value, rel=1e-8)

    def test_reflection_past_the_float_range_overflows(self):
        # 1/Gamma(z) passes double precision below about -171.6: the hankel
        # route's upward recurrence reaches inf there, which raises
        gv = recip_gamma(-170.5, CFG, MethodTag.HANKEL)
        assert gv.value == pytest.approx(float(mpmath.rgamma(-170.5)), rel=1e-12)
        for z in (-175.5, -180.5):
            with pytest.raises(OverflowError):
                recip_gamma(z, CFG, MethodTag.HANKEL)

    def test_cauchy_saalschutz_dispatch(self):
        gv = recip_gamma(0.5, CFG, MethodTag.CAUCHY_SAALSCHUTZ)
        assert gv.value == pytest.approx(INV_SQRT_PI, rel=1e-8)

    @pytest.mark.parametrize("method", [MethodTag.REAL_AXIS, MethodTag.CAUCHY_SAALSCHUTZ])
    @pytest.mark.parametrize("w", [0.3, 2.5, 8.7, 12.3, 150.3])
    def test_negative_z_is_the_reciprocal_of_gamma_negative(self, w, method):
        # 1/Gamma(-w) and Gamma(-w) come from one integral at the same w,
        # moved by m = max(0, floor(w) - 8) recurrence factors each
        cfg = QuadratureConfig(eps_rel=1e-12)
        recip, direct = recip_gamma(-w, cfg, method), gamma_negative(w, cfg, method)
        assert recip.quadrature.evaluations == direct.quadrature.evaluations
        m = max(0, math.floor(w) - 8)
        assert abs(recip.value * direct.value - 1.0) <= (4 + 2 * m) * 2.0**-53

    def test_negative_subnormal_stays_finite(self):
        # -w / I(w) is about -w: no route but cauchy_saalschutz forms Gamma(-w)
        for method in (MethodTag.REAL_AXIS, MethodTag.POWER_SUBST, MethodTag.LOG_FORM):
            gv = recip_gamma(-1e-310, CFG, method)
            assert gv.value == -1e-310
            assert gv.condition_flag is ConditionFlag.OK

    def test_large_integer_underflows_to_zero(self):
        assert recip_gamma(500.0).value == 0.0

    @pytest.mark.parametrize("eps", [1e-8, 1e-12, 1e-14])
    def test_subnormal_reciprocal_factorial_carries_its_rounding(self, eps):
        # 1/171! is subnormal: correctly rounded to one subnormal unit,
        # 6e-15 of it; 1/177! has a few bits, and 1/499! rounds to 0
        cfg = QuadratureConfig(eps_rel=eps)
        assert recip_gamma(171.0, cfg).is_exact
        gv = recip_gamma(172.0, cfg)
        assert gv.value == 1 / math.factorial(171)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.quadrature.abs_error_estimate == pytest.approx(math.ulp(0.0), rel=1e-3)
        assert gv.quadrature.evaluations == 0
        assert recip_gamma(178.0, cfg).condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        gv = recip_gamma(500.0, cfg)
        assert gv.value == 0.0
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gv.quadrature.abs_error_estimate == math.inf

    def test_huge_integers_return_zero_at_once(self):
        for m in range(1, 201):
            assert recip_gamma(float(m)).value == 1 / math.factorial(m - 1)
        start = time.perf_counter()
        assert recip_gamma(1e7).value == 0.0
        assert time.perf_counter() - start < 0.5

    def test_fractional_part_next_to_one(self):
        # the integral itself must be accurate as frac -> 1
        cfg = QuadratureConfig(eps_rel=1e-12)
        gv = recip_gamma(0.9999, cfg)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(0.9999)
            assert abs(gv.value - ref) <= 10.0 * cfg.eps_rel * abs(ref)

    def test_near_integer_is_ok(self):
        gv = recip_gamma(2.0 + 1e-3, CFG)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(2.0 + 1e-3)
            assert abs(gv.value - ref) <= 10.0 * CFG.eps_rel * abs(ref)

    @pytest.mark.parametrize("z", [80.5, 100.5, 150.3, 100.0 + 1e-6, 170.3])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize(
        "method",
        [MethodTag.REAL_AXIS, MethodTag.LOG_FORM, MethodTag.POWER_SUBST,
         MethodTag.CAUCHY_SAALSCHUTZ],
    )
    def test_large_z_is_shifted_and_meets_tolerance(self, z, eps, method):
        # at z itself the terms of the closed-form polynomial tail reach
        # 36^k/k! and round past the tolerance; at z - m in [8, 9) they do not
        cfg = QuadratureConfig(eps_rel=eps)
        gv = recip_gamma(z, cfg, method)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    @pytest.mark.parametrize("z", [-127.00000000000001, -15.000000000000002])
    def test_reflection_rounding_onto_an_integer_is_not_exact(self, z):
        # 1 - z rounds to 128 and 16, whose factorials would pass for exact;
        # the integral is taken at -z itself, which does not round
        assert (1.0 - z).is_integer()
        cfg = QuadratureConfig(eps_rel=1e-12)
        gv = recip_gamma(z, cfg)
        assert not gv.is_exact
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * cfg.eps_rel * abs(ref)


    @pytest.mark.parametrize(
        "z", [-31.00671565557138, -15.000000000000226, -7.0000437255187355]
    )
    def test_reflection_counts_the_rounding_of_one_minus_z(self, z):
        # |z| + 1 crosses into a wider binade, so 1 - z rounds, and 1/Gamma
        # amplifies that by about |z| psi(1 - z); reflected at the rounded
        # 1 - z these were off by 1.3e-14, 4.7e-15 and 2.0e-15 against
        # estimates of 4.5e-15, 2.6e-15 and 1.7e-15; the integral at -z
        # needs no rounded argument
        assert (1.0 - z) - 1.0 != -z
        gv = recip_gamma(z, QuadratureConfig(eps_rel=1e-14))
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(z)) <= gv.quadrature.abs_error_estimate

    @pytest.mark.parametrize("z", [-0.4999999999999999, -0.123456789, -1e-17, -0.7123456789])
    def test_reflection_in_minus_one_to_zero(self, z):
        # neither 1 - z nor z + 1 need be exact here: the integral is taken
        # at -z, and below about 1e-16 on the named route too
        cfg = QuadratureConfig(eps_rel=1e-14)
        gv = recip_gamma(z, cfg)
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(z)) <= gv.quadrature.abs_error_estimate
        assert gv.condition_flag is ConditionFlag.OK


class TestGammaValueRecord:
    """GammaValue is a named tuple: its fields, order and default, its two
    properties, immutability and pickling are the public contract."""

    def test_fields_and_default(self):
        assert GammaValue._fields == ("value", "method", "quadrature")
        assert GammaValue._field_defaults == {"quadrature": None}
        assert GammaValue(1.0, MethodTag.REAL_AXIS).quadrature is None

    def test_exact_value(self):
        gv = recip_gamma(4.0, CFG)
        assert gv == (1.0 / 6.0, MethodTag.REAL_AXIS, None)
        assert gv.is_exact
        assert gv.condition_flag is ConditionFlag.OK

    @pytest.mark.parametrize("eps, flag", [
        (1e-8, ConditionFlag.OK),
        (1e-15, ConditionFlag.TOLERANCE_NOT_MET),
    ])
    def test_computed_value(self, eps, flag):
        gv = recip_gamma(3.3, QuadratureConfig(eps))
        assert not gv.is_exact
        assert gv.quadrature.value == gv.value
        assert gv.condition_flag is gv.quadrature.condition_flag is flag

    @pytest.mark.parametrize("name", ["value", "method", "quadrature", "extra"])
    def test_assignment_raises(self, name):
        gv = recip_gamma(3.3, CFG)
        with pytest.raises(AttributeError):
            setattr(gv, name, None)

    @pytest.mark.parametrize("gv", [
        recip_gamma(4.0, CFG),
        recip_gamma(3.3, CFG),
        gamma_negative(2.5, CFG, MethodTag.CAUCHY_SAALSCHUTZ),
    ])
    def test_pickle_round_trip(self, gv):
        back = pickle.loads(pickle.dumps(gv))
        assert type(back) is GammaValue and back == gv
        assert back.method is gv.method
        assert back.condition_flag is gv.condition_flag


class TestRecurrence:
    def test_divides_one_factor_at_a_time(self):
        assert recurrence(1.0, 10.5, 2) == 1.0 / 9.5 / 8.5
        assert recurrence(1.0, 10.5, 0) == 1.0

    def test_multiplies_below_the_base(self):
        assert recurrence(1.0, 5.5, -3) == 7.5 * 6.5 * 5.5

    def test_small_factor_comes_last(self):
        # 0.25 x (x + 1)...(x + 7) at x = 1e-310 is subnormal: multiplied by
        # x first, its rounding to an absolute unit would be amplified 5040
        # times; last, it is the one rounding of the result
        with mpmath.workdps(30):
            exact = 0.25 * mpmath.fprod(mpmath.mpf(1e-310) + j for j in range(8))
        assert recurrence(0.25, 1e-310, -8) == float(exact)

    def test_underflows_gradually(self):
        # 1/Gamma(175.5) is subnormal; dividing by the whole product at once
        # would return 0
        value = recurrence(float(mpmath.rgamma(8.5)), 175.5, 167)
        assert value == pytest.approx(float(mpmath.rgamma(175.5)), rel=1e-12)
        assert 0.0 < value < sys.float_info.min

    @pytest.mark.parametrize("z,eps,flag", [
        (172.5, 1e-12, ConditionFlag.OK),
        (174.5, 1e-8, ConditionFlag.OK),
        (174.5, 1e-12, ConditionFlag.TOLERANCE_NOT_MET),
    ])
    def test_subnormal_result_counts_one_absolute_unit(self, z, eps, flag):
        # every divisor is at least 8, so the m divisions' absolute roundings
        # stay below one subnormal unit together; counting one per division
        # flagged 1/Gamma(172.5), right to 3.0e-14, and 1/Gamma(174.5),
        # right to 9.4e-10 and a few significant bits, even at eps 1e-8
        gv = recip_gamma(z, QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is flag
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(z)) <= gv.quadrature.abs_error_estimate

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_estimate_bounds_the_error_past_the_normal_range(self, eps):
        # 1/Gamma(z) and Gamma(-z) go subnormal from about z = 171.6
        cfg = QuadratureConfig(eps_rel=eps)
        for k in range(26):
            z = 171.5 + 0.25 * k + 0.0137
            with mpmath.workdps(30):
                for gv, ref in (
                    (recip_gamma(z, cfg), mpmath.rgamma(z)),
                    (gamma_negative(z, cfg), mpmath.gamma(-mpmath.mpf(z))),
                ):
                    assert abs(gv.value - ref) <= gv.quadrature.abs_error_estimate, z

    @pytest.mark.parametrize("method", _REAL_LINE)
    def test_large_z_costs_what_its_base_window_costs(self, method):
        # 45.5 is evaluated at 8.5: the same integral, 37 factors apart
        big, base = (recip_gamma(z, CFG, method) for z in (45.5, 8.5))
        assert big.quadrature.evaluations == base.quadrature.evaluations


CFG10 = QuadratureConfig(eps_rel=1e-10)

# One non-exact result of every public entry point, by name.
_RECORDS = {
    **{
        f"recip_gamma-{tag.value}-{z}": partial(recip_gamma, z, CFG10, tag)
        for tag in MethodTag
        for z in (2.5, 12.3, -3.7)
    },
    "gamma": partial(gamma, 2.5, CFG10),
    "gamma-negative-z": partial(gamma, -1.5, CFG10),
    "gamma_negative": partial(gamma_negative, 12.3, CFG10),
    "gamma_cauchy_saalschutz": partial(
        gamma_negative, 2.5, CFG10, MethodTag.CAUCHY_SAALSCHUTZ
    ),
    "hankel_recip_gamma": partial(hankel_recip_gamma, 2.5, None, CFG10),
    "gamma_ratio-m0": partial(gamma_ratio, 2.5, 1.5, CFG10),
    "gamma_ratio-m2": partial(gamma_ratio, 12.5, 10.3, CFG10),
    "inverse_laplace": partial(inverse_laplace, 1.5, 2.0, cfg=CFG10),
}


@pytest.mark.parametrize("entry", _RECORDS.values(), ids=_RECORDS.keys())
def test_every_entry_point_records_its_value(entry):
    gv = entry()
    assert gv.quadrature.value == gv.value
    if gv.condition_flag is ConditionFlag.OK:
        assert gv.quadrature.abs_error_estimate <= CFG10.eps_rel * abs(gv.value)


class TestNearIntegerSine:
    """sin(pi z) is reduced exactly, so the product keeps its accuracy."""

    CFG10 = QuadratureConfig(eps_rel=1e-10)

    @staticmethod
    def rel_err(value, ref):
        return abs(value - float(ref)) / abs(float(ref))

    @pytest.mark.parametrize(
        "method",
        [MethodTag.REAL_AXIS, MethodTag.POWER_SUBST, MethodTag.LOG_FORM,
         MethodTag.CAUCHY_SAALSCHUTZ],
    )
    @pytest.mark.parametrize("z", [1.0 + 1e-12, 2.0 + 1e-9, -3.0 + 1e-10])
    def test_recip_gamma_against_mpmath(self, z, method):
        gv = recip_gamma(z, self.CFG10, method)
        assert self.rel_err(gv.value, mpmath.rgamma(z)) <= 1e-10

    def test_neg_reflection_against_mpmath(self):
        z = 2.0 + 1e-9
        gv = recip_gamma_neg_reflection(z, self.CFG10)
        assert self.rel_err(gv.value, mpmath.rgamma(-z)) <= 1e-10


class TestNegReflection:
    def test_half(self):
        gv = recip_gamma_neg_reflection(0.5, CFG)
        assert gv.value == pytest.approx(-0.28209479177387814347, rel=1e-9)

    def test_three_halves(self):
        gv = recip_gamma_neg_reflection(1.5, CFG)
        assert gv.value == pytest.approx(0.42314218766081721521, rel=1e-9)

    @pytest.mark.parametrize("z", [2.0 + 1e-8, 2.0 - 1e-8])
    def test_vanishes_toward_integers(self, z):
        assert abs(recip_gamma_neg_reflection(z, CFG).value) <= 1e-7

    def test_integer_rejected(self):
        with pytest.raises(IntegerArgument):
            recip_gamma_neg_reflection(2.0, CFG)


class TestPowerSubstitution:
    def test_half(self):
        gv = recip_gamma(0.5, CFG, MethodTag.POWER_SUBST)
        assert gv.value == pytest.approx(INV_SQRT_PI, rel=1e-9)

    @pytest.mark.parametrize(
        "z,eps", [(1.6461143449695867e-06, 1e-12), (1e-10, 1e-8), (1e-12, 1e-8)]
    )
    def test_tiny_argument(self, z, eps):
        # u = x^z crowds the middle stretch next to 1 as z -> 0; its width
        # must not round away
        cfg = QuadratureConfig(eps_rel=eps)
        gv = recip_gamma(z, cfg, MethodTag.POWER_SUBST)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    @pytest.mark.parametrize("z", [4.5, 9.7])
    def test_matches_real_axis_for_large_arguments(self, z):
        a = recip_gamma(z, CFG, MethodTag.POWER_SUBST).value
        b = recip_gamma(z, CFG).value
        assert abs(a - b) / abs(b) <= 10.0 * CFG.eps_rel


class TestLogForm:
    def test_half(self):
        gv = recip_gamma(0.5, CFG, MethodTag.LOG_FORM)
        assert gv.value == pytest.approx(INV_SQRT_PI, rel=1e-9)

    def test_matches_real_axis(self):
        a = recip_gamma(2.3, CFG, MethodTag.LOG_FORM).value
        b = recip_gamma(2.3, CFG).value
        assert abs(a - b) / abs(b) <= 10.0 * CFG.eps_rel

    @pytest.mark.parametrize("z", [1.0 + 1e-6, 1.0 - 1e-6])
    def test_continuity_across_one(self, z):
        gv = recip_gamma(z, CFG, MethodTag.LOG_FORM)
        assert math.isfinite(gv.value)
        assert abs(gv.value - 1.0) < 1e-3
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * CFG.eps_rel * abs(ref)


class TestGammaNegative:
    @pytest.mark.parametrize(
        "z,expected",
        [
            (0.5, -3.5449077018110320546),
            (1.5, 2.3632718012073547031),
            (2.5, -0.94530872048294188123),
        ],
    )
    def test_reference_values(self, z, expected):
        assert gamma_negative(z, CFG).value == pytest.approx(expected, rel=1e-8)

    def test_sign_alternates_per_unit_interval(self):
        z = 0.1
        while z < 4.95:
            n = math.floor(z)
            val = gamma_negative(z, CFG).value
            assert math.copysign(1.0, val) == (-1.0) ** (n + 1)
            z += 0.2

    def test_integer_rejected(self):
        with pytest.raises(IntegerArgument):
            gamma_negative(3.0, CFG)

    def test_large_argument_is_shifted(self):
        cfg = QuadratureConfig(eps_rel=1e-12)
        gv = gamma_negative(150.3, cfg)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(-mpmath.mpf(150.3))
            assert abs(gv.value - ref) <= 10.0 * cfg.eps_rel * abs(ref)

    @pytest.mark.parametrize("method", [MethodTag.REAL_AXIS, MethodTag.CAUCHY_SAALSCHUTZ])
    def test_overflow_raises(self, method):
        # Gamma(-z) is about -1/z, past double precision below z = 5.56e-309
        with pytest.raises(OverflowError, match="overflows double precision"):
            gamma_negative(1e-310, CFG, method)

    def test_largest_value_below_overflow(self):
        gv = gamma_negative(5.6e-309, CFG)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.value == pytest.approx(-1.0 / 5.6e-309, rel=1e-8)
        # its raised order's tail bound overflows: the value stays, flagged
        cs = gamma_negative(5.6e-309, CFG, MethodTag.CAUCHY_SAALSCHUTZ)
        assert cs.value == pytest.approx(gv.value, rel=1e-8)

    @pytest.mark.parametrize("method", [MethodTag.HANKEL, MethodTag.POWER_SUBST])
    def test_other_methods_refused(self, method):
        with pytest.raises(RegammaError) as info:
            gamma_negative(2.5, CFG, method)
        assert type(info.value) is RegammaError
        message = str(info.value)
        assert "real_axis" in message and "cauchy_saalschutz" in message
        assert method.value in message


class TestCauchySaalschutz:
    @pytest.mark.parametrize(
        "z,expected",
        [(0.5, -3.5449077018110320546), (1.5, 2.3632718012073547031)],
    )
    def test_reference_values(self, z, expected):
        gv = gamma_negative(z, CFG, MethodTag.CAUCHY_SAALSCHUTZ)
        assert gv.value == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("z", [0.4, 1.6, 2.2, 3.7, 4.8])
    def test_matches_integration_by_parts_partner(self, z):
        a = gamma_negative(z, CFG, MethodTag.CAUCHY_SAALSCHUTZ).value
        b = gamma_negative(z, CFG).value
        assert abs(a - b) / abs(b) <= 10.0 * CFG.eps_rel

    def test_no_factorial_overflow_at_large_z(self):
        # order 171 would overflow math.factorial's conversion to float;
        # the shift keeps the order at 9
        cfg = QuadratureConfig(eps_rel=1e-12)
        gv = gamma_negative(170.3, cfg, MethodTag.CAUCHY_SAALSCHUTZ)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.value == pytest.approx(-1.14492799838781e-307, rel=1e-13)
        with mpmath.workdps(30):
            ref = mpmath.gamma(-mpmath.mpf(170.3))
            assert abs(gv.value - ref) <= 10.0 * cfg.eps_rel * abs(ref)

    @pytest.mark.parametrize("z", [3.00001, 7.000001])
    def test_shifted_exponents_next_to_an_integer(self, z):
        # the shift to z + 1 rounds; the polynomial tail's last exponent is
        # -frac and must not inherit that rounding
        cfg = QuadratureConfig(eps_rel=1e-12)
        gv = recip_gamma(z, cfg, MethodTag.CAUCHY_SAALSCHUTZ)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * cfg.eps_rel * abs(ref)

    @pytest.mark.parametrize("z", [1e-150, 3e-162, 1e-200, 1e-300])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_tiny_z_is_right_or_flagged(self, z, eps):
        # the scale -z sin(pi z)/pi is about -z^2, subnormal here: I (about
        # -1/z) must be scaled by sin(pi z)/pi before the factor -z
        cfg = QuadratureConfig(eps_rel=eps)
        gv = recip_gamma(z, cfg, MethodTag.CAUCHY_SAALSCHUTZ)
        if gv.condition_flag is ConditionFlag.OK:
            with mpmath.workdps(30):
                ref = mpmath.rgamma(mpmath.mpf(z))
                assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    @pytest.mark.parametrize("z", [1e-310, 5e-324, -1e-310, -5e-324])
    def test_integral_past_double_precision_raises(self, z):
        # the route integrates Gamma(-|z|), about -1/|z|, which overflows:
        # the result is an error, not inf, nor its reciprocal 0
        with pytest.raises(OverflowError):
            recip_gamma(z, CFG, MethodTag.CAUCHY_SAALSCHUTZ)

    def test_gamma_at_tiny_z(self):
        # Gamma(1e-200) = 1e200 is finite and must not overflow
        gv = gamma(1e-200, CFG, MethodTag.CAUCHY_SAALSCHUTZ)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.value == pytest.approx(1e200, rel=10.0 * CFG.eps_rel)


class TestGammaRatio:
    def test_equal_arguments(self):
        assert gamma_ratio(1.3, 1.3, CFG).value == pytest.approx(1.0, rel=1e-7)

    def test_recurrence_pair(self):
        assert gamma_ratio(2.5, 1.5, CFG).value == pytest.approx(1.5, rel=1e-7)

    def test_four_thirds(self):
        assert gamma_ratio(0.5, 2.5, CFG).value == pytest.approx(4.0 / 3.0, rel=1e-6)

    @pytest.mark.parametrize("A,B", [(100.5, 99.7), (171.5, 170.5), (200.5, 200.0)])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_large_arguments_are_shifted(self, A, B, eps):
        # one m for both: Gamma(200.5) would overflow and the exact 1/199!
        # underflow to 0 without it
        cfg = QuadratureConfig(eps_rel=eps)
        gv = gamma_ratio(A, B, cfg)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpf(A)) / mpmath.gamma(mpmath.mpf(B))
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    @pytest.mark.parametrize(
        "A,B,eps", [(2.5, 120.5, 1e-10), (9.5, 120.5, 1e-10), (3.3, 150.7, 1e-8)]
    )
    def test_denominator_far_above_numerator(self, A, B, eps):
        # 1/Gamma(B - m) is shifted into [8, 9) by its own recurrence
        cfg = QuadratureConfig(eps_rel=eps)
        gv = gamma_ratio(A, B, cfg)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpf(A)) / mpmath.gamma(mpmath.mpf(B))
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    @pytest.mark.parametrize("A", [2.5, 9.5])
    def test_denominator_below_the_double_range(self, A):
        # 1/Gamma(189.5) and 1/Gamma(190.5) underflow to 0; about 1e-346,
        # the ratio does too, and its error is unbounded
        gv = gamma_ratio(A, 190.5, QuadratureConfig(eps_rel=1e-10))
        assert gv.value == 0.0
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gv.quadrature.abs_error_estimate == math.inf

    @pytest.mark.parametrize("A", [0.02, 0.5, 2.5, 5.3, 8.7, 9.9])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_euler_factor(self, A, eps):
        # Gamma(A) alone, as 1/Gamma(1), which is exact, over 1/Gamma(A)
        gv = gamma_ratio(A, 1.0, QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpf(A))
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    def test_shift_to_an_integer_denominator(self):
        assert gamma_ratio(200.5, 200.0, CFG).value == pytest.approx(14.1332995597279, rel=1e-12)

    def test_integer_denominator_fast_path(self):
        gv = gamma_ratio(2.5, 3.0, CFG)
        assert gv.value == pytest.approx(GAMMA_25 / 2.0, rel=1e-7)

    @pytest.mark.parametrize("A,B", [(1.0001, 2.5), (2.005, 1.5)])
    def test_near_integer_numerator_is_not_flagged(self, A, B):
        # 1/Gamma(A) takes sin(pi A) with exact argument reduction, so A
        # next to an integer loses nothing
        gv = gamma_ratio(A, B, CFG)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(A) / mpmath.gamma(B)
            assert abs(gv.value - ref) <= 10.0 * CFG.eps_rel * abs(ref)

    @pytest.mark.parametrize("A", [1e-17, 1e-9, 1e-4, 0.00999, 0.01])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_tiny_numerator(self, A, eps):
        # 1/Gamma(A) is about A; A below 2^-54, where 1 - A rounds to 1, is
        # no harder
        gv = gamma_ratio(A, 1.5, QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpf(A)) / mpmath.gamma(mpmath.mpf(1.5))
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma_ratio(1e-310, 1.5, CFG)
        # 1/Gamma(B) is taken first, so a finite ratio survives a tiny A
        assert gamma_ratio(1e-310, 40.5, CFG).value == pytest.approx(
            float(mpmath.gamma(mpmath.mpf(1e-310)) / mpmath.gamma(40.5)), rel=1e-7
        )

    def test_domain_errors(self):
        with pytest.raises(NonPositiveArgument):
            gamma_ratio(-1.0, 2.5, CFG)
        with pytest.raises(NonPositiveArgument):
            gamma_ratio(2.5, 0.0, CFG)

    def test_method_is_real_axis(self):
        assert gamma_ratio(2.5, 1.7, CFG).method is MethodTag.REAL_AXIS

    @pytest.mark.parametrize(
        "A,B,m", [(2.5, 1.7, 0), (0.005, 3.3, 0), (12.5, 10.3, 2), (150.5, 2.5, 0)]
    )
    def test_evaluations_are_the_two_factors(self, A, B, m):
        # 1/Gamma(A - m) and 1/Gamma(B - m) on the real-axis route, and
        # nothing else
        factors = [recip_gamma(x - m, CFG, MethodTag.REAL_AXIS) for x in (A, B)]
        gv = gamma_ratio(A, B, CFG)
        assert gv.quadrature.evaluations == sum(f.quadrature.evaluations for f in factors)

    def test_integer_arguments_cost_nothing(self):
        # both factors are exact reciprocal factorials
        gv = gamma_ratio(5.0, 3.0, CFG)
        assert gv.value == 12.0
        assert gv.quadrature.evaluations == 0
        assert gv.condition_flag is ConditionFlag.OK

    @pytest.mark.parametrize("A,B,eps", [(173.0, 9.9, 1e-8), (173.0, 9.9, 1e-12), (172.5, 0.001, 1e-8)])
    def test_numerator_past_the_gamma_range(self, A, B, eps):
        # Gamma(A) overflows, the ratio does not: 1/Gamma(A) is subnormal
        gv = gamma_ratio(A, B, QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpf(A)) / mpmath.gamma(mpmath.mpf(B))
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    def test_numerator_just_past_the_normal_range(self):
        # 1/Gamma(172.5) is about 6e-311: subnormal, but right to 3.0e-14
        cfg = QuadratureConfig(eps_rel=1e-12)
        gv = gamma_ratio(172.5, 0.001, cfg)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(172.5) / mpmath.gamma(mpmath.mpf(0.001))
            assert abs(gv.value - ref) <= 10.0 * cfg.eps_rel * abs(ref)

    def test_numerator_deep_in_the_subnormal_range_is_flagged(self):
        # 1/Gamma(175.5) is about 1e-318, a few significant bits
        gv = gamma_ratio(175.5, 1e-300, CFG)
        assert math.isfinite(gv.value) and gv.value > 0.0
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET

    @pytest.mark.parametrize("A,B", [(1e-300, 178.0), (1e-290, 177.0), (1e-300, 175.0)])
    @pytest.mark.parametrize("swap", [False, True], ids=["ab", "ba"])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_subnormal_reciprocal_factorial_is_right_or_flagged(self, A, B, swap, eps):
        if swap:
            A, B = B, A
        gv = gamma_ratio(A, B, QuadratureConfig(eps_rel=eps))
        if gv.condition_flag is ConditionFlag.OK:
            with mpmath.workdps(30):
                ref = mpmath.gamma(mpmath.mpf(A)) / mpmath.gamma(mpmath.mpf(B))
                assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    @pytest.mark.parametrize("A,B", [(51.5, 51.25), (51.75, 53.5)])
    def test_roundings_under_the_tolerance_return_a_value(self, A, B):
        # m = 43: (4 + 86) 2^-53 = 9.99e-15 is still under eps_rel
        gv = gamma_ratio(A, B, QuadratureConfig(eps_rel=1e-14))
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpf(A)) / mpmath.gamma(mpmath.mpf(B))
            assert abs(gv.value - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("A,B", [(52.5, 52.25), (52.75, 60.5)])
    def test_roundings_over_the_tolerance_raise(self, A, B):
        # m = 44: (4 + 88) 2^-53 = 1.02e-14 exceeds eps_rel
        with pytest.raises(RegammaError, match=r"m = 44 .*eps_rel = 1e-14"):
            gamma_ratio(A, B, QuadratureConfig(eps_rel=1e-14))

    def test_huge_arguments_raise_at_once(self):
        # the loop would take minutes for m = 1e9 - 8
        start = time.process_time()
        with pytest.raises(RegammaError, match=r"m = 999999992 "):
            gamma_ratio(1e9 + 0.5, 1e9, QuadratureConfig(eps_rel=1e-8))
        assert time.process_time() - start < 0.5


def _near_integer_denominators(seed=7, count=24):
    """(A, B) with B within 10^U(-12, -2) of an integer: the first four of
    1 (two below, two above), the rest of integers in [2, 30]; A
    log-uniform in [0.02, 40)."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        k = 1 if i < 4 else rng.randint(2, 30)
        side = (-1, 1)[i % 2] if i < 4 else rng.choice((-1, 1))
        B = k + side * 10.0 ** rng.uniform(-12.0, -2.0)
        A = 10.0 ** rng.uniform(math.log10(0.02), math.log10(40.0))
        pairs.append((A, B))
    return pairs


class TestGammaRatioNearIntegerDenominator:
    """1/Gamma(B) on the real axis next to an integer, where frac -> 0 or 1.

    The property test keeps B 1e-2 clear of integers; here B comes within
    1e-12 of them, on both sides.
    """

    @pytest.mark.parametrize("A,B", _near_integer_denominators())
    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
    def test_ok_within_tolerance(self, A, B, eps):
        gv = gamma_ratio(A, B, QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(40):
            ref = mpmath.gamma(mpmath.mpf(A)) / mpmath.gamma(mpmath.mpf(B))
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)


class TestGamma:
    def test_integer_exact(self):
        gv = gamma(5.0)
        assert gv.value == 24.0 and gv.is_exact

    def test_half(self):
        assert gamma(0.5, CFG).value == pytest.approx(SQRT_PI, rel=1e-9)

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma(-2.0)
        with pytest.raises(PoleError):
            gamma(0.0)

    @pytest.mark.parametrize("method", [MethodTag.REAL_AXIS, MethodTag.CAUCHY_SAALSCHUTZ])
    @pytest.mark.parametrize("z", [-171.2, -171.7, -172.5])
    def test_subnormal_below_the_range_of_recip_gamma(self, z, method):
        # Gamma(z) is finite (Gamma(-171.7) is about 1.9e-310), though
        # 1/Gamma(z) overflows: inverting it raised OverflowError
        gv = gamma(z, CFG, method)
        with mpmath.workdps(30):
            ref = mpmath.gamma(z)
            err = abs(gv.value - ref)
            assert err <= gv.quadrature.abs_error_estimate
            if gv.condition_flag is ConditionFlag.OK:
                assert err <= CFG.eps_rel * abs(ref)
        assert gv.value != 0.0

    def test_hankel_route_inverts_recip_gamma(self):
        # the hankel route takes Gamma(z) as 1/(1/Gamma(z)), which overflows
        with pytest.raises(OverflowError):
            gamma(-171.7, CFG, MethodTag.HANKEL)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(172.0)
        # 1/Gamma(175.5) is subnormal, its reciprocal inf
        with pytest.raises(OverflowError):
            gamma(175.5, CFG)


class TestSharedEvaluator:
    """Every real-line value is decomposed once, by its entry point, and the
    entry points that share one evaluator agree bit for bit."""

    ONE_DECOMPOSITION = {
        "gamma_negative(2.5)": lambda: gamma_negative(2.5, CFG),
        "gamma_negative(12.5)": lambda: gamma_negative(12.5, CFG),
        "gamma_negative(2.5, cauchy_saalschutz)":
            lambda: gamma_negative(2.5, CFG, MethodTag.CAUCHY_SAALSCHUTZ),
        "gamma_negative(12.5, cauchy_saalschutz)":
            lambda: gamma_negative(12.5, CFG, MethodTag.CAUCHY_SAALSCHUTZ),
        "recip_gamma_neg_reflection(2.5)": lambda: recip_gamma_neg_reflection(2.5, CFG),
        "recip_gamma_neg_reflection(12.5)": lambda: recip_gamma_neg_reflection(12.5, CFG),
        "recip_gamma(12.5)": lambda: recip_gamma(12.5, CFG),
        "recip_gamma(-12.5)": lambda: recip_gamma(-12.5, CFG),
        "gamma(12.5)": lambda: gamma(12.5, CFG),
    }

    @pytest.mark.parametrize("name", ONE_DECOMPOSITION)
    def test_argument_is_decomposed_once(self, name, monkeypatch):
        calls = []

        def spy(z):
            calls.append(z)
            return decompose(z)

        monkeypatch.setattr(gamma_core, "decompose", spy)
        self.ONE_DECOMPOSITION[name]()
        assert len(calls) <= 1, calls

    @pytest.mark.parametrize("z", [0.5, 8.5, 12.5, 150.5])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_reflection_is_recip_gamma_of_minus_z(self, z, eps):
        cfg = QuadratureConfig(eps_rel=eps)
        assert tuple(recip_gamma_neg_reflection(z, cfg)) == tuple(recip_gamma(-z, cfg))

    @pytest.mark.parametrize("z", [0.5, 8.5, 12.5, 150.5])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize(
        "method", [MethodTag.REAL_AXIS, MethodTag.CAUCHY_SAALSCHUTZ, MethodTag.HANKEL]
    )
    def test_gamma_is_the_reciprocal_of_recip_gamma(self, z, eps, method):
        cfg = QuadratureConfig(eps_rel=eps)
        assert gamma(z, cfg, method).value == 1.0 / recip_gamma(z, cfg, method).value


class TestFunctionalEquations:
    @pytest.mark.parametrize("z", [0.3, 0.7, 1.2, 2.8, 4.6, 7.9])
    def test_recurrence(self, z):
        lhs = recip_gamma(z, CFG).value
        rhs = z * recip_gamma(z + 1.0, CFG).value
        assert abs(lhs - rhs) <= 1e-7 * abs(lhs)

    @pytest.mark.parametrize("z", [0.1, 0.25, 0.4, 0.45])
    def test_reflection_product(self, z):
        g1 = 1.0 / recip_gamma(z, CFG).value
        g2 = 1.0 / recip_gamma(1.0 - z, CFG).value
        assert abs(g1 * g2 * math.sin(math.pi * z) / math.pi - 1.0) <= 1e-6

    @pytest.mark.parametrize("z", [0.3, 1.7, 2.5, 3.9, 6.1])
    def test_cross_representation_equivalence(self, z):
        tags = (MethodTag.REAL_AXIS, MethodTag.POWER_SUBST, MethodTag.LOG_FORM)
        vals = [recip_gamma(z, CFG, tag).value for tag in tags]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) <= 10.0 * CFG.eps_rel * abs(vals[i])


NON_FINITE_ENTRY_POINTS = {
    "decompose": decompose,
    "recip_gamma": recip_gamma,
    "recip_gamma_hankel": lambda x: recip_gamma(x, CFG, MethodTag.HANKEL),
    "gamma": gamma,
    "gamma_negative": gamma_negative,
    "gamma_cauchy_saalschutz": lambda x: gamma_negative(x, None, MethodTag.CAUCHY_SAALSCHUTZ),
    "recip_gamma_neg_reflection": recip_gamma_neg_reflection,
    "gamma_ratio_A": lambda x: gamma_ratio(x, 2.5, CFG),
    "gamma_ratio_B": lambda x: gamma_ratio(2.5, x, CFG),
    "hankel_recip_gamma": hankel_recip_gamma,
    "inverse_laplace_monomial": lambda x: inverse_laplace_monomial(x, 1.0),
}
# 1/Gamma(+inf) is exactly 0, and Gamma(+inf) overflows
DEFINED_AT_PLUS_INF = ("recip_gamma", "recip_gamma_hankel", "gamma")


class TestNonFinite:
    def test_recip_gamma_at_infinity_is_zero(self):
        for method in MethodTag:
            gv = recip_gamma(math.inf, CFG, method)
            assert gv.value == 0.0 and gv.is_exact

    def test_gamma_at_infinity_overflows(self):
        with pytest.raises(OverflowError):
            gamma(math.inf)

    @pytest.mark.parametrize(
        "name,x",
        [
            (name, x)
            for name in NON_FINITE_ENTRY_POINTS
            for x in (math.nan, -math.inf, math.inf)
            if not (x == math.inf and name in DEFINED_AT_PLUS_INF)
        ],
    )
    def test_rejected(self, name, x):
        with pytest.raises(NonFiniteArgument):
            NON_FINITE_ENTRY_POINTS[name](x)


# Entry points whose domain is z > 0 non-integer, and the error each bad
# argument raises (gamma_negative checks its domain before its method)
DOMAIN_ENTRY_POINTS = {
    "gamma_negative": gamma_negative,
    "gamma_cauchy_saalschutz": lambda x: gamma_negative(x, None, MethodTag.CAUCHY_SAALSCHUTZ),
    "recip_gamma_neg_reflection": recip_gamma_neg_reflection,
    "hankel_recip_gamma": hankel_recip_gamma,
    "inverse_laplace": lambda x: inverse_laplace(x, 1.0),
    "gamma_negative_hankel": lambda x: gamma_negative(x, None, MethodTag.HANKEL),
}
# a list, not a dict: -0.0 == 0.0 would share one key
DOMAIN_ERRORS = [(0.0, NonPositiveArgument), (-0.0, NonPositiveArgument),
                 (-1.5, NonPositiveArgument), (3.0, IntegerArgument), (12.0, IntegerArgument)]


class TestDomainErrors:
    @pytest.mark.parametrize("name", DOMAIN_ENTRY_POINTS)
    @pytest.mark.parametrize("x,error", DOMAIN_ERRORS)
    def test_rejected(self, name, x, error):
        with pytest.raises(RegammaError) as info:
            DOMAIN_ENTRY_POINTS[name](x)
        assert type(info.value) is error


class TestRealLineProperty:
    """The real-line routes against mpmath on the whole double range.

    |z| is log-uniform on [1e-2, 171.6) with either sign and at least 1e-2
    from every integer.  A result flagged ok must be within 10 eps_rel of
    1/Gamma(z); another flag is an allowed outcome.  Where 1/Gamma(z)
    exceeds double precision (z next to -171) the call must raise
    OverflowError.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        method=st.sampled_from(_REAL_LINE),
        log_abs_z=st.floats(-2.0, math.log10(171.6), exclude_max=True),
        negative=st.booleans(),
        eps=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    def test_ok_results_meet_tolerance(self, method, log_abs_z, negative, eps):
        z = -(10.0**log_abs_z) if negative else 10.0**log_abs_z
        assume(abs(z - round(z)) >= 1e-2)
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
        if abs(ref) > sys.float_info.max:
            with pytest.raises(OverflowError):
                recip_gamma(z, QuadratureConfig(eps_rel=eps), method)
            return
        gv = recip_gamma(z, QuadratureConfig(eps_rel=eps), method)
        if gv.condition_flag is not ConditionFlag.OK:
            return
        assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)


class TestNearIntegerProperty:
    """The real-line routes against mpmath next to the integers.

    z = m +- 10^U(-12, -2) with m in [0, 30], and either sign of z, so tiny
    |z| too.  Every result must be ok and within 10 eps_rel of 1/Gamma(z).
    """

    @settings(max_examples=200, deadline=None)
    @given(
        method=st.sampled_from(
            [
                MethodTag.REAL_AXIS,
                MethodTag.POWER_SUBST,
                MethodTag.LOG_FORM,
                MethodTag.CAUCHY_SAALSCHUTZ,
            ]
        ),
        m=st.integers(0, 30),
        log_delta=st.floats(-12.0, -2.0),
        below=st.booleans(),
        negative=st.booleans(),
        eps=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    def test_ok_results_meet_tolerance(self, method, m, log_delta, below, negative, eps):
        z = m - 10.0**log_delta if below else m + 10.0**log_delta
        if negative:
            z = -z
        gv = recip_gamma(z, QuadratureConfig(eps_rel=eps), method)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)


class TestGammaRatioProperty:
    """gamma_ratio against mpmath on the benchmark's domain.

    A and B are log-uniform on [1e-2, 50), each at least 1e-2 from every
    integer.  Every result must be ok and within 10 eps_rel of
    Gamma(A)/Gamma(B).
    """

    @settings(max_examples=200, deadline=None)
    @given(
        log_a=st.floats(-2.0, math.log10(50.0), exclude_max=True),
        log_b=st.floats(-2.0, math.log10(50.0), exclude_max=True),
        eps=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    def test_ok_results_meet_tolerance(self, log_a, log_b, eps):
        A, B = 10.0**log_a, 10.0**log_b
        assume(abs(A - round(A)) >= 1e-2 and abs(B - round(B)) >= 1e-2)
        gv = gamma_ratio(A, B, QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(A) / mpmath.gamma(B)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)
