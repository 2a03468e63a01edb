import math
import time

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regamma.errors import IntegerArgument, NonFiniteArgument, NonPositiveArgument, PoleError
from regamma.gamma_core import (
    MethodTag,
    gamma,
    gamma_cauchy_saalschutz,
    gamma_negative,
    gamma_ratio,
    recip_gamma,
    recip_gamma_neg_reflection,
)
from regamma.hankel import hankel_recip_gamma, inverse_laplace_monomial
from regamma.kernel import decompose
from regamma.oracle import gamma_lanczos
from regamma.quadrature import ConditionFlag, QuadratureConfig, near_integer_amplified

CFG = QuadratureConfig()

SQRT_PI = 1.7724538509055160273
INV_SQRT_PI = 0.56418958354775628695
GAMMA_25 = 1.3293403881791370205


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

    def test_cauchy_saalschutz_dispatch(self):
        gv = recip_gamma(0.5, CFG, MethodTag.CAUCHY_SAALSCHUTZ)
        assert gv.value == pytest.approx(INV_SQRT_PI, rel=1e-8)

    def test_large_integer_underflows_to_zero(self):
        assert recip_gamma(500.0).value == 0.0

    def test_huge_integers_return_zero_at_once(self):
        for m in range(1, 201):
            assert recip_gamma(float(m)).value == 1 / math.factorial(m - 1)
        start = time.perf_counter()
        assert recip_gamma(1e7).value == 0.0
        assert time.perf_counter() - start < 0.5

    def test_near_integer_flagged(self):
        gv = recip_gamma(2.0 + 1e-3, CFG)
        assert gv.condition_flag is ConditionFlag.NEAR_INTEGER_AMPLIFICATION
        assert gv.value == pytest.approx(1.0 / gamma_lanczos(2.0 + 1e-3), rel=1e-8)


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
        assert gv.value == pytest.approx(1.0 / gamma_lanczos(z), rel=1e-4)
        assert gv.condition_flag is ConditionFlag.NEAR_INTEGER_AMPLIFICATION


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


class TestCauchySaalschutz:
    @pytest.mark.parametrize(
        "z,expected",
        [(0.5, -3.5449077018110320546), (1.5, 2.3632718012073547031)],
    )
    def test_reference_values(self, z, expected):
        assert gamma_cauchy_saalschutz(z, CFG).value == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("z", [0.4, 1.6, 2.2, 3.7, 4.8])
    def test_matches_integration_by_parts_partner(self, z):
        a = gamma_cauchy_saalschutz(z, CFG).value
        b = gamma_negative(z, CFG).value
        assert abs(a - b) / abs(b) <= 10.0 * CFG.eps_rel


class TestGammaRatio:
    def test_equal_arguments(self):
        assert gamma_ratio(1.3, 1.3, CFG).value == pytest.approx(1.0, rel=1e-7)

    def test_recurrence_pair(self):
        assert gamma_ratio(2.5, 1.5, CFG).value == pytest.approx(1.5, rel=1e-7)

    def test_four_thirds(self):
        assert gamma_ratio(0.5, 2.5, CFG).value == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_integer_denominator_fast_path(self):
        gv = gamma_ratio(2.5, 3.0, CFG)
        assert gv.value == pytest.approx(GAMMA_25 / 2.0, rel=1e-7)

    @pytest.mark.parametrize("A,B", [(1.0001, 2.5), (2.005, 1.5)])
    def test_near_integer_numerator_is_not_flagged(self, A, B):
        # no sin(pi z)/pi product follows Gamma(A), so A next to an integer
        # loses nothing
        gv = gamma_ratio(A, B, CFG)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.gamma(A) / mpmath.gamma(B)
            assert abs(gv.value - ref) <= 10.0 * CFG.eps_rel * abs(ref)

    @pytest.mark.parametrize("A", [1e-17, 1e-9, 1e-4, 0.00999, 0.01])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_tiny_numerator(self, A, eps):
        # Gamma(A) switches to Gamma(1 + A)/A below A = 0.01; both sides of
        # the switch, and A below 2^-54, where 1 - A rounds to 1
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

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(172.0)


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
    "gamma_cauchy_saalschutz": gamma_cauchy_saalschutz,
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


class TestRealLineProperty:
    """The real-line routes against mpmath on the domain the benchmark covers.

    |z| is log-uniform on [1e-2, 50) with either sign and at least 1e-2 from
    every integer.  A result flagged ok must be within 10 eps_rel of
    1/Gamma(z); another flag is an allowed outcome.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        method=st.sampled_from(
            [
                MethodTag.REAL_AXIS,
                MethodTag.POWER_SUBST,
                MethodTag.LOG_FORM,
                MethodTag.CAUCHY_SAALSCHUTZ,
            ]
        ),
        log_abs_z=st.floats(-2.0, math.log10(50.0), exclude_max=True),
        negative=st.booleans(),
        eps=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    def test_ok_results_meet_tolerance(self, method, log_abs_z, negative, eps):
        z = -(10.0**log_abs_z) if negative else 10.0**log_abs_z
        assume(abs(z - round(z)) >= 1e-2)
        gv = recip_gamma(z, QuadratureConfig(eps_rel=eps), method)
        if gv.condition_flag is not ConditionFlag.OK:
            return
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)


class TestGammaRatioProperty:
    """gamma_ratio against mpmath on the benchmark's domain.

    A and B are log-uniform on [1e-2, 50), each at least 1e-2 from every
    integer.  A result flagged ok must be within 10 eps_rel of
    Gamma(A)/Gamma(B).  Gamma(A) never carries near_integer_amplification;
    1/Gamma(B) carries it only where its own sin(pi B)/pi product does,
    which at eps 1e-8 reaches just past 1e-2 from an integer.
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
        if gv.condition_flag is ConditionFlag.NEAR_INTEGER_AMPLIFICATION:
            assert near_integer_amplified(B, eps)
        if gv.condition_flag is not ConditionFlag.OK:
            return
        with mpmath.workdps(30):
            ref = mpmath.gamma(A) / mpmath.gamma(B)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)
