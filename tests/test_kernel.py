import cmath
import math
import random
import sys

import pytest
from mpmath import hyp1f1, mp, mpf

from regamma import kernel
from regamma.errors import IntegerArgument, NonPositiveArgument
from regamma.kernel import (
    _ratio_series,
    decompose,
    exp_remainder,
    kernel_ratio,
    sinpi,
    truncated_exp,
)

def mp_remainder(x: float, n: int) -> mpf:
    """Extended-precision e^x - e_{n-1}(x) by direct subtraction."""
    with mp.workdps(60):
        xm = mpf(x)
        return mp.exp(xm) - sum(xm**k / mp.factorial(k) for k in range(n))


class TestDecompose:
    def test_halves(self):
        d = decompose(2.5)
        assert d.n == 2 and d.frac == 0.5 and d.z == 2.5

    def test_below_one(self):
        d = decompose(0.25)
        assert d.n == 0 and d.frac == 0.25

    def test_integer_rejected(self):
        with pytest.raises(IntegerArgument):
            decompose(3.0)

    @pytest.mark.parametrize("z", [0.0, -0.5, -4.0])
    def test_non_positive_rejected(self, z):
        with pytest.raises(NonPositiveArgument):
            decompose(z)

    @pytest.mark.parametrize("z", [0.1, 0.9999, 1.0001, 7.3, 123.456])
    def test_roundtrip(self, z):
        d = decompose(z)
        assert d.n + d.frac == d.z
        assert 0.0 < d.frac < 1.0
        assert d.n >= 0


class TestTruncatedExp:
    def test_degree_two(self):
        assert truncated_exp(1.0, 2) == 2.5

    def test_degree_one(self):
        assert truncated_exp(-2.0, 1) == -1.0

    def test_order_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            truncated_exp(1.0, -2)

    def test_empty_convention(self):
        assert truncated_exp(7.3, -1) == 0.0

    @pytest.mark.parametrize("x", [-3.0, -0.5, 0.2, 4.0])
    def test_approaches_exp(self, x):
        assert truncated_exp(x, 60) == pytest.approx(math.exp(x), rel=1e-14)


class TestSinPi:
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 7, 2**60])
    def test_exact_zeros(self, k):
        assert sinpi(float(k)) == 0.0

    @pytest.mark.parametrize("z", [0.5, 1.5, -0.5, 2.25, -7.75, 3.1])
    def test_matches_sin(self, z):
        assert sinpi(z) == pytest.approx(math.sin(math.pi * z), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("z", [1.0 + 1e-12, 4.0 - 3e-11, -2.0 + 1e-9])
    def test_relative_accuracy_near_integers(self, z):
        with mp.workdps(40):
            ref = mp.sinpi(mpf(z))
        assert abs(sinpi(z) - ref) / abs(ref) <= 4e-16


class TestExpRemainder:
    def test_order_zero_is_exp(self):
        for x in (-3.0, 0.7, 10.0):
            assert exp_remainder(x, 0) == math.exp(x)

    def test_negative_order_rejected(self):
        # the order is checked before x = 0 returns 0
        for x in (1.0, 0.0):
            with pytest.raises(ValueError):
                exp_remainder(x, -1)

    def test_zero_argument(self):
        for n in (1, 2, 7):
            assert exp_remainder(0.0, n) == 0.0

    @pytest.mark.parametrize("n", range(1, 31))
    def test_equals_its_reference(self, n):
        # exp_remainder sums e_{n-1}(x) in place: past the series radius it
        # must be e^x - truncated_exp(x, n - 1) bit for bit, and x^n/n! times
        # the series within it
        radius = max(1.0, 0.5 * n)
        edges = [s * r for r in (radius, math.nextafter(radius, 41.0)) for s in (-1.0, 1.0)]
        for x in [-40.0 + 0.1 * k for k in range(801)] + edges:
            if abs(x) > radius:
                assert exp_remainder(x, n) == math.exp(x) - truncated_exp(x, n - 1)
            else:
                assert exp_remainder(x, n) == x**n / math.factorial(n) * _ratio_series(x, n)

    def test_frozen_value(self):
        # e^{-0.5} - (1 - 0.5), extended-precision oracle
        assert exp_remainder(-0.5, 2) == pytest.approx(
            0.10653065971263342360, rel=1e-14
        )

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "x", [-4.0, -3.0, -2.0, -1.0, -0.5, -0.25, -0.1, -0.01]
    )
    def test_series_against_extended_precision(self, x, n):
        # the one series, n! sum_{j>=0} x^j/(n+j)!, is the remainder over x^n/n!
        ours = _ratio_series(x, n)
        with mp.workdps(30):
            ref = mp_remainder(x, n) * mp.factorial(n) / mpf(x) ** n
        assert abs(ours - ref) / abs(ref) <= 1e-13

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_leading_order_limit(self, n, k):
        # x^{-n} (e^x - e_{n-1}(x)) -> 1/n! as x -> 0
        x = 10.0**-k
        scaled = exp_remainder(x, n) * x**-n * math.factorial(n)
        assert abs(scaled - 1.0) <= 10.0 * x

    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derivative_recurrence(self, x, n):
        # d/dx (e^x - e_n(x)) = e^x - e_{n-1}(x), by central differences
        h = 1e-6
        fd = (exp_remainder(x + h, n + 1) - exp_remainder(x - h, n + 1)) / (2 * h)
        assert fd == pytest.approx(exp_remainder(x, n), rel=1e-6)


class TestKernelRatio:
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 7])
    def test_origin_limit(self, n):
        assert kernel_ratio(1e-9, n) == pytest.approx(
            (-1.0) ** n / math.factorial(n), rel=1e-8
        )

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("x", [0.3, 1.1, 2.7, 9.0])
    def test_matches_remainder(self, x, n):
        ref = mp_remainder(-x, n) / mpf(x) ** n
        assert kernel_ratio(x, n) == pytest.approx(float(ref), rel=1e-12)


class TestRatioSeries:
    """n! sum_{j>=0} x^j/(n+j)!, the kernel's one series, which is
    1F1(1; n+1; x): Horner's rule at a term count fixed from |x|."""

    @pytest.mark.parametrize("n", range(1, 171))
    def test_within_its_radius(self, n):
        # measured over 30 points per order: at most 0.9 eps
        rng = random.Random(n)
        radius = max(1.0, 0.5 * n)
        rho = radius * rng.random()
        points = [radius, -radius, 1j * radius, cmath.rect(radius, rng.uniform(-math.pi, math.pi)),
                  -rho, cmath.rect(rho, rng.uniform(-math.pi, math.pi))]
        for x in points:
            with mp.workdps(40):
                ref = hyp1f1(1, n + 1, x)
            assert abs(_ratio_series(x, n) - ref) <= 2 * sys.float_info.epsilon * abs(ref)

    @pytest.mark.parametrize("n", range(1, 172))
    def test_floor_bounds_the_series(self, n):
        # |S| >= 1/(1 + q) - 1/(1 - q) + S(rho) on |x| <= rho = max(1, n/2),
        # q = rho/(n+1): the bound the term count is taken against
        rho = max(1.0, 0.5 * n)
        q = mpf(rho) / (n + 1)
        with mp.workdps(30):
            bound = 1 / (1 + q) - 1 / (1 - q) + hyp1f1(1, n + 1, rho)
        assert kernel._SERIES_FLOOR <= bound

    @pytest.mark.parametrize("n", [1, 2, 9, 60, 170])
    def test_radii_bound_the_tail(self, n):
        # at radii[K-1] the tail past K terms, c_K rho^K / (1 - rho/(n+K+1)),
        # is within the goal up to the rounding of the radius, and the radii
        # grow with K
        _ratio_series(max(1.0, 0.5 * n), n)
        coeffs, radii = kernel._TABLES[n]
        goal = math.exp(kernel._LOG_TAIL_GOAL)
        assert radii == sorted(radii) and radii[-1] >= max(1.0, 0.5 * n)
        for k, rho in enumerate(radii, start=1):
            with mp.workdps(30):
                tail = mpf(coeffs[k]) * mpf(rho) ** k / (1 - mpf(rho) / (n + k + 1))
            assert tail <= goal * (1 + 1e-12)

    def test_tables_kept_per_order_only_below_overflow(self):
        # beyond n = 171 only the contour takes the series, and keeps no table
        assert _ratio_series(0.0, 300) == 1.0
        assert 300 not in kernel._TABLES
        assert all(n <= kernel._KEPT_ORDERS for n in kernel._TABLES)
