import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

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
        # within the series radius, x^n/n! times the series, bit for bit
        radius = max(1.0, 0.5 * n)
        for x in [-40.0 + 0.1 * k for k in range(801)] + [-radius, radius]:
            if abs(x) <= radius:
                assert exp_remainder(x, n) == x**n / math.factorial(n) * _ratio_series(x, n)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_direct_path_within_its_bound(self, n):
        # past the series radius, Horner's rule over the rounded 1/k! is
        # within gamma_{2n-1} e_{n-1}(|x|) of e_{n-1}(x); exp and the
        # difference add a rounding each (exp to 1 ulp, at most 2u e^x)
        u = 2.0**-53
        gamma = (2 * n - 1) * u / (1 - (2 * n - 1) * u)
        radius = max(1.0, 0.5 * n)
        edges = [s * math.nextafter(radius, 41.0) for s in (-1.0, 1.0)]
        with mp.workdps(40):
            for x in [-40.0 + 0.1 * k for k in range(801)] + edges:
                if abs(x) <= radius:
                    continue
                xm = mpf(x)
                poly, terms, term = 0, 0, mpf(1)
                for k in range(1, n + 1):
                    poly, terms, term = poly + term, terms + abs(term), term * xm / k
                ref = mp.exp(xm) - poly
                bound = (gamma * terms + 2 * u * mp.exp(xm)) * (1 + u) + u * abs(ref)
                assert abs(exp_remainder(x, n) - ref) <= bound, x

    def test_direct_path_raises_past_the_kept_orders(self):
        # from order 172, 1/(n-1)! is below the normal range
        assert math.isfinite(exp_remainder(-100.0, 171))
        with pytest.raises(OverflowError):
            exp_remainder(-100.0, 172)

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

    @pytest.mark.parametrize("n", [1, 60, 170, 171])
    def test_every_order_keeps_its_table(self, n):
        # the package takes the series up to order 171, where the paper's
        # contour stops, so an order's table is built once and grown in place
        assert _ratio_series(0.0, n) == 1.0
        table = kernel._TABLES[n]
        _ratio_series(max(1.0, 0.5 * n), n)
        assert kernel._TABLES[n] is table and table[1][-1] >= max(1.0, 0.5 * n)


class TestTaylorTable:
    """The per-order table of 1/k!, k < n, highest first, over which both
    direct paths (exp_remainder and hankel.ray_kernel) form e_{n-1}."""

    def test_holds_the_correctly_rounded_inverse_factorials(self):
        for n in range(1, kernel._KEPT_ORDERS + 1):
            table = kernel._TAYLOR.get(n) or kernel._taylor(n)
            assert len(table) == n
            for k, c in zip(range(n - 1, -1, -1), table):
                exact = Fraction(1, math.factorial(k))
                miss = abs(Fraction(c) - exact)
                for neighbour in (math.nextafter(c, 0.0), math.nextafter(c, 1.0)):
                    assert miss <= abs(Fraction(neighbour) - exact), (n, k)

    def test_import_builds_no_table(self):
        # a table built at import costs every process its set-up time
        src = os.path.dirname(os.path.dirname(os.path.abspath(kernel.__file__)))
        code = "import regamma, regamma.kernel as k; print(len(k._TAYLOR), len(k._TABLES))"
        out = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=60).stdout
        assert out.split() == ["0", "0"]

    def test_public_functions(self):
        # a tracer that wraps every public function of kernel must count
        # the entry points alone, not the table's builder
        public = {name for name, value in vars(kernel).items()
                  if callable(value) and not isinstance(value, type)
                  and getattr(value, "__module__", None) == kernel.__name__
                  and not name.startswith("_")}
        assert public == {"decompose", "sinpi", "exp_remainder", "kernel_ratio"}
