import math

import pytest
from mpmath import mp, mpf

from regamma.errors import PoleError
from regamma.oracle import brute_force_integral, gamma_lanczos


class TestLanczos:
    def test_half(self):
        assert gamma_lanczos(0.5) == pytest.approx(1.7724538509055160273, rel=1e-13)

    def test_five(self):
        assert gamma_lanczos(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_five_halves(self):
        assert gamma_lanczos(2.5) == pytest.approx(1.3293403881791370205, rel=1e-13)

    @pytest.mark.parametrize(
        "z", [0.05, 0.3, 0.9, 1.1, 2.7, 4.2, 7.77, 13.4, 21.0, 29.5]
    )
    def test_accuracy_against_extended_precision(self, z):
        with mp.workdps(30):
            ref = float(mp.gamma(mpf(z)))
        assert abs(gamma_lanczos(z) - ref) / abs(ref) <= 1e-13

    @pytest.mark.parametrize("z", [0.3, 1.7, 5.5])
    def test_self_consistent_recurrence(self, z):
        assert gamma_lanczos(z + 1.0) == pytest.approx(z * gamma_lanczos(z), rel=1e-12)

    def test_reflection_branch(self):
        assert gamma_lanczos(-0.5) == pytest.approx(-3.5449077018110320546, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            gamma_lanczos(z)


class TestBruteForce:
    def test_constant(self):
        assert brute_force_integral(lambda x: 1.0, 0.0, 1.0, 7) == pytest.approx(
            1.0, rel=1e-15
        )

    def test_midpoint_exact_for_linear(self):
        assert brute_force_integral(lambda x: x, 0.0, 2.0, 1) == 2.0

    def test_decaying_exponential(self):
        val = brute_force_integral(math.exp, -10.0, 0.0, 1_000_000)
        assert val == pytest.approx(1.0 - math.exp(-10.0), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            brute_force_integral(lambda x: x, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            brute_force_integral(lambda x: x, 0.0, 1.0, 0)
