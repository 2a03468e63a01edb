"""Numerically stable building blocks of the regularized integrands.

The central quantity is the exponential remainder e^x - e_{n-1}(x), where
e_m denotes the degree-m Taylor polynomial of the exponential.  Near x = 0
the subtraction cancels to order n, so the remainder is summed instead, as
x^n/n! times the kernel's one series n! sum_{j>=0} x^j/(n+j)!, which starts
at 1 (hankel takes it at complex tau, tau^n/n! going into its power of
tau); away from 0 the direct difference is cheaper and exact enough.  Its
e_{n-1} (at complex tau in hankel too) is Horner's rule over a table of
1/k!, k < n, each rounded once, so within gamma_{2n-1} e_{n-1}(|x|),
gamma_m = m u/(1 - m u), u = 2^-53 (Higham, 2nd ed., section 5.1).

The series is Horner's rule over a table of its coefficients 1/(n+1)_j,
(n+1)_j = (n+1)(n+2)...(n+j), one table per order, built on first use and
grown only as far as |x| needs.  The term count is fixed before the loop:
beside the coefficients the table holds, for each count K, the largest |x|
at which the tail past K terms is at most _EPS/4 times _SERIES_FLOOR, a
lower bound on |S| over the series' radius |x| <= max(1, n/2), so K is a
bisection of |x| into those radii.  With positive coefficients and terms
that fall at least by half per step there, Horner's rounding is a few
units of _EPS relative to S(|x|) <= 2 (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., section 5.1), which is at most 6 |S|;
measured against mpmath over n = 1...170 within the radius, real and
complex, it stayed within 0.9 * 2^-52 of |S|.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .errors import IntegerArgument, NonPositiveArgument, require_finite

# 2^-53, the unit roundoff of a double
_EPS = 2.0 ** -53
# The most terms of the series a table holds, whatever |x|.
_MAX_TERMS = 500
# A lower bound on |S|, S = n! sum_{j>=0} x^j/(n+j)!, over |x| <= max(1, n/2).
# With q = |x|/(n+1) <= 1/2, the series is within S(|x|) - 1/(1 - q) of the
# geometric 1/(1 - x/(n+1)), whose modulus is at least 1/(1 + q); so |S| >=
# 1/(1 + q) - 1/(1 - q) + S(|x|), least at the radius, which gives 0.385 at
# n = 1 and at least 0.609 from n = 2 up (evaluated to n = 1e5); at n = 0,
# where S = e^x, |S| >= e^{-1}.
_SERIES_FLOOR = 1.0 / 3.0
_LOG_TAIL_GOAL = math.log(_EPS / 4.0 * _SERIES_FLOOR)
# The last order with a table of 1/k!: beyond it 1/(n-1)! is subnormal.  The
# real line's series stops at 170, where n! overflows, and the contour at
# this one, so every table of the series built is kept too, one per order.
_KEPT_ORDERS = 171
_TABLES: dict[int, tuple[list[float], list[float]]] = {}
_TAYLOR: dict[int, tuple[float, ...]] = {}  # e_{n-1}'s coefficients per order n


class ArgDecomposition(NamedTuple):
    """A positive non-integer argument split as z = n + frac, 0 < frac < 1,
    as an immutable named tuple.

    decompose builds those.  The one other use is the raised order of
    gamma_core's cauchy_saalschutz route: the same frac at order n + 1,
    with z = w + 1, which may round; so the exponents of the integral are
    built from n and frac, never from z.
    """

    z: float
    n: int
    frac: float


def decompose(z: float) -> ArgDecomposition:
    """Split z > 0 into integer part n = floor(z) and fractional part.

    Integer detection is exact (floor(z) == z); no epsilon snapping.
    frac = z - n is exact, so a z next to an integer loses nothing here.
    """
    require_finite(z)
    if not z > 0.0:
        raise NonPositiveArgument(f"argument must be > 0, got {z!r}")
    n = math.floor(z)
    if n == z:
        raise IntegerArgument(f"argument must not be an integer, got {z!r}")
    return ArgDecomposition(z=z, n=n, frac=z - n)


def sinpi(z: float) -> float:
    """sin(pi z) with exact argument reduction.

    r = z - round(z) is exact, so the result keeps full relative accuracy
    next to the integers, where sin(pi * z) loses it to the rounding of
    pi * z.
    """
    k = round(z)
    s = math.sin(math.pi * (z - k))
    return -s if k % 2 else s


def _taylor(n: int) -> tuple[float, ...]:
    # 1/k!, k = n-1 down to 0, by int/int true division, so rounded once;
    # past _KEPT_ORDERS, 1/(n-1)! is below the normal range
    if n > _KEPT_ORDERS:
        raise OverflowError(f"1/(n-1)! is below the normal range at order {n}")
    table = _TAYLOR[n] = tuple(1 / math.factorial(k) for k in range(n - 1, -1, -1))
    return table


def _series_table(n: int, rho: float) -> tuple[list[float], list[float]]:
    # The order's table, grown until its last radius reaches rho.  With
    # c_K = 1/(n+1)_K, the tail past K terms at |x| <= rho is at most
    # c_K rho^K / (1 - rho/(n+K+1)); radii[K-1] solves that for rho at the
    # goal by one step from rho0 = (goal/c_K)^{1/K}, which the factor
    # 1 - rho/(n+K+1) < 1 puts above the root, so the step lands below it.
    coeffs, radii = table = _TABLES.setdefault(n, ([1.0], []))
    while (not radii or radii[-1] < rho) and len(coeffs) < _MAX_TERMS:
        k = len(coeffs)
        coeffs.append(coeffs[-1] / (n + k))
        log_ratio = _LOG_TAIL_GOAL + math.lgamma(n + k + 1) - math.lgamma(n + 1)
        rho0 = math.exp(log_ratio / k)
        radii.append(math.exp((log_ratio + math.log1p(-rho0 / (n + k + 1))) / k))
    return table


def _ratio_series(x: float, n: int) -> float:
    # n! sum_{j>=0} x^j/(n+j)!, which is (e^x - e_{n-1}(x)) n!/x^n and 1
    # at x = 0; hankel takes it at complex x.  Horner's rule over the K
    # coefficients 1/(n+1)_j, j < K, K the least count whose radius holds
    # |x| (see the module docstring); past the last radius the table grows.
    rho = abs(x)
    table = _TABLES.get(n)
    if table is None or table[1][-1] < rho:
        table = _series_table(n, rho)
    total = 0.0
    for c in table[0][bisect_left(table[1], rho)::-1]:
        total = total * x + c
    return total


def exp_remainder(x: float, n: int) -> float:
    """e^x - e_{n-1}(x), accurate near machine precision for all x.

    For small |x| the direct difference loses roughly n digits to
    cancellation, so x^n/n! times the series is taken instead.  The direct
    path's e_{n-1}(x) is within gamma_{2n-1} e_{n-1}(|x|) (see the module
    docstring), and e^x and the difference round once each.  OverflowError
    is raised where e^x overflows or 1/(n-1)! underflows (n past 171) on
    the direct path, and where n! or x^n does on the series path (n past
    170, or about 160 at |x| near n/2).
    """
    if n <= 0:
        if n < 0:
            raise ValueError(f"order must be >= 0, got {n}")
        return math.exp(x)
    if x == 0.0:
        return 0.0
    # the series radius max(1, n/2), as two comparisons: with a builtin max
    # call the test took about 200 ns against 75 ns (timeit, CPython 3.11),
    # and it runs at every kernel node (hankel.ray_kernel's too)
    r = abs(x)
    if r <= 1.0 or r <= 0.5 * n:
        return x**n / math.factorial(n) * _ratio_series(x, n)
    total = 0.0
    for c in _TAYLOR.get(n) or _taylor(n):
        total = total * x + c
    return math.exp(x) - total


def kernel_ratio(x: float, n: int) -> float:
    """(e^{-x} - e_{n-1}(-x)) / x^n for x > 0, stable as x -> 0.

    This is the smooth factor left after pulling the algebraic x^{-frac}
    singularity out of the regularized integrand; its limit at 0 is
    (-1)^n / n!.  For small x it is (-1)^n/n! times the series at -x, so
    that neither factor under- or overflows.
    """
    if n == 0:
        return math.exp(-x)
    r = abs(x)
    if r <= 1.0 or r <= 0.5 * n:  # the series radius, as in exp_remainder
        return (-1.0) ** n / math.factorial(n) * _ratio_series(-x, n)
    return exp_remainder(-x, n) / x**n
