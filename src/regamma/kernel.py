"""Numerically stable building blocks of the regularized integrands.

The central quantity is the exponential remainder e^x - e_{n-1}(x), where
e_m denotes the degree-m Taylor polynomial of the exponential.  Near x = 0
the subtraction cancels to order n, so the remainder is summed as the tail
series sum_{k>=n} x^k/k! instead; away from 0 the direct difference is
cheaper and exact enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IntegerArgument, NonPositiveArgument, require_finite

# 2^-53, the stopping threshold for tail-series accumulation
_EPS = 2.0 ** -53
_MAX_TERMS = 500


@dataclass(frozen=True)
class ArgDecomposition:
    """A positive non-integer argument split as z = n + frac, 0 < frac < 1.

    decompose builds those.  The one other use is n = 0 with frac = z < 1:
    the polynomial is then empty and I(z) is Euler's integral for
    Gamma(1 - z).
    """

    z: float
    n: int
    frac: float


def decompose(z: float) -> ArgDecomposition:
    """Split z > 0 into integer part n = floor(z) and fractional part.

    Integer detection is exact (floor(z) == z); no epsilon snapping.
    Near-integer conditioning is reported downstream by the quadrature
    diagnostics rather than hidden by rounding here.
    """
    require_finite(z)
    if not z > 0.0:
        raise NonPositiveArgument(f"argument must be > 0, got {z!r}")
    n = math.floor(z)
    if n == z:
        raise IntegerArgument(f"argument must not be an integer, got {z!r}")
    return ArgDecomposition(z=z, n=n, frac=z - n)


def truncated_exp(x: float, n: int) -> float:
    """Degree-n Taylor polynomial of e^x; returns 0 for n = -1."""
    if n < -1:
        raise ValueError(f"order must be >= -1, got {n}")
    if n == -1:
        return 0.0
    term = 1.0
    total = 1.0
    for k in range(1, n + 1):
        term *= x / k
        total += term
    return total


def sinpi(z: float) -> float:
    """sin(pi z) with exact argument reduction.

    r = z - round(z) is exact, so the result keeps full relative accuracy
    next to the integers, where sin(pi * z) loses it to the rounding of
    pi * z.
    """
    k = round(z)
    s = math.sin(math.pi * (z - k))
    return -s if k % 2 else s


def _remainder_series(x: float, n: int) -> float:
    # sum_{k=n}^inf x^k/k!, the Taylor tail of e^x past degree n-1
    term = 1.0
    for k in range(1, n + 1):
        term *= x / k
    total = term
    k = n
    for _ in range(_MAX_TERMS):
        k += 1
        term *= x / k
        total += term
        if abs(term) < _EPS * abs(total):
            break
    return total


def _use_series(x: float, n: int) -> bool:
    return abs(x) <= max(1.0, 0.5 * n)


def exp_remainder(x: float, n: int) -> float:
    """e^x - e_{n-1}(x), accurate near machine precision for all x.

    For small |x| the direct difference loses roughly n digits to
    cancellation, so the tail series is summed instead.  math.exp raises
    OverflowError if the direct path is required and e^x overflows.
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if n == 0:
        return math.exp(x)
    if x == 0.0:
        return 0.0
    if _use_series(x, n):
        return _remainder_series(x, n)
    return math.exp(x) - truncated_exp(x, n - 1)


def kernel_ratio(x: float, n: int) -> float:
    """(e^{-x} - e_{n-1}(-x)) / x^n for x > 0, stable as x -> 0.

    This is the smooth factor left after pulling the algebraic x^{-frac}
    singularity out of the regularized integrand; its limit at 0 is
    (-1)^n / n!.  For small x it is summed as (-1)^n sum_{j>=0} (-x)^j/(n+j)!
    so that neither factor under- or overflows.
    """
    if n == 0:
        return math.exp(-x)
    if _use_series(x, n):
        term = (-1.0) ** n / math.factorial(n)
        total = term
        j = 0
        for _ in range(_MAX_TERMS):
            j += 1
            term *= -x / (n + j)
            total += term
            if abs(term) < _EPS * abs(total):
                break
        return total
    return exp_remainder(-x, n) / x**n


def regularized_integrand(x: float, arg: ArgDecomposition) -> float:
    """The semi-infinite integrand (e^{-x} - e_{n-1}(-x)) / x^z at x > 0."""
    return exp_remainder(-x, arg.n) * math.exp(-arg.z * math.log(x))
