"""Independent reference implementations, used only for testing.

Nothing in the evaluation modules imports this file; the acceptance and
cross-validation suites compare against these classical routes precisely
because they share no code with the integral representations.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import PoleError

# Lanczos coefficients for g = 7, 9 terms (Godfrey's widely reproduced set,
# e.g. Numerical Recipes lineage); relative accuracy ~1e-15 on (0, 30).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma_lanczos(z: float) -> float:
    """Gamma(z) by the Lanczos approximation, reflected for z < 0.5."""
    if z <= 0.0 and z == math.floor(z):
        raise PoleError(f"Gamma has a pole at {z!r}")
    if z < 0.5:
        return math.pi / (math.sin(math.pi * z) * gamma_lanczos(1.0 - z))
    x = z - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (x + 0.5) * math.exp(-t) * acc


def brute_force_integral(
    f: Callable[[float], float], a: float, b: float, panels: int
) -> float:
    """Composite midpoint rule; O((b-a)^2 / panels^2) for smooth f."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if panels < 1:
        raise ValueError(f"need panels >= 1, got {panels}")
    h = (b - a) / panels
    return h * math.fsum(f(a + (i + 0.5) * h) for i in range(panels))
