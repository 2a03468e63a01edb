"""Machine-speed calibration of the benchmark's timings.

The shared virtual machines this benchmark runs on change speed by tens of
percent over seconds to minutes (a fixed pure-Python loop shows it, in
thread CPU time as well as in wall time).  A run that only timed regamma
would report that drift as a change of the program.  So the worker
interleaves the timed calls with a fixed unit of work, ``unit()``, that is
frozen here and never changes with the program, and every time is reported
at the *reference speed*: the speed at which one unit takes ``REF_UNIT_NS``
of thread CPU time.  A time t measured while a unit took u becomes
``t * REF_UNIT_NS / u``.

The unit is the same kind of work regamma does: 15-point Gauss-Kronrod
panels of a real and a complex integrand, summed in pure Python with
``math`` and ``cmath`` calls.  This module imports neither regamma nor
mpmath.
"""

from __future__ import annotations

import cmath
import math
import time

# Thread CPU time of one unit at the reference speed (close to its median
# on a 2-vCPU x86-64 cloud VM at the time the benchmark was written).
REF_UNIT_NS = 900_000.0

_NODES = (
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
)
_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
)
_PANELS = 40


def _panel(f, a: float, b: float):
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = _WEIGHTS[-1] * f(mid)
    for x, w in zip(_NODES[:-1], _WEIGHTS[:-1]):
        total += w * (f(mid - half * x) + f(mid + half * x))
    return half * total


def _real(x: float) -> float:
    return math.exp(-x) * x ** 1.5 / (1.0 + math.log1p(x))


def _complex(r: float) -> complex:
    w = r * cmath.exp(2.4j)
    return cmath.exp(w) * w ** -0.75


def unit() -> float:
    """One fixed unit of Python numeric work; returns a checksum."""
    total = 0.0
    for i in range(_PANELS):
        a, b = 0.5 * i, 0.5 * (i + 1)
        total += _panel(_real, a, b)
        total += abs(_panel(_complex, a + 0.25, b + 0.25))
    return total


def unit_ns(repeats: int) -> list[int]:
    """Thread CPU time of each of `repeats` units."""
    clock = time.thread_time_ns
    samples = []
    for _ in range(repeats):
        t0 = clock()
        unit()
        samples.append(clock() - t0)
    return samples


def speed(samples: list[int]) -> float:
    """Factor that takes a time measured alongside `samples` to the reference speed."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return REF_UNIT_NS / median
