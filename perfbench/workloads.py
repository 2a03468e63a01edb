"""Seeded input streams for the benchmark workloads.

Each workload is an endless, deterministic stream of calls drawn from
``random.Random(seed)``; the same seed always yields the same calls in the
same order.  Draws are stratified in small blocks (exact mixture shares per
block, positions shuffled) so that two seeds give runs of the same shape
and the run-to-run spread comes from the program, not from the luck of the
draw.  This module imports neither regamma nor mpmath: the worker process
uses it to make inputs and the parent uses it to rebuild them for the
reference check.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Iterator, NamedTuple


class Call(NamedTuple):
    """One public call: entry kind, positional arguments and eps_rel."""

    kind: str
    args: tuple
    eps: float


# MethodTag route each call kind exercises; None for contour calls that
# bypass the MethodTag dispatch.
ROUTE = {
    "fig1": "real_axis",
    "fig3": "real_axis",
    "fig4": "real_axis",
    "real_axis": "real_axis",
    "power_subst": "power_subst",
    "log_form": "log_form",
    "cauchy_saalschutz": "cauchy_saalschutz",
    "hankel": "hankel",
    "gamma_ratio": "gamma_ratio",
    "hankel_recip_gamma": None,
    "inverse_laplace_monomial": None,
}
ROUTES = ("real_axis", "power_subst", "log_form", "cauchy_saalschutz", "hankel", "gamma_ratio")

# fig presets of the CLI: (kind, upper end of the grid); every grid steps 0.05
_FIGURES = (("fig1", 6.0), ("fig3", 10.0), ("fig4", 5.0))
_STEP = 0.05
_MIN_INTEGER_GAP = 1e-3

_TIGHT_ROUTES = ("real_axis", "power_subst", "log_form", "cauchy_saalschutz", "gamma_ratio")
# Every tight_wide argument keeps this distance from every integer, 0
# included; the near-integer draws lie between it and 10^-1.
_TIGHT_GAP = 1e-2
_WIDE_LOG_RANGE = (math.log(_TIGHT_GAP), math.log(50.0))
_NEAR_LOG10_RANGE = (math.log10(_TIGHT_GAP), -1.0)
_TIGHT_STRATA = 20  # per route and block: 12 wide, 8 near-integer

_CONTOUR_KINDS = ("hankel", "hankel_recip_gamma", "inverse_laplace_monomial")
_CONTOUR_BLOCK = 10
_CONTOUR_GAP = 1e-2

# Inputs on which the seed code returns wrong values with flag ok, kept
# out of the workload streams (a workload must not fail) and evaluated
# instead by the fixed defect probe of the traced run; see defect_probe().
_DEFECT_BANDS = ("large", "tiny", "near_integer")
_DEFECT_PER_BAND = 4  # per route


def _clear_of_integers(z: float, gap: float) -> float:
    """z moved, if need be, to at least gap from the nearest integer (0 included)."""
    n = round(z)
    if abs(z - n) >= gap:
        return z
    return n + math.copysign(gap, z - n if z != n else 1.0)


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """count draws, one uniform in each of count equal slices of [lo, hi), in slice order."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def figure_grid(seed: int) -> Iterator[Call]:
    """fig1, fig3 and fig4 sweeps, each pass shifted by one shared offset.

    The offset keeps every grid point at least 1e-3 from an integer, so no
    call takes the exact-factorial path; sharing it across the three
    presets keeps the integrals that coincide between presets coincident.
    """
    rng = random.Random(seed)
    while True:
        offset = rng.uniform(_MIN_INTEGER_GAP, _STEP - _MIN_INTEGER_GAP)
        for kind, top in _FIGURES:
            k = 0
            while offset + k * _STEP <= top:
                yield Call(kind, (offset + k * _STEP,), 1e-8)
                k += 1


def _tight_draws(rng: random.Random, floor_stratum: int) -> list[tuple[float, float]]:
    """One route's share of a block in random order: 12 wide and 8
    near-integer arguments, the one in stratum floor_stratum at eps 1e-14."""
    wide = [
        math.copysign(_clear_of_integers(math.exp(u), _TIGHT_GAP), rng.random() - 0.5)
        for u in _stratified(rng, 12, *_WIDE_LOG_RANGE)
    ]
    near = [
        rng.randint(1, 30) + math.copysign(10.0**u, rng.random() - 0.5)
        for u in _stratified(rng, 8, *_NEAR_LOG10_RANGE)
    ]
    zs = wide + near
    eps = [rng.choice((1e-10, 1e-12)) for _ in zs]
    eps[floor_stratum] = 1e-14
    return rng.sample(list(zip(zs, eps)), len(zs))


def tight_wide(seed: int) -> Iterator[Call]:
    """Round-robin over the real-line routes at tight tolerances and wide |z|.

    Draws are stratified per route, so every block of 100 calls gives each
    route the same mixture of wide, near-integer and 1e-14 draws, and the
    stratum that takes the 1e-14 draw cycles through a seeded order, so
    every 20 blocks each stratum takes it once.
    gamma_ratio takes A = |z| and B = A + U(-1, 1), kept positive and clear
    of integers like z, so the ratio stays moderate while both arguments
    range as widely as z.

    Arguments are kept to |z| < 50 and at least 1e-2 from every integer,
    0 included: beyond those limits the seed code returns wrong
    values with flag ok at these tolerances (see defect_probe).
    """
    rng = random.Random(seed)
    orders = [rng.sample(range(_TIGHT_STRATA), _TIGHT_STRATA) for _ in _TIGHT_ROUTES]
    block = 0
    while True:
        draws = [_tight_draws(rng, order[block % _TIGHT_STRATA]) for order in orders]
        block += 1
        for picks in zip(*draws):
            for route, (z, eps) in zip(_TIGHT_ROUTES, picks):
                if route == "gamma_ratio":
                    a = abs(z)
                    u = rng.uniform(-1.0, 1.0)
                    b = _clear_of_integers(a + u if a + u > 0.0 else a + abs(u), _TIGHT_GAP)
                    yield Call(route, (a, b), eps)
                else:
                    yield Call(route, (z,), eps)


def contour(seed: int) -> Iterator[Call]:
    """Equal thirds of the three contour-engine entry points on z in (0, 10).

    z, and the contour's delta and r0 and the time t, are stratified per
    entry point in blocks of 10, so that every block holds the same mixture
    of slow (large z, delta near 2, small t) and fast calls.  Every z keeps
    1e-2 from an integer: inverse_laplace_monomial goes through
    gamma(k + 1), which returns wrong values with flag ok within about 1e-4
    of an integer (see defect_probe).
    """
    rng = random.Random(seed)
    span = 1.0 - 2.0 * _CONTOUR_GAP
    log_t = (math.log(0.5), math.log(5.0))

    def block(lo: float, hi: float) -> list[float]:
        return rng.sample(_stratified(rng, _CONTOUR_BLOCK, lo, hi), _CONTOUR_BLOCK)

    while True:
        zs = {kind: [math.floor(u) + _CONTOUR_GAP + (u % 1.0) * span for u in block(0.0, 10.0)]
              for kind in _CONTOUR_KINDS}
        deltas, radii, times = block(2.0, 3.0), block(0.25, 1.0), block(*log_t)
        for i in range(_CONTOUR_BLOCK):
            yield Call("hankel", (zs["hankel"][i],), 1e-8)
            yield Call("hankel_recip_gamma", (zs["hankel_recip_gamma"][i], deltas[i], radii[i]), 1e-8)
            yield Call("inverse_laplace_monomial",
                       (zs["inverse_laplace_monomial"][i], math.exp(times[i])), 1e-8)


STREAMS = {"figure_grid": figure_grid, "contour": contour, "tight_wide": tight_wide}

# Calls in each pass of the traced run.  A fixed count (not a time limit)
# makes every count-type layer metric repeat exactly for a given seed.
TRACE_CALLS = {"figure_grid": 2520, "contour": 450, "tight_wide": 300}


def defect_probe(seed: int) -> list[Call]:
    """Fixed seeded calls in the regimes the workload streams leave out.

    Per tight_wide route, four draws in each band, at eps 1e-10 or 1e-12:
    large |z| in [72, 171.6), tiny |z| in [1e-6, 1e-4) (A of gamma_ratio)
    and within 10^U(-12, -4) of an integer in [1, 30]; and four calls of
    inverse_laplace_monomial at k within 10^U(-8, -4) of an integer.  On
    the seed code most of them fail the accuracy gate.  The traced run
    reports the failed share, so a fix of these regimes shows while the
    workloads themselves stay free of failures.
    """
    rng = random.Random(seed * 104729 + 17)
    calls = []
    for route in _TIGHT_ROUTES:
        for band in _DEFECT_BANDS:
            for _ in range(_DEFECT_PER_BAND):
                sign = math.copysign(1.0, rng.random() - 0.5)
                if band == "large":
                    z = sign * rng.uniform(72.0, 171.6)
                elif band == "tiny":
                    z = sign * math.exp(rng.uniform(math.log(1e-6), math.log(1e-4)))
                else:
                    z = rng.randint(1, 30) + sign * 10.0 ** rng.uniform(-12.0, -4.0)
                eps = rng.choice((1e-10, 1e-12))
                if route == "gamma_ratio":
                    a = abs(z)
                    calls.append(Call(route, (a, a + rng.uniform(0.1, 1.0)), eps))
                else:
                    calls.append(Call(route, (z,), eps))
    for _ in range(_DEFECT_PER_BAND):
        k = rng.randint(1, 9) + math.copysign(10.0 ** rng.uniform(-8.0, -4.0), rng.random() - 0.5)
        t = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        calls.append(Call("inverse_laplace_monomial", (k, t), 1e-8))
    return calls


def first_calls(workload: str, seed: int, count: int) -> list[Call]:
    return list(islice(STREAMS[workload](seed), count))


def repeat_share(calls: list[Call]) -> float:
    """Share of figure_grid calls whose real-line integral argument occurred
    before, bit for bit; 1/Gamma(-z) reflects onto the integral at z + 1."""
    seen = set()
    repeats = 0
    for call in calls:
        if call.kind not in ("fig1", "fig3", "fig4"):
            continue
        key = call.args[0] + 1.0 if call.kind == "fig1" else call.args[0]
        repeats += key in seen
        seen.add(key)
    return repeats / len(calls) if calls else 0.0
