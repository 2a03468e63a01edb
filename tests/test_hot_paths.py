"""The per-node and per-panel paths hold no builtin min/max and no lambda,
and the comparisons that replace them give the same records, bit for bit.

_gk15 and integrate_finite are checked against verbatim copies of their
bodies as they were when each min and max was still a builtin call; the
copies below are those bodies, renamed, and must not be edited to follow
a later change of the module.  Two later changes are stated beside the
tests they move: an infinite value or estimate is never flagged ok, and an
overflowed resasc is the estimate itself.

real_axis_middle is checked the same way against its body as it was while
it placed its nodes at every call, before they were laid out once per
panel count, split and radius; the copy reads the split and the radius
off the module, so that a test can move them.  Its panel count and bound
come from verbatim copies of _gl15_bound and _gl15_panels as they were
while the bound's geometry was formed at every call, before it was kept
beside the real axis's layouts.
"""

import ast
import cmath
import inspect
import math
import random
import sys
import textwrap
from typing import Callable, Sequence

import pytest

from regamma import hankel, kernel, quadrature
from regamma.kernel import decompose, exp_remainder
from regamma.quadrature import (
    _EPMACH,
    _FLOOR_MARGIN,
    _MAX_BISECTIONS,
    _UFLOW,
    _WG,
    _WG_CENTER,
    _WGK,
    _WGK_CENTER,
    _XGK,
    EPS_ABS,
    ConditionFlag,
    IntegralResult,
    QuadratureConfig,
    _fsum,
    geometric_breakpoints,
)

U = math.ulp(1.0)
MAX = sys.float_info.max


def reference_gk15(f: Callable[[float], float | complex], a: float, b: float):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    narrow = center - half * _XGK[0] < a or center + half * _XGK[0] > b
    if narrow:
        inner = f
        f = lambda x: inner(min(max(x, a), b))
    fc = f(center)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    fv = []
    for i, x in enumerate(_XGK):
        dx = half * x
        f1 = f(center - dx)
        f2 = f(center + dx)
        fv.append((f1, f2))
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - reskh)
    for i, (f1, f2) in enumerate(fv):
        resasc += _WGK[i] * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if narrow:
        err = max(err, resabs)
    floor = 0.0
    if resabs > _UFLOW / (50.0 * _EPMACH):
        floor = _EPMACH * 50.0 * resabs
        err = max(floor, err)
    return value, err, floor


def reference_integrate_finite(
    f: Callable[[float], float | complex],
    a: float,
    b: float,
    cfg: QuadratureConfig,
    breakpoints: Sequence[float] | None = None,
) -> IntegralResult:
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    edges = [a]
    if breakpoints:
        edges.extend(x for x in sorted(breakpoints) if a < x < b)
    edges.append(b)

    panels = []
    evaluations = 0
    floor_sum = 0.0
    for left, right in zip(edges, edges[1:]):
        val, err, floor = reference_gk15(f, left, right)
        panels.append([err, left, right, val, floor])
        floor_sum += floor
        evaluations += 15

    nsub = 0
    flag = ConditionFlag.OK
    while True:
        total_val = _fsum([p[3] for p in panels])
        total_err = math.fsum(p[0] for p in panels)
        target = max(EPS_ABS, cfg.eps_rel * abs(total_val))
        if total_err <= target:
            break
        if floor_sum > target and total_err <= _FLOOR_MARGIN * floor_sum:
            # at the round-off floor: further bisection cannot certify
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        if nsub >= _MAX_BISECTIONS:
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        worst = max(panels, key=lambda p: p[0])
        left, right = worst[1], worst[2]
        mid = 0.5 * (left + right)
        if not left < mid < right:
            # panel is at floating-point resolution; cannot refine further
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        panels.remove(worst)
        floor_sum -= worst[4]
        for lo, hi in ((left, mid), (mid, right)):
            val, err, floor = reference_gk15(f, lo, hi)
            panels.append([err, lo, hi, val, floor])
            floor_sum += floor
        evaluations += 30
        nsub += 1

    return IntegralResult(
        value=_fsum([p[3] for p in panels]),
        abs_error_estimate=math.fsum(p[0] for p in panels),
        evaluations=evaluations,
        condition_flag=flag,
    )


def reference_gl15_bound(
    lo: float, hi: float, panels: int, half_height: float, log_m: float, growth: float = 0.0
) -> float:
    h = (hi - lo) / (2 * panels)
    s = half_height / h
    rho = s + math.sqrt(s * s + 1.0)
    reach = 0.5 * h * (rho + 1.0 / rho)
    step = 2.0 * h * growth
    count = math.expm1(step * panels) / math.expm1(step) if step else panels
    log_first = log_m + growth * (lo + h + reach) - 30.0 * math.log(rho)
    return 64.0 / 15.0 * h * count * math.exp(log_first) / (rho * rho - 1.0)


def reference_gl15_panels(lo: float, hi: float, cap: int, half_height: float, log_m: float,
                          growth: float, target: float) -> tuple[int, float]:
    panels = 1
    bound = reference_gl15_bound(lo, hi, 1, half_height, log_m, growth)
    while bound > target and panels < cap:
        panels += 1
        bound = reference_gl15_bound(lo, hi, panels, half_height, log_m, growth)
    return panels, bound


def reference_real_axis_middle(arg, eps_rel: float, scale: float) -> IntegralResult:
    n, frac = arg.n, arg.frac
    expo = (1 - n) - frac
    lo, hi = math.log(quadrature._SPLIT_POINT), math.log(quadrature._TAIL_RADIUS)
    panels, bound = reference_gl15_panels(
        lo, hi, 2, 0.5 * math.pi, -math.lgamma(n + 1), 1.0 - frac, eps_rel * scale)
    h = (hi - lo) / (2 * panels)
    total = 0.0
    for p in range(panels):
        centre = lo + (2 * p + 1) * h
        for x, w in quadrature._GL15:
            t = centre + h * x
            total += w * exp_remainder(-math.exp(t), n) * math.exp(expo * t)
    value = h * total
    return IntegralResult(
        value, bound + quadrature._GL_ROUNDING * _EPMACH * abs(value), 15 * panels)


def _recorded(f):
    """f, and the list of the points it is evaluated at, in order."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def _log_form_integrand(z):
    """log_form_middle's integrand at z."""
    arg = decompose(z)
    n, expo = arg.n, -arg.n - arg.frac

    def middle(u):
        x = -math.log(u)
        return exp_remainder(-x, n) * math.exp(expo * math.log(x)) / u

    return middle


def _log_form_panels(z):
    u1, u0 = math.exp(-1.0), math.exp(-36.0)
    edges = [u0] + geometric_breakpoints(u0, u1) + [u1]
    return [(_log_form_integrand(z), a, b) for a, b in zip(edges, edges[1:])]


def _nodes(a, b):
    """The points _gk15 evaluates on [a, b], in order."""
    f, points = _recorded(lambda x: 0.0)
    reference_gk15(f, a, b)
    return points


def _one_bad_node(a, b, bad):
    """(f, a, b) for each node of [a, b] at which f alone returns bad."""
    cases = []
    for node in _nodes(a, b):
        cases.append((lambda x, node=node: bad if x == node else math.sin(x) + 2.0, a, b))
    return cases


def _panel_cases():
    cases = [
        (lambda x: math.exp(-x), 0.0, 50.0),
        (lambda x: 1.0 / (1e-2 + x * x), -1.0, 1.0),
        (lambda x: math.sqrt(x), 0.0, 1.0),
        (lambda x: cmath.exp(3j * x), 0.0, 5.0),
        (lambda x: (1.0 - 2.0j) * math.sqrt(x) * math.exp(-x), 0.0, 4.0),
        (lambda x: 0.0, 0.0, 1.0),
        (lambda x: -0.0, 0.0, 1.0),
        (lambda x: 1e-310 * x, 0.0, 1.0),
    ]
    cases += _log_form_panels(4.3) + _log_form_panels(0.37)
    # panels a few ulps wide, where the nodes are clamped onto [a, b]
    for lo, hi in ((0, 1), (-2, 4), (-4, 5), (0, 6)):
        a, b = 1.0 + lo * U, 1.0 + hi * U
        cases.append((lambda x: float(x >= 1.0), a, b))
        cases.append((lambda x: 1.0 + (x - 1.0) * 1e16j, a, b))
    for a, b in ((0.3, 1.7), (1.0 - 4 * U, 1.0 + 5 * U)):
        for bad in (math.nan, math.inf, -math.inf, complex(math.nan, math.inf)):
            cases += _one_bad_node(a, b, bad)
    rng = random.Random(34)
    for _ in range(200):
        a = rng.uniform(-5.0, 5.0)
        b = a + 10.0 ** rng.uniform(-15.0, 1.0)
        k = rng.uniform(0.1, 20.0)
        cases.append((lambda x, k=k: math.cos(k * x) / (1.0 + x * x), a, b))
    return cases


def _same(new, ref):
    assert repr(new) == repr(ref)


class TestGk15:
    @pytest.mark.parametrize("f,a,b", _panel_cases())
    def test_equals_the_builtin_forms(self, f, a, b):
        f_new, at_new = _recorded(f)
        f_ref, at_ref = _recorded(f)
        _same(quadrature._gk15(f_new, a, b), reference_gk15(f_ref, a, b))
        assert repr(at_new) == repr(at_ref)
        assert all(a <= x <= b for x in at_new)

    def test_nan_estimate_beside_a_finite_resabs(self):
        # this panel is narrow (its nodes clamp onto 10 points), and resasc
        # overflows while resabs does not, so the reference's QUADPACK
        # scaling makes err inf * 0 = NaN, which max(floor, err) then turns
        # into the floor, and integrate_finite returned 1.50e293 ok with an
        # estimate of 50 eps resabs on a panel the rule cannot resolve.  The
        # estimate is now resasc, inf, and the integral is flagged; the value
        # and the floor are the reference's.
        a, b = 1.0 - 4 * U, 1.0 + 5 * U
        f = lambda x: MAX if x < 1.0 else (-5e307 if x == 1.0 else 0.0)
        assert len(set(_nodes(a, b))) == 10
        value, err, floor = quadrature._gk15(f, a, b)
        ref_value, ref_err, ref_floor = reference_gk15(f, a, b)
        assert math.isfinite(value) and 0.0 < floor < math.inf
        assert ref_err == ref_floor
        assert err == math.inf
        _same((value, floor), (ref_value, ref_floor))
        res = quadrature.integrate_finite(f, a, b, QuadratureConfig())
        assert res.condition_flag is ConditionFlag.TOLERANCE_NOT_MET


def _integration_cases():
    cfg = QuadratureConfig
    cases = [
        (lambda x: 1.0, 0.0, 1.0, cfg(), None),
        (lambda x: math.exp(-x), 0.0, 50.0, cfg(1e-12), None),
        (lambda x: math.sin(3.0 * x) ** 2, 0.0, 4.0, cfg(), [0.5, 1.0, 2.0]),
        (lambda x: math.sqrt(x), 0.0, 1.0, cfg(1e-15), None),  # the budget
        (lambda x: 1.0 / (1e-2 + x * x), -1.0, 1.0, cfg(1e-15), None),  # the floor
        (lambda x: float(x >= 1.0), 1.0 - 2.0 * U, 1.0 + 4.0 * U, cfg(1e-15), None),
        (lambda x: cmath.exp(3j * x), 0.0, 5.0, cfg(), None),
        (lambda x: (1.0 - 2.0j) * math.sqrt(x) * math.exp(-x), 0.0, 4.0, cfg(1e-10), [1.0]),
        (lambda x: 0.0, 0.0, 1.0, cfg(), None),
        (lambda x: 1e-310, 0.0, 1.0, cfg(), None),
    ]
    for z in (0.37, 4.3, 9.9, 31.2):
        u1, u0 = math.exp(-1.0), math.exp(-36.0)
        for eps in (1e-10, 1e-12, 1e-14):
            cases.append((_log_form_integrand(z), u0, u1, cfg(eps),
                          geometric_breakpoints(u0, u1)))
    for bad in (math.nan, math.inf, -math.inf):
        for node in _nodes(0.0, 1.0)[::4]:
            cases.append((lambda x, node=node, bad=bad: bad if x == node else math.sqrt(x),
                          0.0, 2.0, cfg(), [1.0]))
    rng = random.Random(340)
    for _ in range(40):
        a = rng.uniform(-3.0, 3.0)
        b = a + 10.0 ** rng.uniform(-12.0, 1.0)
        k = rng.uniform(0.1, 40.0)
        seeds = sorted(rng.uniform(a, b) for _ in range(rng.randrange(4)))
        cases.append((lambda x, k=k: math.cos(k * x) * abs(x) ** 0.5, a, b,
                      cfg(10.0 ** rng.uniform(-15.0, -6.0)), seeds))
    return cases


class TestIntegrateFinite:
    @pytest.mark.parametrize("f,a,b,cfg,seeds", _integration_cases())
    def test_equals_the_builtin_forms(self, f, a, b, cfg, seeds):
        f_new, at_new = _recorded(f)
        f_ref, at_ref = _recorded(f)
        new = quadrature.integrate_finite(f_new, a, b, cfg, seeds)
        ref = reference_integrate_finite(f_ref, a, b, cfg, seeds)
        if not (math.isfinite(abs(ref.value)) and math.isfinite(ref.abs_error_estimate)):
            # the reference flags an infinite value ok, as its infinite
            # target is met; every other field is the reference's
            assert new.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
            new = new._replace(condition_flag=ref.condition_flag)
        _same(new, ref)
        assert repr(at_new) == repr(at_ref)

    def test_of_two_equal_errors_the_earliest_panel_is_bisected(self):
        # an even integrand split at 0: the two seeded panels are mirror
        # images and their estimates equal, so the first bisection is the
        # left panel's
        f = lambda x: 1.0 / (1e-2 + x * x)
        assert quadrature._gk15(f, -1.0, 0.0)[1] == quadrature._gk15(f, 0.0, 1.0)[1]
        f_new, at_new = _recorded(f)
        f_ref, at_ref = _recorded(f)
        cfg = QuadratureConfig(1e-12)
        _same(quadrature.integrate_finite(f_new, -1.0, 1.0, cfg, [0.0]),
              reference_integrate_finite(f_ref, -1.0, 1.0, cfg, [0.0]))
        assert repr(at_new) == repr(at_ref)
        assert all(-1.0 <= x <= 0.0 for x in at_new[30:60])


class TestRealAxisMiddle:
    FRACS = [5e-324, 1e-15, 1e-9, 1e-3, 0.37, 0.5, 1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("n", range(10))
    @pytest.mark.parametrize("split, radius", [(1.0, 36.0), (0.5, 36.0), (2.0, 36.0),
                                               (1.0, 20.0), (1.0, 36.0)])
    def test_equals_the_nodes_placed_per_call(self, monkeypatch, split, radius, n):
        # a layout kept from another split or radius would move every node;
        # the last case returns to the first, after the others were laid out
        monkeypatch.setattr(quadrature, "_SPLIT_POINT", split)
        monkeypatch.setattr(quadrature, "_TAIL_RADIUS", radius)
        new_at, ref_at = [], []

        def recorder(at):
            def kernel_call(x, order):
                at.append(x)
                return kernel.exp_remainder(x, order)
            return kernel_call

        monkeypatch.setattr(quadrature, "exp_remainder", recorder(new_at))
        monkeypatch.setitem(globals(), "exp_remainder", recorder(ref_at))
        for frac in self.FRACS:
            arg = kernel.ArgDecomposition(z=n + frac, n=n, frac=frac)
            # scale inf lays out one panel, scale 0 two
            for eps_rel, scale in ((1e-8, math.inf), (1e-8, 0.0), (1e-8, 1e-3), (1e-14, 1.0)):
                _same(quadrature.real_axis_middle(arg, eps_rel, scale),
                      reference_real_axis_middle(arg, eps_rel, scale))
        assert len(new_at) > 15 * len(self.FRACS)
        assert repr(new_at) == repr(ref_at)

    @pytest.mark.parametrize("split, radius", [(1.0, 36.0), (0.5, 36.0), (2.0, 36.0),
                                               (1.0, 20.0)])
    def test_kept_geometry_gives_the_bound_formed_per_call(self, monkeypatch, split, radius):
        # the geometry the real axis keeps per split and radius, read at
        # call time, gives _gl15_bound's bound bit for bit on both panel
        # counts, and so does the ray's, formed per call, up to its cap
        monkeypatch.setattr(quadrature, "_SPLIT_POINT", split)
        monkeypatch.setattr(quadrature, "_TAIL_RADIUS", radius)
        lo, hi = math.log(split), math.log(radius)
        for n in range(10):
            log_m = -math.lgamma(n + 1)
            for frac in self.FRACS:
                arg = kernel.ArgDecomposition(z=n + frac, n=n, frac=frac)
                quadrature.real_axis_middle(arg, 1e-8, 0.0)
                layouts = quadrature._MIDDLE_LAYOUTS[split, radius]
                for panels, (geometry, _) in enumerate(layouts, 1):
                    kept = quadrature._gl15_error(geometry, panels, log_m, 1.0 - frac)
                    assert repr(kept) == repr(
                        reference_gl15_bound(lo, hi, panels, 0.5 * math.pi, log_m, 1.0 - frac))
                for target in (math.inf, 1e-12, 0.0):
                    _same(quadrature._gl15_panels(lo, hi + 3.0, hankel._PANEL_CAP, 0.3, log_m,
                                                  1.0 - frac, target),
                          reference_gl15_panels(lo, hi + 3.0, hankel._PANEL_CAP, 0.3, log_m,
                                                1.0 - frac, target))


# The functions that run once per kernel node or once per panel.
HOT_PATHS = [
    kernel.exp_remainder,
    kernel._ratio_series,
    hankel.ray_kernel,
    # the paper's ray: its node loop
    hankel._ray,
    quadrature._gk15,
    quadrature.integrate_finite,
    quadrature.real_axis_middle,
    # once per term: of every real-line integral, and of every paper-contour call
    quadrature.origin_closed_form,
    hankel._arc_series,
]


def _builtin_forms(fn):
    """Each lambda in fn, and each call of the builtin min or max on two or
    more arguments, with its line number."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            found.append(f"line {node.lineno}: lambda")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("min", "max") and len(node.args) > 1):
            found.append(f"line {node.lineno}: {node.func.id}() of {len(node.args)} arguments")
    return found


class TestNoBuiltinCalls:
    @pytest.mark.parametrize("fn", HOT_PATHS, ids=lambda fn: fn.__qualname__)
    def test_hot_path_writes_comparisons(self, fn):
        # max(panels, key=...) over one sequence is one C loop and stays; a
        # min or max of scalars is a comparison written as a call
        found = _builtin_forms(fn)
        assert not found, (
            f"{fn.__module__}.{fn.__qualname__} runs once per node or panel, and "
            f"holds {found}: on CPython 3.11 a builtin min or max of two floats "
            "costs about 130-190 ns a call against about 20-60 ns for the "
            "comparison it stands for (timeit), and a lambda one Python call "
            "per use.  Write max(p, q) as `q if q > p else p` and min(p, q) "
            "as `q if q < p else p`, the builtins' own rule, so that NaN, "
            "signed zeros and ties keep their branch.")

    def test_the_walk_sees_the_builtin_forms(self):
        def kinds(fn):
            return [form.split(": ", 1)[1] for form in _builtin_forms(fn)]

        assert sorted(kinds(reference_gk15)) == [
            "lambda", "max() of 2 arguments", "max() of 2 arguments",
            "max() of 2 arguments", "min() of 2 arguments", "min() of 2 arguments"]
        assert sorted(kinds(reference_integrate_finite)) == ["lambda", "max() of 2 arguments"]
