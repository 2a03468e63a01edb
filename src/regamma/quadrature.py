"""The adaptive quadrature engine, the fixed Gauss-Legendre rule and the one assembly of I(z).

integrate_finite is the package's only adaptive engine: an embedded 7/15
Gauss-Kronrod pair with worst-panel bisection and the classical QUADPACK
error scaling.  It sums the middle stretch of two real-line routes below,
power_subst and log_form.  Its only setting is the relative tolerance
(QuadratureConfig); every integral may bisect at most _MAX_BISECTIONS
panels.  Like QUADPACK's round-off detection it stops bisecting once the
panels' round-off floors alone exceed the target, and flags the result.
The real axis's middle stretch and the ray of the paper's Hankel contour
(hankel, which sums its arc term by term as a series) are entire
in their path variable instead, and take equal 15-point Gauss-Legendre
panels (_GL15), as many, up to a cap, as the closed-form error bound
needs (_gl15_panels): its geometry, which depends on the layout alone
(_gl15_geometry), and its evaluation (_gl15_error) are apart, so a rule
whose layout is fixed keeps the geometry; the bound is in their error,
so they set no flag.  Every other flag comes from one rule, _flag, by way
of combine(), which sums the parts of a composite integral, or propagate(),
which gives the same record to a value computed from integrals by
products and roundings; every GammaValue's record comes from one or the
other.

The semi-infinite integral I(z) = int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx
is assembled once, by integrate_regularized_kernel, split at x = 1 and
R = 36.  On [0, split] the remainder is the series sum_{k>=n} (-x)^k/k!,
so that stretch is summed term by term (origin_closed_form): every power
of x it integrates is x^{k-z} with k - z > -1, and the algebraic x^{-frac}
endpoint singularity becomes the exact factor 1/(1 - frac).  Its
coefficients are one table per order and its term count is fixed from a
bound before the sum, as the kernel's series are.  The routes
differ only in their change of variables on [split, R], and each is a
function (arg, eps_rel, scale) that returns that stretch as one part,
within eps_rel * scale, scale being a lower bound on |I(z)|:
real_axis_middle (t = log x), power_subst_middle
(v = (x^z - 1)/z) and log_form_middle (u = e^{-x}).  In t = log x the
integrand is entire, so the real axis takes a fixed Gauss-Legendre rule
whose panel count, one or two, comes from the closed-form bound
(_gl15_error) before any evaluation, on nodes and bound geometries laid
out once per split and radius; the other two take the adaptive engine.  combine adds the parts
in one pass.

The argument is a positive non-integer z = n + frac, 0 < frac < 1, as
kernel.decompose builds it, or the same frac at the raised order n + 1
(cauchy_saalschutz); integrate_regularized_kernel refuses any other.  At
order n = 0 the polynomial is empty and the origin series is the lower
incomplete gamma function gamma(1 - z, split).

Every route shares that series and the tail past R: the polynomial part
-e_{n-1}(-x) x^{-z} decays only like x^{-1-frac}, so its tail is added in
closed form, with the rounding bound of its terms as its error.  The
exponential part e^{-x} x^{-z} is never integrated: x^{-z} does not grow,
so its tail is at most e^{-R} R^{-z}, about 2.3e-16 at R = 36, and it is a
part of value 0 with that bound as its error.  combine counts the bound
like any other error, so where the tolerance cannot hold it the result is
flagged.

All parts share the sign (-1)^n (the Lagrange form of the Taylor
remainder of e^{-x} is single-signed on x > 0), so per-part relative error
control gives global relative control without cancellation surprises,
and |I(z)| is at least |origin part|, the scale the middle stretch gets.
The sum is still checked against the tolerance once more: the closed-form
parts and the fixed rule carry bounds that no tolerance holds, and at
large z the terms of the polynomial tail dwarf the sum.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from enum import Enum
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .kernel import _TAYLOR, ArgDecomposition, _taylor, exp_remainder

# 7/15 Gauss-Kronrod abscissae and weights (positive half; node 0 last).
# Odd-indexed abscissae carry the embedded 7-point Gauss rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327
# the Kronrod half-rule as (abscissa, weight) pairs, for _gk15's node loop
_GK_PAIRS = tuple(zip(_XGK, _WGK))

# 15-point Gauss-Legendre abscissae and weights on [-1, 1] (positive half;
# the centre apart); _GL15 is the whole rule as (abscissa, weight) pairs.
_XGL = (
    0.987992518020485428489565718586613,
    0.937273392400705904307758947710209,
    0.848206583410427216200648320774217,
    0.724417731360170047416186054613938,
    0.570972172608538847537226737253911,
    0.394151347077563369897207370981045,
    0.201194093997434522300628303394596,
)
_WGL = (
    0.030753241996117268354628393577204,
    0.070366047488108124709267416450667,
    0.107159220467171935011869546685869,
    0.139570677926154314447804794511028,
    0.166269205816993933553200860481209,
    0.186161000015562211026800561866423,
    0.198431485327111576456118326443839,
)
_WGL_CENTER = 0.202578241925561272880620199967519
_GL15 = ((0.0, _WGL_CENTER),) + tuple(
    (sign * x, w) for x, w in zip(_XGL, _WGL) for sign in (-1.0, 1.0)
)
# Relative rounding of the rule's sum on the real axis's middle stretch, in
# units of eps: measured against mpmath over n <= 9 and 200 frac in (0, 1),
# the sum's error past the bound reached 11.2 eps on two panels (on one,
# the bound alone covered it).
_GL_ROUNDING = 16
# real_axis_middle's rule on one and two panels, each as its bound's
# geometry and its nodes, per (split, radius), laid out on first use
_MIDDLE_LAYOUTS: dict[tuple[float, float], tuple[tuple, tuple]] = {}

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
# the rounding of one multiplication or division: relative, and absolute
# below the normal range
_UNIT_ROUNDOFF = _EPMACH / 2.0
_SUBNORMAL = math.ulp(0.0)

# Absolute error floor of every integration, below any relative target.
EPS_ABS = 1e-300

# Every route sums its integral below x = _SPLIT_POINT as a series.  Past
# _TAIL_RADIUS the polynomial tail is summed analytically and the
# exponential tail is bounded.
_SPLIT_POINT = 1.0
_TAIL_RADIUS = 36.0

# The highest order whose 1/n! is a normal double: the real line's origin
# series starts from it.
_MAX_ORDER = 170
# The origin series' rounding, in units of eps of the sum of its terms'
# moduli: derived in origin_closed_form, at most 4 at split 1.
_ORIGIN_ROUNDING = 8
# The origin series' table per order n (_origin_table), built on first use.
_ORIGIN_TABLES: dict[int, tuple[float, list[tuple[float, float]], list[float]]] = {}

# Bisections integrate_finite may make in one integral before it flags
# the result.
_MAX_BISECTIONS = 128

# At the round-off floor, integrate_finite refines until its estimate is
# within this factor of the floor sum, then stops.
_FLOOR_MARGIN = 2.0


class ConditionFlag(str, Enum):
    OK = "ok"
    TOLERANCE_NOT_MET = "tolerance_not_met"


# The flags _flag returns, looked up once: an Enum member lookup costs
# about 0.1 us on CPython 3.11
_OK = ConditionFlag.OK
_MISSED = ConditionFlag.TOLERANCE_NOT_MET


class _Frozen:
    """A settings type: its slots are set once, by its constructor, and it
    is equal, hashed, shown and pickled by their values, in slot order, as
    a frozen dataclass would be.  Pickling and copying call the constructor
    again, so its validation cannot be skipped.  Not a dataclass: importing
    the package loads neither dataclasses nor inspect, and reading a field
    is one slot lookup."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class QuadratureConfig(_Frozen):
    """The relative tolerance of an evaluation, in (0, 1).

    It is the engine's one setting: the split, the radii and the bisection
    budget are constants of this module.
    """

    __slots__ = ("eps_rel",)

    def __init__(self, eps_rel: float = 1e-8) -> None:
        if not 0.0 < eps_rel < 1.0:
            raise ValueError(f"eps_rel must be in (0, 1), got {eps_rel!r}")
        object.__setattr__(self, "eps_rel", eps_rel)


class IntegralResult(NamedTuple):
    """Value, error estimate and diagnostics of one integration, or of a
    value computed from integrals (propagate).

    value is complex exactly when the integrand is.  A named tuple, built
    several times per call: immutable, and equal to the tuple of its fields.
    """

    value: float | complex
    abs_error_estimate: float
    evaluations: int
    condition_flag: ConditionFlag = ConditionFlag.OK


def _fsum(values: list) -> float | complex:
    """math.fsum, taken over the real and imaginary parts of complex values.
    Where fsum refuses (opposite infinities, or an overflow on the way), the
    plain sum, which is then not finite."""
    try:
        return math.fsum(values)
    except TypeError:
        return complex(_fsum([v.real for v in values]), _fsum([v.imag for v in values]))
    except (ValueError, OverflowError):
        return sum(values)


def _gk15(f: Callable[[float], float | complex], a: float, b: float):
    """One 15-point Kronrod panel: (value, error estimate, round-off floor).

    The floor is 50 eps resabs, the least error the estimate admits; it is
    0 where resabs is too small for that bound to apply.

    f is only evaluated inside [a, b].  On a panel a few ulps wide the
    outer nodes center -+ dx round past a or b; the nodes are then clamped
    onto [a, b], where several coincide, so the rule no longer measures
    its own error, and the estimate is at least resabs.  Where resasc
    overflows, the estimate is resasc: its QUADPACK scaling would be inf * 0.

    This runs once per panel and f once per node, so each min or max is
    written as the comparison it stands for (max(p, q) is p unless q > p,
    min(p, q) is p unless q < p), which keeps NaN, signed zeros and ties
    where the builtins put them.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    narrow = center - half * _XGK[0] < a or center + half * _XGK[0] > b
    if narrow:
        inner = f

        def f(x):
            if a > x:
                x = a
            if b < x:
                x = b
            return inner(x)

    fc = f(center)
    resk = _WGK_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    # f at center - dx and center + dx, pair by pair, from the outermost in
    fv = []
    for x, w in _GK_PAIRS:
        dx = half * x
        f1 = f(center - dx)
        f2 = f(center + dx)
        fv.append(f1)
        fv.append(f2)
        resk += w * (f1 + f2)
        resabs += w * (abs(f1) + abs(f2))
    # the embedded 7-point Gauss rule takes the pairs 1, 3 and 5
    resg = (_WG_CENTER * fc + _WG[0] * (fv[2] + fv[3]) + _WG[1] * (fv[6] + fv[7])
            + _WG[2] * (fv[10] + fv[11]))
    reskh = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - reskh)
    pairs = iter(fv)  # zip takes each pair back off it, f1 then f2
    for w, f1, f2 in zip(_WGK, pairs, pairs):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        scale = (200.0 * err / resasc) ** 1.5
        err = resasc * scale if scale < 1.0 and resasc < math.inf else resasc
    if narrow and resabs > err:
        err = resabs
    floor = 0.0
    if resabs > _UFLOW / (50.0 * _EPMACH):
        floor = _EPMACH * 50.0 * resabs
        if not err > floor:
            err = floor
    return value, err, floor


def integrate_finite(
    f: Callable[[float], float | complex],
    a: float,
    b: float,
    cfg: QuadratureConfig,
    breakpoints: Sequence[float] | None = None,
) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of f over the finite [a, b].

    f may be real or complex valued; |.| is then the complex modulus.
    Optional breakpoints seed the initial panel layout (useful for
    integrands living on many length scales); they must lie inside (a, b).
    The worst panel is bisected until the summed error estimate meets
    max(EPS_ABS, eps_rel * |value|) or _MAX_BISECTIONS bisections are
    spent, in which case the best value is returned with the flag set.

    No panel's estimate falls below its round-off floor (see _gk15), so
    once the floors alone sum past the target, bisection cannot meet it:
    the worst panels are then refined only until the estimate is within
    _FLOOR_MARGIN times the floor sum, and the result is returned with
    the flag set and an estimate near the floor.  An infinite or NaN value
    or estimate is never ok; where math.fsum refuses the panels' sum, the
    value is their plain sum (_fsum).
    """
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
        val, err, floor = _gk15(f, left, right)
        panels.append([err, left, right, val, floor])
        floor_sum += floor
        evaluations += 15

    nsub = 0
    flag = ConditionFlag.OK
    while True:
        total_val = _fsum([p[3] for p in panels])
        total_err = _fsum([p[0] for p in panels])
        size = abs(total_val)
        target = cfg.eps_rel * size
        if not target > EPS_ABS:
            target = EPS_ABS
        if total_err <= target:
            if not size < math.inf:  # an infinite target is met by any estimate
                flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        if floor_sum > target and total_err <= _FLOOR_MARGIN * floor_sum:
            # at the round-off floor: further bisection cannot certify
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        if nsub >= _MAX_BISECTIONS:
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        worst = max(panels, key=itemgetter(0))
        left, right = worst[1], worst[2]
        mid = 0.5 * (left + right)
        if not left < mid < right:
            # panel is at floating-point resolution; cannot refine further
            flag = ConditionFlag.TOLERANCE_NOT_MET
            break
        panels.remove(worst)
        floor_sum -= worst[4]
        for lo, hi in ((left, mid), (mid, right)):
            val, err, floor = _gk15(f, lo, hi)
            panels.append([err, lo, hi, val, floor])
            floor_sum += floor
        evaluations += 30
        nsub += 1

    return IntegralResult(total_val, total_err, evaluations, flag)


def geometric_breakpoints(a: float, b: float) -> list[float]:
    """Panel seeds a*2^k inside (a, b), for many-scale integrands."""
    if not a > 0.0:
        raise ValueError("geometric seeding needs a > 0")
    pts = []
    x = 2.0 * a
    while x < b:
        pts.append(x)
        x *= 2.0
    return pts


def _origin_table(n: int, split: float) -> tuple[float, list[tuple[float, float]], list[float]]:
    # The order's table, grown until its last radius reaches split:
    # (-1)^n/n!, read from the kernel's table of 1/k!; the terms
    # ((-1)^j n!/(n+j)!, j), each rounded once by int/int division; and for
    # each count K the radius radii[K-1], a split at or below which the
    # tail past K terms is at most _UNIT_ROUNDOFF |S| (origin_closed_form).
    # That holds where e^s s^K <= u (n+1)_K and s <= n + K + 1; one Newton
    # step on s + K log s from s0 = (u (n+1)_K)^{1/K}, above the root,
    # lands below it, as the function is concave.
    first = (-1.0) ** n * (_TAYLOR.get(n + 1) or _taylor(n + 1))[0]
    terms, radii = _ORIGIN_TABLES.setdefault(n, (first, [], []))[1:]
    while not radii or radii[-1] < split:
        j = len(terms)
        rising = math.prod(range(n + 1, n + j + 1))  # (n+1)_j
        terms.append(((-1) ** j / rising, float(j)))
        count = j + 1
        rho0 = math.exp((math.log(_UNIT_ROUNDOFF) + math.log(rising * (n + count))) / count)
        radius = rho0 * count / (rho0 + count)
        radii.append(radius if radius < n + count + 1 else n + count + 1)
    return _ORIGIN_TABLES[n]


def origin_closed_form(arg: ArgDecomposition, split: float) -> IntegralResult:
    """int_0^split (e^{-x} - e_{n-1}(-x)) x^{-z} dx, summed term by term.

    The remainder is sum_{k>=n} (-x)^k/k!, and each term integrates to
    t_j = (-1)^k/k! s^{j+b}/(j+b), s = split, j = k - n, b = 1 - frac:
    each exponent is built from n and frac, exact up to one rounding and
    at least b > 0.  So S = (-1)^n s^b/n! sum_j c_j s^j/(j+b) with
    c_j = (-1)^j n!/(n+j)!, one table per order (_origin_table), which
    never leaves the normal range; the sum is Horner's rule in s from the
    last term back, and Horner's rule in -s sums |t_j|.  No evaluations
    are spent.  1/n! is a double for n <= 170 (_MAX_ORDER); a higher order
    raises ValueError.

    The term count K is fixed before the loop.  |R_n(-x)| >= x^n e^{-x}/n!
    on x > 0 (the integral form of the remainder), so |S| >= e^{-s} s^b/(n! b);
    and the terms alternate and fall from K on while s <= n + K + 1, so
    the tail is at most |t_K|, below e^s s^K/(n+1)_K of |S| (as b/(K+b) < 1).
    K is the least count at which that is at most u = 2^-53.

    The error is _ORIGIN_ROUNDING eps sum |t_j|.  For 0 < frac < 1 and
    split <= n + 1, where the terms fall from the first, in units u of
    sum |t_j|: the truncation 1; b's rounding (1 + |log s|); c_j, j + b and
    the division 3; Horner's additions 1, as each partial sum from the
    back is at most its first term, and its products by s 1; s^b (pow, one
    ulp), its product with the sum, 1/n! and the last product 5.  That is
    (6 + |log s|/2) eps, and at split 1, where s^b and every product by s
    are exact, 4 eps; so 8 eps holds the splits in [e^{-4}, n + 1], and
    the package sums at split 1.  Only the last product can leave the
    normal range, at order 170: one subnormal unit.
    """
    n = arg.n
    if n > _MAX_ORDER:
        raise ValueError(f"order {n} is past {_MAX_ORDER}: 1/n! leaves the normal range")
    table = _ORIGIN_TABLES.get(n)
    if table is None or table[2][-1] < split:
        table = _origin_table(n, split)
    first, terms, radii = table
    base, neg = 1.0 - arg.frac, -split
    total = size = 0.0
    for c, j in terms[bisect_left(radii, split)::-1]:
        term = c / (j + base)
        total = total * split + term
        size = size * neg + term  # sum |c_j| s^j/(j+b), as c_j alternates
    power = split**base
    return IntegralResult(power * total * first,
                          _ORIGIN_ROUNDING * _EPMACH * abs(power * size * first) + _SUBNORMAL, 0)


def polynomial_tail_closed_form(
    arg: ArgDecomposition, R: float, delta: float | None = None
) -> IntegralResult:
    """int_R^inf -e_{n-1}(-x) x^{-z} dx, summed term by term.

    Each term integrates to (-1)^k/k! * R^{expo}/expo with expo =
    k - z + 1; every exponent (k - n + 1) - frac is negative because
    k <= n-1, so the sum is finite.  It is built from n and frac, not from
    z, which may carry the rounding of a shift.  The terms can exceed the
    sum by many orders at large z, so their rounding, relative
    eps (|expo| log R + 4) each, is its error.

    Given delta, it is instead Im int_R^inf -e_{n-1}(tau) tau^{-z} dtau
    along the Hankel contour's ray tau = r e^{i delta}: each term carries
    sin(delta expo) in place of (-1)^k, and log R + delta in its rounding.
    The value is 0 for n = 0 (empty polynomial).  No evaluations are spent.
    """
    if not R > 0.0:
        raise ValueError(f"need R > 0, got {R!r}")
    log_R = math.log(R)
    log_tau = log_R if delta is None else log_R + delta  # bounds |log tau| past R
    total = rounding = 0.0
    coeff = 1.0  # 1 / k!
    sign = 1.0  # (-1)^k
    for k in range(arg.n):
        expo = (k - arg.n + 1) - arg.frac
        term = coeff * math.exp(expo * log_R) / expo
        total += term * (sign if delta is None else math.sin(delta * expo))
        rounding += abs(term) * (abs(expo) * log_tau + 4.0)
        coeff *= 1.0 / (k + 1)
        sign = -sign
    return IntegralResult(total, _EPMACH * rounding, 0)


def _flag(value: float | complex, err: float, parts: Sequence, eps_rel: float) -> ConditionFlag:
    """The one flag rule (combine, propagate): ok only if every part is ok
    (None is exact), the value is finite and err <= eps_rel |value|, which
    no NaN meets."""
    size = abs(value)
    if not (math.isfinite(size) and err <= eps_rel * size):
        return _MISSED
    for p in parts:
        if p is not None and p.condition_flag is _MISSED:
            return _MISSED
    return _OK


def combine(parts: Sequence[IntegralResult], eps_rel: float) -> IntegralResult:
    """The sum of the parts of a composite integral, and its flag.

    Values, error estimates and evaluations add up in the order given.  A
    stretch left out under its bound is a part too, of value 0 with the
    bound as its error.  The flag is _flag's: tolerance_not_met if any part
    missed its tolerance, if the summed estimate exceeds eps_rel times the
    sum (the parts can cancel) or if either is not finite; otherwise ok.
    """
    value = err = 0.0
    evaluations = 0
    for part_value, part_err, part_evaluations, _ in parts:
        value += part_value
        err += part_err
        evaluations += part_evaluations
    return IntegralResult(value, err, evaluations, _flag(value, err, parts, eps_rel))


def propagate(
    value: float, parts: Sequence[IntegralResult | None], roundings: int, eps_rel: float
) -> IntegralResult:
    """The record of value, computed from parts by `roundings` roundings.

    The relative errors of the inexact parts add (None marks an exact
    part), and each rounding adds eps = 2^-53 relative and one subnormal
    unit; evaluations add.  The flag is decided by _flag, as in combine.
    A value or a part that underflowed to 0 on the way has an unbounded
    estimate, and a value that overflowed to infinity is never ok.
    """
    rel = 0.0
    evaluations = 0
    for p in parts:
        if p is not None:
            rel += p.abs_error_estimate / abs(p.value) if p.value else math.inf
            evaluations += p.evaluations
    err = math.inf
    if value and rel < math.inf:
        err = abs(value) * (rel + roundings * _UNIT_ROUNDOFF) + roundings * _SUBNORMAL
    return IntegralResult(value, err, evaluations, _flag(value, err, parts, eps_rel))


def _gl15_geometry(lo: float, hi: float, panels: int, half_height: float) -> tuple:
    """The part of Trefethen's bound (ATAP, Thm 19.3) on `panels` equal
    15-point Gauss-Legendre panels on [lo, hi] that depends on the layout
    alone, for an integrand entire in t wherever |Im t| <= half_height
    (_gl15_error evaluates the bound).

    On a panel of half-width h and centre c, take the Bernstein ellipse
    E_rho of that half-height, h (rho - 1/rho)/2 = half_height:
    rho = s + sqrt(s^2 + 1) with s = half_height/h.  Its right end is
    c + h (rho + 1/rho)/2, and the panel's error is at most (64/15) h M
    rho^{-30}/(rho^2 - 1), M = max |f| on the ellipse.  The geometry is
    (h, the first panel's right end lo + h + h (rho + 1/rho)/2, 30 log rho,
    (64/15) h, rho^2 - 1).
    """
    h = (hi - lo) / (2 * panels)
    s = half_height / h
    rho = s + math.sqrt(s * s + 1.0)
    reach = 0.5 * h * (rho + 1.0 / rho)
    return h, lo + h + reach, 30.0 * math.log(rho), 64.0 / 15.0 * h, rho * rho - 1.0


def _gl15_error(geometry: tuple, panels: int, log_m: float, growth: float) -> float:
    """Trefethen's bound on the error of `panels` panels of geometry
    (_gl15_geometry) for an integrand f with |f(t)| <= exp(log_m + growth
    Re t), growth >= 0, on its strip.

    M is reached at the ellipse's right end, and over the panels it grows by
    the factor e^{2 h growth} from one to the next, so their sum is a
    geometric series, summed in closed form.  The bound is formed from its
    logarithm, so neither M nor rho^{-30} over- or underflows on its own.
    """
    h, right, log_decay, scale, denominator = geometry
    step = 2.0 * h * growth
    count = math.expm1(step * panels) / math.expm1(step) if step else panels
    log_first = log_m + growth * right - log_decay
    return scale * count * math.exp(log_first) / denominator


def _gl15_panels(lo: float, hi: float, cap: int, half_height: float, log_m: float,
                 growth: float, target: float) -> tuple[int, float]:
    """The least count of equal 15-point panels on [lo, hi], at most cap,
    whose bound (_gl15_error) meets target, and that bound, which may miss
    target at the cap."""
    panels = 1
    bound = _gl15_error(_gl15_geometry(lo, hi, 1, half_height), 1, log_m, growth)
    while bound > target and panels < cap:
        panels += 1
        bound = _gl15_error(_gl15_geometry(lo, hi, panels, half_height), panels, log_m, growth)
    return panels, bound


def _middle_layouts(split: float, radius: float) -> tuple[tuple, tuple]:
    # real_axis_middle's rule on one and on two equal panels of
    # [log split, log radius]: each as the bound's geometry, whose first
    # element is the half-width h, and the nodes (w_j, t_j, -e^{t_j}),
    # placed panel by panel as the rule sums them
    lo, hi = math.log(split), math.log(radius)
    layouts = []
    for panels in (1, 2):
        geometry = _gl15_geometry(lo, hi, panels, 0.5 * math.pi)
        h = geometry[0]
        nodes = []
        for p in range(panels):
            centre = lo + (2 * p + 1) * h
            for x, w in _GL15:
                t = centre + h * x
                nodes.append((w, t, -math.exp(t)))
        layouts.append((geometry, tuple(nodes)))
    layouts = _MIDDLE_LAYOUTS[split, radius] = tuple(layouts)
    return layouts


def real_axis_middle(arg: ArgDecomposition, eps_rel: float, scale: float) -> IntegralResult:
    """The real-axis route: the stretch [split, R] in t = log x, by a fixed
    15-point Gauss-Legendre rule on one or two equal panels.

    dx = x dt turns the integrand into f(t) = (e^{-x} - e_{n-1}(-x)) x^{1-z}
    at x = e^t, entire in t, so _gl15_error bounds the rule's error in
    closed form.  On the strip |Im t| <= pi/2, Re(-e^t) <= 0, so the
    integral form of the Taylor remainder,
    R_n(w) = w^n/(n-1)! int_0^1 (1-u)^{n-1} e^{uw} du, gives
    |R_n(-e^t)| <= |e^t|^n/n!, and |f| <= e^{(1-frac) Re t}/n!.  The panel
    count is the least whose bound is at most eps_rel * scale, capped at
    two: over n <= 9 and 0 < frac < 1 the bound of two panels
    is at most 2.4e-16 of the origin part (largest as frac -> 0), below
    the rounding of the sum, so no third panel is ever needed.  The
    nodes t_j and -e^{t_j}, and the bound's geometry, depend on the panel
    count, the split and the radius alone: both panel counts are laid out
    once per split and radius, read at call time (_middle_layouts), so
    the bound costs one exp (and an expm1 pair), and each node one
    exp_remainder(-e^{t_j}, n) and one exp((1 - z) t_j), the exponent
    built from n and frac, as in the origin series.  The value is
    h sum_j w_j f(t_j), as it was when the nodes were placed at every call.

    The part is ok; its error is the bound plus the sum's rounding.  f is
    single-signed and the weights positive, so that rounding is relative
    to the sum; it is _GL_ROUNDING eps, and the sum of all parts is still
    checked against the tolerance (combine).
    """
    n, frac = arg.n, arg.frac
    expo = (1 - n) - frac
    split, radius = _SPLIT_POINT, _TAIL_RADIUS
    one, two = _MIDDLE_LAYOUTS.get((split, radius)) or _middle_layouts(split, radius)
    log_m, growth = -math.lgamma(n + 1), 1.0 - frac
    panels, (geometry, nodes) = 1, one
    bound = _gl15_error(geometry, 1, log_m, growth)
    if bound > eps_rel * scale:
        panels, (geometry, nodes) = 2, two
        bound = _gl15_error(geometry, 2, log_m, growth)
    h = geometry[0]
    total = 0.0
    for w, t, x in nodes:
        total += w * exp_remainder(x, n) * math.exp(expo * t)
    value = h * total
    return IntegralResult(value, bound + _GL_ROUNDING * _EPMACH * abs(value), 15 * panels)


def power_subst_middle(arg: ArgDecomposition, eps_rel: float, scale: float) -> IntegralResult:
    """The power-substitution route: [split, R] in v = (x^z - 1)/z, the
    power substitution u = x^z shifted and scaled, by the adaptive engine
    within eps_rel of the stretch itself (scale is not needed).

    There the integrand is x^{1-2z} (e^{-x} - e_{n-1}(-x)), with
    log x = log1p(z v)/z, over [expm1(z log split)/z, expm1(z log R)/z].
    Unlike u, which crowds into a sliver next to 1 as z -> 0, v keeps the
    width of the stretch exact; the map is affine in u, so the panels are
    those of u, seeded geometrically.
    """
    n, z = arg.n, arg.z
    expo = 1.0 - 2.0 * z

    def middle(v: float) -> float:
        log_x = math.log1p(z * v) / z
        return exp_remainder(-math.exp(log_x), n) * math.exp(expo * log_x)

    split, R = _SPLIT_POINT, _TAIL_RADIUS
    lo, hi = (math.expm1(z * math.log(x)) / z for x in (split, R))
    seeds = [(u - 1.0) / z for u in geometric_breakpoints(split**z, R**z)]
    return integrate_finite(middle, lo, hi, QuadratureConfig(eps_rel), seeds)


def log_form_middle(arg: ArgDecomposition, eps_rel: float, scale: float) -> IntegralResult:
    """The log-form route: [split, R] folded onto the unit interval by
    u = e^{-x}, by the adaptive engine within eps_rel of the stretch itself
    (scale is not needed).

    With x = -log u, dx = -du/u, the integrand is
    (e^{-x} - e_{n-1}(-x)) x^{-z} / u over [e^{-R}, e^{-split}]: the
    kernel's exponential remainder, as on the other routes.  The exponent
    -z is built from n and frac, as in the origin series.
    """
    n, expo = arg.n, -arg.n - arg.frac

    def middle(u: float) -> float:
        x = -math.log(u)
        return exp_remainder(-x, n) * math.exp(expo * math.log(x)) / u

    u1, u0 = math.exp(-_SPLIT_POINT), math.exp(-_TAIL_RADIUS)
    seeds = geometric_breakpoints(u0, u1)
    return integrate_finite(middle, u0, u1, QuadratureConfig(eps_rel), seeds)


def integrate_regularized_kernel(
    arg: ArgDecomposition,
    cfg: QuadratureConfig,
    middle: Callable[[ArgDecomposition, float, float], IntegralResult],
) -> IntegralResult:
    """I(z) = int_0^inf (e^{-x} - e_{n-1}(-x)) x^{-z} dx with n = arg.n.

    origin_closed_form sums the stretch [0, split].  middle states a
    route's change of variables: it returns the part that covers x in
    [split, R] within half the tolerance, relative to the origin part's
    magnitude where it needs a scale.  The closed-form polynomial tail and
    the bound on the exponential tail follow it, in that order, and the
    sum is checked against the whole of the tolerance.

    arg.frac must lie in (0, 1), as decompose and the raised order of
    cauchy_saalschutz build it, and arg.n at most 170, where 1/n! is still
    a normal double (the routes take n <= 9); any other arg raises
    ValueError.
    """
    if not 0.0 < arg.frac < 1.0:
        raise ValueError(f"need 0 < frac < 1, got {arg!r}")
    origin = origin_closed_form(arg, _SPLIT_POINT)
    parts = [
        origin,
        # half a subnormal tolerance may round to 0: it is then the least
        # positive double, which the middle stretch cannot meet either
        middle(arg, max(cfg.eps_rel / 2.0, _SUBNORMAL), abs(origin.value)),
        polynomial_tail_closed_form(arg, _TAIL_RADIUS),
        # int_R^inf e^{-x} x^{-z} dx <= e^{-R} R^{-z}, left out
        IntegralResult(0.0, math.exp(-_TAIL_RADIUS - arg.z * math.log(_TAIL_RADIUS)), 0),
    ]
    return combine(parts, cfg.eps_rel)
