import cmath
import math
import random
import sys

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regamma import hankel, kernel, quadrature
from regamma.errors import ContourDegenerate, IntegerArgument
from regamma.gamma_core import (
    MethodTag,
    gamma,
    hankel_recip_gamma,
    inverse_laplace,
    inverse_laplace_monomial,
    recip_gamma,
)
from regamma.hankel import HankelContour, arc_contribution, ray_kernel
from regamma.kernel import ArgDecomposition, decompose, sinpi
from regamma.quadrature import (
    ConditionFlag,
    QuadratureConfig,
    geometric_breakpoints,
    integrate_finite,
    origin_closed_form,
)

CFG = QuadratureConfig()
REFERENCE_CONTOUR = HankelContour(delta=0.75 * math.pi, r0=0.5)


def node_pair(r: float, theta: float, z: float, n: int) -> tuple[complex, float]:
    """ray_kernel at tau = r e^{i theta}, with the constants a ray holds."""
    return ray_kernel(r, math.log(r), theta, cmath.rect(1.0, theta), z, n,
                      math.lgamma(n + 1), hankel._phases(theta, z, n))


def node(r: float, theta: float, z: float, n: int) -> complex:
    """The node's value alone."""
    return node_pair(r, theta, z, n)[0]


def ray_difference_kernel(r: float, delta: float, z: float, n: int) -> complex:
    """Closed form of node(r, delta, z, n) - node(r, -delta, z, n).

    The difference of the two ray integrands collapses to a purely
    imaginary combination of one exponential-cosine term and two short
    trigonometric-weighted polynomial sums; as delta -> pi it reduces to
    -2i sin(pi z) (e^{-r} - e_{n-1}(-r)) / r^z.
    """
    s_cos = 0.0
    s_sin = 0.0
    term = 1.0  # r^k / k!
    for k in range(n):
        s_cos += math.cos(delta * k) * term
        s_sin += math.sin(delta * k) * term
        term *= r / (k + 1)
    bracket = (
        math.exp(math.cos(delta) * r) * math.sin(delta * z - math.sin(delta) * r)
        - s_cos * math.sin(delta * z)
        + s_sin * math.cos(delta * z)
    )
    return complex(0.0, -2.0 * bracket * math.exp(-z * math.log(r)))


def fitted_arc_exponent(z, radii, order=None):
    mags = [
        abs(arc_contribution(z, HankelContour(r0=r0), order=order))
        for r0 in radii
    ]
    return (math.log(mags[0]) - math.log(mags[-1])) / (
        math.log(radii[0]) - math.log(radii[-1])
    )


class TestHankelRecipGamma:
    def test_half(self):
        gv = hankel_recip_gamma(0.5, REFERENCE_CONTOUR, CFG)
        assert gv.value == pytest.approx(0.56418958354775628695, rel=1e-8)
        assert gv.condition_flag is ConditionFlag.OK

    def test_matches_real_axis_at_five_halves(self):
        gv = hankel_recip_gamma(2.5, REFERENCE_CONTOUR, CFG)
        ref = recip_gamma(2.5, CFG).value
        assert abs(gv.value - ref) <= 1e-6
        assert gv.condition_flag is ConditionFlag.OK

    def test_arc_radius_invariance(self):
        a = hankel_recip_gamma(1.5, HankelContour(r0=0.5), CFG)
        b = hankel_recip_gamma(1.5, HankelContour(r0=1.0), CFG)
        assert abs(a.value - b.value) <= 1e-8

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.3])
    def test_contour_invariance(self, z):
        vals = [
            hankel_recip_gamma(z, HankelContour(delta=delta, r0=r0), CFG).value
            for delta in (2.0, 2.5, 3.0)
            for r0 in (0.25, 0.5, 1.0)
        ]
        spread = max(vals) - min(vals)
        assert spread <= 10.0 * CFG.eps_rel * abs(vals[0])

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.3])
    def test_real_axis_agreement(self, z):
        gv = hankel_recip_gamma(z, HankelContour(), CFG)
        assert abs(gv.value - recip_gamma(z, CFG).value) <= 1e-6
        assert gv.condition_flag is ConditionFlag.OK

    def test_integer_rejected(self):
        with pytest.raises(IntegerArgument):
            hankel_recip_gamma(2.0, REFERENCE_CONTOUR, CFG)

    def test_degenerate_contours_rejected(self):
        with pytest.raises(ContourDegenerate):
            hankel_recip_gamma(0.5, HankelContour(delta=0.3), CFG)
        with pytest.raises(ContourDegenerate):
            hankel_recip_gamma(0.5, HankelContour(r0=-1.0), CFG)
        with pytest.raises(ContourDegenerate):
            hankel_recip_gamma(0.5, HankelContour(r0=math.inf), CFG)
        # 0.01^-155.5 overflows
        with pytest.raises(ContourDegenerate):
            hankel_recip_gamma(155.5, HankelContour(r0=0.01), CFG)

    @pytest.mark.parametrize("z", [0.5, 2.5, 100.5, 170.5, 172.5])
    def test_arc_radius_whose_terms_overflow_is_refused(self, z):
        # the arc's terms sum to e^{r0} r0^{1-z} at most, and its series
        # scales them by 2^s, s = 20 at n = 170 and 31 at n = 172.  At r0 = 700 and
        # z = 0.5 the arc's rule raised a bare OverflowError; at z = 170.5 a
        # radius whose unscaled bound fits overflowed the scaled terms.  Up
        # to the radius where the scaled bound is an eighth of the largest
        # double the result is returned, finite and flagged; one double past
        # it the contour is refused.
        n = math.floor(z)
        shift = max(0, math.factorial(n).bit_length() - 1000)

        def excess(r0):
            log_r0 = math.log(r0)
            log_sum = r0 + (1.0 - z) * log_r0 + min(0.0, n * log_r0 - math.lgamma(n + 1))
            return (log_sum + shift * math.log(2.0)
                    - (math.log(sys.float_info.max) - math.log(8.0)))

        r0 = 700.0
        for _ in range(50):  # Newton's method on excess(r0) = 0
            r0 -= excess(r0) / (1.0 + (1.0 - z) / r0)
        while excess(r0) > 0.0:
            r0 = math.nextafter(r0, 0.0)
        while excess(math.nextafter(r0, math.inf)) <= 0.0:
            r0 = math.nextafter(r0, math.inf)
        gv = hankel_recip_gamma(z, HankelContour(r0=r0), CFG)
        assert math.isfinite(gv.value)
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert math.isfinite(arc_contribution(z, HankelContour(r0=r0)))
        past = math.nextafter(r0, math.inf)
        with pytest.raises(ContourDegenerate, match="too large"):
            hankel_recip_gamma(z, HankelContour(r0=past), CFG)
        with pytest.raises(ContourDegenerate, match="too large"):
            arc_contribution(z, HankelContour(r0=past))

    def test_carries_contour_diagnostics(self):
        # the rounding of the nodes alone, about 4.4e-15 of the value,
        # exceeds the tolerance, and the default contour returns the same
        # result
        cfg = QuadratureConfig(eps_rel=1e-15)
        gv = hankel_recip_gamma(2.5, HankelContour(), cfg)
        assert gv.method is MethodTag.HANKEL
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gv.quadrature.evaluations > 0
        assert hankel_recip_gamma(2.5, cfg=cfg) == gv

    def test_tight_tolerance_within_its_estimate(self):
        # at 1e-14 the rounding bound is below the tolerance: ok, and the
        # value lies within its estimate
        gv = hankel_recip_gamma(2.5, HankelContour(), QuadratureConfig(eps_rel=1e-14))
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(2.5)) <= gv.quadrature.abs_error_estimate

    @pytest.mark.parametrize("z,eps", [(2.5, 1e-200), (1e-200, 1e-8)])
    def test_ray_past_its_panel_budget_is_flagged(self, z, eps):
        # no panel count up to the cap meets the tolerance: the ray is
        # summed at the cap, its bound in the estimate, which flags the sum
        gv = hankel_recip_gamma(z, cfg=QuadratureConfig(eps_rel=eps))
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert math.isfinite(gv.value)

    @pytest.mark.parametrize(
        "z,contour",
        [(1e-300, HankelContour()), (2.5, HankelContour(delta=0.5 * math.pi + 1e-3))],
    )
    def test_panel_cap_bounds_the_cost(self, z, contour):
        # the ray's tolerance at z = 1e-300, and its ellipse of half-height
        # 1e-3, need more than _PANEL_CAP panels: flagged at the cap's cost,
        # 15 nodes per panel of the ray alone (the arc is a series)
        gv = hankel_recip_gamma(z, contour, CFG)
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert math.isfinite(gv.value)
        assert gv.quadrature.evaluations <= 15 * hankel._PANEL_CAP

    @pytest.mark.parametrize(
        "z,delta,r0",
        [
            (151.90246190097963, 1.6610319386171322, 13.759083849751093),
            (169.28270472045682, 1.7016317544174604, 0.165722835065919),
        ],
    )
    def test_direct_path_past_the_underflow(self, z, delta, r0):
        # far out on the ray tau^{-z} leaves the normal range where the
        # integrand does not; formed apart, it underflowed to 0, and these
        # calls were 1.9% and 3.3% off, flagged ok at eps 1e-2
        contour = HankelContour(delta=delta, r0=r0)
        gv = hankel_recip_gamma(z, contour, QuadratureConfig(eps_rel=1e-2))
        with mpmath.workdps(30):
            err = abs(gv.value - mpmath.rgamma(z))
            assert err <= gv.quadrature.abs_error_estimate
            assert err <= 1e-2 * mpmath.rgamma(z)

    @pytest.mark.parametrize(
        "r,delta,z,n,rel",
        [
            # tau^{-170.5} is below the least double at r = 90; the product
            # is not.  The direct path's difference cancels 13 digits there.
            (90.0, 2.0, 170.5, 170, 1e-2),
            # e_{128}(tau) overflows at r = 4e4, where the product is about
            # 8e-224; formed apart, the difference was NaN
            (4e4, 1.572518129393122, 129.62734800076282, 129, 1e-12),
        ],
    )
    def test_ray_kernel_past_the_normal_range(self, r, delta, z, n, rel):
        value = node(r, delta, z, n)
        with mpmath.workdps(400):
            tau = r * mpmath.expj(delta)
            poly = mpmath.fsum(tau**k / mpmath.factorial(k) for k in range(n))
            ref = complex((mpmath.exp(tau) - poly) * tau ** -mpmath.mpf(z))
        assert value != 0 and cmath.isfinite(value)
        assert abs(value - ref) <= rel * abs(ref)

    def test_large_z_polynomial_tail_rounding_is_flagged(self):
        # past R the polynomial terms reach 9.8e-230 against a value of
        # 6.4e-243, and their rounding left the value 1.7% off
        gv = hankel_recip_gamma(141.5, HankelContour(), QuadratureConfig())
        assert gv.condition_flag is not ConditionFlag.OK

    @pytest.mark.parametrize("z", [209.51, 1000.5, 209.26])
    def test_past_the_range_of_recip_gamma_is_flagged(self, z):
        # every part underflows: the sum was -0.0, 0.0 and 5e-324 with
        # estimate 0, the first two flagged ok at relative error 1.  Over pi
        # it is one counted rounding, and a zero's estimate is unbounded.
        gv = hankel_recip_gamma(z, HankelContour(), QuadratureConfig())
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(z)) <= gv.quadrature.abs_error_estimate

    @pytest.mark.parametrize("z", [1000.5, 172.5, 174.5])
    def test_past_the_range_of_recip_gamma_evaluates_no_node(self, monkeypatch, z):
        # no value there can be ok, so none is summed: the contour took 30
        # ray_kernel calls to return 0.0, flagged, at z = 1000.5.  From order
        # 172 the kernel has no table of 1/k!, as 1/(n-1)! is subnormal, so
        # the contour stops there too, below Stirling's cutoff (about 174.8
        # at eps 1e-8): at 172.5 it returned -6.8e-269, flagged, where
        # 1/Gamma is about 6e-311
        calls = []

        def spy(*args):
            calls.append(args)
            return ray_kernel(*args)

        monkeypatch.setattr(hankel, "ray_kernel", spy)
        gv = hankel_recip_gamma(z, HankelContour(), QuadratureConfig(1e-8))
        assert calls == []
        assert gv.value == 0.0 and gv.quadrature.evaluations == 0
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gv.quadrature.abs_error_estimate == math.inf

    @pytest.mark.parametrize(
        "z,delta,r0",
        [
            # both segments at the panel cap, 1,920 nodes that cancel to about
            # 1e-15: one running sum was 1.02 times its estimate off
            (5.182978043746467e-93, 2.2197414563978013, 1.005509901698909),
            # a heavy node just past the series radius (74) on the ray: the
            # closed-form count of the cancelled terms left it 1.17 times its
            # estimate off
            (148.84798684830074, 1.9002864548519747, 0.22505602237961908),
        ],
    )
    def test_within_its_estimate_where_rounding_dominates(self, z, delta, r0):
        gv = hankel_recip_gamma(z, HankelContour(delta, r0), QuadratureConfig(1e-12))
        with mpmath.workdps(40):
            err = abs(gv.value - mpmath.rgamma(z))
        assert err <= gv.quadrature.abs_error_estimate


def _node_cases():
    """Nodes (r, theta, power, n, cancelling share) of ray_kernel at
    n = 0...9 and 60...170 (power z - 1): on the contour's ray, and off it
    at theta in [0, delta), where the direct path's terms all add and the
    share is 1 + n/8 (measured: up to 7 at n = 80 to 120; no node of the
    contour lies there); and rays where
    z log|tau| passes the kernel's overflow threshold (power z)."""
    rng = random.Random(29)
    cases = []
    for n in list(range(10)) + list(range(60, 171, 10)):
        power = n + rng.uniform(0.01, 0.99) - 1.0
        delta = rng.uniform(1.6, 3.1)
        r = math.exp(rng.uniform(math.log(0.05), math.log(max(4.0, 2.0 * n))))
        cases.append((r, delta, power, n, hankel._RAY_CANCELLATION))
        cases.append((rng.uniform(0.05, 2.5), rng.uniform(0.0, delta), power, n, 1.0 + n / 8.0))
    for _ in range(8):
        n = rng.randint(100, 170)
        power = n + rng.uniform(0.01, 0.99)
        r = math.exp(rng.uniform(720.0 / power, math.log(3000.0)))
        cases.append((r, rng.uniform(1.58, 3.1), power, n, hankel._RAY_CANCELLATION))
    return cases


class _SeriesTaken(Exception):
    pass


def kernel_takes_series(r: float, n: int) -> bool:
    """Whether kernel.exp_remainder takes its series at |x| = r, order n >= 1:
    it is called at x = -r, where its direct path cannot overflow, with
    kernel._ratio_series replaced by a spy.  An OverflowError is the series
    path too: it forms x^n before it calls the series, and 85^170
    overflows."""
    def spy(x, m):
        raise _SeriesTaken

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_ratio_series", spy)
        try:
            kernel.exp_remainder(-r, n)
        except (_SeriesTaken, OverflowError):
            return True
    return False


def _direct_path_nodes():
    """Nodes (r, theta, power, n) of ray_kernel on its direct path, as a
    ray passes them: n = 20...161, |tau| uniform in (max(1, n/2), 1.3 n),
    arg tau in (1.6, pi), power = n + U(0.01, 0.99) - 1.  About a tenth
    lie past the threshold z log r > log(largest double) - 10."""
    rng = random.Random(41)
    cases = []
    for _ in range(1100):
        n = rng.randint(20, 161)
        r = rng.uniform(max(1.0, 0.5 * n), 1.3 * n)
        theta = rng.uniform(1.6, math.pi)
        cases.append((r, theta, n + rng.uniform(0.01, 0.99) - 1.0, n))
    return cases


def _past_range_nodes():
    """Nodes (r, theta, z, n) of ray_kernel past its threshold z log r >
    log(largest double) - 10, drawn at n = 60...171, z = n + U(0.001,
    0.999), arg tau in (pi/2 + 1e-3, pi), every other draw within 0.1 of
    pi/2, and r log-uniform up to 3e4 from the threshold or n/2."""
    rng = random.Random(40)
    cases = []
    while len(cases) < 400:
        n = rng.randint(60, 171)
        z = n + rng.uniform(0.001, 0.999)
        lo = max(0.5 * n, math.exp((hankel._LOG_FLOAT_MAX - 10.0) / z))
        if lo >= 3e4:
            continue
        if len(cases) % 2:
            theta = rng.uniform(0.5 * math.pi + 1e-3, 0.5 * math.pi + 0.1)
        else:
            theta = rng.uniform(0.5 * math.pi + 1e-3, math.pi)
        cases.append((math.exp(rng.uniform(math.log(lo), math.log(3e4))), theta, z, n))
    return cases


class TestNodeRounding:
    def test_past_the_normal_range_within_its_charge(self):
        # past the threshold the node is exp(tau - z log tau) minus
        # exp((n - 1 - z) log tau) times e_{n-1}(tau)/tau^{n-1}, the kernel's
        # table of 1/k! by Horner's rule in 1/tau.  Measured over these 400
        # nodes, 390 of them normal: at most 8.1 eps of max(moduli, |node|)
        # and 0.23 of the ray's charge (a falling-factorial sum in 1/tau
        # with log (n-1)! in its exponent reached 698 eps and 0.41)
        checked = 0
        for r, theta, z, n in _past_range_nodes():
            value = node(r, theta, z, n)
            with mpmath.workdps(60):
                tau = mpmath.mpf(r) * mpmath.expj(theta)
                ref = mpmath.hyp1f1(1, n + 1, tau) * mpmath.exp(
                    (n - mpmath.mpf(z)) * mpmath.log(tau) - mpmath.loggamma(n + 1))
                terms = float(mpmath.fsum(mpmath.mpf(r) ** k / mpmath.factorial(k)
                                          for k in range(n)) * mpmath.mpf(r) ** -mpmath.mpf(z))
                err = float(abs(value - ref))
                ref = complex(ref)
            if abs(ref) < sys.float_info.min or terms < sys.float_info.min:
                continue
            log_tau = abs(complex(math.log(r), theta))
            charge = ((hankel._NODE_ROUNDING + z * log_tau + 2.0 * math.lgamma(n + 1)) * abs(ref)
                      + hankel._RAY_CANCELLATION * terms)
            assert err <= 16 * sys.float_info.epsilon * max(terms, abs(ref)), (r, theta, z, n)
            assert err <= sys.float_info.epsilon * charge, (r, theta, z, n)
            checked += 1
        assert checked > 350

    @pytest.mark.parametrize("r,theta,z,n,share", _node_cases())
    def test_node_counts_what_its_direct_path_cancels(self, r, theta, z, n, share):
        # the second entry is e_{n-1}(r) r^{-z} on the direct path, from the
        # loop that forms e_{n-1}(tau) or, past the normal range, from the
        # Horner sum in 1/r; at order 0 and on the series path nothing
        # cancels.  Like the node, the count rounds in its exponents: measured
        # at most a quarter of the node's own budget, 276 eps at n = 105
        count = node_pair(r, theta, z, n)[1]
        if not n or kernel_takes_series(r, n):
            assert count == 0.0
            return
        with mpmath.workdps(40):
            r_mp = mpmath.mpf(r)
            ref = mpmath.fsum(r_mp**k / mpmath.factorial(k) for k in range(n))
            ref = float(ref * r_mp ** -mpmath.mpf(z))
        budget = hankel._NODE_ROUNDING + z * abs(math.log(r)) + 2.0 * math.lgamma(n + 1)
        assert ref > 0.0
        assert abs(count - ref) <= sys.float_info.epsilon * budget * ref

    @pytest.mark.parametrize("r,theta,z,n,share", _node_cases())
    def test_within_the_budget_its_ray_charges(self, r, theta, z, n, share):
        # _ray charges (_NODE_ROUNDING + z |log tau| + 2 lgamma(n + 1))
        # eps of |node|, and on the direct path eps times the cancelling
        # share of e_{n-1}(r) r^{-z}; measured at most half of that
        value = node(r, theta, z, n)
        with mpmath.workdps(40):
            tau = mpmath.mpf(r) * mpmath.expj(theta)
            ref = mpmath.hyp1f1(1, n + 1, tau) * mpmath.exp(
                (n - mpmath.mpf(z)) * mpmath.log(tau) - mpmath.loggamma(n + 1))
            terms = 0.0
            if n and not kernel_takes_series(r, n):
                terms = float(mpmath.fsum(mpmath.mpf(r) ** k / mpmath.factorial(k)
                                          for k in range(n)) * mpmath.mpf(r) ** -mpmath.mpf(z))
            err = float(abs(value - ref))
            ref = complex(ref)
        log_tau = abs(complex(math.log(r), theta))
        budget = (hankel._NODE_ROUNDING + z * log_tau + 2.0 * math.lgamma(n + 1)) * abs(ref)
        assert err <= sys.float_info.epsilon * (budget + share * terms)

    def test_ray_cancellation_holds_on_a_seeded_search(self):
        # beside the node's own budget, _ray charges _RAY_CANCELLATION eps
        # of e_{n-1}(r) r^{-z}, the moduli that the direct path cancels.
        # The constant is read here at call time, so a cut one fails: over
        # these 1,100 nodes the cancelling share reached 0.107, and 8 nodes
        # needed more than 0.09
        eps = sys.float_info.epsilon
        checked = 0
        for r, theta, z, n in _direct_path_nodes():
            assert not kernel_takes_series(r, n)
            value = node(r, theta, z, n)
            with mpmath.workdps(40):
                tau = mpmath.mpf(r) * mpmath.expj(theta)
                ref = mpmath.hyp1f1(1, n + 1, tau) * mpmath.exp(
                    (n - mpmath.mpf(z)) * mpmath.log(tau) - mpmath.loggamma(n + 1))
                err = float(abs(value - ref))
                ref = complex(ref)
            # e_{n-1}(r) r^{-z}: a sum of positive terms, a scale to a few eps
            term, total = 1.0, 1.0
            for k in range(1, n):
                term *= r / k
                total += term
            terms = math.exp(math.log(total) - z * math.log(r))
            if abs(ref) < sys.float_info.min or terms < sys.float_info.min:
                continue
            log_tau = abs(complex(math.log(r), theta))
            budget = (hankel._NODE_ROUNDING + z * log_tau + 2.0 * math.lgamma(n + 1)) * abs(ref)
            assert err <= eps * (budget + hankel._RAY_CANCELLATION * terms), (r, theta, z, n)
            checked += 1
        assert checked > 1000

    def test_ray_sum_rounds_once(self, monkeypatch):
        # the weighted nodes are added exactly and rounded once, whatever
        # the node count: the first and third weighted nodes, wc w1 and
        # -(w1 wc), cancel exactly, and a running sum loses the second,
        # w1 tiny, to the first
        (_, wc), (_, w1) = quadrature._GL15[:2]
        tiny = 1e-17
        assert wc * w1 + w1 * tiny - w1 * wc == 0.0
        imags = iter([w1, tiny, -wc] + [0.0] * 12)
        monkeypatch.setattr(hankel, "ray_kernel", lambda *args: (complex(0.0, next(imags)), 0.0))
        contour = HankelContour(r0=1.0)
        R = 8.0
        res = hankel._ray(decompose(0.5), contour, R, math.inf)
        assert res.evaluations == 15
        assert res.value == (math.log(R) - math.log(contour.r0)) / 2 * (w1 * tiny)


class TestSeriesRadius:
    """ray_kernel takes the series exactly where the kernel does, at
    r <= max(1, n/2), which both write as two comparisons."""

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 20, 170])
    def test_series_exactly_where_the_kernel_takes_it(self, n):
        # on the series path nothing cancels, so the count is 0.0; on the
        # direct path it is e_{n-1}(r) r^{-z} > 0
        theta, z = 2.5, n + 0.5
        for edge in (1.0, 0.5 * n):
            for r in (edge, math.nextafter(edge, math.inf)):
                series = kernel_takes_series(r, n)
                assert series == (r <= max(1.0, 0.5 * n))
                count = node_pair(r, theta, z, n)[1]
                if series:
                    assert count == 0.0
                else:
                    assert count > 0.0
        # up to the larger edge the series, one double past it the direct path
        radius = 0.5 * n if n > 2 else 1.0
        past = math.nextafter(radius, math.inf)
        assert node_pair(radius, theta, z, n)[1] == 0.0
        assert not kernel_takes_series(past, n)
        assert node_pair(past, theta, z, n)[1] > 0.0


class TestRayDifferenceKernel:
    def test_closed_form_at_delta_pi(self):
        # collapses to -2i e^{-1} at r=1, z=0.5, n=0
        cv = ray_difference_kernel(1.0, math.pi, 0.5, 0)
        assert cv.real == 0.0
        assert cv.imag == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("r", [0.2, 1.0, 3.7])
    def test_integer_z_structure_at_delta_pi(self, r):
        # at delta = pi every surviving term carries sin(pi z) = 0
        cv = ray_difference_kernel(r, math.pi, 2.0, 2)
        assert abs(cv.imag) <= 1e-12

    @pytest.mark.parametrize(
        "r,delta,z,n",
        [(0.7, 2.9, 1.5, 1), (0.4, 2.2, 2.5, 2), (2.3, 3.0, 0.5, 0)],
    )
    def test_matches_direct_ray_difference(self, r, delta, z, n):
        direct = node(r, delta, z, n) - node(r, -delta, z, n)
        assert ray_difference_kernel(r, delta, z, n) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.5, 7.0])
    def test_conjugate_symmetry_pointwise(self, r):
        # the lower-ray integrand is exactly the conjugate of the upper one
        upper = node(r, 2.7, 1.5, 1)
        lower = node(r, -2.7, 1.5, 1)
        assert lower == upper.conjugate()


class TestArcContribution:
    @pytest.mark.parametrize("z", [0.5, 1.5])
    def test_vanishing_rate(self, z):
        frac = z - math.floor(z)
        slope = fitted_arc_exponent(z, (1e-1, 1e-2, 1e-3))
        assert abs(slope - (1.0 - frac)) <= 0.1

    def test_small_radius_bound(self):
        # |arc(r0)| <= C r0^{1-frac} with C measured at the reference radius
        frac = 0.5
        ref = arc_contribution(0.5, HankelContour(r0=1e-1))
        C = abs(ref) / (1e-1) ** (1.0 - frac)
        small = arc_contribution(0.5, HankelContour(r0=1e-2))
        assert abs(small) <= 2.0 * C * (1e-2) ** (1.0 - frac)

    def test_unregularized_arc_does_not_vanish(self):
        slope = fitted_arc_exponent(1.5, (1e-1, 1e-2, 1e-3), order=0)
        assert slope <= 0.0

    @staticmethod
    def arc_draws(seed, count):
        """(z, delta, r0): n = [z] uniform in 0...170, r0 log-uniform in
        (0.025, 25), delta in (pi/2, pi); the first is the arc of radius
        0.025 at z = 108.03, where r0^n/n! alone underflows and the arc,
        about 7e-177, does not."""
        rng = random.Random(seed)
        draws = [(108.03125, 1.6875, 0.025390625)]
        while len(draws) < count:
            z = rng.randint(0, 170) + rng.uniform(0.001, 0.999)
            r0 = math.exp(rng.uniform(math.log(0.025), math.log(25.0)))
            draws.append((z, rng.uniform(0.5 * math.pi, math.pi), r0))
        return draws

    @staticmethod
    def series(z, n, r0, delta, dps):
        """sum_{k>=n} r0^a sin(a delta) / (a k!), a = k + 1 - z, the
        imaginary parts of the arc's terms, at dps digits, and the sum of
        their moduli, as mpf."""
        with mpmath.workdps(dps):
            r, ref, moduli, k = mpmath.mpf(r0), mpmath.mpf(0), mpmath.mpf(0), n
            factor = r ** (n + 1 - mpmath.mpf(z)) / mpmath.factorial(n)  # r0^a / k!
            while k < n + 40 or k < 3 * r0 + 40:
                a = k + 1 - mpmath.mpf(z)
                term = factor * mpmath.sin(a * delta) / a
                ref += term
                moduli += abs(term)
                k += 1
                factor *= r / k
        return ref, moduli

    @pytest.mark.parametrize("order", [None, 0])
    def test_series_within_its_estimate(self, order):
        # On |tau| = r0 the remainder at the order is sum_{k>=order} tau^k/k!,
        # so the arc is (1/pi) sum_{k>=order} r0^a sin(a delta) / (a k!) with
        # a = k + 1 - z, in closed form, against the same series at 60 digits.
        # The estimate holds the error and stays small beside the terms'
        # moduli: at order 0, |b| (delta + |log r0|) eps with b = 1 - z takes
        # it to 6.4e-13 of them at z = 169.4 (6.2e-15 at the order [z])
        limit = 1e-13 if order is None else 1e-12
        for z, delta, r0 in self.arc_draws(36, 120):
            n = math.floor(z) if order is None else order
            res = hankel._arc_series(ArgDecomposition(z, n, z - n), r0, delta)
            assert arc_contribution(z, HankelContour(delta, r0), order) == res.value / math.pi
            ref, moduli = self.series(z, n, r0, delta, 60)
            err = float(abs(res.value - ref))
            assert res.value != 0.0
            assert err <= res.abs_error_estimate <= limit * float(moduli), (z, delta, r0, order)

    def test_next_to_an_integer_below_the_order(self):
        # Below the order [z], the term whose a = k + 1 - z lies next to 0
        # took sin(a delta) from the running product's phase, so its
        # imaginary part, about delta r0^a / k!, kept only the digits of
        # a / (k eps): at z = 5 + 1e-10, r0 = 3, delta = 2.4, order 0 the
        # arc was 6.1e-7 off, within an estimate of 2.9e-5 of it.  Formed
        # directly, every draw is within its estimate, which is within
        # 1e-12 of the sum of the terms' imaginary parts.
        rng = random.Random(37)
        draws = [(5.0 + 1e-10, 0, 3.0, 2.4)]
        while len(draws) < 60:
            z = rng.randint(1, 30) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.0, -3.0)
            r0 = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
            draws.append((z, rng.randrange(math.floor(z)), r0, rng.uniform(0.5 * math.pi, math.pi)))
        for z, n, r0, delta in draws:
            res = hankel._arc_series(ArgDecomposition(z, n, z - n), r0, delta)
            ref, moduli = self.series(z, n, r0, delta, 50)
            err = float(abs(res.value - ref))
            assert err <= res.abs_error_estimate <= 1e-12 * float(moduli), (z, n, r0, delta)
        z, n, r0, delta = draws[0]
        assert arc_contribution(z, HankelContour(delta, r0), n) == pytest.approx(
            float(self.series(z, n, r0, delta, 50)[0] / mpmath.pi), rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_arc_at_pi_is_sinpi_times_the_real_line(self, seed):
        # at delta = pi each term's sin(pi a) is (-1)^k sinpi(z): the paper's
        # equivalence of the two representations, on the origin's part; the
        # two sums differ by their estimates and sinpi's rounding at most
        rng = random.Random(seed)
        for _ in range(50):
            z = math.exp(rng.uniform(math.log(1e-3), math.log(170.0)))
            if z == math.floor(z):
                continue
            arg, r = decompose(z), math.exp(rng.uniform(math.log(0.05), math.log(4.0)))
            arc, line = hankel._arc_series(arg, r, math.pi), origin_closed_form(arg, r)
            s = sinpi(z)
            bound = arc.abs_error_estimate + abs(s) * line.abs_error_estimate
            assert abs(arc.value - s * line.value) <= bound + 4e-16 * abs(s * line.value), (z, r)

    @pytest.mark.parametrize("order", [-1, -3])
    def test_negative_order_rejected(self, order):
        with pytest.raises(ValueError):
            arc_contribution(2.5, order=order)


class TestKernelSeesRealArguments:
    """The contour's complex remainder never goes through the public kernel.

    perfbench's tracer rebinds exp_remainder and kernel_ratio in every
    regamma namespace and stores their first argument in an array of
    doubles, so a complex argument there would break a traced run.
    """

    def test_first_arguments_are_floats(self, monkeypatch):
        seen = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "regamma" or name.startswith("regamma."))]
        for fname in ("exp_remainder", "kernel_ratio"):
            fn = getattr(kernel, fname)

            def spy(x, n, fn=fn):
                seen.append(x)
                return fn(x, n)

            for module in modules:
                if module.__dict__.get(fname) is fn:
                    monkeypatch.setattr(module, fname, spy)
        for z in (1e-12, 0.5, 2.5, 7.7):
            hankel_recip_gamma(z, HankelContour(), CFG)
            arc_contribution(z, HankelContour())
            arc_contribution(z, HankelContour(), order=0)
            recip_gamma(z, CFG, MethodTag.HANKEL)
        inverse_laplace(1.5, 2.0, cfg=CFG)  # its Gamma(k+1) calls the kernel
        assert seen
        assert all(isinstance(x, float) for x in seen)


class TestConjugateFold:
    @pytest.mark.parametrize("z", [0.5, 1.5, 3.3, 7.7])
    @pytest.mark.parametrize("delta,r0", [(0.75 * math.pi, 0.5), (2.0, 0.25), (3.0, 1.0)])
    def test_half_arc_matches_full_arc(self, z, delta, r0):
        n = math.floor(z)

        def arc(theta):
            return 1j * r0 * cmath.exp(1j * theta) * node(r0, theta, z, n)

        sub = QuadratureConfig(eps_rel=CFG.eps_rel / 8.0)
        full = integrate_finite(arc, -delta, delta, sub, [-0.5 * delta, 0.0, 0.5 * delta])
        full = full.value / (2j * math.pi)
        folded = arc_contribution(z, HankelContour(delta=delta, r0=r0))
        assert abs(folded - full.real) <= 1e-13 * abs(full.real)

    @pytest.mark.parametrize("z", [0.5, 2.5, 7.7])
    def test_upper_half_only(self, z):
        # one ray, three 15-point panels, and half the arc, a series
        gv = hankel_recip_gamma(z, HankelContour(), QuadratureConfig())
        assert gv.quadrature.evaluations <= 45

    @pytest.mark.parametrize("z", [0.5, 2.5, 7.7])
    def test_ray_tail_skipped_under_its_bound(self, z):
        # past R the ray's exponential part is a negligible share of the
        # tolerance: not integrated
        gv = hankel_recip_gamma(z, HankelContour(), QuadratureConfig())
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.quadrature.evaluations <= 60
        assert gv.value == pytest.approx(float(mpmath.rgamma(z)), rel=CFG.eps_rel)


class TestTruncationRadius:
    """The ray ends where its exponential part falls to a negligible share
    of eps_rel min(1, z); its panel count comes from the rule's bound."""

    @pytest.mark.parametrize(
        "z,contour,ceiling",
        [(2.5, HankelContour(), 60), (9.5, HankelContour(delta=2.0, r0=0.25), 90)],
    )
    def test_evaluation_ceiling(self, z, contour, ceiling):
        gv = hankel_recip_gamma(z, contour, CFG)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.quadrature.evaluations <= ceiling

    @pytest.mark.parametrize("z,delta,r0", [(0.0191, 2.308, 0.954), (0.0724, 2.363, 0.721)])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_small_z_stays_certified(self, z, delta, r0, eps):
        # the ray and the arc cancel to about z here
        cfg = QuadratureConfig(eps_rel=eps)
        gv = hankel_recip_gamma(z, HankelContour(delta=delta, r0=r0), cfg)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)


class TestContourProperty:
    """The contour route against mpmath over a box of contours and times.

    (1/2 pi i) times the contour integral of e^{ts} / s^z, regularized at
    order [z], is t^{z-1} / Gamma(z).  With s = tau/t it is t^{z-1} times
    the contour value of 1/Gamma(z) on the arc radius r0 t.  A result flagged
    ok must be within 10 eps_rel of it; another flag, or a contour whose
    arc radius r0 t makes (r0 t)^{-z} overflow, is an allowed outcome.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        z=st.floats(0.0, 171.6, exclude_min=True, exclude_max=True).filter(
            lambda z: z != math.floor(z)
        ),
        delta=st.floats(1.65, 3.12),
        r0=st.floats(0.05, 2.5),
        t=st.floats(0.2, 10.0),
        eps=st.sampled_from([1e-6, 1e-8, 1e-10]),
    )
    # the arc radius 0.025390625 at z = 108.03125: r0^n / n! underflowed
    # where the integrand does not, and the result, 1.6e-4 off, was ok
    @example(z=108.03125, delta=1.6875, r0=0.125, t=0.203125, eps=1e-6)
    # t^{z-1}/Gamma(z) is about 3e-320 here: the product, formed in doubles,
    # kept 13 bits and was 3.3e-5 off, where the value itself is 1.6e-10 off
    @example(z=134.25, delta=1.75, r0=1.0, t=0.201171875, eps=1e-6)
    def test_ok_results_meet_tolerance(self, z, delta, r0, t, eps):
        contour = HankelContour(delta=delta, r0=r0 * t)
        try:
            gv = hankel_recip_gamma(z, contour, QuadratureConfig(eps_rel=eps))
        except ContourDegenerate:
            return
        if gv.condition_flag is not ConditionFlag.OK:
            return
        with mpmath.workdps(30):
            value = mpmath.power(t, z - 1) * gv.value
            ref = mpmath.power(t, z - 1) * mpmath.rgamma(z)
            assert abs(value - ref) <= 10.0 * eps * abs(ref)


class TestSteepestDescentProperty:
    """The hankel route, recip_gamma(z, cfg, MethodTag.HANKEL), against mpmath.

    z is log-uniform in [1e-12, 171.6) or within 10^U(-12, -2) of an
    integer m in [1, 171].  The trapezoid rule has no sin(pi z) factor, so
    every result must be ok, within 10 eps_rel, after the rule's 14
    evaluations.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.one_of(
            st.floats(math.log(1e-12), math.log(171.6)).map(math.exp),
            st.builds(
                lambda m, sign, u: m + sign * 10.0**u,
                st.integers(1, 171),
                st.sampled_from([-1.0, 1.0]),
                st.floats(-12.0, -2.0),
            ),
        ),
        eps=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    @example(z=1e-12, eps=1e-12)
    @example(z=1.0 + 1e-12, eps=1e-12)
    @example(z=0.9999, eps=1e-12)
    @example(z=141.5, eps=1e-12)
    @example(z=170.3, eps=1e-12)
    def test_ok_within_tolerance_in_14_evaluations(self, z, eps):
        assume(z < 171.6 and z != math.floor(z))
        gv = recip_gamma(z, QuadratureConfig(eps_rel=eps), MethodTag.HANKEL)
        assert gv.condition_flag is ConditionFlag.OK
        assert gv.quadrature.evaluations == 14
        with mpmath.workdps(30):
            ref = mpmath.rgamma(z)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)


class TestSteepestDescentRule:
    """The hankel route's rule at w in [8, 9]: its truncation count,
    TRAPEZOID_TRUNCATION, is measured, not derived, and held here over a
    dense grid; its record's whole error, the truncation and the rounding
    count TRAPEZOID_ROUNDING, on seeded w."""

    def test_truncation_within_its_count(self):
        # the sum of the exact nodes theta_j = j pi / N at 40 digits: at most
        # 0.144 units of 2^-53 of 1/Gamma(w) over 2,001 w, at w = 8.295
        N = hankel._TRAPEZOID_N
        assert len(hankel._PATH_NODES) == N
        worst = 0.0
        with mpmath.workdps(40):
            paths = [mpmath.mpf(1)]  # u - log u at theta_j, u = 1 at theta = 0
            for j in range(1, N):
                theta = j * mpmath.pi / N
                u = theta / mpmath.sin(theta) * mpmath.expj(theta)
                paths.append(u - mpmath.log(u))
            for i in range(501):
                w = 8 + mpmath.mpf(i) / 500
                log_w = mpmath.log(w)
                nodes = [mpmath.re(mpmath.exp(w * (p - log_w))) for p in paths]
                value = (nodes[0] / 2 + mpmath.fsum(nodes[1:])) * w / N
                worst = max(worst, float(abs(value * mpmath.gamma(w) - 1)))
        print(f"14-node truncation: at most {worst / 2.0**-53:.3f} units of 2^-53")
        assert worst <= hankel.TRAPEZOID_TRUNCATION * 2.0**-53

    def test_rule_within_its_counts(self):
        rng = random.Random(14)
        for w in [8.0, 9.0] + [rng.uniform(8.0, 9.0) for _ in range(300)]:
            res = hankel.steepest_descent_recip_gamma(w)
            assert res.evaluations == 14
            count = hankel.TRAPEZOID_TRUNCATION + hankel.TRAPEZOID_ROUNDING
            assert res.abs_error_estimate == count * 2.0**-53 * res.value
            with mpmath.workdps(30):
                err = float(abs(res.value - mpmath.rgamma(w)))
            assert err <= res.abs_error_estimate, w


class TestSteepestDescentRounding:
    """The route's record counts one absolute unit below the normal range,
    as gamma_core's recurrence does."""

    @pytest.mark.parametrize("z,steps", [(8.0 + 2.0**-40, 0), (8.5, 0), (8.999, 0),
                                         (9.5, 1), (10.5, 2)])
    def test_record_counts_the_rule_and_each_step(self, z, steps):
        # at z in [8, 9) the recurrence takes no step (m = 0): the record is
        # the rule's truncation and rounding and nothing else, not one unit
        # less (a count |m| - 1 = -1); from 9 up each step adds one unit
        gv = recip_gamma(z, QuadratureConfig(eps_rel=1e-13), MethodTag.HANKEL)
        units = gv.quadrature.abs_error_estimate / abs(gv.value) * 2.0**53
        count = hankel.TRAPEZOID_TRUNCATION + hankel.TRAPEZOID_ROUNDING + steps
        assert units == pytest.approx(count, rel=1e-12)
        if not steps:
            assert gv.value == hankel.steepest_descent_recip_gamma(z).value

    @pytest.mark.parametrize("z,eps", [(172.5, 1e-12), (174.5, 1e-8)])
    def test_subnormal_result_counts_one_absolute_unit(self, z, eps):
        # 32 + m units flagged 1/Gamma(172.5) at 1e-12 (estimate 1.6e-11,
        # error 3.0e-14) and 1/Gamma(174.5) at 1e-8 (4.8e-7, 9.4e-10)
        gv = recip_gamma(z, QuadratureConfig(eps_rel=eps), MethodTag.HANKEL)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(z)) <= gv.quadrature.abs_error_estimate

    @pytest.mark.parametrize(
        "z,eps", [(1e-310, 1e-11), (1e-309, 1e-12), (2.5e-312, 1e-8), (-1e-310, 1e-11)]
    )
    def test_subnormal_result_below_the_base(self, z, eps):
        # 1/Gamma(z) is about z: multiplied by z first, the sum's rounding to
        # a subnormal unit grew by 7! and passed the estimate (8.7e-11 off at
        # 1e-310, flagged ok at 1e-11)
        gv = recip_gamma(z, QuadratureConfig(eps_rel=eps), MethodTag.HANKEL)
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(z)) <= gv.quadrature.abs_error_estimate
        assert gv.condition_flag is ConditionFlag.OK

    @pytest.mark.parametrize("z", [-2.3, -31.00671565557138, -170.5])
    def test_negative_z_by_the_recurrence(self, z):
        # the recurrence moves 1/Gamma from [8, 9) down past 0 to z; its
        # factors next to 0 are below 1 in magnitude
        gv = recip_gamma(z, QuadratureConfig(eps_rel=1e-12), MethodTag.HANKEL)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            assert abs(gv.value - mpmath.rgamma(z)) <= gv.quadrature.abs_error_estimate


class TestDeltaToPiLimit:
    @pytest.mark.parametrize("z", [0.5, 1.5])
    def test_two_ray_integral_approaches_real_representation(self, z):
        delta = math.pi - 1e-3
        n = math.floor(z)
        cfg = QuadratureConfig(eps_rel=1e-9)
        R = 1e4
        res = integrate_finite(
            lambda r: ray_difference_kernel(r, delta, z, n).imag,
            1e-12,
            R,
            cfg,
            breakpoints=geometric_breakpoints(1e-12, R),
        )
        # analytic tail of the polynomial terms past R
        tail = 0.0
        coeff = 1.0
        for k in range(n):
            tail += (
                -math.sin(delta * (z - k))
                / math.pi
                * coeff
                * R ** (k - z + 1.0)
                / (z - k - 1.0)
            )
            coeff /= k + 1
        two_ray = -res.value / (2.0 * math.pi) + tail
        ref = recip_gamma(z, CFG).value
        assert abs(two_ray - ref) / abs(ref) <= 1e-4


class TestInverseLaplace:
    @pytest.mark.parametrize("k", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_monomial_pairs(self, k, t):
        val = inverse_laplace_monomial(k, t, cfg=CFG)
        assert val == pytest.approx(t**k, rel=1e-6)

    def test_result_carries_diagnostics(self):
        gv = inverse_laplace(1.5, 2.0, cfg=CFG)
        assert gv.value == inverse_laplace_monomial(1.5, 2.0, cfg=CFG)
        assert gv.method is MethodTag.HANKEL
        assert gv.condition_flag is ConditionFlag.OK
        assert 0.0 < gv.quadrature.abs_error_estimate <= 1e-8 * gv.value
        assert gv.quadrature.evaluations > 0

    def test_flag_combines_contour_and_gamma(self):
        # at eps 3e-15 Gamma(k+1) on the real line meets its tolerance, while
        # the route's 1/Gamma(k+1) is below its trapezoid's rounding floor,
        # 33 units of 2^-53 (at 5e-15, 45 units, it is ok)
        cfg = QuadratureConfig(eps_rel=3e-15)
        recip = recip_gamma(8.05, cfg, MethodTag.HANKEL)
        gamma_k1 = gamma(8.05, cfg)
        assert recip.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gamma_k1.condition_flag is ConditionFlag.OK
        gv = inverse_laplace(7.05, 2.0, cfg=cfg)
        assert gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET
        assert gv.quadrature.evaluations == (
            recip.quadrature.evaluations + gamma_k1.quadrature.evaluations
        )

    @pytest.mark.parametrize("k", [80.5, 100.5, 140.5])
    @pytest.mark.parametrize("t", [1.0, 1.3])
    def test_large_order_meets_tolerance(self, k, t):
        # Gamma(k+1) comes from the real line, shifted into [8, 9); at k + 1
        # itself its polynomial tail would round past the tolerance
        gv = inverse_laplace(k, t, cfg=CFG)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.power(t, k)
            assert abs(gv.value - ref) <= 10.0 * CFG.eps_rel * abs(ref)

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize("k, t", [(171.5, 0.5), (300.5, 0.5), (500.3, 0.9)])
    def test_no_overflow_where_gamma_does(self, k, t, eps):
        # Gamma(k + 1) overflows, t^k does not: both Gammas are taken at
        # k + 1 - m in [8, 9), where the recurrence factors cancel
        cfg = QuadratureConfig(eps_rel=eps)
        gv = inverse_laplace(k, t, cfg=cfg)
        assert gv.condition_flag is ConditionFlag.OK
        with mpmath.workdps(30):
            ref = mpmath.power(t, k)
            assert abs(gv.value - ref) <= 10.0 * eps * abs(ref)

    @pytest.mark.parametrize("k, t", [(20.5, 1e15), (60.5, 1e4)])
    def test_no_overflow_where_t_power_is_finite(self, k, t):
        # Gamma(k+1) t^k exceeds the float range, t^k does not
        gv = inverse_laplace(k, t, cfg=CFG)
        assert gv.value == pytest.approx(t**k, rel=1e-12)
        assert gv.condition_flag is ConditionFlag.OK

    def test_domain_errors(self):
        with pytest.raises(IntegerArgument):
            inverse_laplace_monomial(2.0, 1.0, cfg=CFG)
        for t in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                inverse_laplace_monomial(1.5, t, cfg=CFG)

    def test_takes_no_contour(self):
        assert inverse_laplace_monomial(1.5, 2.0, None, CFG) == inverse_laplace(1.5, 2.0, CFG).value
        with pytest.raises(TypeError):
            inverse_laplace_monomial(1.5, 2.0, HankelContour(), CFG)
        with pytest.raises(TypeError):
            inverse_laplace(1.5, 2.0, None, CFG)

    @pytest.mark.parametrize("t", [1e15, 1e17])
    def test_huge_time_returns_t_power(self, t):
        gv = inverse_laplace(1.5, t, cfg=CFG)
        assert gv.value == pytest.approx(t**1.5, rel=1e-12)
        assert gv.condition_flag is ConditionFlag.OK
