"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import pytest

from regamma.cli import main
from regamma.gamma_core import (
    MethodTag,
    gamma_negative,
    gamma_ratio,
    hankel_recip_gamma,
    inverse_laplace_monomial,
    recip_gamma,
    recip_gamma_neg_reflection,
)
from regamma.hankel import HankelContour, arc_contribution
from regamma.kernel import decompose, exp_remainder
from regamma.quadrature import (
    ConditionFlag,
    QuadratureConfig,
    geometric_breakpoints,
    integrate_finite,
)

CFG = QuadratureConfig(eps_rel=1e-8)

EQUIVALENCE_GRID = (0.3, 1.7, 2.5, 3.9, 6.1)
NEGATIVE_GRID = (0.4, 1.6, 2.2, 4.8)
RECURRENCE_GRID = (0.3, 0.7, 1.2, 2.8, 4.6, 7.9)
REFLECTION_GRID = (0.1, 0.25, 0.4, 0.45)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_golden_grid_accuracy():
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for k in range(1, 100):
        z = round(0.1 * k, 10)
        if abs(z - round(z)) < 0.05:
            continue
        points += 1
        value = recip_gamma(z, CFG).value
        ref = 1.0 / math.gamma(z)
        worst = max(worst, abs(value - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 10.0
    report(1, ok, f"{points} grid points, max_rel={worst:.3e} (tol 1e-7), {elapsed:.2f}s")


def test_criterion_2_representation_equivalence():
    tags = (
        MethodTag.REAL_AXIS,
        MethodTag.POWER_SUBST,
        MethodTag.LOG_FORM,
        MethodTag.HANKEL,
    )
    worst_pair = 0.0
    flags = set()
    for z in EQUIVALENCE_GRID:
        vals = [recip_gamma(z, CFG, tag).value for tag in tags]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst_pair = max(worst_pair, abs(vals[i] - vals[j]) / abs(vals[i]))
        flags.add(hankel_recip_gamma(z, HankelContour(), CFG).condition_flag)
    ok = worst_pair <= 1e-6 and flags == {ConditionFlag.OK}
    flag_names = ",".join(sorted(f.value for f in flags))
    report(2, ok, f"max_pairwise_rel={worst_pair:.3e} (tol 1e-6), hankel flags={flag_names}")


def test_criterion_3_negative_argument_gamma():
    worst_ref = 0.0
    worst_pair = 0.0
    for z in NEGATIVE_GRID:
        ref = math.gamma(-z)
        gn = gamma_negative(z, CFG).value
        cs = gamma_negative(z, CFG, MethodTag.CAUCHY_SAALSCHUTZ).value
        worst_ref = max(worst_ref, abs(gn - ref) / abs(ref), abs(cs - ref) / abs(ref))
        worst_pair = max(worst_pair, abs(gn - cs) / abs(gn))
    ok = worst_ref <= 1e-7 and worst_pair <= 1e-7
    report(3, ok, f"max_vs_math_gamma={worst_ref:.3e}, max_vs_partner={worst_pair:.3e} (tol 1e-7)")


def test_criterion_4_functional_equations():
    worst_rec = 0.0
    for z in RECURRENCE_GRID:
        lhs = recip_gamma(z, CFG).value
        rhs = z * recip_gamma(z + 1.0, CFG).value
        worst_rec = max(worst_rec, abs(lhs - rhs) / abs(lhs))
    worst_ref = 0.0
    for z in REFLECTION_GRID:
        g1 = 1.0 / recip_gamma(z, CFG).value
        g2 = 1.0 / recip_gamma(1.0 - z, CFG).value
        worst_ref = max(worst_ref, abs(g1 * g2 * math.sin(math.pi * z) / math.pi - 1.0))
    ok = worst_rec <= 1e-7 and worst_ref <= 1e-6
    report(4, ok, f"recurrence={worst_rec:.3e} (tol 1e-7), reflection={worst_ref:.3e} (tol 1e-6)")


def test_criterion_5_inverse_laplace():
    worst = 0.0
    for k in (0.5, 1.5, 2.5):
        for t in (0.5, 1.0, 2.0):
            val = inverse_laplace_monomial(k, t, cfg=CFG)
            worst = max(worst, abs(val - t**k) / t**k)
    ok = worst <= 1e-6
    report(5, ok, f"9 (k, t) pairs, max_rel={worst:.3e} (tol 1e-6)")


def test_criterion_6_regularization_necessity():
    z = 1.5
    # (a) without regularization the arc contribution grows as r0 shrinks
    radii = (1e-1, 1e-2, 1e-3)
    raw = [abs(arc_contribution(z, HankelContour(r0=r), order=0)) for r in radii]
    raw_slope = (math.log(raw[0]) - math.log(raw[-1])) / (
        math.log(radii[0]) - math.log(radii[-1])
    )
    reg = [abs(arc_contribution(z, HankelContour(r0=r))) for r in radii]
    reg_slope = (math.log(reg[0]) - math.log(reg[-1])) / (
        math.log(radii[0]) - math.log(radii[-1])
    )
    arc_ok = raw_slope <= 0.0 and reg_slope > 0.25

    # (b) the unregularized semi-infinite integral diverges under refinement
    cfg = QuadratureConfig(eps_rel=1e-10)
    raw_vals = []
    reg_vals = []
    for eps in (1e-2, 1e-4, 1e-6):
        seeds = geometric_breakpoints(eps, 1.0)
        raw_vals.append(
            integrate_finite(
                lambda x: math.exp(-x) * x**-z, eps, 1.0, cfg, breakpoints=seeds
            ).value
        )
        reg_vals.append(
            integrate_finite(
                lambda x: (math.exp(-x) - 1.0) * x**-z, eps, 1.0, cfg, breakpoints=seeds
            ).value
        )
    grows = raw_vals[1] >= 3.0 * raw_vals[0] and raw_vals[2] >= 3.0 * raw_vals[1]
    converges = abs(reg_vals[2] - reg_vals[1]) <= 0.5 * abs(reg_vals[1] - reg_vals[0])
    ok = arc_ok and grows and converges
    report(
        6,
        ok,
        f"arc exponents raw={raw_slope:.2f} reg={reg_slope:.2f}; "
        f"raw integral {raw_vals[0]:.3g} -> {raw_vals[2]:.3g} diverges; "
        f"regularized settles at {reg_vals[2]:.6g}",
    )


def test_criterion_7_kernel_asymptotics():
    worst_margin = 0.0
    for z in (0.5, 1.5, 2.5):
        arg = decompose(z)
        for x in (1e-2, 1e-4):
            scaled = (
                x**arg.frac
                * exp_remainder(-x, arg.n)
                * x**-arg.z
                * math.factorial(arg.n)
                * (-1.0) ** arg.n
            )
            dev = abs(scaled - 1.0)
            assert dev <= 10.0 * x
            worst_margin = max(worst_margin, dev / (10.0 * x))
    report(7, True, f"max deviation at {100 * worst_margin:.1f}% of the 10x bound")


def test_criterion_8_gamma_ratio():
    r1 = gamma_ratio(2.5, 1.5, CFG).value
    r2 = gamma_ratio(0.5, 2.5, CFG).value
    e1 = abs(r1 - 1.5) / 1.5
    e2 = abs(r2 - 4.0 / 3.0) / (4.0 / 3.0)
    ok = e1 <= 1e-7 and e2 <= 1e-6
    report(8, ok, f"ratio(2.5,1.5) rel={e1:.3e} (tol 1e-7); ratio(0.5,2.5) rel={e2:.3e} (tol 1e-6)")


def _read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "z,value,abs_err,method,flag"
    rows = []
    for line in lines[1:]:
        z, value, err, method, flag = line.split(",")
        rows.append((float(z), float(value), err, method, flag))
    return rows


def test_criterion_9_figure_reproduction(tmp_path):
    # the CLI's presets themselves, on their default route, real_axis
    presets = ("fig1", "fig3", "fig4")
    rows = {}
    for name in presets:
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", "--preset", name, "--eps-rel", repr(CFG.eps_rel), "--out", str(out)]
        assert main(argv) == 0
        rows[name] = _read_rows(out)
        assert {method for _, _, _, method, _ in rows[name]} == {MethodTag.REAL_AXIS.value}

    # no NaN/Inf outside flagged rows
    for name in presets:
        for z, value, _, _, flag in rows[name]:
            if flag in ("ok", "exact"):
                assert math.isfinite(value), f"{name}: non-finite value at z={z}"

    # 1/Gamma(-z) vanishes at the integer abscissae of the fig1 sweep
    integer_rows = [
        (z, value) for z, value, _, _, _ in rows["fig1"] if abs(z - round(z)) <= 1e-8
    ]
    assert len(integer_rows) == 6
    assert all(abs(value) <= 1e-7 for _, value in integer_rows)
    # and along the reflection path immediately next to integers
    for m in (1, 2, 3):
        for dz in (1e-8, -1e-8):
            assert abs(recip_gamma_neg_reflection(m + dz, CFG).value) <= 1e-7

    # fig4 alternates sign (-1)^(n+1) on each unit interval
    for z, value, _, _, flag in rows["fig4"]:
        if flag == "pole":
            continue
        n = math.floor(z)
        assert math.copysign(1.0, value) == (-1.0) ** (n + 1), f"sign at z={z}"

    report(
        9,
        True,
        f"fig1/fig3/fig4 rows={len(rows['fig1'])}/{len(rows['fig3'])}/{len(rows['fig4'])}, "
        f"{len(integer_rows)} integer zeros, fig4 sign pattern holds",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
