"""Command-line interface: single evaluations, figure sweeps, verification
and benchmarking.

Sweep output is deterministic CSV (header ``z,value,abs_err,method,flag``,
17 significant digits, LF line endings) so figure pipelines can be
reproduced byte for byte.  REGAMMA_EPS_REL overrides the default 1e-8
relative tolerance; an explicit --eps-rel flag wins over the environment.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass

from . import oracle
from .errors import RegammaError
from .gamma_core import (
    GammaValue,
    MethodTag,
    gamma,
    gamma_cauchy_saalschutz,
    gamma_negative,
    gamma_ratio,
    recip_gamma,
    recip_gamma_neg_reflection,
)
from .hankel import HankelContour, hankel_recip_gamma, inverse_laplace_monomial
from .quadrature import ConditionFlag, QuadratureConfig

_METHODS = {
    "real": MethodTag.REAL_AXIS,
    "power": MethodTag.POWER_SUBST,
    "log": MethodTag.LOG_FORM,
    "cs": MethodTag.CAUCHY_SAALSCHUTZ,
    "hankel": MethodTag.HANKEL,
}

_PRESETS = {
    # z_min, z_max, step, function
    "fig1": (0.0, 6.0, 0.05, "recip-gamma-neg"),
    "fig3": (0.0, 10.0, 0.05, "recip-gamma"),
    "fig4": (0.0, 5.0, 0.05, "gamma-neg"),
}

_BENCH_GRID = (0.1, 9.9, 0.2)


@dataclass(frozen=True)
class SweepSpec:
    z_min: float
    z_max: float
    step: float
    fn: str
    method: MethodTag
    integer_exclusion_radius: float = 1e-6


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, reserving 2 for tolerance_not_met results
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_eps_rel() -> float:
    raw = os.environ.get("REGAMMA_EPS_REL")
    if raw is None:
        return 1e-8
    try:
        return float(raw)
    except ValueError:
        raise SystemExit(f"regamma: error: REGAMMA_EPS_REL is not a number: {raw!r}")


def _config(args) -> QuadratureConfig:
    eps = args.eps_rel if getattr(args, "eps_rel", None) is not None else _default_eps_rel()
    return QuadratureConfig(eps_rel=eps)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _evaluate(args, cfg: QuadratureConfig) -> GammaValue | float:
    z = args.z
    method = _METHODS[args.method]
    if args.fn == "recip-gamma":
        return recip_gamma(z, cfg, method)
    if args.fn == "gamma":
        return gamma(z, cfg, method)
    if args.fn == "gamma-neg":
        if method is MethodTag.CAUCHY_SAALSCHUTZ:
            return gamma_cauchy_saalschutz(z, cfg)
        return gamma_negative(z, cfg)
    if args.fn == "recip-gamma-neg":
        return recip_gamma_neg_reflection(z, cfg)
    if args.fn == "gamma-ratio":
        if args.b is None:
            raise RegammaError("--fn gamma-ratio requires --b <denominator>")
        return gamma_ratio(z, args.b, cfg)
    if args.fn == "inv-laplace":
        return inverse_laplace_monomial(z, args.t, HankelContour(), cfg)
    raise RegammaError(f"unknown function {args.fn!r}")


def cmd_eval(args) -> int:
    out = _evaluate(args, _config(args))
    if isinstance(out, float):  # inv-laplace returns a bare real value
        print(f"value  = {_fmt(out)}")
        print("method = hankel")
        print("flag   = ok")
        return 0

    print(f"value  = {_fmt(out.value)}")
    print(f"method = {out.method.value}")
    if out.quadrature is None:
        print("flag   = exact")
        print("evals  = 0")
        return 0
    q = out.quadrature
    print(f"abs_err = {q.abs_error_estimate:.3e}")
    print(f"flag   = {q.condition_flag.value}")
    print(f"evals  = {q.evaluations}")
    return 2 if q.condition_flag is ConditionFlag.TOLERANCE_NOT_MET else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_grid(spec: SweepSpec) -> list[float]:
    grid = []
    k = 0
    while True:
        k += 1
        z = spec.z_min + k * spec.step
        if z > spec.z_max + 1e-12:
            return grid
        if z > 0.0:
            grid.append(z)


def _sweep_row(z: float, spec: SweepSpec, cfg: QuadratureConfig) -> tuple:
    radius = spec.integer_exclusion_radius
    nearest = round(z)
    if nearest > 0 and abs(z - nearest) <= radius:
        if spec.fn == "recip-gamma":
            exact = recip_gamma(float(nearest), cfg, spec.method)
            return (z, exact.value, 0.0, spec.method.value, "exact")
        if spec.fn == "recip-gamma-neg":
            # 1/Gamma(-m) = 0 at every non-negative integer m
            return (z, 0.0, 0.0, spec.method.value, "exact")
        if spec.fn == "gamma-neg":
            return (z, math.nan, math.nan, spec.method.value, "pole")
    if spec.fn == "recip-gamma":
        gv = recip_gamma(z, cfg, spec.method)
    elif spec.fn == "recip-gamma-neg":
        gv = recip_gamma_neg_reflection(z, cfg)
    elif spec.fn == "gamma-neg":
        if spec.method is MethodTag.CAUCHY_SAALSCHUTZ:
            gv = gamma_cauchy_saalschutz(z, cfg)
        else:
            gv = gamma_negative(z, cfg)
    else:
        raise RegammaError(f"unknown sweep function {spec.fn!r}")
    err = 0.0 if gv.quadrature is None else gv.quadrature.abs_error_estimate
    flag = "exact" if gv.quadrature is None else gv.quadrature.condition_flag.value
    return (z, gv.value, err, gv.method.value, flag)


def run_sweep(spec: SweepSpec, cfg: QuadratureConfig, out_path: str) -> None:
    rows = [_sweep_row(z, spec, cfg) for z in _sweep_grid(spec)]
    lines = ["z,value,abs_err,method,flag"]
    for z, value, err, method, flag in rows:
        lines.append(f"{_fmt(z)},{_fmt(value)},{_fmt(err)},{method},{flag}")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_sweep(args) -> int:
    cfg = _config(args)
    if args.preset:
        z_min, z_max, step, fn = _PRESETS[args.preset]
    else:
        if args.min is None or args.max is None or args.step is None:
            print(
                "regamma: error: sweep needs --preset or all of --min/--max/--step",
                file=sys.stderr,
            )
            return 1
        z_min, z_max, step, fn = args.min, args.max, args.step, args.fn
    if not step > 0 or not z_min < z_max:
        print("regamma: error: need step > 0 and min < max", file=sys.stderr)
        return 1
    spec = SweepSpec(
        z_min=z_min,
        z_max=z_max,
        step=step,
        fn=fn,
        method=_METHODS[args.method],
        integer_exclusion_radius=args.int_radius,
    )
    try:
        run_sweep(spec, cfg, args.out)
    except OSError as exc:
        print(f"regamma: error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_recurrence(cfg):
    worst = 0.0
    for z in (0.3, 0.7, 1.2, 2.8, 4.6, 7.9):
        lhs = recip_gamma(z, cfg).value
        rhs = z * recip_gamma(z + 1.0, cfg).value
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return "recurrence", worst <= 1e-7, f"max_rel={worst:.3e} tol=1e-07"


def _check_reflection(cfg):
    worst = 0.0
    for z in (0.1, 0.25, 0.4, 0.45):
        g1 = 1.0 / recip_gamma(z, cfg).value
        g2 = 1.0 / recip_gamma(1.0 - z, cfg).value
        worst = max(worst, abs(g1 * g2 * math.sin(math.pi * z) / math.pi - 1.0))
    return "reflection", worst <= 1e-6, f"max_dev={worst:.3e} tol=1e-06"


def _check_equivalence(cfg):
    tags = (MethodTag.REAL_AXIS, MethodTag.POWER_SUBST, MethodTag.LOG_FORM)
    worst = 0.0
    for z in (0.3, 1.7, 2.5, 3.9, 6.1):
        vals = [recip_gamma(z, cfg, tag).value for tag in tags]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst = max(worst, abs(vals[i] - vals[j]) / abs(vals[i]))
    return "representation_equivalence", worst <= 1e-6, f"max_rel={worst:.3e} tol=1e-06"


def _check_cauchy_saalschutz(cfg):
    worst = 0.0
    for z in (0.4, 1.6, 2.2, 4.8):
        a = gamma_negative(z, cfg).value
        b = gamma_cauchy_saalschutz(z, cfg).value
        worst = max(worst, abs(a - b) / abs(a))
    return "cauchy_saalschutz", worst <= 1e-6, f"max_rel={worst:.3e} tol=1e-06"


def _check_sign_pattern(cfg):
    ok = True
    z = 0.1
    while z < 4.95:
        n = math.floor(z)
        expected = (-1.0) ** (n + 1)
        if math.copysign(1.0, gamma_negative(z, cfg).value) != expected:
            ok = False
        z += 0.2
    return "gamma_negative_sign_pattern", ok, "sign (-1)^(n+1) on each unit interval"


def _check_zeros(cfg):
    ok = all(recip_gamma(float(m), cfg).value == 0.0 for m in (0, -1, -2, -3))
    return "entire_function_zeros", ok, "exact zeros at 0, -1, -2, -3"


def _check_hankel_agreement(cfg):
    worst_re = 0.0
    worst_im = 0.0
    for z in (0.5, 1.5, 3.3):
        cv = hankel_recip_gamma(z, HankelContour(), cfg)
        ref = recip_gamma(z, cfg).value
        worst_re = max(worst_re, abs(cv.re - ref))
        worst_im = max(worst_im, abs(cv.im))
    ok = worst_re <= 1e-6 and worst_im <= 1e-7
    return "hankel_real_axis_agreement", ok, f"max_dre={worst_re:.3e} max_im={worst_im:.3e}"


def _check_contour_invariance(cfg):
    worst = 0.0
    for z in (0.5, 1.5, 3.3):
        vals = []
        for delta in (2.0, 2.5, 3.0):
            for r0 in (0.25, 0.5, 1.0):
                c = HankelContour(delta=delta, r0=r0)
                vals.append(hankel_recip_gamma(z, c, cfg).re)
        spread = (max(vals) - min(vals)) / abs(vals[0])
        worst = max(worst, spread)
    return "hankel_contour_invariance", worst <= 1e-6, f"max_spread={worst:.3e}"


def _report_near_integer(cfg):
    details = []
    for m in (1, 2, 3):
        for sign in (1.0, -1.0):
            z = m + sign * 1e-3
            gv = recip_gamma(z, cfg)
            ref = 1.0 / oracle.gamma_lanczos(z)
            rel = abs(gv.value - ref) / abs(ref)
            details.append(f"z={z:.3f} rel={rel:.2e} flag={gv.condition_flag.value}")
    return "near_integer_diagnostic", True, "; ".join(details)


def cmd_verify(args) -> int:
    cfg = _config(args)
    checks = [
        _check_recurrence,
        _check_reflection,
        _check_equivalence,
        _check_cauchy_saalschutz,
        _check_sign_pattern,
        _check_zeros,
    ]
    if args.hankel:
        checks += [_check_hankel_agreement, _check_contour_invariance]
    if args.near_integer:
        checks.append(_report_near_integer)
    all_ok = True
    for check in checks:
        name, ok, detail = check(cfg)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_reference(args, z: float) -> float:
    if args.compare_oracle == "product":
        return oracle.recip_gamma_product(z, args.terms)
    return 1.0 / oracle.gamma_lanczos(z)


def cmd_bench(args) -> int:
    lo = args.min if args.min is not None else _BENCH_GRID[0]
    hi = args.max if args.max is not None else _BENCH_GRID[1]
    step = args.step if args.step is not None else _BENCH_GRID[2]
    grid = []
    z = lo
    while z <= hi + 1e-12:
        grid.append(z)
        z += step
    eps_values = args.eps_rel or [_default_eps_rel()]

    rows = []
    for eps in eps_values:
        cfg = QuadratureConfig(eps_rel=eps)
        for name, tag in _METHODS.items():
            start = time.perf_counter()
            worst = 0.0
            for z in grid:
                val = recip_gamma(z, cfg, tag).value
                ref = _bench_reference(args, z)
                worst = max(worst, abs(val - ref) / abs(ref))
            elapsed = time.perf_counter() - start
            rows.append((name, eps, 1e3 * elapsed / len(grid), worst))

    header = f"{'method':<8} {'eps_rel':>9} {'mean_ms':>9} {'max_rel_err':>12}"
    lines = [header, "-" * len(header)]
    for name, eps, ms, err in rows:
        lines.append(f"{name:<8} {eps:>9.1e} {ms:>9.3f} {err:>12.3e}")
    table = "\n".join(lines)
    if args.csv:
        csv_lines = ["method,eps_rel,mean_ms,max_rel_err"]
        csv_lines += [f"{n},{_fmt(e)},{_fmt(ms)},{_fmt(err)}" for n, e, ms, err in rows]
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(csv_lines) + "\n")
        except OSError as exc:
            print(f"regamma: error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 1
    print(table)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regamma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate one argument")
    p_eval.add_argument("z", type=float)
    p_eval.add_argument(
        "--fn",
        default="recip-gamma",
        choices=["recip-gamma", "gamma", "gamma-neg", "recip-gamma-neg",
                 "gamma-ratio", "inv-laplace"],
    )
    p_eval.add_argument("--method", default="real", choices=sorted(_METHODS))
    p_eval.add_argument("--eps-rel", type=float, default=None)
    p_eval.add_argument("--b", type=float, default=None, help="denominator for gamma-ratio")
    p_eval.add_argument("--t", type=float, default=1.0, help="time for inv-laplace")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a grid and write CSV")
    p_sweep.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    p_sweep.add_argument("--min", type=float, default=None)
    p_sweep.add_argument("--max", type=float, default=None)
    p_sweep.add_argument("--step", type=float, default=None)
    p_sweep.add_argument(
        "--fn", default="recip-gamma",
        choices=["recip-gamma", "gamma-neg", "recip-gamma-neg"],
    )
    p_sweep.add_argument("--method", default="real", choices=sorted(_METHODS))
    p_sweep.add_argument("--eps-rel", type=float, default=None)
    p_sweep.add_argument("--int-radius", type=float, default=1e-6)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--hankel", action="store_true")
    p_verify.add_argument("--near-integer", action="store_true")
    p_verify.add_argument("--eps-rel", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time every method against an oracle")
    p_bench.add_argument("--eps-rel", type=float, nargs="*", default=None)
    p_bench.add_argument("--compare-oracle", default="lanczos", choices=["lanczos", "product"])
    p_bench.add_argument("--terms", type=int, default=oracle.OracleConfig().product_terms)
    p_bench.add_argument("--min", type=float, default=None)
    p_bench.add_argument("--max", type=float, default=None)
    p_bench.add_argument("--step", type=float, default=None)
    p_bench.add_argument("--csv", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # domain errors, bad tolerances and non-finite inputs exit 1 with one line
    try:
        return args.func(args)
    except (RegammaError, OverflowError, ValueError) as exc:
        print(f"regamma: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
