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
import re
import sys
import time
from dataclasses import dataclass
from decimal import Decimal

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
from .hankel import HankelContour, hankel_recip_gamma, inverse_laplace
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

_NEGATIVE_FLOAT = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@dataclass(frozen=True)
class SweepSpec:
    z_min: float
    z_max: float
    step: float
    fn: str
    method: MethodTag


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a '-' argument that starts like a float (-1e-3, -.5, -inf) is a
        # value; argparse alone takes only plain decimals such as -2.5
        self._negative_number_matcher = _NEGATIVE_FLOAT

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

def _evaluate(
    fn: str, z: float, method: MethodTag, cfg: QuadratureConfig, b=None, t=1.0
) -> GammaValue:
    if fn == "recip-gamma":
        return recip_gamma(z, cfg, method)
    if fn == "gamma":
        return gamma(z, cfg, method)
    if fn == "gamma-neg":
        if method is MethodTag.CAUCHY_SAALSCHUTZ:
            return gamma_cauchy_saalschutz(z, cfg)
        return gamma_negative(z, cfg)
    if fn == "recip-gamma-neg":
        return recip_gamma_neg_reflection(z, cfg)
    if fn == "gamma-ratio":
        if b is None:
            raise RegammaError("--fn gamma-ratio requires --b <denominator>")
        return gamma_ratio(z, b, cfg)
    if fn == "inv-laplace":
        return inverse_laplace(z, t, cfg=cfg)
    raise RegammaError(f"unknown function {fn!r}")


def cmd_eval(args) -> int:
    out = _evaluate(args.fn, args.z, _METHODS[args.method], _config(args), args.b, args.t)
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
    """The positive points z_min + k step, k >= 1, up to z_max.

    They are summed in decimal from the shortest repr of each bound, so a
    point meant to be an integer (60 * 0.05) is one, and rounded once.
    """
    z_min, step, z_max = (Decimal(repr(x)) for x in (spec.z_min, spec.step, spec.z_max))
    grid = []
    k = 0
    while True:
        k += 1
        z = z_min + k * step
        if z > z_max:
            return grid
        if z > 0:
            grid.append(float(z))


def _sweep_row(z: float, spec: SweepSpec, cfg: QuadratureConfig) -> tuple:
    # recip-gamma takes the exact path at an integer by itself
    if z == math.floor(z):
        if spec.fn == "recip-gamma-neg":
            # 1/Gamma(-m) = 0 at every non-negative integer m
            return (z, 0.0, 0.0, spec.method.value, "exact")
        if spec.fn == "gamma-neg":
            return (z, math.nan, math.nan, spec.method.value, "pole")
    gv = _evaluate(spec.fn, z, spec.method, cfg)
    q = gv.quadrature
    if q is None:
        return (z, gv.value, 0.0, gv.method.value, "exact")
    return (z, gv.value, q.abs_error_estimate, gv.method.value, q.condition_flag.value)


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
    if not step > 0 or not z_min < z_max or not math.isfinite(z_max - z_min):
        print("regamma: error: need step > 0 and finite min < max", file=sys.stderr)
        return 1
    spec = SweepSpec(
        z_min=z_min,
        z_max=z_max,
        step=step,
        fn=fn,
        method=_METHODS[args.method],
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

# Each check returns (name, ok, detail, results): the GammaValues it
# compared, whose flags cmd_verify also reads.

def _check_recurrence(cfg):
    worst = 0.0
    results = []
    for z in (0.3, 0.7, 1.2, 2.8, 4.6, 7.9):
        lhs, rhs = recip_gamma(z, cfg), recip_gamma(z + 1.0, cfg)
        worst = max(worst, abs(lhs.value - z * rhs.value) / abs(lhs.value))
        results += [lhs, rhs]
    return "recurrence", worst <= 1e-7, f"max_rel={worst:.3e} tol=1e-07", results


def _check_reflection(cfg):
    worst = 0.0
    results = []
    for z in (0.1, 0.25, 0.4, 0.45):
        r1, r2 = recip_gamma(z, cfg), recip_gamma(1.0 - z, cfg)
        g1, g2 = 1.0 / r1.value, 1.0 / r2.value
        worst = max(worst, abs(g1 * g2 * math.sin(math.pi * z) / math.pi - 1.0))
        results += [r1, r2]
    return "reflection", worst <= 1e-6, f"max_dev={worst:.3e} tol=1e-06", results


def _check_gamma_ratio(cfg):
    worst = 0.0
    results = []
    for z in (0.3, 2.5, 9.7, 40.2):
        gv = gamma_ratio(z + 1.0, z, cfg)
        worst = max(worst, abs(gv.value - z) / z)
        results.append(gv)
    return "gamma_ratio_recurrence", worst <= 1e-7, f"max_rel={worst:.3e} tol=1e-07", results


def _check_equivalence(cfg):
    tags = (MethodTag.REAL_AXIS, MethodTag.POWER_SUBST, MethodTag.LOG_FORM)
    worst = 0.0
    results = []
    for z in (0.3, 1.7, 2.5, 3.9, 6.1):
        row = [recip_gamma(z, cfg, tag) for tag in tags]
        vals = [gv.value for gv in row]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst = max(worst, abs(vals[i] - vals[j]) / abs(vals[i]))
        results += row
    return (
        "representation_equivalence", worst <= 1e-6, f"max_rel={worst:.3e} tol=1e-06", results
    )


def _check_cauchy_saalschutz(cfg):
    worst = 0.0
    results = []
    for z in (0.4, 1.6, 2.2, 4.8):
        a, b = gamma_negative(z, cfg), gamma_cauchy_saalschutz(z, cfg)
        worst = max(worst, abs(a.value - b.value) / abs(a.value))
        results += [a, b]
    return "cauchy_saalschutz", worst <= 1e-6, f"max_rel={worst:.3e} tol=1e-06", results


def _check_sign_pattern(cfg):
    ok = True
    results = []
    z = 0.1
    while z < 4.95:
        n = math.floor(z)
        expected = (-1.0) ** (n + 1)
        gv = gamma_negative(z, cfg)
        if math.copysign(1.0, gv.value) != expected:
            ok = False
        results.append(gv)
        z += 0.2
    return "gamma_negative_sign_pattern", ok, "sign (-1)^(n+1) on each unit interval", results


def _check_zeros(cfg):
    results = [recip_gamma(float(m), cfg) for m in (0, -1, -2, -3)]
    ok = all(gv.value == 0.0 for gv in results)
    return "entire_function_zeros", ok, "exact zeros at 0, -1, -2, -3", results


def _check_hankel_agreement(cfg):
    results = {z: hankel_recip_gamma(z, HankelContour(), cfg) for z in (0.5, 1.5, 3.3)}
    worst = max(abs(gv.value - recip_gamma(z, cfg).value) for z, gv in results.items())
    return (
        "hankel_real_axis_agreement", worst <= 1e-6, f"max_dre={worst:.3e}", results.values()
    )


def _check_contour_invariance(cfg):
    worst = 0.0
    results = []
    for z in (0.5, 1.5, 3.3):
        row = [
            hankel_recip_gamma(z, HankelContour(delta=delta, r0=r0), cfg)
            for delta in (2.0, 2.5, 3.0)
            for r0 in (0.25, 0.5, 1.0)
        ]
        vals = [gv.value for gv in row]
        worst = max(worst, (max(vals) - min(vals)) / abs(vals[0]))
        results += row
    return "hankel_contour_invariance", worst <= 1e-6, f"max_spread={worst:.3e}", results


def cmd_verify(args) -> int:
    cfg = _config(args)
    checks = [
        _check_recurrence,
        _check_reflection,
        _check_gamma_ratio,
        _check_equivalence,
        _check_cauchy_saalschutz,
        _check_sign_pattern,
        _check_zeros,
    ]
    if args.hankel:
        checks += [_check_hankel_agreement, _check_contour_invariance]
    all_ok = True
    for check in checks:
        name, ok, detail, results = check(cfg)
        # a result that missed its tolerance fails the check and is named
        if any(gv.condition_flag is ConditionFlag.TOLERANCE_NOT_MET for gv in results):
            ok = False
            detail += f" flag={ConditionFlag.TOLERANCE_NOT_MET.value}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    lo = args.min if args.min is not None else _BENCH_GRID[0]
    hi = args.max if args.max is not None else _BENCH_GRID[1]
    step = args.step if args.step is not None else _BENCH_GRID[2]
    span = (hi - lo) / step if step > 0 else math.nan
    if not lo <= hi or not math.isfinite(span):
        print("regamma: error: need step > 0 and finite min <= max", file=sys.stderr)
        return 1
    # the grid is indexed, not accumulated, so a step below the spacing of
    # floats near z still ends it
    grid = [lo + i * step for i in range(math.floor(span + 1e-12) + 1)]
    refs = [1.0 / oracle.gamma_lanczos(z) for z in grid]
    eps_values = args.eps_rel or [_default_eps_rel()]

    rows = []
    for eps in eps_values:
        cfg = QuadratureConfig(eps_rel=eps)
        for name, tag in _METHODS.items():
            start = time.perf_counter()
            vals = [recip_gamma(z, cfg, tag).value for z in grid]
            elapsed = time.perf_counter() - start
            worst = max(abs(val - ref) / abs(ref) for val, ref in zip(vals, refs))
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
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--hankel", action="store_true")
    p_verify.add_argument("--eps-rel", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time every method against the Lanczos oracle")
    p_bench.add_argument("--eps-rel", type=float, nargs="*", default=None)
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (RegammaError, OverflowError, ValueError) as exc:
        print(f"regamma: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early (`regamma verify | head -n 1`): point stdout
        # at devnull so the flush at exit cannot fail again, and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
