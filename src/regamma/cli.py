"""Command-line interface: single evaluations, figure sweeps, verification
and benchmarking.

Each --fn takes the --method values named here, the first being its
default: recip-gamma, gamma and recip-gamma-neg (1/Gamma(-z), exact zeros
at the non-negative integers) take real, power, log, cs and hankel;
gamma-neg (gamma_negative, Gamma(-z)) takes real and cs;
gamma-ratio takes real alone, and inv-laplace hankel alone.  A --method
that the function does not take is refused with one error line that names
the ones it does (exit 1), so the method printed by eval, and the method
column of sweep, is always the route the result took.  sweep takes the
functions of z alone, every one but gamma-ratio and inv-laplace (default
recip-gamma).  A --preset fixes the grid and the function, so sweep
refuses it beside --fn, --min, --max or --step (exit 1, no file).

Sweep output is deterministic CSV (header ``z,value,abs_err,method,flag``,
17 significant digits, LF line endings) so figure pipelines can be
reproduced byte for byte.  REGAMMA_EPS_REL overrides the default 1e-8
relative tolerance; an explicit --eps-rel flag wins over the environment.

verify runs nine checks, the last two on the paper's contour, and prints
one line per check, "PASS|FAIL name max_dev=D tol=T": D is the largest
deviation the check measured, T its tolerance.  A check also fails when
a result it compared is flagged tolerance_not_met, and its line then
ends in " flag=tolerance_not_met"; one whose call raises prints
"FAIL name tol=T error=Type: message".  It exits 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from decimal import Decimal
from typing import Any, Callable, NamedTuple

from .errors import PoleError, RegammaError
from .gamma_core import (
    GammaValue,
    MethodTag,
    gamma,
    gamma_negative,
    gamma_ratio,
    hankel_recip_gamma,
    inverse_laplace,
    recip_gamma,
)
from .hankel import HankelContour
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
        return QuadratureConfig().eps_rel
    try:
        return float(raw)
    except ValueError:
        raise SystemExit(f"regamma: error: REGAMMA_EPS_REL is not a number: {raw!r}")


def _config(args) -> QuadratureConfig:
    eps = args.eps_rel if getattr(args, "eps_rel", None) is not None else _default_eps_rel()
    return QuadratureConfig(eps_rel=eps)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_lines(path: str, lines: list[str]) -> None:
    """Write lines to path as LF-terminated UTF-8 text; an OSError becomes
    a RegammaError that names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise RegammaError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# the functions
# ---------------------------------------------------------------------------

class _Function(NamedTuple):
    """A --fn: the --method names it takes, the first its default, and its
    evaluation at z under one of them.  evaluate(z, cfg, tag, args) reads
    args, the parsed options, only where of_z_alone is False (--b, --t);
    sweep takes only the functions of z alone, and passes None."""

    methods: tuple[str, ...]
    evaluate: Callable[[float, QuadratureConfig, MethodTag, Any], GammaValue]
    of_z_alone: bool = True


def _gamma_ratio(z: float, cfg: QuadratureConfig, tag: MethodTag, args) -> GammaValue:
    if args.b is None:
        raise RegammaError("--fn gamma-ratio requires --b <denominator>")
    return gamma_ratio(z, args.b, cfg)


_EVERY_METHOD = tuple(_METHODS)

_FUNCTIONS = {
    "recip-gamma": _Function(_EVERY_METHOD, lambda z, cfg, tag, args: recip_gamma(z, cfg, tag)),
    "gamma": _Function(_EVERY_METHOD, lambda z, cfg, tag, args: gamma(z, cfg, tag)),
    "gamma-neg": _Function(("real", "cs"), lambda z, cfg, tag, args: gamma_negative(z, cfg, tag)),
    "recip-gamma-neg": _Function(
        _EVERY_METHOD, lambda z, cfg, tag, args: recip_gamma(-z, cfg, tag)
    ),
    "gamma-ratio": _Function(("real",), _gamma_ratio, of_z_alone=False),
    "inv-laplace": _Function(
        ("hankel",),
        lambda z, cfg, tag, args: inverse_laplace(z, args.t, cfg=cfg),
        of_z_alone=False,
    ),
}

# the functions that sweep takes
_SWEPT = [name for name, function in _FUNCTIONS.items() if function.of_z_alone]


def _method(fn: str, name: str | None) -> MethodTag:
    """The tag of --method name under --fn fn; None is fn's default."""
    methods = _FUNCTIONS[fn].methods
    if name is None:
        name = methods[0]
    elif name not in methods:
        raise RegammaError(
            f"--fn {fn} does not take --method {name}; it takes {', '.join(methods)}"
        )
    return _METHODS[name]


def _row(gv: GammaValue) -> tuple:
    """(value, abs_err, method, flag, evals) of a result; an exact one has
    flag exact, no error and no evaluations."""
    q = gv.quadrature
    if q is None:
        return gv.value, 0.0, gv.method.value, "exact", 0
    return gv.value, q.abs_error_estimate, gv.method.value, q.condition_flag.value, q.evaluations


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    tag = _method(args.fn, args.method)
    gv = _FUNCTIONS[args.fn].evaluate(args.z, _config(args), tag, args)
    value, err, method, flag, evals = _row(gv)
    print(f"value  = {_fmt(value)}")
    print(f"method = {method}")
    print(f"abs_err = {err:.3e}")
    print(f"flag   = {flag}")
    print(f"evals  = {evals}")
    return 2 if flag == ConditionFlag.TOLERANCE_NOT_MET.value else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_grid(z_min: float, z_max: float, step: float) -> list[float]:
    """The positive points z_min + k step, k >= 1, up to z_max.

    They are summed in decimal from the shortest repr of each bound, so a
    point meant to be an integer (60 * 0.05) is one, and rounded once.
    """
    z_min, step, z_max = (Decimal(repr(x)) for x in (z_min, step, z_max))
    grid = []
    k = 0
    while True:
        k += 1
        z = z_min + k * step
        if z > z_max:
            return grid
        if z > 0:
            grid.append(float(z))


def _sweep_row(z: float, fn: str, tag: MethodTag, cfg: QuadratureConfig) -> tuple:
    if fn == "gamma-neg" and z == math.floor(z):
        return (math.nan, math.nan, tag.value, "pole")
    return _row(_FUNCTIONS[fn].evaluate(z, cfg, tag, None))[:4]


def cmd_sweep(args) -> int:
    # argparse takes only the functions of z alone, and _method only a
    # method that the function takes; every refusal comes before any work
    cfg = _config(args)
    if args.preset:
        # a preset is its own grid and function: a flag that would change
        # either is refused, not ignored
        for flag in ("fn", "min", "max", "step"):
            if getattr(args, flag) is not None:
                raise RegammaError(f"sweep --preset {args.preset} takes no --{flag}")
        z_min, z_max, step, fn = _PRESETS[args.preset]
    else:
        if args.min is None or args.max is None or args.step is None:
            raise RegammaError("sweep needs --preset or all of --min/--max/--step")
        z_min, z_max, step, fn = args.min, args.max, args.step, args.fn or "recip-gamma"
    tag = _method(fn, args.method)
    span = z_max - z_min
    if not step > 0 or not span > 0 or not math.isfinite(span):
        raise RegammaError("need step > 0 and finite min < max")
    lines = ["z,value,abs_err,method,flag"]
    for z in _sweep_grid(z_min, z_max, step):
        value, err, method, flag = _sweep_row(z, fn, tag, cfg)
        lines.append(f"{_fmt(z)},{_fmt(value)},{_fmt(err)},{method},{flag}")
    _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _checks(cfg: QuadratureConfig):
    """The cross-validation suite, in report order: (name, tolerance, rows),
    rows a function that yields them, each (deviation, the GammaValues)."""
    def recurrence():
        for z in (0.3, 0.7, 1.2, 2.8, 4.6, 7.9):
            lhs, rhs = recip_gamma(z, cfg), recip_gamma(z + 1.0, cfg)
            yield abs(lhs.value - z * rhs.value) / abs(lhs.value), [lhs, rhs]
    yield "recurrence", 1e-7, recurrence

    def reflection():
        for z in (0.1, 0.25, 0.4, 0.45):
            r1, r2 = recip_gamma(z, cfg), recip_gamma(1.0 - z, cfg)
            g1, g2 = 1.0 / r1.value, 1.0 / r2.value
            yield abs(g1 * g2 * math.sin(math.pi * z) / math.pi - 1.0), [r1, r2]
    yield "reflection", 1e-6, reflection

    def ratio():
        for z in (0.3, 2.5, 9.7, 40.2):
            gv = gamma_ratio(z + 1.0, z, cfg)
            yield abs(gv.value - z) / z, [gv]
    yield "gamma_ratio_recurrence", 1e-7, ratio

    def equivalence():
        tags = (MethodTag.REAL_AXIS, MethodTag.POWER_SUBST, MethodTag.LOG_FORM)
        for z in (0.3, 1.7, 2.5, 3.9, 6.1):
            gvs = [recip_gamma(z, cfg, tag) for tag in tags]
            vals = [gv.value for gv in gvs]
            pairs = [(a, b) for i, a in enumerate(vals) for b in vals[i + 1 :]]
            yield max(abs(a - b) / abs(a) for a, b in pairs), gvs
    yield "representation_equivalence", 1e-6, equivalence

    def cauchy_saalschutz():
        for z in (0.4, 1.6, 2.2, 4.8):
            a, b = gamma_negative(z, cfg), gamma_negative(z, cfg, MethodTag.CAUCHY_SAALSCHUTZ)
            yield abs(a.value - b.value) / abs(a.value), [a, b]
    yield "cauchy_saalschutz", 1e-6, cauchy_saalschutz

    # Gamma(-z) has the sign (-1)^(n+1) on (n, n + 1): deviation 0, or 2
    def sign_pattern():
        z = 0.1
        while z < 4.95:
            gv = gamma_negative(z, cfg)
            expected = (-1.0) ** (math.floor(z) + 1)
            yield abs(math.copysign(1.0, gv.value) - expected), [gv]
            z += 0.2
    yield "gamma_negative_sign_pattern", 0.0, sign_pattern

    def zeros():
        for gv in (recip_gamma(float(m), cfg) for m in (0, -1, -2, -3)):
            yield abs(gv.value), [gv]
    yield "entire_function_zeros", 0.0, zeros

    def agreement():
        for z in (0.5, 1.5, 3.3):
            contour, real = hankel_recip_gamma(z, HankelContour(), cfg), recip_gamma(z, cfg)
            yield abs(contour.value - real.value), [contour, real]
    yield "hankel_real_axis_agreement", 1e-6, agreement

    def invariance():
        for z in (0.5, 1.5, 3.3):
            gvs = [
                hankel_recip_gamma(z, HankelContour(delta=delta, r0=r0), cfg)
                for delta in (2.0, 2.5, 3.0)
                for r0 in (0.25, 0.5, 1.0)
            ]
            vals = [gv.value for gv in gvs]
            yield (max(vals) - min(vals)) / abs(vals[0]), gvs
    yield "hankel_contour_invariance", 1e-6, invariance


def cmd_verify(args) -> int:
    all_ok = True
    for name, tol, check in _checks(_config(args)):
        try:
            rows = list(check())
        except (RegammaError, OverflowError) as exc:
            all_ok = False
            print(f"FAIL {name} tol={tol:g} error={type(exc).__name__}: {exc}")
            continue
        ok = all(dev <= tol for dev, _ in rows)
        line = f"{name} max_dev={max(dev for dev, _ in rows):.3e} tol={tol:g}"
        # a result that missed its tolerance fails the check and is named
        flags = {gv.condition_flag for _, gvs in rows for gv in gvs}
        if ConditionFlag.TOLERANCE_NOT_MET in flags:
            ok = False
            line += f" flag={ConditionFlag.TOLERANCE_NOT_MET.value}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {line}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_reference(z: float) -> float:
    """1/Gamma(z) from the standard library's math.gamma, bench's reference.

    Where Gamma(z) overflows next to 0 (|z| below about 5.6e-309), the
    reference is z/Gamma(1 + z), which is z there.  A non-positive integer
    raises PoleError, and a z where Gamma(z) or its reciprocal leaves
    double precision (z past about 171.62 or below about -171.6) a
    RegammaError that names it.
    """
    if z <= 0.0 and z == math.floor(z):
        raise PoleError(f"Gamma has a pole at {z!r}")
    try:
        ref = 1.0 / math.gamma(z)
    except OverflowError:
        ref = z / math.gamma(1.0 + z) if abs(z) < 1.0 else math.inf
    except ZeroDivisionError:
        ref = math.inf
    if math.isinf(ref):
        raise RegammaError(f"bench has no reference at z = {z!r}: "
                           "Gamma or 1/Gamma exceeds double precision there")
    return ref


def cmd_bench(args) -> int:
    lo = args.min if args.min is not None else _BENCH_GRID[0]
    hi = args.max if args.max is not None else _BENCH_GRID[1]
    step = args.step if args.step is not None else _BENCH_GRID[2]
    span = (hi - lo) / step if step > 0 else math.nan
    if not lo <= hi or not math.isfinite(span):
        raise RegammaError("need step > 0 and finite min <= max")
    # the grid is indexed, not accumulated, so a step below the spacing of
    # floats near z still ends it
    grid = [lo + i * step for i in range(math.floor(span + 1e-12) + 1)]
    refs = [_bench_reference(z) for z in grid]
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
        _write_lines(args.csv, csv_lines)
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
    p_eval.add_argument("--fn", default="recip-gamma", choices=list(_FUNCTIONS))
    p_eval.add_argument("--method", default=None, choices=sorted(_METHODS))
    p_eval.add_argument("--eps-rel", type=float, default=None)
    p_eval.add_argument("--b", type=float, default=None, help="denominator for gamma-ratio")
    p_eval.add_argument("--t", type=float, default=1.0, help="time for inv-laplace")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a grid and write CSV")
    p_sweep.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    p_sweep.add_argument("--min", type=float, default=None)
    p_sweep.add_argument("--max", type=float, default=None)
    p_sweep.add_argument("--step", type=float, default=None)
    p_sweep.add_argument("--fn", default=None, choices=_SWEPT)
    p_sweep.add_argument("--method", default=None, choices=sorted(_METHODS))
    p_sweep.add_argument("--eps-rel", type=float, default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--eps-rel", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time every method against math.gamma")
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
