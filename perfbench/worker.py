"""Worker process of the benchmark: the only process that imports regamma.

It imports regamma from ``src/`` of the checkout and never imports
mpmath, so set-up time and peak memory are the library's alone.  One
process runs one mode and writes JSON lines to stdout:

  setup   WORKLOAD SEED          import regamma, make the workload's first
                                 call, print the seconds both took and the
                                 calibration units timed after them
  measure WORKLOAD SEED SECONDS  closed loop over the workload stream for
                                 SECONDS, in windows of WINDOW_S with
                                 calibration units between them; one output
                                 line per window
  trace   WORKLOAD SEED          an untraced and a traced pass over a fixed
                                 prefix of the stream, then micro rows and
                                 the defect probe

A record is ``[cpu_ns, value, flag, exception, integral, estimate,
wall_ns]``: the calling thread's CPU time in the call, the call's value
(``[re, im]`` for a contour value), the condition flag (``"ok"`` when the
entry point returns none), the type name of the exception it raised, the
value and error estimate of its ``IntegralResult`` when it has one, and
the call's wall time.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

from workloads import ROUTE, ROUTES, STREAMS, TRACE_CALLS, Call, defect_probe, first_calls

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

WINDOW_S = 0.1  # seconds of calls between two calibrations
_CAL_UNITS = 3  # calibration units after each window and after set-up
_WARMUP_S = 0.5  # calibration units run before the first window
_REPLAY_MAX = 200_000  # kernel arguments replayed per repeat
_MICRO_REPEATS = 7
_PANEL_CALLS = 2000
_PROBE_POINTS = 16


def _import_regamma():
    """regamma from src/ of this checkout, never an installed copy."""
    sys.path.insert(0, _SRC)
    import regamma

    if os.path.dirname(os.path.dirname(os.path.abspath(regamma.__file__))) != _SRC:
        raise SystemExit(f"regamma was imported from {regamma.__file__}, not {_SRC}")
    return regamma


def make_invoker(rg):
    """Map a Call onto the public API; functions are looked up per call so
    that the tracer's rebinding of the package namespace takes effect."""
    configs = {}

    def invoke(call):
        cfg = configs.get(call.eps)
        if cfg is None:
            cfg = configs[call.eps] = rg.QuadratureConfig(eps_rel=call.eps)
        kind, args = call.kind, call.args
        if kind == "fig1":
            return rg.recip_gamma_neg_reflection(args[0], cfg)
        if kind == "fig3":
            return rg.recip_gamma(args[0], cfg)
        if kind == "fig4":
            return rg.gamma_negative(args[0], cfg)
        if kind == "gamma_ratio":
            return rg.gamma_ratio(args[0], args[1], cfg)
        if kind == "hankel_recip_gamma":
            z, delta, r0 = args
            return rg.hankel_recip_gamma(z, rg.HankelContour(delta=delta, r0=r0), cfg)
        if kind == "inverse_laplace_monomial":
            return rg.inverse_laplace_monomial(args[0], args[1], None, cfg)
        return rg.recip_gamma(args[0], cfg, rg.MethodTag(kind))

    return invoke


def _record(ns: int, out, exc: str | None) -> list:
    if exc is not None:
        return [ns, None, None, exc, None, None]
    if isinstance(out, float):  # inverse_laplace_monomial
        return [ns, out, "ok", None, None, None]
    if hasattr(out, "im"):  # ComplexValue of hankel_recip_gamma
        return [ns, [out.re, out.im], "ok", None, None, None]
    q = out.quadrature
    if q is None:  # exact fast path
        return [ns, out.value, "ok", None, None, None]
    return [ns, out.value, out.condition_flag.value, None, q.value, q.abs_error_estimate]


def timed_calls(invoke, calls, deadline: float | None = None):
    """Yield one record per call, one call at a time (a closed loop).

    With a deadline, stop after the call that finishes past it.
    """
    wall_ns, cpu_ns = time.perf_counter_ns, time.thread_time_ns
    for call in calls:
        w0, c0 = wall_ns(), cpu_ns()
        try:
            out = invoke(call)
            exc = None
        except Exception as error:  # a raising call is an outcome to classify
            out = None
            exc = type(error).__name__
        cpu, wall = cpu_ns() - c0, wall_ns() - w0
        record = _record(cpu, out, exc)
        record.append(wall)
        yield record
        if deadline is not None and time.perf_counter() >= deadline:
            return


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def setup(workload: str, seed: int) -> None:
    call = first_calls(workload, seed, 1)[0]
    t0 = time.perf_counter()
    rg = _import_regamma()

    invoke = make_invoker(rg)
    try:
        invoke(call)
    except Exception:  # a first call that raises still ends set-up
        pass
    setup_s = time.perf_counter() - t0
    from calibrate import unit_ns  # imported after the timer: it loads cmath

    _emit({"setup_s": setup_s, "cal_ns": unit_ns(_CAL_UNITS)})


def measure(workload: str, seed: int, seconds: float) -> None:
    """Windows of calls, each followed by calibration units.

    The first line holds the warm-up's calibration units; each further
    line one window: its records, its wall time and the calibration units
    run after it.  The loop runs for `seconds` in all.
    """
    from calibrate import unit_ns

    rg = _import_regamma()

    invoke = make_invoker(rg)
    stream = STREAMS[workload](seed)
    warm = []
    warm_end = time.perf_counter() + _WARMUP_S
    while not warm or time.perf_counter() < warm_end:
        warm += unit_ns(1)
    _emit({"cal_ns": warm[-_CAL_UNITS:]})
    calls = 0
    end = time.perf_counter() + seconds
    while calls == 0 or time.perf_counter() < end:
        begin = time.perf_counter()
        records = list(timed_calls(invoke, stream, min(begin + WINDOW_S, end)))
        wall = time.perf_counter() - begin
        calls += len(records)
        _emit({"records": records, "wall_s": wall, "cal_ns": unit_ns(_CAL_UNITS)})
    _emit({
        "calls": calls,
        "peak_rss_mb": _peak_rss_mb(),
        "mpmath_loaded": "mpmath" in sys.modules,
    })


def _peak_rss_mb() -> float:
    """This process's peak RSS (Linux VmHWM).

    getrusage's ru_maxrss is not used: across the parent's fork and exec it
    keeps the parent's peak, which holds mpmath.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _timed_pass(invoke, calls) -> tuple[list, float]:
    begin = time.perf_counter()
    records = list(timed_calls(invoke, calls))
    return records, time.perf_counter() - begin


def _replay_ns(kernel, args) -> list[float]:
    """Untraced ns per call of kernel_ratio and exp_remainder on captured (x, n),
    once per repeat."""
    total = sum(len(xs) for xs, _ in args.values())
    stride = max(1, -(-total // _REPLAY_MAX))
    batches = [(getattr(kernel, name), list(zip(xs[::stride], ns[::stride])))
               for name, (xs, ns) in args.items()]
    count = sum(len(pairs) for _, pairs in batches)
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for fn, pairs in batches:
            for x, n in pairs:
                fn(x, n)
        samples.append((time.perf_counter() - t0) / count * 1e9)
    return samples


def _linear(x: float) -> float:
    return x


def _panel_overhead_us(rg) -> list[float]:
    """Cost of integrate_finite per 15-point panel beyond its integrand calls,
    once per repeat.

    A linear integrand meets any tolerance on the first panel, so one call
    is one panel; the integrand's own cost is timed alone and taken out.
    """
    cfg = rg.QuadratureConfig()
    integrate_finite = rg.quadrature.integrate_finite
    evaluations = integrate_finite(_linear, 0.0, 1.0, cfg).evaluations
    samples = []
    for _ in range(_MICRO_REPEATS):
        t0 = time.perf_counter()
        for _ in range(_PANEL_CALLS):
            integrate_finite(_linear, 0.0, 1.0, cfg)
        t1 = time.perf_counter()
        for _ in range(_PANEL_CALLS * evaluations):
            _linear(0.5)
        t2 = time.perf_counter()
        per_call = ((t1 - t0) - (t2 - t1)) / _PANEL_CALLS
        samples.append(per_call / (evaluations / 15) * 1e6)
    return samples


def _probe_calls(route: str, seed: int):
    """Seeded calls of one route at eps 1e-8, z in (0, 10) away from integers."""
    rng = random.Random(seed * 7919 + ROUTES.index(route))
    for _ in range(_PROBE_POINTS):
        z = rng.randint(0, 9) + rng.uniform(0.1, 0.9)
        yield Call(route, (z, z + 0.5) if route == "gamma_ratio" else (z,), 1e-8)


def trace(workload: str, seed: int) -> None:
    from spans import Tracer  # imported here to keep it out of the measured RSS

    rg = _import_regamma()

    invoke = make_invoker(rg)
    calls = first_calls(workload, seed, TRACE_CALLS[workload])
    plain, plain_wall = _timed_pass(invoke, calls)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = _timed_pass(invoke, calls)
    finally:
        tracer.uninstall()
    spans = tracer.summary()

    # Routes this workload never calls are timed on a seeded probe instead.
    probe_us = {}
    used = {ROUTE[c.kind] for c in calls}
    for route in ROUTES:
        if route not in used:
            records, _ = _timed_pass(invoke, _probe_calls(route, seed))
            probe_us[route] = [r[0] / 1e3 for r in records]
    ray_probe = None
    if "hankel.ray_kernel" not in spans:
        probe = Tracer()
        probe.install()
        try:
            _timed_pass(invoke, _probe_calls("hankel", seed))
        finally:
            probe.uninstall()
        ray_probe = probe.summary()["hankel.ray_kernel"]

    defects, _ = _timed_pass(invoke, defect_probe(seed))

    _emit({
        "records": plain,
        "defect_records": defects,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "tracing_kept_results": repr([r[1:6] for r in plain]) == repr([r[1:6] for r in traced]),
        "spans": spans,
        "evaluations": tracer.evaluations,
        "tail_evaluations": tracer.tail_evaluations,
        "replay_ns": _replay_ns(rg.kernel, tracer.replay_args),
        "panel_overhead_us": _panel_overhead_us(rg),
        "route_probe_us": probe_us,
        "ray_kernel_probe": ray_probe,
        "mpmath_loaded": "mpmath" in sys.modules,
    })


def main(argv: list[str]) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(workload, seed)
    elif mode == "measure":
        measure(workload, seed, float(argv[3]))
    elif mode == "trace":
        trace(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
