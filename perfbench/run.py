"""Benchmark of regamma: per-call latency under an mpmath accuracy gate,
and a layer trace.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: one
closed-loop caller (a single process and thread, each call issued when the
previous one returns) runs the workload stream for S seconds, and separate
fresh processes time set-up.  ``--trace 1`` measures the per-layer metrics:
an untraced and a traced pass over a fixed prefix of the same stream, plus
two untraced micro rows.  Either way every call is checked against a
30-digit mpmath reference after the timed work, and the last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics.  The run exits non-zero, printing no result, if it cannot measure
(for example when ``src/regamma`` is absent).

Per-call latency is the calling thread's CPU time in the call.  regamma is
single-threaded and never blocks, so that equals the call's wall time
except for time the host takes the CPU away, which on a shared virtual
machine can double the tail of a run; the wall-clock percentiles are
printed beside it.  Throughput counts calls per wall-clock second.  Call
times, window wall times and set-up times are scaled to the reference
speed of ``calibrate.py`` by the calibration units timed next to them;
the unscaled figures are printed too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from calibrate import speed
from reference import FAILED, FLAGGED, OK, classify, in_domain, reference, relative_error, self_check
from spans import KERNEL_CALLS
from workloads import ROUTE, ROUTES, STREAMS, defect_probe, first_calls, repeat_share

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_WORKER = os.path.join(_HERE, "worker.py")

SETUP_REPEATS = 11
_SETUP_TIMEOUT_S = 20
_TRACE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _worker(*args, timeout: float) -> list[dict]:
    try:
        proc = subprocess.run(
            [sys.executable, _WORKER, *map(str, args)],
            cwd=_ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker {args[0]} ran past {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if lines and lines[-1].get("mpmath_loaded"):
        raise BenchError("mpmath was imported into the measured process")
    return lines


def _judge(calls, records) -> tuple[list[str], list[float]]:
    """Verdict and relative error (nan where unchecked) of every call."""
    refs = {}
    verdicts, errors = [], []
    for call, rec in zip(calls, records):
        key = (call.kind, call.args)
        if key not in refs:
            refs[key] = reference(call)
        ref = refs[key]
        verdicts.append(classify(rec, ref, call.eps))
        checkable = rec[1] is not None and in_domain(ref)
        errors.append(relative_error(rec[1], ref) if checkable else math.nan)
    return verdicts, errors


def _exceptions(records) -> list[str]:
    raised = sorted({rec[3] for rec in records if rec[3]})
    return [f"exceptions raised = {', '.join(raised) or 'none'}"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p99(sorted_values: list[float]) -> tuple[float, float]:
    """The 99th percentile, or the highest one with ten samples beyond it."""
    n = len(sorted_values)
    index = max(0, min(math.ceil(0.99 * n) - 1, n - 11))
    return sorted_values[index], 100.0 * (index + 1) / n


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], list[str], bool]:
    def setup() -> tuple[float, float]:
        out = _worker("setup", workload, seed, timeout=_SETUP_TIMEOUT_S)[0]
        return out["setup_s"], speed(out["cal_ns"])

    setup()  # byte-compiles; not counted
    # Set-ups before and after the loop, so that their median spans the run.
    setups = [setup() for _ in range(SETUP_REPEATS // 2 + 1)]
    lines = _worker("measure", workload, seed, seconds, timeout=seconds + 60)
    setups += [setup() for _ in range(SETUP_REPEATS // 2)]
    done, windows = lines[-1], lines[1:-1]
    # A window's speed factor comes from the calibration units on both sides of it.
    factors = [speed(before["cal_ns"] + after["cal_ns"])
               for before, after in zip(lines[:-2], windows)]
    records = [rec for window in windows for rec in window["records"]]
    calls = first_calls(workload, seed, len(records))
    verdicts, _ = _judge(calls, records)
    micros = sorted(rec[0] / 1e3 * f for w, f in zip(windows, factors) for rec in w["records"])
    p99, level = _p99(micros)
    raw_micros = sorted(rec[0] / 1e3 for rec in records)
    wall_micros = sorted(rec[6] / 1e3 for rec in records)
    values = {
        "latency_us.p50": statistics.median(micros),
        "latency_us.p99": p99,
        "throughput_per_s": done["calls"] / sum(w["wall_s"] * f for w, f in zip(windows, factors)),
        "setup_s": statistics.median(s * f for s, f in setups),
        "peak_rss_mb": done["peak_rss_mb"],
    }
    notes = [
        f"samples = {len(micros)} calls (latency_us.p99 is the p{level:.2f})",
        f"speed factors = {min(factors):.3f} .. {max(factors):.3f}, "
        f"median {statistics.median(factors):.3f} over {len(factors)} windows",
        f"unscaled thread CPU latency: p50 = {statistics.median(raw_micros):.6g} us, "
        f"p{level:.2f} = {_p99(raw_micros)[0]:.6g} us",
        f"unscaled wall-clock latency: p50 = {statistics.median(wall_micros):.6g} us, "
        f"p{level:.2f} = {_p99(wall_micros)[0]:.6g} us",
        f"unscaled throughput = {done['calls'] / sum(w['wall_s'] for w in windows):.6g} 1/s",
        f"unscaled setup_s samples = {', '.join(f'{s:.4f}' for s, _ in setups)}",
        f"repeated integrals = {repeat_share(calls):.4f} of calls",
    ]
    return values, verdicts, _exceptions(records) + notes, True


def per_layer(workload: str, seed: int) -> tuple[dict, list[str], list[str], bool]:
    out = _worker("trace", workload, seed, timeout=_TRACE_TIMEOUT_S)[0]
    records = out["records"]
    calls = first_calls(workload, seed, len(records))
    ops = len(records)
    spans = out["spans"]
    traced = out["traced_wall_s"]

    def span(name: str, field: str):
        return spans.get(name, {}).get(field, 0)

    def layer_self(layer: str, exclude: str = "") -> float:
        return sum(v["self_s"] for k, v in spans.items()
                   if k.startswith(layer + ".") and k != exclude)

    verdicts, errors = _judge(calls, records)
    defect_verdicts, _ = _judge(defect_probe(seed), out["defect_records"])
    err_to_est, err_to_tol = [], [0.0]
    for call, rec, verdict, err in zip(calls, records, verdicts, errors):
        integral, estimate = rec[4], rec[5]
        if not math.isnan(err) and integral and estimate:
            err_to_est.append(err / (estimate / abs(integral)))
        if verdict in (OK, FAILED) and rec[2] == "ok" and not math.isnan(err):
            err_to_tol.append(err / call.eps)

    by_route = {route: [] for route in ROUTES}
    for call, rec in zip(calls, records):
        if ROUTE[call.kind] is not None:
            by_route[ROUTE[call.kind]].append(rec[0] / 1e3)
    ray = spans.get("hankel.ray_kernel") or out["ray_kernel_probe"]
    evaluations = out["evaluations"]
    kernel_calls = sum(span(f"kernel.{name}", "calls") for name in KERNEL_CALLS)
    values = {
        "kernel.calls_per_op": kernel_calls / ops,
        "kernel.ns_per_call": _ratio(layer_self("kernel"), kernel_calls) * 1e9,
        "kernel.self_share": layer_self("kernel") / traced,
        "kernel.ns_per_call.replay": statistics.median(out["replay_ns"]),
        "quadrature.evals_per_op": evaluations / ops,
        "quadrature.exp_tail_eval_share": _ratio(out["tail_evaluations"], evaluations),
        "quadrature.calls_per_op": span("quadrature.integrate_finite", "calls") / ops,
        "quadrature.overhead_ns_per_eval":
            _ratio(span("quadrature.integrate_finite", "self_s"), evaluations) * 1e9,
        "quadrature.not_met_share": sum(r[2] == "tolerance_not_met" for r in records) / ops,
        "quadrature.err_to_est.p50": statistics.median(err_to_est) if err_to_est else 0.0,
        "quadrature.err_to_tol.max": max(err_to_tol),
        "quadrature.panel_overhead_us": statistics.median(out["panel_overhead_us"]),
        "quadrature.self_share": layer_self("quadrature") / traced,
        "gamma_core.flagged_share": sum(v == FLAGGED for v in verdicts) / ops,
        "gamma_core.self_share": layer_self("gamma_core") / traced,
        "gamma_core.defect_probe.fail_share":
            defect_verdicts.count(FAILED) / len(defect_verdicts),
        "hankel.ray_kernel_calls_per_op": span("hankel.ray_kernel", "calls") / ops,
        "hankel.ray_kernel_ns_per_call": ray["self_s"] / ray["calls"] * 1e9,
        "hankel.self_share": layer_self("hankel", exclude="hankel.ray_kernel") / traced,
        "trace.overhead": traced / out["plain_wall_s"],
    }
    for route, micros in by_route.items():
        values[f"gamma_core.route_us_p50.{route}"] = statistics.median(
            micros or out["route_probe_us"][route])
    probed = sorted(out["route_probe_us"])
    notes = [
        f"traced calls = {ops}; traced wall = {traced:.4f} s, untraced = {out['plain_wall_s']:.4f} s",
        f"routes timed on the probe = {', '.join(probed) or 'none'}",
        "defect probe verdicts (not in the result line's counts) = "
        + str({v: defect_verdicts.count(v) for v in sorted(set(defect_verdicts))}),
        "hankel.ray_kernel_ns_per_call from "
        + ("the workload" if "hankel.ray_kernel" in spans else "the hankel route probe"),
    ]
    notes += [f"self {name} = {v['self_s']:.6f} s over {v['calls']} calls"
              for name, v in sorted(spans.items())]
    kept = out["tracing_kept_results"]
    if not kept:
        notes.append("a traced call returned another result than untraced")
    return values, verdicts, _exceptions(records) + notes, kept


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.trace:
            values, verdicts, notes, consistent = per_layer(args.workload, args.seed)
        else:
            values, verdicts, notes, consistent = end_to_end(
                args.workload, args.seed, args.seconds)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checked = self_check()
    if not checked:
        notes.append("the classifier self-check failed")
    counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"  verdicts = {counts}")
    print(f"  fail_rate = {_ratio(counts.get(FAILED, 0), len(verdicts)):.6f}")
    print(json.dumps({
        "correct": checked and consistent,
        "attempted": len(verdicts),
        "failed": counts.get(FAILED, 0),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
