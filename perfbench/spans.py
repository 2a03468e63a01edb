"""Span tracing of regamma's layers from outside the package.

The tracer rebinds every public function of the measured layer modules
(``kernel``, ``quadrature``, ``gamma_core``, ``hankel``) with a wrapper
that records a span, in every regamma module namespace that holds the
function, and restores the originals on ``uninstall``.  Nothing under
``src/`` changes.  Private helpers stay unwrapped, so their time is self
time of the public function that runs them; in particular the route
integrand closures defined in ``gamma_core`` count as ``quadrature`` self
time, because ``integrate_finite`` calls them.

Spans live in flat arrays (name id, parent index, start, end) until the
run ends; a layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("kernel", "quadrature", "gamma_core", "hankel")

# Kernel entry points whose calls make up kernel.calls_per_op.
KERNEL_CALLS = ("kernel_ratio", "exp_remainder", "regularized_integrand")
# Kernel entry points whose (x, n) arguments are kept for the replay row.
REPLAYED = ("kernel_ratio", "exp_remainder")
# Quadrature entry points whose IntegralResult.evaluations are summed.
_COUNTERS = {
    "quadrature.integrate_finite": "evaluations",
    "quadrature.exponential_tail": "tail_evaluations",
}


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall, read."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name id -> "layer.function"
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.evaluations = 0  # sum of IntegralResult.evaluations of integrate_finite
        self.tail_evaluations = 0  # the same, of exponential_tail
        self.replay_args = {name: (array("d"), array("l")) for name in REPLAYED}
        self._stack = [-1]
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "regamma" or name.startswith("regamma."))]
        for layer in LAYERS:
            module = sys.modules[f"regamma.{layer}"]
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{fname}")
                for holder in modules:
                    if holder.__dict__.get(fname) is fn:
                        self._rebound.append((holder, fname, fn))
                        setattr(holder, fname, wrapper)

    def uninstall(self) -> None:
        for holder, fname, fn in reversed(self._rebound):
            setattr(holder, fname, fn)
        self._rebound.clear()

    def _wrap(self, fn, span_name: str):
        ident = len(self.names)
        self.names.append(span_name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        capture = self.replay_args.get(fn.__name__) if span_name.startswith("kernel.") else None
        counter = _COUNTERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if capture is not None:
                capture[0].append(args[0])
                capture[1].append(args[1])
            index = len(name_id)
            name_id.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + result.evaluations)
            return result

        return wrapper

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: number of calls and total self time in seconds."""
        count = len(self.name_id)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            ident = self.name_id[i]
            calls[ident] += 1
            self_s[ident] += end[i] - start[i] - child[i]
        return {
            name: {"calls": calls[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
            if calls[i]
        }
