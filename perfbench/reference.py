"""The accuracy gate: 30-digit mpmath references and the per-call verdict.

A call is *in domain* when its reference is a finite, nonzero, normal
double.  Its verdict is

  failed         it raised on an in-domain input, or it returned flag
                 ``ok`` with a relative error above 10 * eps_rel;
  flagged        it returned a flag other than ``ok`` (not a failure);
  out_of_domain  it raised or returned ``ok`` on an input outside the
                 domain, where there is no double to check against;
  ok             otherwise.

References are computed in the parent process, after the timed run, so
neither mpmath nor the reference work enters a measurement.
"""

from __future__ import annotations

import math
import sys

import mpmath

from workloads import Call

DIGITS = 30
FAIL_FACTOR = 10.0  # an ok result may be off by up to this many eps_rel

OK, FLAGGED, FAILED, OUT_OF_DOMAIN = "ok", "flagged", "failed", "out_of_domain"


def reference(call: Call) -> float:
    """The exact value of the call rounded to a double; inf at a pole."""
    with mpmath.workdps(DIGITS):
        args = [mpmath.mpf(a) for a in call.args]
        try:
            if call.kind == "fig1":
                exact = mpmath.rgamma(-args[0])
            elif call.kind == "fig4":
                exact = mpmath.gamma(-args[0])
            elif call.kind == "gamma_ratio":
                exact = mpmath.gamma(args[0]) * mpmath.rgamma(args[1])
            elif call.kind == "inverse_laplace_monomial":
                exact = args[1] ** args[0]  # t^k
            else:  # every other kind evaluates 1/Gamma(z)
                exact = mpmath.rgamma(args[0])
        except ValueError:  # mpmath raises at a pole of Gamma
            return math.inf
        return float(exact)


def in_domain(ref: float) -> bool:
    return math.isfinite(ref) and abs(ref) >= sys.float_info.min


def relative_error(value, ref: float) -> float:
    """|value - ref| / |ref|, with a contour value's imaginary part counted."""
    if isinstance(value, list):
        value = complex(*value)
    err = abs(value - ref) / abs(ref)
    return math.inf if math.isnan(err) else err


def classify(record: list, ref: float, eps: float) -> str:
    value, flag, exc = record[1], record[2], record[3]
    if exc is not None:
        return FAILED if in_domain(ref) else OUT_OF_DOMAIN
    if flag != "ok":
        return FLAGGED
    if not in_domain(ref):
        return OUT_OF_DOMAIN
    return OK if relative_error(value, ref) <= FAIL_FACTOR * eps else FAILED


def self_check() -> bool:
    """The classifier passes planted cases: a wrong ok value fails, a wrong
    flagged value counts as flagged, a raise in domain fails."""
    call = Call("real_axis", (0.5,), 1e-8)
    ref = reference(call)
    wrong = ref * (1.0 + 1e-3)
    cases = [
        ([0, 1.0 / math.sqrt(math.pi), "ok", None, None, None], ref, OK),
        ([0, wrong, "ok", None, None, None], ref, FAILED),
        ([0, wrong, "near_integer_amplification", None, None, None], ref, FLAGGED),
        ([0, None, None, "OverflowError", None, None], ref, FAILED),
        ([0, None, None, "OverflowError", None, None], math.inf, OUT_OF_DOMAIN),
        ([0, [ref, 1e-3], "ok", None, None, None], ref, FAILED),
    ]
    return all(classify(rec, r, call.eps) == want for rec, r, want in cases)
