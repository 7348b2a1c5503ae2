"""Answer checks for benchmark ops, run outside the timed span.

Each rule compares an op's outcome with the verdict its generator derived
from how the input was built.  A rule returns ``None`` when the answer is
right and a one-line reason otherwise.  The checks recompute what they can
with plain numpy (residuals, discriminants) instead of trusting the report.
"""

from __future__ import annotations

import numpy as np

from entloc.factorization import WITNESS_THRESHOLD
from entloc.report import complex_pair, results_bytes, state_json
from entloc.separability import classify

SEPARABLE = {"SepI", "SepIIOnly", "SepIII", "ModeSep", "SsrSep"}
RECHECK_TOL = 1e-12
QUARTIC_TOL = 1e-9


class Failure:
    """Outcome of an op that exited nonzero or raised."""

    def __init__(self, reason: str):
        self.reason = reason


def _residual(A: np.ndarray, B: np.ndarray, psi: np.ndarray) -> complex:
    n = np.vdot(psi, psi)
    return complex(np.vdot(psi, A @ (B @ psi)) / n - (np.vdot(psi, A @ psi) / n) * (np.vdot(psi, B @ psi) / n))


def _state(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _audit(op, report) -> str | None:
    res = report["results"]["audit"]
    if report["summary"] != op.expect:
        return f"verdict {report['summary']}, expected {op.expect}"
    if op.expect == "ViolationFound":
        if not res["recheck_error"] <= RECHECK_TOL:
            return f"recheck_error {res['recheck_error']!r}"
        if not res["max_abs_residual"] > res["threshold"]:
            return "violation below threshold"
    elif not res["max_abs_residual"] <= res["threshold"]:
        return "factorizing verdict above threshold"
    return None


def _witness(op, report) -> str | None:
    res = report["results"]
    verdict = report["summary"]
    if verdict != ("ViolationFound" if op.expect else "NotFound"):
        return f"verdict {verdict}, expected {'found' if op.expect else 'NotFound'}"
    if not op.expect:
        return None if res["found"] is False else "NotFound without found=false"
    if not res["recheck_error"] <= RECHECK_TOL:
        return f"recheck_error {res['recheck_error']!r}"
    if not res["abs_residual"] > report["config"]["witness_threshold"]:
        return "witness residual below threshold"
    if res["membership"]["set"] not in SEPARABLE:
        return f"witness reported as {res['membership']['set']}"
    again = classify(res["set"], _state(res["state"]))
    return None if again.separable else f"witness reclassified as {again.set.value}"


def _witness_lib(op, w) -> str | None:
    if (w is not None) != op.expect:
        return f"found={w is not None}, expected {op.expect}"
    if w is None:
        return None
    A, B, set_name = op.args
    r = _residual(A, B, w.state)
    if not abs(r - w.residual) <= RECHECK_TOL:
        return f"recheck_error {abs(r - w.residual)!r}"
    if not abs(r) > WITNESS_THRESHOLD:
        return "witness residual below threshold"
    again = classify(set_name, w.state)
    return None if again.separable else f"witness classified as {again.set.value}"


def _classify(op, report) -> str | None:
    got = {name: v["set"] for name, v in report["results"]["verdicts"].items()}
    return None if got == op.expect else f"verdicts {got}, expected {op.expect}"


def _summary(op, report) -> str | None:
    return None if report["summary"] == op.expect else f"summary {report['summary']}, expected {op.expect}"


def _sample(op, report) -> str | None:
    ok = report["results"]["all_separable"] is True and report["summary"] == "OK"
    return None if ok else "sampled state failed its classifier"


def _quartic(op, q) -> str | None:
    if q.tautology != op.expect:
        return f"tautology={q.tautology}, expected {op.expect}"
    if q.tautology:
        return None
    A, c0 = op.args
    if q.roots.size == 0:
        return "no roots for a generic operator"
    for c1 in q.roots:
        image = A @ np.array([c0 * c0, c1 * c1, np.sqrt(2.0) * c0 * c1])
        disc = image[2] ** 2 - 2.0 * image[0] * image[1]
        scale = np.linalg.norm(A) ** 2 * max(1.0, abs(c0)) ** 4 * max(1.0, abs(c1)) ** 4
        if not abs(disc) <= QUARTIC_TOL * scale:
            return f"root {c1!r} leaves family I (|disc|={abs(disc):.2e})"
    return None


RULES = {
    "audit": _audit,
    "witness": _witness,
    "witness-lib": _witness_lib,
    "classify": _classify,
    "summary": _summary,
    "sample": _sample,
    "quartic": _quartic,
}


def check(op, outcome) -> str | None:
    """Failure reason for ``op``'s outcome, or ``None`` when the answer is right."""
    if isinstance(outcome, Failure):
        return outcome.reason
    try:
        return RULES[op.check](op, outcome)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed outcome: {exc!r}"


def outcome_bytes(outcome) -> bytes:
    """Canonical bytes of an outcome's reproducible part (``results`` of a report)."""
    if isinstance(outcome, Failure):
        return b""
    if isinstance(outcome, dict):
        return results_bytes(outcome)
    if outcome is None:  # witness search without a violation
        return results_bytes({"results": {"found": False}})
    if hasattr(outcome, "tautology"):
        plain = {
            "tautology": outcome.tautology,
            "roots": [complex_pair(z) for z in outcome.roots],
            "coefficients": [complex_pair(z) for z in outcome.coefficients],
        }
    else:
        plain = {"state": state_json(outcome.state), "residual": complex_pair(outcome.residual)}
    return results_bytes({"results": plain})
