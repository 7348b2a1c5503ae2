"""Command-line front end.

Subcommands wrap the library one-to-one: ``classify`` runs every applicable
membership test, ``reproduce-paper`` evaluates the built-in reference checks
from first principles, ``audit``/``witness`` drive the residual machinery,
``certify`` produces exact polynomial certificates, ``preserve-check``
recognizes invariance structure and ``sample`` draws separable states.

Operators are given in a small spec language::

    pauli:2                diag:1,-1/2            number:L0
    ladder:0:+             entries:[[0,1],[1,0]]  oxo:pauli:3

Atoms may be combined with top-level ``+``/``-`` (e.g.
``number:L0-number:L1``).  Scalars accept rationals (``-3/2``) and complex
literals (``1+2j``).  Exit codes: 0 success, 1 stdout closed before the
report was written (e.g. piped into ``head``; nothing is printed), 2 input
error (also an ``--out`` path that cannot be written), 3 reference check
failed, 4 internal consistency error (also a report that would hold NaN or
an infinity).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

from .certificates import (
    PAULI_EXACT,
    certify_factorization_sep_I,
    certify_sector_coupling,
)
from .errors import ConsistencyError
from .exact import GaussianRational
from .factorization import (
    CONTROL_STATES,
    CONTROL_THRESHOLD,
    WITNESS_BUDGET,
    WITNESS_THRESHOLD,
    audit,
    find_violation_witness,
    positive_control,
    residual,
)
from .hilbert import (
    N_MAX,
    PAULI,
    SINGLE_PARTICLE_LABELS,
    FockSpace,
    number_level_operator,
)
from .invariance import (
    commutativity_condition,
    construct_sep_I_preserver,
    fit_sep_I_preserver,
    is_block_scalar,
    is_sep_II_preserver,
)
from .reference import reference_suite
from .report import CONFIG_KNOBS, build_report, complex_pair, emit, state_json
from .separability import (
    DEFAULT_TOL,
    Tolerances,
    canonical_set_name,
    classify,
    classify_states,
    family,
    sep_I_state,
    sep_II_orthogonal_state,
)

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_INPUT = 2
EXIT_REFERENCE_FAIL = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# scalar and operator spec parsing

MAX_DECIMAL_EXPONENT = 4300
"""Most digits on either side of an exact scalar's ``/``, and its largest decimal exponent in magnitude.

``Fraction`` builds ``10**exponent``, so its cost has no bound of its own;
4300 is also the most digits Python converts between ``str`` and ``int``.
"""


def _exact_rational(text: str) -> Fraction:
    mantissa, e, exponent = text.lower().partition("e")
    if len(text) > MAX_DECIMAL_EXPONENT:  # only such a text can have a side of more digits
        longest = max(sum(map(str.isdecimal, side)) for side in mantissa.split("/"))
        if longest > MAX_DECIMAL_EXPONENT:  # the interpreter would name sys.set_int_max_str_digits()
            raise ValueError(f"an exact scalar is too long: {longest} digits, at most {MAX_DECIMAL_EXPONENT}")
    digits = exponent.lstrip("+-").lstrip("0")
    if e and digits.isdecimal() and int(digits[:5]) > MAX_DECIMAL_EXPONENT:  # 5 digits exceed 4300
        raise ValueError(
            f"decimal exponent out of range in {text!r}: at most {MAX_DECIMAL_EXPONENT} in magnitude"
        )
    try:
        if _INTEGER_RATIO.fullmatch(text):  # the common spelling, read without Fraction's own regex
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den or 1))
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


_INTEGER_RATIO = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_exact_scalar(text: str) -> GaussianRational:
    t = text.strip().replace(" ", "").replace("i", "j")
    if not t:
        raise ValueError("empty scalar")
    if t.endswith("j"):
        body = t[:-1]
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE/+-":
                re_part, im_part = body[:k], body[k:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return GaussianRational(_exact_rational(re_part), _exact_rational(im_part))
        if body in ("", "+", "-"):
            body += "1"
        return GaussianRational(Fraction(0), _exact_rational(body))
    return GaussianRational(_exact_rational(t), Fraction(0))


def parse_scalar(text: str) -> complex:
    try:
        return parse_exact_scalar(text).to_complex()
    except (ValueError, OverflowError):
        return complex(text.strip().replace(" ", "").replace("i", "j"))


def _coerce_entry(v, exact: bool):
    if type(v) is int:  # the common JSON entry; a bool is not one
        if exact:  # every exact ring coerces a Python int as it is
            return v
        try:
            return complex(v)
        except OverflowError:  # past the float range: read as its digits are, an infinity
            return parse_scalar(str(v))
    if isinstance(v, str):
        return parse_exact_scalar(v) if exact else parse_scalar(v)
    if isinstance(v, list):
        if len(v) != 2 or any(isinstance(part, list) for part in v):
            raise ValueError("complex entries as [re, im] pairs")
        # each part is read as a lone entry, and must be real
        re, im = (_coerce_entry(part, exact) for part in v)
        if exact:
            re, im = GaussianRational.coerce(re), GaussianRational.coerce(im)
        if (re.im or im.im) if exact else (re.imag or im.imag):
            raise ValueError(f"[re, im] parts must be real, got {v!r}")
        return GaussianRational(re.re, im.re) if exact else complex(re.real, im.real)
    if isinstance(v, bool) or not isinstance(v, (int, float)):  # a bool is an int
        raise ValueError(f"operator entry {v!r} is not a number")
    if exact:
        # JSON numbers are read as the exact decimals they spell, like pairs
        return GaussianRational(_exact_rational(str(v)))
    return complex(v)


def _json_int(text: str) -> int:
    # the interpreter's own refusal would name sys.set_int_max_str_digits()
    if len(text.lstrip("-")) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"an entries: integer is too long: at most {MAX_DECIMAL_EXPONENT} digits")
    return int(text)


def _split(text: str, cut) -> list[str]:
    """Split ``text`` before each position ``k`` outside brackets and parentheses
    where ``cut(k)`` holds and the part so far is not empty; a comma cut is dropped."""
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if depth == 0 and k > start and cut(k):
            parts.append(text[start:k])
            start = k + (ch == ",")
    parts.append(text[start:])
    return parts


def _split_top_level(text: str) -> list[str]:
    """Split at commas outside brackets and parentheses."""
    return [p for p in _split(text, lambda k: text[k] == ",") if p]


def _split_terms(text: str) -> list[str]:
    """Split an operator expression at top-level ``+``/``-`` between atoms.

    A sign only separates terms when the next character starts an atom name,
    so minus signs inside scalar arguments (``diag:1,-1/2``) are untouched.
    """
    if not _SIGN_BEFORE_LETTER.search(text):  # no sign that could separate two terms
        return [text] if text.strip() else []
    parts = _split(text, lambda k: text[k] in "+-" and text[k + 1 : k + 2].isalpha())
    return [p for p in parts if p.strip()]


# a sign before a word character that is no digit and no underscore: every letter is one
_SIGN_BEFORE_LETTER = re.compile(r"[+-][^\W\d_]")


def _parse_atom(spec: str, exact: bool, fock: FockSpace | None) -> np.ndarray:
    spec = spec.strip()
    sign = 1.0
    while spec and spec[0] in "+-":
        if spec[0] == "-":
            sign = -sign
        spec = spec[1:].strip()
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head == "pauli":
        k = int(rest)
        if not 0 <= k <= 3:
            raise ValueError("pauli index must be 0..3")
        mat = PAULI_EXACT[k] if exact else PAULI[k]
    elif head == "diag":
        mat = np.diag([_coerce_entry(s, exact) for s in _split_top_level(rest)])
    elif head == "entries":
        # only a text longer than the digit bound can spell an integer past it
        rows = json.loads(rest, parse_int=_json_int) if len(rest) > MAX_DECIMAL_EXPONENT else json.loads(rest)
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValueError("entries: needs a JSON list of rows")
        mat = [[v if exact and type(v) is int else _coerce_entry(v, exact) for v in row] for row in rows]
    elif head == "number":
        if rest in SINGLE_PARTICLE_LABELS:
            # integer counts, exact in either mode
            mat = number_level_operator(SINGLE_PARTICLE_LABELS.index(rest)).real.astype(int)
        else:
            if fock is None:
                levels = ", ".join(SINGLE_PARTICLE_LABELS)
                raise ValueError(f"number:{rest}: unknown level {rest!r}, the levels are {levels}")
            if exact:
                raise ValueError("Fock number operators are not supported in exact mode")
            mat = fock.number(rest)
    elif head == "ladder":
        if fock is None:
            raise ValueError("ladder operators need a Fock-space context")
        if exact:
            raise ValueError("ladder operators are not supported in exact mode")
        mode, _, kind = rest.partition(":")
        if kind not in ("+", "-"):
            raise ValueError(f"ladder direction must be + or -, got {kind!r}")
        mat = fock.ladder(mode, 1 if kind == "+" else -1)
    elif head == "oxo":
        if exact:
            raise ValueError("oxo wrapping is not supported in exact mode")
        mat = construct_sep_I_preserver(_parse_atom(rest, False, None))
    else:
        raise ValueError(f"unknown operator atom {spec!r}")
    # exact entries stay ring elements (or the integers the rings coerce)
    mat = np.array(mat, dtype=object if exact else complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator atom {spec!r} is not a square matrix")
    # negation is exact; a product with a float sign gives an infinite entry a NaN part
    return mat if sign > 0 else -mat


def parse_operator(spec: str, exact: bool = False, fock: FockSpace | None = None) -> np.ndarray:
    """Parse an operator spec, summing top-level ``+``/``-`` terms.

    The result is a complex array, or under ``exact`` an object array of
    exact entries; ``ladder:`` and mode ``number:`` atoms act on ``fock``.
    """
    terms = [_parse_atom(part, exact, fock) for part in _split_terms(spec)]
    if not terms:
        raise ValueError("empty operator spec")
    acc = terms[0]
    for t in terms[1:]:
        if t.shape != acc.shape:
            raise ValueError("operator terms have mismatched dimensions")
        acc = acc + t
    if not exact and not np.all(np.isfinite(acc)):
        raise ValueError(f"operator {spec!r} has non-finite entries")
    return acc


def _resolve_for_set(spec: str, set_name: str, fock: FockSpace | None = None) -> np.ndarray:
    """Resolve a numeric operator against the sample space of one family."""
    op = parse_operator(spec, fock=fock)
    if set_name in ("I", "II"):
        if op.shape == (2, 2):
            op = construct_sep_I_preserver(op)
        if op.shape != (3, 3):
            raise ValueError("family I/II operators must be 2x2 generators or 3x3 matrices")
    elif set_name in ("III", "ssr"):
        if op.shape != (10, 10):
            raise ValueError("family III/ssr operators must be 10x10")
    elif op.shape != (fock.dim, fock.dim):
        raise ValueError("mode operators must act on the truncated Fock space")
    return op


def _pair_specs(args) -> list[str]:
    """The two operator specs of ``--A``/``--B`` or of ``--pair A,B``, never both."""
    if args.pair and (args.A or args.B):
        raise ValueError("give the pair as --pair A,B or as --A and --B, not both")
    if args.A and args.B:
        return [args.A, args.B]
    if not args.pair:
        raise ValueError("provide --pair A,B or both --A and --B")
    specs = _split_top_level(args.pair)
    if len(specs) != 2:
        raise ValueError("--pair needs exactly two comma-separated operator specs")
    return specs


# ---------------------------------------------------------------------------
# command handlers

def _verdict_json(v) -> dict:
    out = {"set": v.set.value, "diagnostics": {k: float(x) for k, x in v.diagnostics.items()}}
    if v.parameters is not None:
        out["parameters"] = [complex_pair(p) for p in v.parameters]
    return out


def _parse_amps(text: str) -> np.ndarray:
    try:
        return np.asarray([parse_scalar(s) for s in _split_top_level(text)], dtype=complex)
    except ValueError as exc:  # parse_scalar's one refusal; a MemoryError keeps its own message
        raise ValueError(f"malformed amplitudes {text!r}: {exc}") from None


def cmd_classify(args, tol: Tolerances) -> tuple[dict, str]:
    if args.amps and (args.family or args.coeffs):
        raise ValueError("give the state as --amps or as --family/--coeffs, not both")
    if args.family:
        coeffs = _parse_amps(args.coeffs or "")
        fam = canonical_set_name(args.family)
        if fam not in ("I", "II") or coeffs.size != 2:
            raise ValueError("--family supports I or II with --coeffs c0,c1")
        build = sep_I_state if fam == "I" else sep_II_orthogonal_state
        # an overflowed amplitude is reported by check_state, without numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            psi = build(coeffs[0], coeffs[1])
        basis = "sym3"
    else:
        if not args.amps:
            raise ValueError("provide --amps or --family/--coeffs")
        psi = _parse_amps(args.amps)
        basis = args.basis
        expected = {"sym3": 3, "sym10": 10}[basis]  # argparse admits only these
        if psi.size != expected:
            raise ValueError(f"wrong dimension: basis {basis} needs {expected} amplitudes")
    sets = (("sep_I", "I"), ("sep_II", "II"), ("mode", "mode"), ("sep_III", "III"), ("ssr", "ssr"))
    applicable = sets[:3] if psi.size == 3 else sets[3:]
    verdicts = {name: _verdict_json(classify(kind, psi, tol)) for name, kind in applicable}
    results = {
        "basis": basis,
        "state": state_json(psi),
        "verdicts": verdicts,
        "lines": [
            {"classifier": name, "verdict": v["set"]} for name, v in sorted(verdicts.items())
        ],
    }
    summary = " ".join(v["set"] for _, v in sorted(verdicts.items()))
    return results, summary


def cmd_reproduce(args, tol: Tolerances) -> tuple[dict, str]:
    lines, ok = reference_suite()
    results = {"lines": lines, "n_pass": sum(l["pass"] for l in lines), "n_lines": len(lines)}
    return results, "PASS" if ok else "FAIL"


def _audit_results(rep) -> dict:
    return {
        "pair": rep.pair,
        "set": rep.set_name,
        "n_samples": rep.n_samples,
        "seed": rep.seed,
        "max_abs_residual": rep.max_abs_residual,
        "mean_abs_residual": rep.mean_abs_residual,
        "argmax_state": state_json(rep.argmax_state),
        "argmax_residual": complex_pair(rep.argmax_residual),
        "threshold": rep.threshold,
        "verdict": rep.verdict,
    }


def cmd_audit(args, tol: Tolerances) -> tuple[dict, str]:
    set_name = canonical_set_name(args.set)
    if args.pairs:
        kind, _, count = args.pairs.partition(":")
        if kind != "random" or not (count.isascii() and count.isdigit()):
            raise ValueError(f"--pairs takes random:<n> with n a whole number, got {args.pairs!r}")
        if set_name not in ("mode", "ssr"):
            raise ValueError("random pair audits are the positive controls: use --set mode|ssr")
        if int(count) * args.states > MAX_AUDIT_STATES:
            raise ValueError(f"pairs x states: {count} x {args.states} is past {MAX_AUDIT_STATES}")
        rep = positive_control(
            set_name, int(count), args.states, seed=args.seed, n_max=args.n_max,
            threshold=args.threshold,
        )
        return {"audit": _audit_results(rep)}, rep.verdict
    if args.samples > MAX_AUDIT_STATES:
        raise ValueError(f"--samples {args.samples} is past {MAX_AUDIT_STATES}")
    fock = FockSpace(args.n_max) if set_name == "mode" else None
    A, B = (_resolve_for_set(s, set_name, fock) for s in _pair_specs(args))
    rep = audit(
        A,
        B,
        set_name,
        args.samples,
        seed=args.seed,
        threshold=args.threshold,
        pair=args.pair or f"{args.A},{args.B}",
        fock=fock,
    )
    results = _audit_results(rep)
    results["recheck_error"] = float(rep.recheck(A, B))
    return {"audit": results}, rep.verdict


def cmd_witness(args, tol: Tolerances) -> tuple[dict, str]:
    if args.budget > MAX_WITNESS_BUDGET:
        raise ValueError(f"--budget {args.budget} is past {MAX_WITNESS_BUDGET}")
    set_name = canonical_set_name(args.set)
    fock = FockSpace(args.n_max) if set_name == "mode" else None
    A, B = (_resolve_for_set(s, set_name, fock) for s in _pair_specs(args))
    w = find_violation_witness(
        A, B, set_name, budget=args.budget, seed=args.seed, threshold=args.threshold, tol=tol,
        fock=fock,
    )
    if w is None:
        return {"found": False, "budget": args.budget, "threshold": args.threshold}, "NotFound"
    results = {
        "found": True,
        "state": state_json(w.state),
        "residual": complex_pair(w.residual),
        "abs_residual": abs(w.residual),
        "set": w.set_name,
        "membership": _verdict_json(w.verdict),
        "recheck_error": abs(residual(A, B, w.state) - w.residual),
    }
    return results, "ViolationFound"


def cmd_certify(args, tol: Tolerances) -> tuple[dict, str]:
    A, B = (parse_operator(s, exact=True) for s in _pair_specs(args))
    if args.sectors:
        sectors = [s.strip().upper() for s in args.sectors.split(",")]
        if len(sectors) != 2:
            raise ValueError("--sectors needs X,Y")
        cert = certify_sector_coupling(A, B, sectors[0], sectors[1])
    else:
        if A.shape != (2, 2) or B.shape != (2, 2):
            raise ValueError("pair certificates need 2x2 exact operators")
        cert = certify_factorization_sep_I(A, B)
    try:
        results = {"certificate": cert.to_dict(), "canonical_text": cert.canonical_text()}
    except ValueError:  # the interpreter's limit on int-to-str digits
        raise ValueError("a certificate coefficient is too large to print in decimal digits") from None
    return results, cert.verdict


def cmd_preserve_check(args, tol: Tolerances) -> tuple[dict, str]:
    results: dict = {}
    if args.op and (args.pair or args.A or args.B):
        raise ValueError("give one operator as --op or a pair as --pair/--A/--B, not both")
    if args.pair or args.A or args.B:
        O, Q = (parse_operator(s) for s in _pair_specs(args))
        chk = commutativity_condition(O, Q)
        results["commutativity"] = {
            "s": complex_pair(chk.s),
            "z": [complex_pair(z) for z in chk.z],
            "commutes": chk.commutes,
        }
        summary = "commutes" if chk.commutes else "does-not-commute"
        return results, summary
    if not args.op:
        raise ValueError("provide --op or --pair")
    op = parse_operator(args.op)
    if op.shape == (2, 2):
        # first, as it refuses an overflowed norm: the pair square is then finite
        results["unitary_proportional"] = bool(is_sep_II_preserver(op, tol))
        preserver = construct_sep_I_preserver(op)
        results["generator"] = [[complex_pair(v) for v in row] for row in op]
        results["pair_square"] = [[complex_pair(v) for v in row] for row in preserver]
        fit = fit_sep_I_preserver(preserver, tol)
        results["round_trip_defect"] = fit.defect
        summary = "sep-II-preserver" if results["unitary_proportional"] else "sep-I-preserver"
        return results, summary
    if op.shape == (3, 3):
        fit = fit_sep_I_preserver(op, tol)
        results["fits"] = fit.fits
        results["defect"] = fit.defect
        if fit.O is not None:
            results["generator"] = [[complex_pair(v) for v in row] for row in fit.O]
        return results, "fits" if fit.fits else "does-not-fit"
    if op.shape == (10, 10):
        rep = is_block_scalar(op, tol)
        results["block_scalar"] = rep.block_scalar
        results["identity_proportional"] = rep.identity_proportional
        results["alphas"] = {k: complex_pair(v) for k, v in rep.alphas.items()}
        return results, "block-scalar" if rep.block_scalar else "not-block-scalar"
    raise ValueError("preserve-check accepts 2x2, 3x3 or 10x10 operators")


def cmd_sample(args, tol: Tolerances) -> tuple[dict, str]:
    set_name = canonical_set_name(args.set)
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    if args.n > MAX_SAMPLE_N:
        raise ValueError(f"--n {args.n} is past {MAX_SAMPLE_N}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    psis = family(set_name).sample(rng, args.n)
    verdicts = classify_states(set_name, psis, tol)
    ok = all(v.separable for v in verdicts)
    states = [{"state": state_json(psi), "verdict": v.set.value} for psi, v in zip(psis, verdicts)]
    return {"set": set_name, "states": states, "all_separable": ok}, (
        "OK" if ok else "ClassifierMismatch"
    )


# ---------------------------------------------------------------------------
# every flag once, with its default; a command takes only the flags its
# handler or ``main`` reads

MAX_AUDIT_STATES = 10**6
"""Most states one audit evaluates, ``--samples`` or pairs x ``--states``: 100 x perfbench's largest, 10^4.
At it (2-CPU x86-64; only time grows with states) pair audits took 0.1-0.6 s at 37-38 MiB RSS, 0.3 s at
85 MiB for mode at ``--n-max 44``; one-state controls 2.0 s at 45 MiB (ssr), 0.4-1.0 s at 38-39 MiB (mode)."""

MAX_N_MAX = 44
"""Largest mode ``--n-max``: operators are dense dim x dim, dim (n+1)(n+2)/2, about 16 MiB each at 44."""

MAX_SAMPLE_N = 10**5
"""Most ``sample --n``: every state is held, classified and printed at once. At it, ``--set III``,
the costliest, took 7.7-12 s and 680 MiB RSS (2-CPU x86-64); at 3x it, 28 s and 1.9 GiB."""

MAX_WITNESS_BUDGET = 10**7
"""Most ``witness --budget``: 100 times the largest budget of README, tests, demos or perfbench. A search
that finds nothing spends all of it; at it, searches of a factorizing pair took 3.6 s (I), 4.8 s (II),
6.8 s (III) and 7.3 s (ssr) at 37-38 MiB RSS (2-CPU x86-64); only the time grows with the budget."""

_OPTIONS = {
    "--amps": dict(help="comma-separated amplitudes"),
    "--basis": dict(choices=("sym3", "sym10"), default="sym3"),
    "--family": dict(help="build the state from a family (I or II)"),
    "--coeffs": dict(help="family coefficients c0,c1"),
    "--set": dict(required=True),
    "--pairs": dict(help="random:<n> for the positive controls"),
    "--states": dict(type=int, default=CONTROL_STATES),
    "--samples": dict(type=int, default=1000),
    "--budget": dict(type=int, default=WITNESS_BUDGET),
    "--seed": dict(type=int, default=42),
    "--threshold": dict(type=float),  # resolved in main
    "--n-max": dict(type=int, default=N_MAX),
    "--tol-class": dict(type=float, default=DEFAULT_TOL.eps_class),
    "--sectors": dict(help="X,Y sector pair for 10x10 certificates"),
    "--op": dict(),
    "--n": dict(type=int, default=5),
    "--pair": dict(help="two operator specs separated by a comma"),
    "--A": dict(),
    "--B": dict(),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="json"),
    "--out": dict(),
}

# command: (handler, help, flags besides --format and --out)
_COMMANDS = {
    "classify": (cmd_classify, "run all applicable membership tests on a state",
                 "--amps --basis --family --coeffs --tol-class"),
    "reproduce-paper": (cmd_reproduce, "re-derive the built-in reference checks", ""),
    "audit": (cmd_audit, "residual statistics over separable samples",
              "--set --pairs --states --samples --seed --threshold --n-max --pair --A --B"),
    "witness": (cmd_witness, "search a separable family for a violation",
                "--set --budget --seed --threshold --n-max --tol-class --pair --A --B"),
    "certify": (cmd_certify, "exact polynomial certificate for a pair", "--sectors --pair --A --B"),
    "preserve-check": (cmd_preserve_check, "recognize invariance structure of an operator",
                       "--op --pair --A --B --tol-class"),
    "sample": (cmd_sample, "draw separable states and verify membership",
               "--set --n --seed --tol-class"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its help; the flags of ``command`` alone, or of all when it is None.

    A call that names its command builds its 2-12 flags, where the whole tree has 51.
    """
    # a flag is read by its full name only, as main binds its values
    parser = argparse.ArgumentParser(prog="entloc", description=__doc__.split("\n\n")[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if command in (None, name):
            for flag in (*flags.split(), "--format", "--out"):
                p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads a leading command name as the command, so only its flags are needed
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    # it would also read a value that begins with '-' as a flag: every flag takes one value, so
    # such a value is bound as flag=value, unless it is a flag of the command, -h or --help
    flags = {*_COMMANDS[command][2].split(), "--format", "--out"} if command else set()
    bound = list(argv[:1])
    for token in argv[1:]:
        joins = bound[-1] in flags and token[:1] == "-" and token not in flags | {"-h", "--help"}
        bound[-1:] = [f"{bound[-1]}={token}"] if joins else [bound[-1], token]
    parser = build_parser(command)
    args, unknown = parser.parse_known_args(bound)
    if unknown:  # report them with the subcommand's usage, which lists its flags
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    if "threshold" in vars(args) and args.threshold is None:  # the default of what the command runs
        args.threshold = CONTROL_THRESHOLD if getattr(args, "pairs", None) else WITNESS_THRESHOLD
    start = time.perf_counter()
    try:
        config = _config(args)
        tol = Tolerances(getattr(args, "tol_class", DEFAULT_TOL.eps_class))
        results, summary = _COMMANDS[args.command][0](args, tol)
        emit(build_report(config, results, summary, time.perf_counter() - start), args.out, args.fmt)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # interpreter exit does not raise into the closed pipe again
        with contextlib.suppress(OSError, ValueError):  # a stdout without a descriptor
            out = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), out)
        return EXIT_CLOSED_OUTPUT
    except (ValueError, KeyError) as exc:
        code, message = EXIT_INPUT, f"input error: {exc}"
    except MemoryError as exc:  # also a report too large to make whole: none of it is written
        code, message = EXIT_INPUT, f"input error: not enough memory: {exc}"
    except ConsistencyError as exc:
        code, message = EXIT_INTERNAL, f"internal consistency error: {exc}"
    except OSError as exc:
        if not args.out:
            raise  # a failed write to stdout is no input error; a closed pipe is caught above
        code, message = EXIT_INPUT, f"input error: cannot write --out {args.out!r}: {exc.strerror or exc}"
    else:
        return EXIT_REFERENCE_FAIL if args.command == "reproduce-paper" and summary != "PASS" else EXIT_OK
    with contextlib.suppress(BrokenPipeError):  # a closed stderr: the exit code still tells
        print(f"entloc: {message}", file=sys.stderr)
    return code


def _config(args: argparse.Namespace) -> dict:
    """The echo of what the command reads.

    A knob the command does not take echoes null; every other input (pair
    specs, amplitudes, ...) is echoed so a report is re-verifiable without
    the original invocation.
    """
    inputs = dict(vars(args))
    inputs["witness_threshold"] = inputs.pop("threshold", None)
    if args.command == "audit":  # a positive control reads no samples, a pair audit no states
        inputs["samples" if args.pairs else "states"] = None
    if "n_max" in inputs and canonical_set_name(args.set) != "mode":
        inputs["n_max"] = None  # only the mode family lives on a Fock space
    elif "n_max" in inputs and args.n_max > MAX_N_MAX:  # refused before any Fock space is built
        raise ValueError(f"--n-max {args.n_max} is past {MAX_N_MAX}")
    config = {k: inputs.pop(k, None) for k in CONFIG_KNOBS}
    config["extra"] = {k: v for k, v in inputs.items() if v is not None}
    return config


if __name__ == "__main__":
    sys.exit(main())
