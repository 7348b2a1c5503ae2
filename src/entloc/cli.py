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
literals (``1+2j``).  Exit codes: 0 success, 2 input error, 3 reference
check failed, 4 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from .certificates import (
    PAULI_EXACT,
    certify_factorization_sep_I,
    certify_sector_coupling,
)
from .errors import ConsistencyError, ConvergenceError, ZeroNormError
from .exact import GaussianRational
from .factorization import (
    WITNESS_THRESHOLD,
    audit,
    find_violation_witness,
    positive_control,
    residual,
)
from .hilbert import (
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
from .report import RunConfig, build_report, complex_pair, emit, state_json
from .separability import (
    Tolerances,
    canonical_set_name,
    classify,
    classify_mode,
    classify_sep_I,
    classify_sep_II,
    classify_sep_III,
    classify_ssr,
    family,
    sep_I_state,
    sep_II_orthogonal_state,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFERENCE_FAIL = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# scalar and operator spec parsing

def _exact_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


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
    if isinstance(v, str):
        return parse_exact_scalar(v) if exact else parse_scalar(v)
    if isinstance(v, list):
        if len(v) != 2:
            raise ValueError("complex entries as [re, im] pairs")
        if exact:
            return GaussianRational(_exact_rational(str(v[0])), _exact_rational(str(v[1])))
        return complex(float(v[0]), float(v[1]))
    if exact:
        # JSON numbers are read as the exact decimals they spell, like pairs
        return GaussianRational(v if type(v) is int else _exact_rational(str(v)))
    return complex(v)


def _split_top_level(text: str) -> list[str]:
    """Split at commas outside brackets and parentheses."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if depth == 0 and ch == "," and current:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in parts if p]


def _split_terms(text: str) -> list[str]:
    """Split an operator expression at top-level ``+``/``-`` between atoms.

    A sign only separates terms when the next character starts an atom name,
    so minus signs inside scalar arguments (``diag:1,-1/2``) are untouched.
    """
    parts, depth, current = [], 0, []
    for k, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if (
            depth == 0
            and ch in "+-"
            and current
            and k + 1 < len(text)
            and text[k + 1].isalpha()
        ):
            parts.append("".join(current))
            current = [ch]
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in parts if p.strip()]


class OperatorContext:
    """Resolution rules for operator specs under one command/space."""

    def __init__(self, space: str, exact: bool = False, fock: FockSpace | None = None):
        self.space = space  # "pair2" | "pair4" | "fock" | "raw2"
        self.exact = exact
        self.fock = fock


def _parse_atom(spec: str, ctx: OperatorContext):
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
        mat = PAULI_EXACT[k] if ctx.exact else PAULI[k].copy()
    elif head == "diag":
        entries = [(_coerce_entry(s, ctx.exact)) for s in _split_top_level(rest)]
        if ctx.exact:
            zero = GaussianRational.coerce(0)
            mat = tuple(
                tuple(entries[i] if i == j else zero for j in range(len(entries)))
                for i in range(len(entries))
            )
        else:
            mat = np.diag(np.asarray(entries, dtype=complex))
    elif head == "entries":
        rows = json.loads(rest)
        mat_rows = [[_coerce_entry(v, ctx.exact) for v in row] for row in rows]
        mat = tuple(tuple(r) for r in mat_rows) if ctx.exact else np.asarray(mat_rows, dtype=complex)
    elif head == "number":
        if rest in SINGLE_PARTICLE_LABELS:
            level = SINGLE_PARTICLE_LABELS.index(rest)
            num = number_level_operator(level)
            mat = (
                tuple(tuple(GaussianRational.coerce(int(v.real)) for v in row) for row in num)
                if ctx.exact
                else num
            )
        else:
            if ctx.fock is None:
                raise ValueError(f"number:{rest} needs a Fock-space context")
            if ctx.exact:
                raise ValueError("Fock number operators are not supported in exact mode")
            mat = ctx.fock.number(rest)
    elif head == "ladder":
        if ctx.fock is None:
            raise ValueError("ladder operators need a Fock-space context")
        if ctx.exact:
            raise ValueError("ladder operators are not supported in exact mode")
        mode, _, kind = rest.partition(":")
        mat = ctx.fock.ladder(mode, {"+": "create", "-": "annihilate"}[kind])
    elif head == "oxo":
        if ctx.exact:
            raise ValueError("oxo wrapping is not supported in exact mode")
        inner = _parse_atom(rest, OperatorContext("raw2", exact=False))
        mat = construct_sep_I_preserver(inner)
    else:
        raise ValueError(f"unknown operator atom {spec!r}")
    if sign > 0:
        return mat
    # negation is exact; a product with a float sign gives an infinite entry a NaN part
    return tuple(tuple(-v for v in row) for row in mat) if ctx.exact else -mat


def parse_operator(spec: str, ctx: OperatorContext):
    """Parse an operator spec, summing top-level ``+``/``-`` terms."""
    terms = [_parse_atom(part, ctx) for part in _split_terms(spec)]
    if not terms:
        raise ValueError("empty operator spec")
    acc = terms[0]
    for t in terms[1:]:
        if ctx.exact:
            if len(t) != len(acc):
                raise ValueError("operator terms have mismatched dimensions")
            acc = tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(acc, t)
            )
        else:
            if np.shape(t) != np.shape(acc):
                raise ValueError("operator terms have mismatched dimensions")
            acc = acc + t
    if not ctx.exact and not np.all(np.isfinite(acc)):
        raise ValueError(f"operator {spec!r} has non-finite entries")
    return acc


def _resolve_for_set(spec: str, set_name: str, fock: FockSpace | None = None) -> np.ndarray:
    """Resolve a numeric operator against the sample space of one family."""
    set_name = canonical_set_name(set_name)
    if set_name in ("I", "II"):
        op = parse_operator(spec, OperatorContext("pair2"))
        if op.shape == (2, 2):
            op = construct_sep_I_preserver(op)
        if op.shape != (3, 3):
            raise ValueError("family I/II operators must be 2x2 generators or 3x3 matrices")
        return op
    if set_name in ("III", "ssr"):
        op = parse_operator(spec, OperatorContext("pair4"))
        if op.shape != (10, 10):
            raise ValueError("family III/ssr operators must be 10x10")
        return op
    op = parse_operator(spec, OperatorContext("fock", fock=fock))
    if op.shape != (fock.dim, fock.dim):
        raise ValueError("mode operators must act on the truncated Fock space")
    return op


def _parse_pair(args, set_name: str | None = None, exact: bool = False, fock=None):
    if args.A and args.B:
        specs = [args.A, args.B]
    elif args.pair:
        specs = _split_top_level(args.pair)
        if len(specs) != 2:
            raise ValueError("--pair needs exactly two comma-separated operator specs")
    else:
        raise ValueError("provide --pair A,B or both --A and --B")
    if exact:
        ctx = OperatorContext("pair4" if set_name == "sector" else "raw2", exact=True)
        return [parse_operator(s, ctx) for s in specs]
    return [_resolve_for_set(s, set_name, fock) for s in specs]


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
    except Exception as exc:
        raise ValueError(f"malformed amplitudes {text!r}: {exc}") from None


def cmd_classify(args, config: RunConfig) -> tuple[dict, str]:
    tol = Tolerances(args.tol_class, args.tol_rank)
    if args.family:
        coeffs = _parse_amps(args.coeffs or "")
        fam = canonical_set_name(args.family)
        if fam == "I" and coeffs.size == 2:
            psi = sep_I_state(coeffs[0], coeffs[1])
        elif fam == "II" and coeffs.size == 2:
            psi = sep_II_orthogonal_state(coeffs[0], coeffs[1])
        else:
            raise ValueError("--family supports I or II with --coeffs c0,c1")
        basis = "sym3"
    else:
        if not args.amps:
            raise ValueError("provide --amps or --family/--coeffs")
        psi = _parse_amps(args.amps)
        basis = args.basis
        expected = {"sym3": 3, "sym10": 10}.get(basis)
        if expected is None:
            raise ValueError(f"unknown basis {basis!r}")
        if psi.size != expected:
            raise ValueError(f"wrong dimension: basis {basis} needs {expected} amplitudes")
    verdicts = {}
    if psi.size == 3:
        verdicts["sep_I"] = _verdict_json(classify_sep_I(psi, tol))
        verdicts["sep_II"] = _verdict_json(classify_sep_II(psi, tol))
        verdicts["mode"] = _verdict_json(classify_mode(psi, tol))
    else:
        verdicts["sep_III"] = _verdict_json(classify_sep_III(psi, tol=tol))
        verdicts["ssr"] = _verdict_json(classify_ssr(psi, tol))
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


def cmd_reproduce(args, config: RunConfig) -> tuple[dict, str]:
    lines, ok = reference_suite()
    for line in lines:
        print(("PASS" if line["pass"] else "FAIL") + f"  {line['id']}: {line['description']}")
    results = {"lines": lines, "n_pass": sum(l["pass"] for l in lines), "n_lines": len(lines)}
    return results, "PASS" if ok else "FAIL"


def _audit_results(rep, A, B) -> dict:
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
        "recheck_error": float(rep.recheck(A, B)) if A is not None else 0.0,
    }


def cmd_audit(args, config: RunConfig) -> tuple[dict, str]:
    set_name = canonical_set_name(args.set)
    if args.pairs:
        kind, _, count = args.pairs.partition(":")
        if kind != "random":
            raise ValueError("--pairs accepts random:<n>")
        if set_name not in ("mode", "ssr"):
            raise ValueError("random pair audits are the positive controls: use --set mode|ssr")
        rep = positive_control(
            set_name, int(count), args.states, seed=args.seed, n_max=args.n_max
        )
        return {"audit": _audit_results(rep, None, None)}, rep.verdict
    fock = FockSpace(("0", "1"), args.n_max) if set_name == "mode" else None
    A, B = _parse_pair(args, set_name, fock=fock)
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
    return {"audit": _audit_results(rep, A, B)}, rep.verdict


def cmd_witness(args, config: RunConfig) -> tuple[dict, str]:
    set_name = canonical_set_name(args.set)
    fock = FockSpace(("0", "1"), args.n_max) if set_name == "mode" else None
    A, B = _parse_pair(args, set_name, fock=fock)
    w = find_violation_witness(
        A, B, set_name, budget=args.budget, seed=args.seed, threshold=args.threshold, fock=fock
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


def cmd_certify(args, config: RunConfig) -> tuple[dict, str]:
    if args.sectors:
        sectors = [s.strip().upper() for s in args.sectors.split(",")]
        if len(sectors) != 2:
            raise ValueError("--sectors needs X,Y")
        A, B = _parse_pair(args, "sector", exact=True)
        cert = certify_sector_coupling(A, B, sectors[0], sectors[1])
    else:
        O, Q = _parse_pair(args, exact=True)
        if len(O) != 2 or len(Q) != 2:
            raise ValueError("pair certificates need 2x2 exact operators")
        cert = certify_factorization_sep_I(O, Q)
    results = {"certificate": cert.to_dict(), "canonical_text": cert.canonical_text()}
    return results, cert.verdict


def cmd_preserve_check(args, config: RunConfig) -> tuple[dict, str]:
    tol = Tolerances(args.tol_class, args.tol_rank)
    results: dict = {}
    if args.pair or (args.A and args.B):
        specs = (
            [args.A, args.B] if args.A and args.B else _split_top_level(args.pair)
        )
        O = parse_operator(specs[0], OperatorContext("raw2"))
        Q = parse_operator(specs[1], OperatorContext("raw2"))
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
    op = parse_operator(args.op, OperatorContext("raw2"))
    if op.shape == (2, 2):
        preserver = construct_sep_I_preserver(op)
        results["generator"] = [[complex_pair(v) for v in row] for row in op]
        results["pair_square"] = [[complex_pair(v) for v in row] for row in preserver]
        results["unitary_proportional"] = bool(is_sep_II_preserver(op, tol))
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


def cmd_sample(args, config: RunConfig) -> tuple[dict, str]:
    set_name = canonical_set_name(args.set)
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    states = []
    for psi in family(set_name).sample(rng, args.n):
        verdict = classify(set_name, psi)
        states.append({"state": state_json(psi), "verdict": verdict.set.value})
    ok = all(s["verdict"] in ("SepI", "SepIIOnly", "SepIII", "ModeSep", "SsrSep") for s in states)
    return {"set": set_name, "states": states, "all_separable": ok}, (
        "OK" if ok else "ClassifierMismatch"
    )


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--tol-class", dest="tol_class", type=float, default=1e-9)
    p.add_argument("--tol-rank", dest="tol_rank", type=float, default=1e-8)
    p.add_argument("--threshold", type=float, default=WITNESS_THRESHOLD)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=4)


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", default=None, help="two operator specs separated by a comma")
    p.add_argument("--A", default=None)
    p.add_argument("--B", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entloc", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run all applicable membership tests on a state")
    p.add_argument("--amps", default=None, help="comma-separated amplitudes")
    p.add_argument("--basis", choices=("sym3", "sym10"), default="sym3")
    p.add_argument("--family", default=None, help="build the state from a family (I or II)")
    p.add_argument("--coeffs", default=None, help="family coefficients c0,c1")
    _add_common(p)

    p = sub.add_parser("reproduce-paper", help="re-derive the built-in reference checks")
    _add_common(p)

    p = sub.add_parser("audit", help="residual statistics over separable samples")
    p.add_argument("--set", required=True)
    p.add_argument("--pairs", default=None, help="random:<n> for the positive controls")
    p.add_argument("--states", type=int, default=100)
    _add_pair_args(p)
    _add_common(p)

    p = sub.add_parser("witness", help="search a separable family for a violation")
    p.add_argument("--set", required=True)
    _add_pair_args(p)
    _add_common(p)

    p = sub.add_parser("certify", help="exact polynomial certificate for a pair")
    p.add_argument("--sectors", default=None, help="X,Y sector pair for 10x10 certificates")
    _add_pair_args(p)
    _add_common(p)

    p = sub.add_parser("preserve-check", help="recognize invariance structure of an operator")
    p.add_argument("--op", default=None)
    _add_pair_args(p)
    _add_common(p)

    p = sub.add_parser("sample", help="draw separable states and verify membership")
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=int, default=5)
    _add_common(p)
    return parser


_HANDLERS = {
    "classify": cmd_classify,
    "reproduce-paper": cmd_reproduce,
    "audit": cmd_audit,
    "witness": cmd_witness,
    "certify": cmd_certify,
    "preserve-check": cmd_preserve_check,
    "sample": cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    core = {
        "command", "seed", "samples", "budget", "tol_class", "tol_rank",
        "threshold", "fmt", "out", "n_max",
    }
    # command-specific inputs (pair specs, amplitudes, ...) are echoed so a
    # report is re-verifiable without the original invocation
    extra = {k: v for k, v in vars(args).items() if k not in core and v is not None}
    extra["n_max"] = args.n_max
    config = RunConfig(
        command=args.command,
        seed=args.seed,
        tol_class=args.tol_class,
        tol_rank=args.tol_rank,
        witness_threshold=args.threshold,
        samples=args.samples,
        budget=args.budget,
        fmt=args.fmt,
        out=args.out,
        extra=extra,
    )
    start = time.perf_counter()
    try:
        results, summary = _HANDLERS[args.command](args, config)
    except (ZeroNormError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"entloc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"entloc: internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ConvergenceError as exc:
        print(f"entloc: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report = build_report(config, results, summary, time.perf_counter() - start)
    emit(report, args.out, args.fmt)
    if args.command == "reproduce-paper" and summary != "PASS":
        return EXIT_REFERENCE_FAIL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
