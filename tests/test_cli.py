"""CLI surface: commands, spec language, exit codes, report determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entloc import cli as cli_module
from entloc import report as report_module
from entloc.cli import (
    EXIT_CLOSED_OUTPUT,
    EXIT_INPUT,
    EXIT_INTERNAL,
    MAX_AUDIT_STATES,
    MAX_DECIMAL_EXPONENT,
    MAX_N_MAX,
    MAX_SAMPLE_N,
    MAX_WITNESS_BUDGET,
    _COMMANDS,
    build_parser,
    main,
    parse_exact_scalar,
    parse_operator,
    parse_scalar,
)
from entloc.errors import ConsistencyError
from entloc.exact import GaussianRational
from entloc.hilbert import FockSpace
from entloc.report import CONFIG_KNOBS, results_bytes
from entloc.separability import Family

SCHEMA_DOC = Path(__file__).resolve().parent.parent / "docs" / "report-schema-v1.md"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# --- scalar / operator parsing ------------------------------------------------

def test_parse_scalars():
    assert parse_scalar("3/2") == 1.5
    assert parse_scalar("-2j") == -2j
    assert parse_scalar("1+2j") == 1 + 2j
    assert parse_scalar("1/2-1/4i") == 0.5 - 0.25j
    g = parse_exact_scalar("-3/2+1/4j")
    assert (g.re, g.im) == (-1.5, 0.25)
    with pytest.raises(ValueError):
        parse_exact_scalar("")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_exact_scalar("1/0")


def test_a_bare_j_is_the_imaginary_unit():
    assert parse_exact_scalar("j") == GaussianRational(0, 1)
    assert parse_exact_scalar("-j") == GaussianRational(0, -1)
    assert parse_exact_scalar("1+j") == GaussianRational(1, 1)
    assert parse_scalar("1+j") == 1 + 1j


def test_parse_operator_atoms():
    assert np.allclose(parse_operator("pauli:1"), [[0, 1], [1, 0]])
    assert np.allclose(parse_operator("diag:1,-1/2"), [[1, 0], [0, -0.5]])
    assert np.allclose(parse_operator("entries:[[0,1],[1,0]]"), [[0, 1], [1, 0]])
    assert np.allclose(
        parse_operator("pauli:1+pauli:3"), [[1, 1], [1, -1]]
    )
    assert np.allclose(parse_operator("pauli:1-pauli:1"), np.zeros((2, 2)))
    combo = parse_operator("number:L0-number:L1")
    assert combo.shape == (10, 10)
    assert np.allclose(np.diag(combo)[:3], [2, 0, 1])  # (L0,L0), (L0,L1), (L0,R0)
    assert combo[0, 0] == 2 and combo[4, 4] == -2


# one spec per atom kind and per sum shape; sums stay on exactly representable values
PARSE_CORPUS = (
    *(f"pauli:{k}" for k in range(4)),
    "diag:1,-1/2",
    "diag:1/3,2+3j,-2j,5/7",
    "diag:-1/2-1/4i,1e-3",
    'entries:[[[1,2],0],[[0.5,-3],"1/3"]]',
    'entries:[[0,[0,-1]],[[0,1],0]]',
    'entries:[[["1/3",0],0],[0,1]]',
    *(f"number:{label}" for label in ("L0", "L1", "R0", "R1")),
    "number:L0-number:L1",
    "number:R0+number:R1-number:L0",
    "pauli:1+pauli:3",
    "-pauli:2+diag:1,1/2",
    "pauli:0-pauli:3+pauli:1",
)


@pytest.mark.parametrize("spec", PARSE_CORPUS)
def test_exact_and_numeric_parses_agree(spec):
    numeric = parse_operator(spec)
    exact = parse_operator(spec, exact=True)
    assert exact.dtype == object and numeric.dtype == complex
    mapped = np.array([[GaussianRational.coerce(v).to_complex() for v in row] for row in exact])
    assert mapped.shape == numeric.shape
    assert np.array_equal(mapped, numeric)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("spec", ["pauli:1+number:L0", "entries:[[1,2],[3]]", "diag:1,2,3-pauli:1"])
def test_malformed_shapes_fail_in_both_modes(spec, exact):
    with pytest.raises(ValueError):
        parse_operator(spec, exact=exact)


def test_parse_operator_errors():
    with pytest.raises(ValueError):
        parse_operator("pauli:7")
    with pytest.raises(ValueError):
        parse_operator("mystery:1")
    with pytest.raises(ValueError):
        parse_operator("ladder:0:+")  # no Fock context


def test_exact_mode_refuses_fock_atoms():
    with pytest.raises(ValueError, match="Fock number operators are not supported in exact mode"):
        parse_operator("number:0", exact=True, fock=FockSpace())
    with pytest.raises(ValueError, match="ladder operators are not supported in exact mode"):
        parse_operator("ladder:0:+", exact=True, fock=FockSpace())


# --- classify -------------------------------------------------------------------

def test_classify_reference_states(capsys):
    code, doc = run_json(capsys, "classify", "--amps", "0,0,1")
    assert code == 0
    verdicts = doc["results"]["verdicts"]
    assert verdicts["sep_II"]["set"] == "SepIIOnly"
    assert verdicts["mode"]["set"] == "ModeSep"

    # pinned golden value: equal-weight doubly occupied superposition is the
    # orthogonal-pair member, at margin 2 ||rho - 1/2|| = 0
    code, doc = run_json(capsys, "classify", "--amps", "0.7071067811865476,0.7071067811865476,0")
    verdicts = doc["results"]["verdicts"]
    assert verdicts["sep_II"]["set"] == "SepIIOnly"
    assert abs(verdicts["sep_II"]["diagnostics"]["margin"]) < 1e-12
    assert verdicts["mode"]["set"] == "ModeEnt"

    code, doc = run_json(capsys, "classify", "--basis", "sym10", "--amps", "1,0,0,0,0,0,0,0,0,0")
    verdicts = doc["results"]["verdicts"]
    assert verdicts["sep_III"]["set"] == "SepIII"
    assert verdicts["ssr"]["set"] == "SsrSep"


def test_one_tolerance_decides_ssr_and_III_on_an_lr_only_state(capsys):
    # both margins read 4.0e-9, between eps_class and ten times it
    code, doc = run_json(capsys, "classify", "--basis", "sym10", "--amps", "0,0,0.5,0.5,0,0.5,0.500000004,0,0,0")
    assert (code, doc["summary"]) == (0, "EntangledIII SsrEnt")
    margins = [doc["results"]["verdicts"][name]["diagnostics"]["margin"] for name in ("sep_III", "ssr")]
    assert margins == pytest.approx([4e-9, 4e-9], rel=1e-6)


def assert_read_as_its_unit_scale(amps, plain, capsys):
    basis = "sym10" if amps.count(",") == 9 else "sym3"
    (code, doc), (_, unit) = (run_json(capsys, "classify", "--basis", basis, "--amps", a) for a in (amps, plain))
    assert code == 0 and doc["summary"] == unit["summary"]
    margins = [{(name, k): x for name, v in d["results"]["verdicts"].items() for k, x in v["diagnostics"].items()}
               for d in (doc, unit)]
    assert margins[0] == pytest.approx(margins[1], rel=1e-12)


@pytest.mark.parametrize(
    "huge, plain",
    [
        # the margins' products overflowed first: sep_II.margin read NaN
        ("1.3e154,0,0", "1,0,0"), ("1.2e154,-5e153,2e153j", "1.2,-0.5,0.2j"), ("0,1e154,0", "0,1,0"),
        # the state norm overflowed: these exited 2 before 0.11.0
        ("1e154,0,1e154", "1,0,1"), ("1e200,0,1e200", "1,0,1"),
        ("1e200,0,0,0,0,0,0,0,0,1", "1,0,0,0,0,0,0,0,0,1e-200"),
    ],
)
def test_a_huge_state_reads_as_its_unit_scale_does(huge, plain, capsys):
    assert_read_as_its_unit_scale(huge, plain, capsys)


# the norm was below 1e-12, absolute: these exited 2 before 0.11.0. 5e-324 is the least subnormal
@pytest.mark.parametrize("tiny, plain", [("1e-13,0,0", "1,0,0"), ("1e-170,0,1e-170", "1,0,1"),
                                         ("5e-324,0,5e-324", "1,0,1")])
def test_a_tiny_state_reads_as_its_unit_scale_does(tiny, plain, capsys):
    assert_read_as_its_unit_scale(tiny, plain, capsys)


def test_classify_family_input(capsys):
    code, doc = run_json(capsys, "classify", "--family", "I", "--coeffs", "0.6,0.8")
    assert code == 0
    assert doc["results"]["verdicts"]["sep_I"]["set"] == "SepI"


def test_classify_error_exits(capsys):
    assert main(["classify", "--amps", "1,0"]) == EXIT_INPUT  # wrong dimension
    assert main(["classify", "--amps", "0,0,0"]) == EXIT_INPUT  # zero norm
    assert main(["classify", "--amps", "a,b,c"]) == EXIT_INPUT  # malformed
    capsys.readouterr()
    nan_pair = 'entries:[["nan",0],[0,1]],pauli:1'
    for argv, message in (
        (["audit", "--set", "I", "--pair", nan_pair], "non-finite"),
        (["witness", "--set", "I", "--pair", nan_pair], "non-finite"),
        (["audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--threshold", "nan"], "threshold"),
        (["witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--threshold", "-1"], "threshold"),
        (["audit", "--set", "ssr", "--pairs", "random:0"], "n_pairs"),
        (["audit", "--set", "ssr", "--pairs", "random:2", "--states", "0"], "n_states"),
        (["audit", "--set", "mode", "--pairs", "random:2", "--threshold", "nan"], "threshold"),
        (["audit", "--set", "ssr", "--pairs", "random:2", "--threshold", "-1"], "threshold"),
        (["audit", "--set", "mode", "--n-max", "1", "--pair", "number:0,number:1"], "n_max >= 2"),
        (["sample", "--set", "I", "--n", "-1"], "--n must be non-negative"),
        (["witness", "--set", "IV", "--pair", "pauli:1,pauli:2"], "unknown separable set"),
        (["audit", "--set", "I", "--pair", 'entries:[["1e999",0],[0,1]],pauli:1'], "non-finite"),
        (["certify", "--sectors", "LL,LR", "--pair", "pauli:1,pauli:2"], "10x10"),
        (["certify", "--sectors", "LL,LR", "--A", "entries:[[1,2],[3,4]]", "--B", "number:R0"], "10x10"),
        (["certify", "--A", 'entries:[["1/0",0],[0,1]]', "--B", "pauli:1"], "zero denominator"),
        (["certify", "--A", 'entries:[[["1/0",0],0],[0,1]]', "--B", "pauli:1"], "zero denominator"),
        (["certify", "--A", "entries:[[1e999,0],[0,1]]", "--B", "pauli:1"], "Fraction"),
        (["preserve-check", "--pair", "pauli:1"], "exactly two"),
        (["preserve-check", "--pair", "pauli:1,pauli:2,pauli:3"], "exactly two"),
        # a blank second spec is two parts at the comma, then no term at all
        (["preserve-check", "--pair", "pauli:1, "], "empty operator spec"),
        (["witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--tol-class", "-1"], "tolerances"),
        (["sample", "--set", "I", "--tol-class", "0"], "tolerances"),
        (["preserve-check", "--op", "entries:5"], "list of rows"),
        (["preserve-check", "--op", "entries:[[1,null],[3,4]]"], "not a number"),
        (["preserve-check", "--op", "entries:[[[1,null],0],[0,1]]"], "not a number"),
        (["certify", "--A", "entries:[[[1,null],0],[0,1]]", "--B", "pauli:1"], "not a number"),
        (["preserve-check", "--op", 'entries:[[["1j",0],0],[0,1]]'], "must be real"),
        (["witness", "--set", "mode", "--pair", "ladder:0:x,number:1"], "must be + or -"),
        (["preserve-check", "--op", "entries:[[true,0],[0,1]]"], "operator entry True is not a number"),
        (["certify", "--A", "entries:[[true,0],[0,1]]", "--B", "pauli:1"], "operator entry True is not a number"),
        (["witness", "--set", "ssr", "--pair", "number:X0,number:R0"], "'X0', the levels are L0, L1, R0, R1"),
        (["audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "0"], "n_samples must be at least 1"),
        (["witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--budget", "0"], "budget must be at least 1"),
        (["witness", "--set", "mode", "--n-max", "0", "--pair", "number:0,number:1"], "n_max must be at least 1"),
        (["preserve-check", "--pair", "entries:[[1,0,0],[0,1,0],[0,0,1]],pauli:1"], "expected a 2x2 matrix"),
        (["preserve-check", "--op", "entries:[[[1,2,3],0],[0,1]]"], "complex entries as [re, im] pairs"),
    ):
        assert main(argv) == EXIT_INPUT
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--pairs", "random:100000000000"], ["--pairs", "random:10001", "--states", "100"]])
def test_a_positive_control_past_its_size_bound_exits_2_at_once(argv):
    # the group sizes were one list: random:100000000000 took 5 GB, then ended in
    # MemoryError after 34 s. Capped and timed out, so that a lost bound fails at once
    proc = run_capped(["audit", "--set", "ssr", *argv], 1536, timeout=20)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("entloc: input error: pairs x states: ")
    assert proc.stderr.endswith(f" is past {MAX_AUDIT_STATES}\n")


@pytest.mark.parametrize("value", ["random:1e3", "random:", "random:-2", "foo:3", "random:\u00b2"])
def test_a_bad_pairs_value_exits_2_with_one_line(value, capsys):
    assert main(["audit", "--set", "mode", "--pairs", value]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--pairs takes random:<n>" in err and repr(value) in err


BIG_INT = "1" + "0" * 400  # a JSON integer past the float range
DIGITS_5001 = "1" + "0" * 5000  # past the interpreter's 4300-digit limit on int(str)


@pytest.mark.parametrize(
    "argv, message",
    [
        # a finite 2x2 generator whose pair square overflows
        (["witness", "--set", "I", "--A", "diag:1e200,1", "--B", "pauli:1"], "operator pair square overflowed"),
        (["audit", "--set", "I", "--A", "diag:1e200,1", "--B", "pauli:1"], "operator pair square overflowed"),
        (["preserve-check", "--op", "oxo:diag:1e200,1"], "operator pair square overflowed"),
        (["witness", "--set", "I", "--A", "entries:[[1e200,0,0],[0,1,0],[0,0,1]]",
          "--B", "entries:[[1e200,1,0],[1,1,0],[0,0,1]]"], "residual overflowed"),
        (["audit", "--set", "I", "--A", "entries:[[1e200,0,0],[0,1,0],[0,0,1]]",
          "--B", "entries:[[1e200,1,0],[1,1,0],[0,0,1]]", "--samples", "10"], "residual overflowed"),
        (["classify", "--family", "I", "--coeffs", "1e160,1"], "non-finite amplitudes"),
        (["classify", "--family", "II", "--coeffs", "1e160,1"], "non-finite amplitudes"),
        # a JSON integer reads as its digits do: an infinity, as "1e400" does
        (["preserve-check", "--op", f"entries:[[{BIG_INT},0],[0,1]]"], "non-finite entries"),
        (["preserve-check", "--op", f"entries:[[[{BIG_INT},0],0],[0,1]]"], "non-finite entries"),
        (["preserve-check", "--op", f"entries:[[[0,-{BIG_INT}],0],[0,1]]"], "non-finite entries"),
        (["witness", "--set", "I", "--A", f"entries:[[{BIG_INT},0],[0,1]]", "--B", "pauli:1"],
         "non-finite entries"),
        (["audit", "--set", "I", "--A", "pauli:1", "--B", f"entries:[[1,0],[0,-{BIG_INT}]]"],
         "non-finite entries"),
        # preserve-check decides on no overflowed norm: each of these read a wrong verdict
        (["preserve-check", "--op", "diag:1e300,1,1,1,1,1,1,1,1,1"], "operator norm overflowed"),
        (["preserve-check", "--op", "entries:[[1e300,1e300,0],[0,1,0],[0,0,1]]"],
         "operator norm overflowed"),
        (["preserve-check", "--op", "diag:1e308,1e308"], "operator norm overflowed"),
        (["preserve-check", "--A", "diag:1e300,1", "--B", "diag:1e300,2"], "operator norm overflowed"),
        # a finite operator norm whose square, or the pair's product, overflows
        (["preserve-check", "--op", "diag:1e100,1"], "operator norm overflowed"),
        (["preserve-check", "--A", "diag:1e100,1", "--B", "diag:1e100,1"], "operator norm overflowed"),
    ],
)
def test_overflow_exits_2_with_one_line_and_no_warnings(argv, message, capsys):
    # pyproject turns a numpy RuntimeWarning into an error, which would escape main
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("entloc: input error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # the numeric path reads the amplitude as complex() does: an infinity
        (["classify", "--amps", "1e9999999,0,1"], "state contains non-finite amplitudes"),
        (["classify", "--amps", "1,1e+0000012345j,1"], "state contains non-finite amplitudes"),
        (["certify", "--A", 'entries:[["1e9999999","0"],["0","1"]]', "--B", "pauli:1"],
         "decimal exponent out of range in '1e9999999'"),
        (["certify", "--A", "diag:1,2E-9999999", "--B", "pauli:1"], "decimal exponent out of range"),
        (["certify", "--A", "entries:[[1,0],[0,1]]", "--B", "diag:1,1+1e-4301j"],
         "decimal exponent out of range in '+1e-4301'"),
    ],
)
def test_a_huge_decimal_exponent_exits_2_at_once(argv, message, capsys):
    # Fraction would build 10**exponent first, which took 10 s for 1e9999999
    start = time.perf_counter()
    assert main(argv) == EXIT_INPUT
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("entloc: input error: ") and message in err


def test_a_certificate_coefficient_too_large_to_print_exits_2_with_one_line(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["certify", "--A", 'entries:[["1e4300","1"],["2","3"]]', "--B", "pauli:1"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "entloc: input error: a certificate coefficient is too large to print in decimal digits\n"
    # the interpreter's own limit is left as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize(
    "argv, message",
    [
        # operators of the wrong shape for the family
        (["witness", "--set", "I", "--pair", "number:L0,number:L1"],
         "family I/II operators must be 2x2 generators or 3x3 matrices"),
        (["audit", "--set", "ssr", "--pair", "pauli:1,pauli:2"], "family III/ssr operators must be 10x10"),
        (["witness", "--set", "mode", "--pair", "pauli:1,pauli:2"],
         "mode operators must act on the truncated Fock space"),
        # inputs a command needs, or a combination it does not take
        (["witness", "--set", "I", "--A", "pauli:1"], "provide --pair A,B or both --A and --B"),
        (["classify", "--family", "III", "--coeffs", "1,0"], "--family supports I or II with --coeffs c0,c1"),
        (["classify", "--family", "I", "--coeffs", "1,0,0"], "--family supports I or II with --coeffs c0,c1"),
        (["classify"], "provide --amps or --family/--coeffs"),
        (["audit", "--set", "I", "--pairs", "random:2"],
         "random pair audits are the positive controls: use --set mode|ssr"),
        (["certify", "--sectors", "LL,LR,RR", "--A", "number:L0", "--B", "number:R0"], "--sectors needs X,Y"),
        (["certify", "--A", "number:L0", "--B", "number:R0"], "pair certificates need 2x2 exact operators"),
        (["preserve-check"], "provide --op or --pair"),
        (["preserve-check", "--op", "diag:1,2,3,4"], "preserve-check accepts 2x2, 3x3 or 10x10 operators"),
        # exact mode refuses a numeric construction
        (["certify", "--A", "oxo:pauli:1", "--B", "pauli:1"], "oxo wrapping is not supported in exact mode"),
        # a JSON integer past the interpreter's digit limit, in either mode
        (["preserve-check", "--op", f"entries:[[1{'0' * 5000},0],[0,1]]"],
         "an entries: integer is too long: at most 4300 digits"),
        (["certify", "--A", f"entries:[[1{'0' * 5000},0],[0,1]]", "--B", "pauli:1"],
         "an entries: integer is too long: at most 4300 digits"),
        (["certify", "--A", f"entries:[[[0,-{'9' * 4301}],0],[0,1]]", "--B", "pauli:1"],
         "an entries: integer is too long: at most 4300 digits"),
        # an exact scalar past the same limit: a diag: entry, a string entry, an [re, im] part
        (["certify", "--A", f"diag:{DIGITS_5001},1", "--B", "pauli:1"],
         "an exact scalar is too long: 5001 digits, at most 4300"),
        (["certify", "--A", f'entries:[["{DIGITS_5001}",0],[0,1]]', "--B", "pauli:1"],
         "an exact scalar is too long: 5001 digits, at most 4300"),
        (["certify", "--A", f'entries:[[[0,"-1/{DIGITS_5001}"],0],[0,1]]', "--B", "pauli:1"],
         "an exact scalar is too long: 5001 digits, at most 4300"),
        # two forms of one input: each of these dropped one of them
        (["audit", "--set", "I", "--A", "pauli:0", "--B", "pauli:0", "--pair", "pauli:1,pauli:2",
          "--samples", "50"], "give the pair as --pair A,B or as --A and --B, not both"),
        (["certify", "--A", "pauli:0", "--B", "pauli:3", "--pair", "pauli:1,pauli:2"],
         "give the pair as --pair A,B or as --A and --B, not both"),
        (["witness", "--set", "I", "--A", "pauli:3", "--B", "pauli:3", "--pair", "pauli:1,pauli:2"],
         "give the pair as --pair A,B or as --A and --B, not both"),
        (["witness", "--set", "I", "--A", "pauli:3", "--pair", "pauli:1,pauli:2"],
         "give the pair as --pair A,B or as --A and --B, not both"),
        (["preserve-check", "--op", "pauli:1", "--A", "pauli:1", "--B", "pauli:2"],
         "give one operator as --op or a pair as --pair/--A/--B, not both"),
        (["preserve-check", "--op", "pauli:1", "--pair", "pauli:1,pauli:2"],
         "give one operator as --op or a pair as --pair/--A/--B, not both"),
        (["preserve-check", "--B", "pauli:2"], "provide --pair A,B or both --A and --B"),
        (["classify", "--amps", "0,0,1", "--family", "I", "--coeffs", "1,0"],
         "give the state as --amps or as --family/--coeffs, not both"),
        (["classify", "--amps", "0,0,1", "--coeffs", "1,0"],
         "give the state as --amps or as --family/--coeffs, not both"),
    ],
)
def test_an_input_error_exits_2_with_one_line(argv, message, capsys):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("entloc: input error: ") and message in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1", "2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--amps", "1,0,0"],
        ["witness", "--set", "I", "--pair", "pauli:1,pauli:2"],
        ["preserve-check", "--op", "pauli:2"],
        ["sample", "--set", "ssr", "--n", "3"],
    ],
)
def test_a_tolerance_that_cannot_decide_a_verdict_exits_2_with_one_line(argv, value, capsys):
    # a NaN tolerance made every margin test false, and one of 1 or more every test true
    assert main([*argv, f"--tol-class={value}"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"entloc: input error: tolerances must lie in (0, 1), got eps_class={float(value)!r}\n"


def test_an_entries_integer_of_4300_digits_keeps_its_value():
    top = int("9" * MAX_DECIMAL_EXPONENT)
    exact = parse_operator(f"entries:[[{top},0],[0,-{top}]]", exact=True)
    # an exact integer entry stays the Python int it spells, which every exact ring coerces
    assert (exact[0, 0], exact[1, 1]) == (top, -top) and type(exact[0, 0]) is int
    assert GaussianRational.coerce(exact[1, 1]) == GaussianRational(-top)


def test_an_exact_scalar_of_4300_digits_keeps_its_value():
    digits = "9" * MAX_DECIMAL_EXPONENT
    assert parse_exact_scalar(f"-{digits}") == GaussianRational(-int(digits))
    # each side of a fraction may spell 4300 digits, and a decimal 4300 with its leading 0
    assert parse_exact_scalar(f"{digits}/{digits[1:]}7+0.{digits[1:]}j") == GaussianRational(
        Fraction(int(digits), int(digits[1:] + "7")), Fraction(int(digits[1:]), 10 ** (MAX_DECIMAL_EXPONENT - 1))
    )


def test_a_scalar_of_5000_digits_is_an_infinity_on_the_numeric_path(capsys):
    # the numeric path reads the digits as complex() does, past the exact path's limit
    assert main(["preserve-check", "--op", f"diag:{DIGITS_5001},1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("entloc: input error: ") and "non-finite entries" in err


def run_capped(argv, cap_mib, timeout=None):
    """Run the CLI in a child process whose address space is capped at ``cap_mib`` MiB."""
    resource = pytest.importorskip("resource")
    limit = cap_mib << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "entloc.cli", *argv], env=env, preexec_fn=cap, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv",
    [
        # within every bound, the costliest sample holds, classifies and prints its 10^5
        # family-III states at once, at about 680 MiB RSS
        ["sample", "--set", "III", "--n", str(MAX_SAMPLE_N)],
    ],
)
def test_a_request_too_large_for_memory_exits_2_with_one_line(argv):
    proc = run_capped(argv, 256)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("entloc: input error: not enough memory: ")


def test_a_report_too_large_to_serialize_exits_2_with_one_line(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(report_module.json, "dumps", refuse)
    assert main(["sample", "--set", "I", "--n", "2"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err == "entloc: input error: not enough memory: \n"


def test_a_mode_control_at_the_n_max_bound_fits_in_256_mib():
    # a mode control holds no dense ladder monomial, only its headroom states and column maps
    argv = ["audit", "--set", "mode", "--pairs", "random:10", "--states", "100", "--n-max", str(MAX_N_MAX)]
    proc = run_capped(argv, 256, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["audit"]["max_abs_residual"] == 0.0


# one state per pair; (211, 44) and (51653, 10) check that no pairs x dim^2 bound
# refuses a mode control, whose pairs read one table of the 36 ladder-monomial pairs
@pytest.mark.parametrize(
    "pairs, n_max", [(210, MAX_N_MAX), (211, MAX_N_MAX), (100, MAX_N_MAX), (51652, 10), (51653, 10), (10**6, 4)]
)
def test_a_mode_control_within_its_time_bound_is_run(pairs, n_max):
    argv = ["audit", "--set", "mode", "--pairs", f"random:{pairs}", "--states", "1", "--n-max", str(n_max)]
    proc = run_capped(argv, 512, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["audit"]["max_abs_residual"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--set", "III", "--n", str(MAX_SAMPLE_N + 1)],
        ["sample", "--set", "I", "--n", "30000000"],
        ["sample", "--set", "mode", "--n", str(10**30)],
    ],
)
def test_a_sample_count_past_its_bound_exits_2_with_one_line(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family was drawn")

    monkeypatch.setattr(Family, "draw", refuse)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"entloc: input error: --n {argv[-1]} is past {MAX_SAMPLE_N}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", str(MAX_AUDIT_STATES + 1)],
        ["audit", "--set", "III", "--A", "number:L0", "--B", "number:R0", "--samples", str(10**12)],
        ["audit", "--set", "mode", "--pair", "number:0,number:1", "--samples", str(10**30)],
    ],
)
def test_an_audit_sample_count_past_its_bound_exits_2_with_one_line(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an audit was started")

    monkeypatch.setattr(cli_module, "audit", refuse)
    monkeypatch.setattr(Family, "draw", refuse)
    monkeypatch.setattr(FockSpace, "__init__", refuse)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"entloc: input error: --samples {argv[-1]} is past {MAX_AUDIT_STATES}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--set", "I", "--pair", "pauli:0,pauli:1", "--budget", str(MAX_WITNESS_BUDGET + 1)],
        ["witness", "--set", "ssr", "--A", "number:L0", "--B", "number:R0", "--budget", str(10**12)],
        ["witness", "--set", "mode", "--pair", "number:0,number:1", "--budget", str(10**30)],
    ],
)
def test_a_witness_budget_past_its_bound_exits_2_with_one_line(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search was started")

    monkeypatch.setattr(cli_module, "find_violation_witness", refuse)
    monkeypatch.setattr(FockSpace, "__init__", refuse)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"entloc: input error: --budget {argv[-1]} is past {MAX_WITNESS_BUDGET}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--set", "mode", "--pair", "ladder:0:+,ladder:1:-", "--n-max", "200"],
        ["witness", "--set", "mode", "--pair", "number:0,number:1", "--n-max", "200"],
        ["audit", "--set", "mode", "--pairs", "random:1", "--n-max", str(MAX_N_MAX + 1)],
    ],
)
def test_an_n_max_past_its_bound_exits_2_with_one_line(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock space was built")

    monkeypatch.setattr(FockSpace, "__init__", refuse)
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"entloc: input error: --n-max {argv[-1]} is past {MAX_N_MAX}\n"


def test_an_n_max_at_its_bound_is_taken(capsys):
    code, doc = run_json(
        capsys, "witness", "--set", "mode", "--pair", "number:0,number:1", "--budget", "20",
        "--n-max", str(MAX_N_MAX),
    )
    assert code == 0 and doc["results"] == {"found": False, "budget": 20, "threshold": 1e-6}


@pytest.mark.parametrize("text", ["1e10000", "1e43000", "-2E+000043001", "3e-43000j"])
def test_an_exponent_of_five_digits_is_refused(text):
    # every exponent of five digits or more lies past 4300, whatever its leading digits
    with pytest.raises(ValueError, match="decimal exponent out of range"):
        parse_exact_scalar(text)


def test_exponents_within_the_bound_keep_their_values():
    top = MAX_DECIMAL_EXPONENT
    assert parse_exact_scalar(f"1e{top}") == GaussianRational(10**top)
    assert parse_exact_scalar(f"-25e-{top}j") == GaussianRational(0, Fraction(-25, 10**top))
    assert parse_exact_scalar(f"1E+{top}+0.5e0{top}j") == GaussianRational(10**top, 5 * 10 ** (top - 1))
    # the numeric path rounds as complex() does on either side of the bound
    for text in (f"1e{top}", f"1e{top + 1}", f"3e-{top}", f"3e-{top + 1}", "1e-330", "2.5e300"):
        assert parse_scalar(text) == complex(text)


# --- options ----------------------------------------------------------------------

PAIR = ["--pair", "--A", "--B"]
COMMAND_FLAGS = {
    "classify": ["--amps", "--basis", "--family", "--coeffs", "--tol-class"],
    "reproduce-paper": [],
    "audit": ["--set", "--pairs", "--states", "--samples", "--seed", "--threshold", "--n-max", *PAIR],
    "witness": ["--set", "--budget", "--seed", "--threshold", "--n-max", "--tol-class", *PAIR],
    "certify": ["--sectors", *PAIR],
    "preserve-check": ["--op", *PAIR, "--tol-class"],
    "sample": ["--set", "--n", "--seed", "--tol-class"],
}


def _subparsers(parser):
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return commands.choices


def test_each_command_takes_only_the_flags_it_reads():
    taken = {
        name: {flag for a in sub._actions for flag in a.option_strings} - {"-h", "--help"}
        for name, sub in _subparsers(build_parser()).items()
    }
    assert taken == {name: {*flags, "--format", "--out"} for name, flags in COMMAND_FLAGS.items()}
    assert sum(map(len, taken.values())) == 51


def test_the_readme_flag_table_names_the_flags_each_command_takes():
    rows = {}
    for line in README.read_text().split("| command | flags |")[1].split("\n\n")[0].splitlines()[2:]:
        command, flags = line.strip("|").split(" | ")
        rows[command.strip().strip("`")] = set(re.findall(r"--[A-Za-z][A-Za-z-]*", flags))
    assert rows == {name: set(flags.split()) for name, (_, _, flags) in _COMMANDS.items()}


def _action_fields(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required) for a in parser._actions]


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_a_parser_built_for_one_command_gives_it_the_full_trees_flags_and_help(name):
    one, full = build_parser(name), build_parser()
    assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
    assert _action_fields(_subparsers(one)[name]) == _action_fields(_subparsers(full)[name])
    # the top-level help lists every command, whichever flags were built
    assert one.format_help() == full.format_help()


def test_main_builds_the_flags_of_the_command_it_runs(monkeypatch, capsys):
    asked = []

    def spy(command=None):
        asked.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli_module, "build_parser", spy)
    assert run(capsys, "classify", "--amps", "0,0,1")[0] == 0
    assert asked == ["classify"]


def test_no_command_exits_2_with_the_usage_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: entloc ") and "error: the following arguments are required: command" in err


def test_an_unknown_command_exits_2_with_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == EXIT_INPUT
    assert "error: argument command: invalid choice: 'bogus'" in capsys.readouterr().err


def test_top_level_help_exits_0_and_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: entloc ")
    assert all(re.search(rf"^\s+{name}\s+\S", out, re.M) for name in _COMMANDS) and len(_COMMANDS) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--pair", "pauli:1,pauli:2", "--seed", "9"],
        ["classify", "--amps", "0,0,1", "--budget", "5"],
        ["reproduce-paper", "--seed", "1"],
        ["audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--tol-class", "5"],
        ["witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "3"],
        ["sample", "--set", "I", "--threshold", "1"],
        ["preserve-check", "--op", "pauli:2", "--tol-rank", "1e-3"],
        # one tolerance decides every family
        ["classify", "--amps", "0,0,1", "--tol-rank", "1e-8"],
        ["witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--tol-rank", "1e-8"],
        ["sample", "--set", "ssr", "--tol-rank", "1e-8"],
    ],
)
def test_a_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    # the usage is the subcommand's, which lists the flags it does take
    assert err.startswith(f"usage: entloc {argv[0]} ")
    assert f"entloc {argv[0]}: error: unrecognized arguments: " + " ".join(argv[-2:]) in err


@pytest.mark.parametrize(
    "argv, equals_form",
    [
        (["classify", "--amps", "-0.6,0.8,0"], ["classify", "--amps=-0.6,0.8,0"]),
        (["classify", "--family", "I", "--coeffs", "-1,1"], ["classify", "--family", "I", "--coeffs=-1,1"]),
        (["preserve-check", "--op", "-pauli:3"], ["preserve-check", "--op=-pauli:3"]),
        (["certify", "--pair", "-pauli:1,pauli:2"], ["certify", "--pair=-pauli:1,pauli:2"]),
        (["witness", "--set", "I", "--A", "-pauli:3", "--B", "-pauli:1"],
         ["witness", "--set", "I", "--A=-pauli:3", "--B=-pauli:1"]),
    ],
)
def test_a_flag_value_that_begins_with_a_dash_reads_as_its_equals_form(argv, equals_form, capsys):
    code, doc = run_json(capsys, *argv)
    want_code, want = run_json(capsys, *equals_form)
    assert code == want_code == 0 and results_bytes(doc) == results_bytes(want)


def test_a_dash_value_binds_to_no_flag_it_is_not_the_value_of(capsys):
    # an unknown flag is still refused with the command's usage, its value left to it
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--bogus", "1"])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: entloc classify ") and "unrecognized arguments: --bogus 1" in err
    # a flag of the command, or a help flag, after a flag is not its value
    for after in (["--basis", "sym3"], ["-h"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--amps", *after])
        assert exc.value.code == EXIT_INPUT
        assert "argument --amps: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.6,0.8,0", "-0.6,0.8,0"])
def test_a_flag_is_read_by_its_full_name_only(value, capsys):
    # a prefix of --amps is refused in both spellings, with the command's usage
    usages = set()
    for argv in (["classify", "--am", value], ["classify", f"--am={value}"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.endswith(f"entloc classify: error: unrecognized arguments: {' '.join(argv[1:])}\n")
        usages.add(err.partition("entloc classify: error")[0])
    (usage,) = usages
    assert usage.startswith("usage: entloc classify ")
    # the same call with the full name reads the value
    assert run_json(capsys, "classify", f"--amps={value}")[0] == 0


@pytest.mark.parametrize("command", _COMMANDS)
def test_the_help_of_a_command_is_its_parsers_help(command, capsys):
    (sub,) = (a for a in build_parser(command)._actions if a.dest == "command")
    want = sub.choices[command].format_help()
    for argv in ([command, "--help"], [command, "-h"], [command, "--format", "json", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out == want, argv


def test_config_echoes_null_for_knobs_the_command_does_not_take(capsys):
    _, doc = run_json(capsys, "classify", "--amps", "0,0,1", "--tol-class", "1e-7")
    config = doc["config"]
    assert [config[k] for k in ("seed", "samples", "budget", "witness_threshold")] == [None] * 4
    assert config["tol_class"] == 1e-7
    assert config["extra"] == {"amps": "0,0,1", "basis": "sym3"}
    _, doc = run_json(
        capsys, "witness", "--set", "I", "--pair", "pauli:0,pauli:3", "--budget", "200",
        "--seed", "5", "--threshold", "0.5", "--n-max", "3",
    )
    config = doc["config"]
    assert (config["budget"], config["seed"], config["witness_threshold"]) == (200, 5, 0.5)
    assert (config["samples"], config["fmt"]) == (None, "json")
    # only the mode family reads --n-max
    assert config["extra"] == {"set": "I", "pair": "pauli:0,pauli:3"}
    _, doc = run_json(
        capsys, "witness", "--set", "MODE", "--pair", "number:0,number:1", "--budget", "20", "--n-max", "3"
    )
    assert doc["config"]["extra"] == {"set": "MODE", "pair": "number:0,number:1", "n_max": 3}


def _config(**knobs) -> dict:
    """A whole config echo: every knob null except those given."""
    return {**dict.fromkeys(CONFIG_KNOBS), "fmt": "json", **knobs}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["classify", "--amps", "0,0,1"],
         _config(command="classify", tol_class=1e-9, extra={"amps": "0,0,1", "basis": "sym3"})),
        (["reproduce-paper"], _config(command="reproduce-paper", extra={})),
        (["audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "20", "--seed", "3"],
         _config(command="audit", seed=3, witness_threshold=1e-6, samples=20,
                 extra={"set": "I", "pair": "pauli:1,pauli:2"})),
        (["audit", "--set", "mode", "--pairs", "random:2", "--states", "20", "--seed", "8"],
         _config(command="audit", seed=8, witness_threshold=1e-10,
                 extra={"set": "mode", "pairs": "random:2", "states": 20, "n_max": 4})),
        (["witness", "--set", "mode", "--A", "number:0", "--B", "number:1", "--budget", "20", "--n-max", "3"],
         _config(command="witness", seed=42, tol_class=1e-9, witness_threshold=1e-6, budget=20,
                 extra={"set": "mode", "A": "number:0", "B": "number:1", "n_max": 3})),
        (["certify", "--sectors", "RR,LR", "--A", "number:L1-number:L0", "--B", "number:R0"],
         _config(command="certify", extra={"sectors": "RR,LR", "A": "number:L1-number:L0", "B": "number:R0"})),
        (["preserve-check", "--op", "pauli:2"], _config(command="preserve-check", tol_class=1e-9, extra={"op": "pauli:2"})),
        (["sample", "--set", "ssr", "--n", "2", "--seed", "1", "--tol-class", "1e-7"],
         _config(command="sample", seed=1, tol_class=1e-7, extra={"set": "ssr", "n": 2})),
    ],
)
def test_each_command_echoes_its_whole_config(argv, config, capsys):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["config"] == config


def test_the_config_keys_are_the_documented_ones(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["sample", "--set", "I", "--n", "1", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert sorted(config) == sorted([*CONFIG_KNOBS, "extra"])
    assert (config["out"], config["fmt"]) == (str(out), "json")
    section = SCHEMA_DOC.read_text().split("## `config`")[1].split("\n## ")[0]
    assert "`report.CONFIG_KNOBS`" in section
    for key in (*CONFIG_KNOBS, "extra"):
        assert f"`{key}`" in section


# --- reproduce-paper ---------------------------------------------------------------

def test_reproduce_paper_passes(capsys):
    code, doc = run_json(capsys, "reproduce-paper")
    assert code == 0
    assert doc["summary"] == "PASS"
    assert doc["results"]["n_pass"] == doc["results"]["n_lines"] == 9
    assert all(line["max_abs_error"] <= 1e-12 for line in doc["results"]["lines"])


def test_reproduce_paper_prints_only_its_report(tmp_path, capsys):
    # stdout is one JSON document, as for every command, so it pipes into a JSON reader
    code, out = run(capsys, "reproduce-paper")
    assert code == 0 and json.loads(out)["summary"] == "PASS"
    report = tmp_path / "report.json"
    assert main(["reproduce-paper", "--out", str(report)]) == 0
    assert capsys.readouterr() == ("", "")
    assert json.loads(report.read_text())["results"] == json.loads(out)["results"]
    # --format csv prints the same lines as a table, and nothing else
    code, out = run(capsys, "reproduce-paper", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["id"] for row in rows] == [line["id"] for line in json.loads(report.read_text())["results"]["lines"]]


# --- audits / witness / certify ------------------------------------------------------

def test_audit_command_and_determinism(capsys):
    args = ("audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "50", "--seed", "7")
    code, doc1 = run_json(capsys, *args)
    assert code == 0
    assert doc1["results"]["audit"]["verdict"] == "ViolationFound"
    assert doc1["config"]["witness_threshold"] == doc1["results"]["audit"]["threshold"] == 1e-6
    _, doc2 = run_json(capsys, *args)
    assert results_bytes(doc1) == results_bytes(doc2)


# one command of each kind, as a fresh process and as repeated main calls in one process
REPEATED_COMMANDS = [
    ["classify", "--amps", "1,0,1"],
    ["certify", "--pair", "pauli:1,pauli:2"],
    ["preserve-check", "--op", "pauli:1"],
    ["sample", "--set", "ssr", "--n", "3", "--seed", "5"],
    ["audit", "--set", "III", "--pair", "number:L0,number:R0", "--samples", "100", "--seed", "2"],
    ["witness", "--set", "mode", "--pair", "ladder:0:+,ladder:1:-", "--seed", "4"],
    ["reproduce-paper"],
]


def test_main_called_again_and_again_gives_the_fresh_process_bytes(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    fresh = []
    for argv in REPEATED_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "entloc.cli", *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        fresh.append(results_bytes(json.loads(proc.stdout)))

    def run_all():
        for argv, want in zip(REPEATED_COMMANDS, fresh):
            code, doc = run_json(capsys, *argv)
            assert code == 0 and results_bytes(doc) == want, argv

    run_all()
    with pytest.raises(SystemExit) as usage:
        main(["audit", "--set", "I", "--budget", "5"])
    assert usage.value.code == 2
    assert main(["classify", "--amps", "0,0,0"]) == EXIT_INPUT
    capsys.readouterr()
    run_all()


def test_audit_positive_control_command(capsys):
    code, doc = run_json(
        capsys, "audit", "--set", "mode", "--pairs", "random:5", "--states", "10"
    )
    assert code == 0
    assert doc["results"]["audit"]["max_abs_residual"] <= 1e-10
    assert doc["summary"] == "FactorizesOnSamples"
    # the config echoes the threshold the control used, its own 1e-10 by default
    assert doc["config"]["witness_threshold"] == doc["results"]["audit"]["threshold"] == 1e-10
    _, doc = run_json(
        capsys, "audit", "--set", "ssr", "--pairs", "random:2", "--states", "10",
        "--threshold", "1e-3",
    )
    assert doc["config"]["witness_threshold"] == doc["results"]["audit"]["threshold"] == 1e-3
    # --n-max sets the Fock space: dimension 10 for n_max 3, 15 for the default 4
    _, doc = run_json(
        capsys, "audit", "--set", "mode", "--pairs", "random:2", "--states", "10", "--n-max", "3"
    )
    assert len(doc["results"]["audit"]["argmax_state"]) == 10
    # nothing is rechecked for random pairs, so no recheck_error is reported
    _, doc = run_json(capsys, "audit", "--pairs", "random:3", "--states", "5", "--set", "ssr")
    assert "recheck_error" not in doc["results"]["audit"]


def test_audit_echoes_only_what_its_mode_read(capsys):
    # a positive control reads --states, a pair audit --samples; only mode reads --n-max
    cases = (
        (["--set", "ssr", "--pairs", "random:2", "--states", "5"], None, {"pairs": "random:2", "states": 5}),
        (["--set", "mode", "--pairs", "random:2", "--states", "5", "--n-max", "3"], None,
         {"pairs": "random:2", "states": 5, "n_max": 3}),
        (["--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "20"], 20, {"pair": "pauli:1,pauli:2"}),
        (["--set", "mode", "--pair", "number:0,number:1", "--samples", "20"], 20,
         {"pair": "number:0,number:1", "n_max": 4}),
    )
    for argv, samples, extra in cases:
        code, doc = run_json(capsys, "audit", *argv)
        assert code == 0
        assert doc["config"]["samples"] == samples
        assert doc["config"]["extra"] == {"set": argv[1], **extra}


def test_audit_mode_with_explicit_ladder_pair(capsys):
    code, doc = run_json(
        capsys,
        "audit",
        "--set",
        "mode",
        "--A",
        "ladder:0:++ladder:0:-",
        "--B",
        "number:1",
        "--samples",
        "50",
    )
    assert code == 0
    assert doc["results"]["audit"]["max_abs_residual"] <= 1e-12


def test_witness_block_local_pair_reports_not_found(capsys):
    # the sector-local pair factorizes on single-sector samples: NotFound is
    # the informative success of the positive control
    code, doc = run_json(
        capsys,
        "witness",
        "--set",
        "ssr",
        "--A",
        "number:L0-number:L1",
        "--B",
        "number:R0-number:R1",
        "--budget",
        "500",
    )
    assert code == 0
    assert doc["summary"] == "NotFound"


def test_witness_mode_searches_headroom_occupation_states(capsys):
    code, doc = run_json(capsys, "witness", "--set", "mode", "--pair", "number:0,number:1")
    assert code == 0
    assert doc["summary"] == "NotFound"
    quadrature = "ladder:0:++ladder:0:-"
    code, doc = run_json(capsys, "witness", "--set", "mode", "--A", quadrature, "--B", quadrature)
    assert code == 0
    assert doc["summary"] == "ViolationFound"
    assert doc["results"]["membership"]["set"] == "ModeSep"
    assert doc["results"]["recheck_error"] < 1e-12


def test_witness_command(capsys):
    code, doc = run_json(capsys, "witness", "--set", "I", "--pair", "pauli:3,pauli:3")
    assert code == 0
    assert doc["summary"] == "ViolationFound"
    assert doc["results"]["abs_residual"] > 1e-6
    assert doc["results"]["membership"]["set"] == "SepI"
    assert doc["results"]["recheck_error"] < 1e-12


def test_witness_not_found_is_informative_success(capsys):
    code, doc = run_json(
        capsys, "witness", "--set", "I", "--pair", "pauli:0,pauli:3", "--budget", "200"
    )
    assert code == 0
    assert doc["summary"] == "NotFound"
    assert doc["results"]["found"] is False


def test_certify_command(capsys):
    code, doc = run_json(capsys, "certify", "--pair", "pauli:1,pauli:2")
    assert code == 0
    assert doc["summary"] == "NonzeroMonomial"
    assert doc["results"]["certificate"]["monomial"] is not None

    code, doc = run_json(capsys, "certify", "--pair", "pauli:0,pauli:2")
    assert doc["summary"] == "IdenticallyZero"
    assert doc["results"]["certificate"]["structural"]["both_bases"] is True

    # bare JSON decimals are the exact decimals they spell, as in [re, im] pairs
    half = [
        run_json(capsys, "certify", "--A", spec, "--B", "pauli:1")
        for spec in ("entries:[[0.5,0],[0,1]]", 'entries:[["1/2",0],[0,1]]', "entries:[[[0.5,0],0],[0,1]]")
    ]
    assert [code for code, _ in half] == [0, 0, 0]
    assert len({results_bytes(doc) for _, doc in half}) == 1


def test_certify_sector_command(capsys):
    code, doc = run_json(
        capsys,
        "certify",
        "--sectors",
        "LL,RR",
        "--A",
        "number:L0-number:L1",
        "--B",
        "number:R0-number:R1",
    )
    assert code == 0
    assert doc["summary"] == "IdenticallyZero"


def test_preserve_check_commands(capsys):
    code, doc = run_json(capsys, "preserve-check", "--op", "pauli:2")
    assert code == 0
    assert doc["results"]["unitary_proportional"] is True
    code, doc = run_json(capsys, "preserve-check", "--op", "diag:1,2")
    assert doc["results"]["unitary_proportional"] is False
    assert doc["results"]["round_trip_defect"] < 1e-10
    code, doc = run_json(capsys, "preserve-check", "--pair", "pauli:1,pauli:2")
    assert doc["summary"] == "commutes"
    code, doc = run_json(capsys, "preserve-check", "--op", "number:L0-number:L1")
    assert doc["summary"] == "not-block-scalar"
    # the zero operator: zero times a unitary, and the pair square of zero
    code, doc = run_json(capsys, "preserve-check", "--op", "entries:[[0,0],[0,0]]")
    assert code == 0 and doc["summary"] == "sep-II-preserver"
    assert doc["results"]["round_trip_defect"] == 0.0
    code, doc = run_json(capsys, "preserve-check", "--op", "entries:[[0,0,0],[0,0,0],[0,0,0]]")
    assert code == 0 and doc["summary"] == "fits"
    assert doc["results"]["defect"] == 0.0


def test_sample_command(capsys):
    code, doc = run_json(capsys, "sample", "--set", "ssr", "--n", "4", "--seed", "3")
    assert code == 0
    assert doc["results"]["all_separable"] is True
    assert len(doc["results"]["states"]) == 4


# --- report output -------------------------------------------------------------------

def test_report_schema_and_config_echo(capsys):
    _, doc = run_json(capsys, "sample", "--set", "I", "--n", "2", "--seed", "11")
    assert doc["schema"] == "entloc-report/v1"
    assert doc["config"]["command"] == "sample"
    assert doc["config"]["seed"] == 11
    assert "wall_time_s" in doc and "results" in doc


def test_csv_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["classify", "--amps", "0,0,1", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "classifier,verdict"
    assert "sep_II,SepIIOnly" in text
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, header",
    [
        (["witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--seed", "10"],
         ["abs_residual", "found", "membership.set", "recheck_error", "set"]),
        (["witness", "--set", "I", "--pair", "pauli:0,pauli:1", "--budget", "50"], ["budget", "found", "threshold"]),
        (["audit", "--set", "ssr", "--pairs", "random:2", "--states", "20", "--seed", "9"],
         ["audit.max_abs_residual", "audit.mean_abs_residual", "audit.n_samples", "audit.pair", "audit.seed",
          "audit.set", "audit.threshold", "audit.verdict"]),
        (["certify", "--pair", "pauli:1,pauli:2"],
         ["canonical_text", "certificate.check_value", "certificate.coefficient", "certificate.n_terms",
          "certificate.verdict"]),
        (["preserve-check", "--op", "pauli:2"], ["round_trip_defect", "unitary_proportional"]),
        (["preserve-check", "--op", "diag:1,1,1"], ["defect", "fits"]),
        (["preserve-check", "--pair", "pauli:1,pauli:2"], ["commutativity.commutes"]),
        (["preserve-check", "--op", "number:L0"], ["block_scalar", "identity_proportional"]),
        (["sample", "--set", "I", "--n", "2", "--seed", "1"], ["all_separable", "set"]),
    ],
)
def test_csv_without_lines_is_one_row_of_scalar_results(argv, header, capsys):
    _, doc = run_json(capsys, *argv)
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == header and len(rows) == 2
    # a scalar of results, or of a dict one level down, as csv writes it
    for key, cell in zip(header, rows[1]):
        value = doc["results"]
        for part in key.split("."):
            value = value[part]
        assert cell == str(value)


@pytest.mark.parametrize("fmt, end", [("json", "}\n"), ("csv", "SepIIOnly\r\n")])
def test_a_report_ends_in_one_newline_on_stdout_and_in_a_file(fmt, end, tmp_path, capsys):
    argv = ["classify", "--amps", "0,0,1", "--format", fmt]
    code, out = run(capsys, *argv)
    assert code == main([*argv, "--out", str(tmp_path / "report")]) == 0
    text = (tmp_path / "report").read_bytes().decode()
    assert out.endswith(end) and text.endswith(end)
    assert not text.endswith(("\n\n", "\n\r\n"))
    if fmt == "csv":  # the report's only volatile part, wall_time_s, is not in the CSV
        assert text == out


def test_json_out_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["witness", "--set", "I", "--pair", "pauli:3,pauli:3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"] == "ViolationFound"
    capsys.readouterr()


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_an_out_path_that_cannot_be_written_exits_2_with_one_line(where, tmp_path, capsys):
    # a missing directory, and a directory: both ended in a traceback after the run
    out = tmp_path / where
    assert main(["classify", "--amps", "0,0,1", "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"entloc: input error: cannot write --out {str(out)!r}: ")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_holding_a_non_finite_number_exits_4_with_one_line(value, fmt, monkeypatch, tmp_path, capsys):
    # a backstop: no command should build such a report, and none is written
    broken = (lambda args, tol: ({"value": value}, "PASS"), "a command with a broken report", "")
    monkeypatch.setitem(_COMMANDS, "reproduce-paper", broken)
    out = tmp_path / "report"
    assert main(["reproduce-paper", "--format", fmt]) == main(
        ["reproduce-paper", "--format", fmt, "--out", str(out)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    line = "entloc: internal consistency error: the report holds a number that is NaN or infinite\n"
    assert captured.out == "" and captured.err == line * 2
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (ConsistencyError("two routes disagree"), EXIT_INTERNAL, "entloc: internal consistency error: two routes disagree"),
        (MemoryError("no room"), EXIT_INPUT, "entloc: input error: not enough memory: no room"),
        (ValueError("bad input"), EXIT_INPUT, "entloc: input error: bad input"),
        (KeyError("no-such-key"), EXIT_INPUT, "entloc: input error: 'no-such-key'"),
    ],
    ids=["ConsistencyError", "MemoryError", "ValueError", "KeyError"],
)
def test_an_exception_in_a_handler_exits_with_its_code_and_one_line(exc, code, line, monkeypatch, capsys):
    def handler(args, tol):
        raise exc

    monkeypatch.setitem(_COMMANDS, "reproduce-paper", (handler, "a command that fails", ""))
    assert main(["reproduce-paper"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_amplitudes_that_exhaust_memory_read_as_not_enough_memory(monkeypatch, capsys):
    # only parse_scalar's ValueError reads as malformed amplitudes
    def refuse(text):
        raise MemoryError

    monkeypatch.setattr(cli_module, "parse_scalar", refuse)
    assert main(["classify", "--amps", "0,0,1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "entloc: input error: not enough memory: \n"


def test_an_out_path_with_a_null_byte_exits_2_with_one_line(capsys):
    # open() refuses it with a ValueError; it reads like every other unwritable --out
    assert main(["classify", "--amps", "0,0,1", "--out", "a\x00b"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "entloc: input error: cannot write --out 'a\\x00b': embedded null byte\n"


# --- closed stdout ------------------------------------------------------------------

class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["classify", "--amps", "0,0,1"], ["reproduce-paper"]])
def test_closed_stdout_ends_quietly_with_exit_1(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == EXIT_CLOSED_OUTPUT == 1
    assert capsys.readouterr().err == ""


def test_a_closed_stderr_still_ends_in_the_errors_exit_code(monkeypatch):
    # the message cannot be shown; the code of the error is still returned
    monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    assert main(["classify", "--amps", "1,2"]) == EXIT_INPUT


def test_closed_pipe_is_quiet_at_interpreter_exit(tmp_path):
    # the reader is gone before the first write, so every write fails
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "entloc.cli", "reproduce-paper"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_CLOSED_OUTPUT
    assert err == b""
