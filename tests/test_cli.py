"""CLI surface: commands, spec language, exit codes, report determinism."""

import json

import numpy as np
import pytest

from entloc.cli import (
    EXIT_INPUT,
    OperatorContext,
    main,
    parse_exact_scalar,
    parse_operator,
    parse_scalar,
)
from entloc.report import results_bytes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    # reproduce-paper prints PASS lines before the JSON document, which
    # starts at the first line that is exactly "{"
    start = 0 if out.startswith("{\n") else out.rindex("\n{\n") + 1
    return code, json.loads(out[start:])


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


def test_parse_operator_atoms():
    ctx = OperatorContext("raw2")
    assert np.allclose(parse_operator("pauli:1", ctx), [[0, 1], [1, 0]])
    assert np.allclose(parse_operator("diag:1,-1/2", ctx), [[1, 0], [0, -0.5]])
    assert np.allclose(parse_operator("entries:[[0,1],[1,0]]", ctx), [[0, 1], [1, 0]])
    assert np.allclose(
        parse_operator("pauli:1+pauli:3", ctx), [[1, 1], [1, -1]]
    )
    assert np.allclose(parse_operator("pauli:1-pauli:1", ctx), np.zeros((2, 2)))
    combo = parse_operator("number:L0-number:L1", OperatorContext("pair4"))
    assert combo.shape == (10, 10)
    assert np.allclose(np.diag(combo)[:3], [2, 0, 1])  # (L0,L0), (L0,L1), (L0,R0)
    assert combo[0, 0] == 2 and combo[4, 4] == -2


def test_parse_operator_errors():
    with pytest.raises(ValueError):
        parse_operator("pauli:7", OperatorContext("raw2"))
    with pytest.raises(ValueError):
        parse_operator("mystery:1", OperatorContext("raw2"))
    with pytest.raises(ValueError):
        parse_operator("ladder:0:+", OperatorContext("raw2"))  # no Fock context


# --- classify -------------------------------------------------------------------

def test_classify_reference_states(capsys):
    code, doc = run_json(capsys, "classify", "--amps", "0,0,1")
    assert code == 0
    verdicts = doc["results"]["verdicts"]
    assert verdicts["sep_II"]["set"] == "SepIIOnly"
    assert verdicts["mode"]["set"] == "ModeSep"

    # pinned golden value: equal-weight doubly occupied superposition is the
    # orthogonal-pair member with purity exactly 1/2
    code, doc = run_json(capsys, "classify", "--amps", "0.7071067811865476,0.7071067811865476,0")
    verdicts = doc["results"]["verdicts"]
    assert verdicts["sep_II"]["set"] == "SepIIOnly"
    assert abs(verdicts["sep_II"]["diagnostics"]["purity"] - 0.5) < 1e-12
    assert verdicts["mode"]["set"] == "ModeEnt"

    code, doc = run_json(capsys, "classify", "--basis", "sym10", "--amps", "1,0,0,0,0,0,0,0,0,0")
    verdicts = doc["results"]["verdicts"]
    assert verdicts["sep_III"]["set"] == "SepIII"
    assert verdicts["ssr"]["set"] == "SsrSep"


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
        (["audit", "--set", "mode", "--n-max", "1", "--pair", "number:0,number:1"], "n_max >= 2"),
        (["sample", "--set", "I", "--n", "-1"], "--n must be non-negative"),
        (["audit", "--set", "I", "--pair", 'entries:[["1e999",0],[0,1]],pauli:1'], "non-finite"),
        (["certify", "--sectors", "LL,LR", "--pair", "pauli:1,pauli:2"], "10x10"),
        (["certify", "--sectors", "LL,LR", "--A", "entries:[[1,2],[3,4]]", "--B", "number:R0"], "10x10"),
        (["certify", "--A", 'entries:[["1/0",0],[0,1]]', "--B", "pauli:1"], "zero denominator"),
        (["certify", "--A", 'entries:[[["1/0",0],0],[0,1]]', "--B", "pauli:1"], "zero denominator"),
        (["certify", "--A", "entries:[[1e999,0],[0,1]]", "--B", "pauli:1"], "Fraction"),
    ):
        assert main(argv) == EXIT_INPUT
        assert message in capsys.readouterr().err


# --- reproduce-paper ---------------------------------------------------------------

def test_reproduce_paper_passes(capsys):
    code, doc = run_json(capsys, "reproduce-paper")
    assert code == 0
    assert doc["summary"] == "PASS"
    assert doc["results"]["n_pass"] == doc["results"]["n_lines"] == 9
    assert all(line["max_abs_error"] <= 1e-12 for line in doc["results"]["lines"])


# --- audits / witness / certify ------------------------------------------------------

def test_audit_command_and_determinism(capsys):
    args = ("audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "50", "--seed", "7")
    code, doc1 = run_json(capsys, *args)
    assert code == 0
    assert doc1["results"]["audit"]["verdict"] == "ViolationFound"
    _, doc2 = run_json(capsys, *args)
    assert results_bytes(doc1) == results_bytes(doc2)


def test_audit_positive_control_command(capsys):
    code, doc = run_json(
        capsys, "audit", "--set", "mode", "--pairs", "random:5", "--states", "10"
    )
    assert code == 0
    assert doc["results"]["audit"]["max_abs_residual"] <= 1e-10
    assert doc["summary"] == "FactorizesOnSamples"
    # --n-max sets the Fock space: dimension 10 for n_max 3, 15 for the default 4
    _, doc = run_json(
        capsys, "audit", "--set", "mode", "--pairs", "random:2", "--states", "10", "--n-max", "3"
    )
    assert len(doc["results"]["audit"]["argmax_state"]) == 10


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


def test_json_out_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["witness", "--set", "I", "--pair", "pauli:3,pauli:3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"] == "ViolationFound"
    capsys.readouterr()
