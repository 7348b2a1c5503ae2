"""Tests of the benchmark itself: generator, answer checks and tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ops as gen  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402
from entloc import cli, factorization, reference, separability  # noqa: E402

NAMES = sorted(gen.WORKLOADS)
LIBRARY_CALLS = {"find_violation_witness", "solve_preservation_quartic"}


def op_keys(name: str, seed: int, cycles: int = 2) -> list[bytes]:
    return [op.key() for c in range(cycles) for op in gen.cycle(name, seed, c)]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_ops_other_seed_other_ops(name):
    assert op_keys(name, 11) == op_keys(name, 11)
    assert op_keys(name, 11) != op_keys(name, 12)
    assert gen.repeat_picks(name, 11) == gen.repeat_picks(name, 11)


@pytest.mark.parametrize("name", NAMES)
def test_every_cycle_has_the_same_design(name):
    def labels(seed, c):
        return sorted(op.label for op in gen.cycle(name, seed, c))

    assert labels(1, 0) == labels(2, 0) == labels(1, 7)


@pytest.mark.parametrize("name", NAMES)
def test_every_cli_op_parses(name):
    parser = cli.build_parser()
    for seed in (0, 1, 2):
        for op in [gen.WORKLOADS[name].warmup, *gen.cycle(name, seed, 0)]:
            if op.argv:
                parser.parse_args(list(op.argv))  # exits on a rejected argv
            else:  # the mode witness share and the quartic go through the library
                assert op.call in LIBRARY_CALLS


def test_wrong_answers_are_counted_as_failed(tmp_path):
    client = workload.Client(tmp_path)
    right = gen.Op("t/right", "summary", "NonzeroMonomial", ("certify", "--pair", "pauli:1,pauli:2"))
    wrong = dataclasses.replace(right, label="t/wrong", expect="IdenticallyZero")
    bad_input = gen.Op("t/exit", "classify", {}, ("classify", "--amps", "1,2"))
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    wrong_lib = gen.Op("t/lib", "witness-lib", True, (), "find_violation_witness", (A, A, "mode"), (("budget", 50),))
    for op in (right, wrong, bad_input, wrong_lib):
        client.timed(op)
    assert (client.attempted, client.failed) == (4, 3)
    assert client.failures == [
        "t/wrong: summary NonzeroMonomial, expected IdenticallyZero",
        "t/exit: exit 2",
        "t/lib: found=False, expected True",
    ]


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    before = (factorization.residual, cli.residual, reference.residual, separability.CLASSIFIERS["I"])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.residual is factorization.residual is reference.residual is not before[0]
        assert separability.CLASSIFIERS["I"] is separability.classify_sep_I is not before[3]
        op = gen.Op("t", "witness", True, ("witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--seed", "0"))
        client = workload.Client(tmp_path)
        client.timed(op, lambda fn, *a: tr.run_op(0, fn, *a))
    finally:
        tr.uninstall()
    assert (factorization.residual, cli.residual, reference.residual, separability.CLASSIFIERS["I"]) == before
    assert client.failed == 0 and (tr.searches, tr.found) == (1, 1)

    path = tmp_path / "spans.npz"
    tr.write(path)
    per_fn, root_self, root_dur = tracer.layer_metrics(path)
    assert set(per_fn) == set(tracer.FUNCTIONS)
    assert per_fn["cli.main"][0] == per_fn["factorization.find_violation_witness"][0] == 1
    assert per_fn["factorization.residual"][0] >= 2  # the search and the recheck
    # self times partition the op: with the root's own part they add up to its duration
    assert root_dur.tolist() == [tr.end[0] - tr.start[0]]
    covered_ns = sum(ms for _, ms in per_fn.values()) * 1e6
    assert covered_ns + root_self[0] == pytest.approx(root_dur[0], rel=1e-9)
    assert 0 <= root_self[0] < 0.5 * root_dur[0]
