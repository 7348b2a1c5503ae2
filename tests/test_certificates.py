"""Exact certificates against their numeric counterparts."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entloc import (
    GaussianRational,
    audit,
    certify_factorization_sep_I,
    certify_sector_coupling,
    construct_sep_I_preserver,
    expand_residual_sep_I,
    find_violation_witness,
    occupation_imbalance_pair,
)
from entloc.certificates import PAULI_EXACT, exact_matrix

RNG = np.random.default_rng(555)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def dagger(M):
    return tuple(tuple(M[j][i].conjugate() for j in range(2)) for i in range(2))


def rand_exact_2x2(rng=RNG, span=4):
    return exact_matrix(
        [
            [gr(int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1))) for _ in range(2)]
            for _ in range(2)
        ]
    )


def rand_hermitian_exact(rng=RNG, span=4):
    d0, d1 = (int(rng.integers(-span, span + 1)) for _ in range(2))
    re, im = (int(rng.integers(-span, span + 1)) for _ in range(2))
    return exact_matrix([[gr(d0), gr(re, -im)], [gr(re, im), gr(d1)]])


def to_complex(M):
    return np.array([[v.to_complex() for v in row] for row in M])


# --- expansion -----------------------------------------------------------------

def test_expansion_vanishes_for_identity_generator():
    for _ in range(10):
        Q = rand_exact_2x2()
        assert expand_residual_sep_I(PAULI_EXACT[0], Q).is_zero
        assert expand_residual_sep_I(Q, PAULI_EXACT[0]).is_zero
        two = exact_matrix([[gr(2), gr(0)], [gr(0), gr(2)]])
        assert expand_residual_sep_I(Q, two).is_zero


def test_expansion_reference_evaluations():
    point = {"c0": gr(1), "c0*": gr(1), "c1": gr(1), "c1*": gr(1)}
    p = expand_residual_sep_I(PAULI_EXACT[3], PAULI_EXACT[3])
    # raw identity value at c0=c1=1; normalizing by <1>^2 = 16 gives the
    # residual +1 of the balanced superposition
    assert p.evaluate(point) == gr(16)

    p = expand_residual_sep_I(PAULI_EXACT[1], PAULI_EXACT[2])
    point = {"c0": gr(1), "c0*": gr(1), "c1": gr(0), "c1*": gr(0)}
    assert p.evaluate(point) == gr(-1)


def test_expansion_degree_bound():
    for _ in range(10):
        p = expand_residual_sep_I(rand_exact_2x2(), rand_exact_2x2())
        assert p.total_degree() <= 8


def test_expansion_matches_raw_identity_numerically():
    rng = np.random.default_rng(7)
    for _ in range(25):
        O, Q = rand_exact_2x2(rng), rand_exact_2x2(rng)
        poly = expand_residual_sep_I(O, Q)
        On, Qn = to_complex(O), to_complex(Q)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        vals = {"c0": c[0], "c0*": c[0].conjugate(), "c1": c[1], "c1*": c[1].conjugate()}
        n = np.vdot(c, c)
        lhs = n**2 * np.vdot(c, On @ Qn @ c) ** 2
        rhs = np.vdot(c, On @ c) ** 2 * np.vdot(c, Qn @ c) ** 2
        scale = max(1.0, abs(lhs) + abs(rhs))
        assert abs(poly.evaluate_complex(vals) - (lhs - rhs)) < 1e-9 * scale


def test_conjugation_identity_general():
    rng = np.random.default_rng(11)
    for _ in range(100):
        O, Q = rand_exact_2x2(rng), rand_exact_2x2(rng)
        lhs = expand_residual_sep_I(O, Q).conjugate()
        rhs = expand_residual_sep_I(dagger(Q), dagger(O))
        assert (lhs - rhs).is_zero


def test_self_conjugate_for_commuting_hermitian_pairs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        # commuting squares from parallel Pauli vectors with integer entries
        k = int(rng.integers(1, 4))
        a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        O = tuple(
            tuple(gr(a) * PAULI_EXACT[k][i][j] for j in range(2)) for i in range(2)
        )
        Q = tuple(
            tuple(gr(b) * PAULI_EXACT[k][i][j] + (gr(2) if i == j else gr(0)) for j in range(2))
            for i in range(2)
        )
        p = expand_residual_sep_I(O, Q)
        assert (p.conjugate() - p).is_zero


# --- pair certificates ------------------------------------------------------------

def test_certify_identity_proportional_is_zero():
    lam = exact_matrix([[gr(3, 1), gr(0)], [gr(0), gr(3, 1)]])
    for Q in (PAULI_EXACT[1], rand_exact_2x2()):
        cert = certify_factorization_sep_I(lam, Q)
        assert cert.identically_zero
        assert cert.structural["both_bases"]


def test_certify_diagonal_but_not_scalar():
    O = exact_matrix([[gr(1), gr(0)], [gr(0), gr(2)]])
    Q = exact_matrix([[gr(1), gr(0)], [gr(0), gr(0)]])
    cert = certify_factorization_sep_I(O, Q)
    assert cert.verdict == "NonzeroMonomial"
    assert cert.structural["computational_basis"]
    assert not cert.structural["hadamard_basis"]


def test_certify_pauli_pair_reports_unbalanced_monomial():
    cert = certify_factorization_sep_I(PAULI_EXACT[1], PAULI_EXACT[2])
    assert cert.verdict == "NonzeroMonomial"
    e = dict(zip(cert.variables, cert.monomial))
    assert e["c0"] != e["c0*"] or e["c1"] != e["c1*"]
    assert not cert.coefficient.is_zero
    assert "verdict=NonzeroMonomial" in cert.canonical_text()


def test_structural_two_basis_test_detects_scalars():
    rng = np.random.default_rng(13)
    for _ in range(50):
        O = rand_exact_2x2(rng)
        cert = certify_factorization_sep_I(O, O)
        On = to_complex(O)
        is_scalar = np.allclose(On - np.trace(On) / 2 * np.eye(2), 0, atol=1e-14)
        assert cert.structural["identity_proportional"] == is_scalar
        assert cert.identically_zero == is_scalar


def test_structural_per_basis_flags_are_weaker_than_the_verdict():
    # pauli-3 is diagonal here, pauli-1 after the rotation: both per-basis
    # product tests pass, yet neither operator is scalar and the pair is
    # certified nonlocal
    cert = certify_factorization_sep_I(PAULI_EXACT[3], PAULI_EXACT[1])
    assert cert.structural["computational_basis"]
    assert cert.structural["hadamard_basis"]
    assert cert.structural["both_bases"]
    assert not cert.structural["identity_proportional"]
    assert cert.verdict == "NonzeroMonomial"


def test_certificate_verdict_always_matches_identity_flag():
    rng = np.random.default_rng(16)
    for _ in range(100):
        O, Q = rand_exact_2x2(rng), rand_exact_2x2(rng)
        cert = certify_factorization_sep_I(O, Q)
        assert cert.identically_zero == cert.structural["identity_proportional"]


def test_diagonal_in_two_bases_means_scalar():
    from entloc.certificates import _hadamard_conjugate, _is_diagonal

    rng = np.random.default_rng(17)
    for _ in range(200):
        O = rand_exact_2x2(rng)
        if _is_diagonal(O) and _is_diagonal(_hadamard_conjugate(O)):
            On = to_complex(O)
            assert np.max(np.abs(On - np.trace(On) / 2 * np.eye(2))) <= 1e-14
    # and constructively: every diagonal non-scalar matrix fails the rotated test
    one, zero, two = gr(1), gr(0), gr(2)
    assert not _is_diagonal(_hadamard_conjugate(((one, zero), (zero, two))))


def test_certificates_agree_with_numeric_search():
    rng = np.random.default_rng(14)
    checked_nonzero = 0
    while checked_nonzero < 8:
        O, Q = rand_hermitian_exact(rng), rand_hermitian_exact(rng)
        cert = certify_factorization_sep_I(O, Q)
        A = construct_sep_I_preserver(to_complex(O))
        B = construct_sep_I_preserver(to_complex(Q))
        if cert.identically_zero:
            rep = audit(A, B, "I", 2000, seed=1)
            assert rep.max_abs_residual <= 1e-10
        else:
            w = find_violation_witness(A, B, "I", budget=10_000, seed=2)
            assert w is not None
            checked_nonzero += 1


# --- sector certificates ------------------------------------------------------------

def pair_transfer():
    A = np.zeros((10, 10), dtype=int)
    A[1, 8] = A[8, 1] = 1  # LL pair <-> RR pair
    return A


def test_sector_zero_block_is_identically_zero():
    A = pair_transfer()
    B = np.eye(10, dtype=int)
    # A couples only (LL,RR); every other sector pair vanishes regardless of B
    cert = certify_sector_coupling(A, A, "LL", "LR")
    assert cert.identically_zero
    cert = certify_sector_coupling(np.eye(10, dtype=int), B, "LL", "RR")
    assert cert.identically_zero


def test_sector_transfer_pair_is_nonzero():
    A = pair_transfer()
    cert = certify_sector_coupling(A, A, "LL", "RR")
    assert cert.verdict == "NonzeroMonomial"
    assert not cert.coefficient.is_zero
    # the coupling polynomial evaluates consistently at the rational point
    assert not cert.check_value.is_zero


def test_sector_certificates_for_block_diagonal_pairs():
    A, B = occupation_imbalance_pair()
    Ai = np.rint(A.real).astype(int)
    Bi = np.rint(B.real).astype(int)
    for X, Y in (("LL", "LR"), ("LL", "RR"), ("LR", "RR"), ("RR", "LL")):
        assert certify_sector_coupling(Ai, Bi, X, Y).identically_zero


def test_sector_certificate_matches_numeric_coupling():
    rng = np.random.default_rng(15)
    for X, Y, rows, cols in (
        ("LL", "RR", (0, 1, 4), (7, 8, 9)),
        ("LL", "LR", (0, 1, 4), (2, 3, 5, 6)),
    ):
        A = np.zeros((10, 10), dtype=int)
        B = np.zeros((10, 10), dtype=int)
        A[rows[0], cols[1]] = int(rng.integers(1, 5))
        B[rows[-1], cols[0]] = int(rng.integers(1, 5))
        cert = certify_sector_coupling(A, B, X, Y)
        assert cert.verdict == "NonzeroMonomial"


def test_sector_certificate_rejects_bad_sectors():
    with pytest.raises(ValueError):
        certify_sector_coupling(np.eye(10, dtype=int), np.eye(10, dtype=int), "LL", "LL")


# --- golden certificates ------------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("golden_certificates.json")
GOLDEN_O = [[gr("1/2", 3), gr(-2, "1/3")], [gr(0, -1), gr("-3/4", 2)]]
GOLDEN_Q = [[gr(1), gr("2/5", -1)], [gr(-3, "1/2"), gr(0, 2)]]
# full integer and Gaussian-integer 10x10 matrices: every sector block couples
GOLDEN_A = [[(3 * i + 7 * j + i * j) % 5 - 2 for j in range(10)] for i in range(10)]
GOLDEN_B = [
    [complex((2 * i + 5 * j + i * i + 1) % 5 - 2, (i + 2 * j) % 3 - 1) for j in range(10)]
    for i in range(10)
]


def golden_certificates():
    yield "pair-pauli", certify_factorization_sep_I(PAULI_EXACT[1], PAULI_EXACT[2])
    yield "pair-generic", certify_factorization_sep_I(exact_matrix(GOLDEN_O), exact_matrix(GOLDEN_Q))
    for X, Y in (("LL", "LR"), ("LR", "LL"), ("LL", "RR"), ("RR", "LL"), ("LR", "RR"), ("RR", "LR")):
        yield f"sectors-{X}-{Y}", certify_sector_coupling(GOLDEN_A, GOLDEN_B, X, Y)


def test_golden_certificate_texts():
    """Certificate texts and term counts are pinned byte for byte.

    The texts in ``golden_certificates.json`` were computed with plain
    ``Fraction`` coefficients, so any change of the exact arithmetic or of
    its text form shows here.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    got = {
        name: {"n_terms": cert.n_terms, "canonical_text": cert.canonical_text()}
        for name, cert in golden_certificates()
    }
    assert got == golden
