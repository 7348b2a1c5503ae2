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
    residual,
    sep_I_state,
)
from entloc.certificates import (
    PAULI_EXACT,
    _amplitudes,
    _forms,
    exact_matrix,
)
from entloc.cli import parse_operator
from entloc.exact import RootTwoRational, conjugate_name
from entloc.hilbert import SECTOR_SLOTS, SECTORS
from entloc.separability import FAMILIES
from exact_reference import evaluate_complex

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
        assert max(map(sum, p.terms), default=0) <= 8


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
        assert abs(evaluate_complex(poly, vals) - (lhs - rhs)) < 1e-9 * scale


def test_expansion_is_norm4_times_the_numeric_residual():
    rng = np.random.default_rng(18)

    def rand_rational_2x2():
        def q():
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))

        return exact_matrix([[gr(q(), q()) for _ in range(2)] for _ in range(2)])

    for _ in range(40):
        O, Q = rand_rational_2x2(), rand_rational_2x2()
        A, B = construct_sep_I_preserver(to_complex(O)), construct_sep_I_preserver(to_complex(Q))
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        vals = {"c0": c[0], "c0*": c[0].conjugate(), "c1": c[1], "c1*": c[1].conjugate()}
        norm4 = np.vdot(c, c).real ** 4  # ||psi||^2 = ||c||^4
        want = norm4 * residual(A, B, sep_I_state(c[0], c[1]))
        scale = norm4 * np.linalg.norm(A, 2) * np.linalg.norm(B, 2)
        assert abs(evaluate_complex(expand_residual_sep_I(O, Q), vals) - want) <= 1e-12 * scale


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
        assert cert.verdict == "IdenticallyZero"
        assert cert.structural["both_bases"]
        # a zero certificate prints its check value in the ring of its point
        assert type(cert.check_value) is GaussianRational
        assert cert.to_dict()["check_value"] == "(0)+(0)i"


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
        assert (cert.verdict == "IdenticallyZero") == is_scalar


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
        assert (cert.verdict == "IdenticallyZero") == cert.structural["identity_proportional"]


def hadamard_conjugate(M):
    # H M H with H = (1/sqrt2)[[1,1],[1,-1]]: rational because the two
    # 1/sqrt2 factors combine to 1/2
    H = np.array(((gr(1), gr(1)), (gr(1), gr(-1))), dtype=object)
    return H @ np.array(M, dtype=object) @ H * gr(Fraction(1, 2))


def test_diagonal_in_two_bases_means_scalar():
    from entloc.certificates import _is_diagonal, _is_hadamard_diagonal

    rng = np.random.default_rng(17)
    for _ in range(200):
        O = rand_exact_2x2(rng)
        # the closed-form test reads the rotated matrix's off-diagonal entries
        assert _is_hadamard_diagonal(O) == _is_diagonal(hadamard_conjugate(O))
        if _is_diagonal(O) and _is_hadamard_diagonal(O):
            On = to_complex(O)
            assert np.max(np.abs(On - np.trace(On) / 2 * np.eye(2))) <= 1e-14
    # and constructively: every diagonal non-scalar matrix fails the rotated test
    one, zero, two = gr(1), gr(0), gr(2)
    assert not _is_hadamard_diagonal(((one, zero), (zero, two)))
    assert not _is_diagonal(hadamard_conjugate(((one, zero), (zero, two))))
    # and one that is diagonal only after the rotation passes it
    assert _is_hadamard_diagonal(((two, one), (one, two)))
    assert _is_diagonal(hadamard_conjugate(((two, one), (one, two))))


def test_certificates_agree_with_numeric_search():
    rng = np.random.default_rng(14)
    checked_nonzero = 0
    while checked_nonzero < 8:
        O, Q = rand_hermitian_exact(rng), rand_hermitian_exact(rng)
        cert = certify_factorization_sep_I(O, Q)
        A = construct_sep_I_preserver(to_complex(O))
        B = construct_sep_I_preserver(to_complex(Q))
        if cert.verdict == "IdenticallyZero":
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
    assert cert.verdict == "IdenticallyZero"
    cert = certify_sector_coupling(np.eye(10, dtype=int), B, "LL", "RR")
    assert cert.verdict == "IdenticallyZero"
    assert type(cert.check_value) is RootTwoRational
    assert cert.to_dict()["check_value"] == "(0)+(0)i+[(0)+(0)i]sqrt2"


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
        assert certify_sector_coupling(Ai, Bi, X, Y).verdict == "IdenticallyZero"


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


def sector_point(names, c):
    """Values of ``names`` and their partners at ``c``: each starred name gets the conjugate."""
    values = {}
    for k, name in enumerate(names):
        base = name.rstrip("*")
        values[base], values[base + "*"] = c[k], np.conj(c[k])
    return values


def test_exact_amplitudes_equal_the_ssr_family_build():
    rng = np.random.default_rng(19)
    ssr = FAMILIES["ssr"]
    for b, sector in enumerate(SECTORS):
        rows = ssr.draw(rng, 50)
        rows[:, 0] = b
        slots = list(SECTOR_SLOTS[sector])
        n = len(slots)
        for ket_names in (tuple(f"d{k}" for k in range(n)), tuple(f"d{k}*" for k in range(n))):
            variables = tuple(
                sorted({v for name in ket_names for v in (name, conjugate_name(name))})
            )
            amps = _amplitudes(sector, ket_names, variables, RootTwoRational)
            for row in rows:
                c = row[1::2] + 1j * row[2::2]
                want = ssr.build(row)[slots]
                if ket_names[0].endswith("*"):
                    want = want.conj()
                got = np.array([evaluate_complex(a, sector_point(ket_names, c)) for a in amps])
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_sector_forms_equal_the_numeric_coupling():
    rng = np.random.default_rng(20)
    ssr = FAMILIES["ssr"]
    for X in SECTORS:
        for Y in SECTORS:
            if X == Y:
                continue
            A, B = (rng.integers(-3, 4, size=(10, 10)) for _ in range(2))
            bra_names = tuple(f"c{k}*" for k in range(len(SECTOR_SLOTS[X])))
            ket_names = tuple(f"d{k}" for k in range(len(SECTOR_SLOTS[Y])))
            variables = tuple(
                sorted({v for name in bra_names + ket_names for v in (name, conjugate_name(name))})
            )
            f, g = _forms(
                [[list(map(RootTwoRational.coerce, row)) for row in M] for M in (A, B)],
                _amplitudes(X, bra_names, variables, RootTwoRational),
                _amplitudes(Y, ket_names, variables, RootTwoRational),
                SECTOR_SLOTS[X],
                SECTOR_SLOTS[Y],
            )
            # these are the certificate's factors
            cert = certify_sector_coupling(A, B, X, Y)
            assert cert.variables == variables and cert.n_terms == len((f * g).terms)
            assert (f * g).terms[cert.monomial] == cert.coefficient
            for _ in range(10):
                rows = ssr.draw(rng, 2)
                rows[:, 0] = SECTORS.index(X), SECTORS.index(Y)
                psi_x, psi_y = ssr.build(rows)
                values = {
                    **sector_point(bra_names, rows[0, 1::2] + 1j * rows[0, 2::2]),
                    **sector_point(ket_names, rows[1, 1::2] + 1j * rows[1, 2::2]),
                }
                for form, M in ((f, A), (g, B)):
                    want = np.vdot(psi_x, M @ psi_y)
                    scale = np.linalg.norm(psi_x) * np.linalg.norm(M, 2) * np.linalg.norm(psi_y)
                    assert abs(evaluate_complex(form, values) - want) <= 1e-12 * scale


def test_sector_certificate_rejects_bad_sectors():
    with pytest.raises(ValueError):
        certify_sector_coupling(np.eye(10, dtype=int), np.eye(10, dtype=int), "LL", "LL")


def test_sector_certificate_refuses_inexact_entries_outside_the_block():
    # only the (LR, RR) block is read; an entry elsewhere must still be exact
    A = np.eye(10, dtype=int).astype(object)
    B = np.ones((10, 10), dtype=int).astype(object)
    want = certify_sector_coupling(A, B, "LR", "RR")
    assert want.verdict == "IdenticallyZero"
    for bad in (0.5, float("inf"), "1"):
        A[0, 0] = bad
        with pytest.raises(TypeError, match="cannot coerce"):
            certify_sector_coupling(A, B, "LR", "RR")
    # an entry the ring takes exactly changes nothing outside the block
    for exact in (2.0, 3 + 0j, Fraction(1, 3), gr(1, -2), RootTwoRational.coerce(5)):
        A[0, 0] = exact
        assert certify_sector_coupling(A, B, "LR", "RR") == want


@pytest.mark.parametrize("shape", [(10, 9), (9, 10), (2, 2)])
def test_sector_certificate_needs_10x10_operators(shape):
    with pytest.raises(ValueError, match="sector certificates need 10x10 operators"):
        certify_sector_coupling(np.ones(shape, dtype=int), np.eye(10, dtype=int), "LL", "RR")


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


def entries_spec(M) -> str:
    return "entries:" + json.dumps(M, separators=(",", ":"))


def seeded_entry(rng, kind: str):
    """One nonzero ``entries:`` value of ``kind``: a JSON integer, a Gaussian-rational string
    or an ``[re, im]`` pair of a fraction string and an integer."""
    re, im = (int(v) for v in rng.choice([-3, -2, -1, 1, 2, 3], size=2))
    den = int(rng.integers(2, 6))
    if kind == "int":
        return re
    if kind == "gauss":
        return f"{re}/{den}{im:+d}/{den + 1}j"
    return [f"{re}/{den}", im]


def seeded_sector_operator(rng, kind: str) -> str:
    # every entry nonzero, so every sector block of the pair couples
    return entries_spec([[seeded_entry(rng, kind) for _ in range(10)] for _ in range(10)])


def seeded_operator_2x2(rng) -> str:
    return entries_spec([[seeded_entry(rng, kind) for kind in ("gauss", "pair")] for _ in range(2)])


def seeded_pair_operators(rng):
    """Seeded 2x2 ``entries:`` pairs: generic, one side identity-proportional, and Paulis."""
    for k in range(3):
        yield f"generic-{k}", seeded_operator_2x2(rng), seeded_operator_2x2(rng)
    scale = seeded_entry(rng, "gauss")
    yield "identity-left", f"diag:{scale},{scale}", seeded_operator_2x2(rng)
    yield "identity-right", seeded_operator_2x2(rng), f"diag:{scale},{scale}"
    for i in range(4):
        for j in range(4):
            yield f"pauli-{i}-{j}", f"pauli:{i}", f"pauli:{j}"


def golden_certificates():
    yield "pair-pauli", certify_factorization_sep_I(PAULI_EXACT[1], PAULI_EXACT[2])
    yield "pair-generic", certify_factorization_sep_I(exact_matrix(GOLDEN_O), exact_matrix(GOLDEN_Q))
    for X, Y in (("LL", "LR"), ("LR", "LL"), ("LL", "RR"), ("RR", "LL"), ("LR", "RR"), ("RR", "LR")):
        yield f"sectors-{X}-{Y}", certify_sector_coupling(GOLDEN_A, GOLDEN_B, X, Y)
    # seeded operators read as the CLI reads them, so the exact parse is pinned with the expansion
    rng = np.random.default_rng(2033)
    for X, Y in ((X, Y) for X in SECTORS for Y in SECTORS if X != Y):
        for kind in ("int", "gauss", "pair"):
            A, B = (parse_operator(seeded_sector_operator(rng, kind), exact=True) for _ in range(2))
            yield f"seeded-sectors-{X}-{Y}-{kind}", certify_sector_coupling(A, B, X, Y)
    for name, O, Q in seeded_pair_operators(rng):
        yield f"seeded-pair-{name}", certify_factorization_sep_I(
            parse_operator(O, exact=True), parse_operator(Q, exact=True)
        )


def golden_entries() -> dict:
    return {
        name: {"n_terms": cert.n_terms, "canonical_text": cert.canonical_text(), "to_dict": cert.to_dict()}
        for name, cert in golden_certificates()
    }


def test_golden_certificate_texts():
    """Certificate texts, dicts and term counts are pinned byte for byte.

    The texts in ``golden_certificates.json`` were computed with plain
    ``Fraction`` coefficients, so any change of the exact arithmetic or of
    its text form shows here.  The four entries with an LL sector were
    regenerated once, when the sector certificates took the ssr family's
    three free LL amplitudes in place of family I's square.  The ``seeded-``
    entries and every ``to_dict`` were generated before the polynomial store
    packed its monomials, and pin that it moved no byte.  Regenerate with
    ``PYTHONPATH=src python tests/test_certificates.py``.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden_entries() == golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_entries(), indent=1) + "\n")
