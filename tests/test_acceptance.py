"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction

import numpy as np

from entloc import (
    PAULI,
    GaussianRational,
    certify_factorization_sep_I,
    classify_sep_I,
    classify_sep_II,
    classify_sep_III,
    construct_sep_I_preserver,
    embed_ll,
    expectations,
    find_violation_witness,
    fit_sep_I_preserver,
    is_block_scalar,
    occupation_imbalance_pair,
    partial_trace_second_particle,
    positive_control,
    project_symmetric,
    reference_suite,
    residual,
    sample_separable,
    sep_I_state,
    solve_preservation_quartic,
    SepClass,
)
from entloc.certificates import exact_matrix
from entloc.cli import main
from entloc.report import results_bytes

from density_matrix import purity


class Timer:
    def __init__(self, criterion, limit=None):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS criterion {self.criterion} ({dt:.2f}s)")
            if self.limit is not None:
                assert dt < self.limit, f"criterion {self.criterion} took {dt:.2f}s"
        else:
            print(f"FAIL criterion {self.criterion} ({dt:.2f}s)")
        return False


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_unitary(rng):
    z = rand_complex(rng, (2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def scalar_distance(O):
    O = O / np.linalg.norm(O)
    return float(np.linalg.norm(O - (np.trace(O) / 2) * np.eye(2)))


def unitary_defect(O):
    gram = O.conj().T @ O
    return float(
        np.linalg.norm(gram - np.trace(gram) / 2 * np.eye(2)) / np.linalg.norm(O) ** 2
    )


def test_criterion_1_reference_residuals(tmp_path, capsys):
    """Squared pauli pair on the squared family: -1 and -9/25 at 1e-12."""
    with Timer(1, limit=1.0):
        A = project_symmetric(np.kron(PAULI[1], PAULI[1]))
        B = project_symmetric(np.kron(PAULI[2], PAULI[2]))
        assert abs(residual(A, B, sep_I_state(1.0, 0.0)) - (-1.0)) <= 1e-12
        psi = sep_I_state(1 / np.sqrt(5.0), 2 / np.sqrt(5.0))
        assert abs(residual(A, B, psi) - (-9 / 25)) <= 1e-12
        lines, ok = reference_suite()
        assert ok and all(line["max_abs_error"] <= 1e-12 for line in lines)
        assert main(["reproduce-paper", "--out", str(tmp_path / "ref.json")]) == 0
        capsys.readouterr()


def three_sector_states(c):
    """``c_ll |L0,L0> + c_lr pair(L0,R1) + c_rr |R1,R1>`` per row of ``c``, in slots 0, 3, 9."""
    S = np.zeros((len(c), 10), dtype=complex)
    S[:, [0, 3, 9]] = c
    return S


def test_criterion_2_sector_expectation_triple():
    """Imbalance-pair triple from 10x10 matrices at 20 random draws, 1e-12."""
    with Timer(2, limit=1.0):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            c = rand_complex(rng, 3)
            c /= np.linalg.norm(c)
            (ab,), (a,), (b,) = expectations(*occupation_imbalance_pair(), three_sector_states([c]))
            want = (
                -abs(c[1]) ** 2,
                2 * abs(c[0]) ** 2 + abs(c[1]) ** 2,
                -2 * abs(c[2]) ** 2 - abs(c[1]) ** 2,
            )
            assert max(abs(np.array([ab, a, b]) - np.array(want))) <= 1e-12
        points = [[1 / np.sqrt(2.0), 0.0, 1 / np.sqrt(2.0)], [3 / 5, 4 / 5, 0.0]]
        ab, a, b = expectations(*occupation_imbalance_pair(), three_sector_states(points))
        assert abs(ab[0]) <= 1e-12 and abs(a[0] * b[0] - (-1.0)) <= 1e-12
        assert abs(a[1] * b[1] / ab[1] - (1 + 9 / 25)) <= 1e-12


def test_criterion_3_preserver_round_trip():
    """1000 random generators: fit defect <= 1e-10 and compression match <= 1e-12."""
    with Timer(3, limit=5.0):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            O = rand_complex(rng, (2, 2))
            A = construct_sep_I_preserver(O)
            mismatch = np.max(np.abs(project_symmetric(np.kron(O, O)) - A))
            assert mismatch <= 1e-12 * max(1.0, np.linalg.norm(O) ** 2)
            fit = fit_sep_I_preserver(A)
            assert fit.fits and fit.defect <= 1e-10


def test_criterion_4_exact_certificates():
    """Exact verdicts for 100 scalar and 100 non-scalar pairs, zero numeric disagreements."""
    with Timer(4, limit=30.0):
        rng = np.random.default_rng(4)

        def rand_exact():
            return exact_matrix(
                [
                    [
                        GaussianRational(
                            Fraction(int(rng.integers(-4, 5))),
                            Fraction(int(rng.integers(-4, 5))),
                        )
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
            )

        def to_complex(M):
            return np.array([[v.to_complex() for v in row] for row in M])

        for k in range(100):
            lam = GaussianRational(
                Fraction(int(rng.integers(1, 5))), Fraction(int(rng.integers(-4, 5)))
            )
            zero = GaussianRational.coerce(0)
            O = ((lam, zero), (zero, lam))
            Q = rand_exact()
            cert = certify_factorization_sep_I(O, Q)
            assert cert.identically_zero
            A = construct_sep_I_preserver(to_complex(O))
            B = construct_sep_I_preserver(to_complex(Q))
            assert find_violation_witness(A, B, "I", budget=500, seed=k) is None

        for k in range(100):
            while True:
                O, Q = rand_exact(), rand_exact()
                if (
                    scalar_distance(to_complex(O)) >= 0.1
                    and scalar_distance(to_complex(Q)) >= 0.1
                ):
                    break
            cert = certify_factorization_sep_I(O, Q)
            assert cert.verdict == "NonzeroMonomial"
            A = construct_sep_I_preserver(to_complex(O))
            B = construct_sep_I_preserver(to_complex(Q))
            w = find_violation_witness(A, B, "I", budget=10_000, seed=k)
            assert w is not None and abs(w.residual) > 1e-6


def test_criterion_5_witness_search_all_three_families():
    """Witness found within budget 1e4 for 100 nontrivial pairs per family."""
    with Timer(5, limit=60.0):
        rng = np.random.default_rng(5)
        for k in range(100):  # squared generators on family I
            while True:
                O, Q = rand_complex(rng, (2, 2)), rand_complex(rng, (2, 2))
                if scalar_distance(O) > 0.1 and scalar_distance(Q) > 0.1:
                    break
            w = find_violation_witness(
                construct_sep_I_preserver(O),
                construct_sep_I_preserver(Q),
                "I",
                budget=10_000,
                seed=k,
            )
            assert w is not None and abs(w.residual) > 1e-6 and w.verdict.separable

        for k in range(100):  # unitary-proportional generators on family II
            while True:
                O = (0.5 + rng.random()) * haar_unitary(rng)
                Q = (0.5 + rng.random()) * haar_unitary(rng)
                if scalar_distance(O) > 0.1 and scalar_distance(Q) > 0.1:
                    break
            w = find_violation_witness(
                construct_sep_I_preserver(O),
                construct_sep_I_preserver(Q),
                "II",
                budget=10_000,
                seed=k,
            )
            assert w is not None and abs(w.residual) > 1e-6 and w.verdict.separable

        for k in range(100):  # dense Hermitian pairs on family III
            A = rand_complex(rng, (10, 10))
            A = (A + A.conj().T) / 2
            B = rand_complex(rng, (10, 10))
            B = (B + B.conj().T) / 2
            assert not is_block_scalar(A).block_scalar
            assert not is_block_scalar(B).block_scalar
            w = find_violation_witness(A, B, "III", budget=10_000, seed=k)
            assert w is not None and abs(w.residual) > 1e-6 and w.verdict.separable

        # converse: multiples of the identity never correlate
        for _ in range(10):
            alpha = complex(rng.normal(), rng.normal())
            B = rand_complex(rng, (10, 10))
            psi = sample_separable("III", rng)
            assert abs(residual(alpha * np.eye(10), B, psi)) <= 1e-10 * (
                1 + abs(alpha) * np.linalg.norm(B)
            )


def test_criterion_6_family_II_invariance_dichotomy():
    """Unitary generators keep both purity bands; non-unitary ones escape."""
    with Timer(6):
        rng = np.random.default_rng(6)
        for _ in range(200):
            O = (0.5 + rng.random()) * haar_unitary(rng)
            A = construct_sep_I_preserver(O)
            for _ in range(100):
                image = A @ sample_separable("II", rng)
                p = purity(partial_trace_second_particle(image))
                assert min(abs(p - 1.0), abs(p - 0.5)) <= 1e-9
        for _ in range(200):
            while True:
                O = rand_complex(rng, (2, 2))
                if unitary_defect(O) >= 0.1:
                    break
            A = construct_sep_I_preserver(O)
            escaped = False
            for _ in range(100):
                image = A @ sample_separable("II", rng)
                if np.vdot(image, image).real < 1e-12:
                    continue
                p = purity(partial_trace_second_particle(image))
                if min(abs(p - 1.0), abs(p - 0.5)) > 1e-4:
                    escaped = True
                    break
            assert escaped


def test_criterion_7_positive_controls():
    """Mode- and sector-local random pairs factorize to 1e-10."""
    with Timer(7):
        rep = positive_control("mode", n_pairs=100, n_states=100, seed=7)
        assert rep.max_abs_residual <= 1e-10
        assert rep.verdict == "FactorizesOnSamples"
        rep = positive_control("ssr", n_pairs=100, n_states=100, seed=7)
        assert rep.max_abs_residual <= 1e-10
        assert rep.verdict == "FactorizesOnSamples"


def test_criterion_8_classifier_cross_validation():
    """Discriminant and purity routes agree on 1e4 states; embedding maps verdicts."""
    with Timer(8):
        rng = np.random.default_rng(8)
        tol = 1e-9
        for k in range(10_000):
            if k % 2 == 0:
                psi = rand_complex(rng, 3)
                psi /= np.linalg.norm(psi)
            else:
                psi = sample_separable("I", rng)
            disc_member = classify_sep_I(psi).set is SepClass.SEP_I
            p = purity(partial_trace_second_particle(psi))
            purity_member = abs(p - 1.0) <= tol
            assert disc_member == purity_member
            v = classify_sep_II(psi)
            assert (v.set is SepClass.SEP_I) == disc_member
        for k in range(10_000):
            if k % 2 == 0:
                psi = rand_complex(rng, 3)
                psi /= np.linalg.norm(psi)
            else:
                psi = sample_separable("I", rng)
            member = classify_sep_I(psi).set is SepClass.SEP_I
            got = classify_sep_III(embed_ll(psi)).set
            assert got is (SepClass.SEP_III if member else SepClass.ENTANGLED_III)


def test_criterion_9_quartic_span_property():
    """100 non-tautological quartics: residuals <= 1e-10, solution span rank 3."""
    with Timer(9):
        rng = np.random.default_rng(9)
        for _ in range(100):
            A = rand_complex(rng, (3, 3))
            states = []
            for c0 in (1.0, 2.0, 3.0):
                out = solve_preservation_quartic(A, c0)
                assert not out.tautology
                assert out.roots.size and out.residuals.max() <= 1e-10
                states.extend(sep_I_state(c0, c1) for c1 in out.roots)
            s = np.linalg.svd(np.array(states), compute_uv=False)
            assert s.size >= 3 and s[2] / s[0] > 1e-6


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    """Fixed seed gives byte-identical results sections."""
    with Timer(10):
        import json

        def results_of(argv):
            out = tmp_path / f"r{len(list(tmp_path.iterdir()))}.json"
            code = main(argv + ["--out", str(out)])
            assert code == 0
            return results_bytes(json.loads(out.read_text()))

        audit_args = ["audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "300", "--seed", "5"]
        first = results_of(audit_args)
        assert first == results_of(audit_args)

        for argv in (
            ["witness", "--set", "III", "--A", "number:L0-number:L1", "--B", "number:R0-number:R1", "--seed", "3"],
            ["sample", "--set", "ssr", "--n", "10", "--seed", "3"],
            ["certify", "--pair", "pauli:1,pauli:2"],
            ["classify", "--amps", "0,0,1"],
        ):
            assert results_of(argv) == results_of(argv)
        capsys.readouterr()
