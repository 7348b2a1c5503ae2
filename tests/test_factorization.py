"""Residuals, audits, witness search, sector expectations and controls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entloc import (
    PAULI,
    FockSpace,
    SepClass,
    ZeroNormError,
    audit,
    construct_sep_I_preserver,
    embed_tensor_square,
    find_violation_witness,
    number_level_operator,
    occupation_imbalance_expectations,
    occupation_imbalance_pair,
    positive_control,
    project_symmetric,
    residual,
    residuals,
    sep_I_state,
    sep_II_orthogonal_state,
    ssr_constrain,
)
from entloc import factorization
from entloc.factorization import AUDIT_BLOCK, Witness
from entloc.hilbert import EPS_STATE
from entloc.separability import canonical_set_name, classify, family

RNG = np.random.default_rng(777)

A_PAIR = project_symmetric(embed_tensor_square(PAULI[1]))
B_PAIR = project_symmetric(embed_tensor_square(PAULI[2]))


def rand_vec(n, rng=RNG):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# --- residual -------------------------------------------------------------------

def test_residual_reference_values():
    assert abs(residual(A_PAIR, B_PAIR, sep_I_state(1.0, 0.0)) - (-1.0)) < 1e-12
    psi = sep_I_state(1 / np.sqrt(5), 2 / np.sqrt(5))
    assert abs(residual(A_PAIR, B_PAIR, psi) - (-9 / 25)) < 1e-12


def test_residual_identity_factor():
    for _ in range(20):
        psi = rand_vec(3)
        A = rand_vec(9).reshape(3, 3)
        assert abs(residual(A, np.eye(3), psi)) < 1e-12 * (1 + np.linalg.norm(A))
        assert abs(residual(np.eye(3), A, psi)) < 1e-12 * (1 + np.linalg.norm(A))


def test_residual_closed_form_on_family_I():
    # <AB> = -(|c0|^2-|c1|^2)^2 and <A><B> = 16 Re(c0* c1)^2 Im(c0* c1)^2
    rng = np.random.default_rng(3)
    for _ in range(40):
        c0, c1 = rand_vec(2, rng)
        scale = abs(c0) ** 2 + abs(c1) ** 2
        c0, c1 = c0 / np.sqrt(scale), c1 / np.sqrt(scale)
        cross = np.conj(c0) * c1
        want = -((abs(c0) ** 2 - abs(c1) ** 2) ** 2) - 16 * cross.real**2 * cross.imag**2
        got = residual(A_PAIR, B_PAIR, sep_I_state(c0, c1))
        assert abs(got - want) < 1e-12


def test_residual_scale_invariance():
    psi = rand_vec(3)
    A = rand_vec(9).reshape(3, 3)
    B = rand_vec(9).reshape(3, 3)
    base = residual(A, B, psi)
    for lam in (1e-3, 3.7, 1e3 * np.exp(0.4j)):
        assert abs(residual(A, B, lam * psi) - base) < 1e-12 * max(1.0, abs(base))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16))
def test_residual_real_for_commuting_hermitian_pairs(seed):
    rng = np.random.default_rng(seed)
    # commuting Hermitian pair: polynomials in one random Hermitian matrix
    H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = (H + H.conj().T) / 2
    A = H @ H + 2.0 * H
    B = 3.0 * H - H @ H @ H
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    r = residual(A, B, psi)
    assert abs(r.imag) < 1e-12 * max(1.0, abs(r))


def test_residual_zero_norm():
    with pytest.raises(ZeroNormError):
        residual(np.eye(3), np.eye(3), np.zeros(3, dtype=complex))


@pytest.mark.parametrize("kind", ["I", "II", "III", "mode", "ssr"])
def test_residuals_match_per_state_residual(kind):
    rng = np.random.default_rng(21)
    fam = family(kind)
    S = fam.build(fam.draw(rng, 64))
    d = S.shape[1]
    A = rand_vec(d * d, rng).reshape(d, d)
    B = rand_vec(d * d, rng).reshape(d, d)
    scalar = np.array([residual(A, B, psi) for psi in S])
    assert np.max(np.abs(residuals(A, B, S) - scalar)) <= 1e-12


@pytest.mark.parametrize("d", [3, 10])
def test_stacked_residuals_round_as_one_row_calls(d):
    # the witness search evaluates its start states as one (n, 1, d) stack
    rng = np.random.default_rng(30 + d)
    A, B = (rand_vec(d * d, rng).reshape(d, d) for _ in range(2))
    S = rand_vec(40 * d, rng).reshape(40, d)
    stacked = residuals(A, B, S[:, None, :])[:, 0]
    for j in range(len(S)):
        assert stacked[j].tobytes() == residuals(A, B, S[j : j + 1])[0].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_residuals_reject_non_finite_input():
    S = np.eye(3, dtype=complex)
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = np.nan
    for A, B in ((bad, np.eye(3)), (np.eye(3), bad)):
        with pytest.raises(ValueError, match="non-finite"):
            residuals(A, B, S)
    with pytest.raises(ValueError, match="overflowed"):
        residuals(1e200 * np.eye(3), 1e200 * np.eye(3), S)


# --- audits ----------------------------------------------------------------------

def test_audit_identity_pair_factorizes():
    rep = audit(np.eye(3), np.eye(3), "I", 100, seed=1)
    assert rep.verdict == "FactorizesOnSamples"
    assert rep.max_abs_residual < 1e-14


def test_audit_finds_reference_violation():
    rep = audit(A_PAIR, B_PAIR, "I", 1000, seed=2)
    assert rep.verdict == "ViolationFound"
    assert rep.recheck(A_PAIR, B_PAIR) < 1e-12


def test_audit_deterministic_and_order_independent():
    rep1 = audit(A_PAIR, B_PAIR, "II", 200, seed=9)
    rep2 = audit(A_PAIR, B_PAIR, "II", 200, seed=9)
    assert rep1.max_abs_residual == rep2.max_abs_residual
    assert rep1.mean_abs_residual == rep2.mean_abs_residual
    assert np.array_equal(rep1.argmax_state, rep2.argmax_state)
    assert audit(A_PAIR, B_PAIR, "II", 200, seed=10).max_abs_residual != rep1.max_abs_residual


def test_audit_number_polynomials_factorize_on_mode_states():
    space = FockSpace(("0", "1"), 4)
    n0, n1 = space.number("0"), space.number("1")
    A = n0 @ n0 + 0.5 * n0
    B = 2.0 * n1 - n1 @ n1
    rep = audit(A, B, "mode", 200, seed=3, fock=space)
    assert rep.max_abs_residual <= 1e-12


# --- witness search ---------------------------------------------------------------

def test_witness_diagonal_pair_on_family_I():
    A = construct_sep_I_preserver(PAULI[3])
    w = find_violation_witness(A, A, "I", budget=10_000, seed=5)
    assert w is not None
    assert abs(w.residual) > 1e-6
    assert w.verdict.set is SepClass.SEP_I
    # the balanced superposition realizes the extremal residual 1
    assert abs(residual(A, A, sep_I_state(1 / np.sqrt(2), 1 / np.sqrt(2))) - 1.0) < 1e-12


def test_witness_orthogonal_branch_point_value():
    psi = sep_II_orthogonal_state(1 / np.sqrt(2), np.exp(1j * np.pi / 4) / np.sqrt(2))
    assert abs(residual(A_PAIR, B_PAIR, psi) - (-1.0)) < 1e-12
    w = find_violation_witness(A_PAIR, B_PAIR, "II", budget=10_000, seed=6)
    assert w is not None and abs(w.residual) > 1e-6
    assert w.verdict.separable


def test_witness_imbalance_pair_on_family_III():
    A, B = occupation_imbalance_pair()
    w = find_violation_witness(A, B, "III", budget=10_000, seed=7)
    assert w is not None and abs(w.residual) > 1e-6
    assert w.verdict.set is SepClass.SEP_III
    # the two-sector reference point: <AB> - <A><B> = 0 - (1)(-1) = +1
    psi = np.zeros(10, dtype=complex)
    psi[0] = psi[9] = 1 / np.sqrt(2)
    assert abs(residual(A, B, psi) - 1.0) < 1e-12


def test_witness_not_found_for_trivial_pair():
    out = find_violation_witness(np.eye(3), np.eye(3), "I", budget=300, seed=8)
    assert out is None


def sequential_witness(A, B, set_name, budget, seed, threshold):
    """Reference search: the restarts run one after another, one sweep per batch."""
    set_name = canonical_set_name(set_name)
    fam = family(set_name)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def evaluate(P):
        S = fam.build(P)
        ok = np.linalg.norm(S, axis=1) > EPS_STATE
        r = np.zeros(len(P))
        r[ok] = np.abs(residuals(A, B, S[ok]))
        return S, r

    def first_hit(S, r):
        hits = np.flatnonzero(r > threshold)
        if not hits.size:
            return None
        psi = S[hits[0]] / np.linalg.norm(S[hits[0]])
        return Witness(psi, residual(A, B, psi), set_name, classify(set_name, psi))

    if fam.n_real == 0:
        return first_hit(*evaluate(np.arange(min(fam.branches, budget), dtype=float)[:, None]))
    coords = np.arange(1, fam.n_real + 1)
    rows = 2 * np.arange(fam.n_real)
    evals = 0
    while evals < budget:
        p = fam.draw(rng, 1)
        S, r = evaluate(p)
        evals += 1
        found = first_hit(S, r)
        if found is not None:
            return found
        step = 0.5
        while evals < budget and step > 1e-3:
            Q = np.repeat(p, 2 * fam.n_real, axis=0)
            Q[rows, coords] += step
            Q[rows + 1, coords] -= step
            Q = Q[: budget - evals]
            S, rq = evaluate(Q)
            evals += len(Q)
            found = first_hit(S, rq)
            if found is not None:
                return found
            best = int(np.argmax(rq))
            if rq[best] > r[0]:
                p, r = Q[best : best + 1], rq[best : best + 1]
            else:
                step /= 2.0
    return None


def witness_bytes(w):
    if w is None:
        return None
    return w.state.tobytes(), np.complex128(w.residual).tobytes(), w.set_name, repr(w.verdict)


def differential_pairs(kind, rng):
    """A generic pair, the same pair scaled to spectral norm ~1, and a pair that factorizes.

    The scaled pair reaches |residual| 0.3 on some states only, so the search
    has to climb; it never reaches 2.
    """
    d = family(kind).build(family(kind).draw(rng, 1)).shape[1]
    A, B = (rand_vec(d * d, rng).reshape(d, d) for _ in range(2))
    scale = 1.5 if kind == "ssr" else 1.0
    scaled = tuple(scale * X / np.linalg.norm(X, 2) for X in (A, B))
    if kind == "ssr":
        local = (number_level_operator(0), number_level_operator(2))
    else:
        local = (np.eye(d), B)
    return [(A, B), scaled, local]


@pytest.mark.parametrize("kind", ["I", "II", "III", "ssr", "mode"])
def test_witness_matches_sequential_search(kind):
    rng = np.random.default_rng(["I", "II", "III", "ssr", "mode"].index(kind) + 40)
    width = 2 * family(kind).n_real
    budgets = sorted({1, max(width, 2), max(width, 2) + 1, 150, 10_000})
    seen = set()
    for (A, B), threshold, seed in (
        (pair, t, s)
        for pair in differential_pairs(kind, rng)
        for t in (1e-6, 0.3, 2.0)
        for s in (3, 4)
    ):
        found = []
        for budget in budgets:
            want = sequential_witness(A, B, kind, budget, seed, threshold)
            got = find_violation_witness(A, B, kind, budget=budget, seed=seed, threshold=threshold)
            assert witness_bytes(got) == witness_bytes(want), (threshold, seed, budget)
            found.append(want is not None)
        seen.add("NotFound" if not found[-1] else "at start" if found[0] else "in a sweep")
        if found[-1] and not all(found):
            seen.add("cut by budget")
    want_seen = {"NotFound", "at start"} if width == 0 else {
        "NotFound", "at start", "in a sweep", "cut by budget"
    }
    assert seen == want_seen


def test_witness_batches_stay_within_the_block(monkeypatch):
    sizes = []

    def counting(A, B, S):
        sizes.append(S.size // S.shape[-1])
        return residuals(A, B, S)

    monkeypatch.setattr(factorization, "residuals", counting)
    A = project_symmetric(embed_tensor_square(PAULI[0]))
    assert find_violation_witness(A, B_PAIR, "I", budget=100_000, seed=12) is None
    assert max(sizes) == AUDIT_BLOCK
    # start states are batched per round: only the first round's lone start is one state
    assert sizes.count(1) == 1


# --- sector expectation triple ------------------------------------------------------

def test_imbalance_triple_reference_points():
    ab, a, b = occupation_imbalance_expectations(1 / np.sqrt(2), 0.0, 1 / np.sqrt(2))
    assert np.allclose([ab, a, b], [0.0, 1.0, -1.0], atol=1e-12)
    ab, a, b = occupation_imbalance_expectations(0.0, 1.0, 0.0)
    assert np.allclose([ab, a, b], [-1.0, 1.0, -1.0], atol=1e-12)
    assert abs((ab - a * b)) < 1e-12
    ab, a, b = occupation_imbalance_expectations(3 / 5, 4 / 5, 0.0)
    assert abs(a * b / ab - (1 + (3 / 5) ** 2)) < 1e-12


def test_imbalance_triple_closed_form_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rand_vec(3, rng)
        c /= np.linalg.norm(c)
        ab, a, b = occupation_imbalance_expectations(*c)
        want = (
            -abs(c[1]) ** 2,
            2 * abs(c[0]) ** 2 + abs(c[1]) ** 2,
            -2 * abs(c[2]) ** 2 - abs(c[1]) ** 2,
        )
        assert np.allclose([ab, a, b], want, atol=1e-12)


# --- sector constraint ----------------------------------------------------------------

def test_ssr_constrain():
    assert np.allclose(ssr_constrain(np.eye(10, dtype=complex)), np.eye(10))
    coherence = np.zeros((10, 10), dtype=complex)
    coherence[0, 9] = 1.0
    assert np.allclose(ssr_constrain(coherence), 0)
    imbalance = number_level_operator(0) - number_level_operator(1)
    assert np.allclose(ssr_constrain(imbalance), imbalance)
    arbitrary = rand_vec(100).reshape(10, 10)
    once = ssr_constrain(arbitrary)
    assert np.allclose(ssr_constrain(once), once)


# --- positive controls ------------------------------------------------------------------

def test_mode_eigenstate_factorization_by_hand():
    space = FockSpace(("0", "1"), 4)
    n0, n1 = space.number("0"), space.number("1")
    v = space.occupation_state((1, 1))
    assert abs(residual(n0, n1, v)) < 1e-14
    v = space.occupation_state((2, 0))
    assert abs(residual(n0, n1, v)) < 1e-14


def test_ssr_two_sector_pair_state_factorizes():
    psi = np.zeros(10, dtype=complex)
    psi[1] = psi[8] = 1 / np.sqrt(2)  # (L0,L1) pair + (R0,R1) pair
    A, B = occupation_imbalance_pair()
    assert abs(residual(A, B, psi)) < 1e-14


def test_positive_controls_small():
    rep = positive_control("mode", n_pairs=20, n_states=30, seed=13)
    assert rep.max_abs_residual <= 1e-10
    rep = positive_control("ssr", n_pairs=20, n_states=30, seed=13)
    assert rep.max_abs_residual <= 1e-10


def test_positive_control_rejects_other_kinds():
    with pytest.raises(ValueError):
        positive_control("I")
