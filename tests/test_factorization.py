"""Residuals, audits, witness search, sector expectations and controls."""

import tracemalloc

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
    expectations,
    find_violation_witness,
    number_level_operator,
    occupation_imbalance_pair,
    positive_control,
    project_symmetric,
    residual,
    residuals,
    sep_I_state,
    sep_II_orthogonal_state,
)
from entloc import factorization
from entloc.factorization import AUDIT_BLOCK, Witness
from entloc.hilbert import EPS_STATE, sym_embedding
from entloc.separability import Family, canonical_set_name, classify, family

RNG = np.random.default_rng(777)

A_PAIR = project_symmetric(np.kron(PAULI[1], PAULI[1]))
B_PAIR = project_symmetric(np.kron(PAULI[2], PAULI[2]))


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
    # the states of an (n, 1, d) stack round as n separate one-row calls
    rng = np.random.default_rng(30 + d)
    A, B = (rand_vec(d * d, rng).reshape(d, d) for _ in range(2))
    S = rand_vec(40 * d, rng).reshape(40, d)
    stacked = residuals(A, B, S[:, None, :])[:, 0]
    for j in range(len(S)):
        assert stacked[j].tobytes() == residuals(A, B, S[j : j + 1])[0].tobytes()


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("m", [1, 100])
@pytest.mark.parametrize("d", [10, 15])
def test_operator_stacks_round_as_per_pair_calls(p, m, d):
    rng = np.random.default_rng(31 * p + m + d)
    A = rand_vec(p * d * d, rng).reshape(p, d, d)
    B = rand_vec(p * d * d, rng).reshape(p, d, d)
    S = rand_vec(p * m * d, rng).reshape(p, m, d)
    got = residuals(A, B, S)
    assert got.shape == (p, m)
    for j in range(p):
        assert got[j].tobytes() == residuals(A[j], B[j], S[j]).tobytes()


# a NaN amplitude, and amplitudes whose squared norm overflows: check_state refuses both
NON_FINITE_STATES = [
    (np.array([[1.0, np.nan, 0.0]], dtype=complex), "state contains non-finite amplitudes"),
    (np.full((1, 3), 1e200, dtype=complex), "state norm overflowed"),
]


def test_residuals_reject_non_finite_input():
    S = np.eye(3, dtype=complex)
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = np.nan
    for A, B in ((bad, np.eye(3)), (np.eye(3), bad)):
        with pytest.raises(ValueError, match="non-finite"):
            residuals(A, B, S)
    with pytest.raises(ValueError, match="overflowed"):
        residuals(1e200 * np.eye(3), 1e200 * np.eye(3), S)
    for state, message in NON_FINITE_STATES:
        with pytest.raises(ValueError, match=message):
            residuals(np.eye(3), np.eye(3), state)


# --- expectations -----------------------------------------------------------------

EXPECTATION_DIMS = {"sym3": 3, "sym10": 10, "fock": FockSpace(4).dim}


def random_operands(d, seed):
    """A random complex pair on ``d`` levels and eight random states."""
    rng = np.random.default_rng(seed)
    A, B = (rand_vec(d * d, rng).reshape(d, d) for _ in range(2))
    return A, B, rand_vec(8 * d, rng).reshape(8, d)


@pytest.mark.parametrize("space", EXPECTATION_DIMS)
def test_expectations_match_a_vdot_route(space):
    A, B, S = random_operands(EXPECTATION_DIMS[space], 41)
    got = expectations(A, B, S)
    for j, psi in enumerate(S):
        n = np.vdot(psi, psi)
        want = (np.vdot(psi, A @ (B @ psi)) / n, np.vdot(psi, A @ psi) / n, np.vdot(psi, B @ psi) / n)
        assert max(abs(g[j] - w) for g, w in zip(got, want)) <= 1e-12


@pytest.mark.parametrize("space", EXPECTATION_DIMS)
def test_expectations_give_the_residuals(space):
    A, B, S = random_operands(EXPECTATION_DIMS[space], 42)
    ab, a, b = expectations(A, B, S)
    assert np.max(np.abs(ab - a * b - residuals(A, B, S))) <= 1e-12


def test_expectations_keep_the_refusals_of_residuals():
    S = np.eye(3, dtype=complex)
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ZeroNormError):
        expectations(np.eye(3), np.eye(3), np.zeros((1, 3), dtype=complex))
    for A, B in ((bad, np.eye(3)), (np.eye(3), bad)):
        with pytest.raises(ValueError, match="non-finite"):
            expectations(A, B, S)
    with pytest.raises(ValueError, match="dimensions"):
        expectations(np.eye(4), np.eye(4), S)
    with pytest.raises(ValueError, match="expectation overflowed"):
        expectations(1e200 * np.eye(3), 1e200 * np.eye(3), S)
    for state, message in NON_FINITE_STATES:
        with pytest.raises(ValueError, match=message):
            expectations(np.eye(3), np.eye(3), state)


def mode_pairs(space, rng):
    """A ladder, a number and a dense random pair on ``space``."""
    a0, a1 = space.ladder("0", -1), space.ladder("1", -1)
    x, y = a0 + a0.conj().T, a1.conj().T - a1
    n0, n1 = space.number("0"), space.number("1")
    return [
        (x @ x + x, y @ y + 1j * y),
        (n0 @ n0 + 0.5 * n0, 2.0 * n1 - n1 @ n1),
        tuple(rand_vec(space.dim**2, rng).reshape(space.dim, -1) for _ in range(2)),
    ]


@pytest.mark.parametrize("n_max", range(2, 9))
def test_the_diagonal_formula_matches_residuals_on_every_headroom_state(n_max):
    space = FockSpace(n_max)
    fam = family("mode", space)
    S = fam.build_normalized(np.arange(fam.branches, dtype=float)[:, None])
    for A, B in mode_pairs(space, np.random.default_rng(n_max)):
        scale = np.linalg.norm(A) * np.linalg.norm(B)
        diagonal = factorization.basis_residuals(A, B, fam.slots, space.dim)
        assert np.max(np.abs(diagonal - residuals(A, B, S))) <= 1e-15 * scale


def test_the_diagonal_formula_keeps_the_refusals_of_residuals():
    slots = np.arange(3)
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = np.nan
    for A, B in ((bad, np.eye(3)), (np.eye(3), bad)):
        with pytest.raises(ValueError, match="non-finite"):
            factorization.basis_residuals(A, B, slots, 3)
    with pytest.raises(ValueError, match="overflowed"):
        factorization.basis_residuals(1e200 * np.eye(3), 1e200 * np.eye(3), slots, 3)
    with pytest.raises(ValueError, match="dimensions"):
        factorization.basis_residuals(np.eye(4), np.eye(4), slots, 3)


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
    space = FockSpace(4)
    n0, n1 = space.number("0"), space.number("1")
    A = n0 @ n0 + 0.5 * n0
    B = 2.0 * n1 - n1 @ n1
    rep = audit(A, B, "mode", 200, seed=3, fock=space)
    assert rep.max_abs_residual <= 1e-12


def diagonal_formula(A, B, states):
    """Residuals of unit basis states ``e_k``, one row at a time: ``sum_j A_kj B_jk - A_kk B_kk``."""
    values = []
    for psi in states:
        k = int(np.flatnonzero(psi)[0])
        values.append(np.einsum("j,j->", A[k], B[:, k]) - A[k, k] * B[k, k])
    return np.array(values)


def per_row_audit(A, B, fam, blocks):
    """The audit of one pair that evaluates every drawn row, through ``residuals``
    or, for the discrete mode family, through the diagonal formula: ``blocks``
    are its parameter rows, block by block."""
    total, best, n = 0.0, None, 0
    for P in blocks:
        states = fam.build_normalized(P)
        values = (diagonal_formula if fam.n_real == 0 else residuals)(A, B, states)
        mags = np.abs(values)
        k = int(np.argmax(mags))
        total += float(np.sum(mags))
        n += len(P)
        if best is None or mags[k] > best[0]:
            best = (float(mags[k]), complex(values[k]), states[k])
    return best, total / n


def block_sizes(n_samples):
    return [min(AUDIT_BLOCK, n_samples - start) for start in range(0, n_samples, AUDIT_BLOCK)]


@pytest.mark.parametrize("n_max", [2, 3, 4, 5])
def test_mode_audit_equals_evaluating_every_drawn_row(n_max):
    # at n_max 2 the family is the single state |0,0>; the dense pair has
    # residuals that no sparse shortcut would round as the formula does
    space = FockSpace(n_max)
    fam = family("mode", space)
    rng = np.random.default_rng(n_max)
    a = space.ladder("0", -1)
    pairs = [
        (a, a.conj().T),
        (space.number("0"), space.number("1")),
        tuple(rand_vec(space.dim**2, rng).reshape(space.dim, -1) for _ in range(2)),
    ]
    for i, (A, B) in enumerate(pairs):
        for n_samples in (1, 7, AUDIT_BLOCK, 1030, 2049):
            seed = 100 * n_max + i
            rep = audit(A, B, "mode", n_samples, seed, fock=space)
            gen = np.random.default_rng(seed)
            best, mean = per_row_audit(A, B, fam, [fam.draw(gen, m) for m in block_sizes(n_samples)])
            assert (
                rep.max_abs_residual, rep.mean_abs_residual, rep.argmax_residual,
                rep.argmax_state.tobytes(), rep.verdict,
            ) == (
                best[0], mean, best[1], best[2].tobytes(),
                "ViolationFound" if best[0] > rep.threshold else "FactorizesOnSamples",
            ), (n_max, i, n_samples)


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
    # the lockstep search spends a round's budget on its start states where the
    # sequential one climbs from one start, so only verdicts at budgets that
    # leave room for both are compared; every witness must be genuine
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
            got = find_violation_witness(A, B, kind, budget=budget, seed=seed, threshold=threshold)
            again = find_violation_witness(A, B, kind, budget=budget, seed=seed, threshold=threshold)
            assert witness_bytes(again) == witness_bytes(got), (threshold, seed, budget)
            if budget >= 150:
                want = sequential_witness(A, B, kind, budget, seed, threshold)
                assert (got is None) == (want is None), (threshold, seed, budget)
            if got is not None:
                r = residual(A, B, got.state)
                assert abs(r) > threshold
                assert abs(r - got.residual) <= 1e-12
                assert classify(kind, got.state).separable
            found.append(got is not None)
        seen.add("NotFound" if not found[-1] else "at start" if found[0] else "in a sweep")
        if found[-1] and not all(found):
            seen.add("cut by budget")
    want_seen = {"NotFound", "at start"} if width == 0 else {
        "NotFound", "at start", "in a sweep", "cut by budget"
    }
    assert seen == want_seen


def counting_residuals(monkeypatch):
    """Sizes of the state batches of every residual evaluation from here on.

    Every evaluation, in the audits, the controls or the witness search,
    goes through the one kernel ``factorization.residuals``.
    """
    sizes = []
    kernel = factorization.residuals

    def counting(A, B, S):
        sizes.append(S.size // S.shape[-1])
        return kernel(A, B, S)

    monkeypatch.setattr(factorization, "residuals", counting)
    return sizes


def test_witness_batches_stay_within_the_block(monkeypatch):
    sizes = counting_residuals(monkeypatch)
    A = project_symmetric(np.kron(PAULI[0], PAULI[0]))
    assert find_violation_witness(A, B_PAIR, "I", budget=100_000, seed=12) is None
    assert max(sizes) <= AUDIT_BLOCK
    assert sum(sizes) == 100_000


def test_mode_witness_reads_min_branches_budget_states_at_once(monkeypatch):
    sizes = counting_residuals(monkeypatch)
    read = []
    formula = factorization.basis_residuals

    def counting_formula(A, B, slots, dim):
        read.append(len(slots))
        return formula(A, B, slots, dim)

    monkeypatch.setattr(factorization, "basis_residuals", counting_formula)
    monkeypatch.setattr(factorization, "AUDIT_BLOCK", 4)  # no block splits the read
    space = FockSpace(4)
    n0, n1 = space.number("0"), space.number("1")
    # six headroom occupation states, on which number operators factorize
    assert find_violation_witness(n0, n1, "mode", budget=100, fock=space) is None
    assert read == [6]
    read.clear()
    assert find_violation_witness(n0, n1, "mode", budget=5, fock=space) is None
    assert read == [5]
    assert sizes == []


def test_a_zero_state_raises_in_the_witness_search_as_in_the_audit(monkeypatch):
    # one policy for a degenerate family state: neither path scores it.  A discrete family
    # holds only unit states, so the zero row is a branch of a continuous one
    states = np.array([[1, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=complex)
    zero_branch = Family(3, 2, lambda b, c: c[..., :1] * states[b])
    monkeypatch.setattr(factorization, "family", lambda kind, fock=None: zero_branch)
    swap = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    with pytest.raises(ZeroNormError):
        find_violation_witness(swap, swap, "I")
    with pytest.raises(ZeroNormError):
        audit(swap, swap, "I", 10, seed=0)


def budget_pairs(kind):
    """A pair that factorizes on the family, and one with a witness on it."""
    if kind == "ssr":
        n0 = number_level_operator(0)
        return (n0, number_level_operator(2)), (n0, n0)
    if kind == "III":
        return (np.eye(10), occupation_imbalance_pair()[1]), occupation_imbalance_pair()
    return (np.eye(3), B_PAIR), (A_PAIR, B_PAIR)


@pytest.mark.parametrize("kind", ["I", "II", "III", "ssr"])
def test_witness_spends_exactly_the_budget(kind, monkeypatch):
    local, violating = budget_pairs(kind)
    sizes = counting_residuals(monkeypatch)
    assert find_violation_witness(*local, kind, budget=10_000, seed=0) is None
    assert sum(sizes) == 10_000
    sizes.clear()
    w = find_violation_witness(*violating, kind, budget=150, seed=0)
    assert w is not None
    # the witness recheck is one more one-state call
    assert sum(sizes) - 1 <= 150


# --- sector expectation triple ------------------------------------------------------

def three_sector_states(c):
    """``c_ll |L0,L0> + c_lr pair(L0,R1) + c_rr |R1,R1>`` per row of ``c``, in slots 0, 3, 9."""
    S = np.zeros((len(c), 10), dtype=complex)
    S[:, [0, 3, 9]] = c
    return S


def test_imbalance_triple_reference_points():
    points = [[1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)], [0.0, 1.0, 0.0], [3 / 5, 4 / 5, 0.0]]
    ab, a, b = expectations(*occupation_imbalance_pair(), three_sector_states(points))
    assert np.allclose([ab[0], a[0], b[0]], [0.0, 1.0, -1.0], atol=1e-12)
    assert np.allclose([ab[1], a[1], b[1]], [-1.0, 1.0, -1.0], atol=1e-12)
    assert abs((ab[1] - a[1] * b[1])) < 1e-12
    assert abs(a[2] * b[2] / ab[2] - (1 + (3 / 5) ** 2)) < 1e-12


def test_imbalance_triple_closed_form_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rand_vec(3, rng)
        c /= np.linalg.norm(c)
        (ab,), (a,), (b,) = expectations(*occupation_imbalance_pair(), three_sector_states([c]))
        want = (
            -abs(c[1]) ** 2,
            2 * abs(c[0]) ** 2 + abs(c[1]) ** 2,
            -2 * abs(c[2]) ** 2 - abs(c[1]) ** 2,
        )
        assert np.allclose([ab, a, b], want, atol=1e-12)


# --- positive controls ------------------------------------------------------------------

def test_mode_eigenstate_factorization_by_hand():
    space = FockSpace(4)
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


@pytest.mark.parametrize("g", [1, 7, 100, 1024])
def test_ssr_control_operators_are_the_complex_einsum_byte_for_byte(g):
    # the side bases are real, so two real einsums give the complex einsum's bytes
    units = np.eye(16).reshape(4, 4, 4, 4)
    for side in (units[:2, :2], units[2:, 2:]):
        basis = factorization.sym_one_body(side)
        assert not basis.imag.any()
        for seed in range(3):
            w = factorization._local_pairs("ssr", g, np.random.default_rng(seed))[0]
            want = np.einsum("gij,ijkl->gkl", w, basis)
            assert factorization._weighted_operators(w, basis.real).tobytes() == want.tobytes()


def test_positive_control_rejects_other_kinds():
    with pytest.raises(ValueError):
        positive_control("I")


# the per-pair loop, kept as the batched control's reference: one audit per
# pair, evaluating every row it reads from the draws its group shares

def _mode_polynomial(space, mode, rng):
    """Random degree-<=2 polynomial in the ladder operators of one mode."""
    a = space.ladder(mode, -1)
    ad = space.ladder(mode, 1)
    basis = [np.eye(space.dim, dtype=complex), a, ad, ad @ a, a @ a, ad @ ad]
    coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    return sum(c * m for c, m in zip(coeff, basis))


def _one_body_sector_basis(side):
    """Symmetrized one-body operators ``E† (h x 1 + 1 x h) E`` of the four 2x2 matrix units
    ``h`` on the L or R level block, as a ``(2, 2, 10, 10)`` stack."""
    ofs = 0 if side == "L" else 2
    E = sym_embedding(4)
    T = np.zeros((2, 2, 10, 10), dtype=complex)
    for i in range(2):
        for j in range(2):
            H = np.zeros((4, 4), dtype=complex)
            H[ofs + i, ofs + j] = 1.0
            T[i, j] = E.conj().T @ (np.kron(H, np.eye(4)) + np.kron(np.eye(4), H)) @ E
    return T


def per_pair_positive_control(kind, n_pairs, n_states, seed, n_max, threshold=1e-10):
    rng_ops = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    space = FockSpace(n_max) if kind == "mode" else None
    fam = family(kind, space)
    # groups of pairs, as many as fit in one block (at least one), draw each
    # block together: pair i of a group reads rows i*m to (i+1)*m of it
    per_group = max(1, AUDIT_BLOCK // min(n_states, AUDIT_BLOCK))
    sizes = block_sizes(n_states)
    worst, mean_acc = None, 0.0
    basis = {side: _one_body_sector_basis(side) for side in "LR"}
    for first in range(0, n_pairs, per_group):
        g = min(per_group, n_pairs - first)
        draws = [fam.draw(rng, g * m) for m in sizes]
        for i in range(g):
            if kind == "mode":
                A = _mode_polynomial(space, "0", rng_ops)
                B = _mode_polynomial(space, "1", rng_ops)
            else:
                hA = rng_ops.normal(size=(2, 2)) + 1j * rng_ops.normal(size=(2, 2))
                hB = rng_ops.normal(size=(2, 2)) + 1j * rng_ops.normal(size=(2, 2))
                # each operator is its Hermitian block's weights over its side's basis
                A = np.einsum("ij,ijkl->kl", (hA + hA.conj().T) / 2, basis["L"])
                B = np.einsum("ij,ijkl->kl", (hB + hB.conj().T) / 2, basis["R"])
            best, mean = per_row_audit(A, B, fam, [P[i * m : (i + 1) * m] for P, m in zip(draws, sizes)])
            mean_acc += mean
            if worst is None or best[0] > worst[0]:
                worst = best
    return {
        "pair": f"{kind}-local random pairs x{n_pairs}",
        "n_samples": n_pairs * n_states,
        "max_abs_residual": worst[0],
        "mean_abs_residual": mean_acc / n_pairs,
        "argmax_residual": np.array(worst[1]).tobytes(),
        "argmax_state": worst[2].tobytes(),
        "verdict": "FactorizesOnSamples" if worst[0] <= threshold else "ViolationFound",
    }


# (pairs, states): single pairs and states, partial and full groups, and
# the block edge, where each call holds one pair of up to AUDIT_BLOCK states
CONTROL_SHAPES = [(1, 1), (1, 100), (3, 1), (7, 33), (10, 100), (11, 100), (100, 100),
                  (3, 1030), (5, 2049)]


@pytest.mark.parametrize("kind", ["mode", "ssr"])
def test_batched_control_matches_per_pair_audits(kind):
    cases = 0
    for seed in (0, 7, 13):
        for n_max in (2, 4, 5, 8, 12) if kind == "mode" else (4,):
            for n_pairs, n_states in CONTROL_SHAPES:
                want = per_pair_positive_control(kind, n_pairs, n_states, seed, n_max)
                rep = positive_control(kind, n_pairs, n_states, seed=seed, n_max=n_max)
                got = {
                    "pair": rep.pair,
                    "n_samples": rep.n_samples,
                    "max_abs_residual": rep.max_abs_residual,
                    "mean_abs_residual": rep.mean_abs_residual,
                    # as bytes, so that -0.0 and 0.0 differ
                    "argmax_residual": np.array(rep.argmax_residual).tobytes(),
                    "argmax_state": rep.argmax_state.tobytes(),
                    "verdict": rep.verdict,
                }
                assert got == want, (seed, n_max, n_pairs, n_states)
                cases += 1
    assert cases == (135 if kind == "mode" else 27)


def _dense_monomials(space, mode):
    """The ladder monomials 1, a, a+, a+ a, a a, a+ a+ of one mode, as a dense (6, dim, dim) stack."""
    return np.stack([np.eye(space.dim), space.ladder(mode, -1), space.ladder(mode, 1), space.number(mode),
                     space.ladder(mode, -2), space.ladder(mode, 2)])


@pytest.mark.parametrize("n_max", [2, 4, 5, 8, 12, 20])
def test_the_mode_table_is_basis_residuals_on_dense_monomials(n_max, monkeypatch):
    space = FockSpace(n_max)
    fam = family("mode", space)
    states = fam.build_normalized(np.arange(fam.branches, dtype=float)[:, None])
    headroom = np.argmax(np.abs(states), axis=-1)
    # the control reads its table on the family's states, branch by branch
    read, table = [], factorization._map_residuals
    monkeypatch.setattr(factorization, "_map_residuals", lambda T, U, k: read.append(k) or table(T, U, k))
    positive_control("mode", 1, 1, n_max=n_max)
    assert len(read) == 1 and np.array_equal(read[0], headroom)
    # the control's pairs are of modes 0 and 1, where the table is exactly 0; a pair of one
    # mode's monomials has nonzero entries, so the same-mode tables check the formula
    for m0, m1 in (("0", "1"), ("1", "0"), ("0", "0"), ("1", "1")):
        T, U = _dense_monomials(space, m0), _dense_monomials(space, m1)
        want = factorization.basis_residuals(T[:, None], U[None], headroom, space.dim)
        maps = factorization._monomial_maps(space, m0), factorization._monomial_maps(space, m1)
        assert factorization._map_residuals(*maps, headroom).tobytes() == want.tobytes(), (m0, m1)
        assert (np.abs(want).max() > 0) == (m0 == m1)


def test_control_calls_stay_within_the_block(monkeypatch):
    calls, tables, builds, one_body = [], [], [], []
    formula, build, sym = factorization.basis_residuals, Family.build_normalized, factorization.sym_one_body

    def counting_builds(self, P):
        builds.append(P.shape[:-1])
        return build(self, P)

    def counting(A, B, S):
        calls.append((A.shape[:-2], S.shape[:-1]))
        return residuals(A, B, S)

    def counting_tables(A, B, slots, dim):
        tables.append(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]))
        return formula(A, B, slots, dim)

    def counting_one_body(h):
        one_body.append(np.shape(h)[:-2])
        return sym(h)

    def refuse(*args):
        raise AssertionError("a dense ladder monomial was built")

    monkeypatch.setattr(factorization, "residuals", counting)
    monkeypatch.setattr(factorization, "basis_residuals", counting_tables)
    monkeypatch.setattr(factorization, "sym_one_body", counting_one_body)
    monkeypatch.setattr(Family, "build_normalized", counting_builds)
    monkeypatch.setattr(FockSpace, "ladder", refuse)
    monkeypatch.setattr(FockSpace, "number", refuse)
    # mode reads every pair's values on its headroom states from one table of the 36
    # ladder-monomial pairs, read from their column maps, where a mode-local pair has only
    # the j = k term: exactly 0, with no dense monomial, no basis state and no residuals call
    assert positive_control("mode", 100, 100).max_abs_residual == 0.0
    assert calls == [] and tables == [] and one_body == []
    # the report's one state is the only state built: no block is built
    assert builds == [(1,)]
    builds.clear()
    positive_control("ssr", 3, 1030)
    assert calls == [((1,), (1, AUDIT_BLOCK)), ((1,), (1, 6))] * 3
    # each pair keeps its best parameter row, and the report builds the winner's state alone
    assert builds == [(1, AUDIT_BLOCK), (1, 6)] * 3 + [(1,)]
    # the three groups' pairs are weights over one basis per side, of its four matrix units' operators
    assert one_body == [(2, 2), (2, 2)] and tables == []


def _traced_peak(call):
    """The result of ``call()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_mode_control_at_the_n_max_bound_holds_no_dense_monomial():
    # two dense (6, dim, dim) monomial stacks at n_max 44 would take 205 MB, and the headroom
    # states as a dense (946, 1035) complex stack 15.7 MB; the control holds their column maps
    # and slots, O(dim) each
    rep, peak = _traced_peak(lambda: positive_control("mode", 10, 10, n_max=44))
    assert rep.max_abs_residual == 0.0 and peak <= 8 * 2**20


def test_a_mode_audit_and_witness_at_the_n_max_bound_hold_no_dense_headroom_states():
    # the pair's own dim x dim operators (16 MiB each) are built before tracing; the family
    # is its (946,) slots, and the dense (946, 1035) headroom states would be 15.7 MB
    space = FockSpace(44)
    n0, n1, up = space.number("0"), space.number("1"), space.ladder("0", 1)
    x = up + up.conj().T
    rep, peak = _traced_peak(lambda: audit(n0, n1, "mode", 1000, seed=1, fock=space))
    assert rep.max_abs_residual == 0.0 and peak <= 8 * 2**20
    # a search that finds nothing reads every slot; a found one builds only its witness
    found, peak = _traced_peak(lambda: find_violation_witness(n0, up, "mode", fock=space))
    assert found is None and peak <= 8 * 2**20
    found, peak = _traced_peak(lambda: find_violation_witness(x, x, "mode", fock=space))
    assert found.state.shape == (space.dim,) and peak <= 8 * 2**20


@pytest.mark.parametrize("kind", ["mode", "ssr"])
def test_control_memory_does_not_grow_with_the_pair_count(kind):
    # each group of pairs joins the report when it is done, so 20x the pairs
    # must not raise the peak (keeping every group's results until the end: 1.5x)
    peak = [_traced_peak(lambda: positive_control(kind, n_pairs, 1))[1] for n_pairs in (40_960, 2_048)]
    assert peak[0] <= 1.1 * peak[1]


def test_control_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n_states"):
        positive_control("ssr", 2, 0)
    for threshold in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="threshold"):
            positive_control("mode", 2, 10, threshold=threshold)
