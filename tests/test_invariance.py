"""Preserver construction/recognition, commutativity data, sector blocks."""

import numpy as np

from entloc import (
    PAULI,
    SECTOR_SLOTS,
    SECTORS,
    SepClass,
    classify_sep_I,
    classify_sep_II,
    commutativity_condition,
    construct_sep_I_preserver,
    fit_sep_I_preserver,
    is_block_scalar,
    is_sep_II_preserver,
    number_level_operator,
    partial_trace_second_particle,
    project_symmetric,
    sample_separable,
    sector_blocks,
    sep_I_discriminant,
    sym_one_body,
)

from density_matrix import purity

RNG = np.random.default_rng(12345)


def rand_op(n=2, rng=RNG):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def haar_unitary(n, rng=RNG):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def scalar_distance(O):
    """Frobenius distance of the normalized operator from scalar matrices."""
    O = O / np.linalg.norm(O)
    return float(np.linalg.norm(O - (np.trace(O) / 2) * np.eye(2)))


# --- construction -------------------------------------------------------------

def test_construct_examples():
    assert np.allclose(construct_sep_I_preserver(np.eye(2)), np.eye(3))
    assert np.allclose(construct_sep_I_preserver(PAULI[1]), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert np.allclose(construct_sep_I_preserver(np.diag([1.0, 2.0])), np.diag([1.0, 4.0, 2.0]))


def test_construct_equals_projected_kronecker_square():
    for _ in range(200):
        O = rand_op()
        got = construct_sep_I_preserver(O)
        want = project_symmetric(np.kron(O, O))
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.linalg.norm(O) ** 2)


def test_preserver_maps_family_I_into_itself():
    # invariance at full scale: 1000 generators x 100 family members each
    rng = np.random.default_rng(3)
    states = np.column_stack([sample_separable("I", rng) for _ in range(100)])
    for _ in range(1000):
        A = construct_sep_I_preserver(rand_op(rng=rng))
        images = A @ states
        disc = images[2] ** 2 - 2.0 * images[0] * images[1]
        norms = np.sum(np.abs(images) ** 2, axis=0)
        keep = norms > 1e-12
        assert np.all(np.abs(disc[keep]) / norms[keep] < 1e-9)


# --- recognition -----------------------------------------------------------------

def test_fit_round_trip_recovers_generator_up_to_sign():
    for _ in range(300):
        O = rand_op()
        fit = fit_sep_I_preserver(construct_sep_I_preserver(O))
        assert fit.fits
        assert fit.defect <= 1e-10
        assert min(np.max(np.abs(fit.O - O)), np.max(np.abs(fit.O + O))) < 1e-10


def test_fit_handles_degenerate_zero_entries():
    for O in (np.diag([1.0, 0.0]), np.diag([0.0, 2.0]), np.array([[0, 1], [0, 0]], dtype=complex)):
        fit = fit_sep_I_preserver(construct_sep_I_preserver(O))
        assert fit.fits and fit.defect <= 1e-12


def test_fit_rejects_non_members():
    assert not fit_sep_I_preserver(np.diag([1.0, 1.0, 0.0]).astype(complex)).fits
    assert not fit_sep_I_preserver(sym_one_body(PAULI[1])).fits


def test_unitary_proportionality_criterion():
    assert is_sep_II_preserver(PAULI[2])
    exp_i_sigma3 = np.diag(np.exp([1j, -1j]))  # matrix exponential of i*pauli-3
    assert is_sep_II_preserver(3.0 * exp_i_sigma3)
    assert not is_sep_II_preserver(np.diag([1.0, 2.0]))


# --- family-II invariance dichotomy (small version) ---------------------------

def _purity_after(O, psi):
    image = construct_sep_I_preserver(O) @ psi
    if np.vdot(image, image).real < 1e-12:
        return None
    return purity(partial_trace_second_particle(image))


def test_unitary_generators_keep_purity_in_both_bands():
    rng = np.random.default_rng(21)
    for _ in range(40):
        O = (0.5 + rng.random()) * haar_unitary(2, rng)
        for _ in range(20):
            p = _purity_after(O, sample_separable("II", rng))
            assert p is not None
            assert min(abs(p - 1.0), abs(p - 0.5)) < 1e-9


def test_non_unitary_generators_leave_the_bands():
    rng = np.random.default_rng(22)
    found = 0
    for _ in range(40):
        while True:
            O = rand_op(rng=rng)
            gram = O.conj().T @ O
            defect = np.linalg.norm(gram - np.trace(gram) / 2 * np.eye(2)) / np.linalg.norm(O) ** 2
            if defect > 0.1:
                break
        escaped = False
        for _ in range(60):
            p = _purity_after(O, sample_separable("II", rng))
            if p is not None and min(abs(p - 1.0), abs(p - 0.5)) > 1e-4:
                escaped = True
                break
        assert escaped
        found += 1
    assert found == 40


def test_preservers_do_not_form_an_algebra():
    rng = np.random.default_rng(23)
    for _ in range(100):
        while True:
            O = haar_unitary(2, rng)
            if scalar_distance(O) > 0.1:
                break
        combo = construct_sep_I_preserver(O) + np.eye(3)
        fit = fit_sep_I_preserver(combo)
        assert (not fit.fits) or (not is_sep_II_preserver(fit.O))


# --- commutativity ---------------------------------------------------------------

def test_commutativity_examples():
    chk = commutativity_condition(PAULI[1], PAULI[2])
    assert chk.commutes and abs(chk.s) < 1e-14 and np.allclose(chk.z, [0, 0, 1])

    chk = commutativity_condition(PAULI[3], np.diag([1.0, 2.0]))
    assert chk.commutes and np.allclose(chk.z, 0)

    chk = commutativity_condition(PAULI[1], PAULI[1] + PAULI[2])
    assert not chk.commutes
    assert abs(chk.s - 1) < 1e-14 and np.allclose(chk.z, [0, 0, 1])


def test_commutativity_necessary_condition_on_constructed_pairs():
    rng = np.random.default_rng(29)
    for k in range(1000):
        if k % 2 == 0:
            # branch s = 0: traceless operators with bilinearly orthogonal vectors
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            y = y0 - (x @ y0) / (x @ x) * x
            O = sum(x[i] * PAULI[i + 1] for i in range(3))
            Q = sum(y[i] * PAULI[i + 1] for i in range(3))
        else:
            # branch z = 0: parallel Pauli vectors, arbitrary scalar parts
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            gamma = complex(rng.normal(), rng.normal())
            O = complex(rng.normal(), rng.normal()) * PAULI[0] + sum(
                x[i] * PAULI[i + 1] for i in range(3)
            )
            Q = complex(rng.normal(), rng.normal()) * PAULI[0] + sum(
                gamma * x[i] * PAULI[i + 1] for i in range(3)
            )
        chk = commutativity_condition(O, Q)
        assert chk.commutes
        scale = np.linalg.norm(O) * np.linalg.norm(Q)
        assert abs(chk.s) < 1e-9 * scale or np.linalg.norm(chk.z) < 1e-9 * scale


# --- sector structure -----------------------------------------------------------

def projector(X):
    """Orthogonal projector onto sector ``X`` of the 10-dim pair space."""
    return np.diag([complex(k in SECTOR_SLOTS[X]) for k in range(10)])


def test_sector_slots_partition_the_ten_slots():
    assert tuple(SECTOR_SLOTS) == SECTORS
    assert {X: len(S) for X, S in SECTOR_SLOTS.items()} == {"LL": 3, "LR": 4, "RR": 3}
    assert sorted(k for S in SECTOR_SLOTS.values() for k in S) == list(range(10))


def test_sector_blocks_of_identity_and_transfer():
    blocks = sector_blocks(np.eye(10, dtype=complex))
    for X in SECTORS:
        assert np.allclose(blocks[(X, X)], np.eye(len(SECTOR_SLOTS[X])))
        for Y in SECTORS:
            if X != Y:
                assert np.allclose(blocks[(X, Y)], 0)
    transfer = np.zeros((10, 10), dtype=complex)
    transfer[1, 8] = 1.0  # |LL pair><RR pair|
    blocks = sector_blocks(transfer)
    assert np.linalg.norm(blocks[("LL", "RR")]) == 1.0
    for key, block in blocks.items():
        if key != ("LL", "RR"):
            assert np.allclose(block, 0)


def test_block_scalar_reports():
    rep = is_block_scalar(np.eye(10, dtype=complex))
    assert rep.block_scalar and rep.identity_proportional
    assert all(abs(a - 1) < 1e-12 for a in rep.alphas.values())

    rep = is_block_scalar(projector("LL"))
    assert rep.block_scalar and not rep.identity_proportional
    assert abs(rep.alphas["LL"] - 1) < 1e-12
    assert abs(rep.alphas["LR"]) < 1e-12 and abs(rep.alphas["RR"]) < 1e-12

    imbalance = number_level_operator(0) - number_level_operator(1)
    assert not is_block_scalar(imbalance).block_scalar


def test_sector_blocks_are_the_projected_blocks_bit_for_bit():
    rng = np.random.default_rng(2310)
    for _ in range(200):
        A = rand_op(10, rng)
        blocks = sector_blocks(A)
        for X in SECTORS:
            for Y in SECTORS:
                want = (projector(X) @ A @ projector(Y))[np.ix_(SECTOR_SLOTS[X], SECTOR_SLOTS[Y])]
                assert blocks[(X, Y)].shape == (len(SECTOR_SLOTS[X]), len(SECTOR_SLOTS[Y]))
                assert blocks[(X, Y)].tobytes() == want.tobytes()


def test_block_scalar_alphas_are_the_projected_traces_bit_for_bit():
    # a sum over the LR slice alone groups its four terms otherwise and fails this
    rng = np.random.default_rng(2311)
    for t in range(1200):
        A = rand_op(10, rng)
        if t % 2:  # a sector-constant diagonal, real as `preserve-check --op diag:...` reads it, or complex
            alpha = A[0, :3].real if t % 4 == 1 else A[0, :3]
            A = np.diag(sum(c * np.diag(projector(X)) for c, X in zip(alpha, SECTORS)))
        alphas = is_block_scalar(A).alphas
        for X in SECTORS:
            want = np.trace(projector(X) @ A @ projector(X)) / len(SECTOR_SLOTS[X])
            assert np.complex128(alphas[X]).tobytes() == np.complex128(want).tobytes()


def test_classifier_agreement_for_verdict_sets():
    # family-I membership by discriminant and within the family-II classifier
    rng = np.random.default_rng(31)
    for _ in range(200):
        psi = sample_separable("II", rng)
        a = classify_sep_I(psi).set is SepClass.SEP_I
        b = classify_sep_II(psi).set is SepClass.SEP_I
        assert a == b
