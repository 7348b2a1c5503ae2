"""Basis conventions, symmetrization, reductions and the truncated Fock space."""

from itertools import product
from math import prod, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entloc import (
    PAULI,
    SECTOR_SLOTS,
    FockSpace,
    ZeroNormError,
    partial_trace_second_particle,
    pauli_decompose,
    project_symmetric,
    reduced_single_particle_dm,
    sym_pairs,
    sym_embedding,
    sym_one_body,
    symmetrize_product,
)
from entloc.hilbert import check_state, pi_reduction_matrix

RNG = np.random.default_rng(20240811)


def rand_vec(n, rng=RNG):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# --- independent oracles -----------------------------------------------------

def swap_matrix(dim):
    S = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            S[dim * j + i, dim * i + j] = 1.0
    return S


def product_symmetrizer(dim):
    return (np.eye(dim * dim) + swap_matrix(dim)) / 2.0


def explicit_basis(dim):
    """Hand-built product-space vectors of the pinned symmetric basis order."""
    vecs = []
    for i, j in sym_pairs(dim):
        v = np.zeros(dim * dim, dtype=complex)
        if i == j:
            v[dim * i + i] = 1.0
        else:
            v[dim * i + j] = v[dim * j + i] = 1.0 / np.sqrt(2.0)
        vecs.append(v)
    return np.column_stack(vecs)


def brute_partial_trace(v, dim):
    m = np.asarray(v).reshape(dim, dim)
    rho = m @ m.conj().T
    return rho / np.trace(rho)


# --- basis order ------------------------------------------------------------

def test_sym_basis_order_is_pinned():
    assert sym_pairs(2) == ((0, 0), (1, 1), (0, 1))
    assert sym_pairs(4) == tuple((i, j) for i in range(4) for j in range(i, 4))
    assert SECTOR_SLOTS == {"LL": (0, 1, 4), "LR": (2, 3, 5, 6), "RR": (7, 8, 9)}


def test_symmetrizer_is_projector():
    for dim in (2, 4):
        E = sym_embedding(dim)
        S = E @ E.conj().T
        assert np.allclose(S, S.conj().T)
        assert np.allclose(S @ S, S)
        assert np.allclose(S, product_symmetrizer(dim))


# --- symmetrize_product -----------------------------------------------------

def test_symmetrize_same_level():
    e0 = np.array([1, 0], dtype=complex)
    assert np.allclose(symmetrize_product(e0, e0), [1, 0, 0])


def test_symmetrize_distinct_levels():
    e0, e1 = np.eye(2, dtype=complex)
    assert np.allclose(symmetrize_product(e0, e1), [0, 0, 1 / np.sqrt(2)])


def test_symmetrize_four_level_pair():
    l0 = np.array([1, 0, 0, 0], dtype=complex)
    r1 = np.array([0, 0, 0, 1], dtype=complex)
    out = symmetrize_product(l0, r1)
    expected = np.zeros(10)
    expected[3] = 1 / np.sqrt(2)  # pair (L0, R1)
    assert np.allclose(out, expected)


@pytest.mark.parametrize("dim", [2, 4])
def test_symmetrize_matches_projector_oracle(dim):
    basis = explicit_basis(dim)
    proj = product_symmetrizer(dim)
    for _ in range(25):
        phi, zeta = rand_vec(dim), rand_vec(dim)
        want = basis.conj().T @ (proj @ np.kron(phi, zeta))
        got = symmetrize_product(phi, zeta)
        assert np.allclose(got, want, atol=1e-13)
        assert np.allclose(got, symmetrize_product(zeta, phi), atol=1e-13)


def test_symmetrize_dimension_mismatch():
    with pytest.raises(ValueError):
        symmetrize_product(np.ones(2), np.ones(4))


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("shape", [(), (9,), (3, 7)])
def test_symmetrize_equals_the_embedding_product(dim, shape):
    # the pair formula is the product with the embedding, formed without one
    rng = np.random.default_rng([dim, len(shape)])
    phi, zeta = (rng.normal(size=(*shape, dim, 2)) @ [1, 1j] for _ in range(2))
    # zero entries, of either sign, give products that are zero with a sign bit
    phi[rng.random(phi.shape) < 0.3] = 0.0
    zeta[rng.random(zeta.shape) < 0.3] = complex(-0.0, -0.0)
    got = symmetrize_product(phi, zeta)
    products = (phi[..., :, None] * zeta[..., None, :]).reshape(*shape, dim * dim)
    want = products @ sym_embedding(dim).conj()
    scale = np.linalg.norm(phi, axis=-1) * np.linalg.norm(zeta, axis=-1)
    assert np.all(np.linalg.norm(got - want, axis=-1) <= 1e-15 * scale)
    # a zero slot is +0, as a sum from zero gives it
    parts = np.stack([got.real, got.imag])
    assert (parts == 0).any() and not np.signbit(parts[parts == 0]).any()


# --- operator embeddings ------------------------------------------------------

def test_project_symmetric_identity_and_swap():
    assert np.allclose(project_symmetric(np.eye(4)), np.eye(3))
    assert np.allclose(project_symmetric(swap_matrix(2)), np.eye(3))


def test_project_symmetric_pauli_square():
    got = project_symmetric(np.kron(PAULI[1], PAULI[1]))
    assert np.allclose(got, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


@pytest.mark.parametrize("dim", [2, 4])
def test_sym_one_body_stack_matches_kron_per_matrix(dim):
    rng = np.random.default_rng(dim)
    h = rand_vec(3 * dim * dim, rng).reshape(3, dim, dim)
    h[0, 0] = -0.0  # signed zeros take the same path as np.kron
    stack = sym_one_body(h)
    E = sym_embedding(dim)
    for j in range(3):
        one = np.eye(dim)
        want = E.conj().T @ (np.kron(h[j], one) + np.kron(one, h[j])) @ E
        assert stack[j].tobytes() == sym_one_body(h[j]).tobytes() == want.tobytes()


# --- partial trace -----------------------------------------------------------

def test_partial_trace_examples():
    assert np.allclose(
        partial_trace_second_particle(np.array([1, 0, 0], dtype=complex)), [[1, 0], [0, 0]]
    )
    assert np.allclose(
        partial_trace_second_particle(np.array([0, 0, 1], dtype=complex)), np.eye(2) / 2
    )
    rho = partial_trace_second_particle(np.array([1, 0, 1], dtype=complex) / np.sqrt(2))
    s = 1 / (2 * np.sqrt(2))
    assert np.allclose(rho, [[0.75, s], [s, 0.25]], atol=1e-14)


def test_partial_trace_against_brute_force_oracle():
    basis = explicit_basis(2)
    for _ in range(30):
        psi = rand_vec(3)
        want = brute_partial_trace(basis @ psi, 2)
        assert np.allclose(partial_trace_second_particle(psi), want, atol=1e-13)


def test_partial_trace_is_a_state():
    for _ in range(30):
        rho = partial_trace_second_particle(rand_vec(3))
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_partial_trace_zero_norm():
    with pytest.raises(ZeroNormError):
        partial_trace_second_particle(np.zeros(3, dtype=complex))


def test_one_state_norm_equals_its_row_in_a_stack_bit_for_bit():
    rng = np.random.default_rng(2000)
    for d in (3, 10):
        for psi in rng.normal(size=(1000, d)) + 1j * rng.normal(size=(1000, d)):
            assert np.float64(check_state(psi)).tobytes() == check_state(psi[None])[0].tobytes()


# --- pair-to-single reductions -----------------------------------------------

L0 = np.array([1, 0, 0, 0], dtype=complex)
L1 = np.array([0, 1, 0, 0], dtype=complex)
R1 = np.array([0, 0, 0, 1], dtype=complex)


def test_pi_reduction_examples():
    assert np.allclose(pi_reduction_matrix(L0) @ symmetrize_product(L0, R1), R1)
    assert np.allclose(pi_reduction_matrix(L0) @ symmetrize_product(L0, L0), 2 * L0)
    assert np.allclose(pi_reduction_matrix(L1) @ symmetrize_product(L0, R1), 0)


def test_pi_reduction_is_linear_in_the_pair_state():
    psi = rand_vec(4)
    a, b = rand_vec(10), rand_vec(10)
    lhs = pi_reduction_matrix(psi) @ (2.0 * a + 3j * b)
    rhs = 2.0 * (pi_reduction_matrix(psi) @ a) + 3j * (pi_reduction_matrix(psi) @ b)
    assert np.allclose(lhs, rhs)


def test_reduced_dm_examples():
    rho = reduced_single_particle_dm(symmetrize_product(L0, R1))
    assert np.allclose(rho, np.outer(R1, R1.conj()))
    rho = reduced_single_particle_dm(symmetrize_product(L0, L1))
    assert np.allclose(rho, np.diag([0.5, 0.5, 0, 0]))
    rr = symmetrize_product(np.array([0, 0, 1, 0], dtype=complex), np.array([0, 0, 1, 0], dtype=complex))
    assert reduced_single_particle_dm(rr) is None


def test_reduced_dm_is_a_state_and_basis_independent():
    for _ in range(20):
        psi = rand_vec(10)
        rho = reduced_single_particle_dm(psi)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        # rotate the subspace basis by a random unitary
        z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        k = np.zeros((4, 2), dtype=complex)
        k[:2, :] = q
        assert np.allclose(reduced_single_particle_dm(psi, k), rho, atol=1e-10)


# --- Fock space ---------------------------------------------------------------

def test_fock_dimension_and_order():
    space = FockSpace(4)
    assert space.dim == 15
    assert space.occupations.shape == (15, 2) and not space.occupations.flags.writeable
    assert space.occupations[0].tolist() == [0, 0]
    assert space.occupations.tolist() == sorted(space.occupations.tolist())


def test_fock_basis_is_the_generic_two_mode_construction():
    for n in range(1, 45):  # up to the CLI's --n-max bound
        space = FockSpace(n)
        index = {occ: k for k, occ in enumerate(sorted(o for o in product(range(n + 1), repeat=2) if sum(o) <= n))}
        assert space.occupations.tolist() == [list(occ) for occ in index]
        # the slot formula is the dict's lookup, on every pair and on the array at once
        assert [space.slot(*occ) for occ in index] == list(index.values())
        assert space.slot(*space.occupations.T).tolist() == list(index.values())
        assert space.dim == (n + 1) * (n + 2) // 2


def test_fock_occupation_states_outside_the_basis_are_refused():
    space = FockSpace(4)
    assert space.occupation_state((3, 1))[space.slot(3, 1)] == 1
    for occ in ((3, 2), (-1, 0), (0, -1), (1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="not in the truncated basis"):
            space.occupation_state(occ)


def test_fock_commutator_below_cutoff():
    space = FockSpace(4)
    a, ad = space.ladder("0", -1), space.ladder("0", 1)
    comm = a @ ad - ad @ a
    for occ in space.occupations:
        if sum(occ) < space.n_max:
            v = space.occupation_state(occ)
            assert np.allclose(comm @ v, v)


def test_fock_number_and_creation():
    space = FockSpace(4)
    v = space.occupation_state((2, 0))
    assert abs(np.vdot(v, space.number("0") @ v) - 2) < 1e-14
    out = space.ladder("0", 1) @ (space.ladder("1", 1) @ space.occupation_state((0, 0)))
    assert abs(out[space.slot(1, 1)] - 1) < 1e-14


def test_fock_creation_truncates_at_cutoff():
    space = FockSpace(2)
    top = space.occupation_state((2, 0))
    assert np.allclose(space.ladder("0", 1) @ top, 0)
    assert np.allclose(space.ladder("1", 1) @ top, 0)


@pytest.mark.parametrize("k", [-3, -2, 2, 3])
def test_fock_ladder_powers_are_products_of_single_steps(k):
    space = FockSpace(5)
    for mode in space.modes:
        step = space.ladder(mode, 1 if k > 0 else -1)
        assert np.allclose(space.ladder(mode, k), np.linalg.matrix_power(step, abs(k)), rtol=0, atol=1e-14)
    assert np.allclose(space.ladder("0", 1) @ space.ladder("0", -1), space.number("0"), rtol=0, atol=1e-14)


def per_column_ladder(space, mode, k):
    """The per-column loop that built :meth:`FockSpace.ladder` before its column map, kept as its reference."""
    m = space.modes.index(mode)
    index = {tuple(occ): k for k, occ in enumerate(space.occupations.tolist())}
    op = np.zeros((space.dim, space.dim), dtype=complex)
    for occ, j in index.items():
        n = occ[m]
        to = occ[:m] + (n + k,) + occ[m + 1 :]
        if to in index:  # within the cutoff, and no occupation below 0
            op[index[to], j] = prod(map(sqrt, range(min(n, n + k) + 1, max(n, n + k) + 1)))
    return op


@pytest.mark.parametrize("n_max", [1, 2, 4, 12, 44])
def test_fock_ladder_is_the_per_column_loop_byte_for_byte(n_max):
    space = FockSpace(n_max)
    for mode in space.modes:
        for k in (-2, -1, 1, 2):
            want = per_column_ladder(space, mode, k)
            assert space.ladder(mode, k).tobytes() == want.tobytes(), (mode, k)
            rows, values = space.ladder_map(mode, k)
            # each column holds at most one nonzero, in the row and with the value of its map
            cols = np.arange(space.dim)
            assert np.array_equal(np.count_nonzero(want, axis=0), rows >= 0)
            assert np.array_equal(want[np.maximum(rows, 0), cols] * (rows >= 0), values)


def test_fock_unknown_mode():
    with pytest.raises(ValueError):
        FockSpace(2).number("2")


# --- Pauli decomposition -------------------------------------------------------

def test_pauli_decompose_examples():
    x0, xv = pauli_decompose(PAULI[1])
    assert x0 == 0 and np.allclose(xv, [1, 0, 0])
    x0, xv = pauli_decompose(np.eye(2))
    assert x0 == 1 and np.allclose(xv, 0)
    x0, xv = pauli_decompose(np.diag([1.0, 2.0]))
    assert abs(x0 - 1.5) < 1e-15 and np.allclose(xv, [0, 0, -0.5])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
def test_pauli_roundtrip(vals):
    O = np.array(vals[:4]).reshape(2, 2) + 1j * np.array(vals[4:]).reshape(2, 2)
    x0, xv = pauli_decompose(O)
    composed = x0 * PAULI[0] + sum(xv[k] * PAULI[k + 1] for k in range(3))
    assert np.max(np.abs(composed - O)) < 1e-14
