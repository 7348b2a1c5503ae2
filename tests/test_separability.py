"""Classifiers, samplers and the preservation quartic."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entloc import (
    PAULI,
    SECTOR_SLOTS,
    ConsistencyError,
    SepClass,
    ZeroNormError,
    classify,
    classify_mode,
    classify_sep_I,
    classify_sep_II,
    classify_sep_III,
    classify_ssr,
    classify_states,
    construct_sep_I_preserver,
    embed_ll,
    lr_block,
    sample_separable,
    sep_I_discriminant,
    sep_I_state,
    sep_II_orthogonal_state,
    sep_III_state,
    solve_preservation_quartic,
    sym_one_body,
    symmetrize_product,
)
from entloc.hilbert import EPS_STATE, FockSpace, pi_reduction_matrix
from entloc.separability import Family, Tolerances, family

RNG = np.random.default_rng(99)


def rand_vec(n, rng=RNG):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def brute_purity(psi3):
    """Purity of the first particle via an explicit product-space expansion."""
    basis = np.zeros((4, 3), dtype=complex)
    basis[0, 0] = 1.0
    basis[3, 1] = 1.0
    basis[1, 2] = basis[2, 2] = 1 / np.sqrt(2)
    m = (basis @ np.asarray(psi3, complex)).reshape(2, 2)
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    return float(np.trace(rho @ rho).real)


L0 = np.array([1, 0, 0, 0], dtype=complex)
L1 = np.array([0, 1, 0, 0], dtype=complex)
R0 = np.array([0, 0, 1, 0], dtype=complex)
R1 = np.array([0, 0, 0, 1], dtype=complex)


# --- family I -----------------------------------------------------------------

def test_sep_I_accepts_family_members():
    v = classify_sep_I(np.array([1, 0, 0], dtype=complex))
    assert v.set is SepClass.SEP_I
    assert np.allclose(v.parameters, (1, 0))


def test_sep_I_rejects_the_distinct_pair():
    v = classify_sep_I(np.array([0, 0, 1], dtype=complex))
    assert v.set is SepClass.ENTANGLED_I
    assert abs(v.diagnostics["discriminant"] - 1.0) < 1e-12


def test_sep_I_recovers_parameters():
    psi = np.array([(3 / 5) ** 2, (4 / 5) ** 2, np.sqrt(2) * 12 / 25], dtype=complex)
    v = classify_sep_I(psi)
    assert v.set is SepClass.SEP_I
    c = np.asarray(v.parameters)
    sign = 1.0 if c[0].real > 0 else -1.0
    assert np.allclose(sign * c, [3 / 5, 4 / 5], atol=1e-12)


def test_sep_I_parameter_recovery_roundtrip():
    for _ in range(50):
        c0, c1 = rand_vec(2)
        v = classify_sep_I(sep_I_state(c0, c1))
        assert v.set is SepClass.SEP_I
        r0, r1 = v.parameters
        back = sep_I_state(r0, r1)
        assert np.allclose(back, sep_I_state(c0, c1), atol=1e-9 * max(1, abs(c0) + abs(c1)) ** 2)


def test_sep_I_zero_norm():
    with pytest.raises(ZeroNormError):
        classify_sep_I(np.zeros(3, dtype=complex))


# --- family II ----------------------------------------------------------------

def test_sep_II_verdicts_with_pinned_purities():
    phi2 = np.array([0, 0, 1], dtype=complex)
    v = classify_sep_II(phi2)
    assert v.set is SepClass.SEP_II_ONLY
    assert abs(v.diagnostics["margin"]) < 1e-12  # 2 ||rho - 1/2||
    assert abs(brute_purity(phi2) - 0.5) < 1e-12

    v = classify_sep_II(np.array([1, 0, 0], dtype=complex))
    assert v.set is SepClass.SEP_I

    mixed = np.array([1, 0, 1], dtype=complex) / np.sqrt(2)
    v = classify_sep_II(mixed)
    assert v.set is SepClass.ENTANGLED_II
    assert abs(v.diagnostics["margin"] - np.sqrt(3) / 2) < 1e-12
    assert abs(brute_purity(mixed) - 7 / 8) < 1e-12


def test_sep_II_purity_matches_brute_force_on_random_states():
    # the margin is the eigenvalue gap of rho, so margin^2 = 2 purity - 1
    for _ in range(50):
        psi = rand_vec(3)
        v = classify_sep_II(psi)
        assert abs(v.diagnostics["margin"] ** 2 - (2 * brute_purity(psi) - 1)) < 1e-12


def test_sep_I_subset_of_sep_II():
    rng = np.random.default_rng(5)
    for _ in range(100):
        psi = sample_separable("I", rng)
        assert classify_sep_II(psi).set is SepClass.SEP_I


# --- family III ----------------------------------------------------------------

def test_sep_III_examples():
    assert classify_sep_III(symmetrize_product(L0, R1)).set is SepClass.SEP_III
    assert classify_sep_III(symmetrize_product(L0, L1)).set is SepClass.ENTANGLED_III
    rr_only = symmetrize_product(R0, R0) + 0.5 * symmetrize_product(R0, R1)
    v = classify_sep_III(rr_only)
    assert v.set is SepClass.SEP_III
    assert v.diagnostics == {"margin": 0.0}  # no L-span reduction: separable by convention


def test_ll_embedding_maps_family_I_to_family_III():
    rng = np.random.default_rng(17)
    for k in range(60):
        psi3 = sample_separable("I", rng) if k % 2 == 0 else rand_vec(3, rng)
        psi3 /= np.linalg.norm(psi3)
        want_sep = classify_sep_I(psi3).set is SepClass.SEP_I
        got = classify_sep_III(embed_ll(psi3)).set
        assert got is (SepClass.SEP_III if want_sep else SepClass.ENTANGLED_III)


# --- mode ----------------------------------------------------------------------

def test_mode_examples():
    assert classify_mode(np.array([0, 0, 1], dtype=complex)).set is SepClass.MODE_SEP
    two = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
    assert classify_mode(two).set is SepClass.MODE_ENT
    # three-particle sector of two modes: occupation (2,1) is one basis vector
    n3 = np.array([0, 1, 0, 0], dtype=complex)
    assert classify_mode(n3).set is SepClass.MODE_SEP


# --- ssr -----------------------------------------------------------------------

def test_ssr_examples():
    assert classify_ssr(symmetrize_product(L0, L1)).set is SepClass.SSR_SEP
    swapped = symmetrize_product(L0, R1) + symmetrize_product(L1, R0)
    v = classify_ssr(swapped)
    assert v.set is SepClass.SSR_ENT
    assert np.allclose(lr_block(swapped), np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    assert classify_ssr(symmetrize_product(L0, R1)).set is SepClass.SSR_SEP


def test_ssr_matches_family_III_on_lr_only_states():
    rng = np.random.default_rng(23)
    for _ in range(50):
        psi = np.zeros(10, dtype=complex)
        psi[[2, 3, 5, 6]] = rand_vec(4, rng)
        assert (classify_ssr(psi).set is SepClass.SSR_SEP) == (
            classify_sep_III(psi).set is SepClass.SEP_III
        )


def test_ssr_and_III_share_one_tolerance_on_lr_only_states():
    # on LR-only states the two margins are one quantity, so one tolerance
    # gives one verdict on both sides of it
    rng = np.random.default_rng(41)
    eps = 10.0 ** np.linspace(-11, -7, 81)[:, None]
    for _ in range(5):
        product = np.outer(rand_vec(2, rng), rand_vec(2, rng))
        delta = rand_vec(4, rng)
        block = product.ravel() / np.linalg.norm(product) + eps * delta / np.linalg.norm(delta)
        states = np.zeros((len(eps), 10), dtype=complex)
        states[:, [2, 3, 5, 6]] = block
        ssr, iii = classify_states("ssr", states), classify_states("III", states)
        margins = np.array([v.diagnostics["margin"] for v in ssr])
        assert np.allclose(margins, [v.diagnostics["margin"] for v in iii], rtol=1e-6, atol=1e-15)
        clear = np.abs(margins / 1e-9 - 1) > 0.01
        members = np.array([v.separable for v in ssr])
        assert np.array_equal(members[clear], np.array([v.separable for v in iii])[clear])
        assert members[margins < 0.99e-9].all() and not members[margins > 1.01e-9].any()
        assert ((margins > 1.01e-9) & (margins <= 1e-8)).any()


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, 1.0, 2.0])
def test_a_tolerance_that_cannot_decide_a_verdict_is_refused(eps):
    # every margin is at most 1, and NaN compares false with every margin
    with pytest.raises(ValueError, match="tolerances must lie in"):
        Tolerances(eps)


@pytest.mark.parametrize("eps", [1e-300, 1e-9, 0.5, 1 - 2**-53])
def test_a_tolerance_inside_the_unit_interval_is_taken(eps):
    assert Tolerances(eps).eps_class == eps


# --- samplers --------------------------------------------------------------------

SAMPLER_SEEDS = {"I": 1871, "II": 1872, "III": 1873, "mode": 1874, "ssr": 1875}


@pytest.mark.parametrize("kind", ["I", "II", "III", "mode", "ssr"])
def test_samplers_pass_their_classifiers(kind):
    rng = np.random.default_rng(SAMPLER_SEEDS[kind])
    for _ in range(50):
        psi = sample_separable(kind, rng)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        assert classify(kind, psi).separable
    states = family(kind).sample(rng, 200)
    assert np.allclose(np.linalg.norm(states, axis=1), 1, atol=1e-12)
    assert all(v.separable for v in classify_states(kind, states))


def test_samples_are_the_same_bytes_on_the_prescott_kernels_of_openblas():
    """A child interpreter on OpenBLAS's Prescott kernels samples the bytes this process does.

    Every family state is built elementwise, with no matrix product, so no
    BLAS kernel set can round a sample differently.  Where numpy's OpenBLAS
    is not a DYNAMIC_ARCH x86 build, ``OPENBLAS_CORETYPE`` selects nothing
    and the test passes trivially.
    """
    script = (
        "import hashlib, numpy as np\n"
        "from entloc.separability import family\n"
        "for kind, seed in {seeds!r}.items():\n"
        "    print(hashlib.sha256(family(kind).sample(np.random.default_rng(seed), 1000).tobytes()).hexdigest())\n"
    ).format(seeds=SAMPLER_SEEDS)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": src}
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    here = [
        hashlib.sha256(family(kind).sample(np.random.default_rng(seed), 1000).tobytes()).hexdigest()
        for kind, seed in SAMPLER_SEEDS.items()
    ]
    assert dict(zip(SAMPLER_SEEDS, child.stdout.split())) == dict(zip(SAMPLER_SEEDS, here))


def test_sampler_is_deterministic_per_seed():
    a = sample_separable("III", np.random.default_rng(4242))
    b = sample_separable("III", np.random.default_rng(4242))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["I", "II", "III", "ssr", "mode"])
def test_stacked_build_rounds_as_one_row_builds(kind):
    # the witness search builds its start states as one (n, 1, 1 + k) stack
    fam = family(kind, FockSpace(6) if kind == "mode" else None)
    rng = np.random.default_rng(SAMPLER_SEEDS[kind])
    P = fam.draw(rng, 40)
    stacked = fam.build(P[:, None, :])[:, 0]
    for j in range(len(P)):
        assert stacked[j].tobytes() == fam.build(P[j : j + 1])[0].tobytes()
    # an audit normalizes (p, m, 1 + k) blocks, and its report builds the winning row alone
    for p, m in [(1, 1024), (7, 33), (1024, 1), (2, 1030)]:
        P = fam.draw(rng, p * m).reshape(p, m, -1)
        block = fam.build_normalized(P).reshape(p * m, -1)
        rows = P.reshape(p * m, -1)
        assert [s.tobytes() for s in block] == [fam.build_normalized(r[None])[0].tobytes() for r in rows]


def dense_headroom_family(n_max):
    """The mode family of 0.22.0, kept as its reference: every headroom occupation state
    (total number at most ``n_max - 2``) as one dense ``(branches, dim)`` stack, indexed by branch,
    built from the basis tuple and index dict that ``FockSpace`` held then."""
    basis = tuple((n0, n1) for n0 in range(n_max + 1) for n1 in range(n_max + 1 - n0))
    index = {occ: k for k, occ in enumerate(basis)}
    states = []
    for occ in basis:
        if sum(occ) <= n_max - 2:
            v = np.zeros(len(basis), dtype=complex)
            v[index[occ]] = 1.0
            states.append(v)
    states = np.asarray(states, dtype=complex)
    return Family(len(states), 0, lambda branch, c: states[branch])


@pytest.mark.parametrize("n_max", [2, 4, 12, 44])
def test_the_mode_family_builds_the_dense_headroom_states_byte_for_byte(n_max):
    space = FockSpace(n_max)
    fam, dense = family("mode", space), dense_headroom_family(n_max)
    assert fam.branches == dense.branches and fam.dim == space.dim
    assert not fam.slots.flags.writeable
    P = np.arange(fam.branches, dtype=float)[:, None]
    assert fam.build_normalized(P).tobytes() == dense.build_normalized(P).tobytes()
    for row in P:  # one-row builds, as the report and the witness make
        assert fam.build_normalized(row[None]).tobytes() == dense.build_normalized(row[None]).tobytes()
    # the family without a Fock space is the three two-particle occupation states, by slot
    three = family("mode")
    assert three.build_normalized(np.arange(3.0)[:, None]).tobytes() == np.eye(3, dtype=complex).tobytes()


def build_every_branch_then_select(kind, P):
    """Reference build of 0.5.0: every piece on every row, then row i keeps piece ``branch[i]``."""
    branch, c = P[..., 0].astype(int), P[..., 1::2] + 1j * P[..., 2::2]
    if kind == "mode":
        pieces = [np.broadcast_to(e, (*branch.shape, 3)) for e in np.eye(3, dtype=complex)]
    elif kind == "ssr":
        zero = np.zeros((*c.shape[:-1], 2), dtype=complex)
        lr = symmetrize_product(
            np.concatenate([c[..., 0:2], zero], axis=-1), np.concatenate([zero, c[..., 2:4]], axis=-1)
        )
        ll, rr = np.zeros_like(lr), np.zeros_like(lr)
        ll[..., list(SECTOR_SLOTS["LL"])] = rr[..., list(SECTOR_SLOTS["RR"])] = c[..., :3]
        pieces = [ll, lr, rr]
    elif kind == "III":
        pieces = [sep_III_state(c[..., 0:2], c[..., 2], c[..., 3:5], c[..., 5:8])]
    else:
        pieces = [sep_I_state(c[..., 0], c[..., 1]), sep_II_orthogonal_state(c[..., 0], c[..., 1])]
        pieces = pieces[: 2 if kind == "II" else 1]
    d = pieces[0].shape[-1]
    rows = np.stack(pieces, axis=-2).reshape(branch.size, len(pieces), d)
    return rows[np.arange(branch.size), branch.ravel()].reshape(*branch.shape, d)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["I", "II", "III", "mode", "ssr"]),
    shape=st.one_of(
        st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 4), st.integers(1, 12))
    ),
    lone=st.booleans(),
    exponent=st.integers(-150, 150),
    seed=st.integers(0, 2**16),
)
def test_build_equals_every_branch_then_select(kind, shape, lone, exponent, seed):
    # each branch is built only on its own rows; a branch that owns a single
    # row (lone) must still round as in the whole-batch build
    rng = np.random.default_rng(seed)
    fam = family(kind)
    P = fam.draw(rng, int(np.prod(shape))).reshape(*shape, 1 + fam.n_real)
    P[..., 1:] *= 10.0**exponent
    if lone and fam.branches > 1:
        main, other = rng.choice(fam.branches, size=2, replace=False)
        P[..., 0] = main
        P.reshape(-1, 1 + fam.n_real)[rng.integers(P[..., 0].size), 0] = other
    assert fam.build(P).tobytes() == build_every_branch_then_select(kind, P).tobytes()


def test_orthogonal_branch_purity_is_half():
    rng = np.random.default_rng(8)
    for _ in range(50):
        c0, c1 = rand_vec(2, rng)
        psi = sep_II_orthogonal_state(c0, c1)
        if np.linalg.norm(psi) < 1e-6:
            continue
        assert abs(brute_purity(psi) - 0.5) < 1e-10


def test_family_III_states_have_rank_one_reductions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        sigma = rand_vec(2, rng)
        sigma /= np.linalg.norm(sigma)
        psi = sep_III_state(sigma, rand_vec(1, rng)[0], rand_vec(2, rng), rand_vec(3, rng))
        v = classify_sep_III(psi / np.linalg.norm(psi))
        assert v.separable
        assert v.diagnostics["margin"] < 1e-10


def test_full_family_ssr_sampler_is_still_separable():
    # sector-coherent LL + LR + RR superpositions, with a product LR block
    rng = np.random.default_rng(10)
    for _ in range(30):
        psi = symmetrize_product(
            np.concatenate([rand_vec(2, rng), [0, 0]]), np.concatenate([[0, 0], rand_vec(2, rng)])
        )
        psi[list(SECTOR_SLOTS["LL"])] = rand_vec(3, rng)
        psi[list(SECTOR_SLOTS["RR"])] = rand_vec(3, rng)
        assert classify_ssr(psi).set is SepClass.SSR_SEP


# --- scale covariance -------------------------------------------------------------

@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    scale=st.floats(-3, 3),
    phase=st.floats(0, 2 * np.pi),
    seed=st.integers(0, 2**16),
)
def test_classifier_scale_covariance(scale, phase, seed):
    lam = 10.0**scale * np.exp(1j * phase)
    rng = np.random.default_rng(seed)
    psi3 = rand_vec(3, rng)
    psi10 = rand_vec(10, rng)
    assert classify_sep_I(psi3).set is classify_sep_I(lam * psi3).set
    assert classify_sep_II(psi3).set is classify_sep_II(lam * psi3).set
    assert classify_mode(psi3).set is classify_mode(lam * psi3).set
    assert classify_sep_III(psi10).set is classify_sep_III(lam * psi10).set
    assert classify_ssr(psi10).set is classify_ssr(lam * psi10).set


def margin_bytes(verdicts) -> list:
    return [(v.set, {k: np.float64(x).tobytes() for k, x in v.diagnostics.items()}) for v in verdicts]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["I", "II", "III", "mode", "ssr"]),
    k=st.integers(-1000, 1000),
    members=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_of_two_scales_keep_verdicts_and_margin_bytes(kind, k, members, seed):
    rng = np.random.default_rng(seed)
    psi = family(kind).sample(rng, 20)
    if not members:
        psi = rand_vec(psi.size, rng).reshape(psi.shape)
    assert margin_bytes(classify_states(kind, 2.0**k * psi)) == margin_bytes(classify_states(kind, psi))


def test_a_state_near_the_overflow_line_keeps_its_verdict():
    # s1^2 + s2^2 overflowed to inf at this scale, and the margin read 0
    rng = np.random.default_rng(5)
    psi = np.concatenate([family("III").sample(rng, 500), rand_vec(5000, rng).reshape(500, 10)])
    unscaled = classify_states("III", psi)
    assert unscaled[507].set is SepClass.ENTANGLED_III and unscaled[507].diagnostics["margin"] > 0.8
    assert margin_bytes(classify_states("III", 2.0**509 * psi)) == margin_bytes(unscaled)


def test_cross_check_guard_fires_on_divergent_routes(monkeypatch):
    # the two family-I routes agree for every actual state, so exercise the
    # guard by faking the Gram quantities (s1^2 + s2^2, s1^2 - s2^2, s1 s2):
    # rank one for a clearly non-member state, then s1 = s2 for a member
    import entloc.separability as sepmod

    monkeypatch.setattr(sepmod, "_gram", lambda M: (np.array([1.0]), np.array([1.0]), np.array([0.0])))
    with pytest.raises(ConsistencyError):
        classify_sep_II(np.array([0, 0, 1], dtype=complex))
    monkeypatch.setattr(sepmod, "_gram", lambda M: (np.array([1.0]), np.array([0.0]), np.array([0.5])))
    with pytest.raises(ConsistencyError):
        classify_sep_II(np.array([1, 0, 0], dtype=complex))


# --- preservation quartic ----------------------------------------------------------

def test_quartic_identity_is_tautology():
    assert solve_preservation_quartic(np.eye(3, dtype=complex), 1.0).tautology


def test_quartic_of_pair_squares_is_tautology():
    for _ in range(20):
        O = rand_vec(4).reshape(2, 2)
        assert solve_preservation_quartic(construct_sep_I_preserver(O), 1.0).tautology


def test_quartic_symmetrized_one_body_roots():
    A = sym_one_body(PAULI[1])
    out = solve_preservation_quartic(A, 1.0)
    assert not out.tautology
    assert np.allclose(np.sort_complex(out.roots), [-1, -1, 1, 1], atol=1e-6)
    assert out.residuals.max() <= 1e-10


def test_quartic_with_no_roots():
    A = np.zeros((3, 3), dtype=complex)
    A[2, 0] = 1.0  # membership polynomial reduces to c0^4
    out = solve_preservation_quartic(A, 1.0)
    assert not out.tautology
    assert out.roots.size == 0


def test_quartic_double_root_at_zero():
    # the membership polynomial is -2 c0^2 c1^2: c1 = 0 twice, both exact
    out = solve_preservation_quartic(np.diag([1.0, 1.0, 0.0]).astype(complex), 1.0)
    assert not out.tautology
    assert out.roots.tolist() == [0j, 0j]
    assert out.residuals.tolist() == [0.0, 0.0]


def test_quartic_requires_nonzero_c0():
    with pytest.raises(ValueError):
        solve_preservation_quartic(np.eye(3, dtype=complex), 0.0)


def test_quartic_requires_a_3x3_operator():
    with pytest.raises(ValueError, match="expected a 3x3 operator"):
        solve_preservation_quartic(np.eye(2), 1.0)


def test_quartic_roots_solve_the_membership_condition():
    rng = np.random.default_rng(31)
    for _ in range(25):
        A = rand_vec(9, rng).reshape(3, 3)
        for c0 in (1.0, 2.0):
            out = solve_preservation_quartic(A, c0)
            assert not out.tautology
            assert out.residuals.max() <= 1e-10
            for c1 in out.roots:
                image = A @ sep_I_state(c0, c1)
                rel = abs(sep_I_discriminant(image)) / max(np.vdot(image, image).real, 1e-30)
                if np.vdot(image, image).real > 1e-12:
                    assert rel < 1e-6


def test_quartic_solutions_span_the_space_small():
    rng = np.random.default_rng(77)
    for _ in range(20):
        A = rand_vec(9, rng).reshape(3, 3)
        states = []
        for c0 in (1.0, 2.0, 3.0):
            out = solve_preservation_quartic(A, c0)
            states.extend(sep_I_state(c0, c1) for c1 in out.roots)
        stack = np.array(states)
        s = np.linalg.svd(stack, compute_uv=False)
        assert s.size >= 3 and s[2] / s[0] > 1e-6


# --- margins ---------------------------------------------------------------------

FAMILY_KINDS = ["I", "II", "III", "mode", "ssr"]


def boundary_states(kind, rng, n):
    """``n`` members of ``kind`` on its hardest boundary, and unit directions off it."""
    fam = family(kind)
    P = fam.draw(rng, n)
    if kind in ("II", "ssr"):
        P[:, 0] = 1  # the orthogonal-pair branch; the LR sector
    psi = fam.build_normalized(P)
    delta = rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape)
    return psi, delta / np.linalg.norm(delta, axis=1, keepdims=True)


def test_boundary_defects_flip():
    # both quadratic diagnostics read about 2e-11 here, below eps_class
    rng = np.random.default_rng(2024)
    delta = rand_vec(3, rng)
    delta /= np.linalg.norm(delta)
    pair = sep_II_orthogonal_state(0.6, 0.8) / np.linalg.norm(sep_II_orthogonal_state(0.6, 0.8))
    assert classify_sep_II(pair).set is SepClass.SEP_II_ONLY
    v = classify_sep_II(pair + 1e-5 * delta)
    assert v.set is SepClass.ENTANGLED_II
    assert 1e-6 < v.diagnostics["margin"] < 1e-4
    square = sep_I_state(0.6, 0.8) + 1e-5 * delta
    assert classify_sep_I(square).set is SepClass.ENTANGLED_I
    v = classify_sep_III(embed_ll(square))
    assert v.set is SepClass.ENTANGLED_III
    assert 1e-6 < v.diagnostics["margin"] < 1e-4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    # log-uniform eps over [1e-13, 1e-3], on a grid of 1e-4 decades so that
    # neighbouring eps differ by far more than the margins' rounding
    exponents=st.lists(st.integers(-130_000, -30_000), min_size=2, max_size=16, unique=True),
)
def test_verdicts_are_monotone_across_each_family_boundary(seed, exponents):
    rng = np.random.default_rng(seed)
    eps = np.sort(10.0 ** (np.asarray(exponents) / 1e4))[:, None]
    for kind in FAMILY_KINDS:
        psi, delta = boundary_states(kind, rng, 1)
        states = psi + eps * delta
        verdicts = classify_states(kind, states)
        members = [v.separable for v in verdicts]
        assert members == sorted(members, reverse=True), (kind, members)
        if kind == "I":
            in_I = [v.set is SepClass.SEP_I for v in verdicts]
            assert in_I == [v.set is SepClass.SEP_I for v in classify_states("II", states)]
            # embed_ll maps the I verdict to the III verdict away from the cut
            disc = np.array([v.diagnostics["discriminant"] for v in verdicts])
            lifted = classify_states("III", embed_ll(states))
            margin = np.array([v.diagnostics["margin"] for v in lifted])
            clear = (np.abs(disc / 1e-9 - 1) > 0.01) & (np.abs(margin / 1e-9 - 1) > 0.01)
            assert np.array_equal(np.array(in_I)[clear], np.array([v.separable for v in lifted])[clear])


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_batched_margins_equal_one_row_calls_bit_for_bit(kind):
    rng = np.random.default_rng(SAMPLER_SEEDS[kind] + 100)
    sampled = family(kind).sample(rng, 200)
    generic = rand_vec(sampled.size, rng).reshape(sampled.shape)
    for states in (sampled, generic):
        batch = classify_states(kind, states)
        for psi, v in zip(states, batch):
            one = classify(kind, psi)
            assert (one.set, one.parameters) == (v.set, v.parameters)
            assert one.diagnostics.keys() == v.diagnostics.keys()
            for key, x in one.diagnostics.items():
                assert np.float64(x).tobytes() == np.float64(v.diagnostics[key]).tobytes()


def svd_margins(kind, psi):
    """The deciding margins of ``classify_states`` through ``np.linalg.svd``: II's
    orthogonal-pair margin, or III's and ssr's rank-one margin, per state."""
    if kind == "ssr":
        M = lr_block(psi)
    else:
        d = {3: 2, 10: 4}[psi.shape[1]]
        M = np.stack([psi @ pi_reduction_matrix(e).T for e in np.eye(d)[:2]], axis=-1)
    s = np.linalg.svd(M, compute_uv=False)
    total = s[:, 0] ** 2 + s[:, 1] ** 2
    if kind == "II":
        return (s[:, 0] ** 2 - s[:, 1] ** 2) / total
    live = s[:, 0] > EPS_STATE * np.linalg.norm(psi, axis=1)
    return np.where(live, 2 * s[:, 0] * s[:, 1] / np.where(live, total, 1.0), 0.0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    # distances off the family, log-uniform over [1e-15, 1e-1]
    exponents=st.lists(st.floats(-15, -1), min_size=4, max_size=4),
)
def test_gram_margins_match_singular_values(seed, exponents):
    # 12 states per family and example: members, members moved off the family
    # by 10^exponent, and generic states
    rng = np.random.default_rng(seed)
    eps = Tolerances().eps_class
    for kind in ("II", "III", "ssr"):
        members = family(kind).sample(rng, 8)
        directions = rand_vec(members[4:].size, rng).reshape(4, -1)
        off = members[4:] + 10.0 ** np.asarray(exponents)[:, None] * directions
        psi = np.concatenate([members[:4], off, rand_vec(members[:4].size, rng).reshape(4, -1)])
        psi = psi / np.max(np.abs(psi), axis=1, keepdims=True)
        verdicts = classify_states(kind, psi)
        got = np.array([v.diagnostics["margin"] for v in verdicts])
        want = svd_margins(kind, psi)
        assert np.max(np.abs(got - want)) <= 1e-12, kind
        member, other = {
            "II": (SepClass.SEP_II_ONLY, SepClass.ENTANGLED_II),
            "III": (SepClass.SEP_III, SepClass.ENTANGLED_III),
            "ssr": (SepClass.SSR_SEP, SepClass.SSR_ENT),
        }[kind]
        # in II, family I decides first, by the discriminant
        want_sets = [SepClass.SEP_I if v.set is SepClass.SEP_I else member if w <= eps else other
                     for v, w in zip(verdicts, want)]
        clear = (want < eps / 10) | (want > 10 * eps)
        assert [v.set for v, c in zip(verdicts, clear) if c] == [w for w, c in zip(want_sets, clear) if c], kind


def test_margins_stay_at_rounding_level_on_sampled_members():
    rng = np.random.default_rng(4711)
    for kind in FAMILY_KINDS:
        for v in classify_states(kind, family(kind).sample(rng, 2000)):
            deciding = "discriminant" if v.set is SepClass.SEP_I else "margin"
            assert v.diagnostics[deciding] <= 1e-14
