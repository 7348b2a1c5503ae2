"""Membership classifiers and seeded samplers for the five separable sets.

Separable families for two bosons:

* ``I``    - both particles in the same single-particle superposition,
  amplitudes ``(c0^2, c1^2, sqrt(2) c0 c1)`` in the symmetric basis;
* ``II``   - family I together with symmetrized pairs of orthogonal
  superpositions;
* ``III``  - four-level states whose reduced single-particle density matrix
  relative to the L-span is a one-dimensional projector (pure-RR states are
  included by convention);
* ``mode`` - a single occupation-number basis vector;
* ``ssr``  - sector-wise mode-separable: LL and RR blocks free, LR block a
  product of an L-side and an R-side superposition.

Classifiers are scale covariant: verdicts do not change under
``psi -> lambda * psi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConsistencyError, ConvergenceError, ZeroNormError
from .hilbert import (
    EPS_STATE,
    SECTOR_SLOTS,
    FockSpace,
    check_state,
    partial_trace_second_particle,
    purity,
    reduced_single_particle_dm,
    symmetrize_product,
)
from .roots import all_roots, normalized_residuals


class SepClass(Enum):
    SEP_I = "SepI"
    ENTANGLED_I = "EntangledI"
    SEP_II_ONLY = "SepIIOnly"
    ENTANGLED_II = "EntangledII"
    SEP_III = "SepIII"
    ENTANGLED_III = "EntangledIII"
    MODE_SEP = "ModeSep"
    MODE_ENT = "ModeEnt"
    SSR_SEP = "SsrSep"
    SSR_ENT = "SsrEnt"


SEPARABLE_CLASSES = frozenset(
    {SepClass.SEP_I, SepClass.SEP_II_ONLY, SepClass.SEP_III, SepClass.MODE_SEP, SepClass.SSR_SEP}
)


@dataclass(frozen=True)
class Tolerances:
    """Classification thresholds (relative to state scale)."""

    eps_class: float = 1e-9
    eps_rank: float = 1e-8

    def __post_init__(self):
        if self.eps_class <= 0 or self.eps_rank <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()


@dataclass
class SeparabilityVerdict:
    set: SepClass
    parameters: tuple | None = None
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def separable(self) -> bool:
        return self.set in SEPARABLE_CLASSES


# ---------------------------------------------------------------------------
# family constructors

def sep_I_state(c0: complex, c1: complex) -> np.ndarray:
    """Symmetric-basis amplitudes of ``(c0|0> + c1|1>)^{x2}`` (unnormalized).

    Array coefficients give one state per entry, along a new last axis.
    """
    c0 = np.asarray(c0, dtype=complex)
    c1 = np.asarray(c1, dtype=complex)
    return np.stack([c0 * c0, c1 * c1, np.sqrt(2.0) * c0 * c1], axis=-1)


def sep_II_orthogonal_state(c0: complex, c1: complex) -> np.ndarray:
    """Symmetrized pair of a superposition and its orthogonal complement."""
    psi = np.stack([c0, c1], axis=-1)
    perp = np.stack([np.conj(c1), -np.conj(c0)], axis=-1)
    return symmetrize_product(psi, perp)


def sep_III_state(
    sigma: np.ndarray, a: complex, chi: np.ndarray, rr: np.ndarray
) -> np.ndarray:
    """Member of family III: one L-direction, an LR pair, and a free RR part.

    ``sigma`` is the internal direction of the left particle(s), ``a`` the
    doubly occupied L amplitude, ``chi`` the (unnormalized) internal state of
    the right partner, ``rr`` the three free RR sector amplitudes.  The
    scale of ``sigma`` can be absorbed into ``a`` and ``chi``, so any nonzero
    ``sigma`` gives a member.  Leading axes give a stack of states.
    """
    sigma = np.asarray(sigma, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    a = np.asarray(a, dtype=complex)[..., None]
    v_l = np.concatenate([sigma, np.zeros_like(sigma)], axis=-1)
    v_r = np.concatenate([np.zeros_like(chi), chi], axis=-1)
    # S(v_l, v_l) a + S(v_l, v_r) in one product: S is bilinear
    psi = symmetrize_product(v_l, a * v_l + v_r)
    psi[..., list(SECTOR_SLOTS["RR"])] += np.asarray(rr, dtype=complex)
    return psi


def embed_ll(psi3: np.ndarray) -> np.ndarray:
    """Embed a two-level pair state into the LL sector of the four-level space."""
    psi3 = np.asarray(psi3, dtype=complex)
    out = np.zeros(10, dtype=complex)
    out[0] = psi3[0]  # (L0,L0)
    out[4] = psi3[1]  # (L1,L1)
    out[1] = psi3[2]  # (L0,L1) pair
    return out


def lr_block(psi10: np.ndarray) -> np.ndarray:
    """2x2 matrix of LR pair amplitudes, rows = L level, cols = R level."""
    psi10 = np.asarray(psi10, dtype=complex)
    return np.array([[psi10[2], psi10[3]], [psi10[5], psi10[6]]], dtype=complex)


# ---------------------------------------------------------------------------
# classifiers

def sep_I_discriminant(psi: np.ndarray) -> complex:
    """``<pair|psi>^2 - 2 <00|psi><11|psi>``; zero exactly on family I."""
    return psi[2] * psi[2] - 2.0 * psi[0] * psi[1]


def classify_sep_I(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Family-I membership via the discriminant, recovering ``(c0, c1)``.

    The recovered parameters are canonical up to a global sign.
    """
    psi = np.asarray(psi, dtype=complex)
    norm2 = check_state(psi)
    disc = sep_I_discriminant(psi)
    rel = abs(disc) / norm2
    if rel > tol.eps_class:
        return SeparabilityVerdict(SepClass.ENTANGLED_I, None, {"discriminant": rel})
    c0 = np.sqrt(complex(psi[0]))
    c1 = np.sqrt(complex(psi[1]))
    # the cross amplitude carries the relative sign the square roots lose
    if abs(c0) >= abs(c1):
        if abs(c0) > 0:
            c1 = psi[2] / (np.sqrt(2.0) * c0)
    elif abs(c1) > 0:
        c0 = psi[2] / (np.sqrt(2.0) * c1)
    return SeparabilityVerdict(SepClass.SEP_I, (complex(c0), complex(c1)), {"discriminant": rel})


def classify_sep_II(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Family-II membership via reduced-state purity, cross-checked.

    Purity 1 means family I, purity 1/2 the orthogonal-pair branch,
    anything else is entangled-II.  The purity and discriminant routes must
    agree on family-I membership; divergence raises
    :class:`~entloc.errors.ConsistencyError`.
    """
    psi = np.asarray(psi, dtype=complex)
    check_state(psi)
    p = purity(partial_trace_second_particle(psi))
    by_disc = classify_sep_I(psi, tol)
    diag = {"purity": p, "discriminant": by_disc.diagnostics["discriminant"]}
    if by_disc.set is SepClass.SEP_I:
        if abs(p - 1.0) > tol.eps_class:
            raise ConsistencyError(
                f"discriminant passes family I but purity is {p!r}; the two tests diverged"
            )
        return SeparabilityVerdict(SepClass.SEP_I, by_disc.parameters, diag)
    # purity relates to the discriminant by 1 - p = disc^2/2 on normalized
    # states, so a clear pass on one side with a clear fail on the other is a
    # convention bug, not boundary noise
    if abs(p - 1.0) <= tol.eps_class and diag["discriminant"] > 10.0 * np.sqrt(2.0 * tol.eps_class):
        raise ConsistencyError(
            f"purity {p!r} indicates family I but the discriminant is "
            f"{diag['discriminant']:.3e}; the two tests diverged"
        )
    if abs(p - 0.5) <= tol.eps_class:
        return SeparabilityVerdict(SepClass.SEP_II_ONLY, None, diag)
    return SeparabilityVerdict(SepClass.ENTANGLED_II, None, diag)


def classify_sep_III(
    psi: np.ndarray, k_basis: np.ndarray | None = None, tol: Tolerances = DEFAULT_TOL
) -> SeparabilityVerdict:
    """Family-III membership: the reduced matrix is a one-dimensional projector.

    States with no support reachable by subspace reductions (pure RR states
    for the default L-span) are separable by convention.
    """
    psi = np.asarray(psi, dtype=complex)
    check_state(psi)
    rho = reduced_single_particle_dm(psi, k_basis)
    if rho is None:
        return SeparabilityVerdict(SepClass.SEP_III, None, {"sector_only": 1.0})
    defect = float(np.linalg.norm(rho @ rho - rho, 2))
    cls = SepClass.SEP_III if defect <= tol.eps_class else SepClass.ENTANGLED_III
    return SeparabilityVerdict(cls, None, {"idempotency_defect": defect, "sector_only": 0.0})


def classify_mode(amps: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Mode separability: a single occupation-basis amplitude dominates."""
    amps = np.asarray(amps, dtype=complex)
    norm2 = check_state(amps)
    significant = int(np.sum(np.abs(amps) > tol.eps_class * np.sqrt(norm2)))
    dominant = float(np.max(np.abs(amps)) ** 2 / norm2)
    cls = SepClass.MODE_SEP if significant == 1 else SepClass.MODE_ENT
    return SeparabilityVerdict(cls, None, {"significant": float(significant), "dominant_weight": dominant})


def classify_ssr(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Sector-superselected separability: the LR amplitude block has rank one."""
    psi = np.asarray(psi, dtype=complex)
    norm2 = check_state(psi)
    s = np.linalg.svd(lr_block(psi), compute_uv=False)
    diag = {"lr_sv_1": float(s[0]), "lr_sv_2": float(s[1])}
    if s[0] <= EPS_STATE * np.sqrt(norm2) or s[1] <= tol.eps_rank * s[0]:
        return SeparabilityVerdict(SepClass.SSR_SEP, None, diag)
    return SeparabilityVerdict(SepClass.SSR_ENT, None, diag)


CLASSIFIERS = {
    "I": classify_sep_I,
    "II": classify_sep_II,
    "III": classify_sep_III,
    "mode": classify_mode,
    "ssr": classify_ssr,
}


def classify(kind: str, psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Dispatch to the classifier of one separable family."""
    return CLASSIFIERS[canonical_set_name(kind)](psi, tol=tol)


def canonical_set_name(kind: str) -> str:
    name = {"i": "I", "ii": "II", "iii": "III", "mode": "mode", "ssr": "ssr"}.get(str(kind).lower())
    if name is None:
        raise ValueError(f"unknown separable set {kind!r}; expected I, II, III, mode or ssr")
    return name


# ---------------------------------------------------------------------------
# family parametrizations and samplers

@dataclass(frozen=True)
class Family:
    """The one parametrization of a separable family.

    A parameter row is ``(branch, x_1, ..., x_k)``: ``branch`` picks one of
    ``branches`` discrete pieces of the family (the orthogonal-pair branch
    of II, the spatial sector of ssr, the occupation state of mode) and the
    ``k = n_real`` real coordinates pair up into the complex coefficients of
    that piece, so every row with an integer branch builds a state exactly
    inside the family.
    """

    branches: int
    n_real: int
    pieces: Callable[[np.ndarray, np.ndarray], np.ndarray]
    """``(branches (...,), coefficients (..., k/2))`` -> ``(..., d)`` unnormalized states."""

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` parameter rows: uniform branches, standard normal coordinates."""
        return np.column_stack(
            [rng.integers(self.branches, size=n), rng.normal(size=(n, self.n_real))]
        )

    def build(self, P: np.ndarray) -> np.ndarray:
        """``(..., 1 + n_real)`` parameter rows -> ``(..., d)`` unnormalized states.

        numpy rounds the rows of an ``(n, 1 + n_real)`` batch one way (a
        matrix product) and a one-row batch another (a vector product).  The
        rows of an ``(n, 1, 1 + n_real)`` stack are vector products, so each
        builds bit for bit as a one-row batch.
        """
        return self.pieces(P[..., 0].astype(int), P[..., 1::2] + 1j * P[..., 2::2])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``(n, d)`` normalized states from one draw of ``n`` parameter rows.

        The draw is deterministic given the generator state, and every
        state passes its family's classifier.
        """
        states = self.build(self.draw(rng, n))
        norms = np.linalg.norm(states, axis=1, keepdims=True)
        if np.any(norms <= EPS_STATE):
            raise ZeroNormError("sampler produced a degenerate draw")
        states /= norms
        return states


def _by_branch(branch: np.ndarray, *pieces: np.ndarray) -> np.ndarray:
    """State ``i`` of ``pieces[branch[i]]``, over any leading axes."""
    shape = pieces[0].shape
    rows = np.stack(pieces, axis=-2).reshape(branch.size, len(pieces), shape[-1])
    return rows[np.arange(branch.size), branch.ravel()].reshape(shape)


def _in_slots(slots: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
    psi = np.zeros((*amps.shape[:-1], 10), dtype=complex)
    psi[..., list(slots)] = amps
    return psi


def _ssr_states(branch: np.ndarray, c: np.ndarray) -> np.ndarray:
    # one sector per state: sector-coherent superpositions are separable too,
    # but they carry classical inter-sector correlations
    zero = np.zeros((*c.shape[:-1], 2), dtype=complex)
    lr = symmetrize_product(
        np.concatenate([c[..., 0:2], zero], axis=-1), np.concatenate([zero, c[..., 2:4]], axis=-1)
    )
    ll, rr = (_in_slots(SECTOR_SLOTS[X], c[..., :3]) for X in ("LL", "RR"))
    return _by_branch(branch, ll, lr, rr)


def _occupation_family(states: np.ndarray) -> Family:
    states = np.asarray(states, dtype=complex)
    return Family(len(states), 0, lambda branch, c: states[branch])


FAMILIES = {
    "I": Family(1, 4, lambda branch, c: sep_I_state(c[..., 0], c[..., 1])),
    "II": Family(2, 4, lambda branch, c: _by_branch(
        branch, sep_I_state(c[..., 0], c[..., 1]), sep_II_orthogonal_state(c[..., 0], c[..., 1])
    )),
    "III": Family(1, 16, lambda branch, c: sep_III_state(
        c[..., 0:2], c[..., 2], c[..., 3:5], c[..., 5:8]
    )),
    "mode": _occupation_family(np.eye(3)),
    "ssr": Family(3, 8, _ssr_states),
}
"""Parametrization per family; ``mode`` holds the two-particle states
``|2,0>, |0,2>, |1,1>`` in the symmetric basis."""


def family(kind: str, fock: FockSpace | None = None) -> Family:
    """The parametrization of one separable family.

    Given ``fock``, the ``mode`` family is instead the occupation states of
    that space with total number at most ``n_max - 2``: the headroom keeps
    degree-<=2 ladder polynomials exact under the truncation.
    """
    kind = canonical_set_name(kind)
    if kind != "mode" or fock is None:
        return FAMILIES[kind]
    headroom = [occ for occ in fock.basis if sum(occ) <= fock.n_max - 2]
    if not headroom:
        raise ValueError(
            f"mode states need n_max >= 2 for ladder-polynomial headroom, got {fock.n_max}"
        )
    return _occupation_family([fock.occupation_state(occ) for occ in headroom])


def sample_separable(kind: str, rng: np.random.Generator) -> np.ndarray:
    """Draw one normalized state from a separable family (see :meth:`Family.sample`)."""
    return family(kind).sample(rng, 1)[0]


# ---------------------------------------------------------------------------
# quartic membership polynomial

@dataclass
class QuarticRoots:
    """Roots of the family-I preservation quartic at fixed first coefficient."""

    tautology: bool
    roots: np.ndarray
    residuals: np.ndarray
    coefficients: np.ndarray


def solve_preservation_quartic(
    A: np.ndarray, c0: complex, taut_tol: float = 1e-12, residual_tol: float = 1e-10
) -> QuarticRoots:
    """Roots ``c1`` for which ``A`` maps the family-I state back into family I.

    The membership condition is a homogeneous quartic in ``(c0, c1)``; with
    ``c0`` fixed it is solved by simultaneous iteration plus one Newton
    polish.  When all five coefficients vanish (relative to ``||A||^2``) the
    condition holds identically and a tautology is reported instead.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (3, 3):
        raise ValueError("expected a 3x3 operator on the symmetric basis")
    c0 = complex(c0)
    if c0 == 0:
        raise ValueError("c0 must be nonzero")
    # u_i(c1) = <i| A |state(c0, c1)> as descending quadratics in c1
    u = [
        np.array([A[i, 1], np.sqrt(2.0) * c0 * A[i, 2], c0 * c0 * A[i, 0]], dtype=complex)
        for i in range(3)
    ]
    # convolve keeps the full length-5 coefficient vector even when leading
    # coefficients vanish (polymul would trim them)
    coeffs = np.convolve(u[2], u[2]) - 2.0 * np.convolve(u[0], u[1])
    scale = float(np.linalg.norm(A) ** 2) * max(1.0, abs(c0)) ** 4
    if np.all(np.abs(coeffs) <= taut_tol * scale):
        empty = np.zeros(0, dtype=complex)
        return QuarticRoots(True, empty, empty.real.copy(), coeffs)
    trimmed = np.array(coeffs)
    while trimmed.size > 1 and abs(trimmed[0]) <= taut_tol * scale:
        trimmed = trimmed[1:]
    if trimmed.size == 1:
        empty = np.zeros(0, dtype=complex)
        return QuarticRoots(False, empty, empty.real.copy(), coeffs)
    roots = all_roots(trimmed)
    residuals = normalized_residuals(trimmed, roots)
    if np.max(residuals) > residual_tol:
        raise ConvergenceError(
            f"quartic roots polished to residual {np.max(residuals):.2e} > {residual_tol:.1e}"
        )
    order = np.lexsort((roots.imag, roots.real))
    return QuarticRoots(False, roots[order], residuals[order], coeffs)
