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

Every classifier is the one-state case of :func:`classify_states`, which
gives each state of a stack its family's margin, a linear distance from the
family.  Classifiers are scale covariant: verdicts do not change under
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
    PAIR_WEIGHT,
    SECTOR_SLOTS,
    SECTORS,
    FockSpace,
    check_state,
    pi_reduction_matrix,
    sym_dim,
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
    """The classification threshold, relative to state scale.

    Every margin is at most 1, so only a finite ``0 < eps_class < 1`` can
    tell members from non-members.
    """

    eps_class: float = 1e-9

    def __post_init__(self):
        if not 0 < self.eps_class < 1:  # false for NaN too
            raise ValueError(f"tolerances must lie in (0, 1), got eps_class={self.eps_class!r}")


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
    the right partner, ``rr`` the three free RR sector amplitudes.  The scale
    of ``sigma`` can be absorbed into ``a`` and ``chi``, so any nonzero
    ``sigma`` gives a member.  Its LL slots are ``a`` times family I's
    amplitudes of ``sigma``, LR slot ``(L_i, R_j)`` is ``sigma_i chi_j /
    sqrt2`` and its RR slots ``rr``.  Leading axes give a stack of states.
    """
    sigma = np.asarray(sigma, dtype=complex)
    psi = embed_ll(np.asarray(a)[..., None] * sep_I_state(sigma[..., 0], sigma[..., 1]))
    psi[..., list(SECTOR_SLOTS["LR"])] = _lr_pairs(sigma, np.asarray(chi, dtype=complex))
    psi[..., list(SECTOR_SLOTS["RR"])] = rr
    return psi


def _lr_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """LR slots of ``S(left on L0, L1; right on R0, R1)``: ``left_i right_j / sqrt2``."""
    return (left[..., :, None] * right[..., None, :]).reshape(*left.shape[:-1], 4) * PAIR_WEIGHT


def embed_ll(psi3: np.ndarray) -> np.ndarray:
    """Embed a two-level pair state (or a stack) into the LL sector of the four-level space."""
    psi3 = np.asarray(psi3, dtype=complex)
    psi = np.zeros((*psi3.shape[:-1], 10), dtype=complex)
    # (0,0), (1,1), (0,1) go to (L0,L0), (L1,L1), (L0,L1)
    psi[..., [0, 4, 1]] = psi3
    return psi


def lr_block(psi10: np.ndarray) -> np.ndarray:
    """2x2 matrix of LR pair amplitudes, rows = L level, cols = R level (per state of a stack)."""
    return np.asarray(psi10, dtype=complex)[..., [[2, 3], [5, 6]]]


# ---------------------------------------------------------------------------
# classifiers: one linear margin per family, batched

def sep_I_discriminant(psi: np.ndarray) -> complex | np.ndarray:
    """``<pair|psi>^2 - 2 <00|psi><11|psi>``; zero exactly on family I (per state of a stack)."""
    return psi[..., 2] * psi[..., 2] - 2.0 * psi[..., 0] * psi[..., 1]


# contracting a state's slots with this gives R, its reductions along the
# first two levels (L0, L1) as columns; the reduced state is RR^dagger / tr.
# For two levels R = 2C, C = [[psi0, psi2/sqrt2], [psi2/sqrt2, psi1]].
_REDUCTIONS = {
    sym_dim(d): np.stack([pi_reduction_matrix(e) for e in np.eye(d)[:2]], axis=-1) for d in (2, 4)
}
_STATE_DIM = {"I": 3, "II": 3, "III": 10, "ssr": 10}
# SepClass lists each family's member class, then its non-member class
_SETS = dict(zip(("I", "II", "III", "mode", "ssr"), zip(*[iter(SepClass)] * 2)))


def _gram(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s1^2 + s2^2, s1^2 - s2^2, s1 s2)`` for the singular values of each ``(m, 2)``
    matrix of a stack, from its Gram entries ``p, q, r`` and its 2x2 minors:
    ``p + r``, ``hypot(p - r, 2|q|)`` and the minors' norm (Cauchy-Binet).  einsum
    rounds each product as a scalar does, so neither LAPACK nor a fused multiply-add
    moves a byte."""
    G = np.einsum("nki,nkj->nij", M.conj(), M)
    p, r = G[:, 0, 0].real, G[:, 1, 1].real
    outer = np.einsum("ni,nj->nij", M[..., 0], M[..., 1])
    # minor (i, j) is outer_ij - outer_ji: the sum over all i, j counts each one twice
    minors2 = np.sum(np.abs(outer - np.swapaxes(outer, 1, 2)) ** 2, axis=(1, 2)) / 2
    return p + r, np.hypot(p - r, 2 * np.abs(G[:, 0, 1])), np.sqrt(minors2)


def _sep_I_parameters(psi: np.ndarray) -> tuple[complex, complex]:
    """``(c0, c1)`` of a family-I state, canonical up to a global sign."""
    c0, c1 = np.sqrt(complex(psi[0])), np.sqrt(complex(psi[1]))
    # the cross amplitude carries the relative sign the square roots lose
    if abs(c0) >= abs(c1) and abs(c0) > 0:
        c1 = psi[2] / (np.sqrt(2.0) * c0)
    elif abs(c1) > abs(c0):
        c0 = psi[2] / (np.sqrt(2.0) * c1)
    return complex(c0), complex(c1)


def classify_states(
    kind: str, states: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> list[SeparabilityVerdict]:
    """Verdicts of one family's classifier for an ``(n, d)`` stack of states.

    A verdict's diagnostics are its deciding margins: scale-free distances,
    0 on the family, linear off it, at most 1 (up to rounding).  In every
    family a member's margin is at most ``tol.eps_class``.  With ``s1 >= s2``
    the singular values of C (I, II), R (III) or the LR block (ssr), read by
    :func:`_gram`, III's and ssr's ``margin`` is ``2 s1 s2 / (s1^2 + s2^2)``
    (0 if ``s1 <= EPS_STATE ||psi||``), which for C equals the ``discriminant``
    ``|disc| / ||psi||^2`` deciding I and, first, II; II's orthogonal-pair
    ``margin`` is ``(s1^2 - s2^2) / (s1^2 + s2^2) = 2 ||rho - 1/2||_2``;
    mode's is the second-largest amplitude modulus over the largest.  The
    margins are computed on each row scaled by the power of two that brings
    its largest modulus into [0.5, 1), so ``2^k psi`` gets the margins of ``psi``
    bit for bit, and only a zero row raises :class:`~entloc.errors.ZeroNormError`
    (a non-finite amplitude ``ValueError``); family-I parameters are read from
    the row as given.  II raises :class:`~entloc.errors.ConsistencyError` if its
    two family-I routes split across ``eps_class`` by over ten times.  Row ``i``
    gets the verdict of a one-state call on ``states[i]``, bit for bit.
    """
    kind = canonical_set_name(kind)
    psi = np.asarray(states, dtype=complex)
    dim = _STATE_DIM.get(kind, psi.shape[-1])
    if psi.ndim != 2 or psi.shape[1] != dim:
        raise ValueError(f"family {kind} classifies an (n, {dim}) stack of states, got {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("state contains non-finite amplitudes")
    moduli = np.abs(psi)
    # a power-of-two scale is exact, and keeps every product below in range
    _, exponent = np.frexp(moduli.max(axis=1))
    unit = psi * np.ldexp(1.0, np.minimum(-exponent, 1023))[:, None]
    subnormal = -exponent > 1023  # its scale is past the float range: it takes two factors
    unit[subnormal] *= np.ldexp(1.0, -exponent[subnormal] - 1023)[:, None]
    norm2 = check_state(unit)  # at least 1/4, so only an all-zero row is refused
    eps = tol.eps_class
    margins = {}
    if kind in ("I", "II"):
        margins["discriminant"] = disc = np.abs(sep_I_discriminant(unit)) / norm2
    if kind in ("II", "III", "ssr"):
        M = lr_block(unit) if kind == "ssr" else np.einsum("nk,mkl->nml", unit, _REDUCTIONS[dim])
        total, gap, s1s2 = _gram(M)
        live = np.sqrt((total + gap) / 2) > EPS_STATE * np.sqrt(norm2)  # s1 > EPS_STATE ||psi||
        margins["margin"] = rank_one = np.divide(2 * s1s2, total, out=np.zeros_like(total), where=live)
    if kind == "II":
        # a clear pass on one family-I route with a clear fail on the other is a bug
        split = ((disc <= eps) & (rank_one > 10 * eps)) | ((rank_one <= eps) & (disc > 10 * eps))
        if split.any():
            i = int(np.argmax(split))
            raise ConsistencyError(f"family-I routes diverged: discriminant {disc[i]:.3e}, "
                                   f"singular values {rank_one[i]:.3e}, eps_class {eps:.1e}")
        margins["margin"] = gap / total
    elif kind == "mode":
        amps = np.sort(moduli, axis=-1)
        margins["margin"] = amps[:, -2] / amps[:, -1] if dim > 1 else np.zeros(len(psi))
    member, other = _SETS[kind]
    verdicts = []
    for row, values in zip(psi, zip(*(m.tolist() for m in margins.values()))):
        diag = dict(zip(margins, values))
        if diag.get("discriminant", np.inf) <= eps:
            verdicts.append(SeparabilityVerdict(SepClass.SEP_I, _sep_I_parameters(row), diag))
        else:
            ok = diag.get("margin", np.inf) <= eps
            verdicts.append(SeparabilityVerdict(member if ok else other, None, diag))
    return verdicts


def classify_sep_I(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Family-I membership by the discriminant, recovering ``(c0, c1)``."""
    return classify_states("I", np.asarray(psi)[None], tol)[0]


def classify_sep_II(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Family I, else the orthogonal-pair branch, with both family-I routes cross-checked."""
    return classify_states("II", np.asarray(psi)[None], tol)[0]


def classify_sep_III(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Family-III membership: the L0/L1 reduction matrix has rank one."""
    return classify_states("III", np.asarray(psi)[None], tol)[0]


def classify_mode(amps: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Mode separability: a single occupation-basis amplitude."""
    return classify_states("mode", np.asarray(amps)[None], tol)[0]


def classify_ssr(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparabilityVerdict:
    """Sector-superselected separability: the LR amplitude block has rank one."""
    return classify_states("ssr", np.asarray(psi)[None], tol)[0]


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
    inside the family.  Each branch is built only on its own rows and
    elementwise: its amplitudes go straight into its slots, no row builds a
    piece it does not keep, and no batch or BLAS kernel set moves a byte.
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
        """``(..., 1 + n_real)`` parameter rows -> ``(..., d)`` unnormalized states."""
        return self.pieces(P[..., 0].astype(int), P[..., 1::2] + 1j * P[..., 2::2])

    def build_normalized(self, P: np.ndarray) -> np.ndarray:
        """:meth:`build`, each state scaled to unit norm; degenerate states raise."""
        states = self.build(P)
        norms = np.linalg.norm(states, axis=-1, keepdims=True)
        if np.any(norms <= EPS_STATE):
            raise ZeroNormError("sampler produced a degenerate draw")
        states /= norms
        return states

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``(n, d)`` normalized states from one draw of ``n`` parameter rows.

        The draw is deterministic given the generator state, and every
        state passes its family's classifier.
        """
        return self.build_normalized(self.draw(rng, n))


def _sep_II_states(branch: np.ndarray, c: np.ndarray) -> np.ndarray:
    psi = np.empty((*branch.shape, 3), dtype=complex)  # every row is filled by its one branch
    for b, piece in enumerate((sep_I_state, sep_II_orthogonal_state)):
        rows = branch == b
        if rows.any():
            psi[rows] = piece(*c[rows].T)
    return psi


def _ssr_states(branch: np.ndarray, c: np.ndarray) -> np.ndarray:
    # one sector per state: sector-coherent superpositions are separable too,
    # but they carry classical inter-sector correlations
    psi = np.zeros((branch.size, 10), dtype=complex)
    c = c.reshape(branch.size, -1)
    for b, sector in enumerate(SECTORS):
        rows = np.flatnonzero(branch.ravel() == b)
        cb = c[rows]
        amps = _lr_pairs(cb[:, 0:2], cb[:, 2:4]) if sector == "LR" else cb[:, :3]
        psi[rows[:, None], SECTOR_SLOTS[sector]] = amps
    return psi.reshape(*branch.shape, 10)


def _occupation_family(states: np.ndarray) -> Family:
    states = np.asarray(states, dtype=complex)
    return Family(len(states), 0, lambda branch, c: states[branch])


FAMILIES = {
    "I": Family(1, 4, lambda branch, c: sep_I_state(c[..., 0], c[..., 1])),
    "II": Family(2, 4, _sep_II_states),
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


def solve_preservation_quartic(A: np.ndarray, c0: complex) -> QuarticRoots:
    """Roots ``c1`` for which ``A`` maps the family-I state back into family I.

    The membership condition is a homogeneous quartic in ``(c0, c1)``; with
    ``c0`` fixed it is solved by :func:`entloc.roots.all_roots`
    (companion-matrix eigenvalues plus one Newton polish), and every root
    must reach a normalized residual of 1e-10.  When all five coefficients
    vanish (to 1e-12 relative to ``||A||^2``) the condition holds
    identically and a tautology is reported instead.
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
    # drop leading coefficients that vanish; none left is the tautology, one
    # left (a nonzero constant) has no roots
    big = np.flatnonzero(np.abs(coeffs) > 1e-12 * scale)
    trimmed = coeffs[big[0]:] if big.size else coeffs[:0]
    if trimmed.size <= 1:
        empty = np.zeros(0, dtype=complex)
        return QuarticRoots(not big.size, empty, empty.real.copy(), coeffs)
    roots = all_roots(trimmed)
    residuals = normalized_residuals(trimmed, roots)
    if np.max(residuals) > 1e-10:
        raise ConvergenceError(
            f"quartic roots polished to residual {np.max(residuals):.2e} > 1.0e-10"
        )
    order = np.lexsort((roots.imag, roots.real))
    return QuarticRoots(False, roots[order], residuals[order], coeffs)
