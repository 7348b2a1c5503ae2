"""State and operator representations for two bosons.

Basis conventions are pinned once and used everywhere:

* single-particle levels are ``|0>, |1>`` (two-level case) or
  ``L0, L1, R0, R1`` mapped to indices ``0..3`` (four-level case);
* the symmetric two-particle space is spanned by pair vectors
  ``|i,i> = |i>|i>`` and ``|i,j> = (|i>|j> + |j>|i>)/sqrt(2)`` for ``i < j``;
* for two levels the pair order is ``(0,0), (1,1), (0,1)`` so that the
  distinct-label pair comes last; for four levels pairs are lexicographic,
  which groups them into the spatial sectors LL, LR, RR.

All functions are pure; arrays are never mutated in place.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from .errors import ZeroNormError

EPS_STATE = 1e-12
"""States with norm below this are rejected as zero."""

SINGLE_PARTICLE_LABELS = ("L0", "L1", "R0", "R1")

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

SECTORS = ("LL", "LR", "RR")


def sym_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Ordered level pairs labelling the symmetric basis of ``dim`` levels."""
    if dim == 2:
        return ((0, 0), (1, 1), (0, 1))
    return tuple((i, j) for i in range(dim) for j in range(i, dim))


def sym_dim(dim: int) -> int:
    return dim * (dim + 1) // 2


@lru_cache(maxsize=None)
def _sector_slots() -> dict[str, tuple[int, ...]]:
    slots: dict[str, list[int]] = {"LL": [], "LR": [], "RR": []}
    for k, (i, j) in enumerate(sym_pairs(4)):
        left = (i < 2) + (j < 2)
        slots[("RR", "LR", "LL")[left]].append(k)
    return {name: tuple(v) for name, v in slots.items()}


SECTOR_SLOTS = _sector_slots()
"""Symmetric-basis slot indices per spatial sector: LL (3), LR (4), RR (3)."""


@lru_cache(maxsize=None)
def sym_embedding(dim: int) -> np.ndarray:
    """Isometry from the symmetric basis into the two-particle product basis.

    Columns are the pair vectors of :func:`sym_pairs`, so ``E.conj().T @ E``
    is the identity and ``E @ E.conj().T`` is the symmetrization projector.
    """
    pairs = sym_pairs(dim)
    E = np.zeros((dim * dim, len(pairs)), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        if i == j:
            E[dim * i + j, k] = 1.0
        else:
            E[dim * i + j, k] = E[dim * j + i, k] = 1.0 / np.sqrt(2.0)
    E.setflags(write=False)
    return E


def symmetrizer(dim: int) -> np.ndarray:
    """Projector onto permutation-symmetric vectors of the product space."""
    E = sym_embedding(dim)
    return E @ E.conj().T


def check_state(psi: np.ndarray, eps: float = EPS_STATE) -> float | np.ndarray:
    """Return ``||psi||^2``, raising :class:`ZeroNormError` below ``eps**2``.

    A ``(..., d)`` stack of states gives an array of squared norms and
    fails if any state does.
    """
    psi = np.asarray(psi)
    if psi.ndim == 1:
        norm2 = float(np.vdot(psi, psi).real)
    else:
        norm2 = np.einsum("...j,...j->...", psi.conj(), psi).real
    small = np.asarray(norm2 <= eps * eps)
    if small.any():
        raise ZeroNormError(f"state norm {np.sqrt(np.nanmin(norm2)):.3e} below {eps:.1e}")
    if not np.isfinite(psi).all():
        raise ValueError("state contains non-finite amplitudes")
    return norm2


def symmetrize_product(phi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Symmetric projection of ``|phi> x |zeta>`` in the symmetric basis.

    The result is the (generally unnormalized) vector ``S |phi>|zeta>``;
    for orthogonal factors its squared norm is 1/2.  Stacks of factors
    (leading axes) give one symmetrized vector per pair.
    """
    phi = np.asarray(phi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if phi.shape != zeta.shape or phi.ndim == 0:
        raise ValueError(f"dimension mismatch: {phi.shape} vs {zeta.shape}")
    d = phi.shape[-1]
    if d not in (2, 4):
        raise ValueError("only 2- and 4-level single-particle spaces are supported")
    product_amps = (phi[..., :, None] * zeta[..., None, :]).reshape(*phi.shape[:-1], d * d)
    return product_amps @ sym_embedding(d).conj()


def embed_tensor_square(O: np.ndarray) -> np.ndarray:
    """Kronecker square ``O x O`` in the two-particle product basis."""
    O = np.asarray(O, dtype=complex)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise ValueError("operator must be square")
    return np.kron(O, O)


def project_symmetric(M: np.ndarray) -> np.ndarray:
    """Compress a product-basis operator to the symmetric basis: ``E† M E``."""
    M = np.asarray(M, dtype=complex)
    d2 = M.shape[0]
    dim = int(round(np.sqrt(d2)))
    if M.shape != (d2, d2) or dim * dim != d2:
        raise ValueError("operator must act on a two-particle product space")
    E = sym_embedding(dim)
    return E.conj().T @ M @ E


def sym_one_body(h: np.ndarray) -> np.ndarray:
    """Symmetric-basis matrix of the symmetrized one-body operator h x 1 + 1 x h."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    return project_symmetric(np.kron(h, np.eye(d)) + np.kron(np.eye(d), h))


def number_level_operator(level: int, dim: int = 4) -> np.ndarray:
    """Occupation-number operator of one single-particle level, symmetric basis.

    Diagonal: each pair basis vector counts how many of its two labels equal
    ``level``.
    """
    counts = [(i == level) + (j == level) for i, j in sym_pairs(dim)]
    return np.diag(np.asarray(counts, dtype=complex))


def sector_projector(sector: str) -> np.ndarray:
    """Orthogonal projector onto one spatial sector of the 10-dim space."""
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector!r}, expected one of {SECTORS}")
    P = np.zeros((10, 10), dtype=complex)
    for k in SECTOR_SLOTS[sector]:
        P[k, k] = 1.0
    return P


def pauli_decompose(O: np.ndarray) -> tuple[complex, np.ndarray]:
    """Coefficients ``(x0, xvec)`` with ``O = x0*1 + xvec . sigma`` exactly."""
    O = np.asarray(O, dtype=complex)
    if O.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    x0 = complex(np.trace(O)) / 2.0
    xvec = np.array([np.trace(PAULI[k] @ O) / 2.0 for k in (1, 2, 3)], dtype=complex)
    return x0, xvec


def pauli_compose(x0: complex, xvec: np.ndarray) -> np.ndarray:
    return x0 * PAULI[0] + sum(xvec[k] * PAULI[k + 1] for k in range(3))


def partial_trace_second_particle(psi: np.ndarray) -> np.ndarray:
    """Reduced density matrix ``Tr_2 |psi><psi| / <psi|psi>`` of a pair state.

    ``psi`` lives in the symmetric basis (3 or 10 amplitudes); the trace is
    taken in the underlying product representation.
    """
    psi = np.asarray(psi, dtype=complex)
    dim = {3: 2, 10: 4}.get(psi.shape[0])
    if dim is None:
        raise ValueError("expected a symmetric-basis state of length 3 or 10")
    check_state(psi)
    v = (sym_embedding(dim) @ psi).reshape(dim, dim)
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def pi_reduction_matrix(psi: np.ndarray) -> np.ndarray:
    """Matrix of the pair-to-single reduction ``S|phi>|zeta> -> <psi|phi>|zeta> + <psi|zeta>|phi>``."""
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[0]
    pairs = sym_pairs(d)
    M = np.zeros((d, len(pairs)), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        if i == j:
            M[i, k] = 2.0 * np.conj(psi[i])
        else:
            M[j, k] += np.sqrt(2.0) * np.conj(psi[i])
            M[i, k] += np.sqrt(2.0) * np.conj(psi[j])
    return M


def pi_reduction(psi: np.ndarray, Psi: np.ndarray) -> np.ndarray:
    """Apply the bosonic pair-to-single reduction along ``psi`` to a pair state."""
    psi = np.asarray(psi, dtype=complex)
    Psi = np.asarray(Psi, dtype=complex)
    if sym_dim(psi.shape[0]) != Psi.shape[0]:
        raise ValueError("single-particle and pair-state dimensions do not match")
    return pi_reduction_matrix(psi) @ Psi


def reduced_single_particle_dm(
    Psi: np.ndarray, k_basis: np.ndarray | None = None, eps: float = EPS_STATE
) -> np.ndarray | None:
    """Reduced single-particle density matrix relative to a subspace.

    ``k_basis`` holds an orthonormal basis of the subspace as columns; the
    default is the L-span ``{|L0>, |L1>}``.  Returns the normalized sum of
    reduced projections, or ``None`` when the state has no support reachable
    by reductions along the subspace (pure other-sector states).
    The result does not depend on the orthonormal basis chosen.
    """
    Psi = np.asarray(Psi, dtype=complex)
    d = {3: 2, 10: 4}.get(Psi.shape[0])
    if d is None:
        raise ValueError("expected a symmetric-basis state of length 3 or 10")
    norm2 = check_state(Psi)
    if k_basis is None:
        k_basis = np.eye(d, dtype=complex)[:, :2]
    k_basis = np.asarray(k_basis, dtype=complex)
    if k_basis.ndim == 1:
        k_basis = k_basis[:, None]
    num = np.zeros((d, d), dtype=complex)
    den = 0.0
    for col in range(k_basis.shape[1]):
        r = pi_reduction(k_basis[:, col], Psi)
        num += np.outer(r, r.conj())
        den += float(np.vdot(r, r).real)
    if den < eps * eps * norm2:
        return None
    return num / den


class FockSpace:
    """Bosonic Fock space with a total-occupation cutoff.

    The basis consists of all occupation tuples with total number at most
    ``n_max``, in lexicographic order.  Creation matrix elements that would
    exceed the cutoff are dropped, so degree-``k`` ladder polynomials act
    exactly on states with total number at most ``n_max - k``.
    """

    def __init__(self, modes: tuple[str, ...] = ("0", "1"), n_max: int = 4):
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        self.modes = tuple(str(m) for m in modes)
        self.n_max = int(n_max)
        m = len(self.modes)
        self.basis: tuple[tuple[int, ...], ...] = tuple(
            sorted(occ for occ in product(range(n_max + 1), repeat=m) if sum(occ) <= n_max)
        )
        self.index: dict[tuple[int, ...], int] = {occ: k for k, occ in enumerate(self.basis)}
        assert len(self.basis) == comb(m + n_max, m)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _mode_index(self, mode: str) -> int:
        try:
            return self.modes.index(str(mode))
        except ValueError:
            raise ValueError(f"unknown mode label {mode!r}, have {self.modes}") from None

    def ladder(self, mode: str, kind: str) -> np.ndarray:
        """Creation or annihilation matrix for one mode (``kind`` in create/annihilate)."""
        m = self._mode_index(mode)
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for k, occ in enumerate(self.basis):
            if kind == "create":
                target = list(occ)
                target[m] += 1
                if sum(target) <= self.n_max:
                    op[self.index[tuple(target)], k] = np.sqrt(target[m])
            elif kind == "annihilate":
                if occ[m] > 0:
                    target = list(occ)
                    target[m] -= 1
                    op[self.index[tuple(target)], k] = np.sqrt(occ[m])
            else:
                raise ValueError("kind must be 'create' or 'annihilate'")
        return op

    def create(self, mode: str) -> np.ndarray:
        return self.ladder(mode, "create")

    def annihilate(self, mode: str) -> np.ndarray:
        return self.ladder(mode, "annihilate")

    def number(self, mode: str) -> np.ndarray:
        m = self._mode_index(mode)
        return np.diag(np.asarray([occ[m] for occ in self.basis], dtype=complex))

    def total_number(self) -> np.ndarray:
        return np.diag(np.asarray([sum(occ) for occ in self.basis], dtype=complex))

    def occupation_state(self, occ: tuple[int, ...]) -> np.ndarray:
        occ = tuple(int(n) for n in occ)
        if occ not in self.index:
            raise ValueError(f"occupation {occ} not in the truncated basis")
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[occ]] = 1.0
        return v

    def vacuum(self) -> np.ndarray:
        return self.occupation_state((0,) * len(self.modes))


def map_first_to_second(psi: np.ndarray, space: FockSpace) -> np.ndarray:
    """Rewrite a symmetric pair state in the occupation basis of ``space``.

    Pair ``(i,i)`` maps to the doubly occupied tuple, pair ``(i,j)`` with
    ``i < j`` to single occupation of both modes; the map is an isometry
    onto the two-particle sector.
    """
    psi = np.asarray(psi, dtype=complex)
    d = {3: 2, 10: 4}.get(psi.shape[0])
    if d is None or len(space.modes) != d:
        raise ValueError("state and Fock space have incompatible mode counts")
    if space.n_max < 2:
        raise ValueError("cutoff too small: need n_max >= 2")
    out = np.zeros(space.dim, dtype=complex)
    for k, (i, j) in enumerate(sym_pairs(d)):
        occ = [0] * d
        occ[i] += 1
        occ[j] += 1
        out[space.index[tuple(occ)]] = psi[k]
    return out


def map_second_to_first(vec: np.ndarray, space: FockSpace, eps: float = EPS_STATE) -> np.ndarray:
    """Inverse of :func:`map_first_to_second` on the two-particle sector."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape[0] != space.dim:
        raise ValueError("vector does not match the Fock space dimension")
    d = len(space.modes)
    psi = np.zeros(sym_dim(d), dtype=complex)
    seen = np.zeros(space.dim, dtype=bool)
    for k, (i, j) in enumerate(sym_pairs(d)):
        occ = [0] * d
        occ[i] += 1
        occ[j] += 1
        idx = space.index[tuple(occ)]
        psi[k] = vec[idx]
        seen[idx] = True
    leak = np.linalg.norm(vec[~seen])
    if leak > eps * max(1.0, np.linalg.norm(vec)):
        raise ValueError("vector has support outside the two-particle sector")
    return psi
