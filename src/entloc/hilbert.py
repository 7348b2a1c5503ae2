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

import numpy as np

from .errors import ZeroNormError

EPS_STATE = 1e-12
"""States with norm below this are rejected as zero."""

SINGLE_PARTICLE_LABELS = ("L0", "L1", "R0", "R1")

N_MAX = 4
"""Default total-occupation cutoff of a :class:`FockSpace`."""

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

SECTORS = ("LL", "LR", "RR")

PAIR_WEIGHT = 1.0 / np.sqrt(2.0)
"""Weight of ``|i>|j>`` and of ``|j>|i>`` in the pair vector ``|i,j>``, ``i != j``."""


def sym_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Ordered level pairs labelling the symmetric basis of ``dim`` levels."""
    if dim == 2:
        return ((0, 0), (1, 1), (0, 1))
    return tuple((i, j) for i in range(dim) for j in range(i, dim))


def sym_dim(dim: int) -> int:
    return dim * (dim + 1) // 2


SECTOR_SLOTS = {
    name: tuple(k for k, pair in enumerate(sym_pairs(4)) if sum(i < 2 for i in pair) == n_left)
    for name, n_left in (("LL", 2), ("LR", 1), ("RR", 0))
}
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
        E[dim * i + j, k] = E[dim * j + i, k] = 1.0 if i == j else PAIR_WEIGHT
    E.setflags(write=False)
    return E


def check_state(psi: np.ndarray) -> float | np.ndarray:
    """Return ``||psi||^2``, raising :class:`ZeroNormError` below ``EPS_STATE**2``.

    A ``(..., d)`` stack of states gives an array of squared norms and
    fails if any state does.  A squared norm that is not finite raises
    ``ValueError``: an amplitude is not finite, or the norm overflowed.
    """
    psi = np.asarray(psi)
    # one path for every shape, so a state's norm does not depend on how it was passed
    norm2 = np.einsum("...j,...j->...", psi.conj(), psi).real
    # a sum of squared moduli is finite exactly when every amplitude is and none overflows
    if not np.isfinite(norm2).all():
        if not np.isfinite(psi).all():
            raise ValueError("state contains non-finite amplitudes")
        raise ValueError("state norm overflowed: amplitudes are too large")
    small = np.asarray(norm2 <= EPS_STATE * EPS_STATE)
    if small.any():
        raise ZeroNormError(f"state norm {np.sqrt(np.min(norm2)):.3e} below {EPS_STATE:.1e}")
    return norm2


_SYM_INDEX = {d: np.array(sym_pairs(d)).T for d in (2, 4)}
"""The ``(i, j)`` index arrays of :func:`sym_pairs` for the 2- and 4-level spaces."""


def symmetrize_product(phi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Symmetric projection of ``|phi> x |zeta>`` in the symmetric basis.

    The result is the (generally unnormalized) vector ``S |phi>|zeta>``;
    for orthogonal factors its squared norm is 1/2.  Stacks of factors
    (leading axes) give one symmetrized vector per pair.  Slot ``(i,i)`` is
    ``phi_i zeta_i`` and slot ``(i<j)`` is ``(phi_i zeta_j + phi_j zeta_i) / sqrt2``,
    elementwise: no stack or BLAS kernel set moves a byte, and a zero slot is ``+0``.
    """
    phi = np.asarray(phi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if phi.shape != zeta.shape or phi.ndim == 0:
        raise ValueError(f"dimension mismatch: {phi.shape} vs {zeta.shape}")
    d = phi.shape[-1]
    if d not in (2, 4):
        raise ValueError("only 2- and 4-level single-particle spaces are supported")
    i, j = _SYM_INDEX[d]
    straight, swapped = phi[..., i] * zeta[..., j], phi[..., j] * zeta[..., i]
    return np.where(i == j, straight, straight * PAIR_WEIGHT + swapped * PAIR_WEIGHT) + 0.0


def project_symmetric(M: np.ndarray) -> np.ndarray:
    """Compress a product-basis operator to the symmetric basis: ``E† M E``.

    A ``(..., d*d, d*d)`` stack gives one compressed operator per matrix.
    """
    M = np.asarray(M, dtype=complex)
    d2 = M.shape[-1]
    dim = int(round(np.sqrt(d2)))
    if M.ndim < 2 or M.shape[-2:] != (d2, d2) or dim * dim != d2:
        raise ValueError("operator must act on a two-particle product space")
    E = sym_embedding(dim)
    return E.conj().T @ M @ E


def sym_one_body(h: np.ndarray) -> np.ndarray:
    """Symmetric-basis matrix of the symmetrized one-body operator h x 1 + 1 x h.

    A ``(..., d, d)`` stack gives one operator per matrix.  The Kronecker
    products are formed by broadcasting, exactly as ``np.kron`` forms them,
    so each operator of a stack equals its own call bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[-1]
    one = np.eye(d)
    # kron(a, b)[i*d + k, j*d + l] = a[i, j] * b[k, l]
    M = h[..., :, None, :, None] * one[:, None, :]
    M = M + one[:, None, :, None] * h[..., None, :, None, :]
    return project_symmetric(M.reshape(*h.shape[:-2], d * d, d * d))


def number_level_operator(level: int) -> np.ndarray:
    """Occupation-number operator of one single-particle level, symmetric basis.

    Diagonal: each pair basis vector counts how many of its two labels equal
    ``level``.
    """
    counts = [(i == level) + (j == level) for i, j in sym_pairs(4)]
    return np.diag(np.asarray(counts, dtype=complex))


def pauli_decompose(O: np.ndarray) -> tuple[complex, np.ndarray]:
    """Coefficients ``(x0, xvec)`` with ``O = x0*1 + xvec . sigma`` exactly."""
    O = np.asarray(O, dtype=complex)
    if O.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    x0 = complex(np.trace(O)) / 2.0
    xvec = np.array([np.trace(PAULI[k] @ O) / 2.0 for k in (1, 2, 3)], dtype=complex)
    return x0, xvec


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


def reduced_single_particle_dm(
    Psi: np.ndarray, k_basis: np.ndarray | None = None
) -> np.ndarray | None:
    """Reduced single-particle density matrix relative to a subspace.

    ``k_basis`` holds an orthonormal basis of the subspace as columns; the
    default is the L-span ``{|L0>, |L1>}``.  Returns ``R R^dagger / tr``,
    ``R`` the reductions of ``Psi`` along the basis vectors as columns, or
    ``None`` when the state has no support reachable by reductions along the
    subspace (pure other-sector states).  The result does not depend on the
    orthonormal basis chosen.
    """
    Psi = np.asarray(Psi, dtype=complex)
    d = {3: 2, 10: 4}.get(Psi.shape[0])
    if d is None:
        raise ValueError("expected a symmetric-basis state of length 3 or 10")
    norm2 = check_state(Psi)
    k_basis = np.eye(d)[:, :2] if k_basis is None else np.asarray(k_basis).reshape(d, -1)
    R = np.stack([pi_reduction_matrix(k) @ Psi for k in k_basis.T], axis=-1)
    den = float(np.vdot(R, R).real)
    if den < EPS_STATE * EPS_STATE * norm2:
        return None
    return R @ R.conj().T / den


class FockSpace:
    """Bosonic Fock space of the two modes ``"0"`` and ``"1"``, with a total-occupation cutoff.

    The basis is the occupation pairs ``(n0, n1)``, ``n0 + n1 <= n_max``, in lexicographic order, held
    once as the read-only ``(dim, 2)`` array ``occupations``.  Creation elements past the cutoff are
    dropped, so degree-``k`` ladder polynomials act exactly on states of total number at most ``n_max - k``.
    """

    modes = ("0", "1")

    def __init__(self, n_max: int = N_MAX):
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        self.n_max = int(n_max)
        self.occupations = np.array([(n0, n1) for n0 in range(n_max + 1) for n1 in range(n_max + 1 - n0)])
        self.occupations.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.occupations)

    def _mode_index(self, mode: str) -> int:
        try:
            return self.modes.index(str(mode))
        except ValueError:
            raise ValueError(f"unknown mode label {mode!r}, have {self.modes}") from None

    def slot(self, n0: int | np.ndarray, n1: int | np.ndarray) -> int | np.ndarray:
        """Basis index of the occupations ``(n0, n1)`` (or of each pair of two arrays) within the cutoff."""
        return n0 * (self.n_max + 1) - n0 * (n0 - 1) // 2 + n1  # lexicographic order

    def ladder_map(self, mode: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Column map of :meth:`ladder`: the row of each column's one nonzero, or -1 where the
        column is zero, and that entry's value (0 where the row is -1)."""
        occ, m = self.occupations, self._mode_index(mode)
        to = occ + k * np.eye(2, dtype=int)[m]
        kept = (to[:, m] >= 0) & (to.sum(axis=1) <= self.n_max)  # within the cutoff, none below 0
        rows = np.where(kept, self.slot(*to.T), -1)
        low, values = np.minimum(occ[:, m], to[:, m]), np.ones(self.dim)
        for q in range(1, abs(k) + 1):  # the product of sqrt(low + q), smallest factor first
            values = values * np.sqrt(np.maximum(low + q, 0))
        return rows, np.where(kept, values, 0.0)

    def ladder(self, mode: str, k: int) -> np.ndarray:
        """Creation matrix of one mode to the power ``k > 0``, annihilation matrix to ``-k`` for ``k < 0``.

        Entry ``(n + k, n)`` is the product of ``sqrt(q)`` for ``q`` between ``n`` and ``n + k``, the
        larger included; elements past the cutoff are dropped."""
        rows, values = self.ladder_map(mode, k)
        op = np.zeros((self.dim, self.dim), dtype=complex)
        op[rows, np.arange(self.dim)] = values  # a zero column writes its 0 to the last row
        return op

    def number(self, mode: str) -> np.ndarray:
        return np.diag(self.occupations[:, self._mode_index(mode)].astype(complex))

    def occupation_state(self, occ: tuple[int, ...]) -> np.ndarray:
        occ = tuple(int(n) for n in occ)
        if len(occ) != 2 or min(occ) < 0 or sum(occ) > self.n_max:
            raise ValueError(f"occupation {occ} not in the truncated basis")
        return (np.arange(self.dim) == self.slot(*occ)).astype(complex)
