"""Operators that map each separable family into itself.

The pair squares, the symmetric compressions of ``O x O``, map family I
into itself; their 3x3 matrix form is constructed here, and
:func:`fit_sep_I_preserver` recognizes it.  They are not the only such
maps: ``|0,0><0,1|`` sends every family-I state into family I or to 0 and
is no pair square.  Family-II adds the requirement that ``O`` be
proportional to a unitary.  For the four-level space the relevant
structure is the block decomposition over the spatial sectors LL, LR, RR.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConsistencyError
from .hilbert import SECTOR_SLOTS, SECTORS, pauli_decompose
from .separability import DEFAULT_TOL, Tolerances

_OVERFLOW = "operator norm overflowed: entries are too large"


def _norm(M: np.ndarray) -> float:
    """Frobenius norm of ``M``, refused with ``ValueError`` once it overflows.

    A tolerance scaled by an infinite norm passes every test and one scaled
    by NaN none, so no verdict is read from either.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without numpy's warning
        norm = float(np.linalg.norm(M))
    if not np.isfinite(norm):
        raise ValueError(_OVERFLOW)
    return norm


def construct_sep_I_preserver(O: np.ndarray) -> np.ndarray:
    """3x3 symmetric-basis matrix of ``O x O`` for a 2x2 operator ``O``; ``ValueError`` if not finite.

    Equals the symmetric compression of the Kronecker square entrywise;
    with ``a_ij = <j|O|i>`` the matrix is::

        [[a00^2,          a10^2,          sqrt2 a00 a10],
         [a01^2,          a11^2,          sqrt2 a01 a11],
         [sqrt2 a00 a01,  sqrt2 a10 a11,  a00 a11 + a01 a10]]
    """
    O = np.asarray(O, dtype=complex)
    if O.shape != (2, 2):
        raise ValueError("expected a 2x2 operator")
    a00, a10 = O[0, 0], O[0, 1]
    a01, a11 = O[1, 0], O[1, 1]
    r2 = np.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without numpy's warning
        square = np.array(
            [
                [a00 * a00, a10 * a10, r2 * a00 * a10],
                [a01 * a01, a11 * a11, r2 * a01 * a11],
                [r2 * a00 * a01, r2 * a10 * a11, a00 * a11 + a01 * a10],
            ],
            dtype=complex,
        )
    if not np.isfinite(square).all():
        raise ValueError("operator pair square overflowed: entries are too large")
    return square


@dataclass
class SepIPreserverFit:
    """Result of recognizing a 3x3 matrix as a family-I preserver."""

    fits: bool
    O: np.ndarray | None
    defect: float


def fit_sep_I_preserver(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SepIPreserverFit:
    """Recover ``O`` (up to global sign) such that ``A`` is its pair square.

    Magnitudes come from principal square roots of the squared entries; the
    relative signs, which the roots lose, are fixed by reconstructing all
    eight sign branches and keeping the smallest entrywise mismatch.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (3, 3):
        raise ValueError("expected a 3x3 operator on the symmetric basis")
    scale = _norm(A)
    if scale == 0.0:
        return SepIPreserverFit(True, np.zeros((2, 2), dtype=complex), 0.0)
    a00 = np.sqrt(complex(A[0, 0]))
    mags = (np.sqrt(complex(A[1, 0])), np.sqrt(complex(A[0, 1])), np.sqrt(complex(A[1, 1])))
    best: tuple[float, np.ndarray] | None = None
    for signs in product((1.0, -1.0), repeat=3):
        O = np.array(
            [[a00, signs[1] * mags[1]], [signs[0] * mags[0], signs[2] * mags[2]]], dtype=complex
        )
        defect = float(np.max(np.abs(construct_sep_I_preserver(O) - A)))
        if best is None or defect < best[0]:
            best = (defect, O)
    defect, O = best
    fits = defect <= tol.eps_class * scale
    return SepIPreserverFit(fits, O if fits else None, defect)


def is_sep_II_preserver(O: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``O`` is proportional to a unitary: ``O†O`` a multiple of 1."""
    O = np.asarray(O, dtype=complex)
    n2 = _norm(O) ** 2
    gram = O.conj().T @ O
    dev = gram - (np.trace(gram) / 2.0) * np.eye(2)
    if n2 == 0.0:
        return True
    return _norm(dev) <= tol.eps_class * n2


@dataclass
class CommutativityCheck:
    """Pauli-expansion data for a pair of squared operators."""

    s: complex
    z: np.ndarray
    commutes: bool


def commutativity_condition(O: np.ndarray, Q: np.ndarray) -> CommutativityCheck:
    """Necessary condition for ``[O x O, Q x Q] = 0`` in Pauli data.

    With expansions ``O = x0 + x.sigma`` and ``Q = y0 + y.sigma``, returns
    ``s = x0 y0 + x.y`` and ``z = x ^ y``; commutation forces ``s = 0`` or
    ``z = 0``.  A commuting pair violating that raises
    :class:`~entloc.errors.ConsistencyError`, and one whose ``s``, ``z`` or
    deciding norms overflow raises ``ValueError``.
    """
    O = np.asarray(O, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    # an overflow shows as a non-finite value, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        x0, xv = pauli_decompose(O)
        y0, yv = pauli_decompose(Q)
        s = x0 * y0 + complex(np.dot(xv, yv))
        z = np.cross(xv, yv)
        A = np.kron(O, O)
        B = np.kron(Q, Q)
        scale = float(np.linalg.norm(O) ** 2 * np.linalg.norm(Q) ** 2)
        defect = float(np.linalg.norm(A @ B - B @ A))
    if not np.isfinite([s, *z, scale, defect]).all():
        raise ValueError(_OVERFLOW)
    commutes = defect <= 1e-12 * max(scale, 1e-300)
    if commutes:
        pair_scale = float(np.linalg.norm(O) * np.linalg.norm(Q))
        if abs(s) > 1e-9 * pair_scale and float(np.linalg.norm(z)) > 1e-9 * pair_scale:
            raise ConsistencyError(
                "commuting squared pair with both s and z nonzero; "
                "the Pauli condition is violated"
            )
    return CommutativityCheck(s, z, commutes)


def sector_blocks(A: np.ndarray) -> dict[tuple[str, str], np.ndarray]:
    """The nine sector blocks of a 10x10 operator: block ``(X, Y)`` is the k x l array of
    rows ``SECTOR_SLOTS[X]`` and columns ``SECTOR_SLOTS[Y]``, where ``P_X A P_Y`` lives."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (10, 10):
        raise ValueError("expected a 10x10 operator on the four-level pair space")
    return {(X, Y): A[np.ix_(SECTOR_SLOTS[X], SECTOR_SLOTS[Y])] for X in SECTORS for Y in SECTORS}


@dataclass
class BlockScalarReport:
    """Whether each diagonal sector block is a multiple of the identity."""

    block_scalar: bool
    identity_proportional: bool
    alphas: dict[str, complex]
    max_offdiag: float
    max_diag_defect: float


def is_block_scalar(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> BlockScalarReport:
    """Test ``A = sum_X alpha_X P_X`` and whether all ``alpha_X`` coincide."""
    A = np.asarray(A, dtype=complex)
    blocks = sector_blocks(A)
    scale = max(_norm(A), 1e-300)
    max_off = max(
        float(np.linalg.norm(blocks[(X, Y)])) for X in SECTORS for Y in SECTORS if X != Y
    )
    diag = np.diag(A)
    alphas = {  # over all ten slots, zero outside X, grouped as np.trace(P_X A P_X) sums: same bytes
        X: complex(np.where(np.isin(range(10), S), diag, 0).sum() / len(S)) for X, S in SECTOR_SLOTS.items()
    }
    max_diag = max(
        float(np.linalg.norm(blocks[(X, X)] - alphas[X] * np.eye(len(S)))) for X, S in SECTOR_SLOTS.items()
    )
    block_scalar = max_off <= tol.eps_class * scale and max_diag <= tol.eps_class * scale
    spread = max(abs(v - alphas["LL"]) for v in alphas.values())
    identity_proportional = block_scalar and spread <= tol.eps_class * scale
    return BlockScalarReport(block_scalar, identity_proportional, alphas, max_off, max_diag)
