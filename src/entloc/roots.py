"""Dense polynomial roots: companion-matrix eigenvalues, polished and checked.

Small degrees only (the package needs quartics).  ``np.roots`` gives the
eigenvalues of the companion matrix (Edelman & Murakami, Math. Comp. 1995);
one Newton pass refines them, and their normalized residuals let callers
judge convergence.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


def normalized_residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """``|p(z)|`` per root, against the naive term-magnitude sum at ``z`` plus ``|c_n|``.

    An exact root reads 0, also where that sum vanishes (``z = 0``, ``c_n = 0``).
    """
    c = np.asarray(coeffs, dtype=complex)
    z = np.abs(np.asarray(roots, dtype=complex))
    scale = (z[:, None] ** np.arange(c.size - 1, -1, -1)) @ np.abs(c) + abs(c[-1])
    value = np.abs(np.polyval(c, roots))
    return np.divide(value, scale, out=np.zeros_like(value), where=value > 0)


def all_roots(coeffs) -> np.ndarray:
    """All complex roots of ``sum(coeffs[k] * z**(n-k))``.

    ``coeffs`` is a full descending coefficient sequence with a nonzero
    leading entry.  Raises :class:`ConvergenceError` if a polished root
    leaves a normalized residual above 1e-8.
    """
    p = np.asarray(coeffs, dtype=complex)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if p[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    p = p / p[0]
    # np.roots gives a real array when every root is a stripped trailing zero
    roots = np.roots(p).astype(complex)
    # one Newton polishing pass
    d = np.polyval(np.polyder(p), roots)
    step = np.abs(d) > 1e-14
    roots[step] -= np.polyval(p, roots[step]) / d[step]
    res = normalized_residuals(p, roots)
    if np.max(res) > 1e-8:
        raise ConvergenceError(f"polished roots left residuals up to {np.max(res):.2e}")
    return roots
