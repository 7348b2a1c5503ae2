"""Exact polynomial certificates for the factorization condition.

For a pair of squared two-level operators the factorization identity on the
squared-superposition family is a degree-8 polynomial identity in the state
coefficients and their conjugates; expanding it exactly either shows every
coefficient vanishes (the pair factorizes identically) or exhibits one
nonzero monomial, which is a finite, checkable proof of violation.  The
four-level analogue certifies that an off-diagonal sector block of a local
pair must vanish.

Both certificates expand through one table of exact branch amplitudes,
:func:`_amplitudes`, and one bilinear form, :func:`_forms`.  The amplitudes
are the numeric families' formulas: family I's single-particle factor, and
each sector's parametrization in the ssr family, LL and RR three free
amplitudes and LR the product of an L-side and an R-side superposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError
from .exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    HALF_SQRT2,
    GaussianRational,
    MultiPoly,
    RootTwoRational,
    conjugate_name,
)
from .hilbert import SECTOR_SLOTS, SECTORS

PAULI_EXACT = (
    ((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE)),
    ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO)),
    ((GR_ZERO, -GR_I), (GR_I, GR_ZERO)),
    ((GR_ONE, GR_ZERO), (GR_ZERO, -GR_ONE)),
)


def exact_matrix(entries, ring=GaussianRational) -> tuple[tuple, ...]:
    """Coerce a nested sequence (or object array) into exact ring entries."""
    rows = tuple(tuple(ring.coerce(v) for v in row) for row in entries)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


SEP_I_VARIABLES = ("c0", "c0*", "c1", "c1*")
_MAX_DEGREE = 8


def _amplitudes(branch, names, variables, ring) -> list[MultiPoly]:
    """Exact amplitudes of one family branch in the parameter variables ``names``.

    ``"I"`` is family I's single-particle factor ``(c0, c1)``: family I is
    ``psi x psi``, so ``<O x O> = <O>^2``.  ``"LL"`` and ``"RR"`` are three
    free amplitudes, and ``"LR"`` is ``c_i d_j / sqrt2`` for ``names =
    (c0, c1, d0, d1)``, in ``SECTOR_SLOTS`` order: the formulas
    ``separability._ssr_states`` builds.  Every constant is real, so the
    bra side's amplitudes are these with starred ``names``.
    """
    amps = [MultiPoly.variable(variables, name, ring.coerce(1), _MAX_DEGREE) for name in names]
    if branch != "LR":
        return amps
    weight = MultiPoly.const(variables, HALF_SQRT2, _MAX_DEGREE)
    return [weight * amps[i] * amps[2 + j] for i in range(2) for j in range(2)]


def _forms(matrices, bra, ket, rows, cols) -> list[MultiPoly]:
    """``sum_{i,j} M[rows[i]][cols[j]] bra_i ket_j`` for every matrix ``M``.

    Each product ``bra_i ket_j`` that some matrix needs is formed once; a
    form adds its monomials into one terms dict.
    """
    products = [((r, c), (b * k).terms) for r, b in zip(rows, bra) for c, k in zip(cols, ket)
                if not all(M[r][c].is_zero for M in matrices)]
    forms = []
    for M in matrices:
        terms: dict = {}
        for (r, c), product in products:
            entry = M[r][c]
            if entry.is_zero:
                continue
            for exps, coeff in product.items():
                term = entry * coeff
                acc = terms.get(exps)
                terms[exps] = term if acc is None else acc + term
        forms.append(MultiPoly(bra[0].variables, terms, _MAX_DEGREE))
    return forms


def expand_residual_sep_I(O, Q) -> MultiPoly:
    """Exact expansion of the factorization defect on the squared family.

    Both sides of the identity are degree-8 polynomials in
    ``(c0, c0*, c1, c1*)``; the result is (norm factor) x (cross term)^2
    minus the product of the two squared expectation forms.  The zero
    polynomial means the pair factorizes on every family member.
    """
    O = np.array(exact_matrix(O), dtype=object)
    Q = np.array(exact_matrix(Q), dtype=object)
    bra = _amplitudes("I", ("c0*", "c1*"), SEP_I_VARIABLES, GaussianRational)
    ket = _amplitudes("I", ("c0", "c1"), SEP_I_VARIABLES, GaussianRational)
    norm, cross, form_o, form_q = _forms((PAULI_EXACT[0], O @ Q, O, Q), bra, ket, (0, 1), (0, 1))
    return norm * norm * cross * cross - form_o * form_o * form_q * form_q


@dataclass
class Certificate:
    """Outcome of an exact factorization check.

    ``NonzeroMonomial`` verdicts carry one exponent tuple whose coefficient
    is exactly nonzero; ``check_value`` is the polynomial re-evaluated at a
    fixed rational point as an independent cross-check.
    """

    verdict: str
    variables: tuple[str, ...]
    monomial: tuple[int, ...] | None
    coefficient: object | None
    check_point: tuple[tuple[str, str], ...]
    check_value: object
    n_terms: int
    structural: dict[str, bool] | None = None

    @property
    def identically_zero(self) -> bool:
        return self.verdict == "IdenticallyZero"

    def canonical_text(self) -> str:
        lines = [f"verdict={self.verdict}", f"variables={','.join(self.variables)}"]
        if self.monomial is not None:
            lines.append(f"monomial={self.monomial}")
            lines.append(f"coefficient={self.coefficient}")
        lines.append(
            "check_point=" + ",".join(f"{name}={val}" for name, val in self.check_point)
        )
        lines.append(f"check_value={self.check_value}")
        if self.structural is not None:
            flags = ",".join(f"{k}={v}" for k, v in sorted(self.structural.items()))
            lines.append(f"structural={flags}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "variables": list(self.variables),
            "monomial": list(self.monomial) if self.monomial is not None else None,
            "coefficient": str(self.coefficient) if self.coefficient is not None else None,
            "check_point": {name: val for name, val in self.check_point},
            "check_value": str(self.check_value),
            "n_terms": self.n_terms,
            "structural": self.structural,
        }


def _preferred_monomial(poly: MultiPoly):
    """First nonzero monomial, preferring conjugation-unbalanced ones.

    Unbalanced monomials (some variable's exponent differs from its
    conjugate's) are exactly those that can appear on only one side of the
    factorization identity, so they exhibit the failure most directly;
    for diagonal pairs every monomial is balanced and the plain
    lexicographic leader is used.
    """
    items = poly.sorted_terms()
    if not items:
        return None
    idx = {name: k for k, name in enumerate(poly.variables)}
    for exps, coeff in items:
        for name in poly.variables:
            if not name.endswith("*") and exps[idx[name]] != exps[idx[conjugate_name(name)]]:
                return exps, coeff
    return items[0]


def _certificate_from_poly(poly: MultiPoly, point: dict, structural=None) -> Certificate:
    rendered_point = tuple((name, str(point[name])) for name in poly.variables)
    ring = type(next(iter(point.values())))  # the point's ring: a zero polynomial names none
    check = poly.evaluate(point) if not poly.is_zero else ring.coerce(0)
    lead = _preferred_monomial(poly)
    monomial, coefficient = lead or (None, None)
    verdict = "NonzeroMonomial" if lead else "IdenticallyZero"
    return Certificate(verdict, poly.variables, monomial, coefficient, rendered_point, check,
                       len(poly.terms), structural)


def _is_diagonal(M) -> bool:
    return M[0][1].is_zero and M[1][0].is_zero


def _offdiag_products_vanish(O, Q) -> bool:
    # every product <i|O|j><l|Q|k> with i != j, l != k vanishes, i.e. at
    # least one operator is diagonal in this basis
    return _is_diagonal(O) or _is_diagonal(Q)


_HADAMARD = np.array(((GR_ONE, GR_ONE), (GR_ONE, -GR_ONE)), dtype=object)


def _hadamard_conjugate(M):
    # H M H with H = (1/sqrt2)[[1,1],[1,-1]]: rational because the two
    # 1/sqrt2 factors combine to 1/2
    return _HADAMARD @ np.array(M, dtype=object) @ _HADAMARD * GaussianRational(Fraction(1, 2))


def certify_factorization_sep_I(O, Q) -> Certificate:
    """Exact verdict on whether the squared pair factorizes identically.

    ``IdenticallyZero`` holds exactly when one operator is proportional to
    the identity.  The certificate also reports the structural test: whether
    all off-diagonal products vanish in the computational basis and after a
    Hadamard rotation of both operators, and whether one operator is
    diagonal in both bases at once.  A 2x2 matrix diagonal in two
    non-commuting bases is a multiple of the identity, so the last flag is
    equivalent to the verdict; the per-basis flags alone are not (one
    operator may be diagonal here and the other there).
    """
    O = exact_matrix(O)
    Q = exact_matrix(Q)
    poly = expand_residual_sep_I(O, Q)
    O_h, Q_h = _hadamard_conjugate(O), _hadamard_conjugate(Q)
    structural = {
        "computational_basis": _offdiag_products_vanish(O, Q),
        "hadamard_basis": _offdiag_products_vanish(O_h, Q_h),
        "identity_proportional": (_is_diagonal(O) and _is_diagonal(O_h))
        or (_is_diagonal(Q) and _is_diagonal(Q_h)),
    }
    structural["both_bases"] = (
        structural["computational_basis"] and structural["hadamard_basis"]
    )
    point = {
        "c0": GaussianRational(Fraction(1)),
        "c0*": GaussianRational(Fraction(1)),
        "c1": GaussianRational(Fraction(1, 2)),
        "c1*": GaussianRational(Fraction(1, 2)),
    }
    return _certificate_from_poly(poly, point, structural)


# --- sector coupling certificates -------------------------------------------

def certify_sector_coupling(A, B, X: str, Y: str) -> Certificate:
    """Exact test that a mixed sector monomial forces a zero block.

    Expands ``<Psi_X| A_{X,Y} |Psi_Y> <Psi_X| B_{X,Y} |Psi_Y>`` -- the
    coefficient of the mixed sector monomial in the factorization identity --
    over the separable parametrizations of sectors ``X != Y``.
    ``IdenticallyZero`` holds exactly when ``A_{X,Y} = 0`` or
    ``B_{X,Y} = 0``; the verdict is cross-checked against the blocks.
    """
    if X not in SECTORS or Y not in SECTORS or X == Y:
        raise ValueError("X and Y must be distinct sectors among LL, LR, RR")
    A = exact_matrix(A, RootTwoRational)
    B = exact_matrix(B, RootTwoRational)
    if len(A) != 10 or len(B) != 10:
        raise ValueError("sector certificates need 10x10 operators")
    bra_names = tuple(f"c{k}*" for k in range(len(SECTOR_SLOTS[X])))
    ket_names = tuple(f"d{k}" for k in range(len(SECTOR_SLOTS[Y])))
    variables = tuple(
        sorted({n for base in bra_names + ket_names for n in (base, conjugate_name(base))})
    )
    rows = SECTOR_SLOTS[X]
    cols = SECTOR_SLOTS[Y]
    bra = _amplitudes(X, bra_names, variables, RootTwoRational)
    ket = _amplitudes(Y, ket_names, variables, RootTwoRational)
    f, g = _forms((A, B), bra, ket, rows, cols)
    product = f * g
    block_zero = all(A[i][j].is_zero for i in rows for j in cols) or all(
        B[i][j].is_zero for i in rows for j in cols
    )
    if product.is_zero != block_zero:
        raise ConsistencyError(
            "sector polynomial and block matrices disagree on vanishing"
        )
    # one real rational value per base parameter; starred variables get the
    # same value so the point is physically consistent
    bases = sorted({n.rstrip("*") for n in variables})
    point = {n: RootTwoRational.coerce(Fraction(1, bases.index(n.rstrip("*")) + 2))
             for n in variables}
    return _certificate_from_poly(product, point)
