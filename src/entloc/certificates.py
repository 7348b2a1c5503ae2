"""Exact polynomial certificates for the factorization condition.

For a pair of squared two-level operators the factorization identity on the
squared-superposition family is a degree-8 polynomial identity in the state
coefficients and their conjugates; expanding it exactly either shows every
coefficient vanishes (the pair factorizes identically) or exhibits one
nonzero monomial, which is a finite, checkable proof of violation.  The
four-level analogue certifies that an off-diagonal sector block of a local
pair must vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError
from .exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    HALF_SQRT2,
    SQRT2,
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
    rows = []
    for row in entries:
        rows.append(tuple(ring.coerce(v) for v in row))
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return tuple(rows)


def _matmul(A, B, ring):
    n = len(A)
    return tuple(
        tuple(
            _ring_sum((A[i][k] * B[k][j] for k in range(n)), ring) for j in range(n)
        )
        for i in range(n)
    )


def _ring_sum(items, ring):
    acc = ring.coerce(0)
    for v in items:
        acc = acc + v
    return acc


def _is_zero_matrix(M) -> bool:
    return all(v.is_zero for row in M for v in row)


SEP_I_VARIABLES = ("c0", "c0*", "c1", "c1*")


def _quadratic_form(M, variables, ring, max_degree) -> MultiPoly:
    """``sum_{l,k} M[l][k] conj(c_l) c_k`` as an exact polynomial."""
    poly = MultiPoly.zero(variables, max_degree)
    for l in range(2):
        for k in range(2):
            if M[l][k].is_zero:
                continue
            exps = [0, 0, 0, 0]
            exps[2 * l + 1] += 1  # starred variable of c_l
            exps[2 * k] += 1
            poly = poly + MultiPoly(variables, {tuple(exps): M[l][k]}, max_degree)
    return poly


def expand_residual_sep_I(O, Q) -> MultiPoly:
    """Exact expansion of the factorization defect on the squared family.

    Both sides of the identity are degree-8 polynomials in
    ``(c0, c0*, c1, c1*)``; the result is (norm factor) x (cross term)^2
    minus the product of the two squared expectation forms.  The zero
    polynomial means the pair factorizes on every family member.
    """
    ring = GaussianRational
    O = exact_matrix(O, ring)
    Q = exact_matrix(Q, ring)
    variables = SEP_I_VARIABLES
    cap = 8
    norm = _quadratic_form(PAULI_EXACT[0], variables, ring, cap)
    cross = _quadratic_form(_matmul(O, Q, ring), variables, ring, cap)
    form_o = _quadratic_form(O, variables, ring, cap)
    form_q = _quadratic_form(Q, variables, ring, cap)
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
    check = poly.evaluate(point) if not poly.is_zero else GaussianRational.coerce(0)
    lead = _preferred_monomial(poly)
    if lead is None:
        return Certificate(
            "IdenticallyZero", poly.variables, None, None, rendered_point, check, 0, structural
        )
    return Certificate(
        "NonzeroMonomial",
        poly.variables,
        lead[0],
        lead[1],
        rendered_point,
        check,
        len(poly.terms),
        structural,
    )


def _is_diagonal(M) -> bool:
    return M[0][1].is_zero and M[1][0].is_zero


def _offdiag_products_vanish(O, Q) -> bool:
    # every product <i|O|j><l|Q|k> with i != j, l != k vanishes, i.e. at
    # least one operator is diagonal in this basis
    return _is_diagonal(O) or _is_diagonal(Q)


def _hadamard_conjugate(M):
    # H M H with H = (1/sqrt2)[[1,1],[1,-1]]: rational because the two
    # 1/sqrt2 factors combine to 1/2
    half = GaussianRational(Fraction(1, 2))
    mix = ((GR_ONE, GR_ONE), (GR_ONE, -GR_ONE))
    inner = _matmul(_matmul(mix, M, GaussianRational), mix, GaussianRational)
    return tuple(tuple(half * v for v in row) for row in inner)


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

def _sector_params(sector: str) -> int:
    return {"LL": 2, "LR": 4, "RR": 3}[sector]


def _sector_amplitudes(sector, names, variables, cap) -> list[MultiPoly]:
    """Slot amplitudes of a separable sector state as exact polynomials.

    ``names`` are this side's parameter variables (already starred for the
    bra side; the parametrization constants are real, so conjugating the
    amplitudes only renames the variables).
    """

    def var(k):
        return MultiPoly.variable(variables, names[k], RootTwoRational.coerce(1), cap)

    if sector == "LL":
        p0, p1 = var(0), var(1)
        root2 = MultiPoly.const(variables, SQRT2, cap)
        return [p0 * p0, root2 * p0 * p1, p1 * p1]
    if sector == "RR":
        return [var(0), var(1), var(2)]
    # LR: product of an L-side and an R-side superposition; the symmetric
    # pair amplitude carries 1/sqrt2
    half_root2 = MultiPoly.const(variables, HALF_SQRT2, cap)
    out = []
    for sig in range(2):
        for tau in range(2):
            out.append(half_root2 * var(sig) * var(2 + tau))
    return out


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
    bra_names = tuple(f"c{k}*" for k in range(_sector_params(X)))
    ket_names = tuple(f"d{k}" for k in range(_sector_params(Y)))
    variables = tuple(
        sorted(
            {n for base in bra_names for n in (base, conjugate_name(base))}
            | {n for base in ket_names for n in (base, conjugate_name(base))}
        )
    )
    cap = 8
    bra = _sector_amplitudes(X, bra_names, variables, cap)
    ket = _sector_amplitudes(Y, ket_names, variables, cap)
    rows = SECTOR_SLOTS[X]
    cols = SECTOR_SLOTS[Y]

    def coupling(M) -> MultiPoly:
        poly = MultiPoly.zero(variables, cap)
        for i, slot_i in enumerate(rows):
            for j, slot_j in enumerate(cols):
                entry = M[slot_i][slot_j]
                if entry.is_zero:
                    continue
                poly = poly + MultiPoly.const(variables, entry, cap) * bra[i] * ket[j]
        return poly

    f = coupling(A)
    g = coupling(B)
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
    point: dict[str, RootTwoRational] = {}
    for k, base in enumerate(bases):
        value = RootTwoRational.coerce(Fraction(1, k + 2))
        point[base] = value
        point[base + "*"] = value
    point = {n: point[n] for n in variables}
    return _certificate_from_poly(product, point)
