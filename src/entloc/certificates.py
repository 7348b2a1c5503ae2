"""Exact polynomial certificates for the factorization condition.

For a pair of squared two-level operators the factorization identity on the
squared-superposition family is a degree-8 polynomial identity in the state
coefficients and their conjugates; expanding it exactly either shows every
coefficient vanishes (the pair factorizes identically) or exhibits one
nonzero monomial, which is a finite, checkable proof of violation.  The
four-level analogue certifies that an off-diagonal sector block of a local
pair must vanish.

Both certificates expand through one table of exact branch amplitudes,
:func:`_amplitudes`, each one term, and one bilinear form, :func:`_forms`,
one pass over a block's entries.  The amplitudes
are the numeric families' formulas: family I's single-particle factor, and
each sector's parametrization in the ssr family, LL and RR three free
amplitudes and LR the product of an L-side and an R-side superposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import ConsistencyError
from .exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    HALF_SQRT2,
    GaussianRational,
    MultiPoly,
    RootTwoRational,
    bilinear_forms,
    conjugate_name,
)
from .hilbert import SECTOR_SLOTS, SECTORS

PAULI_EXACT = (
    ((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE)),
    ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO)),
    ((GR_ZERO, -GR_I), (GR_I, GR_ZERO)),
    ((GR_ONE, GR_ZERO), (GR_ZERO, -GR_ONE)),
)


def exact_matrix(entries) -> tuple[tuple, ...]:
    """Coerce a nested sequence (or object array) into exact Gaussian-rational entries."""
    rows = tuple(tuple(map(GaussianRational.coerce, row)) for row in entries)
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
    bra side's amplitudes are these with starred ``names``.  Each amplitude
    is one term, built as such.
    """
    if branch != "LR":
        return [MultiPoly.variable(variables, name, ring.coerce(1), _MAX_DEGREE) for name in names]
    return [MultiPoly.monomial(variables, (names[i], names[2 + j]), HALF_SQRT2, _MAX_DEGREE)
            for i in range(2) for j in range(2)]


def _forms(matrices, bra, ket, rows, cols) -> list[MultiPoly]:
    """``sum_{i,j} M[rows[i]][cols[j]] bra_i ket_j`` for every matrix ``M``, from one-term amplitudes."""
    weights = [[[M[r][c] for c in cols] for r in rows] for M in matrices]
    return bilinear_forms(weights, bra, ket, _MAX_DEGREE)


def _residual_poly(O, Q) -> MultiPoly:
    """:func:`expand_residual_sep_I` of two 2x2 matrices of exact entries."""
    bra = _amplitudes("I", ("c0*", "c1*"), SEP_I_VARIABLES, GaussianRational)
    ket = _amplitudes("I", ("c0", "c1"), SEP_I_VARIABLES, GaussianRational)
    OQ = [[O[i][0] * Q[0][j] + O[i][1] * Q[1][j] for j in range(2)] for i in range(2)]
    norm, cross, form_o, form_q = _forms((PAULI_EXACT[0], OQ, O, Q), bra, ket, (0, 1), (0, 1))
    left, right = norm * cross, form_o * form_q
    # left^2 - right^2 as one product: both factors have the same few monomials
    return (left - right) * (left + right)


def expand_residual_sep_I(O, Q) -> MultiPoly:
    """Exact expansion of the factorization defect on the squared family.

    Both sides of the identity are degree-8 polynomials in
    ``(c0, c0*, c1, c1*)``; the result is (norm factor x cross term)^2
    minus (the product of the two expectation forms)^2.  The zero
    polynomial means the pair factorizes on every family member.
    """
    return _residual_poly(exact_matrix(O), exact_matrix(Q))


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
    idx = {name: k for k, name in enumerate(poly.variables)}
    pairs = [(idx[name], idx[conjugate_name(name)]) for name in poly.variables if not name.endswith("*")]
    first = None
    for exps in poly.monomials():
        if any(exps[i] != exps[j] for i, j in pairs):
            return exps, poly.coefficient(exps)
        first = first or (exps, poly.coefficient(exps))
    return first


def _check_point(values: dict) -> tuple[dict, tuple]:
    """A check point and its rendered ``(name, text)`` pairs."""
    return values, tuple((name, str(v)) for name, v in values.items())


@cache
def _sector_point(variables: tuple[str, ...]) -> tuple[dict, tuple]:
    """One real rational value per base parameter, ``1/(k + 2)`` in sorted order; starred
    variables get the same value so the point is physically consistent."""
    bases = sorted({n.rstrip("*") for n in variables})
    values = {base: RootTwoRational.coerce(Fraction(1, k + 2)) for k, base in enumerate(bases)}
    return _check_point({n: values[n.rstrip("*")] for n in variables})


_PAIR_POINT = _check_point({"c0": GR_ONE, "c0*": GR_ONE, "c1": GaussianRational(Fraction(1, 2)),
                            "c1*": GaussianRational(Fraction(1, 2))})


def _certificate_from_poly(poly: MultiPoly, check_point: tuple, structural=None) -> Certificate:
    point, rendered = check_point
    ring = type(next(iter(point.values())))  # the point's ring: a zero polynomial names none
    check = poly.evaluate(point) if not poly.is_zero else ring.coerce(0)
    lead = _preferred_monomial(poly)
    monomial, coefficient = lead or (None, None)
    verdict = "NonzeroMonomial" if lead else "IdenticallyZero"
    return Certificate(verdict, poly.variables, monomial, coefficient, rendered, check, poly.n_terms,
                       structural)


def _is_diagonal(M) -> bool:
    return M[0][1].is_zero and M[1][0].is_zero


def _is_hadamard_diagonal(M) -> bool:
    # H M H with H = (1/sqrt2)[[1,1],[1,-1]] has off-diagonal entries
    # (a - b + c - d)/2 and (a + b - c - d)/2, both zero iff a = d and b = c
    return M[0][0] == M[1][1] and M[0][1] == M[1][0]


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
    poly = _residual_poly(O, Q)
    # in a basis, every product <i|O|j><l|Q|k> with i != j, l != k vanishes
    # exactly when at least one operator is diagonal there
    structural = {
        "computational_basis": _is_diagonal(O) or _is_diagonal(Q),
        "hadamard_basis": _is_hadamard_diagonal(O) or _is_hadamard_diagonal(Q),
        "identity_proportional": (_is_diagonal(O) and _is_hadamard_diagonal(O))
        or (_is_diagonal(Q) and _is_hadamard_diagonal(Q)),
    }
    structural["both_bases"] = (
        structural["computational_basis"] and structural["hadamard_basis"]
    )
    return _certificate_from_poly(poly, _PAIR_POINT, structural)


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
    for M in (A, B):
        if len(M) != 10 or any(len(row) != 10 for row in M):
            raise ValueError("sector certificates need 10x10 operators")
        # only the (X, Y) block is coerced below, but every entry must be exact
        for v in (v for row in M for v in row if type(v) not in (int, GaussianRational, RootTwoRational)):
            RootTwoRational.coerce(v)
    rows, cols = SECTOR_SLOTS[X], SECTOR_SLOTS[Y]
    A, B = ([[RootTwoRational.coerce(M[i][j]) for j in cols] for i in rows] for M in (A, B))
    bra_names = tuple(f"c{k}*" for k in range(len(rows)))
    ket_names = tuple(f"d{k}" for k in range(len(cols)))
    variables = tuple(
        sorted({n for base in bra_names + ket_names for n in (base, conjugate_name(base))})
    )
    bra = _amplitudes(X, bra_names, variables, RootTwoRational)
    ket = _amplitudes(Y, ket_names, variables, RootTwoRational)
    f, g = _forms((A, B), bra, ket, range(len(rows)), range(len(cols)))
    product = f * g
    block_zero = any(all(v.is_zero for row in M for v in row) for M in (A, B))
    if product.is_zero != block_zero:
        raise ConsistencyError(
            "sector polynomial and block matrices disagree on vanishing"
        )
    return _certificate_from_poly(product, _sector_point(variables))
