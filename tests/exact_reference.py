"""References for the exact polynomials: floating-point evaluation, for the
certificates' expansions and amplitudes beside the numeric families and
residuals they are compared with, and the tuple-keyed algorithms the
polynomial store is checked against.

The tuple-keyed references hold a polynomial as a dict from exponent tuples
to ring elements, one ring element per term product, added into that dict:
the algorithm ``MultiPoly`` ran before its integer kernel and its packed
monomial keys.  Each takes anything with ``variables`` and ``terms``, a
``MultiPoly`` or a :class:`RefPoly`.
"""

from typing import NamedTuple

from entloc.exact import GaussianRational, conjugate_name


def evaluate_complex(poly, values: dict[str, complex]) -> complex:
    acc = 0j
    for exps, coeff in poly.terms.items():
        term = coeff.to_complex()
        for name, e in zip(poly.variables, exps):
            term *= values[name] ** e
        acc += term
    return acc


class RefPoly(NamedTuple):
    """A polynomial as exponent tuples mapped to nonzero ring elements."""

    variables: tuple
    terms: dict


def ref_sum(*polys) -> dict:
    terms = {}
    for p in polys:
        for exps, coeff in p.terms.items():
            acc = terms.get(exps)
            terms[exps] = coeff if acc is None else acc + coeff
    return {e: c for e, c in terms.items() if not c.is_zero}


def ref_product(p, q) -> dict:
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            acc = terms.get(exps)
            terms[exps] = prod if acc is None else acc + prod
    return {e: c for e, c in terms.items() if not c.is_zero}


def ref_conjugate(p) -> dict:
    order = [p.variables.index(conjugate_name(name)) for name in p.variables]
    return {tuple(exps[k] for k in order): coeff.conjugate() for exps, coeff in p.terms.items()}


def ref_evaluate(p, values):
    ring = type(next(iter(p.terms.values()))) if p.terms else GaussianRational
    acc = ring.coerce(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for name, e in zip(p.variables, exps):
            for _ in range(e):
                term = term * ring.coerce(values[name])
        acc = acc + term
    return acc


def ref_sorted_terms(p) -> list:
    """Terms in lexicographic order of their exponent tuples."""
    return sorted(p.terms.items(), key=lambda kv: kv[0])


def ref_canonical_text(p) -> str:
    parts = []
    for exps, coeff in ref_sorted_terms(p):
        mono = " ".join(f"{name}^{e}" for name, e in zip(p.variables, exps) if e)
        parts.append(f"{mono or '1'}: {coeff}")
    return "; ".join(parts) or "0"


def ref_exceeds(terms: dict, bound: int) -> bool:
    """Whether a monomial of ``terms`` has total degree past ``bound``."""
    return any(sum(exps) > bound for exps in terms)
