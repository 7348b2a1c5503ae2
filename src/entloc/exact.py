"""Exact ring arithmetic and sparse multivariate polynomials.

Coefficients are Gaussian rationals (complex numbers with rational real and
imaginary parts), optionally extended by sqrt(2) where symmetrized pair
amplitudes require it.  Polynomials store a map from exponent tuples to
coefficients and support the handful of ring operations the certificates
need; nothing is ever rounded.

Both rings store integer numerators over one positive denominator, reduced
to gcd 1: ``(a + b*i) / d`` and ``(a + b*i + (c + e*i)*sqrt2) / d``.  The
reduced form is unique, so ``==`` and ``hash`` compare integers, and each
``+``, ``-`` or ``*`` is a few integer operations and one ``math.gcd``.
``Fraction`` appears only at the boundary: the constructors, the read-only
``re``/``im``/``rat``/``irr`` parts and the text form.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import DegreeOverflowError


def _rational(v) -> int | Fraction:
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real) and float(v).is_integer():
        return int(float(v))
    raise TypeError(f"cannot coerce {v!r} to an exact rational")


class _IntegerRing:
    """Immutable tuple ``_n`` of integer numerators over a denominator ``_d > 0``."""

    __slots__ = ("_n", "_d")

    @classmethod
    def _make(cls, n: tuple, d: int):
        if d != 1:
            g = gcd(d, *n)
            if g != 1:
                n = tuple(x // g for x in n)
                d //= g
        new = object.__new__(cls)
        object.__setattr__(new, "_n", n)
        object.__setattr__(new, "_d", d)
        return new

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._make, (self._n, self._d)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._n, self._d))

    def __add__(self, other):
        o = self.coerce(other)
        d1, d2 = self._d, o._d
        if d1 == d2:
            return self._make(tuple(map(add, self._n, o._n)), d1)
        return self._make(tuple(x * d2 + y * d1 for x, y in zip(self._n, o._n)), d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return self._make(tuple(-x for x in self._n), self._d)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) + (-self)

    @property
    def is_zero(self) -> bool:
        return not any(self._n)


class GaussianRational(_IntegerRing):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ()

    def __new__(cls, re=0, im=0):
        re, im = _rational(re), _rational(im)
        d = lcm(re.denominator, im.denominator)
        return cls._make(
            (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)), d
        )

    @classmethod
    def coerce(cls, v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real):
            return cls(v.real, v.imag)
        return cls(v)

    @property
    def re(self) -> Fraction:
        return Fraction(self._n[0], self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._n[1], self._d)

    def __mul__(self, other) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        (a, b), (c, e) = self._n, o._n
        return self._make((a * c - b * e, a * e + b * c), self._d * o._d)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        a, b = self._n
        return self._make((a, -b), self._d)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return f"({self.re})+({self.im})i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))


class RootTwoRational(_IntegerRing):
    """Element ``rat + irr*sqrt(2)`` of the quadratic extension of the ring."""

    __slots__ = ()

    def __new__(cls, rat=GR_ZERO, irr=GR_ZERO):
        rat, irr = GaussianRational.coerce(rat), GaussianRational.coerce(irr)
        d = lcm(rat._d, irr._d)
        m, k = d // rat._d, d // irr._d
        return cls._make((rat._n[0] * m, rat._n[1] * m, irr._n[0] * k, irr._n[1] * k), d)

    @classmethod
    def coerce(cls, v) -> "RootTwoRational":
        if isinstance(v, RootTwoRational):
            return v
        return cls(GaussianRational.coerce(v))

    @property
    def rat(self) -> GaussianRational:
        return GaussianRational._make(self._n[:2], self._d)

    @property
    def irr(self) -> GaussianRational:
        return GaussianRational._make(self._n[2:], self._d)

    def __mul__(self, other) -> "RootTwoRational":
        o = RootTwoRational.coerce(other)
        a, b, c, e = self._n
        p, q, r, s = o._n
        # (a + bi + (c + ei)s2)(p + qi + (r + si)s2), with s2^2 = 2
        return self._make(
            (
                a * p - b * q + 2 * (c * r - e * s),
                a * q + b * p + 2 * (c * s + e * r),
                a * r - b * s + c * p - e * q,
                a * s + b * r + c * q + e * p,
            ),
            self._d * o._d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "RootTwoRational":
        # complex conjugation; sqrt(2) is real
        a, b, c, e = self._n
        return self._make((a, -b, c, -e), self._d)

    def to_complex(self) -> complex:
        return self.rat.to_complex() + (2.0**0.5) * self.irr.to_complex()

    def __repr__(self) -> str:
        return f"RootTwoRational({self.rat!r}, {self.irr!r})"

    def __str__(self) -> str:
        return f"{self.rat}+[{self.irr}]sqrt2"


SQRT2 = RootTwoRational(GR_ZERO, GR_ONE)
HALF_SQRT2 = RootTwoRational(GR_ZERO, GaussianRational(Fraction(1, 2)))


def conjugate_name(name: str) -> str:
    return name[:-1] if name.endswith("*") else name + "*"


class MultiPoly:
    """Sparse exact polynomial in named variables.

    Conjugated variables are independent variables whose names end in ``*``;
    :meth:`conjugate` swaps each pair and conjugates coefficients.  A degree
    bound, when set, is enforced after every product and propagated to
    results: exceeding it raises, because in this package any overflow means
    a construction bug rather than a legitimate polynomial.
    """

    __slots__ = ("variables", "terms", "max_degree")

    def __init__(self, variables: tuple[str, ...], terms: dict | None = None,
                 max_degree: int | None = None):
        self.variables = tuple(variables)
        self.max_degree = max_degree
        clean = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != len(self.variables):
                raise ValueError("exponent tuple does not match the variable list")
            if not coeff.is_zero:
                clean[tuple(int(e) for e in exps)] = coeff
        self.terms = clean
        if max_degree is not None:
            for exps in clean:
                if sum(exps) > max_degree:
                    raise DegreeOverflowError(
                        f"monomial degree {sum(exps)} exceeds bound {max_degree}"
                    )

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, variables, max_degree=None) -> "MultiPoly":
        return cls(variables, {}, max_degree)

    @classmethod
    def const(cls, variables, coeff, max_degree=None) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): coeff}, max_degree)

    @classmethod
    def variable(cls, variables, name, coeff, max_degree=None) -> "MultiPoly":
        exps = [0] * len(variables)
        exps[tuple(variables).index(name)] = 1
        return cls(variables, {tuple(exps): coeff}, max_degree)

    # -- ring operations -------------------------------------------------
    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError("polynomials are over different variable lists")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = coeff if acc is None else acc + coeff
        return MultiPoly(self.variables, terms, self._merge_degree(other))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(
            self.variables, {e: -c for e, c in self.terms.items()}, self.max_degree
        )

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = terms.get(exps)
                terms[exps] = prod if acc is None else acc + prod
        return MultiPoly(self.variables, terms, self._merge_degree(other))

    def _merge_degree(self, other: "MultiPoly") -> int | None:
        bounds = [b for b in (self.max_degree, other.max_degree) if b is not None]
        return max(bounds, default=None)

    def conjugate(self) -> "MultiPoly":
        order = []
        for name in self.variables:
            partner = conjugate_name(name)
            if partner not in self.variables:
                raise ValueError(f"variable {name!r} has no conjugate partner")
            order.append(self.variables.index(partner))
        terms = {}
        for exps, coeff in self.terms.items():
            new = tuple(exps[order[k]] for k in range(len(exps)))
            terms[new] = coeff.conjugate()
        return MultiPoly(self.variables, terms, self.max_degree)

    # -- queries ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def evaluate(self, values: dict[str, object]):
        """Exact evaluation; every variable (starred ones too) needs a value."""
        coerce = type(next(iter(self.terms.values()))) if self.terms else GaussianRational
        acc = coerce.coerce(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for name, e in zip(self.variables, exps):
                v = coerce.coerce(values[name])
                for _ in range(e):
                    term = term * v
            acc = acc + term
        return acc

    def evaluate_complex(self, values: dict[str, complex]) -> complex:
        acc = 0j
        for exps, coeff in self.terms.items():
            term = coeff.to_complex()
            for name, e in zip(self.variables, exps):
                term *= values[name] ** e
            acc += term
        return acc

    def canonical_text(self) -> str:
        """Deterministic text form: sorted exponent tuples, exact coefficients."""
        if self.is_zero:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = " ".join(
                f"{name}^{e}" for name, e in zip(self.variables, exps) if e
            )
            parts.append(f"{mono or '1'}: {coeff}")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables}, {len(self.terms)} terms)"
