"""Exact ring arithmetic and sparse multivariate polynomials.

Coefficients are Gaussian rationals (complex numbers with rational real and
imaginary parts), optionally extended by sqrt(2) where symmetrized pair
amplitudes require it.  Polynomials store a map from exponent tuples to
coefficients and support the handful of ring operations the certificates
need; nothing is ever rounded.

Both rings store integer numerators over one positive denominator, reduced
to gcd 1: ``(a + b*i) / d`` and ``(a + b*i + (c + e*i)*sqrt2) / d``.  The
reduced form is unique, so ``==`` and ``hash`` compare integers.  Each
ring's product is written once, as a function on numerator tuples
(:func:`_gauss_mul`, :func:`_root_two_mul`); a ring element's ``*`` and the
polynomial kernel both call it.  A polynomial product, sum or evaluation
scales its operands' numerators to one common denominator, multiplies and
adds plain integers, and reduces each surviving coefficient once, with one
``math.gcd``; it builds no ring element per term.  ``Fraction`` appears
only at the boundary: the constructors and the read-only
``re``/``im``/``rat``/``irr`` parts.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .errors import DegreeOverflowError


def _rational(v) -> int | Fraction:
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real) and float(v).is_integer():
        return int(float(v))
    raise TypeError(f"cannot coerce {v!r} to an exact rational")


def _gauss_mul(x: tuple, y: tuple) -> tuple:
    """Numerators of the product of ``(a + b*i)`` and ``(c + e*i)``."""
    (a, b), (c, e) = x, y
    return (a * c - b * e, a * e + b * c)


def _root_two_mul(x: tuple, y: tuple) -> tuple:
    """Numerators of ``(a + bi + (c + ei)s2)(p + qi + (r + si)s2)``, with ``s2^2 = 2``."""
    a, b, c, e = x
    p, q, r, s = y
    return (
        a * p - b * q + 2 * (c * r - e * s),
        a * q + b * p + 2 * (c * s + e * r),
        a * r - b * s + c * p - e * q,
        a * s + b * r + c * q + e * p,
    )


# complex conjugation negates every imaginary numerator; sqrt(2) is real
_CONJUGATE_SIGNS = (1, -1, 1, -1)


def _scale(n: tuple, k: int) -> tuple:
    return tuple(map(k.__mul__, n))


class _IntegerRing:
    """Immutable tuple ``_n`` of integer numerators over a denominator ``_d > 0``.

    A subclass sets ``_mul``, its product of numerator tuples.
    """

    __slots__ = ("_n", "_d")

    @classmethod
    def _new(cls, n: tuple, d: int):
        """Wrap numerators that are already reduced over ``d``."""
        new = object.__new__(cls)
        _SET_N(new, n)
        _SET_D(new, d)
        return new

    @classmethod
    def _make(cls, n: tuple, d: int):
        """Reduce ``n / d`` to gcd 1 and wrap it."""
        if d != 1:
            g = gcd(d, *n)
            if g != 1:
                n = tuple([x // g for x in n])
                d //= g
        return cls._new(n, d)

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
        return self._new(tuple(-x for x in self._n), self._d)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) + (-self)

    def __mul__(self, other):
        o = self.coerce(other)
        return self._make(self._mul(self._n, o._n), self._d * o._d)

    __rmul__ = __mul__

    def conjugate(self):
        return self._new(tuple(map(mul, self._n, _CONJUGATE_SIGNS)), self._d)

    @property
    def is_zero(self) -> bool:
        return not any(self._n)


# the slot setters, which bypass the immutability guard of ``__setattr__``
_SET_N, _SET_D = _IntegerRing._n.__set__, _IntegerRing._d.__set__


def _fraction_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _gauss_text(re: int, im: int, d: int) -> str:
    return f"({_fraction_text(re, d)})+({_fraction_text(im, d)})i"


class GaussianRational(_IntegerRing):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ()
    _mul = staticmethod(_gauss_mul)

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
        if type(v) is int:
            return cls._new((v, 0), 1)
        if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real):
            return cls(v.real, v.imag)
        return cls(v)

    @property
    def re(self) -> Fraction:
        return Fraction(self._n[0], self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._n[1], self._d)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return _gauss_text(*self._n, self._d)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))


class RootTwoRational(_IntegerRing):
    """Element ``rat + irr*sqrt(2)`` of the quadratic extension of the ring."""

    __slots__ = ()
    _mul = staticmethod(_root_two_mul)

    def __new__(cls, rat=GR_ZERO, irr=GR_ZERO):
        rat, irr = GaussianRational.coerce(rat), GaussianRational.coerce(irr)
        d = lcm(rat._d, irr._d)
        m, k = d // rat._d, d // irr._d
        return cls._make((rat._n[0] * m, rat._n[1] * m, irr._n[0] * k, irr._n[1] * k), d)

    @classmethod
    def coerce(cls, v) -> "RootTwoRational":
        if isinstance(v, RootTwoRational):
            return v
        if not isinstance(v, GaussianRational):
            v = GaussianRational.coerce(v)
        # a reduced (a + b*i)/d embeds as (a + b*i + 0*sqrt2)/d, still reduced
        return cls._new(v._n + (0, 0), v._d)

    @property
    def rat(self) -> GaussianRational:
        return GaussianRational._make(self._n[:2], self._d)

    @property
    def irr(self) -> GaussianRational:
        return GaussianRational._make(self._n[2:], self._d)

    def to_complex(self) -> complex:
        return self.rat.to_complex() + (2.0**0.5) * self.irr.to_complex()

    def __repr__(self) -> str:
        return f"RootTwoRational({self.rat!r}, {self.irr!r})"

    def __str__(self) -> str:
        a, b, c, e = self._n
        return f"{_gauss_text(a, b, self._d)}+[{_gauss_text(c, e, self._d)}]sqrt2"


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

    ``+``, ``*`` and :meth:`evaluate` run on integer numerators: ``+`` and
    ``*`` go through :func:`sum_of_products`, and each builds one ring
    element per surviving coefficient.
    """

    __slots__ = ("variables", "terms", "max_degree")

    def __init__(self, variables: tuple[str, ...], terms: dict | None = None,
                 max_degree: int | None = None):
        self.variables = tuple(variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != len(self.variables):
                raise ValueError("exponent tuple does not match the variable list")
            if not coeff.is_zero:
                clean[tuple(int(e) for e in exps)] = coeff
        self._set(clean, max_degree)

    def _set(self, terms: dict, max_degree: int | None) -> None:
        self.terms = terms
        self.max_degree = max_degree
        if max_degree is not None:
            for exps in terms:
                if sum(exps) > max_degree:
                    raise DegreeOverflowError(
                        f"monomial degree {sum(exps)} exceeds bound {max_degree}"
                    )

    @staticmethod
    def _new(variables: tuple, terms: dict, max_degree: int | None) -> "MultiPoly":
        """A polynomial from a variable tuple and nonzero coefficients keyed by int tuples."""
        new = object.__new__(MultiPoly)
        new.variables = variables
        new._set(terms, max_degree)
        return new

    def _ring(self):
        """The ring of the first coefficient."""
        return type(next(iter(self.terms.values())))

    def _numerators(self, ring) -> tuple[list, int]:
        """``(exps, numerators)`` of every term in ``ring``, over the least common denominator."""
        coeffs = [c if type(c) is ring else ring.coerce(c) for c in self.terms.values()]
        d = lcm(*[c._d for c in coeffs])
        return [(e, c._n if c._d == d else _scale(c._n, d // c._d))
                for e, c in zip(self.terms, coeffs)], d

    # -- constructors --------------------------------------------------
    @classmethod
    def const(cls, variables, coeff, max_degree=None) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): coeff}, max_degree)

    @classmethod
    def variable(cls, variables, name, coeff, max_degree=None) -> "MultiPoly":
        exps = [0] * len(variables)
        exps[tuple(variables).index(name)] = 1
        return cls(variables, {tuple(exps): coeff}, max_degree)

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        unit = MultiPoly.const(self.variables, GR_ONE)
        return sum_of_products(self.variables, ((self, unit), (other, unit)), ((1, 1),),
                               self._merge_degree(other))[0]

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._new(self.variables, {e: -c for e, c in self.terms.items()}, self.max_degree)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return sum_of_products(self.variables, ((self, other),), ((1,),), self._merge_degree(other))[0]

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
        terms = {tuple(exps[k] for k in order): coeff.conjugate()
                 for exps, coeff in self.terms.items()}
        return MultiPoly._new(self.variables, terms, self.max_degree)

    # -- queries ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def evaluate(self, values: dict[str, object]):
        """Exact evaluation; every variable (starred ones too) needs a value.

        Each value's powers are tabulated once on raw numerators, each scaled
        by the power of the value's denominator that the variable's highest
        exponent leaves, so every term lands on one common denominator and
        the sum is reduced once.
        """
        if not self.terms:
            return GaussianRational.coerce(0)
        ring = self._ring()
        numerators, d = self._numerators(ring)
        prod = ring._mul
        tables = []
        for name, top in zip(self.variables, map(max, zip(*self.terms))):
            v = ring.coerce(values[name])
            powers = [v._n]
            while len(powers) < top:
                powers.append(prod(powers[-1], v._n))
            # a real power only scales a term, so it is kept as its one numerator
            table = [v._d**top]
            for e, p in enumerate(powers[:top], 1):
                p = _scale(p, v._d ** (top - e))
                table.append(p if any(p[1:]) else p[0])
            tables.append(table)
            d *= table[0]
        total = None
        for exps, n in numerators:
            scale = 1
            for table, e in zip(tables, exps):
                t = table[e]
                if type(t) is int:
                    scale *= t
                else:
                    n = prod(n, t)
            n = _scale(n, scale)
            total = n if total is None else tuple(map(add, total, n))
        return ring._make(total, d)

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


def sum_of_products(variables, pairs, weights, max_degree: int | None = None) -> list[MultiPoly]:
    """``sum_k w[k] p_k q_k`` for each row ``w`` of ``weights``, over ``pairs = [(p_k, q_k)]``.

    The one polynomial product kernel, on raw numerators: ``p * q`` is one
    pair under the weight 1, ``p + q`` two pairs whose second factor is 1,
    and each row of ``weights`` gives one result.  Each polynomial's
    coefficients are scaled to their common denominator once per call, and
    each weight so that a row's terms land on one denominator.  A term is
    then a product of integer tuples by the ring's product function, and
    each surviving coefficient is reduced once.
    """
    variables = tuple(variables)
    ring = None
    raw = {}
    for p, q in pairs:
        if p.variables != variables or q.variables != variables:
            raise ValueError("polynomials are over different variable lists")
        if p.terms and q.terms:
            ring = ring or p._ring()
            for poly in (p, q):
                if id(poly) not in raw:
                    raw[id(poly)] = poly._numerators(ring)
    ring = ring or GaussianRational
    prod, make = ring._mul, ring._make
    results = []
    for row in weights:
        if len(row) != len(pairs):
            raise ValueError("a weight row needs one weight per pair")
        plan = []
        for w, (p, q) in zip(row, pairs):
            if id(p) in raw and id(q) in raw:
                w = ring.coerce(w)
                if any(w._n):
                    plan.append((w, raw[id(p)], raw[id(q)]))
        d = lcm(*[w._d * dp * dq for w, (_, dp), (_, dq) in plan])
        acc: dict = {}
        for w, (xs, dp), (ys, dq) in plan:
            w = _scale(w._n, d // (w._d * dp * dq))
            for e1, x in xs:
                x = prod(w, x)
                for e2, y in ys:
                    exps = tuple(map(add, e1, e2))
                    t = prod(x, y)
                    a = acc.get(exps)
                    acc[exps] = t if a is None else tuple(map(add, a, t))
        results.append(MultiPoly._new(variables, {e: make(n, d) for e, n in acc.items() if any(n)},
                                      max_degree))
    return results
