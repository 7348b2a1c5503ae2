"""Exact ring arithmetic and sparse multivariate polynomials.

Coefficients are Gaussian rationals (complex numbers with rational real and
imaginary parts), optionally extended by sqrt(2) where symmetrized pair
amplitudes require it.  Polynomials support the handful of ring operations
the certificates need; nothing is ever rounded.

Both rings store integer numerators over one positive denominator, reduced
to gcd 1: ``(a + b*i) / d`` and ``(a + b*i + (c + e*i)*sqrt2) / d``.  The
reduced form is unique, so ``==`` and ``hash`` compare integers.  Each
product is written once.  The Gaussian one is the loop over term pairs that
the polynomial kernel runs (:func:`_gauss_products`); a scalar product is
that loop on one pair.  The sqrt(2) ring's is :func:`_root_two_mul`, and the
kernel reads its action on the two Gaussian halves of a numerator tuple off
that function.

A polynomial is one ring, one common denominator, and a dict from packed
monomial keys to integer numerator tuples.  A key packs one byte per
exponent, the first variable most significant, and the total degree in the
lowest byte: keys sort as their exponent tuples do, a product of monomials
is a sum of keys, and a degree bound reads one byte.  A product, sum or
evaluation runs on these integers and builds no ring element per term; a
coefficient is reduced, with one ``math.gcd``, only when it is read.
``Fraction`` appears only at the boundary: the constructors and the
read-only ``re``/``im``/``rat``/``irr`` parts.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from math import prod as prod_ints
from operator import add, getitem, mul, or_

from .errors import DegreeOverflowError


def _rational(v) -> int | Fraction:
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real) and float(v).is_integer():
        return int(float(v))
    raise TypeError(f"cannot coerce {v!r} to an exact rational")


def _gauss_products(xs, ys, acc: dict, c: int = 1) -> None:
    """Add ``c * x * y`` under the key ``k1 + k2`` to ``acc``, for every ``(k1, x)`` of ``xs``
    and ``(k2, y)`` of ``ys``, where ``(a, b)`` are the numerators of ``a + b*i``.

    The one product of Gaussian numerators, written out in the loop over term
    pairs because the polynomial kernel runs it on every pair.
    """
    for k1, (a, b) in xs:
        a, b = c * a, c * b
        for k2, (p, q) in ys:
            k = k1 + k2
            v = acc.get(k)
            if v is None:
                acc[k] = [a * p - b * q, a * q + b * p]
            else:
                v[0] += a * p - b * q
                v[1] += a * q + b * p


def _gauss_mul(x: tuple, y: tuple) -> tuple:
    """Numerators of the product of ``(a + b*i)`` and ``(c + e*i)``."""
    acc: dict = {}
    _gauss_products(((0, x),), ((0, y),), acc)
    return tuple(acc[0])


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


def _half_table(product, width: int) -> tuple:
    """``(s, t, r, c)``: the product of the units of the Gaussian halves ``s`` and ``t`` of a
    numerator tuple is ``c`` times the unit of half ``r``, read off a ring's product function.
    A Gaussian rational is one half; ``(a + b*i) + (c + e*i)*sqrt2`` is two, with
    ``sqrt2 * sqrt2 = 2``."""
    units = [tuple(int(i == 2 * h) for i in range(width)) for h in range(width // 2)]
    return tuple((s, t, r // 2, c) for s in range(len(units)) for t in range(len(units))
                 for r, c in enumerate(product(units[s], units[t])) if c)


# complex conjugation negates every imaginary numerator; sqrt(2) is real
_CONJUGATE_SIGNS = (1, -1, 1, -1)


def _scale(n: tuple, k: int) -> tuple:
    return n if k == 1 else tuple(map(k.__mul__, n))


class _IntegerRing:
    """Immutable tuple ``_n`` of integer numerators over a denominator ``_d > 0``.

    A subclass sets ``_mul``, its product of numerator tuples, ``_width``, the
    length of those tuples, and ``_half_products``, the table of ``_mul`` on
    the units of their Gaussian halves, which the polynomial kernel reads.
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
    _mul, _width = staticmethod(_gauss_mul), 2
    _half_products = _half_table(_gauss_mul, 2)

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
    _mul, _width = staticmethod(_root_two_mul), 4
    _half_products = _half_table(_root_two_mul, 4)

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


# a packed key's byte: each exponent and the total degree fit in one, so a key's degree is
# ``key & _BYTE``, and a sum of keys adds exponents while no byte passes it
_BYTE = 255


def _pack(exps) -> int:
    exps = tuple(map(int, exps))
    if min(exps, default=0) < 0:
        raise ValueError(f"negative exponent in {exps}")
    degree = sum(exps)
    if degree > _BYTE:
        raise DegreeOverflowError(f"monomial degree {degree} exceeds the packed bound {_BYTE}")
    return int.from_bytes(bytes((*exps, degree)), "big")


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key over ``n`` variables."""
    return tuple(key.to_bytes(n + 1, "big")[:n])


def _widest(rings) -> type:
    """The sqrt(2) ring if one of ``rings`` is it, else the Gaussian rationals."""
    return RootTwoRational if RootTwoRational in set(rings) else GaussianRational


class MultiPoly:
    """Sparse exact polynomial in named variables.

    Conjugated variables are independent variables whose names end in ``*``;
    :meth:`conjugate` swaps each pair and conjugates coefficients.  A degree
    bound, when set, is enforced after every product and propagated to
    results: exceeding it raises, because in this package any overflow means
    a construction bug rather than a legitimate polynomial.  A monomial of
    total degree past 255, the width of its packed byte, is refused the same
    way.

    The store is one ring, one positive denominator ``_d`` and a dict
    ``_terms`` from packed monomial keys to nonzero integer numerator tuples
    over ``_d``, not reduced.  ``+``, ``*`` and :meth:`evaluate` run on those
    integers; :attr:`terms`, :meth:`sorted_terms` and :meth:`coefficient`
    build ring elements, each reduced once, when they are read.
    """

    __slots__ = ("variables", "max_degree", "_ring", "_terms", "_d")

    def __init__(self, variables: tuple[str, ...], terms: dict | None = None,
                 max_degree: int | None = None):
        self.variables = tuple(variables)
        coeffs = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != len(self.variables):
                raise ValueError("exponent tuple does not match the variable list")
            if not coeff.is_zero:
                coeffs[_pack(exps)] = coeff
        ring = _widest(map(type, coeffs.values()))
        coeffs = {k: ring.coerce(c) for k, c in coeffs.items()}
        d = lcm(*[c._d for c in coeffs.values()])
        self._set(ring, {k: _scale(c._n, d // c._d) for k, c in coeffs.items()}, d, max_degree)

    def _set(self, ring, terms: dict, d: int, max_degree: int | None, top: int | None = None) -> None:
        """Store the terms; ``top``, when given, bounds their degrees, and spares the check."""
        self._ring, self._terms, self._d, self.max_degree = ring, terms, d, max_degree
        if max_degree is not None and (top is None or top > max_degree):
            top = max((k & _BYTE for k in terms), default=0)
            if top > max_degree:
                raise DegreeOverflowError(f"monomial degree {top} exceeds bound {max_degree}")

    @staticmethod
    def _packed(variables: tuple, ring, terms: dict, d: int, max_degree: int | None,
                top: int | None = None) -> "MultiPoly":
        """A polynomial from packed keys mapped to nonzero numerators of ``ring`` over ``d``."""
        new = object.__new__(MultiPoly)
        new.variables = variables
        new._set(ring, terms, d, max_degree, top)
        return new

    def _numerators(self, ring) -> list:
        """``(key, numerators)`` of every term in ``ring``, over ``_d``; a Gaussian store embeds
        in the sqrt(2) ring, with zero sqrt(2) parts."""
        if ring is self._ring:
            return list(self._terms.items())
        return [(k, n + (0, 0)) for k, n in self._terms.items()]

    # -- constructors --------------------------------------------------
    @classmethod
    def const(cls, variables, coeff, max_degree=None) -> "MultiPoly":
        return cls.monomial(variables, (), coeff, max_degree)

    @classmethod
    def variable(cls, variables, name, coeff, max_degree=None) -> "MultiPoly":
        return cls.monomial(variables, (name,), coeff, max_degree)

    @classmethod
    def monomial(cls, variables, names, coeff, max_degree=None) -> "MultiPoly":
        """``coeff`` times the product of the variables ``names``, built as its one packed term."""
        variables = tuple(variables)
        if len(names) > _BYTE:
            raise DegreeOverflowError(f"monomial degree {len(names)} exceeds the packed bound {_BYTE}")
        key = len(names) + sum(1 << 8 * (len(variables) - variables.index(name)) for name in names)
        ring = _widest((type(coeff),))
        c = ring.coerce(coeff)
        return cls._packed(variables, ring, {key: c._n} if any(c._n) else {}, c._d, max_degree)

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __neg__(self) -> "MultiPoly":
        terms = {k: tuple(-x for x in n) for k, n in self._terms.items()}
        return MultiPoly._packed(self.variables, self._ring, terms, self._d, self.max_degree)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """``self + sign * other``, in the wider ring, over the least common denominator."""
        if other.variables != self.variables:
            raise ValueError("polynomials are over different variable lists")
        ring = _widest((self._ring, other._ring))
        d = lcm(self._d, other._d)
        m = d // self._d
        acc = {k: _scale(n, m) for k, n in self._numerators(ring)}
        m = sign * (d // other._d)
        for k, n in other._numerators(ring):
            n, a = _scale(n, m), acc.get(k)
            acc[k] = n if a is None else tuple(map(add, a, n))
        terms = {k: n for k, n in acc.items() if any(n)}
        return MultiPoly._packed(self.variables, ring, terms, d, self._merge_degree(other))

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
        n = len(order)
        order.append(n)  # the degree byte stays
        terms = {}
        for key, num in self._terms.items():
            digits = key.to_bytes(n + 1, "big")
            key = int.from_bytes(bytes([digits[k] for k in order]), "big")
            terms[key] = tuple(map(mul, num, _CONJUGATE_SIGNS))
        return MultiPoly._packed(self.variables, self._ring, terms, self._d, self.max_degree)

    # -- queries ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def terms(self) -> dict[tuple[int, ...], object]:
        """Every nonzero coefficient, keyed by its exponent tuple; built when read."""
        n, make, d = len(self.variables), self._ring._make, self._d
        return {_unpack(k, n): make(num, d) for k, num in self._terms.items()}

    def monomials(self):
        """The exponent tuples of the nonzero terms, in lexicographic order, each unpacked
        when the iterator reaches it."""
        n = len(self.variables)
        return (_unpack(k, n) for k in sorted(self._terms))

    def coefficient(self, exps) -> object:
        """The coefficient of one monomial, zero when it has no term."""
        num = self._terms.get(_pack(exps)) if len(exps) == len(self.variables) else None
        return self._ring.coerce(0) if num is None else self._ring._make(num, self._d)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return [(exps, self.coefficient(exps)) for exps in self.monomials()]

    def evaluate(self, values: dict[str, object]):
        """Exact evaluation; every variable (starred ones too) needs a value.

        Each value's powers are tabulated once on raw numerators, up to a
        bound of the variable's exponents (its byte in the OR of the keys),
        each scaled by the power of the value's denominator that the bound
        leaves, so every term lands on one common denominator and the sum is
        reduced once.  A real value's powers are integers: a term's product
        of those is one ``math.prod`` over its key's bytes, and the sum is one
        integer dot product per numerator slot.  Only the powers of other
        values are ring products, applied to the terms they touch.
        """
        if not self._terms:
            return GaussianRational.coerce(0)
        ring, n = self._ring, len(self.variables)
        prod = ring._mul
        digits = [key.to_bytes(n + 1, "big") for key in self._terms]
        nums = list(self._terms.values())
        d = self._d
        scales, rotations = [], []  # per variable: integer factors, and the ring powers of a non-real value
        for k, top in enumerate(reduce(or_, self._terms).to_bytes(n + 1, "big")[:n]):
            if not top:
                scales.append((1,))
                continue
            v = ring.coerce(values[self.variables[k]])
            if any(v._n[1:]):
                powers = [v._n]
                while len(powers) < top:
                    powers.append(prod(powers[-1], v._n))
                scales.append((v._d**top,) + (1,) * top)
                table = [_scale(p, v._d ** (top - e)) for e, p in enumerate(powers, 1)]
                rotations.append((k, [None, *table]))
            else:  # a real value's powers only scale a term
                scales.append([v._n[0] ** e * v._d ** (top - e) for e in range(top + 1)])
            d *= v._d**top
        for k, table in rotations:
            nums = [prod(num, table[dg[k]]) if dg[k] else num for dg, num in zip(digits, nums)]
        factors = [prod_ints(map(getitem, scales, dg)) for dg in digits]
        return ring._make(tuple(sum(map(mul, column, factors)) for column in zip(*nums)), d)

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
        return f"MultiPoly({self.variables}, {len(self._terms)} terms)"


def sum_of_products(variables, pairs, weights, max_degree: int | None = None) -> list[MultiPoly]:
    """``sum_k w[k] p_k q_k`` for each row ``w`` of ``weights``, over ``pairs = [(p_k, q_k)]``.

    The one polynomial product kernel, on stored numerators: ``p * q`` is one
    pair under the weight 1, and each row of ``weights`` gives one result, in
    the widest ring of the operands.  A product of monomials adds their
    packed keys.  Each operand is split into the Gaussian halves of its
    numerators (one, or the rational and the sqrt(2) half), and each pair of
    halves that both hold terms runs :func:`_gauss_products` into the half
    the ring's table names.  A weight that is not a real integer multiplies
    the first factor's numerators first.  Each weight is scaled so that a
    row's terms land on one denominator, and no coefficient is reduced here.
    """
    variables = tuple(variables)
    for p, q in pairs:
        if p.variables != variables or q.variables != variables:
            raise ValueError("polynomials are over different variable lists")
    live = [poly for pair in pairs if pair[0]._terms and pair[1]._terms for poly in pair]
    ring = _widest(p._ring for p in live)
    prod, width = ring._mul, ring._width
    # each operand's numerators, halves, denominator and top degree, read once per call
    raw = {}
    for p in live:
        if id(p) not in raw:
            items = p._numerators(ring)
            raw[id(p)] = items, _halves(items, width), p._d, max(k & _BYTE for k in p._terms)
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
        top = max((x[3] + y[3] for _, x, y in plan), default=0)
        if top > _BYTE:  # a key's bytes would carry into each other
            raise DegreeOverflowError(f"monomial degree {top} exceeds the packed bound {_BYTE}")
        d = lcm(*[w._d * x[2] * y[2] for w, x, y in plan])
        accs = [{} for _ in range(width // 2)]
        for w, (items, xs, dx, _), (_, ys, dy, _) in plan:
            w = _scale(w._n, d // (w._d * dx * dy))
            if any(w[1:]):
                xs, scale = _halves([(k, prod(w, x)) for k, x in items], width), 1
            else:
                scale = w[0]
            for s, t, r, c in ring._half_products:
                if xs[s] and ys[t]:
                    _gauss_products(xs[s], ys[t], accs[r], c * scale)
        terms = {}
        for r, acc in enumerate(accs):
            for k, (re, im) in acc.items():
                if re or im:
                    n = terms.get(k)
                    if n is None:
                        n = terms[k] = [0] * width
                    n[2 * r], n[2 * r + 1] = re, im
        terms = {k: tuple(n) for k, n in terms.items()}
        results.append(MultiPoly._packed(variables, ring, terms, d, max_degree, top))
    return results


def _halves(items: list, width: int) -> list[list]:
    """``(key, (re, im))`` of every nonzero Gaussian half of each numerator, one list per half."""
    return [[(k, n[h:h + 2]) for k, n in items if n[h] or n[h + 1]] for h in range(0, width, 2)]


def bilinear_forms(weights, bra, ket, max_degree: int | None = None) -> list[MultiPoly]:
    """``sum_{i,j} W[i][j] bra_i ket_j`` for each matrix ``W`` of ``weights``, in the amplitudes' ring.

    Every amplitude ``bra_i`` and ``ket_j`` is one term, so each entry adds
    its weight times the two coefficients under the one key
    ``bra_i + ket_j``: one pass over the entries, with no product loop.
    """
    variables = bra[0].variables
    amps = (*bra, *ket)
    if any(a.variables != variables or len(a._terms) != 1 for a in amps):
        raise ValueError("bilinear forms need one-term amplitudes over one variable list")
    ring = _widest(a._ring for a in amps)
    prod = ring._mul
    top = max(k & _BYTE for a in bra for k in a._terms) + max(k & _BYTE for a in ket for k in a._terms)
    if top > _BYTE:
        raise DegreeOverflowError(f"a form's degree {top} exceeds the packed bound {_BYTE}")
    # each (i, j) entry's key and amplitude product
    cells = []
    for b in bra:
        ((kb, nb),) = b._numerators(ring)
        for k in ket:
            ((kk, nk),) = k._numerators(ring)
            cells.append((kb + kk, prod(nb, nk), b._d * k._d))
    results = []
    for W in weights:
        plan = [(w._n, w._d, cell) for w, cell in zip(map(ring.coerce, (w for row in W for w in row)), cells)
                if any(w._n)]
        d = lcm(*[dw * dc for _, dw, (_, _, dc) in plan])
        acc: dict = {}
        for w, dw, (key, n, dc) in plan:
            scale = d // (dw * dc)
            # a real factor only scales the other one
            if not any(n[1:]):
                t = _scale(w, scale * n[0])
            elif not any(w[1:]):
                t = _scale(n, scale * w[0])
            else:
                t = prod(_scale(w, scale), n)
            a = acc.get(key)
            acc[key] = t if a is None else tuple(map(add, a, t))
        terms = {k: n for k, n in acc.items() if any(n)}
        results.append(MultiPoly._packed(variables, ring, terms, d, max_degree, top))
    return results
