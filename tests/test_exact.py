"""Exact scalar rings and the sparse multivariate polynomial."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entloc import DegreeOverflowError, GaussianRational, MultiPoly, RootTwoRational
from entloc.exact import GR_I, GR_ONE, HALF_SQRT2, SQRT2, conjugate_name, sum_of_products
from exact_reference import evaluate_complex


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_gaussian_rational_ring_ops():
    a = gr("1/2", "-3")
    b = gr(2, "1/4")
    assert a + b == gr("5/2", "-11/4")
    assert a - b == gr("-3/2", "-13/4")
    # (1/2 - 3i)(2 + i/4) = 1 + 3/4 + i(1/8 - 6)
    assert a * b == gr("7/4", "-47/8")
    assert a.conjugate() == gr("1/2", 3)
    assert (a * a.conjugate()).im == 0
    assert gr(0).is_zero and not a.is_zero
    assert abs(a.to_complex() - (0.5 - 3j)) < 1e-15


def test_gaussian_rational_coercion():
    assert GaussianRational.coerce(3) == gr(3)
    assert GaussianRational.coerce(np.int64(3)) == gr(3)
    assert GaussianRational.coerce(2.0) == gr(2)
    assert GaussianRational.coerce(1 + 2j) == gr(1, 2)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.3)


def test_root_two_ring_ops():
    x = RootTwoRational(gr(1), gr(1))  # 1 + sqrt2
    y = RootTwoRational(gr(-1), gr(1))  # -1 + sqrt2
    assert x * y == RootTwoRational(gr(1), gr(0))  # (sqrt2)^2 - 1 = 1
    assert SQRT2 * SQRT2 == RootTwoRational(gr(2), gr(0))
    assert HALF_SQRT2 * SQRT2 == RootTwoRational(gr(1), gr(0))
    assert abs(x.to_complex() - (1 + 2**0.5)) < 1e-15
    z = RootTwoRational(gr(0, 1), gr(1, -1))
    assert z.conjugate() == RootTwoRational(gr(0, -1), gr(1, 1))


# --- both rings against a plain-Fraction reference ---------------------------
# A reference element is a tuple of Fractions: (re, im) for GaussianRational,
# (re, im, sqrt2-re, sqrt2-im) for RootTwoRational.

def ref_gauss_mul(x, y):
    (a, b), (c, e) = x, y
    return (a * c - b * e, a * e + b * c)


def ref_mul(x, y):
    if len(x) == 2:
        return ref_gauss_mul(x, y)
    rat = ref_gauss_mul(x[:2], y[:2])
    irr2 = ref_gauss_mul(x[2:], y[2:])
    cross = ref_gauss_mul(x[:2], y[2:]), ref_gauss_mul(x[2:], y[:2])
    return (rat[0] + 2 * irr2[0], rat[1] + 2 * irr2[1], cross[0][0] + cross[1][0], cross[0][1] + cross[1][1])


def ref_str(x):
    text = f"({x[0]})+({x[1]})i"
    return text if len(x) == 2 else f"{text}+[{ref_str(x[2:])}]sqrt2"


def ref_complex(x):
    z = complex(x[0]) + 1j * complex(x[1])
    return z if len(x) == 2 else z + (2.0**0.5) * ref_complex(x[2:])


def build(x):
    if len(x) == 2:
        return GaussianRational(*x)
    return RootTwoRational(GaussianRational(*x[:2]), GaussianRational(*x[2:]))


def parts(v):
    if isinstance(v, GaussianRational):
        return (v.re, v.im)
    return parts(v.rat) + parts(v.irr)


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    size=st.sampled_from([2, 4]),
    xs=st.lists(small_fractions, min_size=4, max_size=4),
    ys=st.lists(small_fractions, min_size=4, max_size=4),
)
def test_rings_match_fraction_reference(size, xs, ys):
    x, y = tuple(xs[:size]), tuple(ys[:size])
    X, Y = build(x), build(y)
    assert parts(X) == x and str(X) == ref_str(x)
    if size == 2:  # the embedding keeps the reduced numerators
        embedded = RootTwoRational.coerce(X)
        assert embedded == build(x + (0, 0)) and str(embedded) == ref_str(x + (0, 0))
    assert X.is_zero == (not any(x))
    assert X.to_complex() == ref_complex(x)
    expected = {
        "+": tuple(a + b for a, b in zip(x, y)),
        "-": tuple(a - b for a, b in zip(x, y)),
        "*": ref_mul(x, y),
    }
    for op, got in (("+", X + Y), ("-", X - Y), ("*", X * Y)):
        assert parts(got) == expected[op]
        assert str(got) == ref_str(expected[op])
        assert got.is_zero == (not any(expected[op]))
        assert got == build(expected[op]) and hash(got) == hash(build(expected[op]))
    conj = tuple(-v if k % 2 else v for k, v in enumerate(x))
    assert parts(X.conjugate()) == conj and str(X.conjugate()) == ref_str(conj)
    assert parts(-X) == tuple(-v for v in x)
    # equality is value equality, whatever path built the element
    assert (X == Y) == (x == y)
    assert (X == build(tuple(v / 2 for v in x))) == X.is_zero
    assert X + Y - Y == X and hash(X + Y - Y) == hash(X)
    assert parts(2 * X) == parts(X + X) and parts(1 - X) == tuple(
        (1 if k == 0 else 0) - v for k, v in enumerate(x)
    )


def test_object_matmul_equals_the_triple_loop():
    # the certificates multiply exact matrices with numpy's object-array `@`
    rng = np.random.default_rng(21)

    def entry(ring):
        re, im, irr = (Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(3))
        return gr(re, im) if ring is GaussianRational else RootTwoRational(gr(re, im), gr(irr))

    for ring, n in ((GaussianRational, 2), (RootTwoRational, 2), (RootTwoRational, 10)):
        for _ in range(20):
            A, B = (np.array([[entry(ring) for _ in range(n)] for _ in range(n)]) for _ in range(2))
            loop = [[sum((A[i, k] * B[k, j] for k in range(n)), ring.coerce(0)) for j in range(n)]
                    for i in range(n)]
            assert (A @ B).tolist() == loop


def test_rings_are_immutable_values():
    for v in (gr("1/2", 3), SQRT2):
        with pytest.raises(AttributeError):
            v.re = Fraction(1)
        with pytest.raises(AttributeError):
            v._d = 2
        assert copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v
    assert gr(1) != RootTwoRational(gr(1)) and gr(1) != 1


VARS = ("c0", "c0*", "c1", "c1*")


def var(name, coeff=GR_ONE):
    return MultiPoly.variable(VARS, name, coeff)


def test_multipoly_arithmetic_and_zero_pruning():
    p = var("c0") + var("c1")
    q = var("c0") - var("c1")
    prod = p * q
    # c0^2 - c1^2: the cross terms cancel exactly
    assert len(prod.terms) == 2
    assert prod.terms[(2, 0, 0, 0)] == GR_ONE
    assert prod.terms[(0, 0, 2, 0)] == gr(-1)
    assert (p - p).is_zero
    assert max(map(sum, prod.terms), default=0) == 2


def test_multipoly_conjugation():
    p = var("c0", GR_I) * var("c1*")
    q = p.conjugate()
    assert q.terms == {(0, 1, 1, 0): -GR_I + gr(0)}
    # conjugating twice is the identity
    assert q.conjugate().terms == p.terms


def test_multipoly_requires_conjugate_partners():
    p = MultiPoly.variable(("x",), "x", GR_ONE)
    with pytest.raises(ValueError):
        p.conjugate()


def test_multipoly_degree_guard():
    p = var("c0")
    acc = MultiPoly.const(VARS, GR_ONE, max_degree=3)
    with pytest.raises(DegreeOverflowError):
        acc * p * p * p * p


def test_multipoly_exact_vs_complex_evaluation():
    rng = np.random.default_rng(42)
    p = (var("c0") + var("c1*", GR_I)) * (var("c0*") - var("c1")) + MultiPoly.const(
        VARS, gr("3/7", "-2/5")
    )
    for _ in range(50):
        point = {}
        vals = {}
        for base in ("c0", "c1"):
            re = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            im = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            point[base] = GaussianRational(re, im)
            point[base + "*"] = point[base].conjugate()
            vals[base] = point[base].to_complex()
            vals[base + "*"] = vals[base].conjugate()
        exact = p.evaluate(point).to_complex()
        approx = evaluate_complex(p, vals)
        assert abs(exact - approx) < 1e-10 * max(1.0, abs(exact))


def test_canonical_text_is_sorted_and_stable():
    # exponent tuples sort lexicographically over (c0, c0*, c1, c1*)
    p = var("c1") * var("c1") + var("c0", gr("1/2"))
    text = p.canonical_text()
    assert text == "c1^2: (1)+(0)i; c0^1: (1/2)+(0)i"
    assert MultiPoly(VARS).canonical_text() == "0"


def test_leading_monomial_order():
    p = var("c1") * var("c1") + var("c0")
    assert p.sorted_terms()[0][0] == (0, 0, 2, 0)


# --- the polynomial kernel against the object-path algorithm ------------------
# The references below are the algorithms MultiPoly ran before its integer
# kernel: one ring element per term product, added into a terms dict.

def ref_sum(*polys):
    terms = {}
    for p in polys:
        for exps, coeff in p.terms.items():
            acc = terms.get(exps)
            terms[exps] = coeff if acc is None else acc + coeff
    return {e: c for e, c in terms.items() if not c.is_zero}


def ref_product(p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            acc = terms.get(exps)
            terms[exps] = prod if acc is None else acc + prod
    return {e: c for e, c in terms.items() if not c.is_zero}


def ref_conjugate(p):
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


def same_terms(poly, terms):
    # == and hash compare reduced numerators; the texts compare the boundary
    assert poly.terms == terms
    assert {e: (hash(c), str(c)) for e, c in poly.terms.items()} == {
        e: (hash(c), str(c)) for e, c in terms.items()
    }


def ring_value(ring, parts):
    if ring is GaussianRational:
        return GaussianRational(*parts[:2])
    return RootTwoRational(GaussianRational(*parts[:2]), GaussianRational(*parts[2:]))


# numerators in [-3, 3] over random denominators, so sums cancel to zero often
kernel_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12))
kernel_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(VARS)),
    st.lists(kernel_fractions, min_size=4, max_size=4),
    max_size=5,
)


def build_poly(ring, raw, max_degree=None):
    return MultiPoly(VARS, {e: ring_value(ring, parts) for e, parts in raw.items()}, max_degree)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    ring=st.sampled_from([GaussianRational, RootTwoRational]),
    raw_p=kernel_terms,
    raw_q=kernel_terms,
    point=st.lists(kernel_fractions, min_size=4 * len(VARS), max_size=4 * len(VARS)),
    bound=st.integers(0, 8),
)
def test_polynomial_kernel_matches_the_object_path(ring, raw_p, raw_q, point, bound):
    p, q = build_poly(ring, raw_p), build_poly(ring, raw_q)
    same_terms(p + q, ref_sum(p, q))
    same_terms(p - q, ref_sum(p, -q))
    same_terms(p * q, ref_product(p, q))
    same_terms(p.conjugate(), ref_conjugate(p))
    # exact cancellation: each of these is the zero polynomial
    for zero in (p - p, p * q - q * p, (p + q) * q - p * q - q * q):
        assert zero.is_zero and zero.terms == {}
    values = {name: ring_value(ring, point[4 * k:4 * k + 4]) for k, name in enumerate(VARS)}
    for poly in (p, q, p * q, p - p):
        got, want = poly.evaluate(values), ref_evaluate(poly, values)
        assert got == want and type(got) is type(want) and str(got) == str(want)
    # the degree guard raises exactly when a surviving monomial exceeds the bound
    if all(sum(e) <= bound for e in p.terms) and all(sum(e) <= bound for e in q.terms):
        bounded = MultiPoly(VARS, p.terms, bound)
        product = ref_product(p, q)
        if any(sum(e) > bound for e in product):
            with pytest.raises(DegreeOverflowError):
                bounded * q
        else:
            same_terms(bounded * q, product)
            assert (bounded * q).max_degree == bound


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    ring=st.sampled_from([GaussianRational, RootTwoRational]),
    raws=st.lists(st.tuples(kernel_terms, kernel_terms), min_size=1, max_size=4),
    weights=st.lists(st.lists(kernel_fractions, min_size=4, max_size=4), min_size=4, max_size=4),
)
def test_sum_of_products_is_the_weighted_sum_of_the_products(ring, raws, weights):
    pairs = [(build_poly(ring, a), build_poly(ring, b)) for a, b in raws]
    rows = [[ring_value(ring, w) for w in weights[:len(pairs)]], [0] * len(pairs)]
    for row, result in zip(rows, sum_of_products(VARS, pairs, rows)):
        want = {}
        for w, (p, q) in zip(row, pairs):
            want = ref_sum(MultiPoly(VARS, want), MultiPoly(VARS, {e: w * c for e, c in ref_product(p, q).items()}))
        same_terms(result, want)
