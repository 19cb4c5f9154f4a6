"""Exact arithmetic: bivariate polynomials, rational functions, eps-jets."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folint.algebra import (
    ONE,
    ZERO,
    BivarPoly,
    EpsSeries,
    NonInvertibleSeries,
    PolyParseError,
    RationalFunction,
    SeriesOrderMismatch,
    X,
    Y,
    divexact,
    grlex_key,
    parse_poly,
    poly_gcd,
)
from folint.exterior import Form1Planar
from folint.oracle import HolonomyConfig, holonomy_return
from helpers import (
    as_callable,
    random_poly,
    reference_poly_text,
    reference_rho,
    reference_series_product,
)


# ---------------------------------------------------------------------------
# BivarPoly
# ---------------------------------------------------------------------------


def test_constructor_drops_zero_terms():
    p = BivarPoly({(0, 0): 0, (1, 0): 2, (0, 1): Fraction(0)})
    assert p.terms == {(1, 0): Fraction(2)}


@pytest.mark.parametrize(
    "make, terms",
    [
        (lambda: (X + Y) - X, {(0, 1): 1}),
        (lambda: (X + Y) * (X - Y), {(2, 0): 1, (0, 2): -1}),
        (lambda: parse_poly("x - x + y"), {(0, 1): 1}),
    ],
)
def test_cancelling_arithmetic_stores_only_nonzero_fractions(make, terms):
    p = make()
    assert p.terms == terms
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


def test_constructor_rejects_negative_exponents():
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): 1})


def test_constructor_rejects_float_coefficients():
    # a float is not exact: it would enter as its binary expansion
    with pytest.raises(TypeError, match=r"\(1, 0\)"):
        BivarPoly({(1, 0): 0.1})
    with pytest.raises(TypeError, match=r"\(0, 2\)"):
        BivarPoly({(0, 0): 1, (0, 2): np.float64(2.0)})
    with pytest.raises(TypeError):
        BivarPoly({(0, 0): "1/2"})
    assert BivarPoly({(1, 0): np.int64(3)}) == X * 3


@pytest.mark.parametrize("c", [0, 1, Fraction(1, 2), Fraction(-7, 3)])
def test_constant_hashes_as_its_number(c):
    # == with a number implies equal hashes, so sets and dicts agree with ==
    p = BivarPoly.constant(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1
    assert p in {c} and c in {p}
    assert {c: "v"}[p] == "v" and {p: "v"}[c] == "v"


def test_hash_and_zero_constants():
    assert hash(ZERO) == 0 and hash(ONE) == hash(1)
    assert len({ONE, 1, ZERO, 0, X, X + 0}) == 3
    assert hash(X * Fraction(1, 3)) == hash(BivarPoly({(1, 0): Fraction(2, 6)}))


def test_storage_is_int_numerators_over_one_reduced_denominator():
    p = BivarPoly({(1, 0): Fraction(1, 6), (0, 1): Fraction(-1, 4), (0, 0): 0})
    assert p.nums == {(1, 0): 2, (0, 1): -3} and p.den == 12
    assert BivarPoly({(2, 0): 4, (0, 0): 6}, den=-8).nums == {(2, 0): -2, (0, 0): -3}
    assert BivarPoly({(2, 0): 4, (0, 0): 6}, den=-8).den == 4
    assert ZERO.den == 1 and (X * Fraction(1, 3) - X * Fraction(1, 3)).den == 1
    with pytest.raises(ZeroDivisionError):
        BivarPoly({(0, 0): 1}, den=0)
    with pytest.raises(TypeError):
        BivarPoly({(0, 0): 1}, den=Fraction(1, 2))
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = Fraction(1)


def _big_rational_poly(rng: random.Random, max_deg: int, primes) -> BivarPoly:
    """Sparse polynomial whose coefficients have distinct large denominators."""
    terms = {}
    for a in range(max_deg + 1):
        for b in range(max_deg + 1 - a):
            if rng.random() < 0.5:
                den = rng.choice(primes) * rng.choice((1, rng.choice(primes)))
                terms[(a, b)] = Fraction(rng.randint(-10**12, 10**12) or 1, den)
    return BivarPoly(terms)


def _assert_canonical(p: BivarPoly) -> None:
    assert p.den > 0 and all(type(c) is int and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert list(p.terms) == list(p.nums)
    for c in p.terms.values():
        assert type(c) is Fraction and c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


def test_int_core_matches_sympy():
    # int numerators over large coprime denominators, against sympy.Poly,
    # including sums that cancel to zero or down to a few terms
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    rng = random.Random(13)
    primes = [1_000_003, 998_244_353, 1_000_000_007, 999_983, 65_537, 2_147_483_647]

    def to_sympy(u):
        return sp.Poly(sum(
            (sp.Rational(c.numerator, c.denominator) * x**a * y**b
             for (a, b), c in u.terms.items()),
            sp.Integer(0),
        ), x, y)

    def same(u, want):
        _assert_canonical(u)
        got = to_sympy(u)
        assert got == sp.Poly(want, x, y), (u, want)

    for _ in range(12):
        a = _big_rational_poly(rng, 4, primes)
        b = _big_rational_poly(rng, 4, primes)
        c = _big_rational_poly(rng, 3, primes)
        # c minus part of itself cancels exactly on the shared terms
        part = BivarPoly({e: v for e, v in c.terms.items() if rng.random() < 0.5})
        sa, sb, sc = to_sympy(a), to_sympy(b), to_sympy(c)
        same(a + b, sa + sb)
        same(a - b, sa - sb)
        same(a * b, sa * sb)
        same(a ** 3, sa ** 3)
        same(a - a, sp.Integer(0))
        same((a + b) - b - a, sp.Integer(0))
        same(c - part, sc - to_sympy(part))
        same(a.partial("x"), sa.diff(x))
        same(b.partial("y"), sb.diff(y))
        parts = a.homogeneous_parts()
        assert sorted(parts) == sorted({i + j for (i, j), _ in sa.terms()})
        for d, h in parts.items():
            same(h, sum((v * x**i * y**j for (i, j), v in sa.terms() if i + j == d),
                        sp.Integer(0)))
        px, py = Fraction(rng.randint(-9, 9), rng.choice(primes)), Fraction(rng.randint(1, 9), 7)
        want = sa.eval({x: sp.Rational(px.numerator, px.denominator),
                        y: sp.Rational(py.numerator, py.denominator)})
        assert a.eval(px, py) == Fraction(int(want.p), int(want.q))
        # the same polynomial built two ways has the same storage and hash
        left, right = (a + b) * c, a * c + b * c
        assert left == right and hash(left) == hash(right)
        assert left.terms == right.terms and left.den == right.den


def test_binomial_square():
    assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y


def test_known_sums_and_products():
    assert X - X == ZERO
    assert (X + 1) * (X - 1) == X * X - 1
    assert ONE * X == X
    assert X * 0 == ZERO


def test_degree_and_leading_term():
    p = X * X * Y + Y * 3
    assert p.degree() == 3
    assert p.leading_term() == ((2, 1), Fraction(1))
    assert ZERO.degree() == -1


def test_grlex_key_orders_by_total_degree_then_x():
    assert grlex_key((0, 3)) < grlex_key((1, 2)) < grlex_key((0, 4))


def test_homogeneous_parts_sum_back():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng, 5)
        parts = p.homogeneous_parts()
        assert sum(parts.values(), ZERO) == p
        for d, part in parts.items():
            assert all(a + b == d for (a, b) in part.terms)


def test_partial_product_rule():
    rng = random.Random(7)
    for _ in range(25):
        p = random_poly(rng, 4)
        q = random_poly(rng, 4)
        for var in ("x", "y"):
            lhs = (p * q).partial(var)
            rhs = p.partial(var) * q + p * q.partial(var)
            assert lhs == rhs


def test_partials_commute():
    rng = random.Random(8)
    for _ in range(25):
        p = random_poly(rng, 5)
        assert p.partial("x").partial("y") == p.partial("y").partial("x")


def test_eval_is_exact():
    p = X * X + Y * 3 - 1
    assert p.eval(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 4) + 1 - 1


def test_as_callable_matches_eval():
    rng = random.Random(3)
    for _ in range(10):
        p = random_poly(rng, 4)
        f = as_callable(p)
        # dyadic points are exact in binary, so the comparison is tight
        for x, y in [(0.25, -0.75), (1.5, 0.125), (0.0, 0.0)]:
            exact = float(p.eval(Fraction(x), Fraction(y)))
            assert math.isclose(f(x, y), exact, rel_tol=1e-12, abs_tol=1e-12)


def test_to_text_graded_lex_with_rationals():
    assert (X * X + Y * Y).to_text() == "x^2 + y^2"
    p = X**3 * Fraction(2, 3) + X * Y * Y
    assert p.to_text() == "2/3x^3 + xy^2"
    assert ZERO.to_text() == "0"
    assert (-X + 1).to_text() == "-x + 1"


def test_to_text_matches_the_fraction_per_term_printer():
    # large, negative and rational coefficients over shared denominators,
    # where some terms divide out to integers, constants and zero
    rng = random.Random(242)
    polys = [ZERO, ONE, -ONE, BivarPoly.constant(Fraction(-7, 3)), BivarPoly.constant(10**30)]
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            num = rng.choice([1, -1, rng.randint(-9, 9), rng.randint(-10**25, 10**25)])
            den = rng.choice([1, 2, 3, 6, rng.randint(1, 10**20)])
            terms[(rng.randint(0, 5), rng.randint(0, 5))] = Fraction(num, den)
        polys.append(BivarPoly(terms))
    assert sum(1 for p in polys if p.den > 1 and any(c % p.den == 0 for c in p.nums.values())) > 20
    for p in polys:
        assert p.to_text() == reference_poly_text(p)


def _fraction_polys(rng: random.Random, count: int) -> list[BivarPoly]:
    """Zero, constants and seeded sparse polynomials whose coefficients
    share small denominators (2, 3, 6, 2^70) or have large random ones."""
    polys = [ZERO, ONE, BivarPoly.constant(Fraction(-7, 6)), BivarPoly.constant(2**70)]
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            num = rng.choice([1, -1, rng.randint(-9, 9), rng.randint(-10**25, 10**25)])
            den = rng.choice([1, 2, 3, 6, 2**70, rng.randint(1, 10**20)])
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = Fraction(num, den)
        polys.append(BivarPoly(terms))
    return polys


def _assert_as_built_by_the_constructor(result: BivarPoly, terms: dict) -> None:
    expected = BivarPoly(terms)
    assert (result.nums, result.den) == (expected.nums, expected.den)
    assert result.to_text() == reference_poly_text(result)


def test_arithmetic_fast_paths_match_the_public_constructor():
    # every result of the trusted constructor, the gcd-free negation and the
    # one-gcd int scaling has the storage the validating constructor gives
    # the same Fraction terms, and prints as the per-term reference does
    polys = _fraction_polys(random.Random(30), 60)
    assert sum(1 for p in polys if p.den % 6 == 0) > 10
    for p, q in zip(polys, polys[1:] + polys[:1]):
        t = p.terms
        for c in (0, 1, -1, 3, -3, 2**70):
            _assert_as_built_by_the_constructor(p * c, {e: c * v for e, v in t.items()})
            _assert_as_built_by_the_constructor(c * p, {e: c * v for e, v in t.items()})
        for other in (q, p, -p, BivarPoly(t) * 3):
            plus, minus = dict(t), dict(t)
            for e, v in other.terms.items():
                plus[e] = plus.get(e, 0) + v
                minus[e] = minus.get(e, 0) - v
            _assert_as_built_by_the_constructor(p + other, plus)
            _assert_as_built_by_the_constructor(p - other, minus)
        product: dict = {}
        for (a, b), u in t.items():
            for (c, d), v in q.terms.items():
                product[a + c, b + d] = product.get((a + c, b + d), 0) + u * v
        _assert_as_built_by_the_constructor(p * q, product)
        _assert_as_built_by_the_constructor(
            p.partial("x"), {(a - 1, b): a * v for (a, b), v in t.items() if a}
        )
        _assert_as_built_by_the_constructor(
            p.partial("y"), {(a, b - 1): b * v for (a, b), v in t.items() if b}
        )
        for d, part in p.homogeneous_parts().items():
            _assert_as_built_by_the_constructor(
                part, {(a, b): v for (a, b), v in t.items() if a + b == d}
            )
        # a negation prints from its source's text, whether the source has
        # printed before it, prints through it, or is itself a negation
        negated = {e: -v for e, v in t.items()}
        for source_first in (True, False):
            source = BivarPoly(t)  # a copy that has printed nothing
            if source_first:
                assert source.to_text() == reference_poly_text(source)
            _assert_as_built_by_the_constructor(-source, negated)
            assert source.to_text() == reference_poly_text(source)
            _assert_as_built_by_the_constructor(-(-source), t)
    # repeated sign flips print without a chain of sources to recurse through
    flipped = polys[-1]
    for _ in range(5001):
        flipped = -flipped
    assert flipped.to_text() == reference_poly_text(flipped)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, poly",
    [
        ("x^2 + y^2", X * X + Y * Y),
        ("1/2xy - 3", X * Y * Fraction(1, 2) - 3),
        ("y", Y),
        ("0", ZERO),
        ("-x + x", ZERO),
        ("2/3x^3 + xy^2", X**3 * Fraction(2, 3) + X * Y**2),
    ],
)
def test_parse_known_inputs(text, poly):
    assert parse_poly(text) == poly


@pytest.mark.parametrize(
    "bad", ["", "  ", "x^", "x++y", "2//3", "(x)", "x z", "x^-2", "+", "2/0 x"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad)


def test_parse_whitespace_is_insignificant():
    assert parse_poly("x y") == X * Y
    assert parse_poly("3 4") == BivarPoly.constant(34)
    assert parse_poly("x ^ 2") == X * X


def test_parse_error_carries_column():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + qq")
    assert err.value.column == 5


coeffs_strategy = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
    max_size=8,
)


@given(coeffs_strategy)
@settings(max_examples=80, deadline=None)
def test_parse_print_round_trip(terms):
    p = BivarPoly(terms)
    assert parse_poly(p.to_text()) == p


# ---------------------------------------------------------------------------
# Exact division and gcd
# ---------------------------------------------------------------------------


def test_divexact_round_trip():
    rng = random.Random(19)
    for _ in range(25):
        p = random_poly(rng, 3)
        d = random_poly(rng, 3) + 1  # keep the divisor nonzero
        assert divexact(p * d, d) == p


def test_divexact_by_a_monomial():
    rng = random.Random(29)
    for _ in range(25):
        p = random_poly(rng, 3)
        c = Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 6))
        d = BivarPoly.monomial(rng.randint(0, 3), rng.randint(0, 3), c)
        assert divexact(p * d, d) == p
    assert divexact(3 * X**3 * Y**2, Fraction(-2, 3) * X * Y) == Fraction(-9, 2) * X**2 * Y
    for p, d in ((X * Y + Y, X), (X**2 * Y, X**3), (X * Y**2, Y**3), (X, 2 * X * Y)):
        with pytest.raises(ValueError, match="inexact polynomial division"):
            divexact(p, d)


def test_divexact_rejects_nondivisor():
    with pytest.raises(ValueError):
        divexact(X, Y)
    with pytest.raises(ValueError):
        divexact(X * X + 1, X + 1)


def test_divexact_by_zero():
    with pytest.raises(ZeroDivisionError):
        divexact(X, ZERO)


def test_poly_gcd_recovers_common_factor():
    g = X + Y * 2
    d = poly_gcd((X + 1) * g, Y * g)
    assert d == g  # already grlex-monic
    assert poly_gcd(X * X, ZERO) == X * X


def test_poly_gcd_divides_both():
    rng = random.Random(23)
    for _ in range(15):
        p = random_poly(rng, 3) + 1
        q = random_poly(rng, 3) + X
        g = random_poly(rng, 2) + Y + 1
        d = poly_gcd(p * g, q * g)
        assert divexact(p * g, d) * d == p * g
        assert divexact(q * g, d) * d == q * g


def sympy_gcd(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """sympy's gcd of p and q, normalised to graded-lex leading coefficient 1."""
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")

    def to_sympy(u):
        return sum(
            (sp.Rational(c.numerator, c.denominator) * x**a * y**b
             for (a, b), c in u.terms.items()),
            sp.Integer(0),
        )

    g = sp.gcd(to_sympy(p), to_sympy(q))
    if g == 0:
        return ZERO
    g = BivarPoly({m: Fraction(int(c.p), int(c.q)) for m, c in sp.Poly(g, x, y).terms()})
    _, lc = g.leading_term()
    return g * BivarPoly.constant(1 / lc)


def test_poly_gcd_matches_sympy():
    # rational pairs with a planted common factor, against an independent gcd;
    # both sides are compared after graded-lex-monic normalisation
    rng = random.Random(31)

    def rational_poly(max_deg):
        terms = {}
        for a in range(max_deg + 1):
            for b in range(max_deg + 1 - a):
                if rng.random() < 0.5:
                    terms[(a, b)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return BivarPoly(terms)

    for _ in range(40):
        g = rational_poly(2) + X
        p = rational_poly(3) + 1
        q = rational_poly(3) + Y
        assert poly_gcd(p * g, q * g) == sympy_gcd(p * g, q * g)


# a common factor of total degree 3 that is not a monomial, over Q
CUBIC = parse_poly("x^2y - 2/3xy^2 + 5/7y + 1/2")


@pytest.mark.parametrize(
    "p, q",
    [
        (6 * Y * (X + 2 * Y + 1), 4 * Y * Y * (X + 2 * Y + 1)),
        (parse_poly("y^3 - y + 3y^2 - 3"), parse_poly("2y^3 - 1/2y^2 - 2y + 1/2")),
        (parse_poly("6y^4 + 4y^2"), parse_poly("9y^3")),
        (parse_poly("x^4 - x^3 - 2x^2 + 2x"), parse_poly("3x^4 + 5x^3 - 6x^2 - 10x")),
        (parse_poly("x^5"), parse_poly("2/3x^2 + 4/3x")),
        (BivarPoly.constant(6), BivarPoly.constant(4)),
        (BivarPoly.constant(Fraction(3, 4)), X * Y + 1),
        (ZERO, CUBIC * (X + 1)),
        (CUBIC * 3, ZERO),
        (ZERO, ZERO),
        (CUBIC * parse_poly("x^2 + y"), CUBIC * parse_poly("xy - 3")),
        (CUBIC * CUBIC * X, CUBIC * (Y * Y - X)),
        (CUBIC * parse_poly("y^2 + 1/3"), CUBIC * parse_poly("2xy^2 + 2/3x + y^2 + 1/3")),
        (parse_poly("x^25 + 3y^24 + xy"), parse_poly("y^25 + x^24 + 2")),
    ],
    ids=[
        "integer-contents", "y-only", "y-only-monomial-gcd", "x-only", "x-only-monomial-gcd",
        "constants", "constant-and-poly", "zero-first", "zero-second", "both-zero",
        "cubic-factor", "cubic-factor-squared", "cubic-times-y-content", "coprime-25",
    ],
)
def test_poly_gcd_cases_match_sympy(p, q):
    want = sympy_gcd(p, q)
    assert poly_gcd(p, q) == want
    assert poly_gcd(q, p) == want


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------


def test_rational_reduces_on_construction():
    # construction keeps the fraction as written; only equality sees the
    # common factor, by cross-multiplication
    r = RationalFunction(X * X - Y * Y, X - Y)
    assert r.to_text() == "(x^2 - y^2) / (x - y)"
    assert r == RationalFunction(X + Y)
    with pytest.raises(TypeError):
        hash(r)


def test_rational_equality_matches_sympy_cancel():
    # pairs over a planted common factor: cross-multiplied == against an
    # independent cancellation of the difference
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    rng = random.Random(37)

    def to_sympy(u):
        return sum(
            (sp.Rational(c.numerator, c.denominator) * x**a * y**b
             for (a, b), c in u.terms.items()),
            sp.Integer(0),
        )

    def quotient(r):
        return to_sympy(r.num) / to_sympy(r.den)

    seen = set()
    for _ in range(40):
        # each factor has a term the random part cannot cancel, so none is 0
        g = random_poly(rng, 2) * Y + X
        h = random_poly(rng, 1) * X + 2
        u = random_poly(rng, 2) * X + 1
        v = random_poly(rng, 2) * X + Y
        other = u * h if rng.random() < 0.5 else u * h + X
        a = RationalFunction(u * g, v * g)
        b = RationalFunction(other, v * h)
        want = sp.cancel(quotient(a) - quotient(b)) == 0
        assert (a == b) is want
        seen.add(want)
    assert seen == {True, False}


def test_rational_denominator_is_monic():
    r = RationalFunction(Y, X * 2)
    assert r.den == X
    assert r.num == Y * Fraction(1, 2)


def test_rational_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(X, ZERO)


def test_rational_field_identities():
    one_plus_x = ONE + X
    a = RationalFunction(ONE, one_plus_x)
    b = RationalFunction(X, one_plus_x)
    assert a + b == RationalFunction(ONE)
    assert a * one_plus_x == RationalFunction(ONE)


def test_rational_partial_quotient_rule():
    rng = random.Random(31)
    for _ in range(10):
        u = random_poly(rng, 3)
        v = random_poly(rng, 2) + 1
        r = RationalFunction(u, v)
        for var in ("x", "y"):
            expected = RationalFunction(
                u.partial(var) * v - u * v.partial(var), v * v
            )
            assert r.partial(var) == expected


def test_rational_eval_and_pole():
    r = RationalFunction(ONE, ONE + X)
    assert r.eval(1, 0) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        r.eval(-1, 0)


def test_rational_as_callable():
    # the oracle takes a rational component as written: its return on
    # (x^2 + y^2) / (1 + x) dx matches direct num / den evaluation per stage
    w = Form1Planar(RationalFunction(X * X + Y * Y, ONE + X), ZERO)
    t, eps = np.array([0.25, 0.5]), np.array([1e-2, 1e-3])
    got = np.sqrt(holonomy_return(w, t, eps, HolonomyConfig(200)))
    np.testing.assert_allclose(got, reference_rho(w, t, eps, 200), rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# EpsSeries
# ---------------------------------------------------------------------------


def test_series_pads_with_zeros():
    s = EpsSeries([X], 3)
    assert s.coeffs == (X, ZERO, ZERO, ZERO)
    assert s.order == 3


def _constants(*values):
    return [BivarPoly.constant(v) for v in values]


def test_series_too_many_coeffs():
    with pytest.raises(ValueError):
        EpsSeries(_constants(1, 2, 3), 1)


def test_series_order_mismatch():
    with pytest.raises(SeriesOrderMismatch):
        EpsSeries([ONE], 1) + EpsSeries([ONE], 2)


def test_series_product_truncates():
    s = EpsSeries([ONE, ONE], 2)
    t = EpsSeries([ONE, -ONE], 2)
    assert (s * t).coeffs == (ONE, ZERO, -ONE)


def test_series_product_matches_the_reference_formula():
    # orders 0-4, with zero coefficients, constant-1 coefficients and the
    # constant series 1 as factors on either side
    rng = random.Random(555)

    def coeff():
        kind = rng.randrange(5)
        if kind == 0:
            return ZERO
        if kind == 1:
            return ONE
        return random_poly(rng, 2, -40, 40) * Fraction(1, rng.randint(1, 6))

    for K in range(5):
        one = EpsSeries.constant(ONE, K)
        for _ in range(40):
            a = EpsSeries([coeff() for _ in range(K + 1)], K)
            b = EpsSeries([coeff() for _ in range(K + 1)], K)
            for u, v in ((a, b), (b, a), (one, a), (a, one), (one, one)):
                assert u * v == reference_series_product(u, v)
            assert one * a == a == a * one


def test_series_geometric_inverse():
    # 1/(1 - eps) = 1 + eps + eps^2 + ...
    s = EpsSeries([ONE, -ONE], 5)
    assert s.invert().coeffs == (ONE,) * 6
    # a constant lead other than 1: 1/(2 + eps) = 1/2 - eps/4 + eps^2/8
    u = EpsSeries(_constants(2, 1), 2)
    halves = _constants(Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    assert u.invert().coeffs == tuple(halves)


@given(
    st.integers(-5, 5).filter(bool),
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_series_invert_round_trip(lead, tail):
    s = EpsSeries(_constants(lead, *tail), len(tail))
    assert s * s.invert() == EpsSeries.constant(ONE, len(tail))


def test_series_invert_requires_unit():
    with pytest.raises(NonInvertibleSeries):
        EpsSeries([ZERO, X], 1).invert()
    # a nonconstant polynomial lead is not a unit of Q[x, y]
    with pytest.raises(NonInvertibleSeries):
        EpsSeries([ONE + X, Y], 2).invert()


def test_series_eps_derivative():
    s = EpsSeries([X, Y, X * Y], 2)
    d = s.eps_derivative()
    assert d.coeffs == (Y, X * Y * 2, ZERO)


def test_series_truncate_extend():
    s = EpsSeries(_constants(1, 2, 3), 2)
    assert s.truncate(1).coeffs == tuple(_constants(1, 2))
    assert s.extend(4).coeffs == tuple(_constants(1, 2, 3, 0, 0))
    with pytest.raises(SeriesOrderMismatch):
        s.truncate(3)
    with pytest.raises(SeriesOrderMismatch):
        s.extend(1)


def test_series_leibniz_rule():
    """(st)' = s't + st' holds in every slot except the unreliable top one."""
    rng = random.Random(41)
    for _ in range(10):
        s = EpsSeries([random_poly(rng, 2) for _ in range(4)], 3)
        t = EpsSeries([random_poly(rng, 2) for _ in range(4)], 3)
        lhs = (s * t).eps_derivative()
        rhs = s.eps_derivative() * t + s * t.eps_derivative()
        assert lhs.coeffs[:-1] == rhs.coeffs[:-1]
