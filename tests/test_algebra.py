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
from helpers import as_callable, random_poly, reference_rho


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
    assert (-X + 1).to_text() in ("-x + 1", "- x + 1")


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


def test_poly_gcd_matches_sympy():
    # rational pairs with a planted common factor, against an independent gcd;
    # both sides are compared after graded-lex-monic normalisation
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    rng = random.Random(31)

    def rational_poly(max_deg):
        terms = {}
        for a in range(max_deg + 1):
            for b in range(max_deg + 1 - a):
                if rng.random() < 0.5:
                    terms[(a, b)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return BivarPoly(terms)

    def to_sympy(u):
        return sum(
            (sp.Rational(c.numerator, c.denominator) * x**a * y**b
             for (a, b), c in u.terms.items()),
            sp.Integer(0),
        )

    def from_sympy(expr):
        return BivarPoly({
            m: Fraction(int(c.p), int(c.q))
            for m, c in sp.Poly(expr, x, y).terms()
        })

    def monic(u):
        _, lc = u.leading_term()
        return u * BivarPoly.constant(1 / lc)

    for _ in range(40):
        g = rational_poly(2) + X
        p = rational_poly(3) + 1
        q = rational_poly(3) + Y
        want = monic(from_sympy(sp.gcd(to_sympy(p * g), to_sympy(q * g))))
        assert poly_gcd(p * g, q * g) == want


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
    assert (a / a) == RationalFunction(ONE)
    assert a.reciprocal() == RationalFunction(one_plus_x)


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


def test_series_shift_and_truncate_extend():
    s = EpsSeries(_constants(1, 2, 3), 2)
    assert s.shift().coeffs == tuple(_constants(0, 1, 2))
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
