"""Periods over the circle family, checked against direct numerical quadrature."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from folint.abelian import PeriodPoly, monomial_period, period_of_form
from folint.algebra import BivarPoly, RationalFunction, X, Y
from folint.exterior import Form1Planar, d_planar_scalar
from helpers import AREA_FORM, as_callable, random_form, random_poly, zero_period_form


def quad_period(w: Form1Planar, t: float) -> float:
    """Numerical period over x = sqrt(t) cos, y = sqrt(t) sin, counterclockwise."""
    r = math.sqrt(t)
    p = as_callable(w.p)
    q = as_callable(w.q)

    def integrand(theta: float) -> float:
        x, y = r * math.cos(theta), r * math.sin(theta)
        return p(x, y) * (-y) + q(x, y) * x

    val, err = quad(integrand, 0.0, 2.0 * math.pi, limit=200)
    # the estimate tracks the integrand's magnitude, not the integral's; it
    # only needs to rule out non-convergence
    assert err < 1e-6
    return val


# ---------------------------------------------------------------------------
# Monomial periods
# ---------------------------------------------------------------------------


def test_monomial_parity_structure():
    for a in range(5):
        for b in range(5):
            dx_zero = monomial_period(a, b, "dx").is_zero()
            dy_zero = monomial_period(a, b, "dy").is_zero()
            assert dx_zero == (a % 2 != 0 or b % 2 != 1)
            assert dy_zero == (a % 2 != 1 or b % 2 != 0)


def test_monomial_periods_match_quadrature():
    for a in range(5):
        for b in range(5):
            for basis in ("dx", "dy"):
                mono = BivarPoly({(a, b): 1})
                w = Form1Planar(mono, BivarPoly.zero())
                if basis == "dy":
                    w = Form1Planar(BivarPoly.zero(), mono)
                exact = monomial_period(a, b, basis)
                for t in (0.5, 1.0, 1.7):
                    assert exact.eval_float(t) == pytest.approx(
                        quad_period(w, t), abs=1e-8
                    )


def test_known_periods():
    # y dx integrates to -pi t, x dy to +pi t; their difference doubles
    assert monomial_period(0, 1, "dx") == PeriodPoly.single(1, -1)
    assert monomial_period(1, 0, "dy") == PeriodPoly.single(1, 1)
    assert period_of_form(AREA_FORM) == PeriodPoly.single(1, 2)
    # degree-3 moments: y^3 dx and x^2 y dx via the Wallis ratios
    assert monomial_period(0, 3, "dx") == PeriodPoly.single(2, Fraction(-3, 4))
    assert monomial_period(2, 1, "dx") == PeriodPoly.single(2, Fraction(-1, 4))
    assert monomial_period(3, 0, "dy") == PeriodPoly.single(2, Fraction(3, 4))


def test_monomial_period_degree_is_half_total():
    assert monomial_period(2, 3, "dx").degree() == 3
    assert monomial_period(4, 1, "dx").degree() == 3
    assert monomial_period(1, 4, "dy").degree() == 3


def test_monomial_period_validation():
    with pytest.raises(ValueError):
        monomial_period(-1, 0, "dx")
    with pytest.raises(ValueError, match="basis"):
        monomial_period(0, 1, "dz")


# ---------------------------------------------------------------------------
# Whole forms
# ---------------------------------------------------------------------------


def test_random_forms_match_quadrature():
    rng = random.Random(101)
    for _ in range(8):
        w = random_form(rng, 4)
        exact = period_of_form(w)
        for t in (0.3, 1.0, 2.1):
            got = quad_period(w, t)
            assert exact.eval_float(t) == pytest.approx(got, rel=1e-9, abs=2e-8)


def test_period_is_linear():
    rng = random.Random(102)
    u = random_form(rng, 4)
    v = random_form(rng, 4)
    lhs = period_of_form(u + v.scale(BivarPoly({(0, 0): Fraction(5, 3)})))
    rhs = period_of_form(u) + period_of_form(v).scale(Fraction(5, 3))
    assert lhs == rhs


def test_exact_forms_have_zero_period():
    rng = random.Random(103)
    for _ in range(200):
        h = random_poly(rng, 5)
        assert period_of_form(d_planar_scalar(h)).is_zero()


def test_multiples_of_df_have_zero_period():
    rng = random.Random(104)
    df = d_planar_scalar(X * X + Y * Y)
    for _ in range(50):
        g = random_poly(rng, 4)
        assert period_of_form(df.scale(g)).is_zero()


def test_zero_period_helper_produces_zero_period():
    rng = random.Random(105)
    for _ in range(20):
        w = zero_period_form(rng, 4)
        assert period_of_form(w).is_zero()
        assert quad_period(w, 0.8) == pytest.approx(0.0, abs=1e-8)


def test_polynomial_forms_never_have_constant_period():
    rng = random.Random(106)
    for _ in range(100):
        assert period_of_form(random_form(rng, 5)).coefficient(0) == 0


def test_period_needs_polynomial_coefficients():
    w = Form1Planar(RationalFunction(X), RationalFunction(0))
    with pytest.raises(TypeError):
        period_of_form(w)


# ---------------------------------------------------------------------------
# PeriodPoly container
# ---------------------------------------------------------------------------


def test_periodpoly_trims_trailing_zeros():
    p = PeriodPoly((Fraction(1), Fraction(0), Fraction(0)))
    assert p.coeffs == (Fraction(1),)
    assert p.degree() == 0
    assert PeriodPoly((0, 0)).is_zero()


def test_periodpoly_arithmetic():
    p = PeriodPoly.single(1, 2)
    q = PeriodPoly.single(2, Fraction(1, 3))
    s = p + q
    assert s.coefficient(1) == 2
    assert s.coefficient(2) == Fraction(1, 3)
    assert s.coefficient(5) == 0
    assert (s - s).is_zero()
    assert (-p).coefficient(1) == -2
    assert p.scale(Fraction(1, 2)) == PeriodPoly.single(1, 1)


def test_periodpoly_eval_float():
    p = PeriodPoly((Fraction(0), Fraction(2), Fraction(-1, 2)))
    t = 1.25
    expected = math.pi * (2 * t - 0.5 * t * t)
    assert p.eval_float(t) == pytest.approx(expected, rel=1e-15)
    assert PeriodPoly.zero().eval_float(3.0) == 0.0


def test_periodpoly_text():
    assert PeriodPoly.zero().to_text() == "0"
    assert PeriodPoly.single(1, 1).to_text() == "π·t"
    assert PeriodPoly.single(2, Fraction(1, 2)).to_text() == "π·(1/2t^2)"
    assert PeriodPoly.single(1, -1).to_text() == "π·(-t)"
    assert PeriodPoly((1, Fraction(-3, 2))).to_text() == "π·(-3/2t + 1)"
    assert PeriodPoly((-2,)).to_text() == "π·(-2)"
    two_terms = PeriodPoly((Fraction(0), Fraction(-1), Fraction(3, 4)))
    assert two_terms.to_text() == "π·(3/4t^2 - t)"
    assert str(two_terms) == two_terms.to_text()
