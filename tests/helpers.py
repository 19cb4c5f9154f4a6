"""Shared generators for randomized tests.

All randomness goes through an explicit random.Random instance so every
test run is reproducible from its literal seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from folint.algebra import BivarPoly, X, Y
from folint.exterior import Form1Planar
from folint.abelian import period_of_form

F_CIRCLE = X * X + Y * Y

# x dy - y dx; its period over x^2 + y^2 = t is 2*pi*t
AREA_FORM = Form1Planar(-Y, X)


def random_poly(
    rng: random.Random, max_deg: int, lo: int = -3, hi: int = 3, density: float = 0.4
) -> BivarPoly:
    terms = {}
    for a in range(max_deg + 1):
        for b in range(max_deg + 1 - a):
            if rng.random() < density:
                c = rng.randint(lo, hi)
                if c:
                    terms[(a, b)] = Fraction(c)
    return BivarPoly(terms)


def random_form(rng: random.Random, max_deg: int) -> Form1Planar:
    return Form1Planar(random_poly(rng, max_deg), random_poly(rng, max_deg))


def zero_period_form(rng: random.Random, max_deg: int) -> Form1Planar:
    """Random form minus the multiple of F^(m-1)*(x dy - y dx) per t^m period."""
    return remove_period(random_form(rng, max_deg))


def remove_period(w: Form1Planar) -> Form1Planar:
    """w minus the multiple of F^(m-1)*(x dy - y dx) per t^m period."""
    correction = Form1Planar.zero()
    for m, c in enumerate(period_of_form(w).coeffs):
        if c == 0:
            continue
        assert m >= 1  # polynomial forms have no t^0 period
        correction = correction + AREA_FORM.scale(F_CIRCLE ** (m - 1) * Fraction(c, 2))
    fixed = w - correction
    assert period_of_form(fixed).is_zero()
    return fixed
