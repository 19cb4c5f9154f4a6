"""Shared generators for randomized tests.

All randomness goes through an explicit random.Random instance so every
test run is reproducible from its literal seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import cos, pi, sin

import numpy as np

from folint.algebra import (
    ZERO,
    BivarPoly,
    EpsSeries,
    RationalFunction,
    X,
    Y,
    divexact,
    grlex_key,
    poly_gcd,
)
from folint.exterior import DE, DX, DY, Form1Planar, FormEps, basis_wedge, d_planar_scalar
from folint.abelian import CIRCLE_DF, period_of_form

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


def as_callable(p: BivarPoly):
    """Float evaluator of p, usable with scalars or numpy arrays."""
    compiled = [(a, b, float(c)) for (a, b), c in p.terms.items()]

    def f(x, y):
        acc = 0.0 * (x + y)
        for a, b, c in compiled:
            acc = acc + c * x**a * y**b
        return acc

    return f


def _component(f):
    """Float evaluator of a polynomial or a rational num / den, as written."""
    if not isinstance(f, RationalFunction):
        return as_callable(f)
    num, den = as_callable(f.num), as_callable(f.den)
    return lambda x, y: num(x, y) / den(x, y)


def reference_rho(w: Form1Planar, t, eps, steps: int) -> np.ndarray:
    """rho(2pi) per (t, eps) lane by RK4 on the polar equation, evaluating
    each component at x = rho cos, y = rho sin at every stage.

    The independent reference for the oracle's node tables: no table, no
    guard, the slope exactly as the module docstring writes it.
    """
    t, eps = np.broadcast_arrays(np.asarray(t, float), np.asarray(eps, float))
    p, q = _component(w.p), _component(w.q)
    h = 2.0 * pi / steps

    def slope(theta, rho):
        c, s = cos(theta), sin(theta)
        pv, qv = p(rho * c, rho * s), q(rho * c, rho * s)
        return -eps * rho * (qv * c - pv * s) / (2.0 * rho + eps * (pv * c + qv * s))

    rho = np.sqrt(t)
    for i in range(steps):
        theta = i * h
        k1 = slope(theta, rho)
        k2 = slope(theta + 0.5 * h, rho + 0.5 * h * k1)
        k3 = slope(theta + 0.5 * h, rho + 0.5 * h * k2)
        k4 = slope(theta + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def reference_witness_residual(g: list[BivarPoly], w: Form1Planar, k: int) -> EpsSeries:
    """G d(eta) + dG ^ eta through eps^k for G = sum (-1)^i eps^i g_i (g_0 = 1,
    g = [g_1, ..., g_k]) and eta = dF + eps w, built from EpsSeries products.

    The dx^dy coefficient of d(G eta), the closedness residual of the
    length-two witness written out independently of godbillon.
    """
    G = EpsSeries([BivarPoly.one()] + [gi * (-1) ** i for i, gi in enumerate(g, 1)], k)
    dGp = G.map(lambda u: u.partial("x"))
    dGq = G.map(lambda u: u.partial("y"))
    eta_p = EpsSeries([F_CIRCLE.partial("x"), w.p][: k + 1], k)
    eta_q = EpsSeries([F_CIRCLE.partial("y"), w.q][: k + 1], k)
    deta = EpsSeries([BivarPoly.zero(), w.d()][: k + 1], k)
    return G * deta + (dGp * eta_q - dGq * eta_p)


def reference_d_total(u: FormEps) -> FormEps:
    """d u by a loop over u's basis monomials, each differential moved into
    place with the sign basis_wedge gives; the exact flag carries through."""
    acc: dict[int, EpsSeries] = {}
    for basis, s in u.comps.items():
        for db, ds in (
            (DX, s.map(lambda c: c.partial("x"))),
            (DY, s.map(lambda c: c.partial("y"))),
            (DE, s.eps_derivative()),
        ):
            merged = basis_wedge(db, basis)
            if merged is None:
                continue
            sign, out_basis = merged
            term = -ds if sign < 0 else ds
            acc[out_basis] = acc[out_basis] + term if out_basis in acc else term
    return FormEps(u.order, acc, u.exact)


def reference_resubstitutes(
    s: BivarPoly, w: Form1Planar, g: BivarPoly, r: BivarPoly
) -> bool:
    """s w = g dF + dr for the circle's dF, as a residual of BivarPoly forms."""
    return (w.scale(s) - (CIRCLE_DF.scale(g) + d_planar_scalar(r))).is_zero()


def reference_poly_text(p: BivarPoly) -> str:
    """p's text with one Fraction per term, in graded-lex order, highest first:
    a unit magnitude is left out before a monomial, the first term carries a
    bare "-" and the others are joined by " + " or " - "."""
    pieces: list[str] = []
    for (a, b), c in sorted(p.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        mono = ("" if a == 0 else "x" if a == 1 else f"x^{a}") + (
            "" if b == 0 else "y" if b == 1 else f"y^{b}"
        )
        mag = abs(Fraction(c))
        body = mono if mono and mag == 1 else f"{mag}{mono}"
        if pieces:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces) if pieces else "0"


def reference_series_product(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    """Cauchy product truncated at the shared order, every slot summed from
    ZERO and every term a full BivarPoly product."""
    K = a.order
    out = [ZERO] * (K + 1)
    for i, u in enumerate(a.coeffs):
        for j in range(K + 1 - i):
            out[i + j] = out[i + j] + u * b.coeffs[j]
    return EpsSeries(out, K)


def reference_reduced(num: BivarPoly, r1: BivarPoly, e: int) -> RationalFunction:
    """num / r1^e in lowest terms by one gcd with the full power r1^e."""
    den = r1**e
    g = poly_gcd(num, den)
    return RationalFunction(divexact(num, g), divexact(den, g))
