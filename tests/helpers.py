"""Shared generators for randomized tests, and the reference implementations
the tests compare folint with.

All randomness goes through an explicit random.Random instance so every
test run is reproducible from its literal seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import cos, gcd, pi, sin

import numpy as np

from folint.algebra import (
    ZERO,
    BivarPoly,
    EpsSeries,
    RationalFunction,
    SeriesOrderMismatch,
    X,
    Y,
    divexact,
    grlex_key,
    poly_gcd,
)
from folint.exterior import (
    Form1Eps,
    Form1Planar,
    Form2Eps,
    d_planar_scalar,
    series_to_text,
)
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


# ---------------------------------------------------------------------------
# The eight-slot reference algebra: mixed-degree forms on (x, y, eps) over
# the eight basis monomials, encoded as bitmasks over dx (1), dy (2) and
# deps (4) with canonical factor order dx < dy < deps.  folint.exterior keeps
# only the degrees the Godbillon-Vey identity needs; the tests compare it
# with this general algebra.
# ---------------------------------------------------------------------------

DX, DY, DE = 1, 2, 4

BASIS_NAMES = {
    0: "1",
    DX: "dx",
    DY: "dy",
    DE: "deps",
    DX | DY: "dx*dy",
    DX | DE: "dx*deps",
    DY | DE: "dy*deps",
    DX | DY | DE: "dx*dy*deps",
}

_FACTORS = (DX, DY, DE)


def _factors(basis: int) -> list[int]:
    return [f for f in _FACTORS if basis & f]


def basis_wedge(b1: int, b2: int) -> tuple[int, int] | None:
    """Sign and merged basis of b1 ^ b2, or None when a factor repeats."""
    if b1 & b2:
        return None
    sign = 1
    left = _factors(b1)
    for f in _factors(b2):
        # count factors of b1 that come after f in the canonical order
        sign *= (-1) ** sum(1 for g in left if g > f)
    return sign, b1 | b2


class FormEps:
    """Mixed-degree form with EpsSeries components over the 8 basis monomials.

    Components absent from comps are zero.  All stored series share one
    truncation order.  exact says whether the components are the complete
    coefficients of a polynomial in eps (True) or a plain jet.
    """

    __slots__ = ("order", "comps", "exact")

    def __init__(
        self,
        order: int,
        comps: dict[int, EpsSeries] | None = None,
        exact: bool = True,
    ) -> None:
        comps = dict(comps or {})
        for basis, series in comps.items():
            if basis not in BASIS_NAMES:
                raise ValueError(f"unknown basis key {basis}")
            if series.order != order:
                raise SeriesOrderMismatch(
                    f"component order {series.order} != form order {order}"
                )
        self.order = order
        self.comps = {b: s for b, s in comps.items() if not s.is_zero()}
        self.exact = exact

    @classmethod
    def from_scalar_series(cls, s: EpsSeries, exact: bool = True) -> "FormEps":
        return cls(s.order, {0: s}, exact)

    @classmethod
    def zero(cls, order: int) -> "FormEps":
        return cls(order, {}, True)

    def component(self, basis: int) -> EpsSeries:
        if basis in self.comps:
            return self.comps[basis]
        return EpsSeries.constant(ZERO, self.order)

    def terms(self):
        """Iterate (eps power, basis, coefficient) over nonzero terms."""
        for basis in sorted(self.comps):
            for i, c in enumerate(self.comps[basis].coeffs):
                if not c.is_zero():
                    yield i, basis, c

    def _merge(self, other: "FormEps", op) -> "FormEps":
        if self.order != other.order:
            raise SeriesOrderMismatch(
                f"form orders differ: {self.order} vs {other.order}"
            )
        out: dict[int, EpsSeries] = {}
        for basis in set(self.comps) | set(other.comps):
            out[basis] = op(self.component(basis), other.component(basis))
        return FormEps(self.order, out, self.exact and other.exact)

    def __add__(self, other: "FormEps") -> "FormEps":
        return self._merge(other, lambda a, b: a + b)

    def __sub__(self, other: "FormEps") -> "FormEps":
        return self._merge(other, lambda a, b: a - b)

    def __neg__(self) -> "FormEps":
        return FormEps(self.order, {b: -s for b, s in self.comps.items()}, self.exact)

    def scale_series(self, s: EpsSeries) -> "FormEps":
        return FormEps(self.order, {b: c * s for b, c in self.comps.items()}, self.exact)

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormEps):
            return NotImplemented
        return self.order == other.order and (self - other).is_zero()

    def __hash__(self) -> int:
        return hash((self.order, tuple(sorted(self.comps.items(), key=lambda t: t[0]))))

    def to_text(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for basis in sorted(self.comps):
            body = series_to_text(self.comps[basis])
            parts.append(body if basis == 0 else f"({body}) {BASIS_NAMES[basis]}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"FormEps({self.to_text()!r}, order={self.order}, exact={self.exact})"


def reference_form(u) -> FormEps:
    """The FormEps of an EpsSeries (a 0-form) or of a folint.exterior
    Form1Eps, Form2Eps or Form3Eps, with the same exact flag."""
    if isinstance(u, EpsSeries):
        return FormEps.from_scalar_series(u)
    if isinstance(u, Form1Eps):
        comps = {DX: u.a, DY: u.b, DE: u.e}
    elif isinstance(u, Form2Eps):
        comps = {DX | DY: u.xy, DX | DE: u.xe, DY | DE: u.ye}
    else:
        comps = {DX | DY | DE: u.h}
    return FormEps(next(iter(comps.values())).order, comps, u.exact)


def reference_wedge(u: FormEps, v: FormEps) -> FormEps:
    """Graded exterior product, truncated at the shared eps order."""
    if u.order != v.order:
        raise SeriesOrderMismatch(f"form orders differ: {u.order} vs {v.order}")
    acc: dict[int, EpsSeries] = {}
    for b1, s1 in u.comps.items():
        for b2, s2 in v.comps.items():
            merged = basis_wedge(b1, b2)
            if merged is None:
                continue
            sign, basis = merged
            prod = s1 * s2
            if sign < 0:
                prod = -prod
            acc[basis] = acc[basis] + prod if basis in acc else prod
    return FormEps(u.order, acc, u.exact and v.exact)


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


def reference_d_total_by_wedges(u: FormEps) -> FormEps:
    """d u = dx ^ du/dx + dy ^ du/dy + deps ^ du/d eps through reference_wedge,
    so that every sign comes from the wedge's sign rule."""
    one = EpsSeries.constant(BivarPoly.one(), u.order)
    out = FormEps.zero(u.order)
    for basis, derivative in (
        (DX, lambda s: s.map(lambda c: c.partial("x"))),
        (DY, lambda s: s.map(lambda c: c.partial("y"))),
        (DE, EpsSeries.eps_derivative),
    ):
        du = FormEps(u.order, {b: derivative(s) for b, s in u.comps.items()}, u.exact)
        out = out + reference_wedge(FormEps(u.order, {basis: one}), du)
    return out


def term_weight(eps_power: int, basis: int) -> int:
    """w(eps) = w(deps) = 1, w(x) = w(y) = w(dx) = w(dy) = 0."""
    return eps_power + (1 if basis & DE else 0)


def reference_truncate_weight(u: FormEps, w: int) -> FormEps:
    """Drop every term of weight strictly greater than the bound w >= 0; a
    jet refuses a bound past its truncation order."""
    if w < 0:
        raise ValueError("weight bound must be >= 0")
    if not u.exact and w > u.order:
        raise SeriesOrderMismatch(
            f"weight bound {w} exceeds jet truncation order {u.order}"
        )
    out: dict[int, EpsSeries] = {}
    for basis, s in u.comps.items():
        coeffs = [c if term_weight(i, basis) <= w else ZERO for i, c in enumerate(s.coeffs)]
        out[basis] = EpsSeries(coeffs, s.order)
    return FormEps(u.order, out, u.exact)


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


def reference_block_solve(
    p: list[int], pd: int, q: list[int], qd: int, d: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """The degree-d block's canonical g_0..g_{d-1} and r_0..r_{d+1} as dense
    lists of reduced int pairs, zeros included, or None when its period is
    nonzero: both bidiagonal chains swept over every position, the whole of
    each step list built first.  p[j] / pd and q[j] / qd are the
    coefficients of x^{d-j} y^j in the dx and dy components."""
    g = [(0, 1)] * d
    r = [(0, 1)] * (d + 2)
    odd = _reference_chain([
        (q[j], qd, 2, j + 1) if j % 2 == 0 else (p[j], pd, d + 1 - j, 2)
        for j in range(d + 1)
    ])
    if d % 2 and odd[-1][0]:
        return None
    for j, v in enumerate(odd[: d + 1 - d % 2]):
        if j % 2:
            g[j] = v
        else:
            r[j + 1] = v
    top = d - d % 2
    even = _reference_chain([
        (p[j], pd, 2, d + 1 - j) if j % 2 == 0 else (q[j], qd, j + 1, 2)
        for j in range(top, -1, -1)
    ])
    for j, v in zip(range(top, -1, -1), even):
        if j % 2:
            g[j - 1] = v
        else:
            r[j] = v
    if d % 2:
        r[d + 1] = _reference_chain([(q[d], qd, 0, d + 1)])[0]
    return g, r


def _reference_chain(steps: list[tuple[int, int, int, int]]) -> list[tuple[int, int]]:
    """v_i = (a_i - m_i v_{i-1}) / k_i from v_{-1} = 0 as reduced int pairs,
    for steps (numerator of a_i, denominator of a_i, m_i, k_i)."""
    out = []
    vn, vd = 0, 1
    for an, ad, m, k in steps:
        if ad == vd:
            n, dd = an - m * vn, ad * k
        else:
            n, dd = an * vd - m * vn * ad, ad * vd * k
        c = gcd(n, dd)
        vn, vd = n // c, dd // c
        out.append((vn, vd))
    return out
