"""Exterior calculus on the (x, y) plane extended by a deformation parameter.

The planar 1-form Form1Planar takes BivarPoly or RationalFunction components;
the rational ones serve the classical Godbillon-Vey forms and rational oracle
perturbations.  A planar 2-form h dx^dy is its coefficient h alone:
Form1Planar.d and Form1Planar.wedge return it.

Forms on (x, y, eps) are stored by degree, every coefficient an EpsSeries in
eps with BivarPoly coefficients and all of one truncation order:

* a 0-form is an EpsSeries;
* Form1Eps is a dx + b dy + e deps;
* Form2Eps holds the coefficients of dx^dy, dx^deps and dy^deps;
* Form3Eps is h dx^dy^deps, its one coefficient h.

These are the degrees the Godbillon-Vey identity needs: d_total takes a
0-form to a 1-form and a 1-form to a 2-form, wedge takes a 1-form and a
2-form to the 3-form, and truncate_weight truncates the 3-form.  So for
Omega = a dx + b dy + e deps,

    Omega ^ dOmega = [a (e_y - b_eps) - b (e_x - a_eps) + e (b_x - a_y)] dx^dy^deps.

The grading used for truncation is the weight w(eps) = w(deps) = 1,
w(x) = w(y) = w(dx) = w(dy) = 0, so a term eps^i (...) dx^dy^deps has
weight i + 1.

A form on (x, y, eps) is either exact (its coefficients are the complete
coefficients of a polynomial in eps) or a plain jet.  The total differential
of a jet has an unreliable top eps coefficient in its deps parts, since
d/d eps shifts unknown data down by one order; the cleared exact flag
carries through d_total and wedge, and truncate_weight refuses a jet a
weight past its truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ZERO, EpsSeries, SeriesOrderMismatch

__all__ = [
    "Form1Planar",
    "Form1Eps",
    "Form2Eps",
    "Form3Eps",
    "wedge",
    "d_total",
    "d_planar_scalar",
    "truncate_weight",
    "series_to_text",
]


# ---------------------------------------------------------------------------
# Planar forms (no eps dependence); coefficient ring is BivarPoly or
# RationalFunction, anything with partial/is_zero and ring arithmetic.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Form1Planar:
    """p dx + q dy."""

    p: object
    q: object

    @classmethod
    def zero(cls) -> "Form1Planar":
        return cls(ZERO, ZERO)

    def __add__(self, other: "Form1Planar") -> "Form1Planar":
        return Form1Planar(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "Form1Planar") -> "Form1Planar":
        return Form1Planar(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "Form1Planar":
        return Form1Planar(-self.p, -self.q)

    def scale(self, c) -> "Form1Planar":
        return Form1Planar(self.p * c, self.q * c)

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    def d(self):
        """The dx^dy coefficient dq/dx - dp/dy of the exterior derivative."""
        return self.q.partial("x") - self.p.partial("y")

    def wedge(self, other: "Form1Planar"):
        """The dx^dy coefficient of self ^ other."""
        return self.p * other.q - self.q * other.p

    def to_text(self) -> str:
        return f"({self.p}) dx + ({self.q}) dy"

    def __str__(self) -> str:
        return self.to_text()


def d_planar_scalar(f) -> Form1Planar:
    """Differential of a scalar: (df/dx) dx + (df/dy) dy."""
    return Form1Planar(f.partial("x"), f.partial("y"))


# ---------------------------------------------------------------------------
# Forms in (x, y, eps), stored by degree
# ---------------------------------------------------------------------------


def _same_order(*series: EpsSeries) -> None:
    if len({s.order for s in series}) > 1:
        raise SeriesOrderMismatch(
            f"component orders differ: {[s.order for s in series]}"
        )


class Form1Eps:
    """a dx + b dy + e deps with EpsSeries coefficients of one order."""

    __slots__ = ("a", "b", "e", "exact")

    def __init__(
        self, a: EpsSeries, b: EpsSeries, e: EpsSeries, exact: bool = True
    ) -> None:
        _same_order(a, b, e)
        self.a, self.b, self.e, self.exact = a, b, e, exact

    @property
    def order(self) -> int:
        return self.a.order


class Form2Eps:
    """xy dx^dy + xe dx^deps + ye dy^deps with EpsSeries coefficients of one order."""

    __slots__ = ("xy", "xe", "ye", "exact")

    def __init__(
        self, xy: EpsSeries, xe: EpsSeries, ye: EpsSeries, exact: bool = True
    ) -> None:
        _same_order(xy, xe, ye)
        self.xy, self.xe, self.ye, self.exact = xy, xe, ye, exact


class Form3Eps:
    """h dx^dy^deps, the top-degree form on (x, y, eps)."""

    __slots__ = ("h", "exact")

    def __init__(self, h: EpsSeries, exact: bool = True) -> None:
        self.h, self.exact = h, exact

    @property
    def order(self) -> int:
        return self.h.order

    def is_zero(self) -> bool:
        return self.h.is_zero()

    def to_text(self) -> str:
        return "0" if self.is_zero() else f"({series_to_text(self.h)}) dx*dy*deps"

    def __str__(self) -> str:
        return self.to_text()


def series_to_text(s: EpsSeries) -> str:
    parts = []
    for i, c in enumerate(s.coeffs):
        if c.is_zero():
            continue
        if i == 0:
            parts.append(f"{c}")
        elif i == 1:
            parts.append(f"eps*({c})")
        else:
            parts.append(f"eps^{i}*({c})")
    return " + ".join(parts) if parts else "0"


def _dx(s: EpsSeries) -> EpsSeries:
    return s.map(lambda c: c.partial("x"))


def _dy(s: EpsSeries) -> EpsSeries:
    return s.map(lambda c: c.partial("y"))


def d_total(u: EpsSeries | Form1Eps) -> Form1Eps | Form2Eps:
    """Total differential of a 0-form (an EpsSeries) or of a 1-form.

    d u = u_x dx + u_y dy + u_eps deps, and for u = a dx + b dy + e deps

        d u = (b_x - a_y) dx^dy + (e_x - a_eps) dx^deps + (e_y - b_eps) dy^deps.

    A 0-form's differential is exact; a 1-form's keeps its exact flag.  For
    a jet the deps-carrying output at the top order K is not determined by
    the data, so the result keeps order K but its deps parts are reliable
    only through K-1.
    """
    if isinstance(u, EpsSeries):
        return Form1Eps(_dx(u), _dy(u), u.eps_derivative())
    return Form2Eps(
        _dx(u.b) - _dy(u.a),
        _dx(u.e) - u.a.eps_derivative(),
        _dy(u.e) - u.b.eps_derivative(),
        u.exact,
    )


def wedge(u: Form1Eps, v: Form2Eps) -> Form3Eps:
    """u ^ v = (a ye - b xe + e xy) dx^dy^deps, truncated at the shared order."""
    return Form3Eps(u.a * v.ye - u.b * v.xe + u.e * v.xy, u.exact and v.exact)


def truncate_weight(u: Form3Eps, w: int) -> Form3Eps:
    """Drop every term of weight strictly greater than the bound w >= 0.

    The term at eps^i has weight i + 1.  The result is itself a fully-known
    form (the truncation), so exactness is preserved; a jet does not know
    its coefficients beyond the truncation order, so a bound past it is
    unanswerable and raises SeriesOrderMismatch.
    """
    if w < 0:
        raise ValueError("weight bound must be >= 0")
    if not u.exact and w > u.order:
        raise SeriesOrderMismatch(
            f"weight bound {w} exceeds jet truncation order {u.order}"
        )
    coeffs = [c if i + 1 <= w else ZERO for i, c in enumerate(u.h.coeffs)]
    return Form3Eps(EpsSeries(coeffs, u.order), u.exact)
