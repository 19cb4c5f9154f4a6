"""Exterior calculus on the (x, y) plane extended by a deformation parameter.

Forms live on coordinates (x, y, eps).  The eight basis monomials are encoded
as bitmasks over dx (1), dy (2), deps (4) with canonical factor order
dx < dy < deps; every component of a FormEps is an EpsSeries in eps with
BivarPoly coefficients.  The planar 1-form Form1Planar takes BivarPoly or
RationalFunction components; the rational ones serve the classical
Godbillon-Vey forms and rational oracle perturbations.  A planar 2-form
h dx^dy is its coefficient h alone: Form1Planar.d and Form1Planar.wedge
return it.

The grading used for truncation is the weight w(eps) = w(deps) = 1,
w(x) = w(y) = w(dx) = w(dy) = 0, so a term eps^i (...) deps has weight i + 1
while eps^i (...) dx has weight i.

A FormEps is either exact (its coefficients are the complete coefficients of
a polynomial in eps) or a plain jet.  The total differential of a jet has an
unreliable top eps coefficient in its deps part, since d/d eps shifts unknown
data down by one order; the cleared exact flag carries through d_total, and
the result is reliable through order K-1 for terms sourced from the deps-free
part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ONE, ZERO, EpsSeries, SeriesOrderMismatch

__all__ = [
    "DX",
    "DY",
    "DE",
    "BASIS_NAMES",
    "Form1Planar",
    "FormEps",
    "wedge",
    "basis_wedge",
    "d_total",
    "d_planar_scalar",
    "term_weight",
    "truncate_weight",
    "series_to_text",
]

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
# Mixed forms in (x, y, eps)
# ---------------------------------------------------------------------------


class FormEps:
    """Mixed-degree form with EpsSeries components over the 8 basis monomials.

    Components absent from comps are zero.  All stored series share one
    truncation order.
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
        comps = {b: s for b, s in comps.items() if not s.is_zero()}
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "exact", exact)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_scalar_series(cls, s: EpsSeries, exact: bool = True) -> "FormEps":
        return cls(s.order, {0: s}, exact)

    @classmethod
    def zero(cls, order: int) -> "FormEps":
        return cls(order, {}, True)

    # -- component access --------------------------------------------------------

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

    # -- arithmetic ---------------------------------------------------------------

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
        return hash((self.order, tuple(sorted(self.comps.items(), key=lambda t: t[0], ))))

    # -- printing -------------------------------------------------------------------

    def to_text(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for basis in sorted(self.comps):
            body = series_to_text(self.comps[basis])
            name = BASIS_NAMES[basis]
            parts.append(body if basis == 0 else f"({body}) {name}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"FormEps({self.to_text()!r}, order={self.order}, exact={self.exact})"


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


def wedge(u: FormEps, v: FormEps) -> FormEps:
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


def d_total(u: FormEps) -> FormEps:
    """Total differential d u = dx ^ du/dx + dy ^ du/dy + deps ^ du/d eps.

    Each term is a wedge, so the sign of moving dx, dy or deps to its place
    in a basis monomial comes from wedge alone.  For a jet (exact=False) the
    deps-carrying output at the top order K is not determined by the data;
    the result keeps order K but is reliable only through K-1 for terms
    sourced from the deps-free part, and the exact flag is cleared.
    """
    one = EpsSeries.constant(ONE, u.order)
    out = FormEps.zero(u.order)
    for basis, derivative in (
        (DX, lambda s: s.map(lambda c: c.partial("x"))),
        (DY, lambda s: s.map(lambda c: c.partial("y"))),
        (DE, EpsSeries.eps_derivative),
    ):
        du = FormEps(u.order, {b: derivative(s) for b, s in u.comps.items()}, u.exact)
        out = out + wedge(FormEps(u.order, {basis: one}), du)
    return out


def term_weight(eps_power: int, basis: int) -> int:
    return eps_power + (1 if basis & DE else 0)


def _guard_bound(u: FormEps, k: int) -> None:
    if k < 0:
        raise ValueError("weight bound must be >= 0")
    # a jet does not know its coefficients beyond the truncation order, so a
    # weight question reaching past them is unanswerable
    if not u.exact and k > u.order:
        raise SeriesOrderMismatch(
            f"weight bound {k} exceeds jet truncation order {u.order}"
        )


def truncate_weight(u: FormEps, w: int) -> FormEps:
    """Drop every term of weight strictly greater than the bound w >= 0.

    The result is itself a fully-known form (the truncation), so exactness is
    preserved.
    """
    _guard_bound(u, w)
    out: dict[int, EpsSeries] = {}
    for basis, s in u.comps.items():
        coeffs = [c if term_weight(i, basis) <= w else ZERO for i, c in enumerate(s.coeffs)]
        out[basis] = EpsSeries(coeffs, s.order)
    return FormEps(u.order, out, u.exact)
