"""Exact periods of polynomial one-forms over the circle family x^2 + y^2 = t.

The ovals gamma(t) are traversed counterclockwise, parametrized by
x = sqrt(t) cos(theta), y = sqrt(t) sin(theta), theta in [0, 2 pi].  The period
of a monomial form reduces to a trigonometric moment

    int_0^{2pi} cos^{2p} sin^{2q} dtheta = 2 pi (2p)! (2q)! / (4^{p+q} p! q! (p+q)!)

and vanishes unless both exponents are even.  Every period is therefore pi
times a polynomial in t with rational coefficients, which is what PeriodPoly
stores; the factor pi is exactly one power and is kept symbolic.

CIRCLE is the only supported family.  OvalFamily owns its one check, run where
a family enters (francoise.melnikov_sequence); the circle-only internals here
and in francoise, godbillon and oracle take no family argument.  CIRCLE_DF is
the circle's dF = 2x dx + 2y dy, built once: every identity of the form
g dF + dr (francoise.resubstitutes, which checks every pair a gv report
rests on, and godbillon's deformation form, witness and division by dF)
reads it from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import BivarPoly, X, Y, terms_text
from .exterior import Form1Planar, d_planar_scalar

__all__ = [
    "OvalFamily",
    "PeriodPoly",
    "UnsupportedOvalFamily",
    "monomial_period",
    "period_of_form",
    "CIRCLE",
    "CIRCLE_DF",
]


class UnsupportedOvalFamily(ValueError):
    """Raised when the Hamiltonian is not x^2 + y^2."""


_CIRCLE_POLY = X * X + Y * Y


@dataclass(frozen=True)
class OvalFamily:
    """Level-set family {F = t}, t > 0, of a Hamiltonian F."""

    hamiltonian: BivarPoly

    @classmethod
    def circle(cls) -> "OvalFamily":
        return cls(_CIRCLE_POLY)

    def require_circle(self) -> None:
        if self.hamiltonian != _CIRCLE_POLY:
            raise UnsupportedOvalFamily(
                f"only the circle Hamiltonian x^2 + y^2 is supported, "
                f"got {self.hamiltonian.to_text()!r}"
            )


CIRCLE = OvalFamily.circle()
CIRCLE_DF = d_planar_scalar(_CIRCLE_POLY)


@dataclass(frozen=True)
class PeriodPoly:
    """pi times a polynomial in t; coeffs[m] multiplies t^m."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in trimmed))

    @classmethod
    def zero(cls) -> "PeriodPoly":
        return cls(())

    @classmethod
    def single(cls, power: int, coeff: Fraction) -> "PeriodPoly":
        c = [Fraction(0)] * (power + 1)
        c[power] = Fraction(coeff)
        return cls(tuple(c))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PeriodPoly") -> "PeriodPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return PeriodPoly(tuple(out))

    def __neg__(self) -> "PeriodPoly":
        return PeriodPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PeriodPoly") -> "PeriodPoly":
        return self + (-other)

    def scale(self, c: Fraction | int) -> "PeriodPoly":
        return PeriodPoly(tuple(Fraction(c) * v for v in self.coeffs))

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_float(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + float(c)
        return math.pi * acc

    def poly_text(self) -> str:
        return terms_text(
            ("" if m == 0 else "t" if m == 1 else f"t^{m}", c < 0, str(abs(c)))
            for m, c in reversed(list(enumerate(self.coeffs)))
            if c != 0
        )

    def to_text(self) -> str:
        """Rendering used in reports: pi times the t-polynomial."""
        if self.is_zero():
            return "0"
        body = self.poly_text()
        nonzero = [c for c in self.coeffs if c != 0]
        if len(nonzero) == 1 and nonzero[0] == 1:
            return f"π·{body}"
        return f"π·({body})"

    def __str__(self) -> str:
        return self.to_text()


@lru_cache(maxsize=None)
def _trig_moment(m: int, n: int) -> Fraction:
    """(1/pi) int_0^{2pi} cos^m sin^n dtheta, exact."""
    if m % 2 or n % 2:
        return Fraction(0)
    p, q = m // 2, n // 2
    return Fraction(
        2 * math.factorial(2 * p) * math.factorial(2 * q),
        4 ** (p + q) * math.factorial(p) * math.factorial(q) * math.factorial(p + q),
    )


@lru_cache(maxsize=None)
def monomial_period(a: int, b: int, basis: str) -> PeriodPoly:
    """Period of x^a y^b dx (basis "dx") or x^a y^b dy (basis "dy").

    dx picks up -t^{(a+b+1)/2} times the (a, b+1) moment, nonzero only for a
    even and b odd; dy gives +t^{(a+b+1)/2} times the (a+1, b) moment, nonzero
    only for a odd and b even.
    """
    if a < 0 or b < 0:
        raise ValueError("negative exponent")
    if basis == "dx":
        c = -_trig_moment(a, b + 1)
    elif basis == "dy":
        c = _trig_moment(a + 1, b)
    else:
        raise ValueError(f"basis must be 'dx' or 'dy', got {basis!r}")
    if c == 0:
        return PeriodPoly.zero()
    power = (a + b + 1) // 2
    return PeriodPoly.single(power, c)


def period_of_form(w: Form1Planar) -> PeriodPoly:
    """Exact period of a polynomial 1-form over the circle family.

    Linear in the form; the result is pi times a polynomial in t with zero
    constant term.
    """
    p, q = w.p, w.q
    if not isinstance(p, BivarPoly) or not isinstance(q, BivarPoly):
        raise TypeError("period_of_form needs polynomial coefficients")
    sums: dict[int, Fraction] = {}  # power of t -> coefficient
    for basis, poly in (("dx", p), ("dy", q)):
        # the int numerators first, the common denominator once per power
        part: dict[int, Fraction] = {}
        for (a, b), c in poly.nums.items():
            mono = monomial_period(a, b, basis)
            if not mono.is_zero():
                power = mono.degree()
                part[power] = part.get(power, 0) + c * mono.coeffs[power]
        for power, c in part.items():
            sums[power] = sums.get(power, 0) + c / poly.den
    top = max(sums, default=-1)
    return PeriodPoly(tuple(sums.get(m, 0) for m in range(top + 1)))
