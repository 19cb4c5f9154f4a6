"""Exact arithmetic for bivariate polynomials, rational functions and eps-jets.

Polynomials in Q[x, y] are stored sparsely as a dict mapping exponent pairs
(a, b) to nonzero Fraction coefficients; the zero polynomial is the empty dict.
The BivarPoly constructor alone keeps this invariant, so arithmetic hands it
raw sums and never tests for cancellation itself.
The monomial order used everywhere (printing, pivoting, leading terms) is
graded lexicographic with x > y: compare total degree first, then the x
exponent.

Rational functions are fractions of BivarPoly kept as written, with the
denominator normalized to have graded-lex leading coefficient 1; equality
cross-multiplies, so no operation needs a gcd.  poly_gcd computes one by a
primitive pseudo-remainder sequence in x with univariate Euclid over Q[y] for
the contents, so no external computer-algebra dependency is involved; the
only caller that wants a reduced fraction reduces its own.

Truncated power series in a deformation parameter eps (EpsSeries) have
BivarPoly coefficients: every series of the pipeline lives in
Q[x, y][eps]/(eps^{K+1}).  A series carries an explicit truncation order K and
stores all K+1 coefficients, including trailing zeros.  Combining series of
different orders raises SeriesOrderMismatch rather than silently coercing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Union

__all__ = [
    "Rational",
    "BivarPoly",
    "RationalFunction",
    "EpsSeries",
    "NonInvertibleSeries",
    "SeriesOrderMismatch",
    "PolyParseError",
    "parse_poly",
    "poly_gcd",
    "divexact",
    "grlex_key",
    "X",
    "Y",
    "ONE",
    "ZERO",
]

# Exact scalars are stdlib Fractions: always in lowest terms with a positive
# denominator, which is exactly the normalization the rest of the code relies on.
Rational = Fraction

Exponent = tuple[int, int]
CoefLike = Union[int, Fraction]


class NonInvertibleSeries(ArithmeticError):
    """Raised when a series inversion needs a unit constant term and has none."""


class SeriesOrderMismatch(ValueError):
    """Raised when two EpsSeries of different truncation orders are combined."""


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries 1-based line/column."""

    def __init__(self, message: str, line: int = 1, column: int = 1) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def grlex_key(exp: Exponent) -> tuple[int, int]:
    """Sort key realizing graded lex with x > y (ascending)."""
    a, b = exp
    return (a + b, a)


class BivarPoly:
    """Sparse exact polynomial in Q[x, y].  Treated as immutable.

    The constructor owns normalisation: it rejects negative exponents,
    coerces every coefficient to Fraction and drops the zero ones, so terms
    maps exponents to nonzero Fractions whatever the caller passed.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Exponent, CoefLike] | None = None) -> None:
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in monomial {(a, b)}")
                if c:
                    clean[(a, b)] = c if isinstance(c, Fraction) else Fraction(c)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def constant(cls, c: CoefLike) -> "BivarPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a: int, b: int, c: CoefLike = 1) -> "BivarPoly":
        return cls({(a, b): c})

    @classmethod
    def variable(cls, name: str) -> "BivarPoly":
        if name == "x":
            return cls.monomial(1, 0)
        if name == "y":
            return cls.monomial(0, 1)
        raise ValueError(f"unknown variable {name!r}")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "BivarPoly | CoefLike") -> "BivarPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return BivarPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "BivarPoly | CoefLike") -> "BivarPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: CoefLike) -> "BivarPoly":
        return _coerce(other) - self

    def __mul__(self, other: "BivarPoly | CoefLike") -> "BivarPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                exp = (a1 + a2, b1 + b2)
                out[exp] = out.get(exp, 0) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BivarPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivarPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == BivarPoly.constant(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def coefficient(self, a: int, b: int) -> Fraction:
        return self.terms.get((a, b), Fraction(0))

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Graded-lex leading exponent and coefficient (poly must be nonzero)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=reverse)

    def homogeneous_parts(self) -> dict[int, "BivarPoly"]:
        """Split into { total degree: homogeneous component }."""
        parts: dict[int, dict[Exponent, Fraction]] = {}
        for (a, b), c in self.terms.items():
            parts.setdefault(a + b, {})[(a, b)] = c
        return {d: BivarPoly(t) for d, t in sorted(parts.items())}

    # -- calculus -----------------------------------------------------------------

    def partial(self, var: str) -> "BivarPoly":
        """Exact partial derivative with respect to "x" or "y"."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        out: dict[Exponent, Fraction] = {}
        for (a, b), c in self.terms.items():
            if var == "x" and a > 0:
                out[(a - 1, b)] = c * a
            elif var == "y" and b > 0:
                out[(a, b - 1)] = c * b
        return BivarPoly(out)

    # -- evaluation -----------------------------------------------------------------

    def eval(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for (a, b), c in self.terms.items():
            acc += c * Fraction(x) ** a * Fraction(y) ** b
        return acc

    # -- printing --------------------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form; round-trips through parse_poly."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for (a, b), c in self.sorted_terms():
            mono = ""
            if a:
                mono += "x" if a == 1 else f"x^{a}"
            if b:
                mono += "y" if b == 1 else f"y^{b}"
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}{mono}"
            else:
                body = f"{mag}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_text()!r})"


def _coerce(value) -> BivarPoly:
    if isinstance(value, BivarPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BivarPoly.constant(value)
    return NotImplemented


X = BivarPoly.variable("x")
Y = BivarPoly.variable("y")
ONE = BivarPoly.one()
ZERO = BivarPoly.zero()


# ---------------------------------------------------------------------------
# Polynomial text grammar
#
#   poly  := term (("+"|"-") term)*
#   term  := [coefficient][x["^"int]][y["^"int]]
#   coefficient := int | int "/" int
#
# Whitespace is insignificant; juxtaposition multiplies.
# ---------------------------------------------------------------------------

def parse_poly(text: str) -> BivarPoly:
    """Parse the term grammar above into a BivarPoly."""
    if not isinstance(text, str):
        raise PolyParseError("polynomial text must be a string")
    # Track original columns so errors point into the raw input.
    chars: list[tuple[str, int]] = []
    for i, ch in enumerate(text.replace("−", "-")):
        if not ch.isspace():
            chars.append((ch, i + 1))
    if not chars:
        raise PolyParseError("empty polynomial text")

    terms: dict[Exponent, Fraction] = {}
    i = 0
    n = len(chars)
    first = True
    while i < n:
        sign = 1
        ch, col = chars[i]
        if ch in "+-":
            if ch == "-":
                sign = -1
            i += 1
            if i >= n:
                raise PolyParseError("dangling sign", column=col)
        elif not first:
            raise PolyParseError(f"expected '+' or '-', got {ch!r}", column=col)
        start = i
        while i < n and chars[i][0] not in "+-":
            i += 1
        body = "".join(c for c, _ in chars[start:i])
        col0 = chars[start][1]
        exp, coef = _parse_term(body, col0)
        terms[exp] = terms.get(exp, 0) + sign * coef
        first = False
    return BivarPoly(terms)


def _parse_term(body: str, col: int) -> tuple[Exponent, Fraction]:
    m = re.match(r"^(\d+(?:/\d+)?)?", body)
    coef_text = m.group(1) or ""
    rest = body[m.end():]
    try:
        coef = Fraction(coef_text) if coef_text else Fraction(1)
    except ZeroDivisionError:
        raise PolyParseError(f"zero denominator in {coef_text!r}", column=col) from None
    a = b = 0
    mx = re.match(r"^x(?:\^(\d+))?", rest)
    if mx:
        a = int(mx.group(1)) if mx.group(1) else 1
        rest = rest[mx.end():]
    my = re.match(r"^y(?:\^(\d+))?", rest)
    if my:
        b = int(my.group(1)) if my.group(1) else 1
        rest = rest[my.end():]
    if rest:
        raise PolyParseError(f"unexpected {rest!r} in term", column=col)
    if not coef_text and not mx and not my:
        raise PolyParseError("empty term", column=col)
    return (a, b), coef


# ---------------------------------------------------------------------------
# Exact division and gcd
# ---------------------------------------------------------------------------


def divexact(p: BivarPoly, d: BivarPoly) -> BivarPoly:
    """Exact quotient p/d; raises ValueError if d does not divide p.

    Repeated graded-lex leading-term reduction: for an exact multiple this
    terminates with zero remainder in any monomial order.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return BivarPoly.zero()
    (da, db), dc = d.leading_term()
    q: dict[Exponent, Fraction] = {}
    rem = p
    while not rem.is_zero():
        (ra, rb), rc = rem.leading_term()
        if ra < da or rb < db:
            raise ValueError("inexact polynomial division")
        exp = (ra - da, rb - db)
        c = rc / dc
        q[exp] = c
        rem = rem - d * BivarPoly.monomial(*exp, c)
    return BivarPoly(q)


def _y_coeffs(p: BivarPoly) -> dict[int, BivarPoly]:
    """View p as a polynomial in x whose coefficients live in Q[y]."""
    out: dict[int, dict[Exponent, Fraction]] = {}
    for (a, b), c in p.terms.items():
        out.setdefault(a, {})[(0, b)] = c
    return {a: BivarPoly(t) for a, t in out.items()}


def _deg_x(p: BivarPoly) -> int:
    return max((a for a, _ in p.terms), default=-1)


def _lc_x(p: BivarPoly) -> BivarPoly:
    d = _deg_x(p)
    return BivarPoly({(0, b): c for (a, b), c in p.terms.items() if a == d})


def _gcd_univar_y(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Monic gcd of two polynomials in Q[y] (given as y-only BivarPoly).

    On y-only polynomials the total degree is the y-degree and the graded-lex
    leading coefficient is the one of the top power of y.
    """
    a, b = p, q
    while not b.is_zero():
        # ordinary remainder over the field Q
        while a.degree() >= b.degree() and not a.is_zero():
            da, db = a.degree(), b.degree()
            ca = a.coefficient(0, da)
            cb = b.coefficient(0, db)
            a = a - b * BivarPoly.monomial(0, da - db, ca / cb)
        a, b = b, a
    return _grlex_monic(a)


def _content_x(p: BivarPoly) -> BivarPoly:
    g = BivarPoly.zero()
    for coef in _y_coeffs(p).values():
        g = _gcd_univar_y(g, coef) if not g.is_zero() else _grlex_monic(coef)
        if g == ONE:
            break
    return g


def _prem_x(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Pseudo-remainder of p by q with respect to x."""
    dq = _deg_x(q)
    lq = _lc_x(q)
    r = p
    while not r.is_zero() and _deg_x(r) >= dq:
        dr = _deg_x(r)
        lr = _lc_x(r)
        r = r * lq - q * (lr * BivarPoly.monomial(dr - dq, 0))
    return r


def poly_gcd(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Gcd in Q[x, y], normalized to graded-lex leading coefficient 1."""
    if p.is_zero():
        return _grlex_monic(q)
    if q.is_zero():
        return _grlex_monic(p)
    if _deg_x(p) == 0 and _deg_x(q) == 0:
        return _grlex_monic(_gcd_univar_y(p, q))
    if _deg_x(p) < _deg_x(q):
        p, q = q, p
    cp, cq = _content_x(p), _content_x(q)
    a = _grlex_monic(divexact(p, cp))
    b = _grlex_monic(divexact(q, cq))
    # primitive pseudo-remainder sequence in x; the content division leaves a
    # rational scalar, and without the monic rescaling the coefficients grow
    while not b.is_zero():
        r = _prem_x(a, b)
        if not r.is_zero():
            r = _grlex_monic(divexact(r, _content_x(r)))
        a, b = b, r
    g = divexact(a, _content_x(a))
    g = g * _gcd_univar_y(cp, cq)
    return _grlex_monic(g)


def _grlex_monic(p: BivarPoly) -> BivarPoly:
    if p.is_zero():
        return p
    _, lc = p.leading_term()
    return p * BivarPoly.constant(1 / lc)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Fraction of BivarPoly as written (no common factor is cancelled) with a
    graded-lex-monic denominator; == cross-multiplies, and there is no hash."""

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly | CoefLike, den: BivarPoly | CoefLike = 1) -> None:
        num = _coerce(num)
        den = _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = ONE
        _, lc = den.leading_term()
        if lc != 1:
            num, den = num * (1 / lc), den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return _coerce_rf(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _coerce_rf(other) / self

    def reciprocal(self) -> "RationalFunction":
        if self.num.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num)

    def partial(self, var: str) -> "RationalFunction":
        return RationalFunction(
            self.num.partial(var) * self.den - self.num * self.den.partial(var),
            self.den * self.den,
        )

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def eval(self, x, y) -> Fraction:
        d = self.den.eval(x, y)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(x, y) / d

    def to_text(self) -> str:
        if self.den == ONE:
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalFunction({self.to_text()!r})"


def _coerce_rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (BivarPoly, int, Fraction)):
        return RationalFunction(_coerce(value))
    return NotImplemented


# ---------------------------------------------------------------------------
# Truncated series in eps
# ---------------------------------------------------------------------------


class EpsSeries:
    """Jet of order K in eps with coefficients in Q[x, y] (BivarPoly)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[BivarPoly], order: int | None = None) -> None:
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("EpsSeries needs at least one coefficient")
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        coeffs.extend([ZERO] * (order + 1 - len(coeffs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def constant(cls, c: BivarPoly, order: int) -> "EpsSeries":
        return cls([c], order)

    def _check(self, other: "EpsSeries") -> None:
        if self.order != other.order:
            raise SeriesOrderMismatch(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "EpsSeries") -> "EpsSeries":
        self._check(other)
        return EpsSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __neg__(self) -> "EpsSeries":
        return EpsSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other: "EpsSeries") -> "EpsSeries":
        self._check(other)
        return EpsSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other: "EpsSeries") -> "EpsSeries":
        """Cauchy product truncated at the shared order."""
        self._check(other)
        K = self.order
        out = [ZERO] * (K + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(0, K + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return EpsSeries(out, K)

    def scale(self, c: BivarPoly | CoefLike) -> "EpsSeries":
        return EpsSeries([a * c for a in self.coeffs], self.order)

    def map(self, fn: Callable[[BivarPoly], BivarPoly]) -> "EpsSeries":
        return EpsSeries([fn(a) for a in self.coeffs], self.order)

    def shift(self, n: int = 1) -> "EpsSeries":
        """Multiply by eps^n within the same truncation order."""
        return EpsSeries([ZERO] * n + list(self.coeffs[: self.order + 1 - n]), self.order)

    def eps_derivative(self) -> "EpsSeries":
        """d/d eps; the top coefficient of the result is exact only when the
        series is an exact polynomial of degree <= order."""
        out = [self.coeffs[i + 1] * Fraction(i + 1) for i in range(self.order)]
        return EpsSeries(out + [ZERO], self.order)

    def truncate(self, order: int) -> "EpsSeries":
        if order > self.order:
            raise SeriesOrderMismatch("cannot extend a jet without data")
        return EpsSeries(list(self.coeffs[: order + 1]), order)

    def extend(self, order: int) -> "EpsSeries":
        """Reinterpret an exact polynomial jet at a higher order (zero padding)."""
        if order < self.order:
            raise SeriesOrderMismatch("use truncate to lower the order")
        return EpsSeries(list(self.coeffs), order)

    def invert(self) -> "EpsSeries":
        """Multiplicative inverse; needs a nonzero constant as constant term."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise NonInvertibleSeries("constant term of the series is zero")
        if not c0.is_constant():
            raise NonInvertibleSeries("constant term is a nonconstant polynomial")
        inv0 = BivarPoly.constant(Fraction(1) / c0.constant_term())
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = self.coeffs[1] * out[n - 1]
            for i in range(2, n + 1):
                acc = acc + self.coeffs[i] * out[n - i]
            out.append(-(inv0 * acc))
        return EpsSeries(out, self.order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __iter__(self) -> Iterator[BivarPoly]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"EpsSeries([{inner}], order={self.order})"
