"""Exact arithmetic for bivariate polynomials, rational functions and eps-jets.

Polynomials in Q[x, y] are stored sparsely as int numerators over one common
denominator: a dict mapping exponent pairs (a, b) to nonzero ints, and one
positive int den with gcd(den, every numerator) = 1 (a primitive part times a
content, as in Geddes, Czapor & Labahn, Algorithms for Computer Algebra,
ch. 2).  The zero polynomial is the empty dict over 1.  The public
BivarPoly constructor checks exponents and coefficient types and brings
user input to this form.  Arithmetic results come from stored polynomials,
so they go through one trusted constructor (_reduced) that only drops the
zero sums and divides out the common factor; ring operations run on plain
ints and never test for cancellation themselves.  Where the invariant
already gives the answer, no gcd runs at all: a negation keeps den (a
common factor does not depend on signs), and a product with an int c needs
the one gcd(den, c).  The coefficients as Fractions are a read-only view,
and the text form is printed from the numerators at one gcd per term, once
per polynomial: a negation prints as its source's text with every sign
swapped, so the sign twists of the Godbillon-Vey report print for free.
Exact checks that only need a yes or no (francoise.resubstitutes) read the
numerators and build no polynomial at all.
The monomial order used everywhere (printing, pivoting, leading terms) is
graded lexicographic with x > y: compare total degree first, then the x
exponent.

Rational functions are fractions of BivarPoly kept as written, with the
denominator normalized to have graded-lex leading coefficient 1; equality
cross-multiplies, so no operation needs a gcd.  poly_gcd computes one on the
int numerators by a single primitive pseudo-remainder sequence that recurses
on the variable: x over Z[y], with the contents in Z[y] found by the same
sequence in y over Z, whose contents are math.gcds.  Taking primitive parts
at every step bounds the coefficient growth, and no Fraction is built; no
external computer-algebra dependency is involved.  The only caller that
wants a reduced fraction, godbillon's classical forms over a power r_1^e,
reads the monomial part of the gcd off the exponents and calls poly_gcd
with r_1's other part alone, never with the power.

Truncated power series in a deformation parameter eps (EpsSeries) have
BivarPoly coefficients: every series of the pipeline lives in
Q[x, y][eps]/(eps^{K+1}).  A series carries an explicit truncation order K and
stores all K+1 coefficients, including trailing zeros.  Combining series of
different orders raises SeriesOrderMismatch rather than silently coercing.
In a product each slot starts from its first term, and a coefficient equal
to 1 contributes the other factor's coefficient as it is.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
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
    "terms_text",
    "X",
    "Y",
    "ONE",
    "ZERO",
]

# Exact scalars are ints and stdlib Fractions: a Fraction is always in lowest
# terms with a positive denominator, the normalization the code relies on.
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

    Stored as a primitive part over a content: nums maps exponent pairs to
    nonzero int numerators and den is one positive int denominator, with
    gcd(den, every numerator) = 1.  Equal polynomials therefore have equal
    storage, and == and hash compare it directly.  The constructor rejects
    negative exponents and coefficients that are not rational, brings int
    and Fraction coefficients (over an optional extra int denominator) to
    that form and drops the zero ones.  Sums, differences, products,
    partials and homogeneous parts hand their raw int results to the
    trusted _reduced, which skips those checks and only drops zeros and the
    common factor.  -p negates the numerators over the same den: the
    invariant does not depend on signs.  p * c for an int c divides den and
    c by g = gcd(den, c), which is the gcd of den and every c n_j since
    gcd(den, every n_j) = 1; c = 1 gives p itself and c = -1 gives -p.
    terms is the same polynomial as a read-only exponent -> Fraction mapping
    in lowest terms, and to_text's string is kept, both built on first use.
    """

    # _text is the printed text, or until then the polynomial this one is
    # the negation of (never itself such a negation: -(-p) is p)
    __slots__ = ("nums", "den", "_terms", "_hash", "_text")

    def __init__(
        self, terms: Mapping[Exponent, CoefLike] | None = None, den: int = 1
    ) -> None:
        if type(den) is not int:
            raise TypeError(f"polynomial denominator must be an int, got {den!r}")
        if not den:
            raise ZeroDivisionError("polynomial with zero denominator")
        nums: dict[Exponent, int] = {}
        if terms:
            plain = True
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in monomial {(a, b)}")
                if type(c) is not int:
                    plain = False
            if plain:
                nums = terms
            else:
                fracs = {e: _rational(e, c) for e, c in terms.items()}
                scale = lcm(*[c.denominator for c in fracs.values()])
                nums = {e: c.numerator * (scale // c.denominator) for e, c in fracs.items()}
                den *= scale
        if den < 0:
            den = -den
            nums = {e: -c for e, c in nums.items()}
        self.nums, self.den = _normal(nums, den)
        self._terms = self._hash = self._text = None

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only exponent -> nonzero Fraction view, in storage order."""
        t = self._terms
        if t is None:
            den = self.den
            t = MappingProxyType({e: Fraction(c, den) for e, c in self.nums.items()})
            self._terms = t
        return t

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls({(0, 0): 1})

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

    def _plus(self, other: "BivarPoly | CoefLike", sign: int) -> "BivarPoly":
        """self + sign * other, over the lcm of the two denominators."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        out = dict(self.nums) if m1 == 1 else {e: c * m1 for e, c in self.nums.items()}
        get = out.get
        for exp, c in other.nums.items():
            out[exp] = get(exp, 0) + c * m2
        return _reduced(out, d1 * m1)

    def __add__(self, other: "BivarPoly | CoefLike") -> "BivarPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        # the same den and no gcd: the invariant does not depend on signs
        source = self._text
        if isinstance(source, BivarPoly):
            return source
        if not self.nums:
            return self
        return _raw({e: -c for e, c in self.nums.items()}, self.den, self)

    def __sub__(self, other: "BivarPoly | CoefLike") -> "BivarPoly":
        return self._plus(other, -1)

    def __rsub__(self, other: CoefLike) -> "BivarPoly":
        return _coerce(other) - self

    def __mul__(self, other: "BivarPoly | CoefLike") -> "BivarPoly":
        if type(other) is int:
            return self._scaled(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Exponent, int] = {}
        get = out.get
        for (a1, b1), c1 in self.nums.items():
            for (a2, b2), c2 in other.nums.items():
                exp = (a1 + a2, b1 + b2)
                out[exp] = get(exp, 0) + c1 * c2
        return _reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, c: int) -> "BivarPoly":
        """c * self by one gcd: since gcd(den, every n_j) = 1, the gcd of den
        and every c n_j is g = gcd(den, c), and c n_j / den over den / g with
        numerators (c / g) n_j is in lowest terms."""
        if c == 1:
            return self
        if c == -1:
            return -self
        if not c:
            return ZERO
        g = gcd(self.den, c)
        m = c // g
        return _raw({e: n * m for e, n in self.nums.items()}, self.den // g)

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
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.constant(other)
        if isinstance(other, BivarPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as the number it equals
        h = self._hash
        if h is None:
            if self.is_constant():
                h = hash(self.constant_term())
            else:
                h = hash((self.den, frozenset(self.nums.items())))
            self._hash = h
        return h

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.nums)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0, 0), 0), self.den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((a + b for a, b in self.nums), default=-1)

    def coefficient(self, a: int, b: int) -> Fraction:
        return Fraction(self.nums.get((a, b), 0), self.den)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Graded-lex leading exponent and coefficient (poly must be nonzero)."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.nums, key=grlex_key)
        return exp, Fraction(self.nums[exp], self.den)

    def homogeneous_parts(self) -> dict[int, "BivarPoly"]:
        """Split into { total degree: homogeneous component }."""
        parts: dict[int, dict[Exponent, int]] = {}
        for (a, b), c in self.nums.items():
            parts.setdefault(a + b, {})[(a, b)] = c
        return {d: _reduced(t, self.den) for d, t in sorted(parts.items())}

    # -- calculus -----------------------------------------------------------------

    def partial(self, var: str) -> "BivarPoly":
        """Exact partial derivative with respect to "x" or "y"."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        out: dict[Exponent, int] = {}
        for (a, b), c in self.nums.items():
            if var == "x" and a > 0:
                out[(a - 1, b)] = c * a
            elif var == "y" and b > 0:
                out[(a, b - 1)] = c * b
        return _reduced(out, self.den)

    # -- evaluation -----------------------------------------------------------------

    def eval(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        acc = sum((c * x**a * y**b for (a, b), c in self.nums.items()), Fraction(0))
        return acc / self.den

    # -- printing --------------------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form; round-trips through parse_poly.

        Each magnitude is printed from its int numerator over den, reduced
        by one gcd, and the text is kept for the next call.  A negation
        prints as its source's text with every sign swapped.
        """
        text = self._text
        if type(text) is str:
            return text
        if text is not None:
            text = _negated_text(text.to_text())
        else:
            den, nums = self.den, self.nums
            # graded lex, highest first: sorted by the x exponent, then
            # stably by the total degree
            text = terms_text(
                (
                    ("" if a == 0 else "x" if a == 1 else f"x^{a}")
                    + ("" if b == 0 else "y" if b == 1 else f"y^{b}"),
                    (c := nums[a, b]) < 0,
                    str(abs(c) // g) if (g := gcd(c, den)) == den
                    else f"{abs(c) // g}/{den // g}",
                )
                for a, b in sorted(sorted(nums, reverse=True), key=sum, reverse=True)
            )
        self._text = text
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_text()!r})"


def terms_text(terms: Iterable[tuple[str, bool, str]]) -> str:
    """Signed sum of (monomial, negative, nonzero magnitude) terms in order.

    The magnitude comes as text, "n" or "n/d" in lowest terms, as str prints
    a Fraction.  A unit magnitude is left out before a monomial, the first
    term carries a bare "-" and the others are joined by " + " or " - "; no
    term is "0".  The one term printer of BivarPoly and abelian.PeriodPoly.
    """
    pieces: list[str] = []
    for mono, negative, mag in terms:
        body = mono if mono and mag == "1" else f"{mag}{mono}"
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces) if pieces else "0"


def _negated_text(text: str) -> str:
    """The text of -p from the text of a nonzero p: in terms_text's grammar
    the only "+" and "-" characters are the signs, so toggling the leading
    "-" and swapping every other sign is exact."""
    if text[0] == "-":
        return text[1:].translate(_SWAP_SIGNS)
    return "-" + text.translate(_SWAP_SIGNS)


_SWAP_SIGNS = str.maketrans("+-", "-+")


def _normal(nums: dict[Exponent, int], den: int) -> tuple[dict[Exponent, int], int]:
    """int numerators over a positive den with the zeros dropped and the
    common factor of den and the numerators divided out."""
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g == 1:
        return {e: c for e, c in nums.items() if c}, den
    return {e: c // g for e, c in nums.items() if c}, den // g


def _raw(nums: dict[Exponent, int], den: int, negates: BivarPoly | None = None) -> BivarPoly:
    """A BivarPoly on storage that already keeps the invariant; negates is
    the polynomial it is the negation of, whose text it prints from."""
    p = object.__new__(BivarPoly)
    p.nums, p.den = nums, den
    p._terms = p._hash = None
    p._text = negates
    return p


def _reduced(nums: dict[Exponent, int], den: int) -> BivarPoly:
    """The trusted constructor of arithmetic results: nums maps exponent
    pairs of ints >= 0 to ints over a positive den, as ring operations on
    stored polynomials produce them, so no exponent or coefficient type is
    checked."""
    return _raw(*_normal(nums, den))


def _rational(exp: Exponent, c) -> Fraction:
    """Coefficient c as a Fraction; a float or a non-number is a TypeError."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, numbers.Rational):
        return Fraction(c)
    raise TypeError(
        f"coefficient of monomial {exp} must be an int or a Fraction, "
        f"got {type(c).__name__} {c!r}"
    )


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

    A monomial d shifts every exponent of p and scales its numerators in one
    pass.  Otherwise repeated graded-lex leading-term reduction: for an exact
    multiple this terminates with zero remainder in any monomial order.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return BivarPoly.zero()
    if len(d.nums) == 1:
        (((da, db), dc),) = d.nums.items()
        q = {}
        for (a, b), c in p.nums.items():
            if a < da or b < db:
                raise ValueError("inexact polynomial division")
            q[a - da, b - db] = c * d.den
        return BivarPoly(q, p.den * dc)
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


def poly_gcd(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Gcd in Q[x, y], normalized to graded-lex leading coefficient 1.

    One primitive pseudo-remainder sequence on the int numerators, x the main
    variable over Z[y] (Geddes, Czapor & Labahn, ch. 7); each content in Z[y]
    is a gcd by the same sequence in y over Z, whose contents are math.gcds.
    """
    g = _gcd(p.nums, q.nums, 0)
    return BivarPoly(g, g[max(g, key=grlex_key)]) if g else BivarPoly()


def _gcd(p: dict, q: dict, v: int) -> dict:
    """Gcd, up to sign, of int polynomials (exponent -> int dicts) by the
    primitive PRS in x (v = 0, over Z[y]) or in y (v = 1, x-free inputs)."""
    if not p or not q:
        return p or q
    (cp, p), (cq, q) = _primitive(p, v), _primitive(q, v)
    q, p = sorted((p, q), key=lambda u: _deg(u, v))
    while _deg(q, v) > 0:
        r = _prem(p, q, v)
        p, q = q, r and _primitive(r, v)[1]
    # a nonzero q of degree 0 is a primitive constant, a unit
    return _dot(({(0, 0): 1} if q else p, _content([cp, cq], v)))


def _primitive(p: dict, v: int) -> tuple[dict, dict]:
    """Content of p as a polynomial in variable v, and p divided by it."""
    rows: dict[int, dict] = {}
    for e, n in p.items():
        rows.setdefault(e[v], {})[(0, 0 if v else e[1])] = n
    c = _content(list(rows.values()), v)
    return c, _quo(p, c)


def _content(cs: list[dict], v: int) -> dict:
    """Gcd of polynomials free of variable v, shortest first: a unit ends it."""
    if v:
        return {(0, 0): gcd(*[n for c in cs for n in c.values()])}
    g: dict = {}
    for c in sorted(cs, key=len):
        if (g := _gcd(g, c, 1)) == {(0, 0): 1}:
            break
    return g


def _quo(p: dict, c: dict) -> dict:
    """Exact quotient of p by c, a polynomial in y alone, by long division."""
    (_, dc), lc = max(c.items())
    if len(c) == 1:
        return {(a, b - dc): n // lc for (a, b), n in p.items()}
    p, out, top_a = dict(p), {}, _deg(p, 0)
    for b in range(_deg(p, 1), dc - 1, -1):
        for a in range(top_a + 1):
            if n := p.get((a, b), 0) // lc:
                out[(a, b - dc)] = n
                for (_, e), m in c.items():
                    p[(a, b - dc + e)] = p.get((a, b - dc + e), 0) - n * m
    return out


def _prem(p: dict, q: dict, v: int) -> dict:
    """Sparse pseudo-remainder of p by q in variable v."""
    dq = _deg(q, v)
    s, t = (0, dq) if v else (dq, 0)
    lq = {(a - s, b - t): n for (a, b), n in q.items() if (a, b)[v] == dq}
    while (d := _deg(p, v)) >= dq:
        lp = {(a - s, b - t): -n for (a, b), n in p.items() if (a, b)[v] == d}
        p = _dot((lq, p), (lp, q))
    return p


def _dot(*pairs: tuple[dict, dict]) -> dict:
    """Sum of the products f g over the pairs (f, g) of int polynomials."""
    out: dict[Exponent, int] = {}
    get = out.get
    for f, g in pairs:
        for (a, b), m in f.items():
            for (c, d), n in g.items():
                e = (a + c, b + d)
                out[e] = get(e, 0) + m * n
    return {e: n for e, n in out.items() if n}


def _deg(p: dict, v: int) -> int:
    return max((e[v] for e in p), default=-1)


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
        out: list[BivarPoly | None] = [None] * (K + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            a_one = a == ONE
            for j in range(0, K + 1 - i):
                b = other.coeffs[j]
                if b.is_zero():
                    continue
                term = b if a_one else a if b == ONE else a * b
                acc = out[i + j]
                out[i + j] = term if acc is None else acc + term
        return EpsSeries([ZERO if c is None else c for c in out], K)

    def scale(self, c: BivarPoly | CoefLike) -> "EpsSeries":
        return EpsSeries([a * c for a in self.coeffs], self.order)

    def map(self, fn: Callable[[BivarPoly], BivarPoly]) -> "EpsSeries":
        return EpsSeries([fn(a) for a in self.coeffs], self.order)

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
