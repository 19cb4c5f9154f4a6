"""Relative-exactness decomposition and the iterated Melnikov construction.

For F = x^2 + y^2 a polynomial 1-form w decomposes as w = g dF + dr exactly
when its period over the circle family vanishes.  g dF + dr preserves total
degree, so the split is solved one homogeneous block at a time.  A block of
degree d has w = sum_j (p_j dx + q_j dy) x^{d-j} y^j, unknowns
g = sum_j g_j x^{d-1-j} y^j and r = sum_j r_j x^{d+1-j} y^j, and equations

    dx_j:  2 g_j     + (d+1-j) r_j     = p_j     (j = 0..d, g_d = 0)
    dy_j:  2 g_{j-1} + (j+1)   r_{j+1} = q_j     (j = 0..d, g_{-1} = 0).

Each equation couples two unknowns whose indices have the same parity, so the
system splits into two bidiagonal chains, each solved by one sweep:

- the odd chain (r_1, g_1, r_3, ...) runs forward from dy_0: r_1 = q_0.  For
  odd d it ends in dx_d, which has no unknown left: r_d = p_d is the single
  consistency equation of the block, i.e. its period condition;
- the even chain (..., g_2, r_2, g_0, r_0) runs backward.  For even d it
  starts from dx_d: r_d = p_d.  For odd d it has one unknown more than
  equations, and the canonical gauge g_{d-1} = 0 starts it: dy_d gives
  r_{d+1} = q_d/(d+1) and dx_{d-1} gives r_{d-1} = p_{d-1}/2.

Every step of either chain has the form v = (a - m u) / k, with a the
coefficient of the equation, u the previous unknown of the chain and small
positive ints m and k.  decompose puts both components of w over one
denominator, den = lcm of theirs, and groups their int numerators into
sparse blocks, y-power -> numerator, with no polynomial per block.  Every
value of a chain is then a numerator over den times the product of the k
of the steps so far, a divisor known in advance, so the sweep is a pure
integer recurrence, fraction-free in Bareiss's sense: from (n, s) = (0, 1)
each step runs n, s = a s - m n, s k, with no gcd.  A chain stays zero
until its first step with a nonzero a, so each chain starts there: the odd
chain at its lowest such step, the even chain at its highest, and a chain
with none costs nothing.  The blocks of g_k w for a form of low degree in y
are nonzero only at a few low powers of y, so the even chain runs only
below the highest of them, and on a form with every M_i = 0 by symmetry (dx
part even in y, dy part odd) the odd chain is all zeros and never runs.
Only nonzero values are stored, as unreduced (n, s) pairs, and g and r are
assembled once each from the values of all blocks, over den times the lcm
of their divisors; the BivarPoly constructor does the only reduction.  No
Fraction is built on the way.

Canonical representative.  The kernel of a block is the s(F)-shift
(g, r) -> (g + c F^m, r - c F^{m+1}/(m+1)) with d = 2m+1, so it exists only
for odd d and moves the y^{d-1} coefficient of g (F^m has y^{2m} with
coefficient 1).  Fixing that coefficient to zero is therefore a complete
gauge, and it is the answer of dense elimination with columns ordered r first
(ascending graded-lex) then g (descending graded-lex) and free variables set
to zero: the last column, g's y^{d-1}, is the only free one.  Across blocks
this zeroes every y^{2j} coefficient of g.  Every returned pair is verified by
exact resubstitution, run by resubstitutes on the int numerators: the
residual of each component is summed term by term over one common
denominator and must vanish.  A failure is an internal error, never a wrong
answer.  FrancoisePair.verify runs the same test; godbillon.check_first_integral
runs none, since every entry of a gv report is a sign twist of a pair
resubstituted here.
The sweep alone decides solvability, and the period is computed only as the
witness of a failed block.  The dense solver survives as folint.linsolve, the
reference the tests compare this sweep against.

The displacement of the deformed foliation dF + eps w = 0 expands as
Delta(t, eps) = sum_i eps^i M_i(t); the iteration below produces
M_{k+1} = (-1)^{k+1} * period(g_k w) together with the certifying pairs.
melnikov_sequence takes the oval family and checks it is CIRCLE; decompose,
FrancoisePair.verify and FrancoiseSequence work over the circle and take no
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Union

from .abelian import CIRCLE_DF, OvalFamily, PeriodPoly, period_of_form
from .algebra import ONE, BivarPoly, Exponent, _reduced
from .exterior import Form1Planar

__all__ = [
    "FrancoisePair",
    "FrancoiseSequence",
    "MelnikovResult",
    "NoSolution",
    "InternalSolverError",
    "decompose",
    "resubstitutes",
    "melnikov_sequence",
    "sequence_length",
]


class InternalSolverError(AssertionError):
    """A structurally impossible state: degree bounds or resubstitution failed."""


@dataclass(frozen=True)
class NoSolution:
    """Certificate that w is not relatively exact: its nonzero period."""

    witness: PeriodPoly


@dataclass(frozen=True)
class FrancoisePair:
    """One step g_{i-1} w = g_i dF + d r_i; r_i has zero constant term."""

    g: BivarPoly
    r: BivarPoly

    def __post_init__(self) -> None:
        if self.r.constant_term() != 0:
            raise ValueError("pair normalization requires r with zero constant term")

    def verify(self, prev_g: BivarPoly, w: Form1Planar) -> bool:
        """Exact check of the defining identity against the previous g."""
        return resubstitutes(prev_g, w, self.g, self.r)


@dataclass(frozen=True)
class FrancoiseSequence:
    """Pairs (g_1, r_1) .. (g_m, r_m) for a fixed w over CIRCLE; g_0 = 1."""

    omega: Form1Planar
    pairs: tuple[FrancoisePair, ...]

    def g(self, i: int) -> BivarPoly:
        if i == 0:
            return BivarPoly.one()
        return self.pairs[i - 1].g

    def r(self, i: int) -> BivarPoly:
        return self.pairs[i - 1].r

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MelnikovResult:
    """Melnikov list M_1.. with the certifying sequence.

    first_nonzero is None when every computed M_i vanished; melnikov[i-1]
    stores M_i.  pairs cover 1..len(melnikov) when all vanish, otherwise one
    fewer than the stopping index.
    """

    melnikov: tuple[PeriodPoly, ...]
    first_nonzero: int | None
    sequence: FrancoiseSequence

    def order_reached(self) -> int:
        return len(self.melnikov)


# ---------------------------------------------------------------------------
# decomposition solver
# ---------------------------------------------------------------------------


def _block_solve(
    p: dict[int, int], q: dict[int, int], d: int
) -> tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]] | None:
    """Solve g dF + dr = p dx + q dy on one homogeneous block of degree d.

    p[j] and q[j] are the nonzero int coefficients of x^{d-j} y^j in the dx
    and dy components, over the form's one denominator, which the caller
    applies; a missing j is a zero coefficient.  Returns the nonzero
    canonical values over that denominator as dicts j -> unreduced
    (numerator, divisor) int pair, g_j multiplying x^{d-1-j} y^j and r_j
    multiplying x^{d+1-j} y^j, or None when the odd chain's consistency
    equation fails (the block's period is nonzero).

    A chain is zero until its first step with a nonzero coefficient, so the
    odd chain starts at its lowest such step and the even chain at its
    highest; a block without one in a chain costs that chain nothing.  Each
    step v = (a - m u) / k is n, s = a s - m n, s k on u = n / s, so the
    divisor of a value is the product of its chain's k so far.
    """
    g: dict[int, tuple[int, int]] = {}
    r: dict[int, tuple[int, int]] = {}

    # odd chain, forward from r_1 = q_0: dy_j gives r_{j+1} for even j and
    # dx_j gives g_j for odd j; for odd d it ends in dx_d, whose residual
    # would be g_d
    first = min([j for j in p if j % 2] + [j for j in q if not j % 2], default=None)
    if first is not None:
        n, s = 0, 1
        for j in range(first, d + 1):
            if j % 2:
                a, m, k, out, i = p.get(j, 0), d + 1 - j, 2, g, j
            else:
                a, m, k, out, i = q.get(j, 0), 2, j + 1, r, j + 1
            n, s = a * s - m * n, s * k
            if n:
                out[i] = (n, s)
        if d % 2 and g.pop(d, None):
            return None

    # even chain, backward: dx_j gives r_j for even j and dy_j gives g_{j-1}
    # for odd j; for odd d the gauge g_{d-1} = 0 starts it at dx_{d-1} and
    # leaves dy_d alone, which gives r_{d+1} = q_d / (d+1)
    top = d - d % 2
    last = max(
        [j for j in p if not j % 2] + [j for j in q if j % 2 and j <= top],
        default=None,
    )
    if last is not None:
        n, s = 0, 1
        for j in range(last, -1, -1):
            if j % 2:
                a, m, k, out, i = q.get(j, 0), j + 1, 2, g, j - 1
            else:
                a, m, k, out, i = p.get(j, 0), 2, d + 1 - j, r, j
            n, s = a * s - m * n, s * k
            if n:
                out[i] = (n, s)
    if d % 2 and d in q:
        r[d + 1] = (q[d], d + 1)
    return g, r


def _poly(values: dict[Exponent, tuple[int, int]], den: int) -> BivarPoly:
    """The polynomial with coefficients n / (s den) for the unreduced
    (n, s) pairs in values, over den times the lcm of the divisors; the
    trusted BivarPoly constructor reduces it."""
    scale = lcm(*{s for _, s in values.values()})
    return _reduced({e: n * (scale // s) for e, (n, s) in values.items()}, den * scale)


def resubstitutes(s: BivarPoly, w: Form1Planar, g: BivarPoly, r: BivarPoly) -> bool:
    """Exact test of s w = g dF + dr for the circle's dF, on int numerators.

    For each component v of dx, dy the residual s w_v - g dF_v - d_v r is
    summed term by term into one dict over one common denominator, and the
    identity holds iff every entry is zero; no polynomial is built or
    normalised on the way.
    """
    for v, wv, fv in ((0, w.p, CIRCLE_DF.p), (1, w.q, CIRCLE_DF.q)):
        sd, gd = s.den * wv.den, g.den * fv.den
        den = lcm(sd, gd, r.den)
        res: dict[Exponent, int] = {}
        get = res.get
        for f, h, m in ((s, wv, den // sd), (g, fv, -(den // gd))):
            for (a1, b1), c1 in f.nums.items():
                c1 *= m
                for (a2, b2), c2 in h.nums.items():
                    e = (a1 + a2, b1 + b2)
                    res[e] = get(e, 0) + c1 * c2
        m = den // r.den
        for (a, b), c in r.nums.items():
            n = b if v else a
            if n:
                e = (a, b - 1) if v else (a - 1, b)
                res[e] = get(e, 0) - m * n * c
        if any(res.values()):
            return False
    return True


def decompose(w: Form1Planar) -> Union[FrancoisePair, NoSolution]:
    """Split w = g dF + dr, or return NoSolution carrying the period witness.

    The sweep decides: every block consistent iff period_of_form(w) = 0, so
    the period is computed only when a block fails, as the witness.  The
    returned representative is the solver-canonical one described in the
    module docstring (no minimality claim).
    """
    den = lcm(w.p.den, w.q.den)
    blocks: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for v, poly in enumerate((w.p, w.q)):
        m = den // poly.den
        for (a, b), c in poly.nums.items():
            block = blocks.get(a + b)
            if block is None:
                block = blocks[a + b] = ({}, {})
            block[v][b] = c * m
    # blocks have disjoint degrees, so their terms never collide
    g: dict[Exponent, tuple[int, int]] = {}
    r: dict[Exponent, tuple[int, int]] = {}
    for d in sorted(blocks):
        solved = _block_solve(*blocks[d], d)
        if solved is None:
            period = period_of_form(w)
            if period.is_zero():
                raise InternalSolverError(
                    f"zero-period block of degree {d} is inconsistent; "
                    "degree bounds violated"
                )
            return NoSolution(witness=period)
        g.update(((d - 1 - j, j), v) for j, v in solved[0].items())
        r.update(((d + 1 - j, j), v) for j, v in solved[1].items())

    pair = FrancoisePair(g=_poly(g, den), r=_poly(r, den))
    if not pair.verify(ONE, w):
        raise InternalSolverError("resubstitution of decomposition failed")
    return pair


# ---------------------------------------------------------------------------
# Melnikov iteration
# ---------------------------------------------------------------------------


def melnikov_sequence(
    family: OvalFamily,
    w: Form1Planar,
    max_order: int,
) -> MelnikovResult:
    """Iterate M_{k+1} = (-1)^{k+1} period(g_k w) until nonzero or max_order.

    decompose(g_k w) decides each order.  A pair means M_{k+1} = 0 and extends
    the sequence; its resubstitution check is exactly the pair's defining
    identity g_k w = g_{k+1} dF + d r_{k+1}.  A NoSolution carries the period
    as its witness: the first nonzero value stops the iteration and leaves
    the pair list one short of the stopping index.  No period is computed on
    the orders where it vanishes.
    """
    family.require_circle()
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    melnikov: list[PeriodPoly] = []
    pairs: list[FrancoisePair] = []
    g_prev = BivarPoly.one()
    first_nonzero: int | None = None
    for k in range(max_order):
        solved = decompose(w.scale(g_prev))
        if isinstance(solved, NoSolution):
            period = solved.witness
            melnikov.append(period if (k + 1) % 2 == 0 else -period)
            first_nonzero = k + 1
            break
        melnikov.append(PeriodPoly.zero())
        pairs.append(solved)
        g_prev = solved.g
    seq = FrancoiseSequence(omega=w, pairs=tuple(pairs))
    return MelnikovResult(
        melnikov=tuple(melnikov), first_nonzero=first_nonzero, sequence=seq
    )


def sequence_length(seq: FrancoiseSequence) -> int:
    """Smallest l with g_{l+1} = 0, or len(seq) when no computed g vanishes.

    A zero g propagates (the canonical decomposition of the zero form is
    (0, 0)), so the first zero settles the length.  The fallback len(seq) is
    unambiguous: l = len(seq) would need the pair len(seq) + 1.
    """
    for i, pair in enumerate(seq.pairs):
        if pair.g.is_zero():
            return i
    return len(seq)
