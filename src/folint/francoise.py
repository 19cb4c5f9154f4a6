"""Relative-exactness decomposition and the iterated Melnikov construction.

For F = x^2 + y^2 a polynomial 1-form w decomposes as w = g dF + dr exactly
when its period over the circle family vanishes.  g dF + dr preserves total
degree, so the split is solved one homogeneous block at a time.  A block of
degree d has w = sum_j (p_j dx + q_j dy) x^{d-j} y^j, unknowns
g = sum_j g_j x^{d-1-j} y^j and r = sum_j r_j x^{d+1-j} y^j, and equations

    dx_j:  2 g_j     + (d+1-j) r_j     = p_j     (j = 0..d, g_d = 0)
    dy_j:  2 g_{j-1} + (j+1)   r_{j+1} = q_j     (j = 0..d, g_{-1} = 0).

Each equation couples two unknowns whose indices have the same parity, so the
system splits into two bidiagonal chains solved by an O(d) sweep:

- the odd chain (r_1, g_1, r_3, ...) runs forward from dy_0: r_1 = q_0.  For
  odd d it ends in dx_d, which has no unknown left: r_d = p_d is the single
  consistency equation of the block, i.e. its period condition;
- the even chain (..., g_2, r_2, g_0, r_0) runs backward.  For even d it
  starts from dx_d: r_d = p_d.  For odd d it has one unknown more than
  equations, and the canonical gauge g_{d-1} = 0 starts it: dy_d gives
  r_{d+1} = q_d/(d+1) and dx_{d-1} gives r_{d-1} = p_{d-1}/2.

Every step of either chain has the form v = (a - m u) / k, with a the
coefficient of the equation, u the previous unknown of the chain and small
positive ints m and k.  The sweep reads a and its block's common denominator
straight from BivarPoly's int numerators, keeps each value as a reduced
(numerator, denominator) int pair, at one gcd per value (a shared
denominator skips the cross products), and brings g and r over one common
denominator only at the block's output; no Fraction is built on the way.

Canonical representative.  The kernel of a block is the s(F)-shift
(g, r) -> (g + c F^m, r - c F^{m+1}/(m+1)) with d = 2m+1, so it exists only
for odd d and moves the y^{d-1} coefficient of g (F^m has y^{2m} with
coefficient 1).  Fixing that coefficient to zero is therefore a complete
gauge, and it is the answer of dense elimination with columns ordered r first
(ascending graded-lex) then g (descending graded-lex) and free variables set
to zero: the last column, g's y^{d-1}, is the only free one.  Across blocks
this zeroes every y^{2j} coefficient of g.  Every returned pair is verified by
exact resubstitution; a failure is an internal error, never a wrong answer.
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
from math import gcd, lcm
from typing import Union

from .abelian import CIRCLE_DF, OvalFamily, PeriodPoly, period_of_form
from .algebra import BivarPoly
from .exterior import Form1Planar, d_planar_scalar

__all__ = [
    "FrancoisePair",
    "FrancoiseSequence",
    "MelnikovResult",
    "NoSolution",
    "InternalSolverError",
    "decompose",
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
        lhs = w.scale(prev_g)
        rhs = CIRCLE_DF.scale(self.g) + d_planar_scalar(self.r)
        return (lhs - rhs).is_zero()


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
    p: BivarPoly, q: BivarPoly, d: int
) -> tuple[BivarPoly, BivarPoly] | None:
    """Solve g dF + dr = p dx + q dy on one homogeneous block of degree d.

    Returns the canonical (g, r), or None when the odd chain's consistency
    equation fails (the block's period is nonzero).  Index j is the power of
    y: p_j, q_j multiply x^{d-j} y^j, g_j multiplies x^{d-1-j} y^j and r_j
    multiplies x^{d+1-j} y^j.  Values are reduced (numerator, denominator)
    int pairs; the chains read the numerators of p and q over their common
    denominators directly.
    """
    pn, qn = [0] * (d + 1), [0] * (d + 1)
    for (_, j), c in p.nums.items():
        pn[j] = c
    for (_, j), c in q.nums.items():
        qn[j] = c
    pd, qd = p.den, q.den
    g = [(0, 1)] * d
    r = [(0, 1)] * (d + 2)

    # odd chain, forward from r_1 = q_0: dy_j gives r_{j+1} for even j and
    # dx_j gives g_j for odd j; for odd d it ends in dx_d, whose residual
    # would be g_d
    odd = _chain([
        (qn[j], qd, 2, j + 1) if j % 2 == 0 else (pn[j], pd, d + 1 - j, 2)
        for j in range(d + 1)
    ])
    if d % 2 and odd[-1][0]:
        return None
    for j, v in enumerate(odd[: d + 1 - d % 2]):
        if j % 2:
            g[j] = v
        else:
            r[j + 1] = v

    # even chain, backward: dx_j gives r_j for even j and dy_j gives g_{j-1}
    # for odd j; for odd d the gauge g_{d-1} = 0 starts it at dx_{d-1} and
    # leaves dy_d alone
    top = d - d % 2
    even = _chain([
        (pn[j], pd, 2, d + 1 - j) if j % 2 == 0 else (qn[j], qd, j + 1, 2)
        for j in range(top, -1, -1)
    ])
    for j, v in zip(range(top, -1, -1), even):
        if j % 2:
            g[j - 1] = v
        else:
            r[j] = v
    if d % 2:
        r[d + 1] = _chain([(qn[d], qd, 0, d + 1)])[0]

    g_den = lcm(*[b for _, b in g])
    r_den = lcm(*[b for _, b in r])
    g_nums = {(d - 1 - j, j): a * (g_den // b) for j, (a, b) in enumerate(g) if a}
    r_nums = {
        (d + 1 - j, j): r[j][0] * (r_den // r[j][1])
        for j in range(d + 1, -1, -1)
        if r[j][0]
    }
    return BivarPoly(g_nums, g_den), BivarPoly(r_nums, r_den)


def _chain(steps: list[tuple[int, int, int, int]]) -> list[tuple[int, int]]:
    """Values v_i = (a_i - m_i v_{i-1}) / k_i from v_{-1} = 0, each a reduced
    int pair, for steps (numerator of a_i, denominator of a_i, m_i, k_i) with
    positive denominators and k_i; a shared denominator skips the cross
    products, and each value costs one gcd."""
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


def _join(parts: list[BivarPoly]) -> BivarPoly:
    """Sum of polynomials with pairwise disjoint supports, over one
    denominator."""
    den = lcm(*[part.den for part in parts])
    return BivarPoly(
        {e: c * (den // part.den) for part in parts for e, c in part.nums.items()}, den
    )


def _blocks(w: Form1Planar) -> list[tuple[int, list[BivarPoly]]]:
    """Homogeneous blocks (d, [p_d, q_d]) of w in ascending degree."""
    blocks: dict[int, list[BivarPoly]] = {}
    for d, part in w.p.homogeneous_parts().items():
        blocks.setdefault(d, [BivarPoly.zero(), BivarPoly.zero()])[0] = part
    for d, part in w.q.homogeneous_parts().items():
        blocks.setdefault(d, [BivarPoly.zero(), BivarPoly.zero()])[1] = part
    return sorted(blocks.items())


def decompose(w: Form1Planar) -> Union[FrancoisePair, NoSolution]:
    """Split w = g dF + dr, or return NoSolution carrying the period witness.

    The sweep decides: every block consistent iff period_of_form(w) = 0, so
    the period is computed only when a block fails, as the witness.  The
    returned representative is the solver-canonical one described in the
    module docstring (no minimality claim).
    """
    # blocks have disjoint degrees, so their terms never collide
    g_parts, r_parts = [], []
    for d, (pdx, pdy) in _blocks(w):
        solved = _block_solve(pdx, pdy, d)
        if solved is None:
            period = period_of_form(w)
            if period.is_zero():
                raise InternalSolverError(
                    f"zero-period block of degree {d} is inconsistent; "
                    "degree bounds violated"
                )
            return NoSolution(witness=period)
        g_parts.append(solved[0])
        r_parts.append(solved[1])

    pair = FrancoisePair(g=_join(g_parts), r=_join(r_parts))
    if not pair.verify(BivarPoly.one(), w):
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
