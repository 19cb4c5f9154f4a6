"""Numeric ground truth for the displacement function.

On the circle family x^2 + y^2 = t a leaf of dF + eps*w = 0 near the cycle
is a graph rho(theta) over the angle, x = rho cos(theta), y = rho sin(theta):
substituting into the form and collecting d rho and d theta gives the scalar
equation

    d rho / d theta = -eps rho (Q cos - P sin) / (2 rho + eps (P cos + Q sin))

for w = P dx + Q dy.  One counterclockwise revolution with fixed-step RK4
from rho(0) = sqrt(t) lands on the transversal {y = 0, x > 0}; the return is
reported as an F-value, so the displacement is Delta(t, eps) = rho(2pi)^2 - t
and Delta = eps M_1(t) + O(eps^2) with the same sign convention as the
symbolic pipeline.

At eps = 0 the right-hand side vanishes identically, so the unperturbed
return is exact at any step count; convergence-order measurements therefore
need a nonzero eps.  The integrator state is a numpy vector of (t, eps)
lanes: each lane starts from its own rho(0) = sqrt(t) and must stay in its
own annulus t/2 < rho^2 < 2t, so a whole displacement grid is one
integration.  est_error comes from step doubling: the table lanes run at n
and at 2n steps, and the 2n-step copies of the lanes ride in the same lane
vector and the same loop.  One helper, _run, lays out the lanes of every
estimate: the row-major (t, eps) table lanes, then per t the ladder
eps_j = 1e-3 * 2^-j shared by the least-squares fit and the Richardson
extrapolation.  displacement_table, melnikov_estimate and
first_melnikov_richardson each read their own lanes from it, and an oracle
report (grid_estimates) is one _run over the table and every t's ladder.

The stages read node tables instead of evaluating w.  On the circle a
polynomial is sum_k rho^k of its degree-k homogeneous part at (cos, sin),
so at each node the coefficients of A = Q cos - P sin and
B = P cos + Q sin are numbers; a stage multiplies its node's table (a row
per quantity, a column per power of rho that occurs) by the lanes' powers
rho^k and sums over k.  The nodes are the half steps theta_j = j h / 2 of
the n-step run, or its quarter steps when 2n-step lanes ride along: the
half steps of the 2n-step run, whose even nodes are the n-step run's.  An
n-step step then evaluates every lane at quarter nodes 0, 2, 2 and 4 and
the 2n-step lanes alone at 1, 1, 3 and 3, 8 stages where two runs take 12.
The tables are built one chunk of _CHUNK_STEPS steps at a time, so their
memory does not grow with the step count.  The stages write their guard
values, and the steps their rho, into one check array per chunk, tested once
at the chunk's end; its values start where they pass, so a value that a lane
never writes passes and every lane is tested alike.

A lane costs almost nothing; the loop's time is its count of numpy calls on
small arrays.  So the buffers are made once per call: each lane set (every
lane, and the 2n-step lanes alone) has one buffer holding the table rows'
values at a node and the stage input x (_Stages), whose powers
rho^1 .. rho^top are one accumulate over a zero-stride view of x.  A stage
of a polynomial omega is then 7 numpy calls, and an n-step step with
2n-step lanes 87 (8 stages and 31 calls of stage inputs and updates).

A rational component N / D is taken as written: with w = (Np / Dp) dx +
(Nq / Dq) dy the tables hold the exact products Nq Dp cos - Np Dq sin,
Np Dq cos + Nq Dp sin and Dp Dq, and the d rho coefficient
2 rho Dp Dq + eps B must have the sign of Dp Dq.  Each denominator Dp and
Dq also has its own table row and must keep its theta = 0 sign at every
stage, so a pole on the leaf raises DenominatorVanished even when a step
jumps over it, and even when Dp and Dq flip together and leave Dp Dq
unchanged.  Nothing cancels a common factor: a removable one that vanishes
on the annulus is a pole too.

The polar equation is the circle's, so no entry point takes a Hamiltonian;
cli.parse_problem checks the F of a problem document.

numpy is imported inside the functions that integrate, tabulate or fit, not
at module level, so importing this module loads only the standard library:
`import folint` and the exact `melnikov` and `gv` subcommands never load
numpy, and the first oracle report or --verify-all pays for it.  The module
itself stays imported by the CLI, so its names always resolve, for callers
and for tools that find them in sys.modules.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import TYPE_CHECKING

from .algebra import ONE, X, Y, RationalFunction
from .exterior import Form1Planar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HolonomyConfig",
    "DisplacementSample",
    "MelnikovEstimates",
    "LeafEscapedAnnulus",
    "DenominatorVanished",
    "NonFiniteEstimate",
    "holonomy_return",
    "displacement_table",
    "melnikov_estimate",
    "first_melnikov_richardson",
    "grid_estimates",
    "write_samples_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("t", "eps", "delta", "est_error")

_CONDITION_LIMIT = 1e8


class LeafEscapedAnnulus(RuntimeError):
    """The integrated leaf left t/2 < x^2+y^2 < 2t; eps too large for t."""


class DenominatorVanished(RuntimeError):
    """The d rho coefficient of dF + eps*w reached zero, so the leaf is not a
    graph, or the denominator of a rational component of w changed sign."""


class NonFiniteEstimate(RuntimeError):
    """A number the oracle needs is beyond the float64 range: a coefficient
    of w or of the node-table products, refused before integrating, or the
    Melnikov fit at a t too large for the oracle."""


def _floats(poly, what: str) -> list[float]:
    """poly's coefficients as floats; NonFiniteEstimate names what overflows."""
    try:
        return [float(c) for c in poly.terms.values()]
    except OverflowError:
        raise NonFiniteEstimate(
            f"{what} has a coefficient beyond the float64 range"
        ) from None


# The largest step count.  A 1x1 report makes 87 numpy calls a step, 75-130 us
# on a shared 2-CPU host with numpy 2.4.6, so the cap keeps it within about
# 2 minutes, where an unbounded --steps could run for hours; nothing shipped
# uses more than the 20 000 default.
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class HolonomyConfig:
    """Fixed-step integrator settings: 100 <= step_count <= 10**6."""

    step_count: int = 20000

    def __post_init__(self) -> None:
        if self.step_count < 100:
            raise ValueError("step_count must be >= 100")
        if self.step_count > _MAX_STEPS:
            raise ValueError(f"step_count must be <= {_MAX_STEPS}")


DEFAULT_CONFIG = HolonomyConfig()


@dataclass(frozen=True)
class DisplacementSample:
    """One measured Delta(t, eps) at 2n steps; est_error is its distance
    from the n-step value, both from one integration (step doubling)."""

    t: float
    eps: float
    delta: float
    est_error: float


def _integrate(w: Form1Planar, t, eps, steps: int, fine: int = 0):
    """rho(2pi) after `steps` RK4 steps for every (t, eps) lane; t and eps
    broadcast together.  The first `fine` lanes also run at 2 * steps steps
    in the same loop; the result is the pair (n-step rho, 2n-step rho of
    those lanes), the second empty when fine is 0.

    Each lane starts from rho(0) = sqrt(t) and must stay in its own annulus
    t/2 < rho^2 < 2t.  The lane vector is every n-step lane followed by the
    2n-step copies.  The stages read node tables (see _Rows) built one chunk
    of _CHUNK_STEPS n-step steps at a time, so table memory does not grow
    with the step count; with fine > 0 the nodes are the quarter steps
    theta = m h / 4, the half steps of the 2n-step run.  Per n-step step
    every lane is evaluated at nodes 0, 2, 2 and 4 and the 2n-step lanes
    alone at nodes 1, 1, 3 and 3: 8 stages where two runs take 12.  As
    0.5 * (2 pi / n) == 2 pi / (2 n) in floats, each stage input, node and
    update is the float expression of the separate run.  A stage multiplies
    its node's table by the lanes' powers rho^k and sums over k, elementwise
    in a fixed order, so no lane's result depends on the other lanes or on
    the chunk size.

    The loop costs numpy calls, not arithmetic, so each lane set (every
    lane, and the 2n-step lanes alone) has its buffers (see _Stages), and
    the views of k and of the stage inputs are made before the loop.  A
    step's views of the check array are made in it: kept for a whole chunk
    they would be hundreds of array objects alive at once, for no measurable
    gain.  A stage is 7 numpy calls for a polynomial omega (8 when its
    powers of rho have a gap, which need a gather), 9 for a rational one;
    an n-step step with 2n-step lanes is 8 stages and 31 calls of stage
    inputs and updates, one without them 4 stages and 13 calls.

    A rational omega divides through by D = Dp Dq, so the d rho coefficient
    2 rho D + eps B must have D's sign; each denominator Dp and Dq must keep
    its own theta = 0 sign at every stage, since a sign test on D alone
    misses both flipping together.  The stages write these signed values,
    and the steps their rho, into one array per chunk, indexed (step, check,
    row, lane) with the ten checks of a step in their run order (see _ENDS).
    A stage's value passes when it is > 0, a step end's when rho^2 is in the
    annulus, and a value that a lane never writes is set up to pass, so one
    vectorised test per chunk, without lane masks, raises the first failure
    in (step, check, row, lane) order, an n-step lane's before any 2n-step
    lane's, as if the n-step run had run first.  The checks see only the
    stages' samples, so a pole crossed twice between two of them still
    escapes.  The n-step result has the broadcast shape of t and eps; with
    no lane, both results are empty and nothing is tabulated or stepped.
    """
    import numpy as np

    t, eps = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(eps, dtype=float)
    )
    shape = t.shape
    t, eps = t.ravel(), eps.ravel()
    if not np.all(t > 0):
        raise ValueError("t must be positive")
    if not t.size:  # no lane takes a step
        return np.empty(shape), np.empty(0)
    n = t.size
    t, eps = np.concatenate([t, t[:fine]]), np.concatenate([eps, eps[:fine]])
    lo, hi = 0.5 * t, 2.0 * t
    h = 2.0 * pi / steps
    hf = 2.0 * pi / (2 * steps)  # the 2n-step run's h, == 0.5 * h
    sub = 4 if fine else 2  # table nodes per n-step step
    mid = sub // 2
    # the table node of each check of a step (see _ENDS)
    node_of = (0, 1, 1, mid, mid, mid, 3, 3, sub, sub)
    rows = _Rows(w)
    chunk = min(_CHUNK_STEPS, steps)
    # per step of a chunk, each check's rows (denominators, then d rho; a step
    # end's rho in row 0), at values that pass until a lane writes them
    checks = np.ones((chunk, len(node_of), len(rows.dens) + 1, t.size))
    ends = checks[:, _ENDS, 0]
    rho = np.sqrt(t)
    ends[:, 0] = rho
    # each denominator's sign, then D's, at the lane's theta = 0 point
    signs = np.ones((len(rows.dens) + 1, t.size))
    every, part = _Stages(rows, eps, signs), _Stages(rows, eps[n:], signs[:, n:])
    x, x_n, x_f, xp = every.x, every.x[:n], every.x[n:], part.x
    # k[0] .. k[3]: the slopes k1 .. k4 of each lane's step, for a 2n-step
    # lane its second of the two in an n-step step
    k = np.empty((4, t.size))
    k0, k1, k2, k3 = k
    k1_n = k[1, :n]
    k0_f, k1_f, k2_f = k[:3, n:]
    twice = np.empty((2, t.size))  # 2 k2 and 2 k3 of the update
    total = np.empty(t.size)
    # h and h / 6 per lane: the every-lane expressions rho + h k3 and
    # rho + h / 6 (k1 + 2 k2 + 2 k3 + k4)
    h_lane = np.concatenate([np.full(n, h), np.full(fine, hf)])
    h6_lane = np.concatenate([np.full(n, h / 6.0), np.full(fine, hf / 6.0)])
    # the rows a stage writes: a polynomial omega's d rho row alone
    rows_of = checks if rows.dens else checks[:, :, 0]

    def failure(bad: np.ndarray, first_lane: int) -> RuntimeError | None:
        """The first failure flagged in bad, (step, check, row, lane)."""
        if not bad.any():
            return None
        i, check, row, k = np.unravel_index(np.argmax(bad), bad.shape)
        k += first_lane
        theta = thetas[sub * i + node_of[check]]
        if check in range(len(node_of))[_ENDS]:
            return LeafEscapedAnnulus(
                f"leaf left the annulus ({lo[k]:g}, {hi[k]:g}) at theta="
                f"{theta:.6f}, t={t[k]:g}, eps={eps[k]:g}"
            )
        if row < len(rows.dens):
            name, poly = rows.dens[row]
            return DenominatorVanished(
                f"denominator {poly} of the {name} component vanished "
                f"or changed sign at theta={theta:.6f}, t={t[k]:g}, "
                f"eps={eps[k]:g} (the fraction is not reduced, so a "
                f"common factor counts)"
            )
        return DenominatorVanished(
            f"d rho coefficient vanished at theta={theta:.6f}, "
            f"t={t[k]:g}, eps={eps[k]:g}"
        )

    rho_f = rho[n:]  # the 2n-step lanes' rho
    late = None  # the first failure of a 2n-step lane
    # the checks stop every non-finite lane, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, steps, chunk):
            stop = min(start + chunk, steps)
            thetas = np.arange(sub * start, sub * stop + 1) * (h / sub)
            nodes = rows.tabulate(thetas)
            if start == 0 and rows.dens:
                np.copyto(x, rho)
                every.set_signs(nodes[0])
            for i in range(stop - start):
                j, g, end = sub * i, rows_of[i], ends[i]
                np.copyto(x, rho)
                every.slope(nodes[j], g[0], k0)  # node 0: k1
                if fine:  # the 2n-step lanes' first step: k2, k3 at node 1
                    np.add(rho_f, 0.5 * hf * k0_f, out=xp)
                    f2 = part.slope(nodes[j + 1], g[1, ..., n:])
                    acc = k0_f + 2.0 * f2
                    # k3 in k1's place, so that one input serves every lane
                    np.add(rho_f, 0.5 * hf * f2, out=xp)
                    part.slope(nodes[j + 1], g[2, ..., n:], k0_f)
                    acc = acc + 2.0 * k0_f
                # node 2: the n-step k2 and the 2n-step k4 (0.5 * h == hf)
                np.add(rho, 0.5 * h * k0, out=x)
                every.slope(nodes[j + mid], g[3], k1)
                if fine:  # the first step's end; rho becomes [n-step rho, r]
                    rho_f = np.add(rho_f, (hf / 6.0) * (acc + k1_f), out=end[0, n:])
                    end[0, :n] = rho[:n]
                    rho = end[0]
                # node 2: the n-step k3 and the second step's k1
                np.add(rho[:n], 0.5 * h * k1_n, out=x_n)
                if fine:
                    np.copyto(x_f, rho_f)
                every.slope(nodes[j + mid], g[5], k2)
                if fine:  # the second step's k1, k2, k3 into k[0], k[1], k[2]
                    np.copyto(k0_f, k2_f)
                    np.add(rho_f, 0.5 * hf * k0_f, out=xp)
                    part.slope(nodes[j + 3], g[6, ..., n:], k1_f)
                    np.add(rho_f, 0.5 * hf * k1_f, out=xp)
                    part.slope(nodes[j + 3], g[7, ..., n:], k2_f)
                np.add(rho, h_lane * k2, out=x)  # node 4: every lane's k4
                every.slope(nodes[j + sub], g[8], k3)
                # rho + h / 6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
                np.multiply(2.0, k[1:3], out=twice)
                np.add(k0, twice[0], out=total)
                np.add(total, twice[1], out=total)
                np.add(total, k3, out=total)
                rho = np.add(rho, np.multiply(h6_lane, total, out=total), out=end[1])
                rho_f = rho[n:]
            count = stop - start
            # not > 0, so NaN fails too; a step end must stay in the annulus
            bad = ~(checks[:count] > 0.0)
            sq = ends[:count] * ends[:count]
            bad[:, _ENDS, 0] = ~((sq > lo) & (sq < hi))
            error = failure(bad[..., :n], 0)
            if error is not None:
                raise error
            if late is None:
                late = failure(bad[..., n:], n)
    if late is not None:
        raise late
    return rho[:n].reshape(shape), rho[n:]


# RK4 steps per node table: a table holds the 2 * _CHUNK_STEPS + 1 half-step
# nodes of its steps (4 * _CHUNK_STEPS + 1 quarter-step nodes when the
# 2n-step lanes run too), so its size does not depend on the step count
_CHUNK_STEPS = 64

# The ten checks of one n-step step, in the order of the separate runs: eight
# stages, every lane at nodes 0, 2, 2 and 4 (slots 0, 3, 5 and 8) and the
# 2n-step lanes alone at 1, 1, 3 and 3 (slots 1, 2, 6 and 7), and two step
# ends, the 2n-step lanes' middle one and every lane's last (row 0 of slots 4
# and 9, this slice).  An n-step lane's order is its own run's; a 2n-step
# lane's is its two steps in turn.  Every value a lane never writes passes:
# the check array starts at 1.0, which passes a stage (an n-step lane writes
# no 2n-step stage), and the middle step end at sqrt(t), inside the annulus.
# An n-step lane writes there its rho at the start of the step, which passed
# as the last step's end; with no 2n-step lanes nothing writes it.
_ENDS = slice(4, None, 5)


def _powers(base: np.ndarray, top: int) -> np.ndarray:
    """base^0 .. base^top stacked on a new first axis, by repeated products."""
    import numpy as np

    out = np.empty((top + 1, *base.shape))
    out[0] = 1.0
    out[1:] = base
    return np.multiply.accumulate(out, axis=0, out=out)


class _Stages:
    """The slope of one lane set at a table node, on buffers made once.

    One (rows.size + 1, lanes) buffer holds the rows' values at the node,
    then the stage input x; a rational omega's has rows.size + 3 rows: the
    rows, the d rho coefficient, x and eps.  The caller writes x.  A stage
    raises it to rho^1 .. rho^top with one accumulate over a zero-stride
    view of x (row 0 of the powers stays 1), multiplies the node's
    (columns, rows, 1) table by the powers, broadcasting over the lanes (the
    powers are a view when the degrees are contiguous, a gather when they
    have a gap), and sums over the columns into the buffer's rows.  One
    two-row product then gives [eps B / 2, -eps / 2 x] for a polynomial
    omega, or [x D, eps B / 2] for a rational one, whose guard rows
    [Dp, (Dq,) d rho coefficient] are one product with `signs`, each
    denominator's sign and then D's at theta = 0 (set_signs fills them; a
    lane set of a subset of the lanes gets a view).  Every product, sum and
    quotient is the float expression of the direct formula, in its order.
    """

    def __init__(self, rows: _Rows, eps: np.ndarray, signs: np.ndarray) -> None:
        import numpy as np

        lanes, size, dens = eps.size, rows.size, len(rows.dens)
        buf = np.empty((size + 3 if dens else size + 1, lanes))
        values, v0 = buf[:size], buf[0]
        x = self.x = buf[size + 1] if dens else buf[size]
        # rho^0 .. rho^top; row 0 stays 1, the others are raised from x
        powers = np.ones((rows.top + 1, 1, lanes))
        rising = np.broadcast_to(x, (max(rows.top, 0), lanes))
        raised = powers[1:, 0]
        # the powers of the table's columns: a view, or a gather per stage
        low = int(rows.degrees[0]) if rows.degrees.size else 0
        gather = None
        columns = powers[low:]
        if not np.array_equal(rows.degrees, np.arange(low, rows.top + 1)):
            gather = rows.degrees
        pair = np.empty((2, lanes))
        first, second = pair

        def evaluate(node: np.ndarray) -> None:
            """Every row at the node, for each lane's x, into the buffer."""
            np.multiply.accumulate(rising, axis=0, out=raised)
            p = columns if gather is None else powers.take(gather, axis=0)
            np.add.reduce(node * p, axis=0, out=values)

        def set_signs(node: np.ndarray) -> None:
            """Fill signs from the denominator rows at the node."""
            evaluate(node)
            np.sign(values[3:], out=signs[:-1])
            signs[-1] = signs[:-1].prod(axis=0)

        self.set_signs = set_signs
        if dens:
            buf[-1] = eps
            x_eps, den, flipped = buf[-2:], buf[size], buf[2:0:-1]
            signed = buf[3 : size + 1]
            neg_half_eps = -0.5 * eps

            def slope(node, g, out=None):
                """The slope at the node; the signed guard rows go to g."""
                evaluate(node)
                np.multiply(x_eps, flipped, out=pair)  # [x D, eps B / 2]
                np.add(first, second, out=den)
                np.multiply(signed, signs, out=g)  # > 0 where each keeps its sign
                return np.divide(neg_half_eps * x * v0, den, out=out)
        else:
            scale = np.stack([eps, -0.5 * eps])
            tail = buf[1:]  # [B / 2, x]

            def slope(node, g, out=None):
                """The slope at the node; the d rho coefficient goes to g."""
                evaluate(node)
                np.multiply(tail, scale, out=pair)  # [eps B / 2, -eps / 2 x]
                # half the numerator over half the d rho coefficient (row 1 is
                # B / 2): the bits of -eps rho A / (2 rho + eps B), one product
                # fewer
                den = np.add(x, first, out=g)
                return np.divide(np.multiply(second, v0), den, out=out)

        self.slope = slope


class _Rows:
    """The rows of the node tables, as exact homogeneous parts.

    On the circle x = rho c, y = rho s, so a polynomial is sum_k rho^k of
    its degree-k part at (c, s).  With w = (Np / Dp) dx + (Nq / Dq) dy (a
    polynomial component has denominator 1) the rows are
    A = (x Nq Dp - y Np Dq) / rho and B / 2 = (x Np Dq + y Nq Dp) / (2 rho),
    from the numerators of Q c - P s and P c + Q s; a rational omega adds
    D = Dp Dq and then each rational component's own denominator, for the
    sign checks.  The products are exact; a table entry is the float sum of
    its part's terms at the node.
    """

    def __init__(self, w: Form1Planar) -> None:
        import numpy as np

        (num_p, den_p), (num_q, den_q) = (
            (f.num, f.den) if isinstance(f, RationalFunction) else (f, ONE)
            for f in (w.p, w.q)
        )
        for name, *polys in (("dx", num_p, den_p), ("dy", num_q, den_q)):
            for poly in polys:
                _floats(poly, f"the {name} component of omega")
        self.dens = [
            (name, f.den)
            for name, f in (("dx", w.p), ("dy", w.q))
            if isinstance(f, RationalFunction)
        ]
        rows = [
            {k - 1: part for k, part in poly.homogeneous_parts().items()}
            for poly in (X * num_q * den_p - Y * num_p * den_q,
                         (X * num_p * den_q + Y * num_q * den_p) * Fraction(1, 2))
        ]
        if self.dens:
            rows += [
                poly.homogeneous_parts()
                for poly in (den_p * den_q, *(den for _, den in self.dens))
            ]
        # one table column per power of rho that some row has
        self.degrees = np.array(sorted({k for row in rows for k in row}), dtype=int)
        self.top = int(self.degrees[-1]) if self.degrees.size else -1
        column = {k: col for col, k in enumerate(self.degrees.tolist())}
        self.size = len(rows)
        # (row, column, exponents of c, exponents of s, coefficients)
        self.entries = [
            (r, column[k], *np.array(list(part.terms), dtype=int).T,
             np.array(_floats(part, "a product of omega's components")))
            for r, row in enumerate(rows)
            for k, part in row.items()
        ]

    def tabulate(self, thetas: np.ndarray) -> np.ndarray:
        """The table at every node: shape (nodes, columns, rows, 1)."""
        import numpy as np

        # a part of the column for rho^k has degree at most k + 1
        cos = _powers(np.cos(thetas), self.top + 1)
        sin = _powers(np.sin(thetas), self.top + 1)
        table = np.zeros((thetas.size, self.degrees.size, self.size, 1))
        for r, col, a, b, coef in self.entries:
            table[:, col, r, 0] = (coef[:, None] * cos[a] * sin[b]).sum(axis=0)
        return table


def holonomy_return(
    w: Form1Planar,
    t,
    eps,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
):
    """F-value after one revolution of the leaf through (sqrt(t), 0).

    t and eps broadcast together, one lane per element; scalar inputs give
    a scalar.
    """
    rho, _ = _integrate(w, t, eps, cfg.step_count)
    return rho * rho


def displacement_table(
    w: Form1Planar,
    t_values,
    eps_values,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
) -> list[DisplacementSample]:
    """Samples for the whole (t, eps) grid, row-major in the given order.

    Delta is the doubled-step return; est_error is its difference from the
    cfg run.  Both runs are one integration over every grid point.
    """
    return _run(w, t_values, eps_values, (), 0, cfg)[0]


class MelnikovEstimates(list):
    """Fitted coefficients of eps^1..eps^m with the fit diagnostics attached.

    Behaves as a plain list of floats; residual is the rms misfit over the
    sample grid, and ill_conditioned flags a rank-deficient or badly scaled
    design matrix (condition number above 1e8 in the rescaled variable).
    """

    def __init__(self, coefficients, residual, condition_number, ill_conditioned):
        super().__init__(float(c) for c in coefficients)
        self.residual = float(residual)
        self.condition_number = float(condition_number)
        self.ill_conditioned = bool(ill_conditioned)

    def __repr__(self) -> str:
        return (
            f"MelnikovEstimates({list(self)!r}, residual={self.residual:g}, "
            f"condition_number={self.condition_number:g}, "
            f"ill_conditioned={self.ill_conditioned})"
        )


# the ladder eps_j = _EPS0 * 2^-j that both estimators sample, and the
# Richardson levels on it
_EPS0 = 1e-3
_LEVELS = 4


def _run(w: Form1Planar, t_values, eps_values, ladder_t, rungs: int, cfg):
    """Every lane an estimate reads, in one integration.

    The cfg-step lanes are the row-major (t, eps) table lanes, which also run
    at 2*cfg steps in the same loop, then `rungs` rungs of the ladder
    _EPS0 * 2^-j for each t in ladder_t.  Lanes do not interact, so every
    number is the one a separate integration of its lane gives.  Returns the
    table samples (Delta from the 2n-step run, est_error its distance from
    the n-step one), the ladder and each ladder t's row of n-step Delta.
    """
    import numpy as np

    grid = [(t, eps) for t in t_values for eps in eps_values]
    ladder = np.array([_EPS0 * 2.0 ** (-j) for j in range(rungs)])
    lanes = grid + [(t, eps) for t in ladder_t for eps in ladder.tolist()]
    n = len(grid)
    t_lane, eps_lane = np.array(lanes, dtype=float).reshape(-1, 2).T
    rho, rho_fine = _integrate(w, t_lane, eps_lane, cfg.step_count, fine=n)
    deltas = rho * rho - t_lane
    fine = rho_fine * rho_fine - t_lane[:n]
    samples = [
        DisplacementSample(t=t, eps=eps, delta=delta, est_error=err)
        for (t, eps), delta, err in zip(
            grid, fine.tolist(), np.abs(fine - deltas[:n]).tolist()
        )
    ]
    return samples, ladder, deltas[n:].reshape(len(ladder_t), rungs)


def _fit(t: float, orders: int, grid, deltas) -> MelnikovEstimates:
    """melnikov_estimate's fit on the first 2*orders+1 rungs of the ladder."""
    import numpy as np

    rungs = 2 * orders + 1
    grid, deltas = grid[:rungs], deltas[:rungs]
    u = grid / _EPS0
    design = np.vander(u, orders + 1, increasing=True)[:, 1:]
    scaled, _, rank, sv = np.linalg.lstsq(design, deltas, rcond=None)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.sqrt(np.mean((design @ scaled - deltas) ** 2)))
        coefficients = scaled / _EPS0 ** np.arange(1, orders + 1)
    if not np.all(np.isfinite([residual, *coefficients])):
        raise NonFiniteEstimate(f"the eps fit at t={t:g} overflows float64")
    return MelnikovEstimates(
        coefficients,
        residual,
        condition,
        rank < orders or condition > _CONDITION_LIMIT,
    )


def _richardson(grid, deltas) -> float:
    """first_melnikov_richardson's extrapolation on the first _LEVELS + 1
    rungs."""
    table = list(deltas[: _LEVELS + 1] / grid[: _LEVELS + 1])
    for col in range(1, _LEVELS + 1):
        factor = 2.0**col
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    return float(table[0])


def melnikov_estimate(
    w: Form1Planar,
    t: float,
    orders: int,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
) -> MelnikovEstimates:
    """Least-squares jet of Delta(t, .): coefficients of eps^1..eps^orders.

    Samples the geometric grid eps_j = 1e-3 * 2^-j for j = 0..2*orders and
    fits the model without constant term; the fit runs in the rescaled
    variable eps/1e-3 so the reported condition number reflects the model,
    not the units.  A fit that overflows float64 raises NonFiniteEstimate.
    """
    if orders < 1:
        raise ValueError("orders must be >= 1")
    _, ladder, (row,) = _run(w, (), (), (t,), 2 * orders + 1, cfg)
    return _fit(t, orders, ladder, row)


def first_melnikov_richardson(
    w: Form1Planar,
    t: float,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
) -> float:
    """M_1(t) by Richardson extrapolation of Delta/eps on a halving grid.

    Alternative to the least-squares fit; on eps_j = 1e-3 * 2^-j, j <= 4,
    successive columns cancel the eps^1, eps^2, ... corrections of
    Delta(t, eps)/eps.
    """
    _, ladder, (row,) = _run(w, (), (), (t,), _LEVELS + 1, cfg)
    return _richardson(ladder, row)


def grid_estimates(
    w: Form1Planar,
    t_values,
    eps_values,
    orders: int,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
) -> tuple[list[DisplacementSample], list[tuple[MelnikovEstimates, float]]]:
    """The table and per-t estimates of an oracle report, in one integration.

    Equals displacement_table(w, t_values, eps_values, cfg) and, per t,
    melnikov_estimate(w, t, orders, cfg) with
    first_melnikov_richardson(w, t, cfg): one _run holds the table lanes and
    one ladder per t, as long as the longer estimator needs, whose leading
    rungs both estimators read.  Returns the table and one
    (estimates, richardson_m1) pair per t.
    """
    if orders < 1:
        raise ValueError("orders must be >= 1")
    rungs = max(2 * orders + 1, _LEVELS + 1)
    samples, ladder, rows = _run(w, t_values, eps_values, t_values, rungs, cfg)
    fits = [
        (_fit(t, orders, ladder, row), _richardson(ladder, row))
        for t, row in zip(t_values, rows)
    ]
    return samples, fits


def write_samples_csv(samples, fileobj) -> None:
    """Write rows (t, eps, delta, est_error) with a header line."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in samples:
        writer.writerow([repr(s.t), repr(s.eps), repr(s.delta), repr(s.est_error)])
