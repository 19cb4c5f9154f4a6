"""Godbillon-Vey data attached to a decomposition sequence.

The sign bookkeeping

    G_i = (-1)^i g_i,        R_i = (-1)^{i+1} i r_i,        G_0 = 1,

turns the decomposition steps g_{i-1} w = g_i dF + d r_i into the one-form

    Omega = R deps + (dF + eps w) G,
    G = 1 + sum_{i=1}^k eps^i G_i,     R = sum_{i=0}^{k} eps^i R_{i+1}.

With F_eps = F + sum_{i=1}^{k+1} eps^i c_i and c_i = (-1)^{i+1} r_i, step i
reads, for i = 1..k+1,

    G_i dF + G_{i-1} w = d c_i   (planar, eps^i),    R_i = i c_i   (deps, eps^{i-1}).

The planar eps^{k+1} coefficient of Omega is G_k w alone, so these steps make
Omega equal to d(F_eps) up to one top-order straggler:

    Omega - d(F_eps) = eps^{k+1} (G_k w - d c_{k+1}) = -eps^{k+1} G_{k+1} dF.

decompose has already resubstituted g_{i-1} w = g_i dF + d r_i for every
pair it returned.  Let sigma be the sign that G_{i-1} carries against
g_{i-1}, with sigma = 1 at G_0 = g_0 = 1.  Step i times sigma reads

    (sigma g_{i-1}) w = (sigma g_i) dF + d(sigma r_i),

so G_{i-1} = sigma g_{i-1}, G_i = -sigma g_i and c_i = sigma r_i satisfy
step i, and G_i then carries -sigma: sigma alternates, which is the twist
above.  check_first_integral compares what a gv report prints with the
verified pairs by these signs: c_0 = F and, for i = 1..k+1, G_i = -sigma g_i,
c_i = sigma r_i and R_i = i c_i.  That is stricter than step i itself, which
fixes G_i and c_i only up to the kernel of the decomposition, and it
resubstitutes nothing, so the identity is checked once per pair, by
decompose: a gv run at order k makes k+1 resubstitutions.  gv reports three
fields, and each rests on the verified pairs and that comparison:

* defect_zero.  Omega ^ dOmega vanishes through weight k+1 in the grading
  that counts eps and deps with weight one.  For S = -eps^{k+1} G_{k+1} dF,
  d d = 0 gives Omega ^ dOmega = (d(F_eps) + S) ^ dS.  Every term of dS has
  weight k+1 or more and carries the factor dF, so a product term of weight
  <= k+1 pairs dS with the weight-0 part of d(F_eps) + S, which is dF, and
  dF ^ dF = 0 kills it.  Step
  k+1, which pair k+1 gives, is what makes the straggler a multiple of dF,
  so it is what makes the weight-(k+1) defect vanish.  The eps^k slot of R
  must hold R_{k+1} (compared with (k+1) c_{k+1}): left empty it adds
  -eps^k R_{k+1} deps to Omega, and the defect then exhibits the
  order-(k+1) obstruction instead of hiding it.  One Omega answers every
  order j <= k: d and the wedge product preserve the weight, and below
  weight j+2 the order-j assembly differs from the order-k one only by the
  planar term T = eps^{j+1} G_{j+1} dF, whose one contribution there,
  dF ^ dT, vanishes.  So the order-j verdict is the order-k defect's
  vanishing through weight j+1.
* integrating_factor.  S has weight k+1, so Omega = 1 * d(F_eps) through
  weight k, where the order-k truncation of F_eps (the printed one) has the
  same coefficients.  The factor N with Omega = N d(F_eps) is unique, since
  each n_w is fixed by division by dF, so N = 1.
* witness_ok.  The eps^i coefficient of G (dF + eps w) is
  G_i dF + G_{i-1} w = d c_i for i <= k, an exact form, so G (dF + eps w)
  is closed through eps^k.

The twist (g_i, r_i) <-> (G_i, c_i) is written once, in _twist: it negates
r_i for even i and g_i for odd i, and is its own inverse.
gv_pairs_from_francoise, first_integral and length_two_witness apply it
forwards and pairs_from_first_integral backwards; R_i = i c_i is then a
scaling.
check_first_integral does not use it: it carries sigma itself and reads the
printed G_i, R_i and c_i, so a wrong twist fails there.

The library functions re-derive these facts from the forms themselves, as
folint --verify-all does on each fixture whose gv run finds no obstruction:
assemble_omega builds Omega as a Form1Eps, integrability_defect the 3-form
Omega ^ dOmega, integrating_factor solves Omega = N d(F_eps) order by order
on Omega's three coefficient series, and length_two_witness builds the unit
series G = sum (-1)^i eps^i g_i and checks the witness_ok identity itself,
d(G_i dF + G_{i-1} w) = 0 for i = 1..k, one planar coefficient at a time.
It returns G, from which witness_theta builds the closed one-form
theta = -dG/G.  The module also recovers the data in the opposite direction
(pairs from a first integral) and extracts the classical Godbillon-Vey forms
eta_i from the Taylor expansion of d(F_eps)/(dF_eps/deps).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .abelian import CIRCLE, CIRCLE_DF
from .algebra import BivarPoly, EpsSeries, RationalFunction, divexact, poly_gcd
from .exterior import (
    Form1Eps,
    Form1Planar,
    Form3Eps,
    d_planar_scalar,
    d_total,
    series_to_text,
    truncate_weight,
    wedge,
)
from .francoise import FrancoisePair, FrancoiseSequence, InternalSolverError

__all__ = [
    "GVPair",
    "FirstIntegral",
    "GVClassicalSequence",
    "NoFactorExists",
    "DegenerateNormalization",
    "NORMALIZATION_PRIMARY",
    "NORMALIZATION_RESCALED",
    "gv_pairs_from_francoise",
    "deformation_form",
    "assemble_omega",
    "integrability_defect",
    "first_integral",
    "check_first_integral",
    "integrating_factor",
    "classical_gv_forms",
    "length_two_witness",
    "witness_theta",
    "pairs_from_first_integral",
]

NORMALIZATION_PRIMARY = "of dF/R1"
NORMALIZATION_RESCALED = "of dF"


class NoFactorExists(ValueError):
    """Omega = N * d(F_eps) has no unit-series solution for the given data."""


class DegenerateNormalization(ValueError):
    """r_1 = 0: the eps-derivative of F_eps is not invertible."""


def _twist(i: int, a: BivarPoly, b: BivarPoly) -> tuple[BivarPoly, BivarPoly]:
    """(g_i, r_i) -> (G_i, c_i) = ((-1)^i g_i, (-1)^{i+1} r_i), and back.

    Exactly one of the two signs is negative, so the map negates one entry;
    applied twice it is the identity.
    """
    return (a, -b) if i % 2 == 0 else (-a, b)


def _over_dF(p: BivarPoly, q: BivarPoly) -> BivarPoly | None:
    """The n with p dx + q dy = n dF for the circle F, or None when there is none.

    F_x = 2x, so dividing p by it fixes n; divexact returns only exact
    quotients, which leaves the dy component to check.
    """
    try:
        n = divexact(p, CIRCLE_DF.p)
    except ValueError:
        return None
    return n if (q - n * CIRCLE_DF.q).is_zero() else None


# ---------------------------------------------------------------------------
# GV pairs and the first integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GVPair:
    """Sign-adjusted pair (G_i, R_i); the index i is positional, 1-based."""

    G: BivarPoly
    R: BivarPoly


def gv_pairs_from_francoise(seq: FrancoiseSequence) -> list[GVPair]:
    """Apply G_i = (-1)^i g_i, R_i = (-1)^{i+1} i r_i to every pair of seq."""
    out = []
    for i in range(1, len(seq) + 1):
        G, c = _twist(i, seq.g(i), seq.r(i))
        out.append(GVPair(G=G, R=c * i))
    return out


@dataclass(frozen=True)
class FirstIntegral:
    """Truncation of F_eps = F + sum (-1)^{i+1} eps^i r_i."""

    series: EpsSeries

    @property
    def hamiltonian(self) -> BivarPoly:
        return self.series.coeffs[0]

    def differential(self, order: int | None = None) -> Form1Eps:
        """Total differential d(F_eps) of the truncation, as a Form1Eps.

        The truncation is treated as the polynomial it is, so the result is
        exact for that polynomial; its deps part at the top order reflects
        the truncation, not the full series.
        """
        s = self.series if order is None else self.series.extend(order)
        return d_total(s)

    def to_text(self) -> str:
        return series_to_text(self.series)

    def __str__(self) -> str:
        return self.to_text()


def _pairs_through(seq: FrancoiseSequence, k: int) -> list[FrancoisePair]:
    """Pairs 1..k; a terminated sequence (last g = 0) extends with zero pairs."""
    if len(seq) >= k:
        return list(seq.pairs[:k])
    if seq.pairs and seq.pairs[-1].g.is_zero():
        pad = FrancoisePair(g=BivarPoly.zero(), r=BivarPoly.zero())
        return list(seq.pairs) + [pad] * (k - len(seq))
    raise ValueError(
        f"sequence provides {len(seq)} pairs, order {k} needs more"
    )


def first_integral(F: BivarPoly, seq: FrancoiseSequence, k: int) -> FirstIntegral:
    """F + sum_{i=1}^k (-1)^{i+1} eps^i r_i as an order-k series."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if F != CIRCLE.hamiltonian:
        raise ValueError("sequence was computed for a different Hamiltonian")
    coeffs = [F]
    for i, pair in enumerate(_pairs_through(seq, k), start=1):
        coeffs.append(_twist(i, pair.g, pair.r)[1])
    return FirstIntegral(EpsSeries(coeffs, k))


def check_first_integral(
    seq: FrancoiseSequence, gvp: list[GVPair], fint: FirstIntegral, k: int
) -> None:
    """Check each printed G_i, R_i and c_i against the verified pair it came from.

    decompose resubstituted g_{i-1} w = g_i dF + d r_i for every pair of seq,
    so with sigma the sign of G_{i-1} against g_{i-1} (sigma = 1 at
    G_0 = g_0 = 1) the twisted identity G_i dF + G_{i-1} w = d c_i holds for
    G_i = -sigma g_i and c_i = sigma r_i, and then G_i carries -sigma.  The
    check compares c_0 with F and, for i = 1..k+1, G_i, c_i and R_i = i c_i
    with these, which is stricter than the identity; the module docstring
    derives every field of a gv report from them.  It calls neither _twist
    nor resubstitutes, so a wrong _twist fails here.  The first mismatch
    raises InternalSolverError.
    """
    if k < 0 or len(gvp) <= k or fint.series.order <= k:
        raise ValueError(f"order {k} needs pairs and first integral through {k + 1}")
    c, sigma = fint.series.coeffs, 1
    if c[0] != CIRCLE.hamiltonian:
        raise InternalSolverError("first integral mismatch at eps^0: c_0 is not F")
    for i, (pair, got) in enumerate(zip(_pairs_through(seq, k + 1), gvp), start=1):
        if (got.G, c[i], got.R) != (pair.g * -sigma, pair.r * sigma, c[i] * i):
            raise InternalSolverError(f"G_{i}, c_{i} or R_{i} is not pair {i} twisted")
        sigma = -sigma


# ---------------------------------------------------------------------------
# Omega and its integrability defect
# ---------------------------------------------------------------------------


def deformation_form(w: Form1Planar, order: int) -> Form1Eps:
    """dF + eps*w for the circle F as an exact Form1Eps of the given order (>= 1)."""
    if order < 1:
        raise ValueError("order must be >= 1 to hold the eps term")
    return Form1Eps(
        EpsSeries([CIRCLE_DF.p, w.p], order),
        EpsSeries([CIRCLE_DF.q, w.q], order),
        EpsSeries([BivarPoly.zero()], order),
    )


def assemble_omega(w: Form1Planar, pairs: list[GVPair], k: int) -> Form1Eps:
    """Omega = R deps + (dF + eps w) G at representation order k+1.

    G uses pairs 1..k and R places R_{i+1} at eps^i for i < k.  The eps^k
    slot of R takes R_{k+1} when a (k+1)-th pair is supplied and stays zero
    otherwise; only the filled variant has a defect vanishing through weight
    k+1.  The product is kept in full, so the result is exact in eps.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(pairs) < k:
        raise ValueError(f"order {k} needs pairs 1..{k}, got {len(pairs)}")
    order = k + 1
    G = EpsSeries([BivarPoly.one()] + [pairs[i].G for i in range(k)], order)
    r_coeffs = [pairs[i].R for i in range(min(k + 1, len(pairs)))]
    R = EpsSeries(r_coeffs or [BivarPoly.zero()], order)
    eta = deformation_form(w, order)
    return Form1Eps(eta.a * G, eta.b * G, R)


def integrability_defect(omega: Form1Eps, k: int) -> Form3Eps:
    """Omega ^ d(Omega) truncated to weight <= k+1 (zero iff integrable there).

    The weight <= j+1 part of the order-k defect is the defect of the
    order-j assembly for every j <= k (see the module docstring), so
    truncate_weight(defect, j + 1).is_zero() gives each lower order's verdict.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if omega.order < k:
        raise ValueError(f"form of order {omega.order} cannot answer k = {k}")
    return truncate_weight(wedge(omega, d_total(omega)), k + 1)


# ---------------------------------------------------------------------------
# integrating factor
# ---------------------------------------------------------------------------


def integrating_factor(omega: Form1Eps, fint: FirstIntegral, k: int) -> EpsSeries:
    """Unit series N with omega = N * d(F_eps) through weight k.

    Weight w of the planar part fixes n_w by exact division by dF; the deps
    part at eps^{w-1} is then a consistency check.  Failure of either step
    raises NoFactorExists: no unit factor matches the two sides.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if omega.order < k or fint.series.order < k:
        raise ValueError("both inputs must carry data through order k")
    # components of d(F_eps): the partials of the coefficients, deps slot i
    # holding (i+1) c_{i+1}
    d = fint.differential()
    dpx, dpy, deps = d.a.coeffs, d.b.coeffs, d.e.coeffs
    a, b, e = omega.a.coeffs, omega.b.coeffs, omega.e.coeffs

    n: list = []
    for w in range(k + 1):
        res_p = a[w]
        res_q = b[w]
        for j in range(w):
            res_p = res_p - n[j] * dpx[w - j]
            res_q = res_q - n[j] * dpy[w - j]
        n_w = _over_dF(res_p, res_q)
        if n_w is None:
            raise NoFactorExists(f"planar part at eps^{w} is not a multiple of dF")
        n.append(n_w)
        if w >= 1:
            lhs = e[w - 1]
            rhs = None
            for j in range(w):
                term = n[j] * deps[w - 1 - j]
                rhs = term if rhs is None else rhs + term
            if not (lhs - rhs).is_zero():
                raise NoFactorExists(
                    f"deps part at eps^{w - 1} contradicts the planar solve"
                )
    # the two equalities above check every coefficient of weight <= k, so the
    # identity omega = N * d(F_eps) holds exactly there by construction
    return EpsSeries(n, k)


# ---------------------------------------------------------------------------
# classical GV forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GVClassicalSequence:
    """Forms eta_0..eta_m of one fixed normalization."""

    eta: tuple[Form1Planar, ...]
    normalization: str

    def __len__(self) -> int:
        return len(self.eta)


def classical_gv_forms(
    fint: FirstIntegral, m: int, normalization: str = NORMALIZATION_PRIMARY
) -> GVClassicalSequence:
    """eta_0..eta_m from the Taylor expansion of d(F_eps)/(dF_eps/deps).

    With eta_eps = sum eps^i/i! eta_i this makes eta_0 = dF/R_1 for
    R_1 = r_1, the lead of the eps-derivative; r_1 = 0 leaves nothing to
    divide by and raises DegenerateNormalization.  The rescaled variant
    ("of dF") starts from R_1 * eta_0 = dF and carries the scalings
    eta~_1 = 2(R_2 dF + dR_1)/R_1 and eta~_i = R_1^{i-1} eta_i.

    The only denominator is a power of r_1, so everything runs in
    polynomials.  Substituting eps = r_1 s turns the eps-derivative
    [r_1, 2c_2, 3c_3, ...] into r_1 times the unit series
    [1, 2c_2, 3c_3 r_1, ...], whose inverse P is polynomial; then
    eta_i = i! N_i / r_1^{i+1} with N_i = sum_j dc_j r_1^j P_{i-j}, and
    eta~_i = i! N_i / r_1^2 for i >= 2.  Each component is brought to lowest
    terms against r_1 itself, never against the power r_1^e it sits over
    (see _reduced); folint reduces no other fraction.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if normalization not in (NORMALIZATION_PRIMARY, NORMALIZATION_RESCALED):
        raise ValueError(f"unknown normalization {normalization!r}")
    if fint.series.order < m + 1:
        raise ValueError(
            f"order-{fint.series.order} first integral supports m <= "
            f"{fint.series.order - 1}"
        )
    c = fint.series.coeffs
    r1 = c[1]
    if r1.is_zero():
        raise DegenerateNormalization("r_1 = 0; dF_eps/deps has no unit lead")
    r1_pow = [BivarPoly.one()]
    for _ in range(m + 1):
        r1_pow.append(r1_pow[-1] * r1)
    unit = EpsSeries(
        [BivarPoly.one()]
        + [c[j + 1] * r1_pow[j - 1] * (j + 1) for j in range(1, m + 1)],
        m,
    )
    P = unit.invert().coeffs
    dc = [d_planar_scalar(c[j]).scale(r1_pow[j]) for j in range(m + 1)]

    def numerator(i: int) -> Form1Planar:
        acc = dc[0].scale(P[i])
        for j in range(1, i + 1):
            acc = acc + dc[j].scale(P[i - j])
        return acc.scale(factorial(i))

    def over(num: Form1Planar, e: int) -> Form1Planar:
        den = r1_pow[e]
        return Form1Planar(_reduced(num.p, r1, e, den), _reduced(num.q, r1, e, den))

    if normalization == NORMALIZATION_PRIMARY:
        eta = [over(numerator(i), i + 1) for i in range(m + 1)]
        return GVClassicalSequence(eta=tuple(eta), normalization=normalization)

    dF = d_planar_scalar(fint.hamiltonian)
    rescaled = [over(dF, 0)]
    if m >= 1:
        inner = dF.scale(c[2] * 2) + d_planar_scalar(r1)  # R_2 dF + dR_1
        rescaled.append(over(inner.scale(2), 1))
    for i in range(2, m + 1):
        rescaled.append(over(numerator(i), 2))
    return GVClassicalSequence(eta=tuple(rescaled), normalization=normalization)


def _reduced(
    num: BivarPoly, r1: BivarPoly, e: int, r1_e: BivarPoly
) -> RationalFunction:
    """num / r1^e in lowest terms, for r1 != 0, e >= 0 and r1_e = r1^e.

    Write r1 = x^a y^b r' and num = x^c y^d n' with neither x nor y dividing
    r' or n'.  The monomial part of gcd(num, r1^e) is x^min(c, e a)
    y^min(d, e b), read off the exponents.  The rest is gcd(n', r'^e), found
    without forming r'^e: a round h = gcd(N, r'), N <- N / h, starting from
    N = n', removes min(v_f(N), v_f(r')) of every irreducible factor f of r',
    so e rounds remove min(v_f(n'), e v_f(r')), which is v_f(gcd(n', r'^e)).
    A round with h = 1 removes nothing, and so would every later one, so the
    rounds stop there.
    """
    if num.is_zero():
        return RationalFunction(num)
    a, b = (min(t) for t in zip(*r1.nums))
    c, d = (min(t) for t in zip(*num.nums))
    rest = divexact(r1, BivarPoly.monomial(a, b))
    n = divexact(num, BivarPoly.monomial(c, d))
    common = BivarPoly.monomial(min(c, e * a), min(d, e * b))
    for _ in range(e):
        h = poly_gcd(n, rest)
        if h.is_constant():
            break
        n = divexact(n, h)
        common = common * h
    return RationalFunction(divexact(num, common), divexact(r1_e, common))


# ---------------------------------------------------------------------------
# length-2 witness
# ---------------------------------------------------------------------------


def length_two_witness(seq: FrancoiseSequence, k: int) -> EpsSeries:
    """The checked unit series G = sum (-1)^i eps^i g_i, order-k truncation.

    Verifies that G (dF + eps w) is closed through eps^k, one coefficient
    d(G_i dF + G_{i-1} w) = 0 at a time for i = 1..k (G_0 dF = dF is
    closed), and raises InternalSolverError when one fails.  witness_theta
    turns G into theta.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    G = [BivarPoly.one()]
    for i, pair in enumerate(_pairs_through(seq, k), start=1):
        G.append(_twist(i, pair.g, pair.r)[0])
        if not (CIRCLE_DF.scale(G[i]) + seq.omega.scale(G[i - 1])).d().is_zero():
            raise InternalSolverError(
                "closedness of G*(dF + eps w) failed; sequence data inconsistent"
            )
    return EpsSeries(G, k)


def witness_theta(seq: FrancoiseSequence, k: int) -> Form1Eps:
    """theta = -dG/G for the G of length_two_witness, order-k truncation.

    d is the planar differential at fixed eps, so theta is a jet Form1Eps
    with no deps part.  Its planar d(theta) = 0 needs no computation, a
    logarithmic derivative is closed wherever defined.  G has constant term
    1, so 1/G is a polynomial series and the coefficients of theta are
    polynomials.
    """
    G = length_two_witness(seq, k)
    g_inv = G.invert()
    return Form1Eps(
        -G.map(lambda u: u.partial("x")) * g_inv,
        -G.map(lambda u: u.partial("y")) * g_inv,
        EpsSeries([BivarPoly.zero()], k),
        exact=False,
    )


# ---------------------------------------------------------------------------
# reading the pairs back from a first integral
# ---------------------------------------------------------------------------


def pairs_from_first_integral(
    fint: FirstIntegral, w: Form1Planar
) -> list[FrancoisePair]:
    """Recover pairs 1..order from d(F_eps) = R~ deps + G~ (dF + eps w).

    The planar identity is solved order by order for G~ (exact division by
    dF), and the twist turns (G~_i, c_i) back into (g_i, r_i): R~_{i-1} =
    i c_i is the eps-derivative, so r_i = (-1)^{i+1} c_i needs none.  Every
    recovered pair is verified against its defining identity; any failure
    raises ValueError, meaning fint does not truncate a first integral for w.
    """
    c = fint.series.coeffs
    g_twiddle: list[BivarPoly] = []
    for i in range(len(c)):
        num_p = c[i].partial("x")
        num_q = c[i].partial("y")
        if i >= 1:
            num_p = num_p - g_twiddle[i - 1] * w.p
            num_q = num_q - g_twiddle[i - 1] * w.q
        gt = _over_dF(num_p, num_q)
        if gt is None:
            raise ValueError(f"planar coefficient at eps^{i} is not a multiple of dF")
        g_twiddle.append(gt)

    pairs = []
    prev_g = BivarPoly.one()
    for i in range(1, len(c)):
        g_i, r_i = _twist(i, g_twiddle[i], c[i])
        pair = FrancoisePair(g=g_i, r=r_i)
        if not pair.verify(prev_g, w):
            raise ValueError(f"recovered pair {i} fails its defining identity")
        pairs.append(pair)
        prev_g = g_i
    return pairs
