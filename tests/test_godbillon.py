"""Godbillon-Vey data: sign table, assembled form, factor, classical forms."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from folint.abelian import CIRCLE
from folint.algebra import BivarPoly, EpsSeries, RationalFunction, X, Y
from folint.cli import parse_component
from folint.exterior import Form1Eps, Form1Planar, d_planar_scalar, d_total
from folint.francoise import (
    FrancoisePair,
    FrancoiseSequence,
    InternalSolverError,
    melnikov_sequence,
)
from folint.godbillon import (
    DegenerateNormalization,
    FirstIntegral,
    GVPair,
    NORMALIZATION_PRIMARY,
    NORMALIZATION_RESCALED,
    NoFactorExists,
    assemble_omega,
    check_first_integral,
    classical_gv_forms,
    deformation_form,
    first_integral,
    gv_pairs_from_francoise,
    integrability_defect,
    integrating_factor,
    length_two_witness,
    pairs_from_first_integral,
    _reduced,
    witness_theta,
)
from helpers import (
    DE,
    DX,
    DY,
    FormEps,
    random_poly,
    reference_d_total,
    reference_d_total_by_wedges,
    reference_form,
    reference_reduced,
    reference_truncate_weight,
    reference_wedge,
    reference_witness_residual,
    zero_period_form,
)

F = X * X + Y * Y
ZERO = BivarPoly.zero()
ONE = BivarPoly.one()
W_SQUARE = Form1Planar(Y * Y, ZERO)
W_XDF = Form1Planar(2 * X * X, 2 * X * Y)


@pytest.fixture(scope="module")
def square_seq():
    return melnikov_sequence(CIRCLE, W_SQUARE, 5).sequence


@pytest.fixture(scope="module")
def xdf_seq():
    return melnikov_sequence(CIRCLE, W_XDF, 4).sequence


# ---------------------------------------------------------------------------
# sign table and first integral
# ---------------------------------------------------------------------------


def test_gv_pair_signs(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    assert gvp[0].G == X
    assert gvp[0].R == Fraction(2, 3) * X**3 + X * Y * Y
    assert gvp[1].G == Fraction(1, 2) * X * X
    assert gvp[1].R == Fraction(1, 2) * X**4 + X * X * Y * Y
    assert gvp[2].G == Fraction(1, 6) * X**3
    assert gvp[2].R == Fraction(1, 5) * X**5 + Fraction(1, 2) * X**3 * Y * Y
    # alternating signs against the raw pairs
    for i, p in enumerate(gvp, start=1):
        s = 1 if i % 2 == 0 else -1
        assert p.G == square_seq.g(i) * s
        assert p.R == square_seq.r(i) * (-s * i)


def test_first_integral_coefficients(square_seq):
    fint = first_integral(F, square_seq, 3)
    c = fint.series.coeffs
    assert fint.hamiltonian == F
    assert c[1] == square_seq.r(1)
    assert c[2] == -square_seq.r(2)
    assert c[3] == square_seq.r(3)
    assert first_integral(F, square_seq, 0).series == EpsSeries([F], 0)


def test_first_integral_validation(square_seq):
    with pytest.raises(ValueError):
        first_integral(F, square_seq, -1)
    with pytest.raises(ValueError, match="different Hamiltonian"):
        first_integral(X * X, square_seq, 1)
    # a stopped sequence has no pairs to extend with
    stopped = melnikov_sequence(CIRCLE, Form1Planar(Y, ZERO), 3).sequence
    with pytest.raises(ValueError, match="needs more"):
        first_integral(F, stopped, 1)


def test_first_integral_pads_terminated_sequences():
    seq = melnikov_sequence(CIRCLE, Form1Planar.zero(), 2).sequence
    fint = first_integral(F, seq, 5)
    assert fint.series == EpsSeries([F] + [ZERO] * 5, 5)


def test_check_first_integral_reads_orders_0_to_k_plus_1(square_seq):
    # square_seq holds five pairs, so k = 4 is the highest order it certifies
    gvp = gv_pairs_from_francoise(square_seq)
    fint = first_integral(F, square_seq, 5)
    check_first_integral(square_seq, gvp, fint, 4)
    for pairs, integral, k in (
        (gvp[:4], fint, 4), (gvp, first_integral(F, square_seq, 4), 4), (gvp, fint, -1)
    ):
        with pytest.raises(ValueError, match="needs pairs and first integral"):
            check_first_integral(square_seq, pairs, integral, k)
    # eps^0 is checked too: c_0 is F itself
    shifted = FirstIntegral(EpsSeries([F + X] + list(fint.series.coeffs[1:]), 5))
    with pytest.raises(InternalSolverError, match="c_0 is not F"):
        check_first_integral(square_seq, gvp, shifted, 4)
    # the deps slot at eps^k holds R_{k+1} = (k+1) c_{k+1}
    pairs = gvp[:4] + [GVPair(G=gvp[4].G, R=gvp[4].R + ONE)]
    with pytest.raises(InternalSolverError, match="R_5 is not pair 5 twisted"):
        check_first_integral(square_seq, pairs, fint, 4)


def test_first_integral_differential(square_seq):
    fint = first_integral(F, square_seq, 2)
    df = fint.differential()
    c = fint.series.coeffs
    assert isinstance(df, Form1Eps) and df.exact
    assert df.a == EpsSeries([ci.partial("x") for ci in c], 2)
    # deps slot i carries (i+1) c_{i+1}; the top slot truncates to zero
    assert df.e == EpsSeries([c[1], c[2] * 2, ZERO], 2)


# ---------------------------------------------------------------------------
# assembled one-form and its defect
# ---------------------------------------------------------------------------


def test_deformation_form_components():
    u = deformation_form(W_SQUARE, 2)
    assert u.a == EpsSeries([2 * X, Y * Y, ZERO], 2)
    assert u.b == EpsSeries([2 * Y, ZERO, ZERO], 2)
    assert u.e == EpsSeries([ZERO], 2)
    assert u.exact
    with pytest.raises(ValueError):
        deformation_form(W_SQUARE, 0)


def test_assemble_omega_literal_components(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    om = assemble_omega(W_SQUARE, gvp[:2], 1)
    assert om.order == 2
    assert om.exact
    assert om.a == EpsSeries([2 * X, 2 * X * X + Y * Y, X * Y * Y], 2)
    assert om.b == EpsSeries([2 * Y, 2 * X * Y, ZERO], 2)
    assert om.e == EpsSeries([gvp[0].R, gvp[1].R, ZERO], 2)


def test_assemble_omega_validation(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    with pytest.raises(ValueError):
        assemble_omega(W_SQUARE, gvp, -1)
    with pytest.raises(ValueError, match="needs pairs"):
        assemble_omega(W_SQUARE, gvp[:1], 2)


def test_defect_vanishes_with_top_pair(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    for k in range(4):
        om = assemble_omega(W_SQUARE, gvp[: k + 1], k)
        assert integrability_defect(om, k).is_zero()


def test_defect_without_top_pair_shows_obstruction(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    om = assemble_omega(W_SQUARE, gvp[:1], 1)
    d = integrability_defect(om, 1)
    assert not d.is_zero()
    assert d.to_text() == "(eps*(4xy^3)) dx*dy*deps"


def test_defect_flags_true_obstruction_at_order_one():
    # y dx has M_1 != 0; with no pairs at all the weight-1 defect is the
    # obstruction itself
    om = assemble_omega(Form1Planar(Y, ZERO), [], 0)
    d = integrability_defect(om, 0)
    assert d.to_text() == "(2y^2) dx*dy*deps"


def test_defect_validation(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    om = assemble_omega(W_SQUARE, gvp[:1], 0)
    with pytest.raises(ValueError):
        integrability_defect(om, -1)
    with pytest.raises(ValueError):
        integrability_defect(om, 2)


def test_defect_random_zero_period_forms():
    rng = random.Random(301)
    for _ in range(5):
        w = zero_period_form(rng, 3)
        res = melnikov_sequence(CIRCLE, w, 4)
        if res.first_nonzero is not None:
            continue
        gvp = gv_pairs_from_francoise(res.sequence)
        for k in range(3):
            om = assemble_omega(w, gvp[: k + 1], k)
            assert integrability_defect(om, k).is_zero()


def _seeded_omegas() -> list[tuple[str, Form1Eps, int]]:
    """(label, Omega, k) drawn from one seed, fixed before any result was seen.

    Three reversible zero-period forms (dx part even in y, dy part odd),
    whose sequences run every order, each assembled at k = 3 with and
    without the top pair; the first with a random polynomial added to its
    deps slot; and one exact and one jet one-form of order 3 with random
    coefficients, asked at k = 2.
    """
    rng = random.Random(306)
    out = []
    k = 3
    for n in range(3):
        w = zero_period_form(rng, 3)
        w = Form1Planar(
            BivarPoly({e: c for e, c in w.p.terms.items() if e[1] % 2 == 0}),
            BivarPoly({e: c for e, c in w.q.terms.items() if e[1] % 2 == 1}),
        )
        gvp = gv_pairs_from_francoise(melnikov_sequence(CIRCLE, w, k + 1).sequence)
        out.append((f"form {n}", assemble_omega(w, gvp[: k + 1], k), k))
        out.append((f"form {n} without its top pair", assemble_omega(w, gvp[:k], k), k))
    om = out[0][1]
    junk = EpsSeries([random_poly(rng, 2) for _ in range(om.order + 1)], om.order)
    out.append(("form 0, corrupted deps slot", Form1Eps(om.a, om.b, om.e + junk), k))
    for exact in (True, False):
        comps = (EpsSeries([random_poly(rng, 2) for _ in range(4)], 3) for _ in range(3))
        out.append((f"random, exact={exact}", Form1Eps(*comps, exact), 2))
    return out


def test_integrability_defect_matches_reference():
    verdicts = set()
    for label, om, k in _seeded_omegas():
        ref = reference_form(om)
        want = reference_truncate_weight(reference_wedge(ref, reference_d_total(ref)), k + 1)
        got = integrability_defect(om, k)
        assert reference_form(got) == want, label
        assert got.exact == om.exact, label
        verdicts.add(got.is_zero())
    assert verdicts == {True, False}


def test_integrability_defect_matches_sympy():
    # a (e_y - b_eps) - b (e_x - a_eps) + e (b_x - a_y), expanded by sympy
    # from the polynomials the three series spell, coefficient by coefficient
    # through eps^k (weight k + 1) and zero above
    sp = pytest.importorskip("sympy")
    x, y, eps = sp.symbols("x y eps")

    def poly(p):
        return sum(
            (sp.Rational(c.numerator, c.denominator) * x**i * y**j
             for (i, j), c in p.terms.items()),
            sp.Integer(0),
        )

    def series(s):
        return sum((poly(c) * eps**i for i, c in enumerate(s.coeffs)), sp.Integer(0))

    nonzero = 0
    for label, om, k in _seeded_omegas():
        a, b, e = series(om.a), series(om.b), series(om.e)
        expr = sp.expand(
            a * (sp.diff(e, y) - sp.diff(b, eps))
            - b * (sp.diff(e, x) - sp.diff(a, eps))
            + e * (sp.diff(b, x) - sp.diff(a, y))
        )
        got = integrability_defect(om, k).h
        for i, c in enumerate(got.coeffs):
            want = expr.coeff(eps, i) if i <= k else 0
            assert sp.expand(poly(c) - want) == 0, (label, i)
        nonzero += not got.is_zero()
    assert nonzero >= 3


# ---------------------------------------------------------------------------
# integrating factor
# ---------------------------------------------------------------------------


def test_integrating_factor_is_unit_series(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    for k in (1, 2, 3):
        om = assemble_omega(W_SQUARE, gvp[: k + 1], k)
        n = integrating_factor(om, first_integral(F, square_seq, k), k)
        assert n.coeffs[0] == ONE
        assert n.order == k


def test_integrating_factor_trivial_for_df_multiples(xdf_seq):
    gvp = gv_pairs_from_francoise(xdf_seq)
    k = 2
    om = assemble_omega(W_XDF, gvp[: k + 1], k)
    fint = first_integral(F, xdf_seq, k)
    assert fint.series == EpsSeries([F, ZERO, ZERO], 2)
    n = integrating_factor(om, fint, k)
    assert n == EpsSeries([ONE, ZERO, ZERO], 2)


def test_integrating_factor_certifies_identity(square_seq):
    # multiply back: omega must equal N * d(F_eps) through every eps slot of
    # weight <= k
    k = 2
    gvp = gv_pairs_from_francoise(square_seq)
    om = assemble_omega(W_SQUARE, gvp[: k + 1], k)
    fint = first_integral(F, square_seq, k)
    n = integrating_factor(om, fint, k)
    dfe = reference_form(fint.differential(om.order))
    rebuilt = dfe.scale_series(n.extend(om.order))
    diff = reference_form(om) - rebuilt
    for i, basis, _ in diff.terms():
        weight = i + (1 if basis & DE else 0)
        assert weight > k


def test_integrating_factor_rejects_non_multiples():
    fint = FirstIntegral(EpsSeries([F, ZERO], 1))
    om = deformation_form(Form1Planar(Y, ZERO), 1)
    with pytest.raises(NoFactorExists, match="eps\\^1"):
        integrating_factor(om, fint, 1)


def test_integrating_factor_checks_deps_slot(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    om = assemble_omega(W_SQUARE, gvp[:2], 1)
    junk = EpsSeries([X * X, ZERO, ZERO], 2)
    with pytest.raises(NoFactorExists, match="deps part"):
        integrating_factor(Form1Eps(om.a, om.b, om.e + junk), first_integral(F, square_seq, 1), 1)


def test_integrating_factor_validation(square_seq):
    gvp = gv_pairs_from_francoise(square_seq)
    om = assemble_omega(W_SQUARE, gvp[:2], 1)
    fint = first_integral(F, square_seq, 1)
    with pytest.raises(ValueError):
        integrating_factor(om, fint, -1)
    with pytest.raises(ValueError):
        integrating_factor(om, fint, 3)


# ---------------------------------------------------------------------------
# classical GV forms
# ---------------------------------------------------------------------------


def test_eta0_is_df_over_r1(square_seq):
    fint = first_integral(F, square_seq, 3)
    cs = classical_gv_forms(fint, 2)
    r1 = square_seq.r(1)
    assert cs.normalization == NORMALIZATION_PRIMARY
    assert len(cs) == 3
    assert cs.eta[0].p == RationalFunction(2 * X, r1)
    assert cs.eta[0].q == RationalFunction(2 * Y, r1)


def test_eta_texts_are_reduced(square_seq):
    # r_1 = x(2/3x^2 + y^2): eta_0 = dF/r_1 cancels the factor x of r_1
    eta = classical_gv_forms(first_integral(F, square_seq, 3), 2).eta
    assert [(e.p.to_text(), e.q.to_text()) for e in eta] == [
        ("(3) / (x^2 + 3/2y^2)", "(3y) / (x^3 + 3/2xy^2)"),
        (
            "(3/4x^4 + 3/2x^2y^2 + 9/4y^4) / (x^5 + 3x^3y^2 + 9/4xy^4)",
            "(3/4x^2y) / (x^4 + 3x^2y^2 + 9/4y^4)",
        ),
        (
            "(3/40x^6 + 3/10x^4y^2 + 9/8x^2y^4) / "
            "(x^6 + 9/2x^4y^2 + 27/4x^2y^4 + 27/8y^6)",
            "(3/40x^5y - 9/20x^3y^3) / (x^6 + 9/2x^4y^2 + 27/4x^2y^4 + 27/8y^6)",
        ),
    ]


CLASSICAL_GOLDEN = Path(__file__).parent / "golden" / "classical-y2-m6.json"


def classical_y2_m6_text() -> str:
    """classical_gv_forms on y^2 dx at m = 6 in both normalizations, from the
    first integral the benchmark's classical-y2-m6 item builds, as JSON."""
    res = melnikov_sequence(CIRCLE, W_SQUARE, 7)
    fint = first_integral(CIRCLE.hamiltonian, res.sequence, 7)
    doc = {
        "omega": {"dx": "y^2", "dy": "0"},
        "m": 6,
        "r1": fint.series.coeffs[1].to_text(),
        "eta": {
            norm: [[e.p.to_text(), e.q.to_text()] for e in classical_gv_forms(fint, 6, norm).eta]
            for norm in (NORMALIZATION_PRIMARY, NORMALIZATION_RESCALED)
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


BASELINE_ETA_M1 = {
    NORMALIZATION_PRIMARY: [
        (
            "(24) / (x^5 + 3x^3y^2 + 8x^2 + 12y^2)",
            "(24y) / (x^6 + 3x^4y^2 + 8x^3 + 12xy^2)",
        ),
        (
            "(12/5x^10 + 12x^8y^2 + 36x^6y^4 + 216/7x^7 + 108x^5y^2 + 180x^3y^4"
            " + 48x^4 + 96x^2y^2 + 144y^4) / (x^11 + 6x^9y^2 + 9x^7y^4 + 16x^8"
            " + 72x^6y^2 + 72x^4y^4 + 64x^5 + 192x^3y^2 + 144xy^4)",
            "(12/5x^8y + 216/7x^5y + 48x^2y) / (x^10 + 6x^8y^2 + 9x^6y^4 + 16x^7"
            " + 72x^5y^2 + 72x^3y^4 + 64x^4 + 192x^2y^2 + 144y^4)",
        ),
    ],
    NORMALIZATION_RESCALED: [
        ("2x", "2y"),
        (
            "(3/5x^11 + 3x^9y^2 + 48/7x^8 + 24x^6y^2 + 36x^5 + 72x^3y^2 + 48x^2"
            " + 24y^2) / (x^6 + 3x^4y^2 + 8x^3 + 12xy^2)",
            "(3/5x^9y + 3x^7y^3 + 48/7x^6y + 24x^4y^3 + 36x^3y + 48xy^3 + 48y)"
            " / (x^5 + 3x^3y^2 + 8x^2 + 12y^2)",
        ),
    ],
}


@pytest.mark.parametrize("normalization", sorted(BASELINE_ETA_M1))
def test_baseline_eta_texts_are_pinned(normalization):
    # (x^3y^2 + y^2) dx at m = 1: r_1 = x (x^5 + 3x^3y^2 + 8x^2 + 12y^2) / 12,
    # and each component is reduced against r_1 = x r': the monomial part of
    # the gcd (1, x or x^2) read off the exponents, and one gcd with r' (a
    # unit here) per component
    w = Form1Planar(X**3 * Y**2 + Y**2, ZERO)
    res = melnikov_sequence(CIRCLE, w, 2)
    fint = first_integral(CIRCLE.hamiltonian, res.sequence, 2)
    eta = classical_gv_forms(fint, 1, normalization).eta
    assert [(e.p.to_text(), e.q.to_text()) for e in eta] == BASELINE_ETA_M1[normalization]


def test_classical_forms_match_golden():
    # the benchmark's classical-y2-m6 item, in both normalizations
    assert classical_y2_m6_text() == CLASSICAL_GOLDEN.read_text(encoding="utf-8")


def test_reduced_matches_the_gcd_with_the_full_power():
    # r1 = x^a y^b r' with r' a product of (x + y), y + 1 and x^2 - y + 1/2,
    # one of them repeated; the numerator holds each factor, x and y below,
    # at and above e times its multiplicity in r1, times a random cofactor
    rng = random.Random(2207)
    factors = [X + Y, Y + 1, X * X - Y + Fraction(1, 2)]
    sides = set()
    for e in range(5):
        for main in range(len(factors)):
            for v_main in (1, 2):
                for delta in (-1, 0, 1):
                    v = [rng.randrange(2) for _ in factors]
                    v[main] = v_main
                    a, b = rng.randrange(3), rng.randrange(3)
                    r1 = X**a * Y**b * rng.choice([1, -2, Fraction(3, 5)])
                    num = random_poly(rng, 2) or ONE
                    for f, k in zip(factors, v):
                        r1 = r1 * f**k
                        u = e * k + (delta if f is factors[main] else rng.choice([-1, 0, 1]))
                        num = num * f ** max(u, 0)
                        sides.add((k > 0 and e > 0, (u > e * k) - (u < e * k)))
                    c = max(e * a + rng.choice([-1, 0, 1]), 0)
                    d = max(e * b + rng.choice([-1, 0, 1]), 0)
                    num = num * X**c * Y**d
                    for n in (num, ZERO):
                        got, want = _reduced(n, r1, e, r1**e), reference_reduced(n, r1, e)
                        assert (got.num, got.den) == (want.num, want.den), (e, n, r1)
    # multiplicities below, at and above e v_f of a factor that r1 holds
    assert {(True, -1), (True, 0), (True, 1)} <= sides


def _to_sympy(sp, u):
    """u as a sympy expression in x and y."""
    x, y = sp.symbols("x y")
    if isinstance(u, RationalFunction):
        return _to_sympy(sp, u.num) / _to_sympy(sp, u.den)
    return sum(
        (sp.Rational(c.numerator, c.denominator) * x**a * y**b
         for (a, b), c in u.terms.items()),
        sp.Integer(0),
    )


def test_eta_components_are_in_lowest_terms_by_sympy():
    # sympy's gcd of each printed numerator and denominator is a constant, on
    # the golden's texts and on seeded reversible forms (dx part even in y,
    # dy part odd), whose sequences run the full order
    sp = pytest.importorskip("sympy")
    doc = json.loads(CLASSICAL_GOLDEN.read_text(encoding="utf-8"))
    texts = [t for forms in doc["eta"].values() for form in forms for t in form]
    rng = random.Random(4408)
    forms = 0
    while forms < 6:
        w = zero_period_form(rng, 3)
        w = Form1Planar(
            BivarPoly({e: c for e, c in w.p.terms.items() if e[1] % 2 == 0}),
            BivarPoly({e: c for e, c in w.q.terms.items() if e[1] % 2 == 1}),
        )
        fint = first_integral(F, melnikov_sequence(CIRCLE, w, 4).sequence, 4)
        if fint.series.coeffs[1].is_zero():
            continue
        forms += 1
        for norm in (NORMALIZATION_PRIMARY, NORMALIZATION_RESCALED):
            texts += [t for e in classical_gv_forms(fint, 3, norm).eta
                      for t in (e.p.to_text(), e.q.to_text())]
    reduced = 0
    for text in texts:
        u = parse_component(text)
        if isinstance(u, RationalFunction):
            assert sp.gcd(_to_sympy(sp, u.num), _to_sympy(sp, u.den)).is_number, text
            reduced += 1
    assert reduced > len(texts) // 2


def test_eta_matches_sympy_taylor_expansion(square_seq):
    # eta_i = i! [eps^i] dF_eps / (dF_eps/deps), i.e. the i-th eps-derivative
    # of the quotient at eps = 0, computed by an independent algebra system
    sp = pytest.importorskip("sympy")
    x, y, eps = sp.symbols("x y eps")
    m = 4
    fint = first_integral(F, square_seq, m + 1)
    f_eps = sum(_to_sympy(sp, c) * eps**j for j, c in enumerate(fint.series.coeffs))
    f_deps = sp.diff(f_eps, eps)
    eta = classical_gv_forms(fint, m).eta
    for var, part in ((x, "p"), (y, "q")):
        quotient = sp.diff(f_eps, var) / f_deps
        for i in range(m + 1):
            got = _to_sympy(sp, getattr(eta[i], part))
            assert sp.cancel(quotient.subs(eps, 0) - got) == 0
            quotient = sp.diff(quotient, eps)


def test_classical_gv_relations(square_seq):
    fint = first_integral(F, square_seq, 4)
    eta = classical_gv_forms(fint, 3).eta
    assert (eta[0].d() - eta[0].wedge(eta[1])).is_zero()
    assert (eta[1].d() - eta[0].wedge(eta[2])).is_zero()
    assert (eta[2].d() - eta[0].wedge(eta[3]) - eta[1].wedge(eta[2])).is_zero()


def test_rescaled_forms(square_seq):
    fint = first_integral(F, square_seq, 4)
    primary = classical_gv_forms(fint, 3).eta
    rs = classical_gv_forms(fint, 3, NORMALIZATION_RESCALED)
    assert rs.normalization == NORMALIZATION_RESCALED
    assert (rs.eta[0] - d_planar_scalar(F)).is_zero()
    r1 = square_seq.r(1)
    R2 = square_seq.r(2) * (-2)
    inner = d_planar_scalar(F).scale(R2) + d_planar_scalar(r1)
    expect = Form1Planar(
        RationalFunction(2 * inner.p, r1), RationalFunction(2 * inner.q, r1)
    )
    assert (rs.eta[1] - expect).is_zero()
    for i in (2, 3):
        scaled = primary[i].scale(RationalFunction(r1 ** (i - 1)))
        assert (rs.eta[i] - scaled).is_zero()


def test_degenerate_normalization(xdf_seq):
    # every r_i vanishes for a multiple of dF, so there is no lead to divide by
    fint = first_integral(F, xdf_seq, 2)
    with pytest.raises(DegenerateNormalization):
        classical_gv_forms(fint, 1)


def test_classical_gv_validation(square_seq):
    fint = first_integral(F, square_seq, 2)
    with pytest.raises(ValueError):
        classical_gv_forms(fint, -1)
    with pytest.raises(ValueError, match="normalization"):
        classical_gv_forms(fint, 1, "of something else")
    with pytest.raises(ValueError, match="supports m"):
        classical_gv_forms(fint, 2)


# ---------------------------------------------------------------------------
# length-two witness
# ---------------------------------------------------------------------------


def test_witness_log_derivative_coefficients(xdf_seq):
    # G = 1/(1 + eps x) up to truncation, so -dG/G = d log(1 + eps x)
    theta = witness_theta(xdf_seq, 3)
    assert theta.order == 3
    assert not theta.exact
    coeffs = theta.a.coeffs
    assert all(isinstance(c, BivarPoly) for c in coeffs)
    assert list(coeffs) == [ZERO, ONE, -X, X * X]
    assert theta.b.is_zero()
    assert theta.e.is_zero()
    # closed: the planar curl vanishes slot by slot
    assert d_total(theta).xy.is_zero()


def test_witness_theta_times_G_is_minus_dG():
    # theta G = -dG coefficient by coefficient, on forms whose G depends on
    # y too, and theta is closed in the plane
    rng = random.Random(307)
    seen_dy = False
    for _ in range(3):
        w = zero_period_form(rng, 3)
        w = Form1Planar(
            BivarPoly({e: c for e, c in w.p.terms.items() if e[1] % 2 == 0}),
            BivarPoly({e: c for e, c in w.q.terms.items() if e[1] % 2 == 1}),
        )
        seq = melnikov_sequence(CIRCLE, w, 4).sequence
        G = length_two_witness(seq, 3)
        theta = witness_theta(seq, 3)
        assert theta.a * G == -G.map(lambda u: u.partial("x"))
        assert theta.b * G == -G.map(lambda u: u.partial("y"))
        assert theta.e.is_zero()
        assert d_total(theta).xy.is_zero()
        seen_dy |= not theta.b.is_zero()
    assert seen_dy


def test_witness_returns_checked_G(xdf_seq):
    G = length_two_witness(xdf_seq, 3)
    assert isinstance(G, EpsSeries)
    assert list(G.coeffs) == [ONE, -X, X * X, -(X**3)]


def test_witness_trivial_at_k0(square_seq):
    theta = witness_theta(square_seq, 0)
    assert theta.a.is_zero() and theta.b.is_zero() and theta.e.is_zero()


def test_witness_rejects_inconsistent_sequences():
    fake = FrancoiseSequence(
        omega=W_SQUARE,
        pairs=(FrancoisePair(g=Y, r=ZERO),),
    )
    with pytest.raises(InternalSolverError):
        length_two_witness(fake, 1)


def test_witness_validation(square_seq):
    with pytest.raises(ValueError):
        length_two_witness(square_seq, -1)


def test_witness_and_d_total_match_reference_formulas():
    rng = random.Random(304)
    # the slot-by-slot witness check accepts exactly where G d(eta) + dG ^ eta
    # vanishes, on true sequences and on ones with one g corrupted; half the
    # forms are reversible (dx part even in y, dy part odd), so that their
    # sequences run the full four orders
    verdicts = set()
    for n in range(24):
        w = zero_period_form(rng, 3)
        if n % 4 >= 2:
            w = Form1Planar(
                BivarPoly({e: c for e, c in w.p.terms.items() if e[1] % 2 == 0}),
                BivarPoly({e: c for e, c in w.q.terms.items() if e[1] % 2 == 1}),
            )
        pairs = list(melnikov_sequence(CIRCLE, w, 4).sequence.pairs)
        if n % 2 and pairs:
            j = rng.randrange(len(pairs))
            pairs[j] = FrancoisePair(g=pairs[j].g + random_poly(rng, 2), r=pairs[j].r)
        seq = FrancoiseSequence(omega=w, pairs=tuple(pairs))
        for k in range(len(pairs) + 1):
            residual = reference_witness_residual([p.g for p in pairs[:k]], w, k)
            try:
                length_two_witness(seq, k)
                accepted = True
            except InternalSolverError:
                accepted = False
            assert accepted == residual.is_zero(), (n, k)
            verdicts.add(accepted)
    assert verdicts == {True, False}
    # d through wedges equals the basis loop on 0-, 1- and 2-forms, and
    # d_total equals it on the 0- and 1-forms it takes (a 0-form is an
    # EpsSeries, whose differential is exact)
    degrees = {0: (0,), 1: (DX, DY, DE), 2: (DX | DY, DX | DE, DY | DE)}
    for degree, bases in degrees.items():
        for order in range(4):
            for exact in (True, False):
                comps = {
                    b: EpsSeries([random_poly(rng, 3) for _ in range(order + 1)], order)
                    for b in bases
                    if rng.random() < 0.8
                }
                u = FormEps(order, comps, exact)
                du = reference_d_total_by_wedges(u)
                assert du == reference_d_total(u)
                assert du.exact == exact
                if degree == 0:
                    assert reference_form(d_total(u.component(0))) == du
                elif degree == 1:
                    got = d_total(Form1Eps(*(u.component(b) for b in bases), exact))
                    assert reference_form(got) == du
                    assert got.exact == exact


# ---------------------------------------------------------------------------
# pairs from a first integral
# ---------------------------------------------------------------------------


def test_pairs_round_trip(square_seq):
    fint = first_integral(F, square_seq, 3)
    rec = pairs_from_first_integral(fint, W_SQUARE)
    assert rec == list(square_seq.pairs[:3])


def test_pairs_round_trip_random():
    rng = random.Random(302)
    for _ in range(5):
        w = zero_period_form(rng, 3)
        res = melnikov_sequence(CIRCLE, w, 3)
        if res.first_nonzero is not None:
            continue
        fint = first_integral(F, res.sequence, 3)
        assert pairs_from_first_integral(fint, w) == list(res.sequence.pairs[:3])


def test_pairs_from_bad_series_rejected():
    bad = FirstIntegral(EpsSeries([F, X], 1))
    with pytest.raises(ValueError, match="eps\\^1"):
        pairs_from_first_integral(bad, W_SQUARE)
