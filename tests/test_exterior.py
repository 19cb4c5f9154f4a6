"""Exterior algebra in (x, y, eps): wedge signs, differentials, weight grading.

folint.exterior stores forms on (x, y, eps) by degree; the general
eight-slot algebra in tests/helpers.py is the reference it is compared with,
and the tests of that algebra's sign rule, forms and grading run on it.
"""

from __future__ import annotations

import random

import pytest

from folint.algebra import (
    BivarPoly,
    EpsSeries,
    SeriesOrderMismatch,
    X,
    Y,
)
from folint.abelian import CIRCLE
from folint.exterior import (
    Form1Eps,
    Form1Planar,
    Form2Eps,
    Form3Eps,
    d_planar_scalar,
    d_total,
    series_to_text,
    truncate_weight,
    wedge,
)
from folint.francoise import melnikov_sequence
from folint.godbillon import deformation_form, witness_theta
from helpers import (
    BASIS_NAMES,
    DE,
    DX,
    DY,
    FormEps,
    basis_wedge,
    random_poly,
    reference_d_total,
    reference_form,
    reference_truncate_weight,
    reference_wedge,
    term_weight,
)

ONE = BivarPoly.one()
ZERO = BivarPoly.zero()


# ---------------------------------------------------------------------------
# basis_wedge sign table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "b1, b2, expected",
    [
        (DX, DY, (1, DX | DY)),
        (DY, DX, (-1, DX | DY)),
        (DX, DE, (1, DX | DE)),
        (DE, DX, (-1, DX | DE)),
        (DY, DE, (1, DY | DE)),
        (DE, DY, (-1, DY | DE)),
        (DX | DY, DE, (1, DX | DY | DE)),
        (DE, DX | DY, (1, DX | DY | DE)),
        (DX, DY | DE, (1, DX | DY | DE)),
        (DY | DE, DX, (1, DX | DY | DE)),
        (0, DX | DE, (1, DX | DE)),
        (DY, 0, (1, DY)),
    ],
)
def test_basis_wedge_table(b1, b2, expected):
    assert basis_wedge(b1, b2) == expected


def test_basis_wedge_repeated_factor_is_none():
    assert basis_wedge(DX, DX) is None
    assert basis_wedge(DX | DY, DY) is None
    assert basis_wedge(DX | DY | DE, DE) is None


def test_basis_wedge_anticommutes_on_generators():
    for f in (DX, DY, DE):
        for g in (DX, DY, DE):
            if f == g:
                continue
            s1, m1 = basis_wedge(f, g)
            s2, m2 = basis_wedge(g, f)
            assert m1 == m2
            assert s1 == -s2


def test_basis_wedge_associates():
    singles = (DX, DY, DE)
    for a in singles:
        for b in singles:
            for c in singles:
                if len({a, b, c}) < 3:
                    continue
                s_ab, ab = basis_wedge(a, b)
                s_left, left = basis_wedge(ab, c)
                s_bc, bc = basis_wedge(b, c)
                s_right, right = basis_wedge(a, bc)
                assert left == right == DX | DY | DE
                assert s_ab * s_left == s_bc * s_right


def test_basis_names_cover_all_eight():
    assert set(BASIS_NAMES) == {0, DX, DY, DE, DX | DY, DX | DE, DY | DE, DX | DY | DE}
    assert BASIS_NAMES[DX | DY | DE] == "dx*dy*deps"


# ---------------------------------------------------------------------------
# Planar forms
# ---------------------------------------------------------------------------


def test_planar_d_of_scalar():
    df = d_planar_scalar(X * X + Y * Y)
    assert df == Form1Planar(2 * X, 2 * Y)


def test_planar_d_golden():
    w = Form1Planar(Y * Y, ZERO)
    assert w.d() == -2 * Y


def test_planar_dd_is_zero():
    rng = random.Random(71)
    for _ in range(30):
        h = random_poly(rng, 4)
        assert d_planar_scalar(h).d().is_zero()


def test_planar_scalar_d_product_rule():
    rng = random.Random(72)
    for _ in range(25):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        lhs = d_planar_scalar(f * g)
        rhs = d_planar_scalar(g).scale(f) + d_planar_scalar(f).scale(g)
        assert lhs == rhs


def test_planar_wedge_dx_dy():
    dx = Form1Planar(ONE, ZERO)
    dy = Form1Planar(ZERO, ONE)
    assert dx.wedge(dy) == ONE
    assert dy.wedge(dx) == -ONE


def test_planar_wedge_antisymmetric():
    rng = random.Random(73)
    u = Form1Planar(random_poly(rng, 3), random_poly(rng, 3))
    v = Form1Planar(random_poly(rng, 3), random_poly(rng, 3))
    assert u.wedge(v) == -(v.wedge(u))
    assert u.wedge(u).is_zero()


def test_planar_form_arithmetic_and_text():
    w = Form1Planar(2 * X, 2 * Y)
    assert (w - w).is_zero()
    assert (-w).p == -2 * X
    assert w.scale(X).q == 2 * X * Y
    assert w.to_text() == "(2x) dx + (2y) dy"


# ---------------------------------------------------------------------------
# FormEps construction and access
# ---------------------------------------------------------------------------


def _series(coeffs, order):
    return EpsSeries(list(coeffs), order)


def test_formeps_rejects_unknown_basis():
    with pytest.raises(ValueError, match="unknown basis"):
        FormEps(1, {8: _series([ONE, ZERO], 1)})


def test_formeps_rejects_component_order_mismatch():
    with pytest.raises(SeriesOrderMismatch):
        FormEps(2, {DX: _series([ONE], 0)})


def test_formeps_drops_zero_components():
    u = FormEps(1, {DX: _series([ZERO, ZERO], 1), DY: _series([X, ZERO], 1)})
    assert set(u.comps) == {DY}
    assert u.component(DX).is_zero()
    assert u.component(DX).order == 1


def test_formeps_zero_and_is_zero():
    z = FormEps.zero(3)
    assert z.is_zero()
    assert z.to_text() == "0"
    assert z.component(DX | DY) == EpsSeries.constant(ZERO, 3)


def test_formeps_terms_sorted_by_basis():
    u = FormEps(1, {DY: _series([Y, ZERO], 1), DX: _series([ZERO, X], 1)})
    assert list(u.terms()) == [(1, DX, X), (0, DY, Y)]


def test_formeps_add_requires_same_order():
    u = FormEps.from_scalar_series(_series([X, Y], 1))
    v = FormEps.from_scalar_series(_series([X], 0))
    with pytest.raises(SeriesOrderMismatch):
        u + v


def test_formeps_equality_via_difference():
    u = FormEps(1, {DX: _series([X, Y], 1)})
    v = FormEps(1, {DX: _series([X, Y], 1), DY: _series([ZERO, ZERO], 1)})
    assert u == v
    assert u != FormEps(1, {DX: _series([X, ZERO], 1)})


def test_formeps_scale_series():
    u = FormEps(2, {DX: _series([ONE, X, ZERO], 2)})
    s = _series([ZERO, ONE, ZERO], 2)  # multiply by eps
    v = u.scale_series(s)
    assert v.component(DX) == EpsSeries([ZERO, ONE, X], 2)


# ---------------------------------------------------------------------------
# Mixed wedge and total differential
# ---------------------------------------------------------------------------


def _random_one_form(rng: random.Random, order: int) -> FormEps:
    comps = {}
    for basis in (DX, DY, DE):
        coeffs = [random_poly(rng, 2) for _ in range(order + 1)]
        comps[basis] = EpsSeries(coeffs, order)
    return FormEps(order, comps)


def _random_series(rng: random.Random, order: int) -> EpsSeries:
    # a component is zero one time in five, so that missing slots occur
    if rng.random() < 0.2:
        return EpsSeries([ZERO], order)
    return EpsSeries([random_poly(rng, 3) for _ in range(order + 1)], order)


def test_wedge_anticommutes_for_one_forms():
    rng = random.Random(74)
    for _ in range(10):
        u = _random_one_form(rng, 2)
        v = _random_one_form(rng, 2)
        assert reference_wedge(u, v) == -reference_wedge(v, u)
        assert reference_wedge(u, u).is_zero()


def test_wedge_with_scalar_is_scaling():
    rng = random.Random(75)
    u = _random_one_form(rng, 2)
    s = _series([ONE, X, Y * Y], 2)
    f = FormEps.from_scalar_series(s)
    assert reference_wedge(f, u) == u.scale_series(s)
    assert reference_wedge(u, f) == u.scale_series(s)


def test_wedge_order_mismatch_raises():
    rng = random.Random(76)
    with pytest.raises(SeriesOrderMismatch):
        reference_wedge(_random_one_form(rng, 1), _random_one_form(rng, 2))
    one = Form1Eps(*(_random_series(rng, 1) for _ in range(3)))
    two = Form2Eps(*(_random_series(rng, 2) for _ in range(3)))
    with pytest.raises(SeriesOrderMismatch):
        wedge(one, two)


def test_forms_by_degree_reject_mixed_orders():
    rng = random.Random(82)
    s1, s2 = _random_series(rng, 1), _random_series(rng, 2)
    for form in (Form1Eps, Form2Eps):
        for comps in ((s1, s1, s2), (s1, s2, s1), (s2, s1, s1)):
            with pytest.raises(SeriesOrderMismatch):
                form(*comps)


def test_dd_is_zero_on_scalars():
    rng = random.Random(77)
    for _ in range(10):
        s = _series([random_poly(rng, 3) for _ in range(4)], 3)
        dd = d_total(d_total(s))
        assert dd.xy.is_zero() and dd.xe.is_zero() and dd.ye.is_zero()
        assert reference_d_total(reference_d_total(FormEps.from_scalar_series(s))).is_zero()


def test_dd_is_zero_on_one_forms():
    rng = random.Random(78)
    for _ in range(10):
        u = _random_one_form(rng, 3)
        assert reference_d_total(reference_d_total(u)).is_zero()


def test_d_total_matches_planar_d():
    w = Form1Planar(X * Y, Y * Y)
    u = d_total(Form1Eps(EpsSeries([w.p], 1), EpsSeries([w.q], 1), EpsSeries([ZERO], 1)))
    assert u.xy.coeffs[0] == w.d()
    assert u.xe.is_zero()
    assert u.ye.is_zero()
    ref = reference_d_total(FormEps(1, {DX: EpsSeries([w.p], 1), DY: EpsSeries([w.q], 1)}))
    assert ref.component(DX | DY).coeffs[0] == w.d()
    assert ref.component(DX | DE).is_zero()
    assert ref.component(DY | DE).is_zero()


def test_d_total_eps_slot():
    # d(eps * x) = x deps + eps dx
    s = _series([ZERO, X], 1)
    du = d_total(s)
    assert du.e == EpsSeries([X, ZERO], 1)
    assert du.a == EpsSeries([ZERO, ONE], 1)
    assert du.b.is_zero()
    ref = reference_d_total(FormEps.from_scalar_series(s))
    assert ref.component(DE) == EpsSeries([X, ZERO], 1)
    assert ref.component(DX) == EpsSeries([ZERO, ONE], 1)
    assert ref.component(DY).is_zero()


def test_d_total_leibniz_exact_when_degrees_fit():
    # eps-degree 1 factors inside order-3 jets: no truncation is felt anywhere
    rng = random.Random(79)
    for _ in range(8):
        comps_u = {
            b: EpsSeries([random_poly(rng, 2), random_poly(rng, 2), ZERO, ZERO], 3)
            for b in (DX, DY, DE)
        }
        comps_v = {
            b: EpsSeries([random_poly(rng, 2), random_poly(rng, 2), ZERO, ZERO], 3)
            for b in (DX, DY, DE)
        }
        u = FormEps(3, comps_u)
        v = FormEps(3, comps_v)
        lhs = reference_d_total(reference_wedge(u, v))
        rhs = reference_wedge(reference_d_total(u), v) - reference_wedge(u, reference_d_total(v))
        assert lhs == rhs


def test_d_total_leibniz_mod_weight_at_full_degree():
    # with full eps-degree the top deps slot of d(u^v) loses the part of
    # (uv)' sourced from degree order+1, so compare only through weight=order
    rng = random.Random(80)
    for _ in range(8):
        u = _random_one_form(rng, 2)
        v = _random_one_form(rng, 2)
        diff = reference_d_total(reference_wedge(u, v)) - (
            reference_wedge(reference_d_total(u), v) - reference_wedge(u, reference_d_total(v))
        )
        assert reference_truncate_weight(diff, 2).is_zero()


def test_d_total_clears_nothing_but_preserves_flags():
    rng = random.Random(81)
    u = _random_one_form(rng, 2)
    assert reference_d_total(u).exact
    jet = FormEps(2, dict(u.comps), exact=False)
    assert not reference_d_total(jet).exact
    comps = [u.component(b) for b in (DX, DY, DE)]
    assert d_total(Form1Eps(*comps)).exact
    assert not d_total(Form1Eps(*comps, exact=False)).exact
    assert d_total(comps[0]).exact


def test_d_total_matches_reference_on_seeded_forms():
    # 0-forms and 1-forms of orders 0-3, exact and jets, a component zero
    # one time in five; the seed was fixed before any result was seen
    rng = random.Random(83)
    for order in range(4):
        for exact in (True, False):
            for _ in range(4):
                s = _random_series(rng, order)
                assert reference_form(d_total(s)) == reference_d_total(reference_form(s))
                u = Form1Eps(*(_random_series(rng, order) for _ in range(3)), exact)
                du = d_total(u)
                ref = reference_d_total(reference_form(u))
                assert reference_form(du) == ref
                assert du.exact == ref.exact == exact


def test_wedge_matches_reference_on_seeded_forms():
    rng = random.Random(84)
    for order in range(4):
        for exact_u in (True, False):
            for exact_v in (True, False):
                u = Form1Eps(*(_random_series(rng, order) for _ in range(3)), exact_u)
                v = Form2Eps(*(_random_series(rng, order) for _ in range(3)), exact_v)
                got = wedge(u, v)
                ref = reference_wedge(reference_form(u), reference_form(v))
                assert reference_form(got) == ref
                assert got.exact == ref.exact == (exact_u and exact_v)
                # and Omega ^ dOmega, the composition integrability_defect takes
                assert reference_form(wedge(u, d_total(u))) == reference_wedge(
                    reference_form(u), reference_d_total(reference_form(u))
                )


def test_truncate_weight_matches_reference_on_seeded_forms():
    rng = random.Random(85)
    for order in range(4):
        for exact in (True, False):
            u = Form3Eps(_random_series(rng, order), exact)
            for w in range(order + 3):
                if not exact and w > order:
                    with pytest.raises(SeriesOrderMismatch):
                        truncate_weight(u, w)
                    with pytest.raises(SeriesOrderMismatch):
                        reference_truncate_weight(reference_form(u), w)
                    continue
                got = truncate_weight(u, w)
                assert reference_form(got) == reference_truncate_weight(reference_form(u), w)
                assert got.exact == exact


# ---------------------------------------------------------------------------
# Weight grading
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "power, basis, expected",
    [
        (0, DX, 0),
        (2, 0, 2),
        (0, DE, 1),
        (1, DE, 2),
        (3, DX | DY, 3),
        (2, DX | DY | DE, 3),
    ],
)
def test_term_weight(power, basis, expected):
    assert term_weight(power, basis) == expected


def test_weight_bound_validates():
    u = FormEps(2, {DX: _series([X, Y, ONE], 2)})
    with pytest.raises(ValueError):
        reference_truncate_weight(u, -1)
    assert reference_truncate_weight(u, 0) == FormEps(2, {DX: _series([X], 2)})
    assert not reference_truncate_weight(u, 0).is_zero()
    # the 3-form's eps^0 term already has weight 1
    h = Form3Eps(_series([X, Y, ONE], 2))
    with pytest.raises(ValueError):
        truncate_weight(h, -1)
    assert truncate_weight(h, 0).is_zero()
    assert truncate_weight(h, 1).h == _series([X], 2)


def test_truncate_weight_scalar():
    u = FormEps.from_scalar_series(_series([ONE, X, Y], 2))
    t = reference_truncate_weight(u, 1)
    assert t.component(0) == EpsSeries([ONE, X, ZERO], 2)
    assert t.exact


def test_truncate_weight_counts_deps():
    u = FormEps(2, {DE: _series([ONE, X, Y], 2)})
    t = reference_truncate_weight(u, 1)
    # eps^i deps has weight i+1, so only the i=0 slot survives
    assert t.component(DE) == EpsSeries([ONE, ZERO, ZERO], 2)
    h = truncate_weight(Form3Eps(_series([ONE, X, Y], 2)), 1)
    assert h.h == EpsSeries([ONE, ZERO, ZERO], 2)
    assert h.exact


def test_truncate_weight_thresholds():
    u = FormEps(2, {DX: _series([ZERO, ZERO, X], 2)})
    assert reference_truncate_weight(u, 1).is_zero()
    assert not reference_truncate_weight(u, 2).is_zero()
    v = FormEps(2, {DE: _series([ZERO, Y, ZERO], 2)})
    assert reference_truncate_weight(v, 1).is_zero()
    assert not reference_truncate_weight(v, 2).is_zero()
    h = Form3Eps(_series([ZERO, Y, ZERO], 2))
    assert truncate_weight(h, 1).is_zero()
    assert not truncate_weight(h, 2).is_zero()


def test_weight_queries_on_jets_guard_truncation():
    # theta = -dG/G of the length-two witness is a jet; for w = x dF,
    # G = 1/(1 + eps x) and theta ^ d(dF + eps w) = -2xy eps + 2x^2y eps^2
    # through eps^2
    w = Form1Planar(2 * X * X, 2 * X * Y)
    theta = witness_theta(melnikov_sequence(CIRCLE, w, 3).sequence, 2)
    jet = wedge(theta, d_total(deformation_form(w, 2)))
    assert not jet.exact
    assert jet.h == _series([ZERO, -2 * X * Y, 2 * X * X * Y], 2)
    with pytest.raises(SeriesOrderMismatch):
        truncate_weight(jet, 3)
    # within the truncation order the question is answerable
    assert truncate_weight(jet, 2).h == _series([ZERO, -2 * X * Y], 2)
    # an exact form knows all higher coefficients vanish
    exact = Form3Eps(jet.h)
    assert not truncate_weight(exact, 5).is_zero()
    assert truncate_weight(exact, 5).h == exact.h


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_series_to_text_formats():
    assert series_to_text(_series([ONE, X, X * Y], 2)) == "1 + eps*(x) + eps^2*(xy)"
    assert series_to_text(_series([ZERO, ZERO], 1)) == "0"
    assert series_to_text(_series([ZERO, 2 * X], 1)) == "eps*(2x)"


def test_formeps_to_text():
    u = FormEps(
        1,
        {
            0: _series([ONE, ZERO], 1),
            DX: _series([ZERO, X], 1),
            DX | DY | DE: _series([Y, ZERO], 1),
        },
    )
    assert u.to_text() == "1 + (eps*(x)) dx + (y) dx*dy*deps"


def test_form3eps_text_matches_reference():
    for coeffs in ([ZERO, ZERO], [Y, ZERO], [ZERO, X * Y]):
        h = Form3Eps(_series(coeffs, 1))
        assert str(h) == h.to_text() == reference_form(h).to_text()
    assert Form3Eps(_series([Y, X], 1)).to_text() == "(y + eps*(x)) dx*dy*deps"
