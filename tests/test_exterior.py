"""Exterior algebra in (x, y, eps): wedge signs, differentials, weight grading."""

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
from folint.exterior import (
    BASIS_NAMES,
    DE,
    DX,
    DY,
    Form1Planar,
    FormEps,
    basis_wedge,
    d_planar_scalar,
    d_total,
    series_to_text,
    term_weight,
    truncate_weight,
    wedge,
)
from helpers import random_poly

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


def test_wedge_anticommutes_for_one_forms():
    rng = random.Random(74)
    for _ in range(10):
        u = _random_one_form(rng, 2)
        v = _random_one_form(rng, 2)
        assert wedge(u, v) == -wedge(v, u)
        assert wedge(u, u).is_zero()


def test_wedge_with_scalar_is_scaling():
    rng = random.Random(75)
    u = _random_one_form(rng, 2)
    s = _series([ONE, X, Y * Y], 2)
    f = FormEps.from_scalar_series(s)
    assert wedge(f, u) == u.scale_series(s)
    assert wedge(u, f) == u.scale_series(s)


def test_wedge_order_mismatch_raises():
    rng = random.Random(76)
    with pytest.raises(SeriesOrderMismatch):
        wedge(_random_one_form(rng, 1), _random_one_form(rng, 2))


def test_dd_is_zero_on_scalars():
    rng = random.Random(77)
    for _ in range(10):
        s = _series([random_poly(rng, 3) for _ in range(4)], 3)
        assert d_total(d_total(FormEps.from_scalar_series(s))).is_zero()


def test_dd_is_zero_on_one_forms():
    rng = random.Random(78)
    for _ in range(10):
        u = _random_one_form(rng, 3)
        assert d_total(d_total(u)).is_zero()


def test_d_total_matches_planar_d():
    w = Form1Planar(X * Y, Y * Y)
    u = d_total(FormEps(1, {DX: EpsSeries([w.p], 1), DY: EpsSeries([w.q], 1)}))
    assert u.component(DX | DY).coeffs[0] == w.d()
    assert u.component(DX | DE).is_zero()
    assert u.component(DY | DE).is_zero()


def test_d_total_eps_slot():
    # d(eps * x) = x deps + eps dx
    u = FormEps.from_scalar_series(_series([ZERO, X], 1))
    du = d_total(u)
    assert du.component(DE) == EpsSeries([X, ZERO], 1)
    assert du.component(DX) == EpsSeries([ZERO, ONE], 1)
    assert du.component(DY).is_zero()


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
        lhs = d_total(wedge(u, v))
        rhs = wedge(d_total(u), v) - wedge(u, d_total(v))
        assert lhs == rhs


def test_d_total_leibniz_mod_weight_at_full_degree():
    # with full eps-degree the top deps slot of d(u^v) loses the part of
    # (uv)' sourced from degree order+1, so compare only through weight=order
    rng = random.Random(80)
    for _ in range(8):
        u = _random_one_form(rng, 2)
        v = _random_one_form(rng, 2)
        diff = d_total(wedge(u, v)) - (wedge(d_total(u), v) - wedge(u, d_total(v)))
        assert truncate_weight(diff, 2).is_zero()


def test_d_total_clears_nothing_but_preserves_flags():
    rng = random.Random(81)
    u = _random_one_form(rng, 2)
    assert d_total(u).exact
    jet = FormEps(2, dict(u.comps), exact=False)
    assert not d_total(jet).exact


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
        truncate_weight(u, -1)
    assert truncate_weight(u, 0) == FormEps(2, {DX: _series([X], 2)})
    assert not truncate_weight(u, 0).is_zero()


def test_truncate_weight_scalar():
    u = FormEps.from_scalar_series(_series([ONE, X, Y], 2))
    t = truncate_weight(u, 1)
    assert t.component(0) == EpsSeries([ONE, X, ZERO], 2)
    assert t.exact


def test_truncate_weight_counts_deps():
    u = FormEps(2, {DE: _series([ONE, X, Y], 2)})
    t = truncate_weight(u, 1)
    # eps^i deps has weight i+1, so only the i=0 slot survives
    assert t.component(DE) == EpsSeries([ONE, ZERO, ZERO], 2)


def test_is_zero_mod_weight_thresholds():
    u = FormEps(2, {DX: _series([ZERO, ZERO, X], 2)})
    assert truncate_weight(u, 1).is_zero()
    assert not truncate_weight(u, 2).is_zero()
    v = FormEps(2, {DE: _series([ZERO, Y, ZERO], 2)})
    assert truncate_weight(v, 1).is_zero()
    assert not truncate_weight(v, 2).is_zero()


def test_weight_queries_on_jets_guard_truncation():
    jet = FormEps(2, {DX: _series([X, Y, ONE], 2)}, exact=False)
    with pytest.raises(SeriesOrderMismatch):
        truncate_weight(jet, 3)
    # within the truncation order the question is answerable
    assert not truncate_weight(jet, 2).is_zero()
    # an exact form knows all higher coefficients vanish
    exact = FormEps(2, {DX: _series([X, Y, ONE], 2)})
    assert not truncate_weight(exact, 5).is_zero()
    assert truncate_weight(exact, 5) == exact


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
