"""Relative-exactness decomposition and the iterated Melnikov sequence."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folint.abelian import CIRCLE, PeriodPoly, period_of_form
from folint.algebra import BivarPoly, X, Y, grlex_key
from folint.exterior import Form1Planar, d_planar_scalar
from folint import francoise
from folint.francoise import (
    FrancoisePair,
    FrancoiseSequence,
    InternalSolverError,
    NoSolution,
    _block_solve,
    _blocks,
    decompose,
    melnikov_sequence,
    sequence_length,
)
from folint.linsolve import solve_canonical
from folint.oracle import HolonomyConfig, melnikov_estimate
from helpers import (
    AREA_FORM,
    random_form,
    random_poly,
    remove_period,
    zero_period_form,
)

F = X * X + Y * Y
DF = d_planar_scalar(F)
ZERO = BivarPoly.zero()


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_recovers_constructed_splits():
    # feed g dF + dr back in; the canonical pair may differ from (g, r) by the
    # s(F) gauge but must satisfy the same identity exactly
    rng = random.Random(201)
    for _ in range(25):
        g = random_poly(rng, 3)
        r = random_poly(rng, 4) - BivarPoly.constant(random_poly(rng, 4).constant_term())
        w = DF.scale(g) + d_planar_scalar(r)
        pair = decompose(w)
        assert isinstance(pair, FrancoisePair)
        assert pair.verify(BivarPoly.one(), w, F)
        rebuilt = DF.scale(pair.g) + d_planar_scalar(pair.r)
        assert (rebuilt - w).is_zero()


def test_decompose_iff_zero_period():
    rng = random.Random(202)
    for _ in range(60):
        w = random_form(rng, 4)
        out = decompose(w)
        if period_of_form(w).is_zero():
            assert isinstance(out, FrancoisePair)
        else:
            assert isinstance(out, NoSolution)


def test_decompose_witness_is_the_period():
    out = decompose(Form1Planar(Y, ZERO))
    assert isinstance(out, NoSolution)
    assert out.witness == PeriodPoly.single(1, -1)
    assert out.witness == period_of_form(Form1Planar(Y, ZERO))


def test_decompose_zero_period_inputs_always_split():
    rng = random.Random(203)
    for _ in range(40):
        w = zero_period_form(rng, 5)
        pair = decompose(w)
        assert isinstance(pair, FrancoisePair)
        assert pair.verify(BivarPoly.one(), w, F)


def test_decompose_canonical_gauge_kills_pure_even_y_in_g():
    # the s(F)-shift freedom lives exactly on the y^{2j} coefficients of g
    rng = random.Random(204)
    for _ in range(30):
        pair = decompose(zero_period_form(rng, 5))
        assert all(not (a == 0 and b % 2 == 0) for (a, b) in pair.g.terms)


def test_decompose_gelfand_leray_identity():
    # differentiating w = g dF + dr gives dw = dg ^ dF
    rng = random.Random(205)
    for _ in range(20):
        w = zero_period_form(rng, 4)
        pair = decompose(w)
        assert w.d() == d_planar_scalar(pair.g).wedge(DF)


def test_pair_rejects_constant_term_in_r():
    with pytest.raises(ValueError, match="constant term"):
        FrancoisePair(g=X, r=BivarPoly.one() + X * Y)


# ---------------------------------------------------------------------------
# block sweep against dense elimination
# ---------------------------------------------------------------------------


def dense_block_solve(w_dx: BivarPoly, w_dy: BivarPoly, deg: int):
    """Reference: the block as a dense system, solved by solve_canonical.

    Columns are r-monomials in ascending graded-lex, then g-monomials in
    descending graded-lex; solve_canonical sets free variables to zero.
    """
    g_monos = [(a, deg - 1 - a) for a in range(deg - 1, -1, -1)]
    r_monos = sorted(((a, deg + 1 - a) for a in range(deg + 2)), key=grlex_key)
    cols = [("r", e) for e in r_monos] + [("g", e) for e in g_monos]

    eq_monos = sorted(((a, deg - a) for a in range(deg + 1)), key=grlex_key)
    row_index = {}
    for e in eq_monos:
        row_index[("dx", e)] = len(row_index)
        row_index[("dy", e)] = len(row_index)

    rows = [[Fraction(0)] * len(cols) for _ in row_index]
    for j, (kind, (a, b)) in enumerate(cols):
        if kind == "g":
            # g * (2x dx + 2y dy)
            rows[row_index[("dx", (a + 1, b))]][j] += 2
            rows[row_index[("dy", (a, b + 1))]][j] += 2
        else:
            # d(x^a y^b) = a x^{a-1} y^b dx + b x^a y^{b-1} dy
            if a > 0:
                rows[row_index[("dx", (a - 1, b))]][j] += a
            if b > 0:
                rows[row_index[("dy", (a, b - 1))]][j] += b

    rhs = [Fraction(0)] * len(row_index)
    for (a, b), c in w_dx.terms.items():
        rhs[row_index[("dx", (a, b))]] = c
    for (a, b), c in w_dy.terms.items():
        rhs[row_index[("dy", (a, b))]] = c

    solution = solve_canonical(rows, rhs)
    if solution is None:
        return None
    g_terms, r_terms = {}, {}
    for (kind, exp), v in zip(cols, solution):
        if v:
            (g_terms if kind == "g" else r_terms)[exp] = v
    return BivarPoly(g_terms), BivarPoly(r_terms)


def assert_blocks_match_dense(w: Form1Planar) -> int:
    blocks = _blocks(w)
    for d, (p, q) in blocks:
        assert _block_solve(p, q, d) == dense_block_solve(p, q, d), d
    return len(blocks)


def random_block(rng: random.Random, d: int) -> Form1Planar:
    """Homogeneous degree-d block with rational coefficients and zero period."""
    def part():
        return BivarPoly({
            (d - j, j): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for j in range(d + 1)
        })
    return remove_period(Form1Planar(part(), part()))


def test_sweep_matches_dense_on_criterion_4_corpus():
    # the same 500 forms as acceptance criterion 4, every block of each,
    # including the odd blocks of nonzero period (both solvers give None)
    rng = random.Random(404)
    blocks = 0
    for i in range(500):
        w = random_form(rng, 6) if i % 5 else zero_period_form(rng, 6)
        blocks += assert_blocks_match_dense(w)
    assert blocks > 2500


@st.composite
def zero_period_forms(draw, max_deg=12):
    deg = draw(st.integers(0, max_deg))
    exps = [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
    coef = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    p = draw(st.dictionaries(st.sampled_from(exps), coef, max_size=12))
    q = draw(st.dictionaries(st.sampled_from(exps), coef, max_size=12))
    return remove_period(Form1Planar(BivarPoly(p), BivarPoly(q)))


@settings(max_examples=60, deadline=None)
@given(zero_period_forms())
def test_sweep_matches_dense_on_zero_period_forms(w):
    assert period_of_form(w).is_zero()
    assert_blocks_match_dense(w)
    assert isinstance(decompose(w), FrancoisePair)


def test_sweep_matches_dense_on_single_blocks_up_to_degree_60():
    rng = random.Random(208)
    for d in range(61):
        w = random_block(rng, d)
        solved = _block_solve(w.p, w.q, d)
        assert solved is not None
        assert solved == dense_block_solve(w.p, w.q, d), d
        g, r = solved
        assert (DF.scale(g) + d_planar_scalar(r) - w).is_zero(), d


def test_sweep_rejects_odd_block_with_nonzero_period():
    rng = random.Random(209)
    for d in (1, 3, 7, 15):
        w = random_block(rng, d)
        # F^{m-1} (x dy - y dx) carries all of a block's period
        bad = w + AREA_FORM.scale(F ** ((d - 1) // 2))
        assert not period_of_form(bad).is_zero()
        assert _block_solve(bad.p, bad.q, d) is None
        assert dense_block_solve(bad.p, bad.q, d) is None
    assert _block_solve(Y, ZERO, 1) is None  # y dx, period -pi t


# ---------------------------------------------------------------------------
# melnikov_sequence
# ---------------------------------------------------------------------------


def test_square_dx_iterates_forever():
    res = melnikov_sequence(CIRCLE, Form1Planar(Y * Y, ZERO), 4)
    assert res.first_nonzero is None
    assert res.order_reached() == 4
    assert all(m.is_zero() for m in res.melnikov)
    seq = res.sequence
    assert len(seq) == 4
    assert seq.g(0) == BivarPoly.one()
    # g_i = (-1)^i x^i / i!, pinned by the worked factorial pattern
    assert seq.g(1) == -X
    assert seq.r(1) == Fraction(2, 3) * X**3 + X * Y * Y
    assert seq.g(2) == Fraction(1, 2) * X * X
    assert seq.r(2) == Fraction(-1, 4) * X**4 - Fraction(1, 2) * X * X * Y * Y
    assert seq.g(3) == Fraction(-1, 6) * X**3
    assert seq.g(4) == Fraction(1, 24) * X**4


def test_multiple_of_df_gives_monomial_sequence():
    w = DF.scale(X)  # 2x^2 dx + 2xy dy
    res = melnikov_sequence(CIRCLE, w, 3)
    assert res.first_nonzero is None
    for i in range(1, 4):
        assert res.sequence.g(i) == X**i
        assert res.sequence.r(i).is_zero()
    assert sequence_length(res.sequence) == 3


def test_first_order_sign_convention():
    # y dx has period -pi t, and M_1 = -period, so the first coefficient is +pi t
    res = melnikov_sequence(CIRCLE, Form1Planar(Y, ZERO), 5)
    assert res.first_nonzero == 1
    assert res.melnikov == (PeriodPoly.single(1, 1),)
    assert len(res.sequence) == 0

    res = melnikov_sequence(CIRCLE, Form1Planar(ZERO, X), 5)
    assert res.melnikov == (PeriodPoly.single(1, -1),)


def test_stopping_leaves_pairs_one_short():
    rng = random.Random(206)
    for _ in range(10):
        w = zero_period_form(rng, 3)
        res = melnikov_sequence(CIRCLE, w, 5)
        if res.first_nonzero is None:
            assert len(res.sequence) == 5
        else:
            assert len(res.sequence) == res.first_nonzero - 1
            assert not res.melnikov[-1].is_zero()
            assert all(m.is_zero() for m in res.melnikov[:-1])


def test_zero_form_trivial_sequence():
    res = melnikov_sequence(CIRCLE, Form1Planar.zero(), 3)
    assert res.first_nonzero is None
    assert all(m.is_zero() for m in res.melnikov)
    assert all(p.g.is_zero() and p.r.is_zero() for p in res.sequence.pairs)
    assert sequence_length(res.sequence) == 0


def test_corrupted_block_solve_fails_resubstitution(monkeypatch):
    real = francoise._block_solve

    def corrupt(p, q, d):
        solved = real(p, q, d)
        return None if solved is None else (solved[0] + X, solved[1])

    monkeypatch.setattr(francoise, "_block_solve", corrupt)
    with pytest.raises(InternalSolverError, match="resubstitution"):
        melnikov_sequence(CIRCLE, Form1Planar(Y * Y, ZERO), 2)


def test_melnikov_sequence_computes_one_period_per_order(monkeypatch):
    # decompose runs only on zero-period forms, where the sweep needs no period
    calls = []
    real = francoise.period_of_form

    def counting(w, family=CIRCLE):
        calls.append(w)
        return real(w, family)

    monkeypatch.setattr(francoise, "period_of_form", counting)
    res = melnikov_sequence(CIRCLE, Form1Planar(Y * Y, ZERO), 6)
    assert res.first_nonzero is None
    assert len(calls) == 6


def test_decompose_inconsistent_block_with_zero_period_is_internal(monkeypatch):
    monkeypatch.setattr(francoise, "_block_solve", lambda p, q, d: None)
    with pytest.raises(InternalSolverError, match="inconsistent"):
        decompose(Form1Planar(Y * Y, ZERO))


def test_max_order_validation():
    with pytest.raises(ValueError):
        melnikov_sequence(CIRCLE, Form1Planar(Y, ZERO), 0)


def test_pairs_certify_each_step():
    rng = random.Random(207)
    w = zero_period_form(rng, 4)
    res = melnikov_sequence(CIRCLE, w, 4)
    seq = res.sequence
    for i in range(1, len(seq) + 1):
        assert seq.pairs[i - 1].verify(seq.g(i - 1), w, F)
        # Gelfand-Leray shape of the same identity
        assert (w.scale(seq.g(i - 1))).d() == d_planar_scalar(seq.g(i)).wedge(DF)


def test_second_order_value_matches_holonomy():
    # independent numerics: fit Delta(1, eps) against the RK4 transport
    rng = random.Random(31)
    w = zero_period_form(rng, 3)
    res = melnikov_sequence(CIRCLE, w, 3)
    assert res.first_nonzero == 2
    exact = res.melnikov[1].eval_float(1.0)
    est = melnikov_estimate(F, w, 1.0, 3, HolonomyConfig(step_count=2000))
    assert est[0] == pytest.approx(0.0, abs=1e-6)
    assert est[1] == pytest.approx(exact, rel=1e-3)


def test_sequence_length_finds_first_zero_g():
    # hand-built sequence: g_2 = 0 means length 1
    pairs = (
        FrancoisePair(g=X, r=ZERO),
        FrancoisePair(g=ZERO, r=ZERO),
        FrancoisePair(g=Y * Y * X, r=ZERO),
    )
    seq = FrancoiseSequence(family=CIRCLE, omega=Form1Planar(Y * Y, ZERO), pairs=pairs)
    assert sequence_length(seq) == 1
