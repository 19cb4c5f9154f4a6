"""Relative-exactness decomposition and the iterated Melnikov sequence."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folint.abelian import (
    CIRCLE,
    OvalFamily,
    PeriodPoly,
    UnsupportedOvalFamily,
    period_of_form,
)
from folint.algebra import BivarPoly, X, Y, grlex_key
from folint.exterior import Form1Planar, d_planar_scalar
from folint import francoise
from folint.francoise import (
    FrancoisePair,
    FrancoiseSequence,
    InternalSolverError,
    NoSolution,
    _block_solve,
    _poly,
    decompose,
    melnikov_sequence,
    resubstitutes,
    sequence_length,
)
from folint.linsolve import solve_canonical
from folint.oracle import HolonomyConfig, melnikov_estimate
from helpers import (
    AREA_FORM,
    random_form,
    random_poly,
    reference_block_solve,
    reference_resubstitutes,
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
        assert pair.verify(BivarPoly.one(), w)
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
        assert pair.verify(BivarPoly.one(), w)


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


def _corrupted(rng: random.Random, poly: BivarPoly) -> list[BivarPoly]:
    """poly with a unit added to one term, one coefficient scaled and one
    exponent shifted (a zero poly gains a unit monomial)."""
    if poly.is_zero():
        return [BivarPoly.monomial(rng.randint(0, 3), rng.randint(0, 3))]
    (a, b), c = rng.choice(sorted(poly.terms.items()))
    da, db = rng.choice([(1, 0), (0, 1)])
    return [
        poly + BivarPoly.monomial(a, b),
        poly + BivarPoly.monomial(a, b, c * (rng.choice([-1, 2, Fraction(3, 2)]) - 1)),
        poly - BivarPoly.monomial(a, b, c) + BivarPoly.monomial(a + da, b + db, c),
    ]


def test_resubstitutes_matches_the_reference_residual():
    # valid (s, w, g, r) from decompose (s = 1) and from Melnikov sequences
    # (s = g_{i-1}), then each with one of s, w.p, w.q, g, r corrupted three
    # ways
    rng = random.Random(321)
    valid = []
    for _ in range(12):
        w = zero_period_form(rng, 5).scale(Fraction(1, rng.randint(1, 7)))
        pair = decompose(w)
        valid.append((BivarPoly.one(), w, pair.g, pair.r))
    for _ in range(6):
        # dx even and dy odd in y: reversible, so every M_i vanishes
        p, q = (
            BivarPoly({e: c for e, c in random_poly(rng, 4).terms.items() if e[1] % 2 == parity})
            for parity in (0, 1)
        )
        w = Form1Planar(p * Fraction(1, rng.randint(1, 5)), q)
        res = melnikov_sequence(CIRCLE, w, 4)
        prev = BivarPoly.one()
        for pair in res.sequence.pairs:
            valid.append((prev, w, pair.g, pair.r))
            prev = pair.g
    # a constant added to r changes no differential: both accept it
    cases = valid + [(s, w, g, r + 1) for s, w, g, r in valid]
    for s, w, g, r in valid:
        slot = rng.randrange(5)
        for bad in _corrupted(rng, (s, w.p, w.q, g, r)[slot]):
            parts = [s, w.p, w.q, g, r]
            parts[slot] = bad
            cases.append((parts[0], Form1Planar(parts[1], parts[2]), parts[3], parts[4]))
    verdicts = [resubstitutes(*case) for case in cases]
    assert verdicts == [reference_resubstitutes(*case) for case in cases]
    assert all(verdicts[: 2 * len(valid)])
    assert len(valid) > 30 and verdicts.count(False) > 60


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


def block_numerators(w: Form1Planar, d: int) -> tuple[dict, dict]:
    """w's degree-d block: y-power -> numerator of the dx and of the dy
    component over its own denominator, nonzero ones only."""
    return tuple({b: c for (a, b), c in f.nums.items() if a + b == d} for f in (w.p, w.q))


def over_one_denominator(p: dict, pd: int, q: dict, qd: int) -> tuple[dict, dict, int]:
    """A block's two numerator dicts brought over lcm(pd, qd), as decompose
    hands them to _block_solve, and that denominator."""
    den = lcm(pd, qd)
    return {j: c * (den // pd) for j, c in p.items()}, {j: c * (den // qd) for j, c in q.items()}, den


def sweep_block(w: Form1Planar, d: int):
    """The sweep's (g, r) on w's degree-d block, or None when the block's
    period is nonzero."""
    p, q = block_numerators(w, d)
    p, q, den = over_one_denominator(p, w.p.den, q, w.q.den)
    solved = _block_solve(p, q, d)
    if solved is None:
        return None
    g, r = solved
    return (
        _poly({(d - 1 - j, j): v for j, v in g.items()}, den),
        _poly({(d + 1 - j, j): v for j, v in r.items()}, den),
    )


def assert_blocks_match_dense(w: Form1Planar) -> int:
    ps, qs = w.p.homogeneous_parts(), w.q.homogeneous_parts()
    degrees = sorted(set(ps) | set(qs))
    for d in degrees:
        p, q = ps.get(d, ZERO), qs.get(d, ZERO)
        assert sweep_block(w, d) == dense_block_solve(p, q, d), d
    return len(degrees)


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
        solved = sweep_block(w, d)
        assert solved is not None
        assert solved == dense_block_solve(w.p, w.q, d), d
        g, r = solved
        assert (DF.scale(g) + d_planar_scalar(r) - w).is_zero(), d


def test_sweep_matches_dense_on_large_prime_denominators():
    # coefficients over distinct large primes, so the block's one denominator
    # is a product of large primes and the chains' unreduced pairs run over it
    rng = random.Random(210)
    primes = [1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647, 999_983]
    for d in (40, 41, 46, 47):
        def part():
            return BivarPoly({
                (d - j, j): Fraction(rng.randint(-10**9, 10**9), rng.choice(primes))
                for j in range(d + 1)
            })
        w = remove_period(Form1Planar(part(), part()))
        solved = sweep_block(w, d)
        assert solved is not None
        assert solved == dense_block_solve(w.p, w.q, d), d
        g, r = solved
        assert g.den > 10**18 and r.den > 10**18
        assert (DF.scale(g) + d_planar_scalar(r) - w).is_zero(), d


def test_sweep_rejects_odd_block_with_nonzero_period():
    rng = random.Random(209)
    for d in (1, 3, 7, 15):
        w = random_block(rng, d)
        # F^{m-1} (x dy - y dx) carries all of a block's period
        bad = w + AREA_FORM.scale(F ** ((d - 1) // 2))
        assert not period_of_form(bad).is_zero()
        assert sweep_block(bad, d) is None
        assert dense_block_solve(bad.p, bad.q, d) is None
    assert sweep_block(Form1Planar(Y, ZERO), 1) is None  # y dx, period -pi t


def assert_sweep_matches_reference(p: dict, pd: int, q: dict, qd: int, d: int):
    """The sweep against the dense-list reference on one block, term for
    term as reduced rationals: the reference's nonzero pairs, or None on
    both sides."""
    dense = reference_block_solve(
        [p.get(j, 0) for j in range(d + 1)], pd, [q.get(j, 0) for j in range(d + 1)], qd, d
    )
    want = dense and tuple({j: v for j, v in enumerate(c) if v[0]} for c in dense)
    sp, sq, den = over_one_denominator(p, pd, q, qd)
    solved = _block_solve(sp, sq, d)
    got = solved and tuple(
        {j: (f.numerator, f.denominator) for j, (n, s) in c.items() for f in [Fraction(n, s * den)]}
        for c in solved
    )
    assert got == want, (p, pd, q, qd, d)
    return want


def chain_step(d: int, v: int, j: int):
    """The step of the coefficient of (component v, y^j): its chain (True
    for the odd one), its place in that chain's order and the unknown it
    solves for as (0 for g or 1 for r, index); None for the odd-d residual
    dx_d and the lone dy_d, which end or stand outside the chains."""
    if d % 2 and j == d:
        return None
    if v == 0:
        odd, unknown = j % 2 == 1, (0, j) if j % 2 else (1, j)
    else:
        odd, unknown = j % 2 == 0, (1, j + 1) if j % 2 == 0 else (0, j - 1)
    return odd, j if odd else -j, unknown


def test_sweep_matches_reference_on_sparse_blocks():
    # every block of degree 0..14 with one nonzero coefficient and with two,
    # random ints over random denominators; each pair of steps in one chain
    # is run once more with the later coefficient chosen so that the chain's
    # value at that step cancels to zero and the chain restarts from zero
    rng = random.Random(231)
    cancelled = 0
    for d in range(15):
        spots = [(v, j) for v in (0, 1) for j in range(d + 1)]

        def solve(terms):
            comps = ({}, {})
            for (v, j), c in terms:
                comps[v][j] = c
            return assert_sweep_matches_reference(comps[0], pd, comps[1], qd, d)

        for i, s1 in enumerate(spots):
            pd, qd = rng.randint(1, 9), rng.randint(1, 9)
            c1 = rng.choice([-1, 1]) * rng.randint(1, 50)
            solve([(s1, c1)])
            for s2 in spots[i + 1:]:
                pd, qd = rng.randint(1, 9), rng.randint(1, 9)
                solve([(s1, c1), (s2, rng.choice([-1, 1]) * rng.randint(1, 50))])
                steps = chain_step(d, *s1), chain_step(d, *s2)
                if None in steps or steps[0][0] != steps[1][0]:
                    continue
                first, later = (s1, s2) if steps[0][1] < steps[1][1] else (s2, s1)
                kind, index = max(steps, key=lambda t: t[1])[2]
                # the later step's value is affine in its coefficient c,
                # u0 + c (u1 - u0), and vanishes at c = -u0 / (u1 - u0)
                u0, u1 = (
                    Fraction(*solved[kind].get(index, (0, 1))) if solved else None
                    for solved in (solve([(first, c1), (later, c)]) for c in (0, 1))
                )
                if u0 is None or u0 == 0:
                    continue
                root = -u0 / (u1 - u0)
                solved = solve([(first, c1 * root.denominator), (later, root.numerator)])
                assert index not in solved[kind]
                cancelled += 1
    assert cancelled > 500


def test_sweep_matches_reference_on_melnikov_blocks():
    # the blocks of g_k w through order 10 for a form on the benchmark's
    # reversible support, (2, 2), (1, 0) in dx and (2, 1) in dy, and for the
    # (x^3y^2 + y^2) dx baseline; through order 15 for the five-term form,
    # dense in both chains, whose blocks reach degree 61, where the unreduced
    # divisors are largest
    rng = random.Random(232)
    c1, c2, c3 = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
    forms = [
        (Form1Planar(c1 * X**2 * Y**2 + c2 * X, c3 * X**2 * Y), 10),
        (Form1Planar(X**3 * Y**2 + Y**2, ZERO), 10),
        (Form1Planar(X**2 + 3 * Y**2 - Fraction(1, 2) * X**3 * Y**2, 2 * X * Y - Y**3), 15),
    ]
    blocks, top = 0, 0
    for w, order in forms:
        res = melnikov_sequence(CIRCLE, w, order)
        assert res.first_nonzero is None
        for k in range(order):
            sw = w.scale(res.sequence.g(k))
            for d in {a + b for f in (sw.p, sw.q) for a, b in f.nums}:
                p, q = block_numerators(sw, d)
                assert assert_sweep_matches_reference(p, sw.p.den, q, sw.q.den, d) is not None
                blocks += 1
                top = max(top, d)
    assert blocks > 100
    assert top >= 60


def test_sweep_rejects_odd_block_with_only_a_top_dx_coefficient():
    # y^d dx alone, d odd: its period is nonzero, and the odd chain's
    # residual dx_d is its only step
    for d in (1, 3, 5, 9):
        w = Form1Planar(BivarPoly({(0, d): Fraction(3, 7)}), ZERO)
        assert not period_of_form(w).is_zero()
        assert assert_sweep_matches_reference({d: 3}, 7, {}, 1, d) is None
        assert sweep_block(w, d) is None


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
        # adds x^{d-1} over the form's denominator to the block's g, also
        # where g has no nonzero value
        solved = real(p, q, d)
        if solved is None:
            return None
        g = dict(solved[0])
        n, s = g.get(0, (0, 1))
        g[0] = (n + s, s)
        return g, solved[1]

    monkeypatch.setattr(francoise, "_block_solve", corrupt)
    with pytest.raises(InternalSolverError, match="resubstitution"):
        melnikov_sequence(CIRCLE, Form1Planar(Y * Y, ZERO), 2)


def count_period_calls(monkeypatch) -> list:
    calls = []
    real = francoise.period_of_form

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(francoise, "period_of_form", counting)
    return calls


def test_melnikov_sequence_computes_no_period_on_a_silent_form(monkeypatch):
    # the sweep decides every order; a period is only the witness of a failure
    calls = count_period_calls(monkeypatch)
    res = melnikov_sequence(CIRCLE, Form1Planar(Y * Y, ZERO), 6)
    assert res.first_nonzero is None
    assert calls == []


def test_melnikov_sequence_computes_one_period_at_the_first_nonzero_order(monkeypatch):
    # x^2 dx + x^2 dy: M_1 = 0 and M_2 = pi t^2 / 4, the witness of order 2
    calls = count_period_calls(monkeypatch)
    res = melnikov_sequence(CIRCLE, Form1Planar(X * X, X * X), 6)
    assert res.first_nonzero == 2
    assert res.melnikov == (PeriodPoly.zero(), PeriodPoly((0, 0, Fraction(1, 4))))
    assert len(res.sequence) == 1
    assert len(calls) == 1


def test_decompose_inconsistent_block_with_zero_period_is_internal(monkeypatch):
    monkeypatch.setattr(francoise, "_block_solve", lambda p, q, d: None)
    with pytest.raises(InternalSolverError, match="inconsistent"):
        decompose(Form1Planar(Y * Y, ZERO))


def test_max_order_validation():
    with pytest.raises(ValueError):
        melnikov_sequence(CIRCLE, Form1Planar(Y, ZERO), 0)


@pytest.mark.parametrize("hamiltonian", [X * X + 2 * (Y * Y), X * X], ids=["ellipse", "x^2"])
def test_melnikov_sequence_rejects_other_families(hamiltonian):
    # the library's one family check; decompose, the periods, the GV assembly
    # and the oracle are circle-only and take no family
    with pytest.raises(UnsupportedOvalFamily, match="only the circle"):
        melnikov_sequence(OvalFamily(hamiltonian), AREA_FORM, 2)
    assert OvalFamily.circle() == CIRCLE
    CIRCLE.require_circle()


def test_pairs_certify_each_step():
    rng = random.Random(207)
    w = zero_period_form(rng, 4)
    res = melnikov_sequence(CIRCLE, w, 4)
    seq = res.sequence
    for i in range(1, len(seq) + 1):
        assert seq.pairs[i - 1].verify(seq.g(i - 1), w)
        # Gelfand-Leray shape of the same identity
        assert (w.scale(seq.g(i - 1))).d() == d_planar_scalar(seq.g(i)).wedge(DF)


def test_second_order_value_matches_holonomy():
    # independent numerics: fit Delta(1, eps) against the RK4 transport
    rng = random.Random(31)
    w = zero_period_form(rng, 3)
    res = melnikov_sequence(CIRCLE, w, 3)
    assert res.first_nonzero == 2
    exact = res.melnikov[1].eval_float(1.0)
    est = melnikov_estimate(w, 1.0, 3, HolonomyConfig(step_count=2000))
    assert est[0] == pytest.approx(0.0, abs=1e-6)
    assert est[1] == pytest.approx(exact, rel=1e-3)


def test_sequence_length_finds_first_zero_g():
    # hand-built sequence: g_2 = 0 means length 1
    pairs = (
        FrancoisePair(g=X, r=ZERO),
        FrancoisePair(g=ZERO, r=ZERO),
        FrancoisePair(g=Y * Y * X, r=ZERO),
    )
    seq = FrancoiseSequence(omega=Form1Planar(Y * Y, ZERO), pairs=pairs)
    assert sequence_length(seq) == 1


def test_readme_quick_start_runs(capsys):
    # the first python block of the README, run as written
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["1 π·t", "None", "-1/6x^3"]
