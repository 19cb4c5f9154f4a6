"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints a single "criterion N: PASS" line on success (visible with
-s or in the captured-output section); a failing criterion fails its test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import factorial

import pytest

from folint.abelian import CIRCLE, PeriodPoly, period_of_form
from folint.algebra import BivarPoly, EpsSeries, RationalFunction, X, Y
from folint.cli import cmd_gv, load_fixture, parse_problem
from folint.exterior import DE, DX, DY, Form1Planar, d_planar_scalar
from folint.francoise import (
    FrancoisePair,
    NoSolution,
    decompose,
    melnikov_sequence,
)
from folint.godbillon import (
    assemble_omega,
    classical_gv_forms,
    first_integral,
    gv_pairs_from_francoise,
    integrability_defect,
    integrating_factor,
    pairs_from_first_integral,
    witness_theta,
)
from folint.oracle import (
    DEFAULT_CONFIG,
    HolonomyConfig,
    displacement_table,
    holonomy_return,
    melnikov_estimate,
)
from helpers import random_form, zero_period_form

F = X * X + Y * Y
DF = d_planar_scalar(F)
ZERO = BivarPoly.zero()
W_EXAMPLE1 = Form1Planar(Y * Y, ZERO)
W_EXAMPLE2 = Form1Planar(2 * X * X, 2 * X * Y)


def _report(n: int, note: str) -> None:
    print(f"criterion {n}: PASS - {note}")


def test_criterion_1_factorial_pairs():
    res = melnikov_sequence(CIRCLE, W_EXAMPLE1, 8)
    assert res.first_nonzero is None
    assert all(m.is_zero() for m in res.melnikov)
    assert res.order_reached() == 8
    for n in range(1, 9):
        expect = X**n * Fraction((-1) ** n, factorial(n))
        assert res.sequence.g(n) == expect
    _report(1, "g_n = (-1)^n x^n/n! for n = 1..8, all M_i = 0")


def test_criterion_2_first_integral_differential():
    # expansion of e^{eps x} (y^2 + 2x/eps - 2/eps^2), coefficient of eps^m:
    #   x^m y^2 / m!  +  2 (m+1) x^{m+2} / (m+2)!
    # (worked out by hand before the build; m = 0 gives back x^2 + y^2)
    seq = melnikov_sequence(CIRCLE, W_EXAMPLE1, 7).sequence
    fint = first_integral(F, seq, 6)
    for m in range(7):
        closed = X**m * Y * Y * Fraction(1, factorial(m)) + X ** (m + 2) * Fraction(
            2 * (m + 1), factorial(m + 2)
        )
        got = fint.series.coeffs[m]
        assert got.partial("x") == closed.partial("x")
        assert got.partial("y") == closed.partial("y")
    _report(2, "d(F_eps) matches the closed-form expansion through eps^6")


def test_criterion_3_correspondence_round_trip():
    for w, horizon in ((W_EXAMPLE1, 8), (W_EXAMPLE2, 8)):
        res = melnikov_sequence(CIRCLE, w, horizon)
        assert res.first_nonzero is None
        seq = res.sequence
        gvp = gv_pairs_from_francoise(seq)
        for i, pair in enumerate(gvp, start=1):
            sign = (-1) ** i
            assert pair.G == seq.g(i) * sign
            assert pair.R == seq.r(i) * (sign * -i)
        for k in range(7):
            omega = assemble_omega(w, gvp[: k + 1], k)
            assert integrability_defect(omega, k).is_zero()
            fint = first_integral(F, seq, k)
            n = integrating_factor(omega, fint, k)
            assert n.coeffs[0] == BivarPoly.one()
            # omega = N * d(F_eps), exact on every term of weight <= k
            rebuilt = fint.differential(omega.order).scale_series(
                n.extend(omega.order)
            )
            for i, basis, _ in (omega - rebuilt).terms():
                assert i + (1 if basis & DE else 0) > k
            if k >= 1:
                rec = pairs_from_first_integral(fint, w)
                assert rec == list(seq.pairs[:k])
                prev = BivarPoly.one()
                for pair in rec:
                    assert pair.verify(prev, w)
                    prev = pair.g
    _report(3, "gv pairs, defect, unit factor and read-back for k <= 6")


def test_criterion_4_obstruction_detection():
    res = melnikov_sequence(CIRCLE, Form1Planar(Y, ZERO), 3)
    assert res.melnikov[0] == PeriodPoly.single(1, 1)  # pi * t, counterclockwise

    spec = parse_problem(
        {"F": "x^2 + y^2", "omega": {"dx": "y", "dy": "0"}, "max_order": 3}
    )
    rep = cmd_gv(spec, 0)
    assert rep.obstruction == {"order": 1, "witness": "π·t"}
    assert rep.first_nonzero == 1
    assert rep.melnikov == ("π·t",)

    rng = random.Random(404)
    for i in range(500):
        w = random_form(rng, 6) if i % 5 else zero_period_form(rng, 6)
        out = decompose(w)
        if period_of_form(w).is_zero():
            assert isinstance(out, FrancoisePair)
        else:
            assert isinstance(out, NoSolution)
    _report(4, "M_1 = pi*t, gv obstruction at order 1, 500-form equivalence")


def test_criterion_5_gelfand_leray():
    checked = 0
    for w in (W_EXAMPLE1, W_EXAMPLE2):
        seq = melnikov_sequence(CIRCLE, w, 6).sequence
        for i in range(1, len(seq) + 1):
            lhs = (w.scale(seq.g(i - 1))).d()
            assert lhs == d_planar_scalar(seq.g(i)).wedge(DF)
            checked += 1
    rng = random.Random(505)
    for _ in range(100):
        w = zero_period_form(rng, 4)
        res = melnikov_sequence(CIRCLE, w, 2)
        seq = res.sequence
        for i in range(1, len(seq) + 1):
            lhs = (w.scale(seq.g(i - 1))).d()
            assert lhs == d_planar_scalar(seq.g(i)).wedge(DF)
            checked += 1
    assert checked >= 112
    _report(5, f"d(g_i-1 w) = dg_i ^ dF on {checked} pairs")


def test_criterion_6_length_two_witness():
    # example2: G eta_eps telescopes to dF on the nose
    seq2 = melnikov_sequence(CIRCLE, W_EXAMPLE2, 5).sequence
    k = 4
    theta = witness_theta(seq2, k)  # raises if G d(eta) + dG ^ eta != 0
    assert theta.component(DY).is_zero()
    G = EpsSeries(
        [BivarPoly.one()] + [seq2.g(i) * (-1) ** i for i in range(1, k + 1)], k
    )
    eta_p = EpsSeries([F.partial("x"), W_EXAMPLE2.p] + [ZERO] * (k - 1), k)
    eta_q = EpsSeries([F.partial("y"), W_EXAMPLE2.q] + [ZERO] * (k - 1), k)
    deta = EpsSeries([ZERO, W_EXAMPLE2.d()] + [ZERO] * (k - 1), k)
    residual = G * deta + (
        G.map(lambda u: u.partial("x")) * eta_q
        - G.map(lambda u: u.partial("y")) * eta_p
    )
    assert residual.is_zero()
    assert G * eta_p == EpsSeries([F.partial("x")] + [ZERO] * k, k)
    assert G * eta_q == EpsSeries([F.partial("y")] + [ZERO] * k, k)

    # example1: G eta_eps is closed slot by slot through weight 4
    seq1 = melnikov_sequence(CIRCLE, W_EXAMPLE1, 5).sequence
    G1 = EpsSeries(
        [BivarPoly.one()] + [seq1.g(i) * (-1) ** i for i in range(1, 5)], 4
    )
    p1 = G1 * EpsSeries([F.partial("x"), W_EXAMPLE1.p] + [ZERO] * 3, 4)
    q1 = G1 * EpsSeries([F.partial("y"), W_EXAMPLE1.q] + [ZERO] * 3, 4)
    curl = q1.map(lambda u: u.partial("x")) - p1.map(lambda u: u.partial("y"))
    assert curl.is_zero()
    _report(6, "witness identity, G eta = dF (example2), closedness to weight 4")


def test_criterion_7_classical_gv_relations():
    seq = melnikov_sequence(CIRCLE, W_EXAMPLE1, 4).sequence
    fint = first_integral(F, seq, 3)
    eta = classical_gv_forms(fint, 2).eta
    r1 = seq.r(1)
    assert eta[0].p == RationalFunction(2 * X, r1)
    assert eta[0].q == RationalFunction(2 * Y, r1)
    assert (eta[0].d() - eta[0].wedge(eta[1])).is_zero()
    assert (eta[1].d() - eta[0].wedge(eta[2])).is_zero()
    _report(7, "eta_0 = dF/r_1, d eta_0 = eta_0^eta_1, d eta_1 = eta_0^eta_2")


def test_criterion_8_numeric_oracle():
    est = melnikov_estimate(Form1Planar(Y, ZERO), 1.0, 3, DEFAULT_CONFIG)
    assert est[0] == pytest.approx(math.pi, rel=1e-6)

    delta = holonomy_return(W_EXAMPLE1, 1.0, 1e-2, DEFAULT_CONFIG) - 1.0
    assert abs(delta) < 1e-10

    # the rational fixture w = F dx / (1+x) has the first integral F (1+x)^eps
    spec = parse_problem(load_fixture("example3-oracle.json"))
    samples = displacement_table(
        spec.omega, spec.t_samples, spec.eps_samples, HolonomyConfig(4000)
    )
    assert max(abs(s.delta) for s in samples) < 1e-8
    assert all(s.est_error <= 1e-12 for s in samples)
    assert {(s.t, s.eps) for s in samples} == {
        (0.25, 1e-2),
        (0.25, 1e-3),
        (0.5, 1e-2),
        (0.5, 1e-3),
    }

    closed = math.exp(0.8 * math.pi / math.sqrt(16 - 0.04)) - 1.0
    errors = [
        abs(
            (holonomy_return(Form1Planar(Y, ZERO), 1.0, 0.2, HolonomyConfig(n)) - 1.0)
            - closed
        )
        for n in (100, 200)
    ]
    assert errors[0] / errors[1] >= 8.0
    _report(8, "fit within 1e-6, silent fixtures silent, RK4 ratio >= 8")


def test_criterion_9_symbolic_numeric_cross_validation():
    rng = random.Random(909)
    cfg = HolonomyConfig(step_count=3000)
    worst = 0.0
    for _ in range(20):
        while True:
            w = random_form(rng, 4)
            if period_of_form(w).is_zero():
                continue
            symbolic = melnikov_sequence(CIRCLE, w, 1).melnikov[0].eval_float(1.0)
            if abs(symbolic) >= 0.02:
                break
        est = melnikov_estimate(w, 1.0, 3, cfg)
        rel = abs(est[0] - symbolic) / abs(symbolic)
        worst = max(worst, rel)
        assert rel <= 1e-4
    _report(9, f"20 random forms, worst first-coefficient error {worst:.2e} rel")
