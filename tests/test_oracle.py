"""Numerical holonomy transport checked against a closed-form displacement.

For w = y dx the perturbed foliation d(x^2+y^2) + eps*y dx = 0 is the orbit
family of a linear vector field whose radius gains the factor
exp(2 pi eps / sqrt(16 - eps^2)) per revolution, so

    Delta(t, eps) = t * (exp(4 pi eps / sqrt(16 - eps^2)) - 1)

exactly.  That one closed form pins the integrator, the fitted Melnikov
coefficients and the Richardson variant without circular references.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from folint import cli, oracle
from folint.algebra import BivarPoly, RationalFunction, X, Y
from folint.exterior import Form1Planar
from folint.oracle import (
    CSV_COLUMNS,
    DEFAULT_CONFIG,
    DenominatorVanished,
    DisplacementSample,
    HolonomyConfig,
    LeafEscapedAnnulus,
    MelnikovEstimates,
    NonFiniteEstimate,
    displacement_table,
    first_melnikov_richardson,
    holonomy_return,
    melnikov_estimate,
    write_samples_csv,
)
from helpers import random_form, reference_rho

F = X * X + Y * Y
ZERO = BivarPoly.zero()
W_LINEAR = Form1Planar(Y, ZERO)
W_CUBIC = Form1Planar(Y - 2 * X * X + 3 * X * Y * Y, X - Y * Y)
CFG = HolonomyConfig(step_count=2000)


def closed_delta(t: float, eps: float) -> float:
    return t * (math.exp(4.0 * math.pi * eps / math.sqrt(16.0 - eps * eps)) - 1.0)


def example3_oracle():
    """The rational fixture: w = F dx / (1+x), first integral F (1+x)^eps."""
    return cli.parse_problem(cli.load_fixture("example3-oracle.json"))


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_unperturbed_return_is_bitwise_exact():
    cfg = HolonomyConfig(step_count=100)
    # t values whose square roots round-trip exactly in floating point
    for w in (W_LINEAR, Form1Planar(Y * Y + X, X * Y)):
        for t in (0.25, 1.0, 2.25):
            assert holonomy_return(w, t, 0.0, cfg) == t


def test_matches_closed_form():
    for t, eps in ((1.0, 1e-3), (0.5, 1e-2), (2.0, 0.05), (1.0, 0.2)):
        delta = holonomy_return(W_LINEAR, t, eps, CFG) - t
        assert delta == pytest.approx(closed_delta(t, eps), abs=1e-12)


def test_first_order_displacement():
    eps = 1e-3
    delta = holonomy_return(W_LINEAR, 1.0, eps, CFG) - 1.0
    assert delta > 0
    # Delta - eps*M_1 is second-order content, about (eps pi)^2 / 2
    assert abs(delta - eps * math.pi) <= 1.05 * eps**2 * math.pi**2 / 2


def test_zero_perturbation_gives_zero_displacement():
    (s,) = displacement_table(
        Form1Planar.zero(), (1.0,), (1e-2,), HolonomyConfig(200)
    )
    assert s.delta == 0.0
    assert s.est_error == 0.0


def test_fourth_order_convergence():
    ref = closed_delta(1.0, 0.2)
    err = [
        abs((holonomy_return(W_LINEAR, 1.0, 0.2, HolonomyConfig(n)) - 1.0) - ref)
        for n in (100, 200)
    ]
    assert err[0] / err[1] >= 8.0


def test_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        holonomy_return(W_LINEAR, 0.0, 1e-3, CFG)
    with pytest.raises(ValueError):
        holonomy_return(W_LINEAR, -1.0, 1e-3, CFG)


@pytest.mark.parametrize("t", [1e308, math.nextafter(sys.float_info.max / 2, math.inf), math.inf])
def test_rejects_t_beyond_the_annulus_bound(t):
    # 2t would overflow: refused before the annulus bounds are computed, so
    # no overflow warning is emitted on the way
    with pytest.raises(ValueError, match=r"^t must be at most 8\.98847e\+307$"):
        holonomy_return(W_LINEAR, t, 1e-3, CFG)
    with pytest.raises(ValueError, match=r"^t must be at most "):
        oracle._integrate(W_LINEAR, [1.0, t], 1e-3, 100, fine=1)
    assert oracle.T_MAX == sys.float_info.max / 2 < t


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError, match=r"^eps must be finite$"):
        holonomy_return(W_LINEAR, 1.0, eps, CFG)
    with pytest.raises(ValueError, match=r"^eps must be finite$"):
        oracle._integrate(W_LINEAR, 1.0, [1e-3, eps], 100)


def test_escape_guard_reports_parameters():
    # eps=3 keeps the d rho coefficient positive but grows the leaf far past 2t
    with pytest.raises(LeafEscapedAnnulus) as exc:
        holonomy_return(W_LINEAR, 1.0, 3.0, CFG)
    assert "t=1" in str(exc.value)
    assert "eps=3" in str(exc.value)


def test_vanishing_denominator_reports_parameters():
    # w = -dF makes the coefficient 2 rho (1 - eps), identically zero at eps=1
    w = Form1Planar(-2 * X, -2 * Y)
    with pytest.raises(DenominatorVanished) as exc:
        holonomy_return(w, 1.0, 1.0, CFG)
    assert "eps=1" in str(exc.value)


def test_coefficient_beyond_float_range_is_refused(monkeypatch):
    # refused while the rows are built, before any node table
    def never(*args, **kwargs):
        raise AssertionError("tabulated")
    monkeypatch.setattr(oracle, "_powers", never)
    big = 10**400
    with pytest.raises(NonFiniteEstimate, match="the dy component of omega"):
        displacement_table(Form1Planar(Y, big * X), [1.0], [1e-3], CFG)
    # each component fits a float, their product 10^400 x y in the tables does not
    w = Form1Planar(RationalFunction(10**200 * X, BivarPoly.one() + X),
                    RationalFunction(BivarPoly.one(), X + 10**200))
    with pytest.raises(NonFiniteEstimate, match="a product of omega's components"):
        holonomy_return(w, 1.0, 1e-3, CFG)


# ---------------------------------------------------------------------------
# sampling containers
# ---------------------------------------------------------------------------


def test_config_validation():
    assert DEFAULT_CONFIG.step_count == 20000
    with pytest.raises(ValueError):
        HolonomyConfig(step_count=99)
    assert HolonomyConfig(step_count=10**6).step_count == 10**6
    with pytest.raises(ValueError, match=r"^step_count must be <= 1000000$"):
        HolonomyConfig(step_count=10**6 + 1)
    with pytest.raises(FrozenInstanceError):
        DEFAULT_CONFIG.step_count = 5


@pytest.mark.parametrize("steps", [150.5, 200.0, True, "200"])
def test_config_refuses_non_int_step_count(steps):
    with pytest.raises(TypeError, match=r"^step_count must be an int, got "):
        HolonomyConfig(step_count=steps)


def test_displacement_sample_error_estimate():
    (s,) = displacement_table(W_LINEAR, (1.0,), (1e-3,), HolonomyConfig(500))
    assert s.delta == pytest.approx(closed_delta(1.0, 1e-3), abs=1e-12)
    assert 0 <= s.est_error <= 1e-12


def test_displacement_table_is_row_major():
    cfg = HolonomyConfig(step_count=200)
    rows = displacement_table(W_LINEAR, (0.5, 1.0), (1e-2, 1e-3), cfg)
    assert [(s.t, s.eps) for s in rows] == [
        (0.5, 1e-2),
        (0.5, 1e-3),
        (1.0, 1e-2),
        (1.0, 1e-3),
    ]


@pytest.mark.parametrize(
    "w", [W_CUBIC, example3_oracle().omega], ids=["cubic", "rational"]
)
def test_table_matches_scalar_returns(w):
    cfg = HolonomyConfig(step_count=100)
    t_values, eps_values = (0.25, 0.5), (1e-2, 5e-3, 1e-3)
    rows = displacement_table(w, t_values, eps_values, cfg)
    assert [(s.t, s.eps) for s in rows] == [
        (t, e) for t in t_values for e in eps_values
    ]
    for s in rows:
        coarse = holonomy_return(w, s.t, s.eps, cfg) - s.t
        fine = holonomy_return(w, s.t, s.eps, HolonomyConfig(200)) - s.t
        assert s.delta == fine
        assert s.est_error == abs(fine - coarse)


def recording(monkeypatch):
    """Record each oracle._integrate call as (steps, fine, its (t, eps) lanes)."""
    calls = []
    integrate = oracle._integrate

    def record(w, t, eps, steps, fine=0):
        lanes = zip(*(np.ravel(a).tolist() for a in np.broadcast_arrays(t, eps)))
        calls.append((steps, fine, list(lanes)))
        return integrate(w, t, eps, steps, fine=fine)

    monkeypatch.setattr(oracle, "_integrate", record)
    return calls


@pytest.mark.parametrize("n_t,n_eps", [(1, 1), (2, 3), (4, 2), (0, 2)])
def test_table_integrates_once_per_step_count(monkeypatch, n_t, n_eps):
    # both step counts in one call: every grid lane at n steps, and again at
    # 2n steps as the call's fine lanes; an empty grid steps nowhere, so it
    # builds no node table
    calls = recording(monkeypatch)
    tables = []
    tabulate = oracle._Rows.tabulate

    def record(rows, thetas):
        tables.append(thetas.size)
        return tabulate(rows, thetas)

    monkeypatch.setattr(oracle._Rows, "tabulate", record)
    t_values = [0.5 + 0.1 * i for i in range(n_t)]
    eps_values = [1e-3 * (i + 1) for i in range(n_eps)]
    rows = displacement_table(W_LINEAR, t_values, eps_values, HolonomyConfig(100))
    assert len(rows) == n_t * n_eps
    table = [(t, e) for t in t_values for e in eps_values]
    if rows:
        assert calls == [(100, n_t * n_eps, table)]
    else:
        assert tables == []


def test_empty_lane_sets_take_no_step(monkeypatch):
    # every entry point returns at once on zero lanes: a table built would
    # mean a revolution of RK4 steps over empty arrays
    def tabulate(rows, thetas):
        raise AssertionError("a node table was built for zero lanes")

    monkeypatch.setattr(oracle._Rows, "tabulate", tabulate)
    for t in ([], np.empty((0, 3))):
        returned = holonomy_return(W_LINEAR, t, 0.01)
        assert returned.shape == np.shape(t)
    assert displacement_table(W_LINEAR, [], [0.01]) == []
    assert displacement_table(W_LINEAR, [1.0], []) == []
    assert oracle.grid_estimates(W_LINEAR, [], [0.01], 2) == ([], [])
    rho, rho_fine = oracle._integrate(W_LINEAR, [], [], 100, fine=0)
    assert rho.size == rho_fine.size == 0


FUSED_T, FUSED_EPS = (0.25, 0.5), (1e-2, 5e-3, 1e-3)


@pytest.mark.parametrize("max_order", [1, 3])
@pytest.mark.parametrize(
    "spec",
    [cli.ProblemSpec(W_CUBIC, True, 3, (), ()), example3_oracle()],
    ids=["cubic", "rational"],
)
def test_fused_report_equals_library_calls(spec, max_order):
    # at max_order 1 the shared ladder (5 rungs for Richardson) is longer than
    # the fit's 3 rungs, so the fit must read only its own leading rungs
    cfg = HolonomyConfig(step_count=100)
    spec = replace(spec, max_order=max_order, t_samples=FUSED_T, eps_samples=FUSED_EPS)
    report = cli.cmd_oracle(spec, cfg, richardson=True)
    table = displacement_table(spec.omega, FUSED_T, FUSED_EPS, cfg)
    assert report.oracle_table["rows"] == [
        [s.t, s.eps, s.delta, s.est_error] for s in table
    ]
    assert len(report.estimates) == len(FUSED_T)
    for t, entry in zip(FUSED_T, report.estimates):
        est = melnikov_estimate(spec.omega, t, max_order, cfg)
        assert entry["t"] == t
        assert entry["coefficients"] == list(est)
        assert entry["residual"] == est.residual
        assert entry["condition_number"] == est.condition_number
        assert entry["ill_conditioned"] == est.ill_conditioned
        assert entry["richardson_m1"] == first_melnikov_richardson(spec.omega, t, cfg)


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("n_t,n_eps", [(1, 1), (2, 3), (4, 2)])
def test_oracle_report_integrates_twice(monkeypatch, n_t, n_eps, richardson):
    # the n-step and the 2n-step integration are one _integrate call, whose
    # node tables are built once per chunk of n-step steps
    calls = recording(monkeypatch)
    tables = []
    tabulate = oracle._Rows.tabulate

    def counting(self, thetas):
        tables.append(thetas.size)
        return tabulate(self, thetas)

    monkeypatch.setattr(oracle._Rows, "tabulate", counting)
    spec = cli.ProblemSpec(
        W_LINEAR,
        True,
        3,
        tuple(0.5 + 0.1 * i for i in range(n_t)),
        tuple(1e-3 * (i + 1) for i in range(n_eps)),
    )
    report = cli.cmd_oracle(spec, HolonomyConfig(100), richardson=richardson)
    assert len(report.oracle_table["rows"]) == n_t * n_eps
    assert len(report.estimates) == n_t
    ((steps, fine, lanes),) = calls
    assert (steps, fine) == (100, n_t * n_eps)
    # the table lanes lead, so they are the 2n-step lanes and a failing one
    # is named before any ladder lane's
    table = [(t, e) for t in spec.t_samples for e in spec.eps_samples]
    assert lanes[: len(table)] == table
    assert len(lanes) == len(table) + n_t * 7  # 2 * 3 + 1 rungs per t
    # two chunks of quarter-step nodes: 64 steps, then the last 36
    assert tables == [4 * 64 + 1, 4 * 36 + 1]


def test_table_names_the_escaping_lane():
    with pytest.raises(LeafEscapedAnnulus) as exc:
        displacement_table(W_LINEAR, (1.0,), (1e-3, 3.0), CFG)
    assert "t=1" in str(exc.value)
    assert "eps=3" in str(exc.value)
    assert "eps=0.001" not in str(exc.value)


def test_holonomy_return_broadcasts_lanes():
    t = np.array([0.25, 0.5, 1.0])
    out = holonomy_return(W_LINEAR, t, 1e-3, CFG)
    assert out.shape == (3,)
    for ti, got in zip(t, out):
        assert got == holonomy_return(W_LINEAR, float(ti), 1e-3, CFG)
    assert isinstance(holonomy_return(W_LINEAR, 1.0, 1e-3, CFG), float)


def test_csv_output():
    buf = io.StringIO()
    samples = [
        DisplacementSample(t=1.0, eps=0.001, delta=0.25, est_error=1e-15),
        DisplacementSample(t=0.5, eps=0.01, delta=-0.125, est_error=0.0),
    ]
    write_samples_csv(samples, buf)
    assert buf.getvalue() == (
        "t,eps,delta,est_error\n"
        "1.0,0.001,0.25,1e-15\n"
        "0.5,0.01,-0.125,0.0\n"
    )
    assert CSV_COLUMNS == ("t", "eps", "delta", "est_error")


# ---------------------------------------------------------------------------
# Melnikov coefficient fits
# ---------------------------------------------------------------------------


def test_melnikov_fit_linear_form():
    est = melnikov_estimate(W_LINEAR, 1.0, 3, CFG)
    assert est[0] == pytest.approx(math.pi, rel=1e-8)
    assert est[1] == pytest.approx(math.pi**2 / 2, rel=1e-4)
    # eps^3 coefficient of the closed form: pi^3/6 + pi/32
    assert est[2] == pytest.approx(math.pi**3 / 6 + math.pi / 32, rel=1e-2)
    assert not est.ill_conditioned
    assert est.residual < 1e-12
    assert len(est) == 3
    assert "MelnikovEstimates" in repr(est)


def test_melnikov_fit_single_order_carries_m2_bias():
    # on the fixed ladder 1e-3 * 2^-j a 1-term model absorbs the eps^2 term
    # M_2 = pi^2 / 2 of y dx into its M_1; a 2-term model separates it
    one = melnikov_estimate(W_LINEAR, 1.0, 1, CFG)
    assert 1e-4 < one[0] / math.pi - 1 < 1e-2
    assert melnikov_estimate(W_LINEAR, 1.0, 2, CFG)[0] == pytest.approx(
        math.pi, rel=1e-5
    )


def test_melnikov_fit_silent_form():
    # y^2 dx moves nothing; the fitted values are pure integration noise,
    # amplified by eps0^-k per order
    est = melnikov_estimate(Form1Planar(Y * Y, ZERO), 1.0, 3, CFG)
    assert abs(est[0]) < 1e-9
    assert abs(est[1]) < 1e-5
    assert abs(est[2]) < 1e-2
    assert est.residual < 1e-12


def test_melnikov_fit_scales_with_t():
    est = melnikov_estimate(W_LINEAR, 2.0, 3, CFG)
    assert est[0] == pytest.approx(2.0 * math.pi, rel=1e-8)


def test_ill_conditioned_flag():
    cfg = HolonomyConfig(step_count=500)
    est = melnikov_estimate(W_LINEAR, 1.0, 9, cfg)
    assert est.ill_conditioned
    assert est.condition_number > 1e8
    assert not melnikov_estimate(W_LINEAR, 1.0, 3, cfg).ill_conditioned


def test_melnikov_fit_validation():
    with pytest.raises(ValueError):
        melnikov_estimate(W_LINEAR, 1.0, 0, CFG)


def test_richardson_variant():
    got = first_melnikov_richardson(W_LINEAR, 1.0, CFG)
    assert got == pytest.approx(math.pi, rel=1e-8)


def test_estimates_container():
    est = MelnikovEstimates([1.5, 2.5], 1e-10, 42.0, False)
    assert list(est) == [1.5, 2.5]
    assert est.residual == 1e-10
    assert est.condition_number == 42.0
    assert not est.ill_conditioned


# ---------------------------------------------------------------------------
# rational fixture
# ---------------------------------------------------------------------------


def test_darboux_fixture_silent():
    spec = example3_oracle()
    samples = displacement_table(
        spec.omega, spec.t_samples, spec.eps_samples, CFG
    )
    assert max(abs(s.delta) for s in samples) < 1e-8
    assert all(s.est_error <= 1e-12 for s in samples)
    assert cli.load_fixture("example3-oracle.json")["expect"]["max_abs_delta"] == 1e-8
    assert len(samples) == 4
    assert {(s.t, s.eps) for s in samples} == {
        (0.25, 1e-2),
        (0.25, 1e-3),
        (0.5, 1e-2),
        (0.5, 1e-3),
    }


def test_rational_coefficients_integrate():
    w = Form1Planar(RationalFunction(F, BivarPoly.one() + X), RationalFunction(0))
    # first integral F (1+x)^eps: the return value solves r = t (1+sqrt(r))^-eps (1+sqrt(t))^eps;
    # to first order Delta ~ 0, checked tightly by the fixture above
    out = holonomy_return(w, 0.25, 1e-2, CFG)
    assert out == pytest.approx(0.25, abs=1e-10)


# ---------------------------------------------------------------------------
# node tables against direct evaluation
# ---------------------------------------------------------------------------


def reference_forms():
    """Seeded polynomial forms of degree <= 5, two rational forms, a form
    whose powers of rho have a gap and the zero form.

    The second rational form has both components rational, and its D is
    negative on every annulus the lanes reach.  y dx + x^4 y dy has table
    columns for rho^1 and rho^5 only, so its stages gather the powers they
    read; the zero form has no column at all.
    """
    rng = random.Random(1212)
    forms = [random_form(rng, deg) for deg in (1, 2, 3, 4, 5, 5)]
    forms.append(example3_oracle().omega)
    forms.append(
        Form1Planar(
            RationalFunction(Y, X - 2), RationalFunction(X * X - Y, 3 + Y * Y)
        )
    )
    forms.append(Form1Planar(Y, X**4 * Y))
    forms.append(Form1Planar.zero())
    return forms


REFERENCE_FORMS = reference_forms()
REFERENCE_T = np.linspace(0.25, 0.8, 20)  # example3 has a pole at x = -1
REFERENCE_EPS = np.geomspace(1e-4, 2e-3, 20)


@pytest.mark.parametrize("steps", [100, 400])
@pytest.mark.parametrize("index", range(len(REFERENCE_FORMS)))
def test_node_tables_match_direct_evaluation(index, steps):
    w = REFERENCE_FORMS[index]
    want = reference_rho(w, REFERENCE_T, REFERENCE_EPS, steps)
    for lanes in (1, 8, 20):
        got = np.sqrt(
            holonomy_return(
                w, REFERENCE_T[:lanes], REFERENCE_EPS[:lanes], HolonomyConfig(steps)
            )
        )
        np.testing.assert_allclose(got, want[:lanes], rtol=1e-14, atol=0)


INTEGRATE_BITS = Path(__file__).parent / "golden" / "integrate_bits.json"


def integrate_bits() -> list[dict]:
    """float.hex of the n-step and 2n-step rho of every reference form at 100
    and 130 steps, with every one of the 20 reference lanes also at 2n steps.

    tests/golden/integrate_bits.json holds these records, written by
    json.dump(integrate_bits(), fh, indent=1) from this module.
    """
    records = []
    for w in REFERENCE_FORMS:
        for steps in (100, 130):
            rho, rho_fine = oracle._integrate(
                w, REFERENCE_T, REFERENCE_EPS, steps, fine=REFERENCE_T.size
            )
            records.append({
                "form": str(w),
                "steps": steps,
                "rho": [x.hex() for x in rho.tolist()],
                "rho_fine": [x.hex() for x in rho_fine.tolist()],
            })
    return records


def test_integrate_matches_golden_bits():
    # the other bit-for-bit tests compare the loop with itself; this pins the
    # absolute bits of both step counts on every reference form
    want = json.loads(INTEGRATE_BITS.read_text(encoding="utf-8"))
    assert integrate_bits() == want


@pytest.mark.parametrize("index", range(len(REFERENCE_FORMS)))
def test_chunk_size_does_not_change_a_bit(monkeypatch, index):
    w, steps = REFERENCE_FORMS[index], 100
    want, _ = oracle._integrate(w, REFERENCE_T, REFERENCE_EPS, steps)
    for chunk in (1, 7, steps + 1):
        monkeypatch.setattr(oracle, "_CHUNK_STEPS", chunk)
        got, none = oracle._integrate(w, REFERENCE_T, REFERENCE_EPS, steps)
        assert np.array_equal(got, want)
        assert none.size == 0


@pytest.mark.parametrize("steps", [100, 130])  # 130 ends in a partial chunk
@pytest.mark.parametrize("index", range(len(REFERENCE_FORMS)))
def test_fused_runs_match_separate_runs_bit_for_bit(monkeypatch, index, steps):
    w = REFERENCE_FORMS[index]
    for lanes in (1, 8, 20):
        t, eps = REFERENCE_T[:lanes], REFERENCE_EPS[:lanes]
        coarse, _ = oracle._integrate(w, t, eps, steps)
        fine, _ = oracle._integrate(w, t, eps, 2 * steps)
        for chunk in (1, 7, steps + 1):
            monkeypatch.setattr(oracle, "_CHUNK_STEPS", chunk)
            for k in sorted({1, lanes}):
                rho, rho_fine = oracle._integrate(w, t, eps, steps, fine=k)
                assert np.array_equal(rho, coarse)
                assert np.array_equal(rho_fine, fine[:k])


def outcome(call):
    """The class and message of the oracle error that call() raises."""
    with pytest.raises((LeafEscapedAnnulus, DenominatorVanished)) as exc:
        call()
    return exc.type, str(exc.value)


POLE = RationalFunction(BivarPoly.one(), X - Fraction(1, 2))


def fine_only_pole(steps: int) -> Form1Planar:
    """dx = 1 / (a x + b y - c): the unit circle enters the band a x + b y > c
    only within h / 8 of the quarter node 21 h / 4, a node of the 2n-step
    stages alone."""
    h = 2.0 * math.pi / steps
    phi, half_width = 21 * h / 4, h / 8
    band = (
        Fraction(math.cos(phi)) * X
        + Fraction(math.sin(phi)) * Y
        - Fraction(math.cos(half_width))
    )
    return Form1Planar(RationalFunction(BivarPoly.one(), band), ZERO)


def fine_only_dip(steps: int) -> Form1Planar:
    """dx = 1 / ((1 + 1e-7) F - l^2), l = a x + b y the unit linear form at
    the quarter node 101 h / 4: the denominator stays positive, but its
    minimum, 1e-7 rho^2, lies on that node of the 2n-step stages alone, and
    the slope there throws a 2n-step lane out of the annulus at its middle
    step end."""
    h = 2.0 * math.pi / steps
    phi = 101 * h / 4
    line = Fraction(math.cos(phi)) * X + Fraction(math.sin(phi)) * Y
    den = (1 + Fraction(1, 10**7)) * F - line * line
    return Form1Planar(RationalFunction(BivarPoly.one(), den), ZERO)


PARITY_CASES = {
    "escape": (W_LINEAR, (1.0, 1.0), (1e-3, 3.0), 2),
    "pole-dx": (Form1Planar(POLE, ZERO), (1.0, 0.2), (1e-3, 1e-3), 2),
    "pole-both": (Form1Planar(POLE, POLE), (0.2, 1.0), (1e-3, 1e-3), 2),
    # the n-step lane passes, its 2n-step copy meets the pole
    "fine-only": (fine_only_pole(100), (1.0,), (1e-9,), 1),
    # the 2n-step lane meets the pole at theta 0.33, before the n-step lane
    # t = 1.2 leaves the band at 0.75; the n-step run ran first, so it wins
    "fine-first": (fine_only_pole(100), (1.0, 1.2), (1e-9, 1e-9), 1),
    # the n-step lane passes, its 2n-step copy leaves the annulus at the
    # middle step end of the n-step step that starts at quarter node 100
    "fine-only-escape": (fine_only_dip(100), (1.0,), (1e-5,), 1),
}


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("case", PARITY_CASES)
def test_fused_errors_match_separate_runs(monkeypatch, case, chunk):
    w, t, eps, k = PARITY_CASES[case]
    t, eps, steps = np.array(t), np.array(eps), 100
    monkeypatch.setattr(oracle, "_CHUNK_STEPS", chunk)
    want = outcome(
        lambda: (
            oracle._integrate(w, t, eps, steps),
            oracle._integrate(w, t[:k], eps[:k], 2 * steps),
        )
    )
    assert outcome(lambda: oracle._integrate(w, t, eps, steps, fine=k)) == want
    if case == "fine-only":
        oracle._integrate(w, t, eps, steps)  # the n-step run alone passes
        assert "theta=0.329867" in want[1]
    if case == "fine-first":
        assert "theta=0.753982, t=1.2" in want[1]
    if case == "pole-both":
        assert "of the dx component" in want[1]


def test_fine_only_escape_leaves_at_a_middle_step_end():
    w, t, eps, _ = PARITY_CASES["fine-only-escape"]
    oracle._integrate(w, t, eps, 100)  # the n-step run alone passes
    with pytest.raises(LeafEscapedAnnulus, match="theta=1.602212, t=1,"):
        oracle._integrate(w, t, eps, 200)  # quarter node 102 of the n-step run


def test_table_memory_does_not_grow_with_steps():
    # one chunk of tables and checks at a time: unchunked, the cos and
    # the sin power tables alone would each hold 62 x 4001 floats (2 MB) at
    # 2000 steps; the 2n-step lanes (fine=1) double the nodes of a chunk
    w = Form1Planar(X**60 + Y, X * Y**59)
    for fine in (0, 1):
        # an untraced first call, so that one-time costs such as numpy's
        # import cannot inflate the first peak
        oracle._integrate(w, 1.0, 1e-3, 200, fine=fine)
        peaks = []
        for steps in (200, 2000):
            tracemalloc.start()
            try:
                oracle._integrate(w, 1.0, 1e-3, steps, fine=fine)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 2_000_000
