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
import math
from dataclasses import FrozenInstanceError

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
    displacement_table,
    first_melnikov_richardson,
    holonomy_return,
    melnikov_estimate,
    write_samples_csv,
)

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


# ---------------------------------------------------------------------------
# sampling containers
# ---------------------------------------------------------------------------


def test_config_validation():
    assert DEFAULT_CONFIG.step_count == 20000
    with pytest.raises(ValueError):
        HolonomyConfig(step_count=99)
    with pytest.raises(FrozenInstanceError):
        DEFAULT_CONFIG.step_count = 5


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


@pytest.mark.parametrize("n_t,n_eps", [(1, 1), (2, 3), (4, 2), (0, 2)])
def test_table_integrates_once_per_step_count(monkeypatch, n_t, n_eps):
    calls = []
    integrate = oracle._integrate

    def counting(w, t, eps, steps):
        calls.append(steps)
        return integrate(w, t, eps, steps)

    monkeypatch.setattr(oracle, "_integrate", counting)
    t_values = [0.5 + 0.1 * i for i in range(n_t)]
    eps_values = [1e-3 * (i + 1) for i in range(n_eps)]
    rows = displacement_table(W_LINEAR, t_values, eps_values, HolonomyConfig(100))
    assert len(rows) == n_t * n_eps
    assert calls == ([100, 200] if rows else [])


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


def test_melnikov_fit_single_order_needs_small_grid():
    # at eps0 = 1e-3 a 1-term model carries the full M_2 bias; shrinking the
    # grid pushes the bias below the target
    est = melnikov_estimate(W_LINEAR, 1.0, 1, CFG, eps0=1e-7)
    assert est[0] == pytest.approx(math.pi, rel=1e-6)


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


def test_residual_decreases_with_grid():
    coarse = melnikov_estimate(W_LINEAR, 1.0, 2, CFG, eps0=1e-3)
    fine = melnikov_estimate(W_LINEAR, 1.0, 2, CFG, eps0=1e-4)
    assert fine.residual < coarse.residual / 10


def test_ill_conditioned_flag():
    cfg = HolonomyConfig(step_count=500)
    est = melnikov_estimate(W_LINEAR, 1.0, 9, cfg)
    assert est.ill_conditioned
    assert est.condition_number > 1e8
    assert not melnikov_estimate(W_LINEAR, 1.0, 3, cfg).ill_conditioned


def test_melnikov_fit_validation():
    with pytest.raises(ValueError):
        melnikov_estimate(W_LINEAR, 1.0, 0, CFG)
    for eps0 in (0.0, -1e-3):
        with pytest.raises(ValueError, match="eps0 must be positive"):
            melnikov_estimate(W_LINEAR, 1.0, 2, CFG, eps0=eps0)


def test_richardson_variant():
    got = first_melnikov_richardson(W_LINEAR, 1.0, CFG)
    assert got == pytest.approx(math.pi, rel=1e-8)
    with pytest.raises(ValueError):
        first_melnikov_richardson(W_LINEAR, 1.0, CFG, levels=0)
    # the ladder eps0 * 2^-j shared with the fit: zero would divide Delta by
    # zero and a negative eps0 would integrate the mirrored ladder unnoticed
    for eps0 in (0.0, -1e-3):
        with pytest.raises(ValueError, match="eps0 must be positive"):
            first_melnikov_richardson(W_LINEAR, 1.0, CFG, eps0=eps0)


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
