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
integration per step count.

The polar equation is the circle's, so no entry point takes a Hamiltonian;
cli.parse_problem checks the F of a problem document.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import cos, sin, pi

import numpy as np

from .exterior import Form1Planar

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
    "write_samples_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("t", "eps", "delta", "est_error")

_CONDITION_LIMIT = 1e8


class LeafEscapedAnnulus(RuntimeError):
    """The integrated leaf left t/2 < x^2+y^2 < 2t; eps too large for t."""


class DenominatorVanished(RuntimeError):
    """The d rho coefficient of dF + eps*w reached zero; leaf not a graph."""


class NonFiniteEstimate(RuntimeError):
    """The Melnikov fit overflowed float64; t is too large for the oracle."""


@dataclass(frozen=True)
class HolonomyConfig:
    """Fixed-step integrator settings."""

    step_count: int = 20000

    def __post_init__(self) -> None:
        if self.step_count < 100:
            raise ValueError("step_count must be >= 100")


DEFAULT_CONFIG = HolonomyConfig()


@dataclass(frozen=True)
class DisplacementSample:
    """One measured Delta(t, eps); est_error compares n and 2n step runs."""

    t: float
    eps: float
    delta: float
    est_error: float


def _integrate(w: Form1Planar, t, eps, steps: int) -> np.ndarray:
    """rho(2pi) for every (t, eps) lane; t and eps broadcast together.

    Each lane starts from rho(0) = sqrt(t) and must stay in its own annulus
    t/2 < rho^2 < 2t.  The result has the broadcast shape of t and eps.
    """
    t, eps = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(eps, dtype=float)
    )
    shape = t.shape
    t, eps = t.ravel(), eps.ravel()
    if not np.all(t > 0):
        raise ValueError("t must be positive")
    p_fn = w.p.as_callable()
    q_fn = w.q.as_callable()
    lo, hi = 0.5 * t, 2.0 * t
    h = 2.0 * pi / steps

    def slope(theta: float, rho: np.ndarray) -> np.ndarray:
        c, s = cos(theta), sin(theta)
        x = rho * c
        y = rho * s
        pv = p_fn(x, y)
        qv = q_fn(x, y)
        den = 2.0 * rho + eps * (pv * c + qv * s)
        ok = den > 0.0  # false on NaN too
        if not ok.all():
            j = int(np.argmin(ok))
            raise DenominatorVanished(
                f"d rho coefficient vanished at theta={theta:.6f}, "
                f"t={t[j]:g}, eps={eps[j]:g}"
            )
        return -eps * rho * (qv * c - pv * s) / den

    rho = np.sqrt(t)
    # the guards stop every non-finite lane, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(steps):
            theta = i * h
            k1 = slope(theta, rho)
            k2 = slope(theta + 0.5 * h, rho + 0.5 * h * k1)
            k3 = slope(theta + 0.5 * h, rho + 0.5 * h * k2)
            k4 = slope(theta + h, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            sq = rho * rho
            inside = (sq > lo) & (sq < hi)  # false on NaN too
            if not inside.all():
                j = int(np.argmin(inside))
                raise LeafEscapedAnnulus(
                    f"leaf left the annulus ({lo[j]:g}, {hi[j]:g}) at theta="
                    f"{theta + h:.6f}, t={t[j]:g}, eps={eps[j]:g}"
                )
    return rho.reshape(shape)


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
    rho = _integrate(w, t, eps, cfg.step_count)
    return rho * rho


def displacement_table(
    w: Form1Planar,
    t_values,
    eps_values,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
) -> list[DisplacementSample]:
    """Samples for the whole (t, eps) grid, row-major in the given order.

    Delta is the doubled-step return; est_error is its difference from the
    cfg run.  Each step count is one integration over every grid point.
    """
    grid = [(t, eps) for t in t_values for eps in eps_values]
    if not grid:  # zero lanes would still step through two revolutions
        return []
    t_lane, eps_lane = np.array(grid, dtype=float).reshape(-1, 2).T
    coarse = holonomy_return(w, t_lane, eps_lane, cfg) - t_lane
    fine = (
        holonomy_return(w, t_lane, eps_lane, HolonomyConfig(2 * cfg.step_count))
        - t_lane
    )
    return [
        DisplacementSample(t=t, eps=eps, delta=delta, est_error=err)
        for (t, eps), delta, err in zip(
            grid, fine.tolist(), np.abs(fine - coarse).tolist()
        )
    ]


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


def _eps_ladder(w: Form1Planar, t: float, eps0: float, rungs: int, cfg):
    """The grid eps_j = eps0 * 2^-j, j < rungs, and Delta(t, eps_j) on it."""
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    grid = np.array([eps0 * 2.0 ** (-j) for j in range(rungs)])
    rho = _integrate(w, t, grid, cfg.step_count)
    return grid, rho * rho - t


def melnikov_estimate(
    w: Form1Planar,
    t: float,
    orders: int,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
    eps0: float = 1e-3,
) -> MelnikovEstimates:
    """Least-squares jet of Delta(t, .): coefficients of eps^1..eps^orders.

    Samples the geometric grid eps_j = eps0 * 2^-j for j = 0..2*orders and
    fits the model without constant term; the fit runs in the rescaled
    variable eps/eps0 so the reported condition number reflects the model,
    not the units.  A fit that overflows float64 raises NonFiniteEstimate.
    """
    if orders < 1:
        raise ValueError("orders must be >= 1")
    grid, deltas = _eps_ladder(w, t, eps0, 2 * orders + 1, cfg)
    u = grid / eps0
    design = np.vander(u, orders + 1, increasing=True)[:, 1:]
    scaled, _, rank, sv = np.linalg.lstsq(design, deltas, rcond=None)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.sqrt(np.mean((design @ scaled - deltas) ** 2)))
        coefficients = scaled / eps0 ** np.arange(1, orders + 1)
    if not np.all(np.isfinite([residual, *coefficients])):
        raise NonFiniteEstimate(f"the eps fit at t={t:g} overflows float64")
    return MelnikovEstimates(
        coefficients,
        residual,
        condition,
        rank < orders or condition > _CONDITION_LIMIT,
    )


def first_melnikov_richardson(
    w: Form1Planar,
    t: float,
    cfg: HolonomyConfig = DEFAULT_CONFIG,
    eps0: float = 1e-3,
    levels: int = 4,
) -> float:
    """M_1(t) by Richardson extrapolation of Delta/eps on a halving grid.

    Alternative to the least-squares fit; successive columns cancel the
    eps^1, eps^2, ... corrections of Delta(t, eps)/eps.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    grid, deltas = _eps_ladder(w, t, eps0, levels + 1, cfg)
    table = list(deltas / grid)
    for col in range(1, levels + 1):
        factor = 2.0**col
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    return float(table[0])


def write_samples_csv(samples, fileobj) -> None:
    """Write rows (t, eps, delta, est_error) with a header line."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in samples:
        writer.writerow([repr(s.t), repr(s.eps), repr(s.delta), repr(s.est_error)])
