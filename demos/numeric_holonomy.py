"""
Numeric holonomy versus symbolic Melnikov coefficients
======================================================

The return map of the perturbed foliation is integrated with a fixed-step
RK4 scheme; fitting the displacement at several perturbation sizes recovers
the Melnikov coefficients computed symbolically.
"""

import math

from folint.abelian import CIRCLE
from folint.algebra import BivarPoly, Y
from folint.cli import load_fixture, parse_problem
from folint.exterior import Form1Planar
from folint.francoise import melnikov_sequence
from folint.oracle import (
    DEFAULT_CONFIG,
    HolonomyConfig,
    displacement_table,
    holonomy_return,
    melnikov_estimate,
)

w = Form1Planar(Y, BivarPoly.zero())

# ---------------------------------------------------------------------------
# The displacement Delta(t, eps) = return(t) - t for w = y dx has the closed
# form t (exp(4 pi eps / sqrt(16 - eps^2)) - 1), which makes this fixture a
# sharp accuracy probe for the integrator.
# ---------------------------------------------------------------------------

eps_lanes = (1e-1, 1e-2, 1e-3)
returns = holonomy_return(w, 1.0, eps_lanes, DEFAULT_CONFIG)  # one lane per eps
for eps, delta in zip(eps_lanes, returns - 1.0):
    closed = math.exp(4 * math.pi * eps / math.sqrt(16 - eps * eps)) - 1.0
    print(f"eps = {eps:7.0e}   delta = {delta:+.12e}   error = {abs(delta - closed):.1e}")
print()

# ---------------------------------------------------------------------------
# A displacement table over a (t, eps) grid, row-major in t.
# ---------------------------------------------------------------------------

table = displacement_table(w, [0.5, 1.0], [1e-2, 1e-3], DEFAULT_CONFIG)
for row in table:
    print(f"t = {row.t:.2f}  eps = {row.eps:.0e}  delta = {row.delta:+.9e}")
print()

# ---------------------------------------------------------------------------
# Fitting delta/eps against a polynomial in eps recovers M_1, M_2, M_3.
# Symbolically M_1(t) = pi t for this form, so M_1(1) = pi.
# ---------------------------------------------------------------------------

est = melnikov_estimate(w, 1.0, 3, DEFAULT_CONFIG)
print("fitted  M_1(1), M_2(1), M_3(1):", [f"{v:.6f}" for v in list(est)])
print("exact   M_1(1) = pi           :", f"{math.pi:.6f}")

symbolic = melnikov_sequence(CIRCLE, w, 1).melnikov[0].eval_float(1.0)
print("symbolic M_1(1) matches to", f"{abs(est[0] - symbolic):.1e}")
print()

# ---------------------------------------------------------------------------
# Silent perturbations stay silent numerically: for w = y^2 dx every fitted
# coefficient is noise-level, matching the all-zero symbolic sequence.
# ---------------------------------------------------------------------------

silent = Form1Planar(Y * Y, BivarPoly.zero())
est = melnikov_estimate(silent, 1.0, 3, DEFAULT_CONFIG)
print("silent form estimates:", [f"{v:.1e}" for v in list(est)])
print()

# ---------------------------------------------------------------------------
# The shipped example3-oracle fixture w = F dx / (1+x) has the first integral
# F (1+x)^eps, so its displacement vanishes identically: every row of its
# table is integration error.
# ---------------------------------------------------------------------------

spec = parse_problem(load_fixture("example3-oracle.json"))
table = displacement_table(
    spec.omega, spec.t_samples, spec.eps_samples, HolonomyConfig(step_count=4000)
)
print("example3-oracle worst |delta|:", f"{max(abs(row.delta) for row in table):.2e}")
