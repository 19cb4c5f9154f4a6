"""
Godbillon-Vey data for a deformed first integral
================================================

A silent perturbation of dF + eps w = 0 carries a formal first integral
F_eps and a Godbillon-Vey sequence certifying integrability order by
order.  This walkthrough assembles both for w = y^2 dx.
"""

from folint.abelian import CIRCLE
from folint.algebra import BivarPoly, X, Y
from folint.exterior import Form1Planar, series_to_text
from folint.francoise import melnikov_sequence
from folint.godbillon import (
    assemble_omega,
    classical_gv_forms,
    first_integral,
    gv_pairs_from_francoise,
    integrability_defect,
    integrating_factor,
    pairs_from_first_integral,
)

F = X * X + Y * Y
w = Form1Planar(Y * Y, BivarPoly.zero())
k = 3

seq = melnikov_sequence(CIRCLE, w, k + 1).sequence

# ---------------------------------------------------------------------------
# The relative-exactness certificates (g_i, r_i) turn into Godbillon-Vey
# pairs by an alternating sign twist.
# ---------------------------------------------------------------------------

for i, pair in enumerate(gv_pairs_from_francoise(seq), start=1):
    print(f"G_{i} = {pair.G}   R_{i} = {pair.R}")
print()

# ---------------------------------------------------------------------------
# The first integral F_eps = F + sum eps^i c_i and its total differential.
# ---------------------------------------------------------------------------

fint = first_integral(F, seq, k)
print("F_eps =", fint.to_text())

# ---------------------------------------------------------------------------
# The deformation form Omega = dF + eps w together with the pair data is
# integrable modulo weight k+1: the defect Omega ^ d(Omega) vanishes.
# ---------------------------------------------------------------------------

pairs = gv_pairs_from_francoise(seq)
omega = assemble_omega(w, pairs, k)
defect = integrability_defect(omega, k)
print("integrability defect is zero:", defect.is_zero())

# Dropping the top pair leaves the weight-(k+1) obstruction visible.
partial = assemble_omega(w, pairs[:k], k)
print("defect without the top certificate:", integrability_defect(partial, k))
print()

# ---------------------------------------------------------------------------
# Omega = N d(F_eps) for a unit series N = 1 + eps n_1 + ...; the factor is
# certified against the assembled form before being returned.
# ---------------------------------------------------------------------------

n = integrating_factor(omega, fint, k)
print("integrating factor N =", series_to_text(n))

# The construction round-trips: the certificates can be read back off the
# first integral alone.
recovered = pairs_from_first_integral(fint, w)
print("pairs recovered from F_eps match:", recovered == list(seq.pairs[:k]))
print()

# ---------------------------------------------------------------------------
# Classical Godbillon-Vey forms for the degree-one jet: eta_0 = dF/r_1 with
# d eta_0 = eta_0 ^ eta_1 and d eta_1 = eta_0 ^ eta_2.
# ---------------------------------------------------------------------------

gv = classical_gv_forms(fint, 2)
eta = gv.eta
print("eta_0 =", eta[0])
print("d eta_0 - eta_0 ^ eta_1 = 0:", (eta[0].d() - eta[0].wedge(eta[1])).is_zero())
print("d eta_1 - eta_0 ^ eta_2 = 0:", (eta[1].d() - eta[0].wedge(eta[2])).is_zero())
