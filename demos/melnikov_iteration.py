"""
Iterated Melnikov functions for a perturbed circle foliation
============================================================

The unperturbed foliation is the level set family of F = x^2 + y^2.  A
perturbation one-form w either obstructs at some order (the first nonzero
Melnikov function) or keeps splitting as g dF + dr forever.
"""

from folint.abelian import CIRCLE, period_of_form
from folint.algebra import BivarPoly, Y
from folint.exterior import Form1Planar
from folint.francoise import decompose, melnikov_sequence

ZERO = BivarPoly.zero()

# ---------------------------------------------------------------------------
# A perturbation with an order-one obstruction: w = y dx.
# Its period along the circle of radius sqrt(t) is -pi t, so M_1 = pi t.
# ---------------------------------------------------------------------------

w = Form1Planar(Y, ZERO)
print("w =", w)
print("period of w:", period_of_form(w))

res = melnikov_sequence(CIRCLE, w, 4)
print("first nonzero Melnikov index:", res.first_nonzero)
print("M_1 =", res.melnikov[0])
print()

# ---------------------------------------------------------------------------
# A silent perturbation: w = y^2 dx has zero period (odd power of y after
# substituting the circle parametrization), and so do all of its iterates.
# Each step produces one relative-exactness certificate (g_i, r_i).
# ---------------------------------------------------------------------------

w = Form1Planar(Y * Y, ZERO)
print("w =", w)

res = melnikov_sequence(CIRCLE, w, 6)
print("computed orders:", res.order_reached(), "- all Melnikov values zero:",
      all(m.is_zero() for m in res.melnikov))
for i, pair in enumerate(res.sequence.pairs, start=1):
    print(f"  g_{i} = {pair.g}   r_{i} = {pair.r}")

# The g_i follow the factorial pattern (-1)^i x^i / i!: the full deformation
# integrates to F_eps = e^{eps x}(y^2 + 2x/eps - 2/eps^2) and never produces
# a limit cycle at any perturbation order.
print()

# ---------------------------------------------------------------------------
# One splitting step by hand.  decompose() returns the certificate for a
# zero-period form and a NoSolution witness (the nonzero period) otherwise.
# ---------------------------------------------------------------------------

split = decompose(Form1Planar(Y * Y, ZERO))
print("split of y^2 dx: g =", split.g, ", r =", split.r)
print("certificate checks out:",
      split.verify(BivarPoly.one(), Form1Planar(Y * Y, ZERO)))

blocked = decompose(Form1Planar(Y, ZERO))
print("split of y dx:", blocked)
