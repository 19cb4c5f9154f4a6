"""Exact Melnikov functions and Godbillon-Vey data for circle perturbations.

The symbolic pipeline works over exact rational arithmetic: iterated
relative-exactness splittings of dF + eps*w = 0 around F = x^2 + y^2, the
Melnikov values they certify, and the Godbillon-Vey assembly with its
integrability checks.  A fixed-step numeric oracle integrates the same
foliation and recovers the leading coefficients independently.

Every name is imported from the module that defines it (folint.algebra,
folint.abelian, folint.exterior, folint.francoise, folint.godbillon,
folint.oracle, folint.cli); the package re-exports none of them.
"""

# No runtime path calls the dense reference solver, but bench/spans.py finds
# folint.linsolve in sys.modules to trace it, so it stays loaded until the
# benchmark moves it into the tests (ROADMAP item 1).
from . import linsolve  # noqa: F401

__version__ = "0.1.0"
