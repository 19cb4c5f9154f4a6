"""Exact Melnikov functions and Godbillon-Vey data for circle perturbations.

The symbolic pipeline works over exact rational arithmetic: iterated
relative-exactness splittings of dF + eps*w = 0 around F = x^2 + y^2, the
Melnikov values they certify, and the Godbillon-Vey assembly with its
integrability checks.  A fixed-step numeric oracle integrates the same
foliation and recovers the leading coefficients independently.
"""

from .algebra import (
    BivarPoly,
    EpsSeries,
    PolyParseError,
    RationalFunction,
    X,
    Y,
    parse_poly,
)
from .abelian import (
    CIRCLE,
    OvalFamily,
    PeriodPoly,
    UnsupportedOvalFamily,
    period_of_form,
)
from .exterior import (
    DE,
    DX,
    DY,
    Form1Planar,
    Form2Planar,
    FormEps,
    SeriesOrderMismatch,
    d_planar_scalar,
    d_total,
    series_to_text,
    truncate_weight,
    wedge,
)
from .linsolve import solve_canonical  # dense reference for the block sweep
from .francoise import (
    FrancoisePair,
    FrancoiseSequence,
    InternalSolverError,
    MelnikovResult,
    NoSolution,
    decompose,
    melnikov_sequence,
)
from .godbillon import (
    NORMALIZATION_PRIMARY,
    NORMALIZATION_RESCALED,
    DegenerateNormalization,
    FirstIntegral,
    GVClassicalSequence,
    GVPair,
    NoFactorExists,
    assemble_omega,
    check_first_integral,
    classical_gv_forms,
    deformation_form,
    first_integral,
    gv_pairs_from_francoise,
    integrability_defect,
    integrating_factor,
    length_two_witness,
    pairs_from_first_integral,
    witness_theta,
)
from .oracle import (
    DenominatorVanished,
    DisplacementSample,
    HolonomyConfig,
    LeafEscapedAnnulus,
    MelnikovEstimates,
    NonFiniteEstimate,
    displacement_table,
    first_melnikov_richardson,
    grid_estimates,
    holonomy_return,
    melnikov_estimate,
)

__version__ = "0.1.0"
