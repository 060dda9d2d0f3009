"""Exact successive minima, lattice point counts, and inequality
verification for 0-symmetric convex bodies.

Everything is computed in exact rational arithmetic (with exact square
roots of rationals for ellipsoidal gauges); no floating point is used
anywhere.  See the README for the command-line interface.
"""

from .bodies import (Box, Ellipsoid, HPolytope, InvalidBodyError,
                     SymmetricBody, corner_gauge_bound, volume_estimate)
from .bounds import (chain_sublattice, conjecture_rhs, divisor_chain,
                     first_bound_rhs, floor_term, floor_terms, kernel_check,
                     lemma_bound, main_bound_rhs, minkowski_first_check,
                     minkowski_second_check, riemann_slack)
from .enumeration import (count_oracle, count_points, enclosing_radius,
                          enumerate_points)
from .gauges import GaugeValue
from .harness import (CampaignSummary, GenerationError, InstanceSpec,
                      SplitMix64, VerificationReport, campaign, generate,
                      oracle_campaign, plan_instances, summarize, verify,
                      verify_spec)
from .lattices import Lattice, Sublattice
from .matrices import (DimensionMismatch, Matrix, SingularMatrixError,
                       align_witnesses)
from .minima import (CanonicalInstance, MinimaResult, canonicalize,
                     successive_minima)

__all__ = [
    "Box", "CampaignSummary", "CanonicalInstance", "DimensionMismatch",
    "Ellipsoid", "GaugeValue", "GenerationError", "HPolytope",
    "InstanceSpec", "InvalidBodyError", "Lattice", "Matrix", "MinimaResult",
    "SingularMatrixError",
    "SplitMix64", "Sublattice", "SymmetricBody", "VerificationReport",
    "align_witnesses", "campaign", "canonicalize", "chain_sublattice",
    "conjecture_rhs", "corner_gauge_bound", "count_oracle", "count_points",
    "divisor_chain", "enclosing_radius", "enumerate_points",
    "first_bound_rhs", "floor_term", "floor_terms", "generate",
    "kernel_check", "lemma_bound", "main_bound_rhs", "minkowski_first_check",
    "minkowski_second_check", "oracle_campaign", "plan_instances",
    "riemann_slack", "successive_minima", "summarize", "verify",
    "verify_spec", "volume_estimate",
]

__version__ = "0.1.0"
