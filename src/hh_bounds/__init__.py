"""Certified enclosures and inequality chains for double integrals of
functions convex on the coordinates of a rectangle."""

from .bounds1d import (BoundPair, Fn1D, Interval, Partition1D, deficit_upper,
                       integral_enclosure, machine_tol, midpoint_lower, trapezoid_upper)
from .convexity import (ConvexityRejection, ConvexityReport, Witness,
                        check_coordinate_convexity, random_convex_1d,
                        random_coordinate_convex)
from .errors import DomainError, EvaluationError, HHBoundsError, PreconditionError
from .expr import ParseError, eval_ast, parse, to_string
from .oracle import OracleResult, reference_integral_1d, reference_integral_2d
from .rect import (ChainReport, Fn2D, Ordering, Rect, assemble_classic_terms,
                   boundary_bound, centerline_bound, classic_chain, discrete_enclosure,
                   five_term_chains, partition_chain, positive_upper, refined_chain,
                   spot_minimum)
from .schemes import InnerScheme, NestedDiscrete, Quadrature, adaptive_simpson
from .verify import VerifySummary, run_verification

__all__ = [
    "BoundPair", "ChainReport", "ConvexityRejection", "ConvexityReport",
    "DomainError", "EvaluationError", "Fn1D", "Fn2D", "HHBoundsError",
    "InnerScheme", "Interval", "NestedDiscrete", "OracleResult", "Ordering",
    "ParseError", "Partition1D", "PreconditionError", "Quadrature", "Rect",
    "VerifySummary", "Witness", "adaptive_simpson", "assemble_classic_terms",
    "boundary_bound", "centerline_bound", "check_coordinate_convexity",
    "classic_chain", "deficit_upper", "discrete_enclosure", "eval_ast",
    "five_term_chains", "integral_enclosure", "machine_tol", "midpoint_lower",
    "parse", "partition_chain", "positive_upper", "random_convex_1d",
    "random_coordinate_convex", "reference_integral_1d", "reference_integral_2d",
    "refined_chain", "run_verification", "spot_minimum", "to_string",
    "trapezoid_upper",
]
