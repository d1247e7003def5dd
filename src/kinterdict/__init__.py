"""Exact and approximate solvers for budget-constrained knapsack interdiction.

A leader deletes items under an interdiction budget to minimise the best
knapsack packing of the survivors.  The package provides the exact
pseudopolynomial solver for the LP-relaxed objective (dual decomposition
over a finite candidate set), an FPTAS for that relaxation (profit rounding
plus binary search over a guessed optimum), the composed 2+eps / 1+t+eps
interdiction approximations, and brute-force oracles.  All arithmetic is
exact rational; no float decides a value on a solver path.
"""

from .dual import (
    CandidateSet,
    PreparedInstance,
    dual_bound_exact,
    dual_vertex_candidates,
    exact_fractional_optimum,
    fractional_value,
    prepare,
)
from .fptas import (
    GeometricGrid,
    Solution,
    approx_fractional_optimum,
    approx_interdiction,
    split_accuracy,
)
from .generator import generate_instance
from .instance import (
    FractionalPacking,
    Instance,
    InstanceError,
    InterdictionVector,
    MalformedSyntaxError,
    NegativeValueError,
    SchemaViolationError,
    lift_interdiction,
    parse_instance,
    preprocess,
    serialize_instance,
)
from .nominal import (
    KnapsackAnswer,
    fractional_knapsack,
    knapsack_max_budget,
)
from .oracles import (
    OracleReport,
    best_integer_packing,
    brute_force_opt_f,
    brute_force_opt_i,
    oracle_report,
    vertex_lp_optimum,
)
from .rational import rat_to_str

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "FractionalPacking",
    "GeometricGrid",
    "Instance",
    "InstanceError",
    "InterdictionVector",
    "KnapsackAnswer",
    "MalformedSyntaxError",
    "NegativeValueError",
    "OracleReport",
    "PreparedInstance",
    "SchemaViolationError",
    "Solution",
    "approx_fractional_optimum",
    "approx_interdiction",
    "best_integer_packing",
    "brute_force_opt_f",
    "brute_force_opt_i",
    "dual_bound_exact",
    "dual_vertex_candidates",
    "exact_fractional_optimum",
    "fractional_knapsack",
    "fractional_value",
    "generate_instance",
    "knapsack_max_budget",
    "lift_interdiction",
    "oracle_report",
    "parse_instance",
    "prepare",
    "preprocess",
    "rat_to_str",
    "serialize_instance",
    "split_accuracy",
    "vertex_lp_optimum",
]
