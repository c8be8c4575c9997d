"""Zero counting and location for the harmonic family z^m + c(z^k + conj(z)^k) - 1.

All zeros of a family member lie on the 2m rays at angles j*pi/m; the
package classifies each ray exactly, counts its zeros as a function of the
positive parameter c (including the critical values where pairs appear or
disappear), locates every zero from guaranteed brackets, and cross-checks
the whole construction against a ray-agnostic planar grid oracle.
"""
from .family import (
    FamilyParams,
    RayDescriptor,
    Sign,
    ParameterError,
    NonCoprimeError,
    DegreeOrderError,
    NonPositiveCError,
    ZeroKError,
    RayIndexError,
    PoleAtOriginError,
    validate,
    classify_ray,
    evaluate,
)
from .unity import ParityCensus, census, group_order, positive_halfplane_count
from .rays import (
    RayCase,
    RayAnalysis,
    CountProfile,
    Threshold,
    f_value,
    f_derivative,
    analyze_ray,
    count_at,
    degenerate_at,
    extremum_radius,
    thresholds,
)
from .roots import (
    Tolerances,
    ZeroRecord,
    BracketFailure,
    DegenerateTangency,
    bracket,
    solve_ray,
    all_zeros,
)
from .predict import CountPrediction, predict_table, predict_census, predict_at
from .oracle import (
    OracleResult,
    ComparisonReport,
    ResolutionTooCoarse,
    find_zeros_grid,
    compare,
)

__version__ = "0.1.0"

__all__ = [
    "FamilyParams",
    "RayDescriptor",
    "Sign",
    "ParameterError",
    "NonCoprimeError",
    "DegreeOrderError",
    "NonPositiveCError",
    "ZeroKError",
    "RayIndexError",
    "PoleAtOriginError",
    "validate",
    "classify_ray",
    "evaluate",
    "ParityCensus",
    "census",
    "group_order",
    "positive_halfplane_count",
    "RayCase",
    "RayAnalysis",
    "CountProfile",
    "Threshold",
    "f_value",
    "f_derivative",
    "analyze_ray",
    "count_at",
    "degenerate_at",
    "extremum_radius",
    "thresholds",
    "Tolerances",
    "ZeroRecord",
    "BracketFailure",
    "DegenerateTangency",
    "bracket",
    "solve_ray",
    "all_zeros",
    "CountPrediction",
    "predict_table",
    "predict_census",
    "predict_at",
    "OracleResult",
    "ComparisonReport",
    "ResolutionTooCoarse",
    "find_zeros_grid",
    "compare",
    "__version__",
]
