"""Truncated Chen-Fliess series algebra with operator left inversion.

The library provides the word-indexed series algebra (shuffle and
composition products, shuffle and composition-group inverses), exact
generating series of input-affine realizations, the explicit left
inversion of square input-output operators with a vector relative
degree, and a planning/tracking pipeline for a bi-steerable car built
on those pieces.
"""

from fliess.composition import (
    DeltaSeries,
    compose,
    group_inverse,
    modified_compose,
)
from fliess.errors import (
    AlphabetMismatchError,
    ConvergenceError,
    EvaluationError,
    FliessError,
    InversionPreconditionError,
    MapFormatError,
    MatchingConditionError,
    NoRelativeDegreeError,
    NonFiniteError,
    PlanningError,
    SimulationError,
    SingularConstantTermError,
    SingularDecouplingError,
    SplineFitError,
)
from fliess.inversion import (
    RelativeDegree,
    TaylorOutput,
    left_invert,
    relative_degree,
    tracking_error_series,
)
from fliess.pipeline import PipelineConfig, PipelineReport, SectionReport, run_pipeline, run_section, track_spline
from fliess.planner import (
    Circle,
    ObstacleMap,
    PathSpline,
    Polygon,
    RrtTree,
    SplineSection,
    bundled_map,
    extract_path,
    fit_spline,
    load_map,
    load_spline,
    rrt_plan,
    save_map,
    smooth_path,
)
from fliess.realization import (
    Realization,
    Trajectory,
    fliess_eval,
    generating_series,
    lie_derivative,
    rk4_simulate,
    taylor_outputs,
)
from fliess.series import (
    MatrixSeries,
    Series,
    VectorSeries,
    left_shift,
    shuffle,
    shuffle_inverse,
)
from fliess.vehicle import (
    CarParams,
    SectionInit,
    augmented_realization,
    car_realization,
    solve_first_order_match,
)

__version__ = "0.1.0"

#: The shuffle kernel is pure Python; the benchmark stamps its results with this.
KERNEL_BACKEND = "python"

__all__ = [
    "AlphabetMismatchError",
    "CarParams",
    "Circle",
    "ConvergenceError",
    "DeltaSeries",
    "EvaluationError",
    "FliessError",
    "InversionPreconditionError",
    "KERNEL_BACKEND",
    "MapFormatError",
    "MatchingConditionError",
    "MatrixSeries",
    "NoRelativeDegreeError",
    "NonFiniteError",
    "ObstacleMap",
    "PathSpline",
    "PipelineConfig",
    "PipelineReport",
    "PlanningError",
    "Polygon",
    "Realization",
    "RelativeDegree",
    "RrtTree",
    "SectionInit",
    "SectionReport",
    "Series",
    "SimulationError",
    "SingularConstantTermError",
    "SingularDecouplingError",
    "SplineFitError",
    "SplineSection",
    "TaylorOutput",
    "Trajectory",
    "VectorSeries",
    "augmented_realization",
    "bundled_map",
    "car_realization",
    "compose",
    "extract_path",
    "fit_spline",
    "fliess_eval",
    "generating_series",
    "group_inverse",
    "left_invert",
    "left_shift",
    "lie_derivative",
    "load_map",
    "load_spline",
    "modified_compose",
    "relative_degree",
    "rk4_simulate",
    "rrt_plan",
    "run_pipeline",
    "run_section",
    "save_map",
    "shuffle",
    "shuffle_inverse",
    "smooth_path",
    "solve_first_order_match",
    "taylor_outputs",
    "track_spline",
    "tracking_error_series",
]
