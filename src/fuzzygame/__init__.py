"""Two-person zero-sum games with symmetric trapezoidal fuzzy payoffs.

Public surface: fuzzy-number primitives and ranking, the payoff-matrix
model with its JSON file format, the dominance-based solver pipeline, and
an exact center-game oracle for verification.
"""

from .fuzzy import (
    Attitude,
    Choice,
    DegenerateComparisonError,
    FuzzyNum,
    Interval,
    LRTriple,
    Ranking,
    Relation,
    TrapezoidMF,
    di_fuzzy,
    di_interval,
    fuzzy_to_membership,
    interval_add,
    prefer_max,
    prefer_min,
    rank,
    trapezoid_eval,
)
from .matrix import (
    Axis,
    DuplicateLabelsError,
    EmptyMatrixError,
    MatrixError,
    MatrixSyntaxError,
    NegativeSpreadError,
    NonFiniteNumberError,
    PayoffMatrix,
    RaggedRowsError,
    SelectionError,
    StrategyIndex,
    parse_matrix,
    serialize_matrix,
    submatrix,
)
from .oracle import (
    CenterGame,
    GameTooLargeError,
    OracleReport,
    OracleSolution,
    oracle_check,
    oracle_value,
)
from .solver import (
    MAX_BETA_STEPS,
    NotReducibleError,
    PipelineConfig,
    ReductionResult,
    ReductionStep,
    ShapeError,
    Solution,
    SolutionKind,
    SpreadConvention,
    StepKind,
    SubgameCandidate,
    SubgameEnumeration,
    beta_grid,
    col_dominates,
    convex_col_dominates,
    convex_row_dominates,
    enumerate_subgames,
    find_saddle,
    reduce_dominance,
    row_dominates,
    solve_2x2,
    solve_pipeline,
)

__version__ = "0.1.0"
