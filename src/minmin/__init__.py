"""Convex min-min solvers: cutting planes over a low-dimensional block
composed with fast gradient or variance-reduced methods over the rest.

The objective F(x, y) is smooth and strongly convex in the (large) block y
and merely convex in the (small) block x.  The induced f(x) = min_y F(x, y)
is minimized by a volumetric-barrier cutting-plane method whose oracle is an
inexact inner solve plus a delta-subgradient; every gradient call and matrix
factorization is counted, so the advertised complexity bounds can be checked
against actual tallies.
"""

from .core import (
    Ball,
    Box,
    FiniteSum,
    HistoryRecord,
    LedgerSnapshot,
    NumericFailureError,
    OracleLedger,
    RunHistory,
    seeded_rng,
)
from .fgm import FgmState, RestartConfig, fgm_run, next_alpha
from .problems import (
    Dataset,
    FiniteSumQuadratic,
    LibsvmParseError,
    QuadraticSolution,
    UnsupportedLabelError,
    load_libsvm,
    logistic_loss,
    make_finite_sum_quadratic,
    make_logreg_minmin,
    make_quadratic_minmin,
    make_synthetic_classification,
    save_libsvm,
)
from .solver import (
    InnerStagnationError,
    MinMinComponents,
    MinMinConfig,
    MinMinProblem,
    MinMinResult,
    delta_from_eps,
    delta_subgradient,
    eps_floor,
    frank_wolfe_gap,
    inner_solve,
    solve_minmin,
    strong_convexity_gap_bound,
)
from .vaidya import (
    BarrierState,
    DegeneratePolytopeError,
    InfeasiblePointError,
    NewtonStagnationError,
    Polytope,
    PolytopeStructureError,
    VaidyaConfig,
    VaidyaIteration,
    VaidyaResult,
    barrier_quantities,
    newton_recenter,
    place_cut,
    vaidya_minimize,
    volumetric_value,
    write_iterations_csv,
)
from .varag import VaragSchedule, build_schedule, varag_inner_prox, varag_run

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BarrierState",
    "Box",
    "Dataset",
    "DegeneratePolytopeError",
    "FgmState",
    "FiniteSum",
    "FiniteSumQuadratic",
    "HistoryRecord",
    "InfeasiblePointError",
    "InnerStagnationError",
    "LedgerSnapshot",
    "LibsvmParseError",
    "MinMinComponents",
    "MinMinConfig",
    "MinMinProblem",
    "MinMinResult",
    "NewtonStagnationError",
    "NumericFailureError",
    "OracleLedger",
    "Polytope",
    "PolytopeStructureError",
    "QuadraticSolution",
    "RestartConfig",
    "RunHistory",
    "UnsupportedLabelError",
    "VaidyaConfig",
    "VaidyaIteration",
    "VaidyaResult",
    "VaragSchedule",
    "barrier_quantities",
    "build_schedule",
    "delta_from_eps",
    "delta_subgradient",
    "eps_floor",
    "fgm_run",
    "frank_wolfe_gap",
    "inner_solve",
    "load_libsvm",
    "logistic_loss",
    "make_finite_sum_quadratic",
    "make_logreg_minmin",
    "make_quadratic_minmin",
    "make_synthetic_classification",
    "newton_recenter",
    "next_alpha",
    "place_cut",
    "save_libsvm",
    "seeded_rng",
    "solve_minmin",
    "strong_convexity_gap_bound",
    "vaidya_minimize",
    "varag_inner_prox",
    "varag_run",
    "volumetric_value",
    "write_iterations_csv",
    "__version__",
]
