"""Truncated power-series solutions of singular Emden-Fowler problems.

The package solves initial-value problems of the form

    y'' + (p/x) y' + a f(x) g(y) = 0,    y(0) = y0,  y'(0) = 0,

by turning them into a causal recurrence on scaled Taylor coefficients:
series arithmetic lives in :mod:`emdenseries.series`, the transforms of
nonlinear g(y) in :mod:`emdenseries.kernels` and
:mod:`emdenseries.expr`, the problem model and parsers in
:mod:`emdenseries.problem`, the recurrence itself in
:mod:`emdenseries.solver`, and independent checks (closed forms, quoted
literature series, an off-origin integrator) in
:mod:`emdenseries.validation`.  A command-line front end is in
:mod:`emdenseries.cli`.

Quick start::

    from emdenseries import Mode, PresetId, build_preset, solve

    problem = build_preset(PresetId("lane_emden", m=5), order=10, mode=Mode.RATIONAL)
    print(solve(problem).series.coeffs)
"""

from .series import (
    Mode,
    ModeMismatchError,
    OrderMismatchError,
    Series,
    add_scaled,
    cauchy_product,
    derivative_transform,
    evaluate,
    monomial,
    multi_product,
)
from .kernels import (
    ExpKernel,
    KernelDomainError,
    LogKernel,
    PowerKernel,
    SinCosKernel,
    SinhCoshKernel,
    TranscendentalSeedError,
    batch_transform,
)
from .expr import (
    Const,
    Cos,
    Cosh,
    Exp,
    ExprState,
    GExpr,
    Log,
    Power,
    Product,
    Scale,
    Sin,
    Sinh,
    Sum,
    Var,
    evaluate_scalar,
    format_expr,
    validate_expr,
)
from .problem import (
    EmdenProblem,
    ParseError,
    PresetId,
    ProblemValidationError,
    PRESET_CATALOG,
    PRESET_NAMES,
    build_preset,
    parse_expression,
    parse_number,
    parse_polynomial,
    parse_problem_file,
)
from .solver import SolveReport, residual_series, solve
from .validation import (
    ComparisonReport,
    OracleUnavailableError,
    compare,
    compare_pointwise,
    exact_solution,
    reference_series,
    rk_oracle,
    rk_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "Mode", "ModeMismatchError", "OrderMismatchError", "Series",
    "add_scaled", "cauchy_product", "derivative_transform", "evaluate",
    "monomial", "multi_product",
    "ExpKernel", "KernelDomainError", "LogKernel", "PowerKernel",
    "SinCosKernel", "SinhCoshKernel", "TranscendentalSeedError",
    "batch_transform",
    "Const", "Cos", "Cosh", "Exp", "ExprState", "GExpr", "Log", "Power",
    "Product", "Scale", "Sin", "Sinh", "Sum", "Var", "evaluate_scalar",
    "format_expr", "validate_expr",
    "EmdenProblem", "ParseError", "PresetId", "ProblemValidationError",
    "PRESET_CATALOG", "PRESET_NAMES", "build_preset", "parse_expression",
    "parse_number", "parse_polynomial", "parse_problem_file",
    "SolveReport", "residual_series", "solve",
    "ComparisonReport", "OracleUnavailableError", "compare",
    "compare_pointwise", "exact_solution", "reference_series", "rk_oracle",
    "rk_trajectory",
    "__version__",
]
