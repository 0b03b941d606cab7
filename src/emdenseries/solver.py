"""The coefficient recurrence that actually solves the problems.

Multiplying   y'' + (p/x) y' + a f(x) g(y) = 0   through by x removes
the singularity:   x y'' + p y' + a x f(x) g(y) = 0.  Transforming term
by term (index shift for the x factors, the derivative rule for y'' and
y') collapses the equation to one explicit, causal step

    Y(k+1) = -a / ((k+1)(k+p)) * sum_{r=0..k} XF(r) G(k-r),

where XF is the coefficient vector of x*f(x) (so XF(0) = 0 always) and
G is the streaming transform of g(y).  The k = 0 step forces Y(1) = 0,
which is also what y'(0) = 0 demands; the two initial data fill Y(0)
and Y(1) and everything above follows.  Because XF(0) = 0, the sum only
ever touches G(0..k-1), which is computable from Y(0..k-1): the
recurrence is causal and runs in a single pass.  The sum runs over the
nonzero XF only (one term per step when f = 1), and
:func:`residual_series` reuses the same step.

For p > 0 the denominator (k+1)(k+p) is positive for every k >= 0, so
no step can divide by zero; past its seed a kernel divides only by k or
by a seed value it has checked, so once g has every seed at y(0) no
step can fail.  Both are checked once, when the problem is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ExprState
from .problem import EmdenProblem
from .series import Series, guarded_sum, zero


@dataclass(frozen=True)
class SolveReport:
    """Everything one solve produced.

    ``g_prefix`` holds the transform coefficients of g(y) the recurrence
    consumed, ``warnings`` any float-mode cancellation diagnostics, and
    ``kernel_calls`` the number of kernel steps taken.
    """

    series: Series
    problem: EmdenProblem
    g_prefix: tuple
    warnings: tuple
    kernel_calls: int


def _forcing_support(problem: EmdenProblem) -> list:
    """(r, XF(r)) for the nonzero coefficients of x*f(x), r ascending."""
    return [(r, c) for r, c in enumerate(problem.f_poly.coeffs, start=1) if c != 0]


def _step(state: ExprState, g: list, y, k: int, support, on_warn=None):
    """One recurrence step at index k: append G(k-1), which needs only
    Y(0..k-1), to ``g`` and return the forcing sum

        sum_{1<=r<=k} XF(r) G(k-r)

    over the nonzero XF (the sum is empty at k = 0)."""
    if k > 0:
        g.append(state.advance(y[:k]))
    return guarded_sum(
        (c * g[k - r] for r, c in support if r <= k),
        zero(state.mode),
        on_warn,
        f"recurrence step k={k}",
    )


def solve(problem: EmdenProblem) -> SolveReport:
    """Run the recurrence up to the problem's truncation order."""
    mode = problem.mode
    warnings: list = []
    y = [problem.y0, problem.dy0]  # Y(0) = y(0), Y(1) = y'(0) = 0, both in mode
    support = _forcing_support(problem)
    state = ExprState(problem.g, mode, on_warn=warnings.append)
    g_prefix: list = []
    a = problem.a
    p = problem.p
    for k in range(1, problem.order):
        conv = _step(state, g_prefix, y, k, support, warnings.append)
        y.append(-a * conv / ((k + 1) * (k + p)))
    return SolveReport(
        series=Series(y, mode),
        problem=problem,
        g_prefix=tuple(g_prefix),
        warnings=tuple(warnings),
        kernel_calls=state.kernel_calls,
    )


def residual_series(problem: EmdenProblem, series: Series) -> Series:
    """Apply the x-multiplied operator to a candidate series.

    Re-expands g over the candidate through a fresh :class:`ExprState`
    (no reuse of anything a solve cached) and returns the coefficients of

        x y'' + p y' + a x f(x) g(y)

    at the problem's order N.  A candidate produced by :func:`solve` at
    the same order leaves indices 0..N-1 zero.  Index N holds
    -(N+1)(N+p) Y(N+1), where Y(N+1) is the coefficient an order-(N+1)
    solve would add; it is zero only when Y(N+1) is, as at even N with
    an even f.  Padding a lower-order solution up and evaluating it in a
    higher-order problem exposes where its accuracy stops.  A candidate
    whose Y(0) has no seed in g raises what that kernel seed raises
    (KernelDomainError, TranscendentalSeedError, or OverflowError).
    """
    if series.order != problem.order:
        raise ValueError(
            f"candidate order {series.order} != problem order {problem.order}; pad first"
        )
    if series.mode is not problem.mode:
        raise ValueError(f"candidate is {series.mode}, problem is {problem.mode}")
    n = problem.order
    y = series.coeffs
    support = _forcing_support(problem)
    state = ExprState(problem.g, problem.mode)
    g: list = []
    a = problem.a
    p = problem.p
    out = []
    for k in range(n + 1):
        ynext = y[k + 1] if k < n else zero(problem.mode)
        out.append((k + 1) * (k + p) * ynext + a * _step(state, g, y, k, support))
    return Series(out, problem.mode)
