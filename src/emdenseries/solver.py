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
:func:`residual_series` reuses the same step.  Exactly, Y(k+1) is one
integer ratio, normalised once, and the Series keeps that Fraction.

When f is even (every odd coefficient zero, as for every preset), so is
the solution, y(x) = u(t) with t = x^2, and :func:`solve` runs the
kernels over U(j) = Y(2j) alone, taking only the odd steps k = 2j+1.
In t the equation is t u'' + q u' + (a/4) f g = 0 with q = (p+1)/2; its
denominator 4(j+1)(j+q) is (k+1)(k+p), which the step computes in that
x-space form.  Float bytes do not change: each kernel weight in x is its
t weight times a power of two (r = 2s, k = 2j), which scales partial
sums exactly, and the zero terms the x-space sums add change nothing
(an overflow aside: 0 * inf is nan).  Each odd Y(k+1) is the signed zero
its skipped step gives, -a*0/((k+1)(k+p)), and warnings keep their
x-space labels.  Half the steps, each convolution half as long.

For p > 0 the denominator (k+1)(k+p) is positive for every k >= 0, so
no step can divide by zero; past its seed a kernel divides only by k or
by a seed value it has checked, so once g has every seed at y(0) no
step can fail.  Both are checked once, when the problem is built.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import ExprState
from .problem import EmdenProblem
from .series import Mode, OrderMismatchError, Record, Series, as_list, guarded_sum, zero


class SolveReport(Record):
    """Everything one solve produced.

    ``warnings`` holds any float-mode cancellation diagnostics and
    ``kernel_calls`` the number of kernel steps taken (one per even
    index when f is even).
    """

    series: Series
    problem: EmdenProblem
    warnings: tuple
    kernel_calls: int


def _forcing(problem: EmdenProblem, solving: bool, on_warn=None):
    """forcing(g, k, stride): the sum  S(k) = sum_{1<=r<=k} XF(r) G(k-r)  over
    the nonzero XF (empty at k = 0), G(j) = g[j // stride], times
    -a/((k+1)(k+p)) when ``solving`` (that is Y(k+1)), else times a (the
    residual's term).  Exactly, one integer ratio, normalised once."""
    a, p = problem.a, problem.p
    support = [(r, c) for r, c in enumerate(problem.f_poly.coeffs, start=1) if c != 0]
    if problem.mode is Mode.FLOAT:
        def forcing(g, k, stride):
            s = guarded_sum((c * g[(k - r) // stride] for r, c in support if r <= k),
                            on_warn, lambda: f"recurrence step k={k}")
            return -a * s / ((k + 1) * (k + p)) if solving else a * s
        return forcing

    def exact(g, k, stride):
        num, den = 0, 1
        for r, c in support:
            if r <= k:
                v = g[(k - r) // stride]
                vd = c.denominator * v.denominator
                num, den = num * vd + c.numerator * v.numerator * den, den * vd
        if solving:  # (k+1)(k+p) = (k+1)(k pd + pn) / pd
            num, den = -num * p.denominator, den * (k + 1) * (k * p.denominator + p.numerator)
        return Fraction(a.numerator * num, a.denominator * den)

    return exact


def _step(state: ExprState, g: list, y, k: int, forcing, stride=1):
    """One recurrence step at x-space index k, with the kernels over
    W(j) = Y(stride*j): append G(k-1), which needs only Y(0..k-1), to ``g``
    (as its entry (k-1)/stride) and return the forcing term of
    :func:`_forcing`."""
    if k > 0:
        g.append(state.advance(y[:k:stride]))
    return forcing(g, k, stride)


def _recurrence(problem: EmdenProblem, stride: int) -> SolveReport:
    """Run the recurrence with the kernels over Y(0), Y(stride), ...

    Stride 1 is every step.  Stride 2 needs an even f: it takes the odd
    steps k only, and gives each odd Y(k+1) the value of its skipped
    step k, whose sum has zeros only."""
    mode, warnings, g = problem.mode, [], []
    state = ExprState(problem.g, mode, on_warn=warnings.append, _stride=stride)
    forcing = _forcing(problem, True, warnings.append)
    y = as_list(mode, [problem.y0, problem.dy0])
    values = list(y)  # Y(k) as appended: each exact one normalised once
    skipped = -problem.a * zero(mode)  # divided by (k+1)(k+p) > 0, still this zero
    for k in range(1, problem.order):
        v = skipped if stride == 2 and k % 2 == 0 else _step(state, g, y, k, forcing, stride)
        y.append(v)
        values.append(v)
    return SolveReport(
        series=Series(values, mode, y),
        problem=problem,
        warnings=tuple(warnings),
        kernel_calls=state.kernel_calls,
    )


def solve(problem: EmdenProblem) -> SolveReport:
    """Run the recurrence up to the problem's truncation order, in
    t = x^2 when f is even."""
    even = all(c == 0 for c in problem.f_poly.coeffs[1::2])
    return _recurrence(problem, 2 if even else 1)


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
    Every step runs in x, even f or not: this is the independent check
    of the t = x^2 solve, and a candidate's odd coefficients need not
    be zero.
    """
    if series.order != problem.order:
        raise OrderMismatchError(
            f"candidate order {series.order} != problem order {problem.order}; pad first"
        )
    if series.mode is not problem.mode:
        raise ValueError(f"candidate is {series.mode}, problem is {problem.mode}")
    n, p = problem.order, problem.p
    y = as_list(problem.mode, series.coeffs)
    forcing = _forcing(problem, False)
    state = ExprState(problem.g, problem.mode)
    g, out = [], []
    for k in range(n + 1):
        ynext = y[k + 1] if k < n else zero(problem.mode)
        out.append((k + 1) * (k + p) * ynext + _step(state, g, y, k, forcing))
    return Series(out, problem.mode)
