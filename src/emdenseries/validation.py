"""Independent checks: closed forms, quoted reference series, an
off-origin integrator, and series comparison.

Three of the catalog problems have closed-form solutions and three have
series solutions quoted from the decomposition/homotopy literature
(Wazwaz 2001; Liao 2003).  Those quoted coefficients are kept verbatim
in the catalog rows of :mod:`emdenseries.problem`, each the float of the
quoted expression; where a quoted value disagrees with what the
recurrence provably gives, the row keeps the quoted value so that
:func:`compare` surfaces the difference instead of hiding it.  Known
cases:

* isothermal, x^10: quoted -4087/1796256000 vs exact -629/224532000;
* sinh case, x^2, x^6 and x^8: quoted -(e^2+1)/(12e) where the
  recurrence (and the quoted x^4 term itself) point to -(e^2-1)/(12e),
  and interior sign slips of the same kind at x^6 and x^8.

The integrator is a Dormand-Prince 5(4) embedded pair started a little
off the singular origin, seeded from the series it is checking, so a
comparison solves once; the seeding error is O(x_start^(N+1)) and far
below the step tolerance.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial

from .expr import evaluate_scalar
from .kernels import KernelDomainError
from .problem import PRESET_CATALOG, EmdenProblem, PresetId, _preset_info
from .series import Mode, OrderMismatchError, Record, Series, as_float, evaluate


class OracleUnavailableError(ValueError):
    """No closed form / no reference series exists for the preset."""


class StepSizeUnderflowError(RuntimeError):
    """The adaptive integrator could not meet the tolerance."""


# --- closed forms -----------------------------------------------------------

def _closed_form(pid: PresetId):
    """The preset's closed form, a function of (pid, x)."""
    info = _preset_info(pid.name)
    if info.closed_form is None:
        raise OracleUnavailableError(f"no closed form for preset {pid.name!r}")
    if info.closed_form_params is not None:
        value = getattr(pid, info.param)
        if value not in info.closed_form_params:
            raise OracleUnavailableError(
                f"no closed form for {pid.name} with {info.param} = {value} "
                f"(only {', '.join(map(str, info.closed_form_params))})"
            )
    return info.closed_form


def exact_solution(pid: PresetId, x) -> float:
    """Closed-form solution value, for the presets that have one.

    lane_emden m=0,1,5; example5 (-2 ln(1+a x^2)); example6 (exp(-a x^2)).
    A point outside the solution's domain raises a ValueError.
    """
    return _closed_form(pid)(pid, float(x))


# --- quoted reference series ------------------------------------------------

def reference_series(pid: PresetId) -> Series:
    """The quoted literature series for a preset, as a float-mode Series.

    Each coefficient is the float of the quoted expression, as written
    in the preset's catalog row.
    """
    quoted = _preset_info(pid.name).reference
    if quoted is None:
        available = sorted(info.name for info in PRESET_CATALOG if info.reference)
        raise OracleUnavailableError(
            f"no reference series for preset {pid.name!r} "
            f"(available: {', '.join(available)})"
        )
    coeffs = dict(quoted)
    return Series([coeffs.get(k, 0) for k in range(max(coeffs) + 1)], Mode.FLOAT)


# --- off-origin numeric integration ----------------------------------------

# Dormand-Prince 5(4) tableau: fifth-order propagation, fourth-order
# error estimate from the difference of the two weight rows.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dopri_step(f, x, y, dy, h):
    """One step of (y, y'): fifth-order values and error estimates.  Sums run left
    to right; a stage skips its zero weights, the final sums add all seven."""
    ks = []
    for c, row in zip(_DP_C, _DP_A):
        yi, di = y, dy
        for aij, (kyj, kdj) in zip(row, ks):
            if aij != 0.0:
                yi, di = yi + h * aij * kyj, di + h * aij * kdj
        ks.append(f(x + c * h, yi, di))
    y5, d5, ey, ed = y, dy, 0.0, 0.0
    for b5, b4, (kyi, kdi) in zip(_DP_B5, _DP_B4, ks):
        y5, d5 = y5 + h * b5 * kyi, d5 + h * b5 * kdi
        ey, ed = ey + h * (b5 - b4) * kyi, ed + h * (b5 - b4) * kdi
    return y5, d5, ey, ed


def _integrate(f, x0, y, dy, x1, tol):
    """(y, y') at x1 from (y, y')' = f(x, y, y'), adaptive from x0, local error <= tol."""
    x, span = x0, x1 - x0
    h = min(1e-2, span / 10) if span > 0 else span
    steps = 0
    while x < x1:
        last = x + h > x1
        if last:
            h = x1 - x
        y5, d5, ey, ed = _dopri_step(f, x, y, dy, h)
        norm = max(0.0, abs(ey) / (tol + tol * max(abs(y), abs(y5))),
                   abs(ed) / (tol + tol * max(abs(dy), abs(d5))))
        if norm <= 1.0:
            # x + (x1 - x) can round short of x1
            x = x1 if last else x + h
            y, dy = y5, d5
            factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm**-0.2))
        else:
            factor = max(0.2, 0.9 * norm**-0.2)
        h *= factor
        if x < x1 and h < 1e-14 * max(abs(x), span):
            raise StepSizeUnderflowError(f"step size underflow at x = {x}")
        steps += 1
        if steps > 1_000_000:
            raise StepSizeUnderflowError("step budget exhausted")
    return y, dy


def rk_trajectory(problem: EmdenProblem, series: Series, xs: Sequence, tol: float = 1e-10) -> list:
    """Integrate the problem once from just off the origin and return
    y at each point of ``xs``, in the order given.

    The equation is singular at x = 0, so integration starts at
    x_start = min(1e-3, half the smallest positive point), or 1e-3 when
    no point is positive, with (y, y') read off ``series`` there, then
    runs through the sorted, de-duplicated points, each stretch of x
    integrated once; x = 0 gives the problem's y(0) and a negative point
    raises ValueError.  This is an independent check on the series in
    the only sense available: the trajectory is produced by step-wise
    quadrature, not by the coefficient recurrence that built the series.
    """
    targets = [float(x) for x in xs]
    if min(targets, default=0.0) < 0:
        raise ValueError(f"x_target {min(targets)} must be >= 0")
    x_start = min(1e-3, min((x for x in targets if x > 0), default=1.0) / 2)
    g = problem.g
    series = series.to_float()
    # y'(x) = sum k Y(k) x^(k-1)
    dy = Series([k * c for k, c in enumerate(series.coeffs)][1:], Mode.FLOAT)
    state = (evaluate(series, x_start), evaluate(dy, x_start))
    p, a = (as_float(getattr(problem, name), f"equation constant {name}") for name in "pa")
    f_poly = problem.f_poly.to_float()

    def rhs(x, yv, dyv):
        try:
            gv = evaluate_scalar(g, yv)
        except OverflowError:  # the trajectory blows up: exp(y) or y^m past the float range
            raise KernelDomainError(f"g(y) overflows at y = {yv} (x = {x})") from None
        return (dyv, -(p / x) * dyv - a * evaluate(f_poly, x) * gv)

    reached, values = x_start, {0.0: float(problem.y0)}
    for xt in sorted(set(targets) - {0.0}):
        state = _integrate(rhs, reached, *state, xt, tol)
        reached, values[xt] = xt, state[0]
    return [values[xt] for xt in targets]


# Only for bench/spans.py, which will not install without it (ROADMAP item 1).
# Not an alias: the tracer rebinds every name bound to the object it wraps.
def rk_oracle(problem: EmdenProblem, series: Series, x_target, tol: float = 1e-10) -> float:
    return rk_trajectory(problem, series, [x_target], tol)[0]


# --- comparison -------------------------------------------------------------

DEFAULT_SAMPLE_GRID = tuple(i / 10 for i in range(21))  # 0.0 .. 2.0 step 0.1


class CoeffDelta(Record):
    k: int
    a: float
    b: float
    abs_delta: float
    rel_delta: float
    exact_equal: bool | None


class PointDelta(Record):
    x: float
    a: float
    b: float
    abs_delta: float


class ComparisonReport(Record):
    """Coefficient-wise and pointwise deltas between two series.

    Deltas are always computed in float arithmetic, even for exact
    inputs; when both sides are rational, per-coefficient exact equality
    is reported separately in ``exact_equal`` / ``exact_match``.
    """

    coeff_deltas: tuple
    point_deltas: tuple
    max_coeff_delta: float
    max_point_delta: float
    tolerance: float | None
    within_tolerance: bool | None
    exact_match: bool | None

    def mismatched_indices(self, rel_tol: float = 1e-9) -> tuple:
        """Coefficient indices whose relative delta exceeds ``rel_tol``."""
        return tuple(d.k for d in self.coeff_deltas if d.rel_delta > rel_tol)


def _point_rows(fa: Series, oracle: Callable[[float], float], sample_points) -> tuple:
    """Float series ``fa`` against ``oracle`` at each sample point."""
    rows = []
    for x in sample_points:
        xv = float(x)
        av, bv = evaluate(fa, xv), float(oracle(xv))
        rows.append(PointDelta(xv, av, bv, abs(av - bv)))
    return tuple(rows)


def _report(coeff_rows: tuple, point_rows: tuple, tolerance, exact_match) -> ComparisonReport:
    """Report over the given rows; with a tolerance, the pointwise
    deltas are judged, or the coefficient deltas when there are none."""
    max_coeff = max((r.abs_delta for r in coeff_rows), default=0.0)
    max_point = max((r.abs_delta for r in point_rows), default=0.0)
    within = None
    if tolerance is not None:
        within = (max_point if point_rows else max_coeff) <= tolerance
    return ComparisonReport(
        coeff_deltas=coeff_rows,
        point_deltas=point_rows,
        max_coeff_delta=max_coeff,
        max_point_delta=max_point,
        tolerance=tolerance,
        within_tolerance=within,
        exact_match=exact_match,
    )


def _rel_delta(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(
    series_a: Series,
    series_b: Series,
    sample_points: Sequence[float] | None = DEFAULT_SAMPLE_GRID,
    tolerance: float | None = None,
) -> ComparisonReport:
    """Full delta report between two same-order series.

    ``sample_points`` drives the pointwise half of the report (by
    default the grid x = 0, 0.1, ..., 2 used for eyeballing solution
    curves); pass an empty sequence for coefficients only.
    """
    if series_a.order != series_b.order:
        raise OrderMismatchError(
            f"orders differ ({series_a.order} vs {series_b.order}); pad the shorter one"
        )
    both_rational = series_a.mode is Mode.RATIONAL and series_b.mode is Mode.RATIONAL
    fa, fb = series_a.to_float(), series_b.to_float()
    coeff_rows = []
    for k in range(series_a.order + 1):
        av, bv = fa.coeffs[k], fb.coeffs[k]
        exact = (series_a.coeffs[k] == series_b.coeffs[k]) if both_rational else None
        coeff_rows.append(CoeffDelta(k, av, bv, abs(av - bv), _rel_delta(av, bv), exact))
    point_rows = _point_rows(fa, partial(evaluate, fb), sample_points or ())
    exact_match = all(r.exact_equal for r in coeff_rows) if both_rational else None
    return _report(tuple(coeff_rows), point_rows, tolerance, exact_match)


def compare_pointwise(
    series: Series,
    oracle: Callable[[float], float],
    sample_points: Sequence[float],
    tolerance: float | None = None,
) -> ComparisonReport:
    """Pointwise-only report of a series against a scalar oracle function."""
    return _report((), _point_rows(series.to_float(), oracle, sample_points), tolerance, None)
