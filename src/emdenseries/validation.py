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
off the singular origin and seeded from the series it is checking, so a
comparison solves once (the seeding error is O(x_start^(N+1)), far below
the step tolerance); it runs once to the largest point and interpolates
the others from the steps that cover them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial
from math import copysign, inf

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

# Dormand-Prince 5(4) tableau: nodes c, stage weights a, fifth-order weights
# b (also stage 7's row; b2 = b7 = 0) and error weights e = b - b4, the
# difference from the embedded fourth-order row.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4 = _B1 - 5179 / 57600, _B3 - 7571 / 16695, _B4 - 393 / 640
_E5, _E6, _E7 = _B5 + 92097 / 339200, _B6 - 187 / 2100, -1 / 40
# d: the weights (d2 = 0) of the free continuous extension in Hairer's dopri5 (contd5)
_D1, _D3, _D4 = -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072
_D5, _D6, _D7 = 701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423


def _same(u, v):
    """u and v are one float bit for bit (zeros of one sign; NaN never)."""
    return u == v and (u != 0.0 or copysign(1.0, u) == copysign(1.0, v))


def _dopri_step(f, x, y, dy, h, k1):
    """One step of (y, y') from k1 = f(x, y, y'): fifth-order values, error
    estimates, k7 if stage 7 ran at (x + h, y5, y5') bit for bit, else None, and
    the y-slopes of stages 1, 3-7 for :func:`_integrate`'s continuous extension.
    Sums run left to right in tableau order; a stage skips its zero weights,
    y5 and y5' keep their two 0.0-weighted terms (they can flip a zero's sign
    or carry a NaN), and the error sums add all seven stages to 0.0."""
    k1y, k1d = k1
    a1 = h * _A21
    k2y, k2d = f(x + _C2 * h, y + a1 * k1y, dy + a1 * k1d)
    a1, a2 = h * _A31, h * _A32
    k3y, k3d = f(x + _C3 * h, y + a1 * k1y + a2 * k2y, dy + a1 * k1d + a2 * k2d)
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    k4y, k4d = f(x + _C4 * h, y + a1 * k1y + a2 * k2y + a3 * k3y,
                 dy + a1 * k1d + a2 * k2d + a3 * k3d)
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5y, k5d = f(x + _C5 * h, y + a1 * k1y + a2 * k2y + a3 * k3y + a4 * k4y,
                 dy + a1 * k1d + a2 * k2d + a3 * k3d + a4 * k4d)
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6y, k6d = f(x + h, y + a1 * k1y + a2 * k2y + a3 * k3y + a4 * k4y + a5 * k5y,
                 dy + a1 * k1d + a2 * k2d + a3 * k3d + a4 * k4d + a5 * k5d)
    b1, b3, b4, b5, b6, z = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6, h * 0.0
    y7 = y + b1 * k1y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y
    d7 = dy + b1 * k1d + b3 * k3d + b4 * k4d + b5 * k5d + b6 * k6d
    k7 = k7y, k7d = f(x + h, y7, d7)
    y5 = y + b1 * k1y + z * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y + z * k7y
    d5 = dy + b1 * k1d + z * k2d + b3 * k3d + b4 * k4d + b5 * k5d + b6 * k6d + z * k7d
    e1, e3, e4, e5, e6, e7 = h * _E1, h * _E3, h * _E4, h * _E5, h * _E6, h * _E7
    ey = 0.0 + e1 * k1y + z * k2y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y
    ed = 0.0 + e1 * k1d + z * k2d + e3 * k3d + e4 * k4d + e5 * k5d + e6 * k6d + e7 * k7d
    k7 = k7 if _same(y7, y5) and _same(d7, d5) else None
    return y5, d5, ey, ed, k7, (k1y, k3y, k4y, k5y, k6y, k7y)


def _integrate(f, x, y, dy, stops, tol):
    """y at each of the increasing ``stops``, all past x, from (y, y')' = f(x, y, y'):
    one adaptive pass to the last stop, local error <= tol, first step min(1e-2, span/10),
    the final step clipped onto that stop.  A stop at an accepted step's end takes y5,
    one inside it the step's fourth-order continuous extension (Shampine 1986), y alone.
    k1 is evaluated only when no earlier call gave it: a rejected step reuses its k1,
    and an accepted one hands on k7 when :func:`_dopri_step` returns it."""
    out, k1, x1, points = [], None, max(stops, default=x), iter(stops)
    p, span, steps = next(points, inf), x1 - x, 0
    h = min(1e-2, span / 10)
    while x < x1:
        last = x + h > x1
        if last:
            h = x1 - x
        if k1 is None:
            k1 = f(x, y, dy)
        y5, d5, ey, ed, k7, (s1, s3, s4, s5, s6, s7) = _dopri_step(f, x, y, dy, h, k1)
        # max(0.0, |ey| / (tol + tol * max(|y|, |y5|)), the same for y') and the
        # clamps spelled out: a later value replaces only if greater (smaller for min)
        a, b = abs(y), abs(y5)
        ny = abs(ey) / (tol + tol * (b if b > a else a))
        a, b = abs(dy), abs(d5)
        nd = abs(ed) / (tol + tol * (b if b > a else a))
        norm = ny if ny > 0.0 else 0.0
        norm = nd if nd > norm else norm
        if norm <= 1.0:  # x + (x1 - x) can round off x1
            x0, x, k1 = x, x1 if last else x + h, k7
            if p <= x:  # Hairer's contd5 at each stop p the step passed
                r2 = y5 - y
                r3 = h * s1 - r2
                r4 = r2 - h * s7 - r3
                r5 = h * (_D1 * s1 + _D3 * s3 + _D4 * s4 + _D5 * s5 + _D6 * s6 + _D7 * s7)
                while p <= x:
                    t = (p - x0) / h
                    u = 1 - t
                    out.append(y5 if p == x else y + t * (r2 + u * (r3 + t * (r4 + u * r5))))
                    p = next(points, inf)
            y, dy = y5, d5
            # min(5.0, max(0.2, ...)): 0 < norm <= 1 puts 0.9 * norm**-0.2 at 0.9 or more
            factor = 5.0 if norm == 0.0 else 0.9 * norm**-0.2
            factor = factor if factor < 5.0 else 5.0
        else:
            factor = 0.9 * norm**-0.2
            factor = factor if factor > 0.2 else 0.2
        h *= factor
        if x < x1 and h < 1e-14 * (span if span > (a := abs(x)) else a):
            raise StepSizeUnderflowError(f"step size underflow at x = {x}")
        steps += 1
        if steps > 1_000_000:
            raise StepSizeUnderflowError("step budget exhausted")
    return out


def rk_trajectory(problem: EmdenProblem, series: Series, xs: Sequence, tol: float = 1e-10) -> list:
    """Integrate the problem once from just off the origin and return
    y at each point of ``xs``, in the order given.

    The equation is singular at x = 0, so integration starts at
    x_start = min(1e-3, half the smallest positive point), or 1e-3 when
    no point is positive, with (y, y') read off ``series`` there, then
    runs once to the largest point and reads each other point off the
    accepted step that covers it; x = 0 gives the problem's y(0).  A
    negative, infinite or NaN point, or a ``tol`` not positive and
    finite, raises ValueError.  This is an independent check on the series in the only
    sense available: the trajectory comes from step-wise quadrature, not
    from the coefficient recurrence that built the series.
    """
    if not 0 < tol < inf:  # NaN fails it too
        raise ValueError(f"tol {tol} must be a positive finite number")
    targets = [float(x) for x in xs]
    for x in targets:
        if not x >= 0:  # NaN fails it too
            raise ValueError(f"x_target {x} must be >= 0")
        if x == inf:
            raise ValueError(f"x_target {x} must be finite")
    x_start = min(1e-3, min((x for x in targets if x > 0), default=1.0) / 2)
    g = problem.g
    series = series.to_float()
    # y'(x) = sum k Y(k) x^(k-1)
    dy = Series([k * c for k, c in enumerate(series.coeffs)][1:], Mode.FLOAT)
    state = (evaluate(series, x_start), evaluate(dy, x_start))
    p, a = (as_float(getattr(problem, name), f"equation constant {name}") for name in "pa")
    top, *low = reversed(problem.f_poly.to_float().coeffs)

    def rhs(x, yv, dyv):
        try:
            gv = evaluate_scalar(g, yv)
        except OverflowError:  # the trajectory blows up: exp(y) or y^m past the float range
            raise KernelDomainError(f"g(y) overflows at y = {yv} (x = {x})") from None
        fx = top  # f(x) by Horner from the top, as evaluate does
        for c in low:
            fx = fx * x + c
        return (dyv, -(p / x) * dyv - a * fx * gv)

    values, stops = {0.0: float(problem.y0)}, sorted(set(targets) - {0.0})
    values.update(zip(stops, _integrate(rhs, x_start, *state, stops, tol)))
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
