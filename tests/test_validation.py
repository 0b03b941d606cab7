import math
import re
import sys
from fractions import Fraction as F

import pytest

from emdenseries import (
    Const,
    EmdenProblem,
    FloatRangeError,
    KernelDomainError,
    Log,
    Mode,
    OracleUnavailableError,
    OrderMismatchError,
    Power,
    PresetId,
    Scale,
    Series,
    Sum,
    Var,
    build_preset,
    compare,
    compare_pointwise,
    evaluate,
    exact_solution,
    reference_series,
    rk_trajectory,
    solve,
)
from emdenseries import cli, solver, validation
from emdenseries.problem import PRESET_CATALOG
from emdenseries.validation import DEFAULT_SAMPLE_GRID, StepSizeUnderflowError

import oracles
from conftest import floating, has_closed_form, rational, relclose


class TestExactSolutions:
    def test_values(self):
        assert exact_solution(PresetId("lane_emden", m=1), 0) == 1.0
        assert exact_solution(PresetId("lane_emden", m=0), 1.0) == pytest.approx(5 / 6)
        assert exact_solution(PresetId("lane_emden", m=5), 1.0) == pytest.approx(
            (4 / 3) ** -0.5
        )
        assert exact_solution(PresetId("example5", a=1), 1.0) == pytest.approx(
            -2 * math.log(2)
        )
        assert exact_solution(PresetId("example6", a=1), 0.5) == pytest.approx(
            math.exp(-0.25)
        )

    def test_unavailable(self):
        with pytest.raises(OracleUnavailableError):
            exact_solution(PresetId("sinh_case"), 0.5)
        with pytest.raises(OracleUnavailableError):
            exact_solution(PresetId("lane_emden", m=3), 0.5)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            exact_solution(PresetId("example5", a=-1), 1.5)

    def test_availability_helper(self):
        assert has_closed_form(PresetId("lane_emden", m=5))
        assert not has_closed_form(PresetId("sin_case"))

    @pytest.mark.parametrize("name", ["example5", "example6"])
    def test_parameter_past_the_float_range_is_named(self, name):
        with pytest.raises(FloatRangeError, match=r"^parameter a overflows a float$"):
            exact_solution(PresetId(name, a=10**400), 0.5)


_E = math.e
# The values the notes on the catalog rows give for the quoted terms that
# the recurrence does not reproduce.
_CORRECTED = {
    ("isothermal", 10): -629 / 224532000,
    ("sinh_case", 2): -(_E**2 - 1) / (12 * _E),
    ("sinh_case", 6): -(2 * _E**6 - 3 * _E**4 + 3 * _E**2 - 2) / (30240 * _E**3),
    ("sinh_case", 8): (61 * _E**8 - 104 * _E**6 + 104 * _E**2 - 61) / (26127360 * _E**4),
}
_QUOTED = [(info.name, k) for info in PRESET_CATALOG if info.reference for k, _ in info.reference]


class TestReferenceSeries:
    @pytest.mark.parametrize("name,k", _QUOTED, ids=[f"{n}-x^{k}" for n, k in _QUOTED])
    def test_quoted_value_against_the_recurrence(self, name, k):
        mode = Mode.RATIONAL if name == "isothermal" else Mode.FLOAT
        dtm = solve(build_preset(PresetId(name), 10, mode)).series.to_float()
        quoted = reference_series(PresetId(name))[k]
        if (name, k) in _CORRECTED:
            assert dtm[k] == pytest.approx(_CORRECTED[name, k], rel=1e-12)
            assert quoted != pytest.approx(dtm[k], rel=1e-9)
        else:
            assert quoted == pytest.approx(dtm[k], rel=1e-12)

    @pytest.mark.parametrize("info", [i for i in PRESET_CATALOG if i.reference],
                             ids=lambda info: info.name)
    def test_layout(self, info):
        ks = [k for k, _ in info.reference]
        assert ks == sorted(set(ks)) and all(k % 2 == 0 for k in ks)
        ref = reference_series(PresetId(info.name))
        assert ref.mode is Mode.FLOAT and ref.order == ks[-1]
        assert all(ref[k] == 0 for k in range(ref.order + 1) if k not in ks)
        assert all(isinstance(c, float) for c in ref.coeffs)

    def test_isothermal_tail_coefficient(self):
        ref = reference_series(PresetId("isothermal"))
        assert ref.order == 10 and ref.mode is Mode.FLOAT
        assert ref[10] == pytest.approx(-4087 / 1796256000, rel=1e-15)

    def test_sinh_quarter_coefficient(self):
        ref = reference_series(PresetId("sinh_case"))
        assert ref[4] == pytest.approx((math.e**4 - 1) / (480 * math.e**2), rel=1e-15)

    def test_sin_quarter_coefficient(self):
        ref = reference_series(PresetId("sin_case"))
        assert ref[4] == pytest.approx(math.sin(1) * math.cos(1) / 120, rel=1e-15)

    def test_unavailable(self):
        with pytest.raises(OracleUnavailableError) as err:
            reference_series(PresetId("lane_emden", m=1))
        assert str(err.value) == (
            "no reference series for preset 'lane_emden' "
            "(available: isothermal, sin_case, sinh_case)"
        )


def _rk(problem, xs, tol=1e-10):
    """rk_trajectory seeded from the problem's own solve."""
    return rk_trajectory(problem, solve(problem).series, xs, tol)


class TestRkOracle:
    def test_lane_emden_m1_hits_the_closed_form(self):
        problem = build_preset(PresetId("lane_emden", m=1), 10, Mode.RATIONAL)
        assert _rk(problem, [1.0]) == [pytest.approx(math.sin(1.0), abs=1e-8)]

    def test_example6_hits_the_closed_form(self):
        problem = build_preset(PresetId("example6", a=1), 10, Mode.RATIONAL)
        assert _rk(problem, [0.5]) == [pytest.approx(math.exp(-0.25), abs=1e-8)]

    def test_isothermal_agrees_with_series(self):
        problem = build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)
        dtm = evaluate(solve(problem).series.to_float(), 0.5)
        assert _rk(problem, [0.5]) == [pytest.approx(dtm, abs=1e-6)]

    def test_quadratic_solution_reaches_every_target(self):
        # y = 1 - x^2/6: the error estimate is exactly 0, so steps grow
        # fivefold and the last one is clipped to a rounding error
        problem = build_preset(PresetId("lane_emden", m=0), 10, Mode.RATIONAL)
        for x in (0.9, 1.3, 2.0):
            assert _rk(problem, [x]) == [pytest.approx(1 - x * x / 6, abs=1e-12)]


NONZERO_GRID = [x for x in DEFAULT_SAMPLE_GRID if x > 0]
DENSE_GRID = [1e-3] + [k / 100 for k in range(1, 301)]  # starts the integration at 5e-4
EVERY_PRESET = [
    PresetId("lane_emden", m=0), PresetId("lane_emden", m=1), PresetId("lane_emden", m=5),
    PresetId("isothermal"), PresetId("sinh_case"), PresetId("sin_case"),
    PresetId("example5", a=1), PresetId("example6", a=1),
]


def _preset_label(pid):
    return "_".join(str(v) for v in (pid.name, pid.m, pid.a) if v is not None)


def _count_rhs(monkeypatch):
    """A list that grows by one per integrator right-hand side evaluation."""
    calls = []
    inner = validation.evaluate_scalar

    def counting(g, y):
        calls.append(y)
        return inner(g, y)

    monkeypatch.setattr(validation, "evaluate_scalar", counting)
    return calls


class TestRkTrajectory:
    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_matches_the_per_point_oracle(self, pid):
        problem = build_preset(pid, 20, Mode.FLOAT)
        values = _rk(problem, NONZERO_GRID)
        for x, y in zip(NONZERO_GRID, values):
            assert relclose(y, _rk(problem, [x])[0], 1e-9), x

    def test_values_follow_input_order(self):
        problem = build_preset(PresetId("example6", a=1), 20, Mode.FLOAT)
        xs = [1.5, 0.2, 2.0, 0.2, 1e-3, 1.5, 0.7] + NONZERO_GRID[::-1]
        by_x = dict(zip(sorted(set(xs)), _rk(problem, sorted(set(xs)))))
        assert _rk(problem, xs) == [by_x[x] for x in xs]

    def test_origin_gives_y0_in_input_order(self):
        problem = build_preset(PresetId("lane_emden", m=1), 10, Mode.RATIONAL)
        xs = [0.5, 0.0, 1.0, 0.0]
        y05, y1 = _rk(problem, [0.5, 1.0])
        assert _rk(problem, xs) == [y05, 1.0, y1, 1.0]
        assert _rk(problem, [0.0]) == [1.0]

    def test_rejects_a_negative_point(self):
        problem = build_preset(PresetId("lane_emden", m=1), 10, Mode.FLOAT)
        with pytest.raises(ValueError, match=r"^x_target -0\.25 must be >= 0$"):
            _rk(problem, [0.5, -0.25])

    @pytest.mark.parametrize("xs", [[math.nan], [0.5, math.nan], [math.nan, -1.0]],
                             ids=["nan", "after_a_point", "before_a_negative"])
    def test_rejects_a_nan_point(self, xs):
        problem = build_preset(PresetId("example6", a=1), 20, Mode.FLOAT)
        with pytest.raises(ValueError, match=r"^x_target nan must be >= 0$"):
            _rk(problem, xs)

    @pytest.mark.parametrize("x, message", [
        (math.inf, r"^x_target inf must be finite$"),
        (-math.inf, r"^x_target -inf must be >= 0$"),
        (math.nan, r"^x_target nan must be >= 0$"),
    ], ids=["inf", "minus_inf", "nan"])
    def test_rejects_a_non_finite_point_by_name(self, x, message):
        # +inf used to pass the x >= 0 check and fail as a step size underflow
        # at x_start, since the underflow test scales with the span
        problem = build_preset(PresetId("lane_emden", m=1), 10, Mode.FLOAT)
        series = solve(problem).series
        with pytest.raises(ValueError, match=message):
            rk_trajectory(problem, series, [1.0, x])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, -math.inf],
                             ids=["zero", "negative", "nan", "inf", "minus_inf"])
    def test_rejects_a_tol_not_positive_and_finite(self, tol):
        # 0 divided by zero, and any other of these accepted every step at
        # fivefold growth: here y then left ln's domain
        problem = build_preset(PresetId("example6", a=1), 20, Mode.FLOAT)
        message = rf"^tol {re.escape(str(tol))} must be a positive finite number$"
        with pytest.raises(ValueError, match=message):
            _rk(problem, [1.0], tol)

    @pytest.mark.parametrize("xs, start", [
        ([0.5], 1e-3), (DENSE_GRID, 5e-4),
        ([0.0, 0.4], 1e-3), ([0.001, 0.0], 5e-4),
    ], ids=["one_point", "dense", "with_origin", "origin_and_start"])
    def test_start_is_half_the_smallest_positive_point_at_most_1e_3(self, xs, start, monkeypatch):
        starts = []
        integrate = validation._integrate

        def spy(f, x0, y, dy, x1, tol):
            starts.append(x0)
            return integrate(f, x0, y, dy, x1, tol)

        monkeypatch.setattr(validation, "_integrate", spy)
        _rk(build_preset(PresetId("example6", a=1), 20, Mode.FLOAT), xs)
        assert starts[0] == start

    @pytest.mark.parametrize(
        "pid", [PresetId("lane_emden", m=1), PresetId("isothermal"), PresetId("example6", a=1)],
        ids=_preset_label,
    )
    def test_a_grid_costs_about_one_path(self, pid, monkeypatch):
        # integrating from x_start to every point separately costs 10-14x; the
        # grid takes the very steps of a straight run to its largest point
        problem = build_preset(pid, 20, Mode.FLOAT)
        series = solve(problem).series
        calls = _count_rhs(monkeypatch)
        rk_trajectory(problem, series, [2.0])
        straight = len(calls)
        calls.clear()
        rk_trajectory(problem, series, NONZERO_GRID)
        assert len(calls) == straight

    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_float_constants_change_no_bit(self, pid, monkeypatch):
        # each node converts its constants to float once
        problem = build_preset(pid, 20, Mode.FLOAT)
        once = _rk(problem, NONZERO_GRID)
        monkeypatch.setattr(validation, "evaluate_scalar", oracles.float_per_call)
        per_call = _rk(problem, NONZERO_GRID)
        assert list(map(repr, once)) == list(map(repr, per_call))

    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_starts_from_the_series_and_its_derivative(self, pid, monkeypatch):
        # (y, y') at x_start against sum Y(k) x^k and sum k Y(k) x^(k-1),
        # summed exactly over the float coefficients
        starts = []
        integrate = validation._integrate

        def spy(f, x0, y, dy, x1, tol):
            starts.append((x0, y, dy))
            return integrate(f, x0, y, dy, x1, tol)

        monkeypatch.setattr(validation, "_integrate", spy)
        problem = build_preset(pid, 20, Mode.FLOAT)
        _rk(problem, [0.5])
        x0, y, dy = starts[0]
        coeffs, x = [F(c) for c in solve(problem).series.coeffs], F(x0)
        exact_y = sum(c * x**k for k, c in enumerate(coeffs))
        exact_dy = sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)
        assert x0 == 1e-3
        assert relclose(y, float(exact_y), 1e-14) and relclose(dy, float(exact_dy), 1e-14)

    def test_fractional_exponent_error_prints_exactly(self):
        # converted once, yet the domain error of y^m still prints y^(3/2)
        problem = build_preset(PresetId("lane_emden", m=F(3, 2)), 20, Mode.FLOAT)
        with pytest.raises(KernelDomainError, match=r"^y\^\(3/2\) at negative y = -"):
            _rk(problem, [3.5, 3.75, 4.0])

    def test_constant_past_the_float_range_fails_as_an_overflow(self):
        # the error names the constant, not y = 0
        problem = EmdenProblem(
            p=2, a=1, f_poly=Series([1], Mode.RATIONAL),
            g=Sum((Var(), Scale(F(10**400), Power(2)))), y0=0, dy0=0, order=6, mode=Mode.RATIONAL,
        )
        with pytest.raises(KernelDomainError, match=rf"^constant {10**400} in g\(y\) overflows a float$"):
            _rk(problem, [0.5])

    def test_equation_constant_past_the_float_range_is_named(self):
        # g(0) = 0 keeps every coefficient zero, so only a overflows
        problem = EmdenProblem(
            p=2, a=10**400, f_poly=Series([1], Mode.RATIONAL), g=Var(), y0=0, dy0=0,
            order=6, mode=Mode.RATIONAL,
        )
        with pytest.raises(FloatRangeError, match=r"^equation constant a overflows a float$"):
            _rk(problem, [0.5])

    def test_numeric_compare_solves_once(self, monkeypatch, capsys):
        # the integrator seeds from the series the CLI compares
        calls = []
        solve = solver.solve

        def counting(problem):
            calls.append(problem)
            return solve(problem)

        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("emdenseries"):
                for name, value in list(vars(module).items()):
                    if value is solve:
                        monkeypatch.setattr(module, name, counting)
        argv = ["compare", "--preset", "isothermal", "--order", "20", "--against", "numeric"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 22
        assert len(calls) == 1


FINE_GRID = [k / 40 for k in range(1, 121)]  # 0:3:1/40 past the origin
CLOSED_FORM_PRESETS = [
    PresetId("lane_emden", m=0), PresetId("lane_emden", m=1), PresetId("lane_emden", m=5),
    PresetId("example5", a=1), PresetId("example6", a=1),
]


def _integration(pid, monkeypatch):
    """rk_trajectory's (f, x_start, y, y', stops, tol) on the default grid at order
    20, and the y it returns there."""
    runs = []
    integrate = validation._integrate

    def spy(*args):
        runs.append(args)
        return integrate(*args)

    monkeypatch.setattr(validation, "_integrate", spy)
    values = _rk(build_preset(pid, 20, Mode.FLOAT), NONZERO_GRID)
    monkeypatch.setattr(validation, "_integrate", integrate)
    return runs[0], values


class TestDenseOutput:
    """One pass to the largest point, the others read off the fourth-order
    continuous extension: within the step tolerance's reach of the truth and
    of a run that stops at every point, for fewer right-hand sides."""

    @pytest.mark.parametrize("grid", [NONZERO_GRID, FINE_GRID], ids=["default", "fine"])
    @pytest.mark.parametrize("pid", CLOSED_FORM_PRESETS, ids=_preset_label)
    def test_within_1e_9_of_the_closed_form(self, pid, grid):
        # measured: at most 4.4e-11 (default) and 5.2e-11 (fine), lane_emden m=5
        values = _rk(build_preset(pid, 20, Mode.FLOAT), grid)
        for x, y in zip(grid, values):
            assert abs(y - exact_solution(pid, x)) <= 1e-9, x

    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_interpolated_points_agree_with_a_stopped_run(self, pid, monkeypatch):
        # the same right-hand side from the same start, integrated by the
        # generic loop one stretch at a time; measured: at most 3.4e-11
        run, values = _integration(pid, monkeypatch)
        stopped = _generic_stops(*run)
        assert max(abs(a - b) for a, b in zip(values, stopped)) <= 1e-9

    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_fewer_right_hand_sides_than_a_stopped_run(self, pid, monkeypatch):
        # the library's own step run one stretch at a time, each restarting its
        # step, as the oracle did before it interpolated; measured: 0.08x on
        # lane_emden m=0, 0.60-0.92x on the rest
        (f, x, y, dy, stops, tol), _ = _integration(pid, monkeypatch)
        calls, steps = _count_rhs(monkeypatch), []
        step = validation._dopri_step

        def spy(*args):
            steps.append(step(*args))
            return steps[-1]

        monkeypatch.setattr(validation, "_dopri_step", spy)
        validation._integrate(f, x, y, dy, stops, tol)
        dense = len(calls)
        calls.clear()
        for x1 in stops:  # the last step of a stretch is its accepted end
            validation._integrate(f, x, y, dy, [x1], tol)
            x, (y, dy) = x1, steps[-1][:2]
        assert dense <= 0.95 * len(calls)

    def test_quadratic_solution_takes_a_handful_of_steps(self, monkeypatch):
        # y = 1 - x^2/6: the error estimate is 0 and steps grow fivefold to x = 2;
        # 31 right-hand sides, where the stopped run took 361
        problem = build_preset(PresetId("lane_emden", m=0), 20, Mode.FLOAT)
        series = solve(problem).series
        calls = _count_rhs(monkeypatch)
        rk_trajectory(problem, series, NONZERO_GRID)
        assert len(calls) <= 40


def _outcome(trajectory, problem, xs):
    """The values' reprs, or the type and message of the error raised."""
    try:
        return list(map(repr, trajectory(problem, solve(problem).series, xs)))
    except (KernelDomainError, StepSizeUnderflowError) as exc:
        return type(exc), str(exc)


def _ln_reaches_zero():
    # y'' + (2/x) y' + ln(y) + 5 = 0 from y(0) = 1: y falls through 0
    g = Sum((Log(F(1), F(0)), Const(F(5))))
    return EmdenProblem(p=2, a=1, f_poly=Series([1], Mode.FLOAT), g=g, y0=1, dy0=0,
                        order=10, mode=Mode.FLOAT)


class TestTwoFloatStep:
    """rk_trajectory against the generic n-component integrator and its
    continuous extension in tests/oracles.py: the same floats, or the same error."""

    @pytest.mark.parametrize("grid", [NONZERO_GRID, DENSE_GRID], ids=["default", "dense"])
    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_bit_identical_on_every_preset(self, pid, grid):
        problem = build_preset(pid, 20, Mode.FLOAT)
        want = _outcome(oracles.generic_trajectory, problem, grid)
        assert _outcome(rk_trajectory, problem, grid) == want

    @pytest.mark.parametrize("problem, xs, error, message", [
        (build_preset(PresetId("example5", a=-1), 20, Mode.FLOAT), NONZERO_GRID,
         StepSizeUnderflowError, "step size underflow at x = "),
        # the singularity at x = 1/sqrt(10^5) lies inside the first step
        (build_preset(PresetId("example5", a=-100000), 2, Mode.FLOAT), NONZERO_GRID,
         KernelDomainError, "g(y) overflows at y = "),
        (build_preset(PresetId("lane_emden", m=F(3, 2)), 20, Mode.FLOAT), [3.5, 3.75, 4.0],
         KernelDomainError, "y^(3/2) at negative y = -"),
        (_ln_reaches_zero(), [k / 4 for k in range(1, 21)],
         KernelDomainError, "ln argument -"),
    ], ids=["step_underflow", "g_overflow", "power_domain", "ln_domain"])
    def test_bit_identical_errors(self, problem, xs, error, message):
        want = _outcome(oracles.generic_trajectory, problem, xs)
        assert want[0] is error and want[1].startswith(message)
        assert _outcome(rk_trajectory, problem, xs) == want


def _zero_sign_slopes(x, y, dy):
    """(y, y')' with y'' = 1 for which, from (x, y, y') = (0, -0.0, 0.0), the
    first step's stage 7 runs at y = -0.0 and its y5 is +0.0: the y-slope is
    positive where y == 0 < y' (stages 2 and 7), +0.0 below y = -12 y' (only
    stage 5) and -0.0 elsewhere, so stage 7 sums signed zeros that are all
    -0.0 while y5 adds the stage-2 term weighted by 0.0.  Where y == 0 < y'
    the slope depends on the zero's sign, so k7 taken for the next k1 would
    change the result."""
    if y == 0 and dy > 0:
        return (1.0 if math.copysign(1.0, y) < 0 else 0.5), 1.0
    return (0.0 if y < -12 * dy else -0.0), 1.0


def _generic_stops(f, x, y, dy, stops, tol):
    """y at each stop by the generic integrator, one stretch at a time, each
    ending on its stop and starting its step afresh."""
    out, state = [], [y, dy]
    for x1 in stops:
        [state] = oracles._integrate(lambda x, s: f(x, *s), x, state, [x1], tol)
        x = x1
        out.append(state[0])
    return out


def _generic_dense(f, x, y, dy, stops, tol):
    """y at each stop by the generic integrator's one pass and continuous extension."""
    return [state[0] for state in oracles._integrate(lambda x, s: f(x, *s), x, [y, dy], stops, tol)]


class TestStageReuse:
    """An accepted step's k7 becomes the next k1 only where stage 7 ran at the
    next step's (x, y, y') bit for bit, and a rejected step keeps its k1: the
    same floats as the generic integrator, from fewer right-hand sides."""

    def test_zero_of_the_other_sign_is_evaluated_afresh(self):
        calls = []

        def f(x, y, dy):
            calls.append((x, y, dy))
            return _zero_sign_slopes(x, y, dy)

        stops = [0.1, 0.5, 1.0]
        got = validation._integrate(f, 0.0, -0.0, 0.0, stops, 1.0)
        want = _generic_dense(_zero_sign_slopes, 0.0, -0.0, 0.0, stops, 1.0)
        assert list(map(repr, got)) == list(map(repr, want))
        # the first step's k1 and stages 2-7, then the second step's k1
        (x7, y7, d7), (x1, y1, d1) = calls[6:8]
        assert (x7, d7) == (x1, d1) and (repr(y7), repr(y1)) == ("-0.0", "0.0")

    def test_clipped_final_step_ends_on_the_last_stop(self, monkeypatch):
        # from x = 0.31 the clipped step's x + (6/7 - x) lands one ulp past 6/7,
        # where this slope has switched on; the pass still ends at 6/7, which
        # takes that step's y5, and 0.5 inside the step is interpolated
        stop, steps = 6 / 7, []
        step = validation._dopri_step

        def spy(f, x, y, dy, h, k1):
            steps.append((x, h, step(f, x, y, dy, h, k1)))
            return steps[-1][2]

        def f(x, y, dy):
            return dy, float(x > stop)

        monkeypatch.setattr(validation, "_dopri_step", spy)
        got = validation._integrate(f, 0.0, 0.0, 0.0, [0.5, stop], 1.0)
        want = _generic_dense(f, 0.0, 0.0, 0.0, [0.5, stop], 1.0)
        assert list(map(repr, got)) == list(map(repr, want))
        x, h, out = steps[-1]
        assert x < 0.5 < stop < x + h and got[1] == out[0]

    # lane_emden m=0 rejects nothing: its error estimate is exactly 0
    @pytest.mark.parametrize("pid", [pid for pid in EVERY_PRESET if pid.m != 0], ids=_preset_label)
    def test_bit_identical_through_rejected_steps(self, pid, monkeypatch):
        starts = []
        step = validation._dopri_step

        def spy(f, x, *rest):
            starts.append(x)
            return step(f, x, *rest)

        monkeypatch.setattr(validation, "_dopri_step", spy)
        problem = build_preset(pid, 20, Mode.FLOAT)
        series = solve(problem).series
        want = oracles.generic_trajectory(problem, series, DENSE_GRID, 1e-13)
        got = rk_trajectory(problem, series, DENSE_GRID, 1e-13)
        assert list(map(repr, got)) == list(map(repr, want))
        # a rejected step is retried from the same x
        assert sum(a == b for a, b in zip(starts, starts[1:])) >= 2

    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_no_k1_repeats_an_evaluation(self, pid, monkeypatch):
        # a k1 that _integrate evaluates itself is new bit for bit, and new in
        # value unless the guard refused the last k7; stages 6 and 7, both at
        # x + h, can still coincide (lane_emden m=0, whose solution is a quadratic)
        calls, generic_calls, repeats = [], [], []
        seen_bits, seen, step_state = set(), set(), {"inside": False, "refused": False}
        integrate, step = validation._integrate, validation._dopri_step
        generic = oracles._integrate

        def spy(f, *args):
            def counted(x, y, dy):
                bits = tuple(map(float.hex, (x, y, dy)))
                if not step_state["inside"] and (
                        bits in seen_bits or ((x, y, dy) in seen and not step_state["refused"])):
                    repeats.append((x, y, dy))
                seen_bits.add(bits)
                seen.add((x, y, dy))
                calls.append(x)
                return f(x, y, dy)
            return integrate(counted, *args)

        def step_spy(*args):
            step_state["inside"] = True
            out = step(*args)
            step_state.update(inside=False, refused=out[4] is None)
            return out

        def generic_spy(f, *args):
            def counted(x, state):
                generic_calls.append(x)
                return f(x, state)
            return generic(counted, *args)

        monkeypatch.setattr(validation, "_integrate", spy)
        monkeypatch.setattr(validation, "_dopri_step", step_spy)
        monkeypatch.setattr(oracles, "_integrate", generic_spy)
        problem = build_preset(pid, 20, Mode.FLOAT)
        series = solve(problem).series
        rk_trajectory(problem, series, NONZERO_GRID)
        oracles.generic_trajectory(problem, series, NONZERO_GRID)
        assert repeats == []
        assert len(calls) <= 0.9 * len(generic_calls)


def _stops_outcome(integrate, f, stops):
    """y at each stop from (x, y, y') = (0, 0, 1) at tol=1e-8, as reprs, or
    the type and message of the error raised."""
    try:
        return list(map(repr, integrate(f, 0.0, 0.0, 1.0, stops, 1e-8)))
    except StepSizeUnderflowError as exc:
        return type(exc), str(exc)


def _oscillator(x, y, dy):
    return dy, -y


CONTROLLER_STOPS = [0.3, 0.7, 1.0, 2.0]


class TestStepController:
    """The error norm max(0.0, ...) and the clamps min(5.0, max(0.2, ...)),
    written as comparisons in _integrate, against the generic integrator's
    max/min loop where slopes or error estimates turn NaN, infinite or -0.0:
    the same floats, or the same error and message."""

    @pytest.mark.parametrize("which", ["y", "dy", "both"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_slopes_that_turn_non_finite(self, value, which):
        # y'' = -y until x passes 0.55, then ``value`` in place of one slope or both
        def f(x, y, dy):
            if x <= 0.55:
                return dy, -y
            return (dy if which == "dy" else value), (-y if which == "y" else value)

        want = _stops_outcome(_generic_dense, f, CONTROLLER_STOPS)
        assert want[0] == "0.29552020924428973" and "nan" in want
        assert _stops_outcome(validation._integrate, f, CONTROLLER_STOPS) == want

    @pytest.mark.parametrize("errors", [
        (-0.0, -0.0), (-0.0, None), (None, -0.0), (math.nan, None), (None, math.nan),
        (math.nan, math.nan), (math.inf, None), (None, -math.inf), (1e-6, None), (None, -1e-300),
    ], ids=repr)
    def test_error_estimates_replaced_past_a_point(self, errors, monkeypatch):
        # past x = 0.4 each step's (ey, ey') reads ``errors``; None keeps the estimate
        step, generic_step = validation._dopri_step, oracles._dopri_step

        def replaced(x, ey, ed):
            if x <= 0.4:
                return ey, ed
            return tuple(e if r is None else r for e, r in zip((ey, ed), errors))

        def spy(f, x, y, dy, h, k1):
            y5, d5, ey, ed, k7, ks = step(f, x, y, dy, h, k1)
            return (y5, d5, *replaced(x, ey, ed), k7, ks)

        def generic_spy(f, x, y, h):
            y5, err, ks = generic_step(f, x, y, h)
            return y5, list(replaced(x, *err)), ks

        monkeypatch.setattr(validation, "_dopri_step", spy)
        monkeypatch.setattr(oracles, "_dopri_step", generic_spy)
        want = _stops_outcome(_generic_dense, _oscillator, CONTROLLER_STOPS)
        assert _stops_outcome(validation._integrate, _oscillator, CONTROLLER_STOPS) == want


    @pytest.mark.parametrize("which", ["y", "dy"])
    def test_a_nan_fifth_order_value_never_sets_the_scale(self, which, monkeypatch):
        # past x = 0.55 the slopes are NaN, and a step with NaN (y5, y5') gets
        # the error estimates 1.0 for ``which`` and 0.0 for the other:
        # max(|y|, |y5|) keeps |y|, so such a step is rejected until the step
        # size underflows, where a NaN scale would accept it
        def f(x, y, dy):
            return (dy, -y) if x <= 0.55 else (math.nan, math.nan)

        def replaced(y5, errors):
            if math.isnan(y5):
                return (1.0, 0.0) if which == "y" else (0.0, 1.0)
            return errors

        step, generic_step = validation._dopri_step, oracles._dopri_step

        def spy(f, x, y, dy, h, k1):
            y5, d5, ey, ed, k7, ks = step(f, x, y, dy, h, k1)
            return (y5, d5, *replaced(y5, (ey, ed)), k7, ks)

        def generic_spy(f, x, y, h):
            y5, err, ks = generic_step(f, x, y, h)
            return y5, list(replaced(y5[0], err)), ks

        monkeypatch.setattr(validation, "_dopri_step", spy)
        monkeypatch.setattr(oracles, "_dopri_step", generic_spy)
        want = _stops_outcome(_generic_dense, f, CONTROLLER_STOPS)
        assert want[0] is StepSizeUnderflowError
        assert _stops_outcome(validation._integrate, f, CONTROLLER_STOPS) == want


class TestCompare:
    def test_equal_series_all_zero(self):
        s = rational([1, 0, F(-1, 6)])
        report = compare(s, s)
        assert report.max_coeff_delta == 0.0
        assert report.max_point_delta == 0.0
        assert report.exact_match is True
        assert report.mismatched_indices() == ()

    def test_isothermal_against_quoted_series(self):
        dtm = solve(build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)).series
        report = compare(dtm.to_float(), reference_series(PresetId("isothermal")))
        assert report.mismatched_indices(1e-9) == (10,)
        row = report.coeff_deltas[10]
        assert row.a == pytest.approx(-629 / 224532000, rel=1e-15)
        assert row.b == pytest.approx(-4087 / 1796256000, rel=1e-15)
        # agreement through x^8
        assert all(report.coeff_deltas[k].rel_delta < 1e-12 for k in range(9))

    def test_sin_case_against_quoted_series(self):
        dtm = solve(build_preset(PresetId("sin_case"), 10, Mode.FLOAT)).series
        report = compare(dtm, reference_series(PresetId("sin_case")))
        assert all(d.rel_delta < 1e-12 for d in report.coeff_deltas)

    def test_sinh_case_flags_the_known_misprints(self):
        dtm = solve(build_preset(PresetId("sinh_case"), 10, Mode.FLOAT)).series
        report = compare(dtm, reference_series(PresetId("sinh_case")))
        flagged = report.mismatched_indices(1e-9)
        assert 2 in flagged
        assert flagged == (2, 6, 8)
        assert report.coeff_deltas[4].rel_delta < 1e-12
        assert report.coeff_deltas[10].rel_delta < 1e-12

    def test_tolerance_verdict(self):
        a = rational([1, 0, F(-1, 6)])
        b = rational([1, 0, F(-1, 7)])
        grid = [0.0, 0.5, 1.0]
        assert compare(a, b, grid, tolerance=1e-1).within_tolerance is True
        assert compare(a, b, grid, tolerance=1e-4).within_tolerance is False
        assert compare(a, b, grid).within_tolerance is None

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError) as err:
            compare(rational([1, 0]), rational([1, 0, 0]))
        assert str(err.value) == "orders differ (1 vs 2); pad the shorter one"

    def test_default_grid(self):
        assert len(DEFAULT_SAMPLE_GRID) == 21
        assert DEFAULT_SAMPLE_GRID[0] == 0.0
        assert DEFAULT_SAMPLE_GRID[-1] == 2.0

    def test_pointwise_against_callable(self):
        s = floating([1, 0, -1 / 6])
        report = compare_pointwise(s, lambda x: 1 - x * x / 6, [0.0, 0.3, 0.9], 1e-12)
        assert report.within_tolerance is True
        assert report.coeff_deltas == ()


class TestConvergenceTowardClosedForms:
    CASES = [
        (PresetId("lane_emden", m=0), Mode.RATIONAL),
        (PresetId("lane_emden", m=1), Mode.RATIONAL),
        (PresetId("lane_emden", m=5), Mode.RATIONAL),
        (PresetId("example5", a=1), Mode.RATIONAL),
        (PresetId("example6", a=1), Mode.RATIONAL),
    ]

    def test_error_decreases_with_order(self):
        for pid, mode in self.CASES:
            errors = []
            for n in (4, 6, 8, 10):
                series = solve(build_preset(pid, n, mode)).series.to_float()
                errors.append(
                    abs(evaluate(series, 0.5) - exact_solution(pid, 0.5))
                )
            for lo, hi in zip(errors[1:], errors[:-1]):
                assert lo <= hi + 1e-14, (pid, errors)

    def test_rational_solves_match_taylor_exactly(self):
        # closed forms with rational Taylor coefficients agree bit for bit
        taylors = {
            "lane_emden_0": ([1, 0, F(-1, 6)] + [0] * 8, PresetId("lane_emden", m=0)),
            "lane_emden_5": (oracles.inverse_sqrt_one_plus_third(10), PresetId("lane_emden", m=5)),
            "example5": (oracles.minus_two_log_one_plus(1, 10), PresetId("example5", a=1)),
            "example6": (oracles.gaussian(1, 10), PresetId("example6", a=1)),
        }
        for name, (coeffs, pid) in taylors.items():
            series = solve(build_preset(pid, 10, Mode.RATIONAL)).series
            assert list(series.coeffs) == [F(c) for c in coeffs], name

    def test_float_solve_matches_sine_series(self):
        series = solve(build_preset(PresetId("lane_emden", m=1), 10, Mode.FLOAT)).series
        for got, want in zip(series.coeffs, oracles.sin_x_over_x(10)):
            assert relclose(got, float(want), 1e-12)
