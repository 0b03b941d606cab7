import math
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
        # integrating from x_start to every point separately costs 10-14x
        problem = build_preset(pid, 20, Mode.FLOAT)
        series = solve(problem).series
        calls = _count_rhs(monkeypatch)
        rk_trajectory(problem, series, [2.0])
        straight = len(calls)
        calls.clear()
        rk_trajectory(problem, series, NONZERO_GRID)
        assert len(calls) <= 2 * straight

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
    """rk_trajectory against the generic n-component integrator it replaced,
    kept in tests/oracles.py: the same floats, or the same error."""

    @pytest.mark.parametrize("grid", [NONZERO_GRID, DENSE_GRID], ids=["default", "dense"])
    @pytest.mark.parametrize("pid", EVERY_PRESET, ids=_preset_label)
    def test_bit_identical_on_every_preset(self, pid, grid):
        problem = build_preset(pid, 20, Mode.FLOAT)
        want = _outcome(oracles.generic_trajectory, problem, grid)
        assert _outcome(rk_trajectory, problem, grid) == want

    @pytest.mark.parametrize("problem, xs, error, message", [
        (build_preset(PresetId("example5", a=-1), 20, Mode.FLOAT), NONZERO_GRID,
         StepSizeUnderflowError, "step size underflow at x = "),
        (build_preset(PresetId("example5", a=-1), 2, Mode.FLOAT), NONZERO_GRID,
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
