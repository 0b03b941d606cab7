import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

from emdenseries import (
    EmdenProblem,
    Exp,
    Mode,
    PresetId,
    ProblemValidationError,
    Series,
    build_preset,
    evaluate,
    residual_series,
    solve,
    transform_initial_conditions,
)

import oracles
from conftest import rational


class TestInitialConditions:
    def test_unit_start(self):
        assert transform_initial_conditions(F(1), F(0)) == (F(1), F(0))

    def test_zero_start(self):
        assert transform_initial_conditions(0, 0) == (0, 0)

    def test_negative_start(self):
        assert transform_initial_conditions(F(-3), F(0)) == (F(-3), F(0))

    def test_nonzero_slope_rejected(self):
        with pytest.raises(ValueError):
            transform_initial_conditions(F(1), F(2))


def lane(m, order=10, mode=Mode.RATIONAL):
    return solve(build_preset(PresetId("lane_emden", m=m), order, mode)).series


class TestPaperSeries:
    def test_lane_emden_m0(self):
        assert lane(0) == rational([1, 0, F(-1, 6), 0, 0, 0, 0, 0, 0, 0, 0])

    def test_lane_emden_m1_is_sin_x_over_x(self):
        assert list(lane(1).coeffs) == oracles.sin_x_over_x(10)

    def test_lane_emden_m5(self):
        expected = [1, 0, F(-1, 6), 0, F(1, 24), 0, F(-5, 432), 0,
                    F(35, 10368), 0, F(-7, 6912)]
        got = lane(5)
        assert got == rational(expected)
        assert list(got.coeffs) == oracles.inverse_sqrt_one_plus_third(10)

    def test_symbolic_coefficient_law(self):
        # Y(4) = m/120 and Y(6) = -m(8m-5)/15120 for the standard equation
        for m in range(6):
            s = lane(m, order=6)
            assert s[2] == F(-1, 6)
            assert s[4] == F(m, 120)
            assert s[6] == F(-m * (8 * m - 5), 15120)

    def test_isothermal(self):
        s = solve(build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)).series
        expected = [0, 0, F(-1, 6), 0, F(1, 120), 0, F(-1, 1890), 0,
                    F(61, 1632960), 0, F(-629, 224532000)]
        assert s == rational(expected)
        assert list(s.coeffs) == oracles.isothermal_by_direct_recurrence(10)

    def test_example5_order8(self):
        s = solve(build_preset(PresetId("example5", a=1), 8, Mode.RATIONAL)).series
        assert s == rational([0, 0, -2, 0, 1, 0, F(-2, 3), 0, F(1, 2)])

    def test_example5_matches_log_taylor(self):
        for a in (F(1), F(1, 2)):
            s = solve(build_preset(PresetId("example5", a=a), 14, Mode.RATIONAL)).series
            assert list(s.coeffs) == oracles.minus_two_log_one_plus(a, 14)

    def test_example6_matches_gaussian_taylor(self):
        s = solve(build_preset(PresetId("example6", a=1), 14, Mode.RATIONAL)).series
        assert list(s.coeffs) == oracles.gaussian(1, 14)

    def test_sinh_case_float(self):
        s = solve(build_preset(PresetId("sinh_case"), 10, Mode.FLOAT)).series
        assert s[2] == pytest.approx(-math.sinh(1) / 6, rel=1e-14)
        assert s[4] == pytest.approx(math.sinh(1) * math.cosh(1) / 120, rel=1e-14)

    def test_float_mode_tracks_rational_mode(self):
        # the exact-benchmark presets also solve in doubles, to roundoff
        for pid in (PresetId("example5", a=1), PresetId("example6", a=1),
                    PresetId("isothermal")):
            exact = solve(build_preset(pid, 12, Mode.RATIONAL)).series
            approx = solve(build_preset(pid, 12, Mode.FLOAT)).series
            for a, b in zip(exact.to_float().coeffs, approx.coeffs):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_sin_case_float(self):
        s = solve(build_preset(PresetId("sin_case"), 10, Mode.FLOAT)).series
        assert s[2] == pytest.approx(-math.sin(1) / 6, rel=1e-14)
        assert s[4] == pytest.approx(math.sin(1) * math.cos(1) / 120, rel=1e-14)


class TestRecurrenceStructure:
    def test_larger_order_reproduces_prefix(self):
        small = solve(build_preset(PresetId("isothermal"), 6, Mode.RATIONAL)).series
        large = solve(build_preset(PresetId("isothermal"), 12, Mode.RATIONAL)).series
        assert large.coeffs[:7] == small.coeffs

    def test_second_coefficient_forced_to_zero(self):
        for pid in (PresetId("lane_emden", m=3), PresetId("example6", a=2)):
            s = solve(build_preset(pid, 8, Mode.RATIONAL)).series
            assert s[1] == 0

    def test_preset_scaling_law(self):
        # for the two closed-form families the x^(2j) coefficient scales as a^j
        for name in ("example5", "example6"):
            base = solve(build_preset(PresetId(name, a=1), 12, Mode.RATIONAL)).series
            for a in (F(1, 2), F(2), F(3, 7)):
                scaled = solve(build_preset(PresetId(name, a=a), 12, Mode.RATIONAL)).series
                for j in range(7):
                    assert scaled[2 * j] == a**j * base[2 * j], (name, a, j)

    def test_polynomial_forcing_profile(self):
        # f(x) = 1 + x^2 exercises the full convolution over x*f(x)
        problem = EmdenProblem(
            p=2, a=1, f_poly=Series([1, 0, 1], Mode.RATIONAL), g=Exp(F(1)),
            y0=0, dy0=0, order=10, mode=Mode.RATIONAL,
        )
        report = solve(problem)
        assert residual_series(problem, report.series) == Series([0] * 11, Mode.RATIONAL)
        # independent check off the origin
        from emdenseries import rk_oracle

        dtm = evaluate(report.series.to_float(), 0.4)
        rk = rk_oracle(problem, 0.4, 1e-3, 1e-10)
        assert dtm == pytest.approx(rk, abs=1e-8)

    def test_report_contents(self):
        report = solve(build_preset(PresetId("isothermal"), 8, Mode.RATIONAL))
        assert report.series.order == 8
        assert report.kernel_calls == 7  # one exp kernel advanced to index 6
        assert report.warnings == ()
        assert report.g_prefix[0] == F(1)

    def test_validation_failure_raises(self):
        problem = build_preset(PresetId("sinh_case"), 8, Mode.RATIONAL)
        with pytest.raises(ProblemValidationError):
            solve(problem)


class TestResiduals:
    RATIONAL_PRESETS = [
        PresetId("lane_emden", m=0), PresetId("lane_emden", m=1),
        PresetId("lane_emden", m=5), PresetId("isothermal"),
        PresetId("example5", a=1), PresetId("example6", a=1),
    ]

    def test_solutions_annihilate_the_operator(self):
        for pid in self.RATIONAL_PRESETS:
            problem = build_preset(pid, 10, Mode.RATIONAL)
            series = solve(problem).series
            res = residual_series(problem, series)
            assert res == Series([0] * 11, Mode.RATIONAL), pid

    def test_same_order_residual_leaves_only_the_next_term(self):
        # odd N, and an f with an odd power, make Y(N+1) nonzero, so the
        # top residual coefficient is not zero but -(N+1)(N+p) Y(N+1)
        custom = EmdenProblem(
            p=2, a=1, f_poly=Series([1, 1], Mode.RATIONAL), g=Exp(F(1)),
            y0=0, dy0=0, order=10, mode=Mode.RATIONAL,
        )
        cases = [
            build_preset(PresetId("isothermal"), 11, Mode.RATIONAL),
            build_preset(PresetId("lane_emden", m=5), 11, Mode.RATIONAL),
            custom,
        ]
        for problem in cases:
            n = problem.order
            res = residual_series(problem, solve(problem).series)
            assert res.coeffs[:n] == (F(0),) * n
            next_term = solve(replace(problem, order=n + 1)).series[n + 1]
            assert next_term != 0
            assert res[n] == -(n + 1) * (n + problem.p) * next_term

    def test_truncation_shows_at_the_right_index(self):
        # an order-6 solution, re-examined with order-10 arithmetic, first
        # fails where its own recurrence stopped zeroing coefficients
        low = solve(build_preset(PresetId("isothermal"), 6, Mode.RATIONAL)).series
        wide = build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)
        res = residual_series(wide, low.pad(10))
        assert all(res[k] == 0 for k in range(7))
        assert res[7] != 0

    def test_order_mismatch_rejected(self):
        problem = build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)
        series = solve(build_preset(PresetId("isothermal"), 6, Mode.RATIONAL)).series
        with pytest.raises(ValueError):
            residual_series(problem, series)

    def test_float_residual_shrinks_with_order(self):
        wide = build_preset(PresetId("isothermal"), 14, Mode.FLOAT)
        values = {}
        for n in (6, 10):
            series = solve(build_preset(PresetId("isothermal"), n, Mode.FLOAT)).series
            res = residual_series(wide, series.pad(14))
            values[n] = abs(evaluate(res, 0.2))
        assert values[10] <= values[6] / 10
