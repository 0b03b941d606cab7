import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdenseries import (
    Const,
    Cos,
    Cosh,
    EmdenProblem,
    Exp,
    KernelDomainError,
    Log,
    Mode,
    OrderMismatchError,
    Power,
    PresetId,
    ProblemValidationError,
    Product,
    Scale,
    Series,
    Sin,
    Sinh,
    Sum,
    Var,
    build_preset,
    evaluate,
    residual_series,
    rk_trajectory,
    solve,
)
from emdenseries.solver import _recurrence

import oracles
from conftest import rational


def lane(m, order=10, mode=Mode.RATIONAL):
    return solve(build_preset(PresetId("lane_emden", m=m), order, mode)).series


def _at_order(problem, order):
    """The same problem with another truncation order."""
    return EmdenProblem(
        p=problem.p, a=problem.a, f_poly=problem.f_poly, g=problem.g, y0=problem.y0,
        dy0=problem.dy0, order=order, mode=problem.mode,
    )


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

    def test_float_lane_emden_m1_tracks_rational_at_high_order(self):
        # y^1 takes no recurrence: its weights 2r - k cancel in pairs, and
        # float error used to grow from k = 22 on (50% off at k = 30)
        exact = lane(1, order=120).to_float()
        approx = lane(1, order=120, mode=Mode.FLOAT)
        for k, (a, b) in enumerate(zip(exact.coeffs, approx.coeffs)):
            assert b == pytest.approx(a, rel=1e-13, abs=0), k

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
        dtm = evaluate(report.series.to_float(), 0.4)
        assert rk_trajectory(problem, report.series, [0.4]) == [pytest.approx(dtm, abs=1e-8)]

    def test_report_contents(self):
        report = solve(build_preset(PresetId("isothermal"), 8, Mode.RATIONAL))
        assert report.series.order == 8
        # f = 1 is even: one exp kernel advanced over U(j) = Y(2j), t-index 0..3
        assert report.kernel_calls == 4
        assert report.warnings == ()

    def test_validation_failure_raises(self):
        with pytest.raises(ProblemValidationError) as info:
            build_preset(PresetId("sinh_case"), 8, Mode.RATIONAL)
        assert str(info.value) == (
            "problem cannot be transformed: sinh(y): sinh(1), cosh(1) are irrational; "
            "rational mode needs alpha*Y(0) == 0"
        )


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
            next_term = solve(_at_order(problem, n + 1)).series[n + 1]
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

    def test_candidate_outside_the_domain_of_g_raises_the_seed_error(self):
        # the problem's check covers its own y(0), not a candidate's Y(0)
        problem = build_preset(PresetId("example6"), 4, Mode.RATIONAL)  # g holds ln(y)
        with pytest.raises(KernelDomainError):
            residual_series(problem, Series([0] * 5, Mode.RATIONAL))

    def test_order_mismatch_rejected(self):
        problem = build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)
        series = solve(build_preset(PresetId("isothermal"), 6, Mode.RATIONAL)).series
        with pytest.raises(OrderMismatchError) as err:
            residual_series(problem, series)
        assert str(err.value) == "candidate order 6 != problem order 10; pad first"
        with pytest.raises(ValueError) as err:
            residual_series(problem, Series([0.0] * 11, Mode.FLOAT))
        assert str(err.value) == "candidate is float, problem is rational"

    def test_float_residual_shrinks_with_order(self):
        wide = build_preset(PresetId("isothermal"), 14, Mode.FLOAT)
        values = {}
        for n in (6, 10):
            series = solve(build_preset(PresetId("isothermal"), n, Mode.FLOAT)).series
            res = residual_series(wide, series.pad(14))
            values[n] = abs(evaluate(res, 0.2))
        assert values[10] <= values[6] / 10


# Random problems: every kind of g node, y(0) from zero and the edges of
# the float range to plain values, f of degree <= 2, orders up to 12.
_small = st.sampled_from([F(n, d) for n in range(-3, 4) for d in (1, 2)])
_exponents = st.sampled_from([0, 1, 2, 3, -1, F(1, 2), F(3, 2), F(-1, 2)])
_leaves = st.one_of(
    st.just(Var()),
    st.builds(Const, _small),
    st.builds(Power, _exponents),
    *(st.builds(node, _small) for node in (Exp, Sin, Cos, Sinh, Cosh)),
    st.builds(Log, _small, _small),
)
_g_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Scale, _small, children),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: Sum(tuple(cs))),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: Product(tuple(cs))),
    ),
    max_leaves=4,
)
_y0s = st.sampled_from(
    [F(0), F(1), F(-1), F(1, 4), F(9, 4), F(2), F(10**320), F(1, 10**320)]
)


class TestRandomProblems:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        p=st.sampled_from([F(1, 2), F(1), F(2), F(5, 2), F(8)]),
        a=_small,
        f=st.lists(_small, min_size=1, max_size=3),
        g=_g_trees,
        y0=_y0s,
        order=st.integers(2, 11),
        mode=st.sampled_from(Mode),
    )
    def test_a_problem_that_builds_solves(self, p, a, f, g, y0, order, mode):
        try:
            problem = EmdenProblem(
                p=p, a=a, f_poly=Series(f, mode), g=g, y0=y0, dy0=0, order=order, mode=mode
            )
        except (ProblemValidationError, OverflowError):  # no seed at y(0), or y(0) > float max
            return
        low = solve(problem).series
        high = solve(_at_order(problem, order + 1)).series
        # bit for bit, so NaN and signed zeros compare too
        assert list(map(repr, high.coeffs[: order + 1])) == list(map(repr, low.coeffs))
        if mode is Mode.RATIONAL:
            res = residual_series(problem, low)
            assert res.coeffs[:order] == (F(0),) * order
            assert res[order] == -(order + 1) * (order + problem.p) * high[order + 1]


def _same_solve(problem):
    """The stride-2 solve in t = x^2 equals the stride-1 solve in x: every
    coefficient by repr (signed zeros included) and every warning by text."""
    fast, slow = _recurrence(problem, 2), _recurrence(problem, 1)
    assert list(map(repr, fast.series.coeffs)) == list(map(repr, slow.series.coeffs))
    assert fast.warnings == slow.warnings
    assert solve(problem).kernel_calls == fast.kernel_calls  # solve takes stride 2
    return fast, slow


class TestEvenProfileInT:
    PRESETS = [
        PresetId("lane_emden", m=F(3, 2)), PresetId("isothermal"), PresetId("sinh_case"),
        PresetId("sin_case"), PresetId("example5", a=1), PresetId("example6", a=1),
        PresetId("example6", a=F(-1, 2)),
    ]

    @pytest.mark.parametrize("order", [2, 3, 10, 41, 200])
    def test_presets_match_every_step_in_x(self, order):
        for pid in self.PRESETS:
            modes = [Mode.FLOAT] if pid.name in ("sin_case", "sinh_case") else list(Mode)
            for mode in modes:
                fast, slow = _same_solve(build_preset(pid, order, mode))
                if order > 2:
                    assert fast.kernel_calls < slow.kernel_calls, (pid, mode)

    def test_float_warnings_keep_their_x_space_labels(self):
        fast, _ = _same_solve(build_preset(PresetId("example6"), 200, Mode.FLOAT))
        assert len(fast.warnings) == 47
        # x-space indices: even, and past the last t index 100
        at = [int(w.split(":")[0].rsplit(" ", 1)[1]) for w in fast.warnings]
        assert all(k % 2 == 0 for k in at) and max(at) == 198

    def test_negative_a_gives_positive_odd_zeros(self):
        low = solve(build_preset(PresetId("example6", a=F(-1, 2)), 9, Mode.FLOAT)).series
        high = solve(build_preset(PresetId("example6", a=F(1, 2)), 9, Mode.FLOAT)).series
        assert [repr(c) for c in low.coeffs[3::2]] == ["0.0"] * 4
        assert [repr(c) for c in high.coeffs[3::2]] == ["-0.0"] * 4

    @pytest.mark.parametrize("mode", list(Mode))
    def test_even_polynomial_profile(self, mode):
        # f = 1 - 2x^2 + x^4: the forcing sum has three terms per step
        for order in (4, 5, 10, 41):
            problem = EmdenProblem(
                p=F(7, 3), a=2, f_poly=Series([1, 0, -2, 0, 1], mode),
                g=Sum((Power(2), Exp(F(1)), Scale(F(-1, 2), Product((Sin(F(1)), Cos(F(1))))))),
                y0=0, dy0=0, order=order, mode=mode,
            )
            _same_solve(problem)

    def test_odd_profile_keeps_every_step(self):
        problem = EmdenProblem(
            p=2, a=1, f_poly=Series([1, 1], Mode.RATIONAL), g=Exp(F(1)),
            y0=0, dy0=0, order=8, mode=Mode.RATIONAL,
        )
        assert solve(problem) == _recurrence(problem, 1)

    # p = 1/3 and 7/10 are not dyadic: (p+1)/2 then rounds unlike 2j+1+p
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        p=st.sampled_from([F(1, 3), F(1, 2), F(7, 10), F(2), F(5, 2), F(8)]),
        a=_small,
        f=st.lists(_small, min_size=1, max_size=3),
        g=_g_trees,
        y0=_y0s,
        order=st.integers(4, 24),
        mode=st.sampled_from(Mode),
    )
    def test_random_even_problems_match_every_step_in_x(self, p, a, f, g, y0, order, mode):
        even_f = [c for ci in f for c in (ci, 0)][:-1]  # f(0) + f(2) x^2 + f(4) x^4
        try:
            problem = EmdenProblem(
                p=p, a=a, f_poly=Series(even_f, mode), g=g, y0=y0, dy0=0, order=order, mode=mode
            )
        except (ProblemValidationError, OverflowError):  # no seed at y(0), or y(0) > float max
            return
        slow = _recurrence(problem, 1)
        if mode is Mode.FLOAT and not all(map(math.isfinite, slow.series.coeffs)):
            return  # 0 * inf at an odd index turns into nan in x only
        _same_solve(problem)


class TestExactnessAtHighOrder:
    """sha256 of repr(coeffs) of each rational-capable preset at order 250,
    recorded before the rational sums went fraction-free: exact results
    must not move by a single bit."""

    HASHES = {
        PresetId("lane_emden", m=0): "a6fcf52f92fa545940971b3d8f50d774988645908979c845dde523e600179d37",
        PresetId("lane_emden", m=1): "e94f3b8d2b906f8b162b9a6072aec6ce97aa24d2fcb82d747c0a9af7dbf95a9a",
        PresetId("lane_emden", m=2): "31cf1fcce66e62d3ac0a1bc575806f414e6a9ea2880e3958ed127e19e974cf13",
        PresetId("lane_emden", m=3): "7e49d22f644fc6aa67da141d6479f6b64d2b0ccac4d56ef7622388398409cae4",
        PresetId("lane_emden", m=4): "a7a5fd85cafdc30f846f015e7426452a6bf868f2e649fa4fd3f93cd19970a730",
        PresetId("lane_emden", m=F(3, 2)): "819965cf56a4811c8c4ba355e7fc0f1170029e0b3f7df9cd65802b0be4f13cb9",
        PresetId("lane_emden", m=5): "ee8a8868ca0b23c28536397a6f404eb4637dfa9a6f1443651af0ad793a6e3bf5",
        PresetId("isothermal"): "d83ca1930609eac28be8092fef797b9b5f7434e1743bbffe2872efc485f55460",
        PresetId("example5", a=F(2, 3)): "1ed3f7c0adeeaae5bd04ad74e28dd0b9e01a9e3f7c882a64f141935adbd53d93",
        PresetId("example5", a=F(5, 2)): "866d12cf4bdbb4da5cf386b57dd2f5b56a5ee803714341dcd0eb39fb7c31ca0b",
        PresetId("example6", a=F(3, 4)): "0c2ad8a0956b88b64656f6f683af840b0067aa87cd14ebd773f0f6c43e2dce0f",
        PresetId("example6", a=F(3, 2)): "da45ac3638828b221eb46fcd4aca4626f7720365de3b68d7628d1eb8d78240f4",
    }

    @pytest.mark.parametrize("pid", list(HASHES), ids=repr)
    def test_order_250_series_unchanged(self, pid):
        series = solve(build_preset(pid, 250, Mode.RATIONAL)).series
        assert hashlib.sha256(repr(series.coeffs).encode()).hexdigest() == self.HASHES[pid]

    # recorded before the coefficient lists went over one running denominator
    HASHES_400 = {
        PresetId("isothermal"): "580762238a50c87f42eaf0973078e001dca97eb6352b49d8423999cbd6043054",
        PresetId("lane_emden", m=F(3, 2)): "ba9a8faff2d1a420de7b9c5cde3a42be2df1f2801a59129a40d8969a7a701565",
    }

    @pytest.mark.parametrize("pid", list(HASHES_400), ids=repr)
    def test_order_400_series_unchanged(self, pid):
        series = solve(build_preset(pid, 400, Mode.RATIONAL)).series
        assert hashlib.sha256(repr(series.coeffs).encode()).hexdigest() == self.HASHES_400[pid]
