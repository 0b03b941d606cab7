import gc
import math
import pickle
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdenseries import (
    Const,
    Cos,
    Cosh,
    Exp,
    ExprState,
    GExpr,
    KernelDomainError,
    Log,
    Mode,
    ModeMismatchError,
    PowerKernel,
    Power,
    PresetId,
    Product,
    Scale,
    Sin,
    SinCosKernel,
    Sinh,
    Sum,
    Var,
    build_preset,
    evaluate_scalar,
    format_expr,
    parse_expression,
    validate_expr,
)
from emdenseries import expr
from emdenseries.kernels import PrefixLengthError

import oracles


def run_state(e, y, mode=Mode.RATIONAL):
    state = ExprState(e, mode)
    return [state.advance(y[: k + 1]) for k in range(len(y))]


class TestTransform:
    def test_var_is_identity(self):
        y = [F(1), F(0), F(-1, 6)]
        assert run_state(Var(), y) == y

    def test_const(self):
        assert run_state(Const(F(3)), [F(1), F(2), F(3)]) == [F(3), F(0), F(0)]

    def test_mixed_exponentials_seed(self):
        e = Sum((Exp(F(1)), Scale(F(2), Exp(F(1, 2)))))
        got = run_state(e, [F(0), F(0)])
        assert got[0] == F(3)

    def test_product_of_y_and_log(self):
        # y * ln(y) for y = 1 - x^2, truncated at order 2
        e = Product((Var(), Log(F(1), F(0))))
        got = run_state(e, [F(1), F(0), F(-1)])
        assert got == [F(0), F(0), F(-1)]

    def test_product_against_oracle(self):
        # (y+2) * exp(y) via the composition route
        rng = random.Random(37)
        y = [F(0)] + [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(5)]
        e = Product((Sum((Var(), Const(F(2)))), Exp(F(1))))
        got = run_state(e, y)
        ey = oracles.compose_fn("exp", {"alpha": F(1)}, y, 5)
        shifted = [y[0] + 2] + y[1:]
        expected = oracles.conv(shifted, ey, 5)
        assert got == expected

    def test_three_factor_product(self):
        y = [F(1), F(2), F(-1)]
        e = Product((Var(), Var(), Var()))
        got = run_state(e, y)
        assert got == oracles.conv(oracles.conv(y, y, 2), y, 2)

    def test_power_leaf_equals_raw_kernel(self):
        rng = random.Random(41)
        y = [F(rng.randint(1, 5))] + [
            F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(5)
        ]
        via_expr = run_state(Power(3), y)
        assert via_expr == oracles.drive(PowerKernel(3, Mode.RATIONAL), y)

    def test_linearity_exact(self):
        rng = random.Random(43)
        y = [F(0)] + [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(5)]
        e1, e2 = Exp(F(1)), Sin(F(2))
        a, b = F(3, 2), F(-2, 7)
        combined = run_state(Sum((Scale(a, e1), Scale(b, e2))), y)
        t1 = run_state(e1, y)
        t2 = run_state(e2, y)
        assert combined == [a * u + b * v for u, v in zip(t1, t2)]

    def test_causality(self):
        e = Product((Var(), Exp(F(1))))
        base = [F(0), F(2), F(-1, 3), F(4)]
        changed = base[:3] + [F(-9)]
        assert run_state(e, base)[:3] == run_state(e, changed)[:3]

    def test_shared_subtree_advances_once(self):
        inner = Exp(F(1))
        e = Sum((inner, inner))  # same node object on both sides
        y = [F(0), F(1), F(1, 2)]
        got = run_state(e, y)
        single = run_state(Exp(F(1)), y)
        assert got == [2 * v for v in single]

    def test_prefix_length_checked(self):
        state = ExprState(Var(), Mode.RATIONAL)
        with pytest.raises(PrefixLengthError):
            state.advance([F(0), F(1)])

    def test_kernel_call_counter(self):
        e = Sum((Exp(F(1)), Scale(F(2), Exp(F(1, 2)))))
        state = ExprState(e, Mode.RATIONAL)
        y = [F(0), F(1), F(0)]
        got = [state.advance(y[: k + 1]) for k in range(3)]
        assert state.kernel_calls == 6  # two kernels, three steps each
        assert state.next_index == 3
        # e^x + 2e^(x/2) = 3 + 2x + (1/2 + 1/4)x^2 + ...
        assert got == [F(3), F(2), F(3, 4)]

    def test_sin_and_cos_share_one_kernel(self):
        y = [F(0), F(1), F(-1, 2), F(0), F(2, 3), F(1, 5)]
        state = ExprState(parse_expression("sin(y) + 2*cos(y)"), Mode.RATIONAL)
        got = [state.advance(y[: k + 1]) for k in range(len(y))]
        assert state.kernel_calls == len(y)  # one paired kernel, not two
        sin_y, cos_y = oracles.drive(SinCosKernel(1, Mode.RATIONAL), y)
        assert got == [s + 2 * c for s, c in zip(sin_y, cos_y)]

    def test_equal_subtrees_share_one_kernel(self):
        e = parse_expression("exp(y) + y*exp(y)")
        first, second = e.children[0], e.children[1].children[1]
        assert first == second and first is not second
        y = [F(0), F(1), F(-1, 2), F(0), F(2, 3), F(1, 5)]
        state = ExprState(e, Mode.RATIONAL)
        got = [state.advance(y[: k + 1]) for k in range(len(y))]
        assert state.kernel_calls == len(y)  # one ExpKernel, not two
        exp_y = run_state(Exp(F(1)), y)
        assert got == [u + v for u, v in zip(exp_y, oracles.conv(y, exp_y, len(y) - 1))]

    def test_equal_but_differently_typed_constants_not_merged(self):
        # Const(1) == Const(1.0), but only the first is valid in rational mode
        e = Sum((Const(F(1)), Const(1.0)))
        with pytest.raises(ModeMismatchError):
            ExprState(e, Mode.RATIONAL).advance([F(0)])


def _random_prefix(rng, n, bound=9):
    return [F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]


class TestProductNode:
    """Products of expression slots, at fixed examples: the truncated Cauchy
    product of the operands' coefficients."""

    ONE_PLUS_Y = Sum((Var(), Const(F(1))))

    def test_multiplicative_identity(self):
        assert run_state(Product((Var(), Const(F(1)))), [F(1), F(1)]) == [F(1), F(1)]

    def test_binomial_square(self):
        assert run_state(Product((Var(), Var())), [F(1), F(1), F(0)]) == [F(1), F(2), F(1)]

    def test_x_squared(self):
        assert run_state(Product((Var(), Var())), [F(0), F(1), F(0)]) == [F(0), F(0), F(1)]

    def test_truncation_drops_high_terms(self):
        # the x^2 term is beyond the order
        assert run_state(Product((Var(), Var())), [F(1), F(1)]) == [F(1), F(2)]

    def test_identity_element(self):
        y = _random_prefix(random.Random(7), 6)
        assert run_state(Product((Var(), Const(F(1)))), y) == y
        assert run_state(Product((Const(F(1)), Var())), y) == y

    def test_single_factor(self):
        y = [F(1), F(1)]
        assert run_state(Product((Var(),)), y) == y

    def test_binomial_cube(self):
        y = [F(0), F(1), F(0), F(0)]  # x, so 1 + y = 1 + x
        e = Product((self.ONE_PLUS_Y,) * 3)
        assert run_state(e, y) == [F(1), F(3), F(3), F(1)]

    def test_x_cubed(self):
        y = [F(0), F(1), F(0), F(0)]
        assert run_state(Product((Var(), Var(), Var())), y) == [F(0), F(0), F(0), F(1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Product(())

    def test_equals_nested_sum_formula(self):
        # three different factors, y, exp(y) and 2 + y, written as the explicit double sum
        y = [F(0)] + _random_prefix(random.Random(19), 4, 5)
        factors = (Var(), Exp(F(1)), Sum((Var(), Const(F(2)))))
        fs = [run_state(f, y) for f in factors]
        got = run_state(Product(factors), y)
        for k in range(5):
            expected = sum(
                fs[0][k1] * fs[1][k2 - k1] * fs[2][k - k2]
                for k2 in range(k + 1)
                for k1 in range(k2 + 1)
            )
            assert got[k] == expected

    def test_left_fold_equivalence(self):
        y = [F(0)] + _random_prefix(random.Random(23), 3, 5)
        factors = (Sin(F(1)), self.ONE_PLUS_Y, Cosh(F(1, 2)), Var())
        nested = factors[0]
        for f in factors[1:]:
            nested = Product((nested, f))
        assert run_state(Product(factors), y) == run_state(nested, y)


class TestExactSteps:
    """Exact ExprState steps build each entry from integers and normalise it
    once, on append: checked for signs and denominators against the per-node
    oracle and against the tree walk with every leaf composed, at order 12."""

    TAIL = [F(1, 3), F(-2, 5), F(3, 7), F(0), F(-5, 2), F(1, 9), F(4, 11), F(-1, 13), F(2),
            F(0), F(7, 6), F(-3, 4)]
    CASES = {
        "integer_power_negative_seed": (Power(3), F(-2)),
        "square_negative_seed": (Power(2), F(-3, 2)),
        "exp_negative_alpha": (Exp(F(-3, 2)), F(0)),
        "sin_cosh_negative_alpha": (Sum((Sin(F(-2)), Cosh(F(-1, 3)))), F(0)),
        "negative_scale": (Scale(F(-7, 3), Power(2)), F(-2)),
        "log_negative_alpha_nonzero_beta": (Log(F(-1, 2), F(1, 2)), F(-1)),
        "const_past_zero": (Sum((Const(F(-5, 3)), Var())), F(1)),
        "three_child_product": (Product((Var(), Exp(F(-1, 2)), Sum((Const(F(2, 3)), Var())))), F(0)),
        "sum_of_distinct_denominators": (
            Sum((Scale(F(1, 3), Var()), Scale(F(-2, 5), Power(2)), Const(F(1, 7)),
                 Log(F(-1, 2), F(3, 2)))), F(1)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_both_oracles_and_returns_its_lists_entry(self, name):
        e, y0 = self.CASES[name]
        ys = [y0] + self.TAIL
        state = ExprState(e, Mode.RATIONAL)
        got = []
        for k in range(len(ys)):
            v = state.advance(ys[: k + 1])  # a plain list of Fractions
            assert type(v) is F and v.denominator > 0
            assert math.gcd(v.numerator, v.denominator) == 1
            assert v is state._root[-1] and state._root[k] == v
            got.append(v)
        assert got == oracles.stream_per_node(e, ys, Mode.RATIONAL)
        assert got == oracles.exact_tree(e, ys)


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_alpha = _coeff.filter(bool)
# subtrees whose coefficients stay exact at Y(0) = 0
_slots = st.one_of(
    st.just(Var()),
    st.builds(Const, _coeff),
    st.builds(Scale, _alpha, st.just(Var())),
    st.builds(lambda c: Sum((Var(), Const(c))), _coeff),
    st.just(Power(2)),
    *(st.builds(node, _alpha) for node in (Exp, Sin, Cos, Sinh, Cosh)),
    st.builds(Log, _alpha, st.just(F(1))),
)


class TestProductProperty:
    """A product node is the truncated Cauchy convolution of its operands'
    coefficients, whatever slots they come from."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(a=_slots, b=_slots, c=_slots, tail=st.lists(_coeff, max_size=7))
    def test_exact_product_is_the_convolution(self, a, b, c, tail):
        y = [F(0)] + tail
        n = len(tail)
        va, vb, vc = (run_state(e, y) for e in (a, b, c))
        ab = run_state(Product((a, b)), y)
        assert ab == oracles.conv(va, vb, n)
        assert run_state(Product((b, a)), y) == ab
        left = run_state(Product((Product((a, b)), c)), y)
        assert left == run_state(Product((a, Product((b, c)))), y) == oracles.conv(ab, vc, n)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(a=_slots, b=_slots, tail=st.lists(_coeff, max_size=7))
    def test_float_product_is_the_convolution(self, a, b, tail):
        y = [0.0] + [float(v) for v in tail]
        n = len(tail)
        va, vb = (run_state(e, y, Mode.FLOAT) for e in (a, b))
        bound = oracles.conv([abs(v) for v in va], [abs(v) for v in vb], n)
        want = oracles.conv(va, vb, n)
        for e in (Product((a, b)), Product((b, a))):
            for g, w, m in zip(run_state(e, y, Mode.FLOAT), want, bound):
                assert abs(g - w) <= 1e-14 * m


class TestValidation:
    def test_log_of_zero_reported(self):
        report = validate_expr(Log(F(1), F(0)), F(0), Mode.RATIONAL)
        assert not report.ok
        assert any("positive" in f.message for f in report.findings)

    def test_exp_at_zero_is_fine_in_rational(self):
        assert validate_expr(Exp(F(1)), F(0), Mode.RATIONAL).ok

    def test_sinh_at_one_needs_float(self):
        report = validate_expr(Sinh(F(1)), F(1), Mode.RATIONAL)
        assert not report.ok
        assert any("rational mode" in f.message for f in report.findings)
        assert validate_expr(Sinh(1.0), 1.0, Mode.FLOAT).ok

    def test_all_findings_collected(self):
        # ln(2) and sinh(2) are both irrational seeds in rational mode
        e = Sum((Log(F(1), F(0)), Sinh(F(1))))
        report = validate_expr(e, F(2), Mode.RATIONAL)
        assert len(report.findings) == 2

    def test_labels_are_formatted_only_for_failing_nodes(self, monkeypatch):
        calls = []

        def spy(node):  # failing nodes here are leaves: format_expr does not recurse
            calls.append(node)
            return format_expr(node)

        monkeypatch.setattr(expr, "format_expr", spy)
        valid = parse_expression("18*y + 4*y*exp(y) - 1/2*sinh(y)*cosh(y) + y^2")
        assert validate_expr(valid, F(0), Mode.RATIONAL).ok
        assert calls == []
        bad = (Log(F(1), F(0)), Sinh(F(1)), Const(0.5))
        report = validate_expr(Sum((*bad, Var(), Exp(F(0)))), F(2), Mode.RATIONAL)
        assert calls == list(bad)
        assert str(report) == (
            "ln(y): ln(2) is irrational; rational mode needs alpha*Y(0)+beta == 1; "
            "sinh(y): sinh(2), cosh(2) are irrational; rational mode needs alpha*Y(0) == 0; "
            "0.5: float value 0.5 in rational mode; convert explicitly"
        )

    def test_float_constant_in_rational_session(self):
        report = validate_expr(Scale(0.5, Var()), F(0), Mode.RATIONAL)
        assert not report.ok

    def test_report_renders(self):
        report = validate_expr(Log(F(1), F(0)), F(0), Mode.RATIONAL)
        assert "ln(y)" in str(report)
        assert str(validate_expr(Exp(F(1)), F(0), Mode.RATIONAL)) == "expression valid"
        report = validate_expr(Exp(F(1)), 0.5, Mode.RATIONAL)  # a float y(0)
        assert str(report) == "y(0): float value 0.5 in rational mode; convert explicitly"


@pytest.mark.parametrize("call", [
    format_expr,
    lambda e: ExprState(e, Mode.RATIONAL),
    lambda e: ExprState(e, Mode.FLOAT),
    lambda e: validate_expr(e, F(0), Mode.RATIONAL),
], ids=["format_expr", "ExprState", "ExprState_float", "validate_expr"])
def test_bare_base_node_is_not_an_expression(call):
    with pytest.raises(TypeError, match=r"^not an expression node: GExpr\(\)$"):
        call(GExpr())


PRESET_GS = [PresetId("lane_emden", m=m) for m in (0, 1, F(3, 2), 3, 5)] + [
    PresetId("isothermal"), PresetId("sinh_case"), PresetId("sin_case"),
    PresetId("example5", a=1), PresetId("example6", a=1),
]


def _preset_label(pid):
    return "_".join(str(v) for v in (pid.name, pid.m, pid.a) if v is not None)


class TestScalarEvaluation:
    def test_example6_shape(self):
        e = Sum((Scale(F(18), Var()), Scale(F(4), Product((Var(), Log(F(1), F(0)))))))
        import math

        y = 0.7
        assert evaluate_scalar(e, y) == pytest.approx(18 * y + 4 * y * math.log(y))

    def test_power_and_trig(self):
        import math

        assert evaluate_scalar(Power(5), 1.2) == pytest.approx(1.2**5)
        assert evaluate_scalar(Cos(2.0), 0.3) == pytest.approx(math.cos(0.6))

    def test_domain_error(self):
        from emdenseries import KernelDomainError

        with pytest.raises(KernelDomainError):
            evaluate_scalar(Log(F(1), F(0)), -1.0)

    def test_a_node_pickles_after_compiling(self):
        e = Sum((Scale(F(18), Var()), Product((Var(), Log(F(1), F(0))))))
        value = evaluate_scalar(e, 0.7)
        again = pickle.loads(pickle.dumps(e))
        assert again == e and evaluate_scalar(again, 0.7) == value

    def test_compiled_tree_is_freed_without_the_cyclic_collector(self):
        # a closure that held its own node would make a cycle per solved problem
        nodes = [Power(F(3, 2)), Exp(F(1)), Sinh(F(2)), Log(F(1), F(1)), Const(F(2))]
        e = Sum((Scale(F(2), Var()), Product(tuple(nodes))))
        evaluate_scalar(e, 0.5)
        refs = [weakref.ref(n) for n in (e, *nodes)]
        gc.disable()
        try:
            del e, nodes
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_sum_adds_left_to_right(self):
        # as ExprState does; a compensated sum would give 1.0
        assert evaluate_scalar(Sum((Const(1e16), Const(1.0), Const(-1e16))), 1.0) == 0.0

    def test_wide_sums_and_products_fold_left_to_right(self):
        # past 100 terms the generated expression is split into statements
        terms = [Const(c) for c in [1e16, 1.0, -1e16, 0.5, 3.0, -2.5] * 50] + [Scale(F(3), Var())]
        factors = [Const(1 + k / 997) for k in range(-130, 130)] + [Var()]
        for e in (Sum(tuple(terms)), Product(tuple(factors))):
            got, want = evaluate_scalar(e, 0.3), oracles.float_per_call(e, 0.3)
            assert float.hex(got) == float.hex(want)

    def test_outermost_constant_past_the_float_range_is_named(self):
        # a node's constants go through float() before its children's
        e = Scale(F(10**400), Sum((Scale(F(10**500), Var()), Const(F(10**600)))))
        message = rf"^constant {10**400} in g\(y\) overflows a float$"
        with pytest.raises(KernelDomainError, match=message):
            evaluate_scalar(e, 1.0)

    def test_source_holds_no_constant(self, monkeypatch):
        # the constants are globals of g, bound by name, never text in its source
        sources, factory = [], expr._factory

        def spy(source):
            sources.append(source)
            return factory(source)

        monkeypatch.setattr(expr, "_factory", spy)
        e = Sum((Const(1234.5678), Scale(F(98765, 4321), Exp(F(-13, 17))),
                 Power(F(51, 7)), Log(F(777, 3), F(4321, 9))))
        assert evaluate_scalar(e, 0.5) == oracles.float_per_call(e, 0.5)
        (source,) = sources
        for number in (1234.5678, F(98765, 4321), F(-13, 17), F(51, 7), F(777, 3), F(4321, 9)):
            assert str(number) not in source and repr(float(number)) not in source
        assert "Fraction" not in source and "4321" not in source

    def test_compiled_g_reads_its_constants_from_its_globals(self):
        # closure cells made compiling quadratic in the number of constants
        e = Sum((Scale(F(18), Var()), Exp(F(-13, 17)), Log(F(2), F(3))))
        g = e._scalar
        assert g.__closure__ is None
        constants = {v for k, v in g.__globals__.items() if k.startswith("c")}
        assert constants == {18.0, float(F(-13, 17)), 2.0, 3.0, math.exp, math.log}
        assert g(0.5) == oracles.float_per_call(e, 0.5)

    def test_trees_differing_in_constants_share_one_factory(self):
        # one cached factory, so one code object for every g it makes
        def tree(a, b, c):
            return Sum((Scale(a, Var()), Product((Var(), Log(b, c))), Power(b), Cosh(c)))

        one, two = tree(F(18), F(1), F(0)), tree(F(-3, 7), F(5, 2), F(11))
        assert evaluate_scalar(one, 0.7) != evaluate_scalar(two, 0.7)
        assert one._scalar.__code__ is two._scalar.__code__
        assert Sum((Var(), Cos(F(1))))._scalar.__code__ is not one._scalar.__code__

    @pytest.mark.parametrize("pid", PRESET_GS, ids=_preset_label)
    def test_preset_g_is_freed_without_the_cyclic_collector(self, pid):
        g = build_preset(pid, 20, Mode.FLOAT).g
        evaluate_scalar(g, 0.5)
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("pid", PRESET_GS, ids=_preset_label)
    def test_preset_g_equals_the_tree_walk_bit_for_bit(self, pid):
        # float.hex of the value, or the same error, at 200 y: zeros, subnormals,
        # negative y and y where exp, sinh and y^m overflow among uniform draws
        g = build_preset(pid, 20, Mode.FLOAT).g
        rng = random.Random(21)
        ys = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 800.0, -800.0, 1e308]
        ys += [rng.uniform(-1e-308, 1e-308) for _ in range(20)]
        ys += [rng.uniform(-4.0, 4.0) for _ in range(200 - len(ys))]

        def outcome(fn, y):
            try:
                return float.hex(fn(g, y))
            except (ArithmeticError, ValueError) as exc:
                return type(exc), str(exc)

        want = [outcome(oracles.float_per_call, y) for y in ys]
        assert [outcome(evaluate_scalar, y) for y in ys] == want


class TestFormatting:
    def test_example6_rendering(self):
        e = Sum((Scale(F(18), Var()), Scale(F(4), Product((Var(), Log(F(1), F(0)))))))
        assert format_expr(e) == "18*y + 4*y*ln(y)"

    def test_function_arguments(self):
        assert format_expr(Exp(F(1, 2))) == "exp(1/2*y)"
        assert format_expr(Log(F(2), F(-1))) == "ln(2*y-1)"
        assert format_expr(Power(F(3, 2))) == "y^3/2"
        assert format_expr(Sin(F(1))) == "sin(y)"

    def test_negative_constant_factor_is_parenthesised(self):
        assert format_expr(Product((Var(), Const(-2)))) == "y*(-2)"
        assert format_expr(Scale(F(3), Const(F(-1, 2)))) == "3*(-1/2)"
        assert parse_expression("y*(-2)") == Scale(F(-2), Var())
        assert parse_expression("3*(-1/2)") == Const(F(-3, 2))


# Random trees over every node kind, with small exact constants; the
# scalar y is drawn from [1/4, 2], where every y^m is defined.
_numbers = st.sampled_from(sorted({F(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4)}))
_leaves = st.one_of(
    st.just(Var()),
    st.builds(Const, _numbers),
    st.builds(Power, _numbers),
    *(st.builds(node, _numbers) for node in (Exp, Sin, Cos, Sinh, Cosh)),
    st.builds(Log, _numbers, _numbers),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Scale, _numbers, children),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Sum(tuple(cs))),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Product(tuple(cs))),
    ),
    max_leaves=8,
)
_ys = st.floats(min_value=0.25, max_value=2.0)
# for the scalar value alone: zeros, subnormals and negative y as well
_any_ys = st.floats(min_value=-2.0, max_value=2.0)


def _value(e, y):
    """evaluate_scalar, or KernelDomainError (ln of a nonpositive argument)."""
    try:
        return evaluate_scalar(e, y)
    except KernelDomainError as exc:
        return type(exc)


class TestTreeProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_trees, _ys)
    def test_format_reparses_to_the_same_function(self, tree, y):
        again = parse_expression(format_expr(tree))
        want, got = _value(tree, y), _value(again, y)
        if want is KernelDomainError or got is KernelDomainError:
            assert got is want
        else:
            assert math.isclose(got, want, rel_tol=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_trees, _ys)
    def test_float_seed_equals_scalar_value(self, tree, y):
        # the kernel seeds and evaluate_scalar read the same functions
        want = _value(tree, y)
        try:
            got = ExprState(tree, Mode.FLOAT).advance([y])
        except KernelDomainError as exc:
            got = type(exc)
        assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_trees, _any_ys)
    def test_compiled_value_equals_the_tree_walk(self, tree, y):
        # the tree compiles into one function of y once; the per-call walk
        # of tests/oracles.py gives the same float or raises the same error
        def outcome(fn):
            try:
                return repr(fn(tree, y))
            except (ArithmeticError, ValueError) as exc:
                return type(exc), str(exc)

        assert outcome(evaluate_scalar) == outcome(oracles.float_per_call)


def _streamed(run, tree, y, mode):
    """``run(tree, y, mode)``, floats as ``float.hex``, or the type and
    message of what it raises."""
    try:
        return [float.hex(v) if mode is Mode.FLOAT else v for v in run(tree, y, mode)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestStreamingReference:
    """ExprState, with its shared lists and kernels, equals the per-node
    reference of tests/oracles.py at orders 0 to 10."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_trees, st.sampled_from([F(0), F(1)]), st.lists(_coeff, max_size=10))
    def test_rational_state_equals_the_reference(self, tree, y0, tail):
        y, mode = [y0, *tail], Mode.RATIONAL
        want = _streamed(oracles.stream_per_node, tree, y, mode)
        assert _streamed(run_state, tree, y, mode) == want

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_trees, _ys, st.lists(st.floats(-4.0, 4.0), max_size=10))
    # -0.0 terms only at index 1: a sum or product from 0.0 gives 0.0, from -0.0 -0.0
    @example(Sum((Scale(F(-1), Var()),)), 0.5, [0.0])
    @example(Product((Scale(F(-1), Var()), Var())), 0.5, [0.0])
    def test_float_state_equals_the_reference_bit_for_bit(self, tree, y0, tail):
        y, mode = [y0, *tail], Mode.FLOAT
        want = _streamed(oracles.stream_per_node, tree, y, mode)
        assert _streamed(run_state, tree, y, mode) == want


class TestFloatSumsAndWarnings:
    """Float Sum and Product steps add left to right from 0.0, and name a
    cancelled index in x-space (k times the stride) in their warnings."""

    # terms 1e16, 1.0, -1e16 at every index while Y(k) = 1
    SUM = Sum((Scale(1e16, Var()), Var(), Scale(-1e16, Var())))
    # at Y = (1, 1, 1e16): terms 1e16, 1.0, -1e16 at index 2
    PRODUCT = Product((Var(), Sum((Var(), Const(-2.0)))))

    @staticmethod
    def _run(e, y, stride=1):
        messages = []
        state = ExprState(e, Mode.FLOAT, on_warn=messages.append, _stride=stride)
        return [state.advance(y[: k + 1]) for k in range(len(y))], messages

    def test_sum_adds_left_to_right(self):
        got, _ = self._run(self.SUM, [1.0] * 3)
        assert got == [0.0] * 3 and all(math.copysign(1.0, v) == 1.0 for v in got)

    def test_product_adds_left_to_right(self):
        got, _ = self._run(self.PRODUCT, [1.0, 1.0, 1e16])
        assert got[2] == 0.0 and math.copysign(1.0, got[2]) == 1.0

    def test_warnings_name_x_space_indices(self):
        _, messages = self._run(self.SUM, [1.0] * 3, stride=2)
        assert messages == [
            f"sum at index {n}: cancellation ratio inf (largest term 1.000e+16)" for n in (0, 2, 4)
        ]
        _, messages = self._run(self.PRODUCT, [1.0, 1.0, 1e16], stride=2)
        assert messages == [
            "product convolution at index 2: cancellation ratio inf (largest term 1.000e+00)",
            "product convolution at index 4: cancellation ratio inf (largest term 1.000e+16)",
        ]

    def test_benign_tree_warns_nothing(self):
        e = Sum((Var(), Exp(0.5), Product((Var(), Cosh(0.25), Var()))))
        _, messages = self._run(e, [0.5 ** k for k in range(12)], stride=2)
        assert messages == []
