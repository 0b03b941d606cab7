import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdenseries import (
    Mode,
    ModeMismatchError,
    OrderMismatchError,
    Series,
    evaluate,
)
from emdenseries.series import RationalList, as_list, coerce, dot, guarded_sum, mode_of

import oracles
from conftest import rational, floating


class TestConstruction:
    def test_coeffs_are_normalized_fractions(self):
        s = rational([1, 0, F(2, 4)])
        assert s.coeffs == (F(1), F(0), F(1, 2))
        assert s.order == 2
        assert len(s) == 3

    def test_float_mode_converts_ints(self):
        s = Series([1, 2], Mode.FLOAT)
        assert s.coeffs == (1.0, 2.0)
        assert all(isinstance(c, float) for c in s.coeffs)

    def test_float_into_rational_rejected(self):
        with pytest.raises(ModeMismatchError):
            Series([0.5], Mode.RATIONAL)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series([], Mode.RATIONAL)

    def test_immutable(self):
        s = rational([1, 2])
        with pytest.raises(AttributeError):
            s.coeffs = (F(3),)

    def test_pad(self):
        s = rational([1, 2])
        assert s.pad(4).coeffs == (F(1), F(2), F(0), F(0), F(0))
        assert s.pad(1) == s
        assert floating([1, 2]).pad(3).coeffs == (1.0, 2.0, 0.0, 0.0)
        with pytest.raises(OrderMismatchError) as info:
            s.pad(0)
        assert str(info.value) == "cannot pad order 1 down to 0: pad only extends"

    def test_mode_of(self):
        assert mode_of(F(1, 2)) is Mode.RATIONAL
        assert mode_of(3) is Mode.RATIONAL
        assert mode_of(0.5) is Mode.FLOAT
        with pytest.raises(TypeError):
            mode_of("1")
        with pytest.raises(TypeError):
            mode_of(True)

    def test_coerce(self):
        assert coerce(3, Mode.RATIONAL) == F(3)
        assert coerce(F(1, 3), Mode.FLOAT) == pytest.approx(1 / 3)
        with pytest.raises(ModeMismatchError):
            coerce(0.5, Mode.RATIONAL)


class TestEvaluate:
    def test_at_zero_returns_constant_term(self):
        s = rational([1, 0, F(-1, 6)])
        assert evaluate(s, 0) == F(1)

    def test_at_one(self):
        s = rational([1, 0, F(-1, 6)])
        assert evaluate(s, 1) == F(5, 6)

    def test_truncated_sine_at_half(self):
        s = rational([0, 1, 0, F(-1, 6)])
        assert evaluate(s, F(1, 2)) == F(23, 48)

    def test_at_zero_property(self):
        rng = random.Random(29)
        for _ in range(20):
            s = rational([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)])
            assert evaluate(s, 0) == s[0]

    def test_callable_sugar(self):
        s = rational([1, 2, 3])
        assert s(2) == F(17)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            evaluate(rational([1, 2]), 0.5)
        with pytest.raises(ModeMismatchError):
            evaluate(floating([1, 2]), F(1, 2))


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
_entries = st.one_of(st.integers(-50, 50), _fractions)  # mixed int and Fraction


class TestRationalFractionFree:
    """The rational paths of dot and evaluate sum integer numerators over a
    common denominator; their values must be those of plain Fraction
    arithmetic, which is canonical, so repr is compared."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        xs=st.lists(_entries, max_size=12),
        ys=st.lists(_entries, max_size=12),
        weights=st.one_of(
            st.none(), st.lists(st.integers(-9, 9), max_size=12), st.lists(_entries, max_size=12)
        ),
        start=_fractions,
    )
    @example(xs=[], ys=[], weights=None, start=F(-3, 7))
    @example(xs=[F(1, 2), 3], ys=[-4, F(-5, 6)], weights=[-2, F(7, 9)], start=F(0))
    def test_dot_is_the_left_fold(self, xs, ys, weights, start):
        expected = start
        if weights is None:
            for x, y in zip(xs, ys):
                expected = expected + x * y
        else:
            for w, x, y in zip(weights, xs, ys):
                expected = expected + w * x * y
        xl, yl = as_list(Mode.RATIONAL, xs), as_list(Mode.RATIONAL, ys)
        got = dot(xl, yl, start, None if weights is None else iter(weights))
        assert type(got) is F and repr(got) == repr(F(expected))

    # denominators from disjoint prime sets, one of them huge, so that appends
    # rescale by large factors; zeros and negatives included
    _unnested = st.builds(
        lambda n, d: F(n, d),
        st.integers(-10**6, 10**6),
        st.sampled_from([1, 2, 3, 4, 9, 5**7, 7 * 11, 13**3, 2**61 - 1, (2**89 - 1) * 17]),
    )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        xs=st.lists(_unnested, max_size=14),
        ys=st.lists(_unnested, max_size=14),
        weights=st.one_of(
            st.none(), st.lists(st.integers(-50, 50), max_size=14), st.lists(_unnested, max_size=14)
        ),
        bounds=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
        start=st.one_of(st.just(F(0)), _unnested),
    )
    @example(xs=[F(1, 2**61 - 1), 0, F(-3, 5**7)], ys=[F(5, 9), F(-1, 13**3), 7], weights=None,
             bounds=(0, 3, 3), start=F(0))
    @example(xs=[F(1, 3)], ys=[F(2, 5)], weights=[F(1, 7)], bounds=(2, 1, 0), start=F(1, 2))
    def test_appends_and_dot_match_fraction_sums(self, xs, ys, weights, bounds, start):
        xl, yl = RationalList(), RationalList()
        for values, rl in ((xs, xl), (ys, yl)):
            for i, v in enumerate(values):
                rl.append(v)
                assert len(rl) == i + 1 and rl[i] == v and rl[-1] == v and rl[0] == values[0]
            assert list(rl) == values and [rl[i] for i in range(len(values))] == values
            assert all(type(v) is F for v in rl)
        lo, hi, top = bounds  # possibly empty: lo >= hi, or past the end
        cases = [(xl[lo:hi], yl[:top]), (xl[lo:], reversed(yl)), (reversed(xl[:hi]), yl[lo::2])]
        plain = [(xs[lo:hi], ys[:top]), (xs[lo:], ys[::-1]), (xs[:hi][::-1], ys[lo::2])]
        for (a, b), (pa, pb) in zip(cases, plain):
            assert list(a) == pa and list(b) == pb
            got = dot(a, b, start, None if weights is None else iter(weights))
            expected = oracles.fraction_dot(pa, pb, start, weights)
            assert type(got) is F and repr(got) == repr(expected)

    def test_a_float_is_refused(self):
        with pytest.raises(ModeMismatchError):
            as_list(Mode.RATIONAL, [F(1, 2), 0.5])

    def test_a_series_keeps_its_own_copy(self):
        values = RationalList([F(1, 3), F(-1, 6)])
        s = Series(values, Mode.RATIONAL)
        values.append(F(1, 7))
        assert s.coeffs == (F(1, 3), F(-1, 6)) and evaluate(s, 2) == F(0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=st.lists(_entries, min_size=1, max_size=10),
        x=st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=9)),
    )
    @example(coeffs=[F(7, 3)], x=5)  # order 0
    @example(coeffs=[0, 0, 0, 0], x=-3)  # all zero
    @example(coeffs=[1, F(-1, 2), F(1, 3)], x=-2)  # negative int x
    def test_evaluate_is_fraction_horner(self, coeffs, x):
        expected = F(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            expected = expected * x + c
        got = evaluate(rational(coeffs), x)
        assert type(got) is F and repr(got) == repr(expected)


class TestGuardedSum:
    def test_exact_rational_sum(self):
        assert guarded_sum([F(1), F(2)], F(0)) == F(3)

    def test_warns_on_cancellation(self):
        messages = []
        total = guarded_sum([1e8, -1e8, 1.0], 0.0, messages.append, "probe")
        assert total == 1.0
        assert len(messages) == 1 and "probe" in messages[0]

    def test_silent_on_benign_sum(self):
        messages = []
        guarded_sum([1.0, 2.0, 3.0], 0.0, messages.append, "probe")
        assert messages == []

    def test_warns_on_total_cancellation(self):
        messages = []
        assert guarded_sum([1.5, -1.5], 0.0, messages.append, "probe") == 0.0
        assert len(messages) == 1

    def test_all_zero_terms_do_not_warn(self):
        messages = []
        assert guarded_sum([0.0, 0.0], 0.0, messages.append, "probe") == 0.0
        assert messages == []
