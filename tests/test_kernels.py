import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdenseries import (
    ExpKernel,
    KernelDomainError,
    LogKernel,
    Mode,
    ModeMismatchError,
    PowerKernel,
    SinCosKernel,
    SinhCoshKernel,
    TranscendentalSeedError,
)
from emdenseries.kernels import PrefixLengthError

import oracles
from conftest import relclose


def repeated_product(y, m):
    """y^m as m truncated convolutions of y with itself (1 for m = 0)."""
    out = [F(1)] + [F(0)] * (len(y) - 1)
    for _ in range(m):
        out = oracles.conv(out, y, len(y) - 1)
    return out


class TestPowerKernel:
    def test_square_of_one_plus_x(self):
        got = oracles.drive(PowerKernel(2, Mode.RATIONAL), [F(1), F(1), F(0)])
        assert got == [F(1), F(2), F(1)]

    def test_exponent_one_is_identity(self):
        y = [F(3), F(-1, 2), F(7), F(0), F(2, 5)]
        got = oracles.drive(PowerKernel(1, Mode.RATIONAL), y)
        assert got == y

    def test_exponent_zero_is_constant_one(self):
        y = [F(2), F(1), F(-4)]
        got = oracles.drive(PowerKernel(0, Mode.RATIONAL), y)
        assert got == [F(1), F(0), F(0)]

    def test_integer_power_matches_repeated_product(self):
        rng = random.Random(101)
        for m in (2, 3, 4, 5):
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(6)]
            coeffs[0] = F(rng.randint(1, 5))
            got = oracles.drive(PowerKernel(m, Mode.RATIONAL), coeffs)
            assert got == repeated_product(coeffs, m)

    def test_zero_seed_integer_power_uses_products(self):
        # the general recurrence divides by Y(0); y^m must still work
        y = [F(0), F(1), F(2), F(3), F(0), F(1)]
        for m in (0, 1, 2, 3):
            got = oracles.drive(PowerKernel(m, Mode.RATIONAL), y)
            assert got == repeated_product(y, m)

    def test_zero_seed_non_integer_rejected(self):
        with pytest.raises(KernelDomainError):
            PowerKernel(F(1, 2), Mode.RATIONAL).advance([F(0)])

    def test_negative_seed_non_integer_rejected(self):
        with pytest.raises(KernelDomainError):
            PowerKernel(F(1, 2), Mode.RATIONAL).advance([F(-1)])

    def test_negative_integer_exponent(self):
        # 1/(1+x) = 1 - x + x^2 - ...
        got = oracles.drive(PowerKernel(-1, Mode.RATIONAL), [F(1), F(1), F(0), F(0)])
        assert got == [F(1), F(-1), F(1), F(-1)]

    def test_exact_rational_root_seed(self):
        got = PowerKernel(F(1, 2), Mode.RATIONAL).advance([F(9, 4)])
        assert got == F(3, 2)

    def test_irrational_root_seed_rejected(self):
        with pytest.raises(TranscendentalSeedError):
            PowerKernel(F(1, 2), Mode.RATIONAL).advance([F(2)])

    def test_root_seed_beyond_float_range(self):
        huge = F(10**420, 7**175)  # (10^60 / 7^25)^7
        assert PowerKernel(F(3, 7), Mode.RATIONAL).advance([huge]) == F(10**180, 7**75)
        with pytest.raises(TranscendentalSeedError):
            PowerKernel(F(3, 7), Mode.RATIONAL).advance([huge + 1])

    def test_half_power_matches_binomial_series(self):
        # (1+x)^(1/2) around 1: exact binomial coefficients
        y = [F(1), F(1), F(0), F(0), F(0)]
        got = oracles.drive(PowerKernel(F(1, 2), Mode.RATIONAL), y)
        assert got == [oracles.binomial(F(1, 2), j) for j in range(5)]

    def test_float_exponent_in_rational_mode_rejected(self):
        with pytest.raises(ModeMismatchError):
            PowerKernel(0.5, Mode.RATIONAL)


class TestRationalPowerProperty:
    # negative, fractional and integer exponents: the rational recurrence
    # runs on integer weights (P+Q) r - Q k, and P+Q <= 0 for m = -1, -3/2, -2
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        m=st.sampled_from([F(-2), F(-1), F(-3, 2), F(0), F(1, 3), F(5)]),
        y0=st.fractions(min_value=F(1, 8), max_value=4, max_denominator=12),
        negative=st.booleans(),
        tail=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=12), max_size=8),
    )
    def test_matches_the_binomial_oracle(self, m, y0, negative, tail):
        if m.denominator != 1:
            y0 = F(1)  # the oracle tabulates exact non-integer powers around 1
        elif m >= 0 and negative:
            y0 = -y0
        y = [y0] + tail
        got = oracles.drive(PowerKernel(m, Mode.RATIONAL), y)
        assert got == oracles.compose_fn("power", {"m": m}, y, len(tail))


class TestExpKernel:
    def test_exp_of_x(self):
        got = oracles.drive(ExpKernel(F(1), Mode.RATIONAL), [F(0), F(1), F(0), F(0)])
        assert got == [F(1), F(1), F(1, 2), F(1, 6)]

    def test_isothermal_prefix(self):
        got = oracles.drive(ExpKernel(F(1), Mode.RATIONAL), [F(0), F(0), F(-1, 6), F(0)])
        assert got[:3] == [F(1), F(0), F(-1, 6)]

    def test_half_alpha(self):
        got = oracles.drive(ExpKernel(F(1, 2), Mode.RATIONAL), [F(0), F(1)])
        assert got[1] == F(1, 2)

    def test_transcendental_seed_rejected(self):
        with pytest.raises(TranscendentalSeedError):
            ExpKernel(F(1), Mode.RATIONAL).advance([F(1)])

    def test_float_seed(self):
        k = ExpKernel(1.0, Mode.FLOAT)
        assert k.advance([1.0]) == pytest.approx(math.e)


class TestLogKernel:
    def test_log_one_plus_x(self):
        got = oracles.drive(LogKernel(F(1), F(1), Mode.RATIONAL), [F(0), F(1), F(0), F(0)])
        assert got == [F(0), F(1), F(-1, 2), F(1, 3)]

    def test_log_around_one(self):
        got = oracles.drive(LogKernel(F(1), F(0), Mode.RATIONAL), [F(1), F(0), F(-1, 6)])
        assert got == [F(0), F(0), F(-1, 6)]

    def test_slope_two(self):
        got = oracles.drive(LogKernel(F(2), F(1), Mode.RATIONAL), [F(0), F(1)])
        assert got[1] == F(2)

    def test_domain_violation(self):
        with pytest.raises(KernelDomainError):
            LogKernel(F(1), F(0), Mode.RATIONAL).advance([F(0)])
        with pytest.raises(KernelDomainError):
            LogKernel(F(1), F(0), Mode.FLOAT).advance([-2.0])

    def test_transcendental_seed_rejected(self):
        with pytest.raises(TranscendentalSeedError):
            LogKernel(F(1), F(1), Mode.RATIONAL).advance([F(1)])


class TestCircularKernels:
    def test_sin_cos_of_x(self):
        k = SinCosKernel(F(1), Mode.RATIONAL)
        y = [F(0), F(1), F(0), F(0)]
        fs, gs = oracles.drive(k, y)
        assert fs == [F(0), F(1), F(0), F(-1, 6)]
        assert gs == [F(1), F(0), F(-1, 2), F(0)]

    def test_sinh_cosh_of_x(self):
        k = SinhCoshKernel(F(1), Mode.RATIONAL)
        y = [F(0), F(1), F(0), F(0)]
        fs, gs = oracles.drive(k, y)
        assert fs == [F(0), F(1), F(0), F(1, 6)]
        assert gs == [F(1), F(0), F(1, 2), F(0)]

    def test_sin_seed_at_one(self):
        f0, g0 = SinCosKernel(1.0, Mode.FLOAT).advance([1.0])
        assert f0 == pytest.approx(math.sin(1.0))
        assert g0 == pytest.approx(math.cos(1.0))

    def test_sinh_seed_at_one(self):
        f0, _ = SinhCoshKernel(1.0, Mode.FLOAT).advance([1.0])
        assert f0 == pytest.approx((math.e - 1 / math.e) / 2)

    def test_double_angle_slope(self):
        f, g = oracles.drive(SinCosKernel(F(2), Mode.RATIONAL), [F(0), F(1)])
        assert f[1] == F(2) and g[1] == F(0)

    def test_sinh_of_solution_prefix(self):
        s1 = math.sinh(1.0)
        k = SinhCoshKernel(1.0, Mode.FLOAT)
        f, _ = oracles.drive(k, [1.0, 0.0, -s1 / 6])
        assert f[2] == pytest.approx(-s1 * math.cosh(1.0) / 6, rel=1e-14)

    def test_transcendental_seed_rejected(self):
        with pytest.raises(TranscendentalSeedError):
            SinCosKernel(F(1), Mode.RATIONAL).advance([F(1)])
        with pytest.raises(TranscendentalSeedError):
            SinhCoshKernel(F(1), Mode.RATIONAL).advance([F(1)])


class TestKernelProtocol:
    def test_prefix_length_checked(self):
        k = ExpKernel(F(1), Mode.RATIONAL)
        with pytest.raises(PrefixLengthError):
            k.advance([F(0), F(1)])
        k.advance([F(0)])
        with pytest.raises(PrefixLengthError):
            k.advance([F(0)])

    def test_cross_mode_prefix_rejected(self):
        with pytest.raises(ModeMismatchError):
            ExpKernel(F(1), Mode.RATIONAL).advance([0.5])

    def test_causality(self):
        # F(0..k) must not care about Y beyond k
        base = [F(0), F(2), F(-1, 3), F(4), F(1, 7)]
        tail_changed = base[:3] + [F(99), F(-5)]
        a = oracles.drive(ExpKernel(F(1), Mode.RATIONAL), base)
        b = oracles.drive(ExpKernel(F(1), Mode.RATIONAL), tail_changed)
        assert a[:3] == b[:3]
        assert a[3:] != b[3:]


class TestSeriesIdentities:
    ONE = [F(1), F(0), F(0), F(0), F(0), F(0)]  # the series of 1 at order 5

    def test_pythagorean_sin_cos_exact(self):
        y = [F(0), F(1), F(-1, 3), F(2, 7), F(0), F(5, 11)]
        f, g = oracles.drive(SinCosKernel(F(1), Mode.RATIONAL), y)
        ff, gg = oracles.conv(f, f, 5), oracles.conv(g, g, 5)
        assert [a + b for a, b in zip(ff, gg)] == self.ONE

    def test_pythagorean_sinh_cosh_exact(self):
        y = [F(0), F(1), F(-1, 3), F(2, 7), F(0), F(5, 11)]
        f, g = oracles.drive(SinhCoshKernel(F(1), Mode.RATIONAL), y)
        ff, gg = oracles.conv(f, f, 5), oracles.conv(g, g, 5)
        assert [b - a for a, b in zip(ff, gg)] == self.ONE

    def test_pythagorean_float(self):
        y = [0.4, 1.1, -0.3, 0.27, 0.0, 0.51]
        f, g = oracles.drive(SinCosKernel(1.0, Mode.FLOAT), y)
        ff, gg = oracles.conv(f, f, 5), oracles.conv(g, g, 5)
        for a, b, e in zip(ff, gg, self.ONE):
            assert abs(a + b - e) <= 1e-10

    def test_exp_log_round_trip(self):
        # exp(ln(1+y)) re-expands 1+y when the log output is fed back in
        y = [F(0), F(1, 2), F(-1, 3), F(1, 5), F(2, 7), F(-1, 9)]
        log_series = oracles.drive(LogKernel(F(1), F(1), Mode.RATIONAL), y)
        back = oracles.drive(ExpKernel(F(1), Mode.RATIONAL), log_series)
        assert back == [F(1) + y[0]] + y[1:]  # exact in rational mode


KERNEL_CASES = [
    ("power", {"m": 2}), ("power", {"m": 5}),
    ("exp", {"alpha": F(1)}), ("exp", {"alpha": F(-1, 2)}),
    ("log", {"alpha": F(1), "beta": F(1)}),
    ("sin", {"alpha": F(2)}), ("cos", {"alpha": F(2)}),
    ("sinh", {"alpha": F(1)}), ("cosh", {"alpha": F(1)}),
]


def make_kernel(kind, params, mode):
    if kind == "power":
        return PowerKernel(params["m"], mode), None
    if kind == "exp":
        return ExpKernel(params["alpha"], mode), None
    if kind == "log":
        return LogKernel(params["alpha"], params["beta"], mode), None
    if kind in ("sin", "cos"):
        return SinCosKernel(params["alpha"], mode), 0 if kind == "sin" else 1
    return SinhCoshKernel(params["alpha"], mode), 0 if kind == "sinh" else 1


@pytest.mark.parametrize("kind,params", KERNEL_CASES)
def test_kernels_match_composition_oracle_exact(kind, params):
    rng = random.Random(hash((kind, str(params))) & 0xFFFF)
    for _ in range(10):
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(7)]
        # keep the seed where rational arithmetic stays exact
        coeffs[0] = F(rng.randint(1, 4)) if kind == "power" else F(0)
        kernel, component = make_kernel(kind, params, Mode.RATIONAL)
        got = oracles.drive(kernel, coeffs)
        if component is not None:
            got = got[component]
        assert got == oracles.compose_fn(kind, params, coeffs, 6)


@pytest.mark.parametrize("kind,params", KERNEL_CASES)
def test_kernels_match_composition_oracle_float(kind, params):
    rng = random.Random(hash((kind, str(params), "f")) & 0xFFFF)
    for _ in range(10):
        coeffs = [rng.uniform(-1.5, 1.5) for _ in range(7)]
        coeffs[0] = rng.uniform(0.5, 2.0)  # safe for power and log seeds
        fparams = {k: float(v) for k, v in params.items()}
        kernel, component = make_kernel(kind, fparams, Mode.FLOAT)
        got = oracles.drive(kernel, coeffs)
        if component is not None:
            got = got[component]
        expected = oracles.compose_fn(kind, fparams, coeffs, 6)
        scale = max(abs(v) for v in expected)
        for a, b in zip(got, expected):
            assert relclose(a, b, 1e-10) or abs(a - b) <= 1e-13 * scale


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_alpha = _coeff.filter(bool)
_fractional = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(
    lambda m: m.denominator > 1
)


def _exact_seed(kind, draw):
    """(kernel kind, params, Y(0)) at a seed where the kernel stays exact:
    Y(0) = 1 under a fractional power, Y(0) > 0 under a negative integer
    one, ln's argument 1 at Y(0), and Y(0) = 0 for the exponential and the
    circular and hyperbolic pairs."""
    y0 = draw(_coeff)
    if kind == "power_int":
        m = F(draw(st.integers(-3, 6)))
        return "power", {"m": m}, 1 - y0 if m < 0 and y0 <= 0 else y0
    if kind == "power_frac":
        return "power", {"m": draw(_fractional)}, F(1)
    if kind == "log":
        alpha = draw(_alpha)
        return "log", {"alpha": alpha, "beta": 1 - alpha * y0}, y0
    return kind, {"alpha": draw(_alpha)}, F(0)


@pytest.mark.parametrize(
    "kind", ["power_int", "power_frac", "exp", "log", "sin", "cos", "sinh", "cosh"]
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), tail=st.lists(_coeff, max_size=8))
def test_kernels_match_composition_oracle_property(kind, data, tail):
    # a random rational prefix behind an exact seed: equal to the oracle exactly
    name, params, y0 = _exact_seed(kind, data.draw)
    y = [y0] + tail
    kernel, component = make_kernel(name, params, Mode.RATIONAL)
    got = oracles.drive(kernel, y)
    if component is not None:
        got = got[component]
    assert got == oracles.compose_fn(name, params, y, len(tail))
