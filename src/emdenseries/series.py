"""Truncated power series over exact rationals or IEEE doubles.

A function y(x) analytic at the origin is stored as the vector of its
scaled Taylor coefficients Y(k) = y^(k)(0) / k!, truncated at a fixed
highest power N (the *order*), so that

    y(x) ~ Y(0) + Y(1) x + ... + Y(N) x^N.

All arithmetic is coefficient-wise and truncating: products of order-N
series are order-N series and terms above x^N are dropped.  Callers that
need more headroom pad first (see :func:`pad`).  Cauchy products and
the kernel recurrences all convolve through :func:`dot`, one
left-to-right multiply-accumulate; the sums that report float
cancellation go through :func:`guarded_sum` instead.  In rational mode
:func:`dot` and :func:`evaluate` are fraction-free (Knuth, TAOCP vol. 2,
4.5.1): integer numerators summed over one common denominator, normalised
once per result; Fractions are canonical, so the values do not change.

Two coefficient modes exist and are never mixed silently:

* ``Mode.RATIONAL`` -- exact ``fractions.Fraction`` values (arbitrary
  precision integers, always lowest terms, positive denominator),
* ``Mode.FLOAT``    -- IEEE double precision.

Plain ``int`` values are accepted anywhere and coerced exactly into
either mode.  A ``float`` arriving where rational arithmetic was asked
for raises :class:`ModeMismatchError` instead of being converted behind
the caller's back.

Series objects are immutable; every operation returns a new value, so
they can be shared freely across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul
from typing import Callable, Iterator, Optional, Sequence, Union

Number = Union[Fraction, float]


class ModeMismatchError(ValueError):
    """Rational and float values met inside one operation."""


class OrderMismatchError(ValueError):
    """Series of different truncation orders were combined."""


class FloatRangeError(OverflowError):
    """An exact value is too large to convert to a float."""


def as_float(value, what: str) -> float:
    """``float(value)``, or FloatRangeError naming ``what`` if it overflows."""
    try:
        return float(value)
    except OverflowError:
        raise FloatRangeError(f"{what} overflows a float") from None


class Mode(enum.Enum):
    """Arithmetic mode of a series: exact rational or double precision."""

    RATIONAL = "rational"
    FLOAT = "float"

    def __str__(self):
        return self.value


def mode_of(value) -> Mode:
    """Mode a bare scalar belongs to.  Ints count as rational."""
    if isinstance(value, bool):
        raise TypeError(f"not a numeric coefficient: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Mode.RATIONAL
    if isinstance(value, float):
        return Mode.FLOAT
    raise TypeError(f"not a numeric coefficient: {value!r}")


def coerce(value, mode: Mode) -> Number:
    """Convert ``value`` into the arithmetic type of ``mode``.

    Ints are exact in both modes.  Fractions convert to float when a
    float session asks for them; floats never convert to rationals
    implicitly (write ``Fraction(x)`` yourself if you mean it).
    """
    if isinstance(value, bool):
        raise TypeError(f"not a numeric coefficient: {value!r}")
    if mode is Mode.RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            raise ModeMismatchError(
                f"float value {value!r} in rational mode; convert explicitly"
            )
    elif mode is Mode.FLOAT:
        if isinstance(value, (int, float, Fraction)):
            return float(value)
    raise TypeError(f"not a numeric coefficient: {value!r}")


def zero(mode: Mode) -> Number:
    return Fraction(0) if mode is Mode.RATIONAL else 0.0


def one(mode: Mode) -> Number:
    return Fraction(1) if mode is Mode.RATIONAL else 1.0


@dataclass(frozen=True)
class Series:
    """Transform coefficients Y(0..N) of a truncated power series.

    ``coeffs`` always has ``order + 1`` entries and all of them live in
    ``mode``.  The constructor coerces ints (and, in float mode,
    fractions); anything unsafe raises.
    """

    coeffs: tuple
    mode: Mode

    def __init__(self, coeffs: Sequence, mode: Mode):
        if isinstance(mode, str):
            mode = Mode(mode)
        values = tuple(coerce(c, mode) for c in coeffs)
        if not values:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", values)
        object.__setattr__(self, "mode", mode)

    @property
    def order(self) -> int:
        """Highest retained power of x."""
        return len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def __iter__(self) -> Iterator[Number]:
        return iter(self.coeffs)

    def __call__(self, x) -> Number:
        return evaluate(self, x)

    def pad(self, order: int) -> "Series":
        """Zero-extend up to ``order`` (a no-op at the current order)."""
        if order < self.order:
            raise OrderMismatchError(
                f"cannot pad order {self.order} down to {order}; use truncate"
            )
        z = zero(self.mode)
        return Series(self.coeffs + (z,) * (order - self.order), self.mode)

    def truncate(self, order: int) -> "Series":
        """Drop coefficients above ``order``."""
        if order > self.order:
            raise OrderMismatchError(f"series has no coefficients beyond {self.order}")
        return Series(self.coeffs[: order + 1], self.mode)

    def to_float(self) -> "Series":
        """Explicit conversion to float mode (exact values may round)."""
        if self.mode is Mode.FLOAT:
            return self
        coeffs = [as_float(c, f"coefficient of x^{k}") for k, c in enumerate(self.coeffs)]
        return Series(coeffs, Mode.FLOAT)


def _check_pair(g: Series, h: Series):
    if g.mode is not h.mode:
        raise ModeMismatchError(f"cannot combine {g.mode} and {h.mode} series")
    if g.order != h.order:
        raise OrderMismatchError(f"order {g.order} vs {h.order}; pad the shorter one")


def _check_scalar(value, mode: Mode) -> Number:
    got = mode_of(value)
    if isinstance(value, int) or got is mode:
        return coerce(value, mode)
    raise ModeMismatchError(f"{got} scalar {value!r} with a {mode} series")


def add_scaled(alpha, g: Series, beta, h: Series) -> Series:
    """Linear combination alpha*g + beta*h, coefficient by coefficient."""
    _check_pair(g, h)
    a = _check_scalar(alpha, g.mode)
    b = _check_scalar(beta, g.mode)
    return Series(
        [a * gc + b * hc for gc, hc in zip(g.coeffs, h.coeffs)], g.mode
    )


def derivative_transform(g: Series, n: int) -> Series:
    """Coefficients of the n-th derivative of the function behind ``g``.

    Differentiating y(x) = sum Y(k) x^k term by term n times gives the
    coefficient rule F(k) = (k+1)(k+2)...(k+n) * Y(k+n); the result is
    shorter by n.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"derivative count must be a positive integer, got {n!r}")
    if n > g.order:
        raise OrderMismatchError(
            f"cannot take {n} derivatives of an order-{g.order} series"
        )
    out = []
    for k in range(g.order - n + 1):
        w = 1
        for i in range(1, n + 1):
            w *= k + i
        out.append(w * g.coeffs[k + n])
    return Series(out, g.mode)


def dot(xs, ys, start: Number, weights=None) -> Number:
    """``start + x0*y0 + x1*y1 + ...``, or with ``weights`` each term
    ``(w*x)*y``, accumulated left to right and stopping at the shortest
    input.

    Cauchy products and every kernel recurrence call it.  Callers pass
    :func:`zero` as ``start``; starting from the first term instead would
    turn a sum of -0.0 terms into -0.0 rather than 0.0.  A Fraction
    ``start`` sums the terms' integer numerators (weights int or Fraction)
    over the lcm of their denominators and normalises once.
    """
    if type(start) is Fraction:  # not isinstance: a check against the ABC slows every float dot
        nums, dens = [start.numerator], [start.denominator]
        for w, x, y in zip(repeat(1) if weights is None else weights, xs, ys):
            nums.append(w.numerator * x.numerator * y.numerator)
            dens.append(w.denominator * x.denominator * y.denominator)
        common = math.lcm(*dens)
        return Fraction(sum(map(mul, nums, map(floordiv, repeat(common), dens))), common)
    acc = start
    if weights is None:
        for x, y in zip(xs, ys):
            acc += x * y
    else:
        for w, x, y in zip(weights, xs, ys):
            acc += w * x * y
    return acc


def cauchy_product(g: Series, h: Series) -> Series:
    """Product series: F(k) = sum_{r=0..k} G(r) H(k-r), truncated at the
    common order."""
    _check_pair(g, h)
    gc, hc, z = g.coeffs, h.coeffs, zero(g.mode)
    return Series([dot(gc[: k + 1], hc[k::-1], z) for k in range(g.order + 1)], g.mode)


def multi_product(factors: Sequence[Series]) -> Series:
    """Product of several series, folded left through :func:`cauchy_product`."""
    if not factors:
        raise ValueError("multi_product needs at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = cauchy_product(acc, f)
    return acc


def monomial(n: int, order: int, mode: Mode = Mode.RATIONAL) -> Series:
    """The series of x^n at the given order: 1 at index n, 0 elsewhere."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"monomial degree must be a nonnegative integer, got {n!r}")
    if n > order:
        raise OrderMismatchError(f"x^{n} does not fit in an order-{order} series")
    z, o = zero(mode), one(mode)
    return Series([o if k == n else z for k in range(order + 1)], mode)


def evaluate(s: Series, x) -> Number:
    """Value of the truncated polynomial at ``x`` (Horner scheme); exactly, for
    x = p/q, the integer Horner acc = acc*p + L*Y(k)*q^(N-k) over L*q^N, with
    L the lcm of the coefficient denominators."""
    xv = _check_scalar(x, s.mode)
    if type(xv) is Fraction:
        p, q = xv.numerator, xv.denominator
        common = math.lcm(*(c.denominator for c in s.coeffs))
        acc, scale = 0, 1
        for c in reversed(s.coeffs):
            acc = acc * p + c.numerator * (common // c.denominator) * scale
            scale *= q
        return Fraction(acc, common * q**s.order)
    acc = s.coeffs[-1]
    for c in reversed(s.coeffs[:-1]):
        acc = acc * xv + c
    return acc


# largest term / |sum| above which guarded_sum reports lost float digits
_CANCELLATION_LIMIT = 1e6


def guarded_sum(
    terms,
    start: Number,
    on_warn: Optional[Callable[[str], None]] = None,
    label: str = "",
) -> Number:
    """Sum ``terms`` onto ``start``, flagging heavy float cancellation.

    In float mode, when the largest term magnitude exceeds
    ``_CANCELLATION_LIMIT`` times the final sum, most leading digits
    cancelled and the result has lost precision; ``on_warn`` receives one
    message describing it.  No compensated summation is attempted.
    Rational sums are exact and never warn.
    """
    total = start
    largest = 0.0
    watching = on_warn is not None and isinstance(start, float)
    for t in terms:
        total += t
        if watching:
            m = abs(t)
            if m > largest:
                largest = m
    if watching and largest > 0.0:
        if total == 0.0 or largest / abs(total) > _CANCELLATION_LIMIT:
            ratio = "inf" if total == 0.0 else f"{largest / abs(total):.1e}"
            on_warn(f"{label}: cancellation ratio {ratio} (largest term {largest:.3e})")
    return total
