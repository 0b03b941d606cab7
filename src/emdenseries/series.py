"""Truncated power series over exact rationals or IEEE doubles.

A function y(x) analytic at the origin is stored as the vector of its
scaled Taylor coefficients Y(k) = y^(k)(0) / k!, truncated at a fixed
highest power N (the *order*), so that

    y(x) ~ Y(0) + Y(1) x + ... + Y(N) x^N.

Products are truncating: the product of order-N series is an order-N
series and terms above x^N are dropped.  Callers that need more headroom
pad first (see :meth:`Series.pad`).  Each exact convolution is one
integer sum, :func:`dot_numerator` (:func:`exact_dot` for a plain one);
:func:`dot` is the float one, and float Power and the paired kernels
fuse their own loops.  The float sums and products of
:class:`emdenseries.expr.ExprState` and the recurrence's forcing sum go
through :func:`guarded_sum`, which reports cancellation.  Every float
sum runs left to right from 0.0.  Rational lists hold integer
numerators over one running denominator (Knuth, TAOCP vol. 2, 4.5.1):
an exact step forms its value from integers and normalises it once, on
append, and :func:`evaluate` is one integer sum.  Fractions are canonical.

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
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import repeat
from operator import mul

Number = Fraction | float


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


def coerce(value, mode: Mode) -> Number:
    """Convert ``value`` into the arithmetic type of ``mode``.

    Ints are exact in both modes.  Fractions convert to float when a
    float session asks for them; floats never convert to rationals
    implicitly (write ``Fraction(x)`` yourself if you mean it).  Anything
    else, bools included, raises TypeError.
    """
    if isinstance(value, bool):  # an int subclass, but not a coefficient
        pass
    elif mode is Mode.RATIONAL:
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


_ZERO = Fraction(0)


def zero(mode: Mode) -> Number:
    return _ZERO if mode is Mode.RATIONAL else 0.0


class RationalList:
    """Rational mode's list format: values ``Fraction(nums[i], den)`` over one
    running denominator, grown by the least integer that an appended value
    needs.  Indexing gives canonical Fractions (the last one appended is
    kept); slices and ``reversed`` share the denominator."""

    __slots__ = ("nums", "den", "_last")

    def __init__(self, values=(), nums=None, den=1):
        self.nums, self.den, self._last = [] if nums is None else nums, den, None
        for v in values:
            self.append(coerce(v, Mode.RATIONAL))

    def append(self, value):
        num, den = value.numerator, value.denominator
        scale, rest = divmod(self.den, den)
        if rest:  # gcd(rest, den) == gcd(self.den, den)
            grow = den // math.gcd(rest, den)
            self.nums, self.den = list(map(mul, self.nums, repeat(grow))), self.den * grow
            scale = self.den // den
        self.nums.append(num * scale)
        self._last = value if type(value) is Fraction else None

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, i):
        if type(i) is slice:
            return RationalList((), self.nums[i], self.den)
        if self._last is not None and (i == -1 or i == len(self.nums) - 1):
            return self._last
        return Fraction(self.nums[i], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        return map(Fraction, self.nums, repeat(self.den))

    def __reversed__(self):
        return RationalList((), self.nums[::-1], self.den)


def as_list(mode: Mode, values=()):
    """``values`` in the list format of ``mode`` that :func:`dot` or :func:`exact_dot`
    takes: floats in a new list, or a RationalList (a RationalList passes as is)."""
    if mode is Mode.FLOAT:
        return [coerce(v, mode) for v in values]
    return values if type(values) is RationalList else RationalList(values)


class Record:
    """Frozen value: its fields are the class annotations, base classes
    first, with class attributes as defaults.  Each subclass gets an
    ``__init__`` (unless it has one) ending in ``__post_init__``, ``==``
    and ``hash`` on the field tuple within one class, and the repr
    ``Cls(field=value, ...)``; setting an attribute raises AttributeError.
    This replaces the standard library's record decorator, whose import
    (``inspect``) slowed every start."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__annotations__" in vars(cls) or "__post_init__" in vars(cls):
            # compiled once per class, as a loop over the fields would cost every call
            names = (n for c in reversed(cls.__mro__) for n in vars(c).get("__annotations__", ()))
            cls._fields = fields = tuple(dict.fromkeys(names))
            params = "".join(f", {n}=_cls.{n}" if hasattr(cls, n) else f", {n}" for n in fields)
            body = [f"_set(self, {n!r}, {n})" for n in fields]
            body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
            values = "".join(f"self.{n}, " for n in fields)
            namespace = {"_set": object.__setattr__, "_cls": cls}
            exec(f"def __init__(self{params}):\n    " + "\n    ".join(body)
                 + f"\ndef _values(self):\n    return ({values})", namespace)
            cls._values = namespace["_values"]
            if "__init__" not in vars(cls):
                cls.__init__ = namespace["__init__"]
        cls._format = f"{cls.__qualname__}({', '.join(f'{n}=%r' for n in cls._fields)})"

    def _values(self) -> tuple:
        return ()

    def __repr__(self):
        return self._format % self._values()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")

    __setattr__ = __delattr__ = _frozen


class Series(Record):
    """Transform coefficients Y(0..N) of a truncated power series.

    ``coeffs`` always has ``order + 1`` entries and all of them live in
    ``mode``.  The constructor coerces ints (and, in float mode,
    fractions); anything unsafe raises.
    """

    coeffs: tuple
    mode: Mode

    def __init__(self, coeffs: Sequence, mode: Mode, _list=None):
        if isinstance(mode, str):
            mode = Mode(mode)
        if _list is None:  # else a solve's canonical values and the RationalList holding them
            coeffs = _list = as_list(mode, coeffs)
        values = tuple(coeffs)
        if not values:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", values)
        object.__setattr__(self, "mode", mode)
        # what dot and evaluate take; a caller's RationalList may still grow
        object.__setattr__(self, "_list", values if mode is Mode.FLOAT else _list[:])

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
                f"cannot pad order {self.order} down to {order}: pad only extends"
            )
        z = zero(self.mode)
        return Series(self.coeffs + (z,) * (order - self.order), self.mode)

    def to_float(self) -> "Series":
        """Explicit conversion to float mode (exact values may round)."""
        if self.mode is Mode.FLOAT:
            return self
        coeffs = [as_float(c, f"coefficient of x^{k}") for k, c in enumerate(self.coeffs)]
        return Series(coeffs, Mode.FLOAT)


def dot_numerator(xs, ys, weights=None):
    """``x0*y0 + x1*y1 + ...`` (with ``weights``, each term ``(w*x)*y``) of two RationalLists
    times ``xs.den * ys.den``: one sum over their numerators, an int for int weights."""
    return sum(map(mul, xs.nums if weights is None else map(mul, weights, xs.nums), ys.nums))


def exact_dot(xs, ys) -> Fraction:
    """``x0*y0 + x1*y1 + ...`` of two RationalLists, normalised once."""
    return Fraction(dot_numerator(xs, ys), xs.den * ys.den)


def dot(xs, ys) -> float:
    """``x0*y0 + x1*y1 + ...`` of floats, left to right from 0.0, stopping at the
    shortest input; from the first term, a sum of -0.0 terms would be -0.0.  The
    float Exp and Log kernels and integer powers' products call it."""
    acc = 0.0
    for x, y in zip(xs, ys):
        acc += x * y
    return acc


def evaluate(s: Series, x) -> Number:
    """Value of the truncated polynomial at ``x`` (Horner scheme); exactly, for
    x = p/q, the integer Horner acc = acc*p + L*Y(k)*q^(N-k) over L*q^N, with
    L*Y(k) the numerators of the series' RationalList over L."""
    if isinstance(x, Fraction) and s.mode is Mode.FLOAT:  # stricter than coerce: no rounding
        raise ModeMismatchError(f"rational scalar {x!r} with a float series")
    xv = coerce(x, s.mode)
    if type(xv) is Fraction:
        p, q = xv.numerator, xv.denominator
        ys = s._list
        acc, scale = 0, 1
        for c in reversed(ys.nums):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc, ys.den * q**s.order)
    acc = s.coeffs[-1]
    for c in reversed(s.coeffs[:-1]):
        acc = acc * xv + c
    return acc


# largest term / |sum| above which guarded_sum reports lost float digits
_CANCELLATION_LIMIT = 1e6


def guarded_sum(terms, on_warn: Callable[[str], None] | None, label: Callable[[], str]) -> float:
    """Sum the float ``terms`` left to right from 0.0, flagging heavy cancellation.

    When the largest term magnitude exceeds ``_CANCELLATION_LIMIT`` times
    the final sum, most leading digits cancelled and the result has lost
    precision; ``on_warn`` (unless None) receives one message, named by
    ``label()``, which runs only then.  No compensated summation is attempted.
    """
    total = largest = 0.0
    watching = on_warn is not None
    for t in terms:
        total += t
        if watching:
            m = abs(t)
            if m > largest:
                largest = m
    if watching and largest > 0.0:
        if total == 0.0 or largest / abs(total) > _CANCELLATION_LIMIT:
            ratio = "inf" if total == 0.0 else f"{largest / abs(total):.1e}"
            on_warn(f"{label()}: cancellation ratio {ratio} (largest term {largest:.3e})")
    return total
