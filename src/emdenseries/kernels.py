"""Incremental transform recurrences for nonlinear functions of a series.

Given the coefficients Y(0..k) of an unknown y(x), each kernel produces
the coefficients F(0..k) of f(y(x)) for one family of scalar functions
f, one index at a time.  The rules all share the same shape: F(0) is the
scalar seed f(Y(0)); F(k) for k >= 1 is a convolution of earlier F (and,
for the trigonometric pairs, the partner G) against the Y prefix.  They
follow from differentiating f(y(x)) once and transforming the resulting
first-order identity, e.g. for f = y^m from  y f' = m f y'.

Differentiating leaves a weight r on each term ((m+1) r - k for y^m).
A float kernel keeps a list, one entry appended per index: r Y(r) (exp
and the pairs), r F(r) (ln) or (m+1) r (y^m), so its convolutions are
plain left-to-right float loops: exp and ln call :func:`series.dot`; y^m
and the pairs (both sums in one pass) loop here.  An exact kernel passes
integer weights to :func:`series.dot_numerator` and folds the scalars
(alpha, 1/k, 1/Y(0), 1/d) into one integer ratio, normalised once.

Because F(k) depends on Y(0..k) only, a solver may interleave kernel
steps with the recurrence that produces Y itself; that causality is the
whole point of the streaming interface.  Each kernel instance belongs to
one solve session and must not be shared; fresh instances run in
parallel safely.

Each kernel class is the one place that states its functions: its
``functions`` are the scalar functions of the seed argument (math.exp,
or math.sin and math.cos for a pair) and its ``names`` their names in
the expression grammar.  The expression nodes, the parser, the text
form and the scalar evaluator all read them from here.

Rational mode keeps every coefficient exact, which is only possible when
the seed is exact: e^0, ln 1, sin 0 and friends.  :meth:`Kernel._seed`
refuses every other seed in rational mode
(:class:`TranscendentalSeedError`) rather than rounding it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import sub

from .series import Mode, as_list, coerce, dot, dot_numerator, zero


class KernelDomainError(ValueError):
    """The scalar function is undefined or singular at the seed value."""


class TranscendentalSeedError(ValueError):
    """Rational mode was asked for a seed that is not exactly rational."""


class PrefixLengthError(ValueError):
    """The Y prefix handed to ``advance`` does not match the next index."""


def check_prefix(y_prefix, k: int):
    """PrefixLengthError unless ``y_prefix`` holds exactly Y(0..k)."""
    if len(y_prefix) != k + 1:
        raise PrefixLengthError(f"expected Y(0..{k}) ({k + 1} values), got {len(y_prefix)}")


def _int_root(n: int, q: int):
    """Exact q-th root of a nonnegative int of any size, or None: integer
    Newton steps from 2**ceil(bits/q), above the root, down to its floor."""
    if n in (0, 1):
        return n
    x = 1 << -(-n.bit_length() // q)
    while True:
        nxt = ((q - 1) * x + n // x ** (q - 1)) // q
        if nxt >= x:
            return x if x**q == n else None
        x = nxt


def _exact_rational_power(base: Fraction, exponent: Fraction) -> Fraction:
    """base**exponent as an exact Fraction, or TranscendentalSeedError."""
    p, q = exponent.numerator, exponent.denominator
    if q == 1:
        return base**p
    rn = _int_root(base.numerator, q)
    rd = _int_root(base.denominator, q)
    if rn is None or rd is None:
        raise TranscendentalSeedError(
            f"{base}**({exponent}) is not rational; use float mode"
        )
    return Fraction(rn, rd) ** p


class Kernel:
    """Base for the streaming transforms: grows F(0..k) one index per call,
    F(0) by ``_first(y0)``, the rest by ``_step`` (floats) or ``_exact_step``
    (a RationalList); a pair returns (F, G) from each."""

    paired = False
    functions: tuple = ()  # scalar f (and g for a pair) of the seed argument
    names: tuple = ()  # their names in the expression grammar

    def __init__(self, mode: Mode):
        self.mode = mode
        self.f = as_list(mode)

    def advance(self, y_prefix):
        """Consume Y(0..k), k the number of F values so far, and return F(k).

        Earlier entries of the prefix must not change between calls,
        because kernels read them again: Power, Log and every exact kernel
        read Y(1..k) on every call, and float Exp and the sin/cos and
        sinh/cosh pairs keep r*Y(r) from earlier calls.  Causality holds
        because F(k) reads only Y(0..k).
        """
        k = len(self.f)
        check_prefix(y_prefix, k)
        if self.mode is Mode.RATIONAL:
            y_prefix = as_list(self.mode, y_prefix)  # rejects a float prefix
            step = self._exact_step
        else:
            coerce(y_prefix[k], self.mode)  # reject non-numbers early
            step = self._step
        value = step(k, y_prefix) if k else self._first(coerce(y_prefix[0], self.mode))
        if self.paired:
            self.g.append(value[1])
        self.f.append(value[0] if self.paired else value)
        return value

    def _seed(self, s, exact_at, need: str) -> list:
        """F(0) (and G(0)) at the seed argument s: each of ``functions``
        at s in float mode.  Rational mode takes s == exact_at only, where
        every value is exactly 0 or 1; ``need`` states that condition."""
        if self.mode is Mode.FLOAT:
            return [fn(s) for fn in self.functions]
        if s != exact_at:
            values = ", ".join(f"{name}({s})" for name in self.names)
            verb = "are" if len(self.names) > 1 else "is"
            raise TranscendentalSeedError(
                f"{values} {verb} irrational; rational mode needs {need}"
            )
        return [Fraction(fn(exact_at)) for fn in self.functions]


class PowerKernel(Kernel):
    """Transform of f(y) = y^m.

    For k >= 1 and a nonzero seed the recurrence

        F(k) = (1/Y(0)) * sum_{r=1..k} ((m+1) r - k)/k * Y(r) F(k-r)

    holds for arbitrary real m.  It divides by Y(0), so for m = 0 and 1,
    and for any nonnegative integer m at Y(0) == 0 (a regular polynomial
    there), the kernel uses plain repeated products of Y instead; any other
    exponent requires Y(0) > 0.
    """

    def __init__(self, exponent, mode: Mode):
        super().__init__(mode)
        self.exponent = m = coerce(exponent, mode)
        if mode is Mode.RATIONAL:
            self._weight = (m.numerator + m.denominator, m.denominator)
            integral = m.denominator == 1
        else:
            self._weight = (m + 1, 1)
            integral = m.is_integer()
        self._int_exponent = int(m) if integral else None
        self._powers = None  # repeated-product fallback state
        self._mr = []  # (m+1) r, r = 1..k; exactly, m = P/Q: (P+Q) r over Q

    def _first(self, y0):
        m, mi = self.exponent, self._int_exponent
        self._y0 = y0
        if mi is not None and mi >= 0:
            if y0 == 0 or mi <= 1:
                # y^m stays regular at a zero seed, and y^0, y^1 need no recurrence
                # (for m = 1 its terms cancel in pairs): convolve m copies of Y.
                self._powers = [as_list(self.mode, [y0**j]) for j in range(mi + 1)]
            return y0**mi
        if y0 <= 0:
            raise KernelDomainError(f"y^({m}) needs Y(0) > 0, got Y(0) = {y0}")
        if self.mode is Mode.RATIONAL:
            return _exact_rational_power(y0, m)
        return y0**m

    def _step(self, k, y):  # weights (m+1) r - k
        if self._powers is not None:
            return self._fallback_step(k, y)
        self._mr.append(self._weight[0] * k)
        acc = 0.0
        for t, x, f in zip(self._mr, y[1:], reversed(self.f)):
            acc += (t - k) * x * f
        return acc / (k * self._y0)

    def _exact_step(self, k, y):  # integer weights (P+Q) r - Q k over Q Y(0) k
        if self._powers is not None:
            return self._fallback_step(k, y)
        top, q = self._weight
        self._mr.append(top * k)
        total = dot_numerator(y[1 : k + 1], reversed(self.f), map(sub, self._mr, repeat(q * k)))
        y0 = self._y0
        return Fraction(total * y0.denominator, y.den * self.f.den * q * k * y0.numerator)

    def _fallback_step(self, k, y):
        mi = self._int_exponent
        if mi == 0:
            return zero(self.mode)
        powers = self._powers
        powers[1].append(y[k])
        for j in range(2, mi + 1):
            powers[j].append(dot(powers[j - 1], y[k::-1], zero(self.mode)))
        return powers[mi][k]


class ExpKernel(Kernel):
    """Transform of f(y) = exp(alpha * y):

        F(0) = exp(alpha Y(0)),
        F(k) = (alpha/k) * sum_{r=0..k-1} (r+1) Y(r+1) F(k-1-r).
    """

    functions = (math.exp,)
    names = ("exp",)

    def __init__(self, alpha, mode: Mode):
        super().__init__(mode)
        self.alpha = coerce(alpha, mode)
        self._dy = []  # float mode: r Y(r), r = 1..k

    def _first(self, y0):
        return self._seed(self.alpha * y0, 0, "alpha*Y(0) == 0")[0]

    def _step(self, k, y):
        self._dy.append(k * y[k])
        return self.alpha * dot(self._dy, reversed(self.f), 0.0) / k

    def _exact_step(self, k, y):  # the weights r on Y(r)
        a, total = self.alpha, dot_numerator(y[1 : k + 1], reversed(self.f), range(1, k + 1))
        return Fraction(a.numerator * total, a.denominator * k * y.den * self.f.den)


class LogKernel(Kernel):
    """Transform of f(y) = ln(alpha * y + beta), alpha*y + beta > 0:

        F(0) = ln(d),             d = alpha Y(0) + beta
        F(k) = (alpha/d) * [ Y(k) - (1/k) sum_{r=0..k-2} (r+1) F(r+1) Y(k-1-r) ]

    (the sum is empty at k = 1, leaving F(1) = alpha Y(1) / d).
    """

    functions = (math.log,)
    names = ("ln",)

    def __init__(self, alpha, beta, mode: Mode):
        super().__init__(mode)
        self.alpha = coerce(alpha, mode)
        self.beta = coerce(beta, mode)
        self._d = None
        self._df = []  # float mode: r F(r), r = 1..k-1

    def _first(self, y0):
        self._d = d = self.alpha * y0 + self.beta
        if d <= 0:
            raise KernelDomainError(f"ln argument alpha*Y(0)+beta = {d} is not positive")
        return self._seed(d, 1, "alpha*Y(0)+beta == 1")[0]

    def _step(self, k, y):
        acc = dot(self._df, y[k - 1 : 0 : -1], 0.0)
        fv = self.alpha * (y[k] - acc / k) / self._d
        self._df.append(k * fv)
        return fv

    def _exact_step(self, k, y):  # alpha (k Y(k) - sum r F(r) Y(k-r)) / (k d), weights r
        f, a, d = self.f, self.alpha, self._d
        total = dot_numerator(f[1:], y[k - 1 : 0 : -1], range(1, k))
        return Fraction(a.numerator * d.denominator * (k * f.den * y.nums[k] - total),
                        a.denominator * d.numerator * k * f.den * y.den)


class _CircularKernel(Kernel):
    """Shared machinery for the sin/cos and sinh/cosh pairs.

    Both partners are produced together because each recurrence feeds on
    the other:

        F(k) = (alpha/k)        * sum_{r=0..k-1} (k-r) G(r) Y(k-r)
        G(k) = (sign*alpha/k)   * sum_{r=0..k-1} (k-r) F(r) Y(k-r)

    with sign = -1 for the circular pair and +1 for the hyperbolic one.
    """

    paired = True
    _sign = -1

    def __init__(self, alpha, mode: Mode):
        super().__init__(mode)
        self.alpha = coerce(alpha, mode)
        self.g = as_list(mode)
        self._dy = []  # float mode: r Y(r), r = 1..k

    def _first(self, y0):
        return tuple(self._seed(self.alpha * y0, 0, "alpha*Y(0) == 0"))

    def _step(self, k, y):
        self._dy.append(k * y[k])
        fs = gs = 0.0
        for d, fr, gr in zip(reversed(self._dy), self.f, self.g):  # (k-r) Y(k-r), r = 0..k-1
            fs += d * gr  # both sums in one pass
            gs += d * fr
        return self.alpha * fs / k, self._sign * self.alpha * gs / k

    def _exact_step(self, k, y):  # the weights k - r on Y(k-r), r = 0..k-1
        ys, w, a = y[k:0:-1], range(k, 0, -1), self.alpha
        den = a.denominator * k * y.den
        return (Fraction(a.numerator * dot_numerator(ys, self.g, w), den * self.g.den),
                Fraction(self._sign * a.numerator * dot_numerator(ys, self.f, w), den * self.f.den))


class SinCosKernel(_CircularKernel):
    """Paired transform of sin(alpha*y) and cos(alpha*y)."""

    _sign = -1
    functions = (math.sin, math.cos)
    names = ("sin", "cos")


class SinhCoshKernel(_CircularKernel):
    """Paired transform of sinh(alpha*y) and cosh(alpha*y)."""

    _sign = 1
    functions = (math.sinh, math.cosh)
    names = ("sinh", "cosh")
