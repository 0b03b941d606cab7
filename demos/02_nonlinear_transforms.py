"""Transforms of nonlinear functions of an unknown series.

The key trick of the whole method: if y(x) has coefficients Y(0..k),
then f(y(x)) has coefficients F(0..k) computable by a recurrence that
never looks ahead.  Each supported f (powers, exp, ln, sin/cos,
sinh/cosh) has such a kernel; expression trees compose them with sums,
products, and scalar multiples.
"""

import math
from fractions import Fraction as F

from emdenseries import (
    ExpKernel,
    Mode,
    PowerKernel,
    SinCosKernel,
    parse_expression,
)
from emdenseries.expr import ExprState


def transform(kernel, ys):
    """Feed Y(0..k) to the kernel for each k in turn; F(k), or (F(k), G(k))
    for the sin/cos pair, comes back from each step."""
    return [kernel.advance(ys[: k + 1]) for k in range(len(ys))]


def square(fs):
    """Truncated Cauchy product of a coefficient list with itself."""
    return [sum(fs[r] * fs[k - r] for r in range(k + 1)) for k in range(len(fs))]


# Feed y = x into the exp kernel: out come the e^x coefficients 1/k!.
y = [F(0), F(1), F(0), F(0), F(0), F(0)]
print("exp(x) coefficients:", transform(ExpKernel(F(1), Mode.RATIONAL), y))

# The kernels are incremental: they produce F(k) from Y(0..k) alone.
# That causality is what lets the solver interleave them with the
# recurrence that discovers Y itself.
kernel = ExpKernel(F(1), Mode.RATIONAL)
prefix = [F(0), F(1), F(1, 2)]
for k in range(3):
    value = kernel.advance(prefix[: k + 1])
    print(f"  after seeing Y(0..{k}): F({k}) = {value}")

# sin and cos come out as a coupled pair; on an exact zero seed the
# whole computation stays rational, and sin^2 + cos^2 == 1 holds
# coefficient-by-coefficient, exactly.
y = [F(0), F(1), F(-1, 3), F(2, 7), F(0), F(5, 11)]
s, c = zip(*transform(SinCosKernel(F(1), Mode.RATIONAL), y))
total = [a + b for a, b in zip(square(s), square(c))]
print("\nsin^2 + cos^2 == 1:", total == [1, 0, 0, 0, 0, 0])

# Integer powers agree with brute-force repeated multiplication but run
# in O(k) per coefficient instead of m convolutions.
y = [F(2), F(1), F(-1, 2), F(0), F(1)]
print("y^5 via recurrence: ", transform(PowerKernel(5, Mode.RATIONAL), y)[:3], "...")

# Whole expressions stream the same way.
g = parse_expression("18*y + 4*y*ln(y)")
state = ExprState(g, Mode.RATIONAL)
prefix = [F(1), F(0), F(-1)]
values = [state.advance(prefix[: k + 1]) for k in range(3)]
print("\n18y + 4y*ln(y) over y = 1 - x^2:", values)

# Irrational seeds are refused in rational mode rather than rounded.
try:
    ExpKernel(F(1), Mode.RATIONAL).advance([F(1)])
except Exception as exc:
    print("\nexp(y) at y(0)=1 in rational mode:", exc)
print("same seed in float mode:", ExpKernel(1.0, Mode.FLOAT).advance([1.0]), "=", math.e)
