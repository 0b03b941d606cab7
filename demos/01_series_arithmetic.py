"""Tour of the series layer: coefficients, modes, padding and evaluation.

A series is just the vector of scaled Taylor coefficients Y(k), so that
y(x) = sum Y(k) x^k up to the truncation order.  The solver builds its
answer as one of these; products of series come from the same streaming
expression machinery the solver runs.
"""

from fractions import Fraction as F

from emdenseries import Mode, ModeMismatchError, Series, evaluate, parse_expression
from emdenseries.expr import ExprState

# Two modes: exact rationals (arbitrary precision) and IEEE doubles.
# Ints are fine in both; a float in a rational series is an error.
exact = Series([1, 0, F(-1, 6), 0, F(1, 120)], Mode.RATIONAL)
approx = exact.to_float()
print("exact coefficients: ", exact.coeffs)
print("float coefficients: ", approx.coeffs)
try:
    Series([1, 0.5], Mode.RATIONAL)
except ModeMismatchError as exc:
    print("float in a rational series:", exc)

# Evaluation is Horner's scheme; in rational mode it is exact.
print("\ny(1/2) exactly:    ", evaluate(exact, F(1, 2)))
print("y(0.5) in floats:  ", evaluate(approx, 0.5))
print("called directly:   ", exact(F(1, 2)) == evaluate(exact, F(1, 2)))

# Truncation means products of order-N series stay order-N: pad first
# when the higher terms matter.  pad only ever extends.
a = Series([1, 1], Mode.RATIONAL)
print("\n1 + x padded to order 3:", a.pad(3).coeffs)


# The square of a series is g(y) = y^2 streamed one coefficient at a time:
# G(k) needs Y(0..k) only, which is what lets the solver interleave it.
def square(series):
    state = ExprState(parse_expression("y^2"), series.mode)
    ys = list(series.coeffs)
    return [state.advance(ys[: k + 1]) for k in range(len(ys))]


print("\n(1+x)^2, truncated: ", square(a))
print("(1+x)^2, padded:    ", square(a.pad(2)))
print("(sin(x)/x)^2:       ", square(exact))
