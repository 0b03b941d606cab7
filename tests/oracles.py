"""Independent oracles the tests check the library against.

Everything here recomputes expected values by a route different from the
code under test: scalar Taylor coefficients of an outer function
combined with explicit polynomial powers, plain binomial series, a
direct second-order coefficient recurrence, g(y) by a walk of the tree,
and the generic n-component Dormand-Prince integrator.  Convolutions are
written out locally so these helpers share no code path with the series
module; only the integrator's driver evaluates f, and y at the start
point, through the library, as the code under test does.
:func:`drive` is not an oracle: it runs a kernel under test over a whole
coefficient list.
"""

from fractions import Fraction
import math

from emdenseries import (
    Const,
    KernelDomainError,
    Log,
    Power,
    Product,
    Scale,
    Sum,
    Var,
    evaluate,
)
from emdenseries.validation import StepSizeUnderflowError


def conv(a, b, order):
    """Truncated convolution of two coefficient lists."""
    return [
        sum(a[r] * b[k - r] for r in range(k + 1) if r < len(a) and k - r < len(b))
        for k in range(order + 1)
    ]


def drive(kernel, coeffs):
    """Advance a fresh kernel through every prefix of ``coeffs``; return the
    list of F(k), or the two lists (F, G) of a paired kernel."""
    ys = list(coeffs)
    out = [kernel.advance(ys[: k + 1]) for k in range(len(ys))]
    return tuple(map(list, zip(*out))) if kernel.paired else out


def fraction_dot(xs, ys, start, weights=None):
    """start + sum of w*x*y over the common prefix, one Fraction at a time."""
    pairs = list(zip(xs, ys))
    ws = [1] * len(pairs) if weights is None else list(weights)[: len(pairs)]
    return Fraction(start) + sum((Fraction(w) * x * y for w, (x, y) in zip(ws, pairs)), Fraction(0))


def compose(outer, y, order):
    """Coefficients of sum_j outer[j] * (y - y0)^j, truncated.

    ``outer`` are the scalar Taylor coefficients of the outer function
    around y0 = y[0]; the shifted series has no constant term, so powers
    beyond ``order`` cannot contribute.
    """
    u = list(y[: order + 1]) + [y[0] * 0] * (order + 1 - len(y))
    u[0] = u[0] - y[0]
    out = [c * 0 for c in u]
    out[0] = outer[0]
    upow = [u[0] * 0 for _ in u]
    upow[0] = outer[0] * 0 + 1  # one, in whatever arithmetic y uses
    for j in range(1, min(len(outer), order + 1)):
        upow = conv(upow, u, order)
        for k in range(order + 1):
            out[k] = out[k] + outer[j] * upow[k]
    return out


def binomial(m, j):
    """Generalized binomial coefficient m (m-1) ... (m-j+1) / j!."""
    num = m * 0 + 1
    for i in range(j):
        num = num * (m - i)
    return num / math.factorial(j) if isinstance(num, float) else Fraction(num, math.factorial(j))


def power_outer(m, y0, jmax):
    """Taylor of u^m around u = y0 (float, or exact for integer m / y0 == 1)."""
    out = []
    for j in range(jmax + 1):
        b = binomial(m, j)
        if isinstance(y0, float) or isinstance(m, float):
            out.append(float(b) * float(y0) ** (float(m) - j))
        elif isinstance(m, int) or (isinstance(m, Fraction) and m.denominator == 1):
            e = int(m) - j
            out.append(b * (Fraction(y0) ** e if y0 != 0 or e >= 0 else Fraction(0)))
        else:
            assert y0 == 1, "exact non-integer powers only tabulated around 1"
            out.append(b)
    return out


def exp_outer(alpha, y0, jmax):
    s = alpha * y0
    if isinstance(s, Fraction) and s == 0:
        return [Fraction(alpha) ** j / math.factorial(j) for j in range(jmax + 1)]
    c = math.exp(float(s))
    return [c * float(alpha) ** j / math.factorial(j) for j in range(jmax + 1)]


def log_outer(alpha, beta, y0, jmax):
    d = alpha * y0 + beta
    exact = isinstance(d, Fraction) and d == 1
    out = [Fraction(0) if exact else math.log(float(d))]
    for j in range(1, jmax + 1):
        term = (-1) ** (j + 1) * alpha**j / (j * d**j)
        out.append(term if exact else float(term))
    return out


def _circular_outer(alpha, y0, jmax, kind):
    """Taylor of sin/cos/sinh/cosh(alpha*u) around u = y0 via the
    four-step derivative cycle."""
    s = alpha * y0
    if isinstance(s, Fraction) and s == 0:
        big_s, big_c = Fraction(0), Fraction(1)
        a = Fraction(alpha)
    else:
        sv = float(s)
        hyper = kind in ("sinh", "cosh")
        big_s = math.sinh(sv) if hyper else math.sin(sv)
        big_c = math.cosh(sv) if hyper else math.cos(sv)
        a = float(alpha)
    cycle = {
        "sin": (big_s, big_c, -big_s, -big_c),
        "cos": (big_c, -big_s, -big_c, big_s),
        "sinh": (big_s, big_c, big_s, big_c),
        "cosh": (big_c, big_s, big_c, big_s),
    }[kind]
    return [cycle[j % 4] * a**j / math.factorial(j) for j in range(jmax + 1)]


def sin_outer(alpha, y0, jmax):
    return _circular_outer(alpha, y0, jmax, "sin")


def cos_outer(alpha, y0, jmax):
    return _circular_outer(alpha, y0, jmax, "cos")


def sinh_outer(alpha, y0, jmax):
    return _circular_outer(alpha, y0, jmax, "sinh")


def cosh_outer(alpha, y0, jmax):
    return _circular_outer(alpha, y0, jmax, "cosh")


def compose_fn(kind, params, y, order):
    """Expected transform of a named scalar function over polynomial y."""
    outer = {
        "power": lambda: power_outer(params["m"], y[0], order),
        "exp": lambda: exp_outer(params["alpha"], y[0], order),
        "log": lambda: log_outer(params["alpha"], params["beta"], y[0], order),
        "sin": lambda: sin_outer(params["alpha"], y[0], order),
        "cos": lambda: cos_outer(params["alpha"], y[0], order),
        "sinh": lambda: sinh_outer(params["alpha"], y[0], order),
        "cosh": lambda: cosh_outer(params["alpha"], y[0], order),
    }[kind]()
    return compose(outer, y, order)


# --- closed-form Taylor series of the benchmark solutions -------------------

def inverse_sqrt_one_plus_third(order):
    """Exact coefficients of (1 + x^2/3)^(-1/2) through ``order``."""
    out = [Fraction(0)] * (order + 1)
    for j in range(order // 2 + 1):
        out[2 * j] = binomial(Fraction(-1, 2), j) / Fraction(3) ** j
    return out


def sin_x_over_x(order):
    """Exact coefficients of sin(x)/x."""
    out = [Fraction(0)] * (order + 1)
    for j in range(order // 2 + 1):
        out[2 * j] = Fraction((-1) ** j, math.factorial(2 * j + 1))
    return out


def minus_two_log_one_plus(a, order):
    """Exact coefficients of -2 ln(1 + a x^2)."""
    a = Fraction(a)
    out = [Fraction(0)] * (order + 1)
    for j in range(1, order // 2 + 1):
        out[2 * j] = Fraction((-1) ** j * 2, j) * a**j
    return out


def gaussian(a, order):
    """Exact coefficients of exp(-a x^2)."""
    a = Fraction(a)
    out = [Fraction(0)] * (order + 1)
    for j in range(order // 2 + 1):
        out[2 * j] = Fraction((-1) ** j, math.factorial(j)) * a**j
    return out


def isothermal_by_direct_recurrence(order):
    """Exact isothermal coefficients from the raw second-order balance.

    Writing y = sum a_n x^n into  y'' + (2/x) y' + e^y = 0  and matching
    the coefficient of x^m gives  (m+2)(m+3) a_{m+2} = -[e^y]_m,  where
    [e^y]_m comes from the plain composition above.  No streaming
    kernels, no solver code.
    """
    a = [Fraction(0), Fraction(0)]
    for m in range(order - 1):
        e_coeffs = compose(exp_outer(Fraction(1), Fraction(0), m), a, m)
        a.append(Fraction(-1, (m + 2) * (m + 3)) * e_coeffs[m])
    return a[: order + 1]


# --- g(y) and the integrator, by the generic route --------------------------

def float_per_call(e, y):
    """g(y) by a walk of the tree, with every constant passed through float()
    at each call, raising what the library raises outside g's domain."""
    if isinstance(e, Var):
        return float(y)
    if isinstance(e, Power):
        if y < 0 and not float(e.exponent).is_integer():
            raise KernelDomainError(f"y^({e.exponent}) at negative y = {y}")
        return float(y) ** float(e.exponent)
    if isinstance(e, Scale):
        return float(e.factor) * float_per_call(e.child, y)
    if isinstance(e, Sum):
        out = 0.0
        for c in e.children:
            out += float_per_call(c, y)
        return out
    if isinstance(e, Product):
        return math.prod(float_per_call(c, y) for c in e.children)
    if isinstance(e, Log):
        s = float(e.alpha) * y + float(e.beta)
        if s <= 0:
            raise KernelDomainError(f"ln argument {s} is not positive")
        return math.log(s)
    if isinstance(e, Const):
        return float(e.value)
    cls, i = e.kernel
    return cls.functions[i](float(e.alpha) * y)


# The generic n-component integrator, kept verbatim as the reference that
# rk_trajectory's two-float step must match bit for bit.

# Dormand-Prince 5(4) tableau: fifth-order propagation, fourth-order
# error estimate from the difference of the two weight rows.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dopri_step(f, x, y, h):
    ks = []
    for i in range(7):
        yi = list(y)
        for j, aij in enumerate(_DP_A[i]):
            if aij != 0.0:
                for c in range(len(y)):
                    yi[c] += h * aij * ks[j][c]
        ks.append(f(x + _DP_C[i] * h, yi))
    y5 = list(y)
    err = [0.0] * len(y)
    for i in range(7):
        for c in range(len(y)):
            y5[c] += h * _DP_B5[i] * ks[i][c]
            err[c] += h * (_DP_B5[i] - _DP_B4[i]) * ks[i][c]
    return y5, err


def _integrate(f, x0, y0, x1, tol):
    """Adaptive integration of y' = f(x, y) from x0 to x1, local error <= tol."""
    x, y = x0, list(y0)
    span = x1 - x0
    h = min(1e-2, span / 10) if span > 0 else span
    steps = 0
    while x < x1:
        last = x + h > x1
        if last:
            h = x1 - x
        ynew, err = _dopri_step(f, x, y, h)
        norm = 0.0
        for c in range(len(y)):
            scale = tol + tol * max(abs(y[c]), abs(ynew[c]))
            norm = max(norm, abs(err[c]) / scale)
        if norm <= 1.0:
            # x + (x1 - x) can round short of x1
            x = x1 if last else x + h
            y = ynew
            factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm**-0.2))
        else:
            factor = max(0.2, 0.9 * norm**-0.2)
        h *= factor
        if x < x1 and h < 1e-14 * max(abs(x), span):
            raise StepSizeUnderflowError(f"step size underflow at x = {x}")
        steps += 1
        if steps > 1_000_000:
            raise StepSizeUnderflowError("step budget exhausted")
    return y


def generic_trajectory(problem, series, xs, tol=1e-10):
    """rk_trajectory through the integrator above: y at each of ``xs``
    (all positive) from the same seed series and the same start, with
    f(x) from series.evaluate and g(y) from :func:`float_per_call`."""
    targets = [float(x) for x in xs]
    x_start = min(1e-3, min(targets) / 2)
    g = problem.g
    series = series.to_float()
    reached = x_start
    # y'(x_start) = sum k Y(k) x_start^(k-1), by Horner from the top term
    c = series.coeffs
    dy = (len(c) - 1) * c[-1]
    for k in range(len(c) - 2, 0, -1):
        dy = dy * x_start + k * c[k]
    state = (evaluate(series, x_start), dy)
    p, a = float(problem.p), float(problem.a)
    f_poly = problem.f_poly.to_float()

    def rhs(x, state):
        yv, dyv = state
        try:
            gv = float_per_call(g, yv)
        except OverflowError:
            raise KernelDomainError(f"g(y) overflows at y = {yv} (x = {x})") from None
        return (dyv, -(p / x) * dyv - a * evaluate(f_poly, x) * gv)

    values = {}
    for xt in sorted(set(targets)):
        if xt > reached:
            state = _integrate(rhs, reached, state, xt, tol)
            reached = xt
        values[xt] = state[0]
    return [values[xt] for xt in targets]
