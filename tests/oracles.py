"""Independent oracles the tests check the library against.

Everything here recomputes expected values by a route different from the
code under test: scalar Taylor coefficients of an outer function
combined with explicit polynomial powers, plain binomial series, a
direct second-order coefficient recurrence, the exact recurrence of any
problem over plain lists of Fractions, g(y) by a walk of the tree,
and the generic n-component Dormand-Prince integrator with its continuous
extension.  Convolutions are written out locally so these helpers share
no code path with the series module; only the integrator's driver
evaluates f, and y at the start point, through the library, as the code
under test does.
:func:`drive` is not an oracle: it runs a kernel under test over a whole
coefficient list.  :func:`stream_per_node` drives the kernels so, and
checks only how ExprState composes them.
"""

from fractions import Fraction
import functools
import math
import operator

from emdenseries import (
    Const,
    KernelDomainError,
    Log,
    Mode,
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


def stream_per_node(e, ys, mode):
    """G(0..n) of g over Y(0..n) (``ys``), one node at a time and with no list
    shared between nodes: each kernel leaf drives a fresh kernel, and each
    sum, and each binary product of an n-ary product's left-to-right chain,
    is a loop from the mode's zero.  Raises what the first failing kernel
    leaf, in a walk of the tree, raises."""
    number = Fraction if mode is Mode.RATIONAL else float
    if e.kernel is not None:
        cls, i = e.kernel
        out = drive(cls(*e._values(), mode), ys)
        return out[i] if cls.paired else out
    if isinstance(e, Var):
        return [number(v) for v in ys]
    if isinstance(e, Const):
        return [number(e.value)] + [number(0)] * (len(ys) - 1)
    if isinstance(e, Scale):
        return [number(e.factor) * v for v in stream_per_node(e.child, ys, mode)]
    parts = [stream_per_node(c, ys, mode) for c in e.children]
    if isinstance(e, Sum):
        out = []
        for k in range(len(ys)):
            acc = number(0)
            for part in parts:
                acc += part[k]
            out.append(acc)
        return out
    assert isinstance(e, Product)
    out = parts[0]
    for right in parts[1:]:
        left, out = out, []
        for k in range(len(ys)):
            acc = number(0)
            for r in range(k + 1):
                acc += left[r] * right[k - r]
            out.append(acc)
    return out


def fraction_dot(xs, ys, start, weights=None):
    """start + sum of w*x*y over the common prefix, one Fraction at a time."""
    pairs = list(zip(xs, ys))
    ws = [1] * len(pairs) if weights is None else list(weights)[: len(pairs)]
    return Fraction(start) + sum((Fraction(w) * x * y for w, (x, y) in zip(ws, pairs)), Fraction(0))


def weighted_dot(xs, ys, start, weights=None):
    """start + (w*x)*y + ... (x*y without weights), left to right."""
    acc = start
    for i, (x, y) in enumerate(zip(xs, ys)):
        acc += x * y if weights is None else weights[i] * x * y
    return acc


def weighted_kernel(kind, params, ys):
    """F(0..n) of a kernel over ``ys`` (the pair (F, G) for "sincos" and
    "sinhcosh") by the recurrences in the kernels' docstrings, each
    convolution a :func:`weighted_dot` over Y or F with the weights r, or
    (m+1) r - k for y^m, formed per term.  The kernels fold those weights
    into lists they keep; in float mode they must match this bit for bit.
    "power" is float only: y^m by repeated products where the kernel takes
    them (integer m >= 0 at Y(0) == 0, or m <= 1), else the recurrence."""
    exact = isinstance(ys[0], Fraction)
    zero, n, y0 = (Fraction(0) if exact else 0.0), len(ys), ys[0]
    f = []
    if kind == "power":
        m = float(params["m"])
        if m.is_integer() and m >= 0 and (y0 == 0 or m <= 1):
            power = list(ys)
            for j in range(2, int(m) + 1):
                power = [y0**j] + [weighted_dot(power[: k + 1], ys[k::-1], 0.0) for k in range(1, n)]
            return power if m else [y0**0] + [0.0] * (n - 1)
        f = [y0 ** m]
        for k in range(1, n):
            weights = [(m + 1) * r - k for r in range(1, k + 1)]
            f.append(weighted_dot(ys[1 : k + 1], f[::-1], 0.0, weights) / (k * y0))
    elif kind == "exp":
        alpha = params["alpha"]
        f = [Fraction(1) if exact else math.exp(alpha * y0)]
        for k in range(1, n):
            f.append(alpha * weighted_dot(ys[1 : k + 1], f[::-1], zero, range(1, k + 1)) / k)
    elif kind == "log":
        alpha = params["alpha"]
        d = alpha * y0 + params["beta"]
        f = [Fraction(0) if exact else math.log(d)]
        for k in range(1, n):
            acc = weighted_dot(f[1:], ys[k - 1 : 0 : -1], zero, range(1, k))
            f.append(alpha * (ys[k] - acc / k) / d)
    else:  # the sin/cos or sinh/cosh pair, float
        alpha, sign = params["alpha"], -1 if kind == "sincos" else 1
        fns = (math.sin, math.cos) if kind == "sincos" else (math.sinh, math.cosh)
        f, g, dy = [fns[0](alpha * y0)], [fns[1](alpha * y0)], []
        for k in range(1, n):
            dy.append(k * ys[k])
            w = dy[::-1]
            fk = alpha * weighted_dot(w, g, 0.0) / k
            g.append(sign * alpha * weighted_dot(w, f, 0.0) / k)
            f.append(fk)
        return f, g
    return f


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
        else:  # m = P/Q at a y0 with an exact Q-th root: y0**(m-j) = root**(P-Qj)
            q = m.denominator
            root = Fraction(_floor_root(Fraction(y0).numerator, q), _floor_root(Fraction(y0).denominator, q))
            assert root**q == y0, "exact non-integer powers need an exact root of y0"
            out.append(b * root ** (m.numerator - q * j))
    return out


def _floor_root(n, q):
    """The largest integer r >= 0 with r**q <= n, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // q + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**q <= n else (lo, mid - 1)
    return lo


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


def exact_tree(e, ys):
    """G(0..n) of g over the Fractions ``ys`` = Y(0..n) by a walk of the tree
    over plain lists: each kernel leaf by :func:`compose_fn`, sums and scalar
    multiples entry by entry, products by :func:`conv`."""
    n = len(ys) - 1
    if isinstance(e, Var):
        return list(ys)
    if isinstance(e, Const):
        return [Fraction(e.value)] + [Fraction(0)] * n
    if isinstance(e, Scale):
        return [e.factor * v for v in exact_tree(e.child, ys)]
    if isinstance(e, (Sum, Product)):
        parts = [exact_tree(c, ys) for c in e.children]
        if isinstance(e, Sum):
            return [sum(column, Fraction(0)) for column in zip(*parts)]
        return functools.reduce(lambda left, right: conv(left, right, n), parts)
    params = {"m": e.exponent} if isinstance(e, Power) else dict(zip(("alpha", "beta"), e._values()))
    return compose_fn(type(e).__name__.lower(), params, ys, n)


def plain_solve(problem):
    """Y(0..N) of an exact problem by its x-multiplied recurrence, every step
    in x, over plain lists of Fractions:

        Y(k+1) = -a / ((k+1)(k+p)) * sum_{r=1..k} f(r-1) G(k-r),

    with G(0..k-1) recomputed by :func:`exact_tree` over Y(0..k-1) at each
    step."""
    a, p = Fraction(problem.a), Fraction(problem.p)
    f = [Fraction(c) for c in problem.f_poly.coeffs]
    ys = [Fraction(problem.y0), Fraction(problem.dy0)]
    for k in range(1, problem.order):
        gs = exact_tree(problem.g, ys[:k])
        total = sum((f[r - 1] * gs[k - r] for r in range(1, min(k, len(f)) + 1)), Fraction(0))
        ys.append(-a * total / ((k + 1) * (k + p)))
    return ys[: problem.order + 1]


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


# The generic n-component integrator, the reference that rk_trajectory's
# two-float step and its dense output must match bit for bit.

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
# The continuous extension's stage weights d1..d7 (Hairer, Norsett & Wanner,
# Solving ODEs I, II.6; the dopri5 code's contd5), each an exact Fraction
# rounded to a float once.
_DP_D = tuple(float(Fraction(n, d)) for n, d in (
    (-12715105075, 11282082432), (0, 1), (87487479700, 32700410799),
    (-10690763975, 1880347072), (701980252875, 199316789632),
    (-1453857185, 822651844), (69997945, 29380423),
))


def _dopri_step(f, x, y, h):
    """One step: the fifth-order values, the error estimates and the seven stages."""
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
    return y5, err, ks


def _dense_value(y, ynew, ks, h, t):
    """Every component at x + t h inside an accepted step of size h from y to
    ynew with stages ks: the cubic Hermite interpolant of the two ends and
    their slopes, plus h times the d-weighted stage sum, each term added left
    to right from the first nonzero weight."""
    out = []
    for c in range(len(y)):
        rise = ynew[c] - y[c]
        left = h * ks[0][c] - rise
        right = rise - h * ks[6][c] - left
        extra = h * functools.reduce(operator.add, [d * k[c] for d, k in zip(_DP_D, ks) if d])
        out.append(y[c] + t * (rise + (1 - t) * (left + t * (right + (1 - t) * extra))))
    return out


def _integrate(f, x0, y0, stops, tol):
    """Adaptive integration of y' = f(x, y) from x0 to the last of the
    increasing ``stops`` (all past x0), local error <= tol; the state at each
    stop, the end of an accepted step taking its fifth-order value and any
    other stop the step's continuous extension."""
    x, y, x1 = x0, list(y0), stops[-1]
    span = x1 - x0
    h = min(1e-2, span / 10)
    steps, pending, out = 0, list(stops), []
    while x < x1:
        last = x + h > x1
        if last:
            h = x1 - x
        ynew, err, ks = _dopri_step(f, x, y, h)
        norm = 0.0
        for c in range(len(y)):
            scale = tol + tol * max(abs(y[c]), abs(ynew[c]))
            norm = max(norm, abs(err[c]) / scale)
        if norm <= 1.0:
            # x + (x1 - x) can round short of x1
            xnew = x1 if last else x + h
            while pending and pending[0] <= xnew:
                s = pending.pop(0)
                out.append(ynew if s == xnew else _dense_value(y, ynew, ks, h, (s - x) / h))
            x, y = xnew, ynew
            factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm**-0.2))
        else:
            factor = max(0.2, 0.9 * norm**-0.2)
        h *= factor
        if x < x1 and h < 1e-14 * max(abs(x), span):
            raise StepSizeUnderflowError(f"step size underflow at x = {x}")
        steps += 1
        if steps > 1_000_000:
            raise StepSizeUnderflowError("step budget exhausted")
    return out


def generic_trajectory(problem, series, xs, tol=1e-10):
    """rk_trajectory through the integrator above, one pass to the largest
    point: y at each of ``xs`` (all positive) from the same seed series and
    the same start, with f(x) from series.evaluate and g(y) from
    :func:`float_per_call`."""
    targets = [float(x) for x in xs]
    x_start = min(1e-3, min(targets) / 2)
    g = problem.g
    series = series.to_float()
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

    stops = sorted(set(targets))
    values = {xt: state[0] for xt, state in zip(stops, _integrate(rhs, x_start, state, stops, tol))}
    return [values[xt] for xt in targets]
