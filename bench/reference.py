"""Reference solutions built without the emdenseries package.

Everything here is independent of the code under test: its own problem
model, its own text rendering, closed-form Taylor coefficients, its own
streaming transforms of g(y) (in exact ``Fraction`` or high-precision
``Decimal`` arithmetic) and a fixed-step RK4 integrator.  The benchmark
checks the program's printed output against these values.

A problem is  y'' + (p/x) y' + a f(x) g(y) = 0,  y(0) = y0, y'(0) = 0.
The nonlinearity g is a tuple tree:

    ("y",)  ("const", c)  ("scale", c, child)  ("sum", children)
    ("prod", children)  ("pow", m)  ("exp", al)  ("log", al, be)
    ("sin", al)  ("cos", al)  ("sinh", al)  ("cosh", al)

where ("log", al, be) is ln(al*y + be) and the others apply to al*y.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from operator import mul
from decimal import Decimal
from fractions import Fraction

DECIMAL_PREC = 70


@dataclass(frozen=True)
class Problem:
    p: Fraction
    a: Fraction
    f: tuple  # coefficients of f(x), lowest power first
    g: tuple
    y0: Fraction

    @property
    def even(self) -> bool:
        """True when every odd Taylor coefficient vanishes (f even)."""
        return all(c == 0 for c in self.f[1::2])


# --- text in the program's input grammar -----------------------------------

def num_text(v: Fraction) -> str:
    return str(Fraction(v))


def _arg_text(al, be=None) -> str:
    s = "y" if al == 1 else f"{num_text(al)}*y"
    if be is not None and be != 0:
        s += f" + {num_text(be)}" if be > 0 else f" - {num_text(-be)}"
    return s


def expr_text(node) -> str:
    kind = node[0]
    if kind == "y":
        return "y"
    if kind == "const":
        return num_text(node[1])
    if kind == "scale":
        return f"{num_text(node[1])}*({expr_text(node[2])})"
    if kind == "sum":
        return " + ".join(f"({expr_text(c)})" for c in node[1])
    if kind == "prod":
        return "*".join(f"({expr_text(c)})" for c in node[1])
    if kind == "pow":
        return f"y^{num_text(node[1])}"
    if kind == "log":
        return f"ln({_arg_text(node[1], node[2])})"
    return f"{kind}({_arg_text(node[1])})"


def poly_text(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = num_text(abs(c))
        body = mag if i == 0 else (f"{mag}*x" if i == 1 else f"{mag}*x^{i}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def problem_file(pb: Problem, order: int, mode: str) -> str:
    """The problem in the program's INI-style ``.efp`` format."""
    return (
        "[equation]\n"
        f"p = {num_text(pb.p)}\n"
        f"a = {num_text(pb.a)}\n"
        f"f = {poly_text(pb.f)}\n"
        f"g = {expr_text(pb.g)}\n"
        "\n[initial]\n"
        f"y0 = {num_text(pb.y0)}\n"
        "dy0 = 0\n"
        "\n[solve]\n"
        f"order = {order}\n"
        f"mode = {mode}\n"
    )


# --- catalog problems, restated from their published equations -------------

ONE = Fraction(1)


def preset_problem(name: str, m=None, a=None) -> Problem:
    f1 = (ONE,)
    if name == "lane_emden":
        return Problem(Fraction(2), ONE, f1, ("pow", Fraction(m)), ONE)
    if name == "isothermal":
        return Problem(Fraction(2), ONE, f1, ("exp", ONE), Fraction(0))
    if name == "sinh_case":
        return Problem(Fraction(2), ONE, f1, ("sinh", ONE), ONE)
    if name == "sin_case":
        return Problem(Fraction(2), ONE, f1, ("sin", ONE), ONE)
    if name == "example5":
        g = ("sum", (("exp", ONE), ("scale", Fraction(2), ("exp", Fraction(1, 2)))))
        return Problem(Fraction(5), 8 * Fraction(a), f1, g, Fraction(0))
    if name == "example6":
        g = ("sum", (("scale", Fraction(18), ("y",)),
                     ("scale", Fraction(4), ("prod", (("y",), ("log", ONE, Fraction(0)))))))
        return Problem(Fraction(8), Fraction(a), f1, g, ONE)
    raise ValueError(f"unknown preset {name!r}")


def closed_form_coeffs(name: str, m, a, order: int):
    """Exact Taylor coefficients where the solution has a closed form,
    else None: lane_emden m=0,1,5; example5 (-2 ln(1+a x^2)); example6
    (exp(-a x^2))."""
    out = [Fraction(0)] * (order + 1)
    if name == "lane_emden" and Fraction(m) in (0, 1, 5):
        m = Fraction(m)
        for j in range(order // 2 + 1):
            if m == 0:
                c = ONE if j == 0 else (Fraction(-1, 6) if j == 1 else Fraction(0))
            elif m == 1:
                c = Fraction((-1) ** j, math.factorial(2 * j + 1))
            else:
                # (1 + x^2/3)^(-1/2) = sum binom(-1/2, j) (x^2/3)^j
                c = Fraction(math.comb(2 * j, j) * (-1) ** j, 4 ** j * 3 ** j)
            out[2 * j] = c
        return out
    if name == "example5":
        a = Fraction(a)
        for j in range(1, order // 2 + 1):
            out[2 * j] = Fraction(2 * (-1) ** j, j) * a ** j
        return out
    if name == "example6":
        a = Fraction(a)
        for j in range(order // 2 + 1):
            out[2 * j] = (-a) ** j / math.factorial(j)
        return out
    return None


def closed_form_value(name: str, m, a, x: float):
    """Closed-form solution value in floats, or None."""
    if name == "lane_emden" and Fraction(m) in (0, 1, 5):
        m = Fraction(m)
        if m == 0:
            return 1.0 - x * x / 6.0
        if m == 1:
            return math.sin(x) / x if x else 1.0
        return 1.0 / math.sqrt(1.0 + x * x / 3.0)
    if name == "example5":
        return -2.0 * math.log1p(float(a) * x * x)
    if name == "example6":
        return math.exp(-float(a) * x * x)
    return None


# --- streaming transform of g and the coefficient recurrence ---------------

class _Exact:
    """Fraction arithmetic; seeds must be rational."""

    def conv(self, v):
        return Fraction(v)

    def exp(self, s):
        if s != 0:
            raise ValueError("irrational seed in exact arithmetic")
        return ONE

    def log(self, d):
        if d != 1:
            raise ValueError("irrational seed in exact arithmetic")
        return Fraction(0)

    def sincos(self, s):
        if s != 0:
            raise ValueError("irrational seed in exact arithmetic")
        return Fraction(0), ONE

    def sinhcosh(self, s):
        return self.sincos(s)

    def power(self, y0, m):
        if m.denominator == 1:
            return y0 ** int(m)
        if y0 == 1:
            return ONE
        raise ValueError("irrational seed in exact arithmetic")


class _Dec:
    """Decimal arithmetic at the current context precision."""

    def conv(self, v):
        return _dec(v)

    def exp(self, s):
        return s.exp()

    def log(self, d):
        if d <= 0:
            raise ValueError("ln of a nonpositive seed")
        return d.ln()

    def sincos(self, s):
        # Taylor series; arguments stay small (|s| < 10), so little is lost
        tiny = Decimal(10) ** (-decimal.getcontext().prec - 5)
        sin_s, cos_s = Decimal(0), Decimal(0)
        term, k = Decimal(1), 0  # term = s^k / k!
        while k < 4 or abs(term) > tiny:
            signed = -term if k % 4 in (2, 3) else term
            if k % 2:
                sin_s += signed
            else:
                cos_s += signed
            k += 1
            term = term * s / k
        return sin_s, cos_s

    def sinhcosh(self, s):
        e = s.exp()
        return (e - 1 / e) / 2, (e + 1 / e) / 2

    def power(self, y0, m):
        return (self.conv(m) * y0.ln()).exp()


def _leaves(node, out):
    kind = node[0]
    if kind == "scale":
        _leaves(node[2], out)
    elif kind in ("sum", "prod"):
        for c in node[1]:
            _leaves(c, out)
    out.append(node)
    return out


def _dot(a, b, k, step, zero):
    """sum of a_j b_{k-j} over j = step, 2 step, ... <= k."""
    if k < step:
        return zero
    return sum(map(mul, a[step:k + 1:step], b[k - step::-step]), zero)


def _conv(a, b, k, step, zero):
    """sum of a_j b_{k-j} over j = 0, step, ... <= k."""
    return sum(map(mul, a[0:k + 1:step], b[k::-step]), zero)


class _Transform:
    """Coefficients of g(y(x)) grown one index at a time from Y(0..k).

    Each nonlinear leaf follows from differentiating it once, e.g.
    E = exp(al*y) gives E' = al y' E, so k E_k = al sum_j j Y_j E_{k-j}.
    For an even solution every odd coefficient vanishes and is skipped.
    """

    def __init__(self, g, ar, even):
        self.ar = ar
        self.g = g
        self.step = 2 if even else 1
        self.zero = ar.conv(0)
        self.nodes = []
        seen = set()
        for node in _leaves(g, []):
            if id(node) not in seen:
                seen.add(id(node))
                self.nodes.append(node)
        self.vals = {id(n): [] for n in self.nodes}
        self.aux = {}  # per leaf: derivative-weighted values, partners, powers
        self.dy = []  # j * Y_j

    def advance(self, y, k):
        """Append index k everywhere from Y(0..k); return G(k)."""
        self.dy.append(k * y[k])
        skip = k % self.step != 0
        for node in self.nodes:
            self.vals[id(node)].append(self.zero if skip else self._value(node, k, y))
        return self.vals[id(self.g)][k]

    def _value(self, node, k, y):
        ar, zero = self.ar, self.zero
        kind = node[0]
        if kind == "y":
            return y[k]
        if kind == "const":
            return ar.conv(node[1]) if k == 0 else zero
        if kind == "scale":
            return ar.conv(node[1]) * self.vals[id(node[2])][k]
        if kind == "sum":
            return sum((self.vals[id(c)][k] for c in node[1]), zero)
        if kind == "prod":
            # running partial products, one per extra factor
            parts = self.aux.setdefault(id(node), [[] for _ in node[1][1:]])
            left = self.vals[id(node[1][0])]
            for part, child in zip(parts, node[1][1:]):
                part.extend([zero] * (k - len(part)))
                part.append(_conv(left, self.vals[id(child)], k, self.step, zero))
                left = part
            return left[k]
        return self._leaf(node, k, y)

    def _leaf(self, node, k, y):
        ar, zero, step, dy = self.ar, self.zero, self.step, self.dy
        kind = node[0]
        out = self.vals[id(node)]
        if kind == "pow":
            m = Fraction(node[1])
            if y[0] == 0:
                # a start at y = 0 (m a nonnegative integer): repeated products
                powers = self.aux.setdefault(id(node), [[] for _ in range(int(m) - 1)])
                if m == 0:
                    return ar.conv(1 if k == 0 else 0)
                prev = y
                for series in powers:
                    series.extend([zero] * (k - len(series)))
                    series.append(_conv(prev, y, k, step, zero))
                    prev = series
                return prev[k]
            if k == 0:
                return ar.power(y[0], m)
            # y P' = m y' P  =>  k Y0 P_k = sum_j ((m+1) j - k) Y_j P_{k-j}
            acc = ar.conv(m + 1) * _dot(dy, out, k, step, zero) - k * _dot(y, out, k, step, zero)
            return acc / (k * y[0])
        al = ar.conv(node[1])
        if kind == "exp":
            if k == 0:
                return ar.exp(al * y[0])
            return al * _dot(dy, out, k, step, zero) / k
        if kind == "log":
            d = al * y[0] + ar.conv(node[2])
            dl = self.aux.setdefault(id(node), [])  # i * L_i
            if k == 0:
                value = ar.log(d)
            else:
                # (al y + be) L' = al y'  =>  k d L_k = al (k Y_k - sum_j Y_j (k-j) L_{k-j})
                value = al * (k * y[k] - _dot(y, dl, k, step, zero)) / (k * d)
            dl.extend([zero] * (k - len(dl)))
            dl.append(k * value)
            return value
        # sin/cos and sinh/cosh pairs: S' = al y' C, C' = -+ al y' S
        hyper = kind in ("sinh", "cosh")
        first = kind in ("sin", "sinh")
        partner = self.aux.setdefault(id(node), [])
        if k == 0:
            s, c = (ar.sinhcosh if hyper else ar.sincos)(al * y[0])
        else:
            partner.extend([zero] * (k - len(partner)))
            sines, cosines = (out, partner) if first else (partner, out)
            s = al * _dot(dy, cosines, k, step, zero) / k
            c = (al if hyper else -al) * _dot(dy, sines, k, step, zero) / k
        mine, other = (s, c) if first else (c, s)
        partner.append(other)
        return mine


CERTIFIED_DIGITS = 20
# working precisions tried in turn; a result is kept once it agrees with
# the previous one to CERTIFIED_DIGITS on every coefficient
PRECISIONS = (34, 44, 88, 176, 352, 704, 1408)


def series_coeffs(pb: Problem, order: int, exact: bool):
    """Taylor coefficients Y(0..order) of the solution.

    Multiplying the equation by x and matching x^k gives
        (k+1)(k+p) Y_{k+1} = -a sum_i f_i G_{k-1-i}.
    ``exact`` selects Fraction arithmetic.  Otherwise the Decimal
    recurrence runs at rising precisions until two successive runs agree
    to CERTIFIED_DIGITS on every coefficient: some recurrences amplify
    rounding by dozens of orders of magnitude at high order.
    """
    if exact:
        return _series(pb, order, _Exact())
    prev = _decimal_series(pb, order, PRECISIONS[0])
    for prec in PRECISIONS[1:]:
        cur = _decimal_series(pb, order, prec)
        if all(_agree(a, b, local_scale(cur, k)) for k, (a, b) in enumerate(zip(prev, cur))):
            return cur
        prev = cur
    raise ArithmeticError("reference recurrence does not settle")


def _decimal_series(pb, order, prec):
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        ctx.traps[decimal.Overflow] = True
        return _series(pb, order, _Dec())


def _agree(a: Decimal, b: Decimal, scale: Decimal) -> bool:
    if a == b:
        return True
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_PREC
        return abs(a - b) <= scale * Decimal(10) ** -CERTIFIED_DIGITS


def local_scale(coeffs, k: int, width: int = 2):
    """Largest |coefficient| within ``width`` of index k: the magnitude a
    coefficient's error is measured against, so that a coefficient that
    vanishes by cancellation is judged against its neighbours."""
    return max(abs(c) for c in coeffs[max(0, k - width): k + width + 1])


def _series(pb, order, ar):
    y = [ar.conv(pb.y0)]
    tr = _Transform(pb.g, ar, pb.even)
    g = []
    f = [ar.conv(c) for c in pb.f]
    a = ar.conv(pb.a)
    p = ar.conv(pb.p)
    zero = ar.conv(0)
    for k in range(order):
        # Y_{k+1} needs G_0..G_{k-1}, and G_{k-1} needs Y_0..Y_{k-1}
        if k >= 1:
            g.append(tr.advance(y, k - 1))
        acc = sum((fi * g[k - 1 - i] for i, fi in enumerate(f) if fi and k - 1 - i >= 0), zero)
        y.append(-a * acc / ((k + 1) * (k + p)))
    return y


def radius_estimate(coeffs) -> float:
    """Root-test estimate of the radius of convergence from the top half
    of the coefficients (inf when they all vanish)."""
    n = len(coeffs) - 1
    best = -math.inf
    for k in range(max(1, n // 2), n + 1):
        c = abs(coeffs[k])
        if c:
            log_c = float(c.ln()) if isinstance(c, Decimal) else (
                math.log(c.numerator) - math.log(c.denominator))
            best = max(best, log_c / k)
    return math.inf if best == -math.inf else math.exp(-best)


def horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_value_and_scale(coeffs, x: float):
    """Value of the polynomial at float x and sum |c_k| |x|^k, both as
    Decimals at DECIMAL_PREC (x is taken exactly)."""
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_PREC
        xd = Decimal(x)
        ax = abs(xd)
        val = Decimal(0)
        scale = Decimal(0)
        for c in reversed(coeffs):
            cd = c if isinstance(c, Decimal) else _dec(c)
            val = val * xd + cd
            scale = scale * ax + abs(cd)
        return val, scale


def correct_digits(got: float, ref, scale=None) -> float:
    """Correct significant digits of ``got``, capped at 17.

    The error is taken relative to ``scale`` when given (for a
    polynomial value: sum |c_k x^k|), else relative to |ref|; a zero
    reference is met only by an exact zero.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_PREC
        if not math.isfinite(got):
            return 0.0
        err = abs(Decimal(got) - _dec(ref))
        base = abs(_dec(ref if scale is None else scale))
        if err == 0:
            return 17.0
        if base == 0:
            return 0.0
        return max(0.0, min(17.0, -float((err / base).log10())))


def _dec(v):
    """A Fraction (or int) as a Decimal at the current precision."""
    if isinstance(v, Decimal):
        return v
    v = Fraction(v)
    return Decimal(v.numerator) / Decimal(v.denominator)


# --- off-origin integration -------------------------------------------------

def eval_tree(node, y: float) -> float:
    kind = node[0]
    if kind == "y":
        return y
    if kind == "const":
        return float(node[1])
    if kind == "scale":
        return float(node[1]) * eval_tree(node[2], y)
    if kind == "sum":
        return math.fsum(eval_tree(c, y) for c in node[1])
    if kind == "prod":
        out = 1.0
        for c in node[1]:
            out *= eval_tree(c, y)
        return out
    if kind == "pow":
        return y ** float(node[1])
    if kind == "log":
        return math.log(float(node[1]) * y + float(node[2]))
    fn = {"exp": math.exp, "sin": math.sin, "cos": math.cos,
          "sinh": math.sinh, "cosh": math.cosh}[kind]
    return fn(float(node[1]) * y)


def trajectory(pb: Problem, coeffs, x_points, x_seed=0.05, steps_per_unit=4000):
    """Solution values at the sorted points ``x_points`` (all >= x_seed or
    zero) by classical RK4 with a fixed step, seeded at ``x_seed`` from
    the Taylor coefficients ``coeffs``.  One pass covers every point."""
    fs = [float(c) for c in coeffs]
    y = sum(c * x_seed ** k for k, c in enumerate(fs))
    dy = sum(k * c * x_seed ** (k - 1) for k, c in enumerate(fs) if k)
    p, a = float(pb.p), float(pb.a)
    fpoly = [float(c) for c in pb.f]
    g = pb.g

    def rhs(x, yv, dv):
        fx = 0.0
        for c in reversed(fpoly):
            fx = fx * x + c
        return dv, -(p / x) * dv - a * fx * eval_tree(g, yv)

    out = {}
    x = x_seed
    h_max = 1.0 / steps_per_unit
    for target in sorted(set(x_points)):
        if target == 0:
            out[target] = float(pb.y0)
            continue
        if target < x_seed:
            out[target] = sum(c * target ** k for k, c in enumerate(fs))
            continue
        while x < target:
            h = min(h_max, target - x)
            k1 = rhs(x, y, dy)
            k2 = rhs(x + h / 2, y + h / 2 * k1[0], dy + h / 2 * k1[1])
            k3 = rhs(x + h / 2, y + h / 2 * k2[0], dy + h / 2 * k2[1])
            k4 = rhs(x + h, y + h * k3[0], dy + h * k3[1])
            y += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            dy += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            x += h
            if target - x < 1e-12:
                x = target
        out[target] = y
    return out
