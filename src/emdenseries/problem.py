"""Problem model, text parsers, and the built-in problem catalog.

The equations handled here all share the singular second-order shape

    y'' + (p/x) y' + a f(x) g(y) = 0,    y(0) = y0,  y'(0) = 0,

with p > 0, a polynomial f, and a nonlinearity g drawn from the kernel
table.  ``y'(0)`` must vanish: it is what regularity at the singular
point x = 0 forces, and the coefficient recurrence has nowhere to put a
different value.

Problems arrive three ways: built directly as :class:`EmdenProblem`
values, parsed from a flat INI-style text file (see
:func:`parse_problem_file`), or taken from the preset catalog of six
classic cases (Lane-Emden of index m, the isothermal gas sphere, the
sinh and sin variants, and two equations with known closed forms used
as exact benchmarks).

Each preset is one :class:`PresetInfo` row of :data:`PRESET_CATALOG`,
which holds everything known about it: the columns ``presets`` lists,
p and y(0), the parameter it takes, how it builds (a, g), its closed
form and the series the literature quotes for it.  :func:`build_preset`,
:class:`PresetId`, the oracles in :mod:`emdenseries.validation` and the
CLI only look rows up, so adding a preset means adding one row.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from fractions import Fraction

from .expr import (
    Const,
    Exp,
    GExpr,
    Log,
    Power,
    Product,
    Scale,
    Sin,
    Sinh,
    Sum,
    Var,
    _Function,
    validate_expr,
)
from .kernels import KernelDomainError
from .series import Mode, Number, Record, Series, as_float, coerce


class ParseError(ValueError):
    """Syntax or format error, carrying a 1-based position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ", ".join(
            f"{label} {n}" for label, n in (("line", line), ("column", column)) if n is not None
        )
        super().__init__(f"{where}: {message}" if where else message)


class ProblemValidationError(ValueError):
    """The nonlinearity fails a kernel precondition at the initial value."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"problem cannot be transformed: {report}")


class EmdenProblem(Record):
    """Full statement of one singular initial-value problem.

    ``p`` is the coefficient of the singular first-derivative term,
    ``a`` the constant multiplying f(x) g(y), ``f_poly`` the polynomial
    f(x) as a coefficient series, ``g`` the nonlinearity tree, and
    ``order`` the truncation order every computation will use.
    A g with a kernel seed missing at y(0) in the problem's mode raises
    :class:`ProblemValidationError`, so every problem built can be solved.
    """

    p: Number
    a: Number
    f_poly: Series
    g: GExpr
    y0: Number
    dy0: Number
    order: int
    mode: Mode

    def __post_init__(self):
        mode = Mode(self.mode) if isinstance(self.mode, str) else self.mode
        object.__setattr__(self, "mode", mode)
        for name in ("p", "a", "y0", "dy0"):
            object.__setattr__(self, name, coerce(getattr(self, name), mode))
        if self.p <= 0:
            raise ValueError(f"singular-term shape p must be positive, got {self.p}")
        if self.dy0 != 0:
            raise ValueError(
                "y'(0) must be 0: regularity at the singular point forces it"
            )
        if not isinstance(self.order, int) or self.order < 2:
            raise ValueError(f"order must be an integer >= 2, got {self.order!r}")
        if not isinstance(self.g, GExpr):
            raise TypeError(f"g must be an expression tree, got {self.g!r}")
        if self.f_poly.mode is not mode:
            raise ValueError(f"f(x) series is {self.f_poly.mode}, problem is {mode}")
        if self.f_poly.order > self.order:
            raise ValueError(
                f"f(x) degree {self.f_poly.order} exceeds the solve order {self.order}"
            )
        report = validate_expr(self.g, self.y0, mode)
        if not report.ok:
            raise ProblemValidationError(report)


# --- tokenizer shared by the small text grammars ---------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:/\d+(?:\.\d+)?)?)|(?P<name>[A-Za-z_]+)|(?P<op>[-+*^()/]))"
)


class _Token(Record):
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    column: int  # 1-based


def _tokenize(text: str):
    """Token stream for the small grammars.

    A literal like ``3/2`` becomes one numeric token: the nonlinearity
    grammar has no division operator.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            col = len(text) - len(rest) + 1
            raise ParseError(f"unexpected character {rest[0]!r}", column=col)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


def _parse_number_token(tok: _Token) -> Fraction:
    if "/" in tok.text:
        num, den = tok.text.split("/")
        d = Fraction(den)
        if d == 0:
            raise ParseError("zero denominator", column=tok.column)
        return Fraction(num) / d
    return Fraction(tok.text)


class _Cursor:
    """Token cursor shared by the small recursive-descent grammars."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> str | None:
        """Take the next token if it is one of the operators in ``ops``
        and return its text; otherwise take nothing and return None."""
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok.text
        return None

    def sign(self) -> Fraction | None:
        """Take a leading '+' or '-' and return 1 or -1; None if absent."""
        op = self.accept("+-")
        return None if op is None else Fraction(-1 if op == "-" else 1)

    def signs(self):
        """Signs of a sum ``['+'|'-'] term (('+'|'-') term)*``, 1 for an
        unsigned first term; the caller parses each term after its sign."""
        sign = self.sign() or Fraction(1)
        while sign is not None:
            yield sign
            sign = self.sign()

    def number(self, message: str) -> Fraction:
        """Take a numeric token and return its exact value; fail with
        ``message`` if the next token is not a number."""
        if self.peek().kind != "num":
            self.fail(message)
        return _parse_number_token(self.take())

    def expect_op(self, op: str):
        if self.accept(op) is None:
            self.fail(f"expected {op!r}")

    def fail(self, message: str):
        raise ParseError(message, column=self.peek().column)

    def unexpected(self):
        tok = self.peek()
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input")

    def finish(self, value):
        """Return ``value`` if all input is consumed."""
        if self.peek().kind != "end":
            self.unexpected()
        return value


def parse_number(text: str) -> Fraction:
    """Exact value of a numeric literal: integer, decimal, or p/q."""
    cur = _Cursor(text)
    sign = cur.sign() or 1
    tok = cur.take()
    if tok.kind != "num" or cur.peek().kind != "end":
        raise ParseError(f"not a number: {text!r}", column=tok.column)
    return sign * _parse_number_token(tok)


class _ExprParser(_Cursor):
    """Recursive-descent parser for the nonlinearity grammar:

        expr   := ['-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := number | func | 'y' ['^' ['-'] number] | '(' expr ')'
        func   := name '(' linear ')'
        linear := ['-'] linterm (('+'|'-') linterm)*
        linterm:= number ['*' yterm] | yterm
        yterm  := 'y' ['/' number]

    Division appears only inside numeric literals (``3/2``) and in the
    ``y/2`` shorthand for (1/2)*y inside function arguments.
    """

    # function name -> node class, named by the kernel each node class reads
    FUNCTIONS = {cls.kernel[0].names[cls.kernel[1]]: cls for cls in _Function.__subclasses__()}

    def parse(self) -> GExpr:
        return self.finish(self.expr())

    def expr(self) -> GExpr:
        terms = [self.term(sign) for sign in self.signs()]
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self, sign: Fraction) -> GExpr:
        scale = sign
        children = []
        while True:
            factor = self.factor()
            if isinstance(factor, Const):
                scale *= factor.value
            else:
                children.append(factor)
            if self.accept("*") is None:
                break
        if not children:
            return Const(scale)
        body = children[0] if len(children) == 1 else Product(tuple(children))
        return body if scale == 1 else Scale(scale, body)

    def factor(self) -> GExpr:
        tok = self.peek()
        if tok.kind == "num":
            return Const(_parse_number_token(self.take()))
        if self.accept("("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            if tok.text == "y":
                self.take()
                return Power(self.exponent()) if self.accept("^") else Var()
            if tok.text in self.FUNCTIONS:
                return self.func()
            self.fail(f"unknown name {tok.text!r} (functions: {', '.join(self.FUNCTIONS)})")
        if tok.kind == "op" and tok.text == "/":
            self.fail("division is only allowed inside numeric literals")
        self.unexpected()

    def exponent(self):
        sign = -1 if self.accept("-") else 1
        value = sign * self.number("expected a numeric exponent after '^'")
        return int(value) if value.denominator == 1 else value

    def func(self) -> GExpr:
        name_tok = self.take()
        self.expect_op("(")
        alpha, beta = self.linear()
        self.expect_op(")")
        node = self.FUNCTIONS[name_tok.text]
        if node is Log:
            return Log(alpha, beta)
        if beta != 0:
            raise ParseError(
                f"{name_tok.text}(...) takes a pure multiple of y; a constant offset "
                "is only supported inside ln(...)",
                column=name_tok.column,
            )
        return node(alpha)

    def linear(self):
        """Argument of a function: a linear form alpha*y + beta."""
        alpha = beta = Fraction(0)
        for sign in self.signs():
            a, b = self.linterm()
            alpha += sign * a
            beta += sign * b
        return alpha, beta

    def linterm(self):
        tok = self.peek()
        if tok.kind == "num":
            value = _parse_number_token(self.take())
            if self.accept("*"):
                return value * self.yterm(), Fraction(0)
            return Fraction(0), value
        if tok.kind == "name" and tok.text == "y":
            return self.yterm(), Fraction(0)
        self.fail("expected a number or y inside the function argument")

    def yterm(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "name" or tok.text != "y":
            self.fail("expected y")
        self.take()
        if self.accept("/"):
            column = self.peek().column
            d = self.number("expected a number after '/'")
            if d == 0:
                raise ParseError("zero denominator", column=column)
            return Fraction(1) / d
        return Fraction(1)


def parse_expression(text: str) -> GExpr:
    """Parse a nonlinearity like ``18*y + 4*y*ln(y)`` into a tree."""
    return _ExprParser(text).parse()


class _PolyParser(_Cursor):
    """Polynomial in x for the f(x) factor: sums of c*x^n terms."""

    def parse_poly(self):
        coeffs: dict = {}
        for sign in self.signs():
            degree, value = self.poly_term()
            coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * value
        self.finish(None)
        top = max(coeffs) if coeffs else 0
        return [coeffs.get(i, Fraction(0)) for i in range(top + 1)]

    def poly_term(self):
        value, no_x = Fraction(1), "expected a number or x"
        if self.peek().kind == "num":
            value = _parse_number_token(self.take())
            if not self.accept("*"):
                return 0, value
            no_x = "expected x after '*'"
        tok = self.peek()
        if tok.kind != "name" or tok.text != "x":
            self.fail(no_x)
        self.take()
        degree = 1
        if self.accept("^"):
            column = self.peek().column
            d = self.number("expected a numeric power after '^'")
            if d.denominator != 1 or d < 0:
                raise ParseError("powers of x must be nonnegative integers", column=column)
            degree = int(d)
        return degree, value


def parse_polynomial(text: str) -> list:
    """Exact coefficient list of a polynomial in x, e.g. ``1 - 2*x^2``."""
    return _PolyParser(text).parse_poly()


# --- problem files ----------------------------------------------------------

_SECTIONS = {
    "equation": ("p", "a", "f", "g"),
    "initial": ("y0", "dy0"),
    "solve": ("order", "mode"),
}
_DEFAULTS = {("equation", "a"): "1", ("equation", "f"): "1", ("initial", "dy0"): "0"}
_REQUIRED = [(s, k) for s, keys in _SECTIONS.items() for k in keys if (s, k) not in _DEFAULTS]


def parse_problem_file(
    data, order: int | None = None, mode: Mode | None = None
) -> EmdenProblem:
    """Parse the flat INI-style problem format.

    Sections ``[equation]`` (keys p, a, f, g), ``[initial]`` (y0, dy0)
    and ``[solve]`` (order, mode); ``#`` starts a comment; a, f and dy0
    may be omitted (defaults 1, 1, 0).  Accepts bytes (UTF-8) or str.
    ``order`` and ``mode``, when given, replace the file's own; the
    values are still exact here, so a float file can be solved in
    rational mode.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"problem file is not UTF-8: {exc}") from None
    else:
        text = data
    entries: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(
                    f"unknown section [{name}] (expected {', '.join(_SECTIONS)})",
                    line=lineno,
                )
            section = name
            continue
        if section is None:
            raise ParseError("key outside any [section]", line=lineno)
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[section]:
            raise ParseError(f"unknown key {key!r} in [{section}]", line=lineno)
        if (section, key) in entries:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        column = line.index("=") + 2 + (len(value) - len(value.lstrip()))
        entries[(section, key)] = (value.strip(), lineno, column)

    for sk in _REQUIRED:
        if sk not in entries:
            raise ParseError(f"missing required key {sk[1]!r} in [{sk[0]}]")
    for sk, default in _DEFAULTS.items():
        entries.setdefault(sk, (default, None, None))

    def parsed(section, key, fn):
        value, lineno, column = entries[(section, key)]
        try:
            return fn(value)
        except ValueError as exc:
            col = getattr(exc, "column", None)  # set when exc is a ParseError
            raise ParseError(
                f"bad value for {key!r}: {value!r} ({exc})",
                line=lineno,
                column=(column + col - 1) if (col and column) else column,
            ) from None

    mode_text = entries[("solve", "mode")][0].lower()
    try:
        file_mode = Mode(mode_text)
    except ValueError:
        raise ParseError(
            f"mode must be 'rational' or 'float', got {mode_text!r}",
            line=entries[("solve", "mode")][1],
        ) from None
    mode = mode or file_mode

    order_text, order_line, _ = entries[("solve", "order")]
    try:
        file_order = int(order_text)
    except ValueError:
        raise ParseError(f"order must be an integer, got {order_text!r}", line=order_line) from None
    order = file_order if order is None else order

    p = parsed("equation", "p", parse_number)
    a = parsed("equation", "a", parse_number)
    f_coeffs = parsed("equation", "f", parse_polynomial)
    g = parsed("equation", "g", parse_expression)
    y0 = parsed("initial", "y0", parse_number)
    dy0 = parsed("initial", "dy0", parse_number)

    try:
        return EmdenProblem(
            p=p, a=a, f_poly=Series(f_coeffs, mode), g=g, y0=y0, dy0=dy0,
            order=order, mode=mode,
        )
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ParseError(str(exc)) from None


# --- preset catalog ---------------------------------------------------------

def _index_m(name: str, m):
    if m is None:
        raise ValueError(f"{name} needs the index parameter m")
    m = m if isinstance(m, float) else Fraction(m)
    if m < 0:
        raise ValueError(f"{name} index m must be >= 0, got {m}")
    return int(m) if isinstance(m, Fraction) and m.denominator == 1 else m


def _scale_a(name: str, a):
    a = Fraction(1) if a is None else a
    a = a if isinstance(a, float) else Fraction(a)
    if a == 0:
        raise ValueError(f"preset {name!r} needs a != 0")
    return a


# the PresetId parameters, each with the rule that checks and normalises
# its value for a preset that takes it
_PARAMETERS = {"m": _index_m, "a": _scale_a}


def _example5_exact(pid, x: float) -> float:
    d = 1.0 + as_float(pid.a, "parameter a") * x * x
    if d <= 0:
        raise KernelDomainError(f"1 + a*x^2 = {d} is outside the solution's domain")
    return -2.0 * math.log(d)


_LANE_EMDEN_EXACT = {
    0: lambda x: 1.0 - x * x / 6.0,
    1: lambda x: math.sin(x) / x if x != 0 else 1.0,
    5: lambda x: (1.0 + x * x / 3.0) ** -0.5,
}

# the constants the quoted reference series are written in
_E, _S, _C = math.e, math.sin(1), math.cos(1)


class PresetInfo(Record):
    """One catalog entry: the seven columns ``presets`` lists, then what
    :func:`build_preset` and the oracles in :mod:`emdenseries.validation`
    need."""

    name: str
    p: int
    equation: str
    y0: int
    parameters: str
    modes: str
    exact_solution: str
    build: Callable  # PresetId -> (a, g)
    param: str | None = None  # the PresetId field the preset takes
    closed_form: Callable | None = None  # (PresetId, x) -> y(x)
    closed_form_params: tuple | None = None  # values of param it covers; None: all
    reference: tuple | None = None  # quoted series: (k, Y(k)) pairs, floats


PRESET_CATALOG = (
    PresetInfo(
        "lane_emden", 2, "y'' + (2/x)y' + y^m = 0", 1, "m >= 0",
        "rational, float",
        "1 - x^2/6 (m=0); sin(x)/x (m=1); (1+x^2/3)^(-1/2) (m=5)",
        build=lambda pid: (1, Power(pid.m)), param="m",
        closed_form=lambda pid, x: _LANE_EMDEN_EXACT[pid.m](x),
        closed_form_params=tuple(_LANE_EMDEN_EXACT),
    ),
    PresetInfo(
        "isothermal", 2, "y'' + (2/x)y' + e^y = 0", 0, "-", "rational, float", "-",
        build=lambda _: (1, Exp(Fraction(1))),
        # Reference series as quoted in the decomposition/homotopy literature
        # (Liao 2003, Ramos, Wazwaz).
        #
        # Note: the exact rational recurrence gives -629/224532000 at x^10, not
        # the -4087/1796256000 quoted below.  The quoted value is kept verbatim
        # so a comparison surfaces the difference instead of hiding it.
        reference=(
            (2, -1/6),
            (4, 1/120),
            (6, -1/1890),
            (8, 61/1632960),
            (10, -4087/1796256000),
        ),
    ),
    PresetInfo(
        "sinh_case", 2, "y'' + (2/x)y' + sinh(y) = 0", 1, "-", "float", "-",
        build=lambda _: (1, Sinh(Fraction(1))),
        # Reference series as quoted from Wazwaz's Adomian-decomposition solution.
        #
        # Note: the quoted x^2 coefficient is -(e^2+1)/(12*e) = -cosh(1)/6, but the
        # recurrence (and the quoted x^4 term, which equals sinh(1)cosh(1)/120)
        # give -(e^2-1)/(12*e) = -sinh(1)/6.  The quoted x^6 and x^8 terms carry
        # the same kind of interior sign flips (exact expansion gives
        # -(2e^6-3e^4+3e^2-2)/(30240e^3) and (61e^8-104e^6+104e^2-61)/(26127360e^4));
        # the x^4 and x^10 terms are exact.  All quoted values are kept verbatim so
        # a comparison flags the differences instead of hiding them.
        reference=(
            (0, 1),
            (2, -(_E**2+1)/(12*_E)),
            (4, (_E**4-1)/(480*_E**2)),
            (6, -(2*_E**6+3*_E**4+3*_E**2+2)/(30240*_E**3)),
            (8, (61*_E**8+104*_E**6-104*_E**2-61)/(26127360*_E**4)),
            (10, -(629*_E**10-1319*_E**8+902*_E**6-902*_E**4+1319*_E**2-629)/(7185024000*_E**5)),
        ),
    ),
    PresetInfo(
        "sin_case", 2, "y'' + (2/x)y' + sin(y) = 0", 1, "-", "float", "-",
        build=lambda _: (1, Sin(Fraction(1))),
        # Reference series as quoted from Wazwaz's Adomian-decomposition solution,
        # written in terms of k1 = sin(1) = _S and k2 = cos(1) = _C.
        #
        # Note: the x^10 term circulates with the denominator 8988128000 under
        # k1^2*k2^2; that value is a misprint (an inserted digit).  An exact
        # expansion of the solution gives 898128000, which also makes the term
        # consistent with the other two x^10 denominators; the corrected value is
        # stored here.
        reference=(
            (0, 1),
            (2, -_S/6),
            (4, _S*_C/120),
            (6, _S*(_S**2/3024 - _C**2/5040)),
            (8, _S*_C*(-113*_S**2/3265920 + _C**2/362880)),
            (10, _S*(1781*_S**2*_C**2/898128000 - _C**4/39916800 - 19*_S**4/23950080)),
        ),
    ),
    PresetInfo(
        "example5", 5, "y'' + (5/x)y' + 8a(e^y + 2e^(y/2)) = 0", 0, "a != 0",
        "rational, float", "-2*ln(1 + a*x^2)",
        build=lambda pid: (
            8 * pid.a, Sum((Exp(Fraction(1)), Scale(Fraction(2), Exp(Fraction(1, 2)))))),
        param="a", closed_form=_example5_exact,
    ),
    PresetInfo(
        "example6", 8, "y'' + (8/x)y' + a(18y + 4y*ln(y)) = 0", 1, "a != 0",
        "rational, float", "exp(-a*x^2)",
        # 18ay = -4ay ln y rewritten with everything on the left
        build=lambda pid: (pid.a, Sum((
            Scale(Fraction(18), Var()),
            Scale(Fraction(4), Product((Var(), Log(Fraction(1), Fraction(0))))),
        ))),
        param="a", closed_form=lambda pid, x: math.exp(-as_float(pid.a, "parameter a") * x * x),
    ),
)

PRESET_NAMES = tuple(info.name for info in PRESET_CATALOG)
_PRESETS = {info.name: info for info in PRESET_CATALOG}


def _preset_info(name: str) -> PresetInfo:
    """The catalog row called ``name``; ValueError if there is none."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})")
    return _PRESETS[name]


class PresetId(Record):
    """Identifier of a catalog problem plus its free parameters.

    ``m`` is the polytropic index of ``lane_emden``; ``a`` scales
    ``example5``/``example6``.  Other presets take no parameters.
    """

    name: str
    m: object = None
    a: object = None

    def __post_init__(self):
        taken = _preset_info(self.name).param
        for key, normalise in _PARAMETERS.items():
            if key == taken:
                object.__setattr__(self, key, normalise(self.name, getattr(self, key)))
            elif getattr(self, key) is not None:
                raise ValueError(f"preset {self.name!r} takes no parameter {key}")

    @classmethod
    def from_params(cls, name: str, params: dict) -> "PresetId":
        bad = set(params) - set(_PARAMETERS)
        if bad:
            raise ValueError(f"unknown preset parameter(s): {', '.join(sorted(bad))}")
        return cls(name, **params)


def build_preset(pid: PresetId, order: int, mode: Mode) -> EmdenProblem:
    """Instantiate a catalog problem at the given order and mode."""
    info = _preset_info(pid.name)
    a, g = info.build(pid)
    return EmdenProblem(
        p=info.p, a=a, f_poly=Series([1], mode), g=g, y0=info.y0, dy0=0, order=order, mode=mode
    )
