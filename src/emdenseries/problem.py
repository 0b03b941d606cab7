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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .expr import (
    Const,
    Cos,
    Cosh,
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
)
from .series import Mode, Number, Series, coerce


class ParseError(ValueError):
    """Syntax or format error, carrying a 1-based position."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
        if column is not None:
            where = f"{where}, column {column}" if where else f"column {column}"
        super().__init__(f"{where}: {message}" if where else message)


@dataclass(frozen=True)
class EmdenProblem:
    """Full statement of one singular initial-value problem.

    ``p`` is the coefficient of the singular first-derivative term,
    ``a`` the constant multiplying f(x) g(y), ``f_poly`` the polynomial
    f(x) as a coefficient series, ``g`` the nonlinearity tree, and
    ``order`` the truncation order every computation will use.
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
        object.__setattr__(self, "p", coerce(self.p, mode))
        object.__setattr__(self, "a", coerce(self.a, mode))
        object.__setattr__(self, "y0", coerce(self.y0, mode))
        object.__setattr__(self, "dy0", coerce(self.dy0, mode))
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


# --- tokenizer shared by the small text grammars ---------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:/\d+(?:\.\d+)?)?)|(?P<name>[A-Za-z_]+)|(?P<op>[-+*^()/]))"
)
_TOKEN_RE_PLAIN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_]+)|(?P<op>[-+*^()/]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    column: int  # 1-based


def _tokenize(text: str, glue_fractions: bool = True):
    """Token stream for the small grammars.

    With ``glue_fractions`` a literal like ``3/2`` becomes one numeric
    token (the nonlinearity grammar has no division operator); without
    it, ``/`` always stays a separate operator.
    """
    regex = _TOKEN_RE if glue_fractions else _TOKEN_RE_PLAIN
    tokens = []
    pos = 0
    while pos < len(text):
        m = regex.match(text, pos)
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


def parse_number(text: str) -> Fraction:
    """Exact value of a numeric literal: integer, decimal, or p/q."""
    tokens = _tokenize(text)
    sign = 1
    i = 0
    if tokens[i].kind == "op" and tokens[i].text in "+-":
        sign = -1 if tokens[i].text == "-" else 1
        i += 1
    if tokens[i].kind != "num" or tokens[i + 1].kind != "end":
        raise ParseError(f"not a number: {text!r}", column=tokens[i].column)
    return sign * _parse_number_token(tokens[i])


class _ExprParser:
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

    FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh")

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", column=tok.column)
        return self.take()

    def fail(self, message: str):
        raise ParseError(message, column=self.peek().column)

    # -- entry point --------------------------------------------------------

    def parse(self) -> GExpr:
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r}")
        return e

    def expr(self) -> GExpr:
        terms = []
        sign = Fraction(1)
        if self.peek().kind == "op" and self.peek().text in "+-":
            sign = Fraction(-1) if self.take().text == "-" else Fraction(1)
        terms.append(self.term(sign))
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = Fraction(-1) if self.take().text == "-" else Fraction(1)
            terms.append(self.term(sign))
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
            if self.peek().kind == "op" and self.peek().text == "*":
                self.take()
                continue
            break
        if not children:
            return Const(scale)
        body = children[0] if len(children) == 1 else Product(tuple(children))
        return body if scale == 1 else Scale(scale, body)

    def factor(self) -> GExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(_parse_number_token(tok))
        if tok.kind == "op" and tok.text == "(":
            self.take()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            if tok.text == "y":
                self.take()
                if self.peek().kind == "op" and self.peek().text == "^":
                    self.take()
                    return Power(self.exponent())
                return Var()
            if tok.text in self.FUNCTIONS:
                return self.func()
            self.fail(f"unknown name {tok.text!r} (functions: {', '.join(self.FUNCTIONS)})")
        if tok.kind == "op" and tok.text == "/":
            self.fail("division is only allowed inside numeric literals")
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input")

    def exponent(self):
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            self.fail("expected a numeric exponent after '^'")
        self.take()
        value = sign * _parse_number_token(tok)
        return int(value) if value.denominator == 1 else value

    def func(self) -> GExpr:
        name_tok = self.take()
        name = name_tok.text
        self.expect_op("(")
        alpha, beta = self.linear()
        self.expect_op(")")
        if name == "ln":
            return Log(alpha, beta)
        if beta != 0:
            raise ParseError(
                f"{name}(...) takes a pure multiple of y; a constant offset "
                "is only supported inside ln(...)",
                column=name_tok.column,
            )
        if name == "exp":
            return Exp(alpha)
        if name == "sin":
            return Sin(alpha)
        if name == "cos":
            return Cos(alpha)
        if name == "sinh":
            return Sinh(alpha)
        return Cosh(alpha)

    def linear(self):
        """Argument of a function: a linear form alpha*y + beta."""
        alpha = Fraction(0)
        beta = Fraction(0)
        first = True
        while True:
            sign = Fraction(1)
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = Fraction(-1) if tok.text == "-" else Fraction(1)
            elif not first:
                break
            first = False
            a, b = self.linterm()
            alpha += sign * a
            beta += sign * b
        return alpha, beta

    def linterm(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            value = _parse_number_token(tok)
            if self.peek().kind == "op" and self.peek().text == "*":
                self.take()
                a, b = self.yterm()
                if b != 0:
                    self.fail("expected y after '*'")
                return value * a, Fraction(0)
            return Fraction(0), value
        if tok.kind == "name" and tok.text == "y":
            return self.yterm()
        self.fail("expected a number or y inside the function argument")

    def yterm(self):
        tok = self.peek()
        if tok.kind != "name" or tok.text != "y":
            self.fail("expected y")
        self.take()
        if self.peek().kind == "op" and self.peek().text == "/":
            self.take()
            den_tok = self.peek()
            if den_tok.kind != "num":
                self.fail("expected a number after '/'")
            self.take()
            d = _parse_number_token(den_tok)
            if d == 0:
                raise ParseError("zero denominator", column=den_tok.column)
            return Fraction(1) / d, Fraction(0)
        return Fraction(1), Fraction(0)


def parse_expression(text: str) -> GExpr:
    """Parse a nonlinearity like ``18*y + 4*y*ln(y)`` into a tree."""
    return _ExprParser(text).parse()


class _PolyParser(_ExprParser):
    """Polynomial in x for the f(x) factor: sums of c*x^n terms."""

    def parse_poly(self):
        coeffs: dict = {}
        first = True
        while True:
            sign = Fraction(1)
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = Fraction(-1) if tok.text == "-" else Fraction(1)
            elif not first:
                if tok.kind != "end":
                    self.fail(f"unexpected {tok.text!r}")
                break
            first = False
            degree, value = self.poly_term()
            coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * value
        top = max(coeffs) if coeffs else 0
        return [coeffs.get(i, Fraction(0)) for i in range(top + 1)]

    def poly_term(self):
        tok = self.peek()
        value = Fraction(1)
        have_coeff = False
        if tok.kind == "num":
            self.take()
            value = _parse_number_token(tok)
            have_coeff = True
            if self.peek().kind == "op" and self.peek().text == "*":
                self.take()
            else:
                return 0, value
        tok = self.peek()
        if tok.kind != "name" or tok.text != "x":
            if have_coeff:
                self.fail("expected x after '*'")
            self.fail("expected a number or x")
        self.take()
        degree = 1
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            deg_tok = self.peek()
            if deg_tok.kind != "num":
                self.fail("expected a numeric power after '^'")
            self.take()
            d = _parse_number_token(deg_tok)
            if d.denominator != 1 or d < 0:
                raise ParseError(
                    "powers of x must be nonnegative integers", column=deg_tok.column
                )
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
_REQUIRED = (("equation", "p"), ("equation", "g"), ("initial", "y0"),
             ("solve", "order"), ("solve", "mode"))
_DEFAULTS = {("equation", "a"): "1", ("equation", "f"): "1", ("initial", "dy0"): "0"}


def parse_problem_file(data) -> EmdenProblem:
    """Parse the flat INI-style problem format.

    Sections ``[equation]`` (keys p, a, f, g), ``[initial]`` (y0, dy0)
    and ``[solve]`` (order, mode); ``#`` starts a comment; a, f and dy0
    may be omitted (defaults 1, 1, 0).  Accepts bytes (UTF-8) or str.
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
        if not line.strip():
            continue
        stripped = line.strip()
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
        except ParseError as exc:
            col = exc.column
            raise ParseError(
                f"bad value for {key!r}: {value!r} ({exc})",
                line=lineno,
                column=(column + col - 1) if (col and column) else column,
            ) from None
        except ValueError as exc:
            raise ParseError(
                f"bad value for {key!r}: {value!r} ({exc})", line=lineno, column=column
            ) from None

    mode_text = entries[("solve", "mode")][0].lower()
    try:
        mode = Mode(mode_text)
    except ValueError:
        raise ParseError(
            f"mode must be 'rational' or 'float', got {mode_text!r}",
            line=entries[("solve", "mode")][1],
        ) from None

    order_text, order_line, _ = entries[("solve", "order")]
    try:
        order = int(order_text)
    except ValueError:
        raise ParseError(f"order must be an integer, got {order_text!r}", line=order_line) from None

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
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from None


# --- preset catalog ---------------------------------------------------------

PRESET_NAMES = (
    "lane_emden",
    "isothermal",
    "sinh_case",
    "sin_case",
    "example5",
    "example6",
)

FLOAT_ONLY_PRESETS = ("sinh_case", "sin_case")


@dataclass(frozen=True)
class PresetId:
    """Identifier of a catalog problem plus its free parameters.

    ``m`` is the polytropic index of ``lane_emden``; ``a`` scales
    ``example5``/``example6``.  Other presets take no parameters.
    """

    name: str
    m: object = None
    a: object = None

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(
                f"unknown preset {self.name!r} (known: {', '.join(PRESET_NAMES)})"
            )
        if self.name == "lane_emden":
            if self.m is None:
                raise ValueError("lane_emden needs the index parameter m")
            m = Fraction(self.m) if not isinstance(self.m, float) else self.m
            if m < 0:
                raise ValueError(f"lane_emden index m must be >= 0, got {m}")
            if isinstance(m, Fraction) and m.denominator == 1:
                m = int(m)
            object.__setattr__(self, "m", m)
        elif self.m is not None:
            raise ValueError(f"preset {self.name!r} takes no parameter m")
        if self.name in ("example5", "example6"):
            a = Fraction(1) if self.a is None else self.a
            if not isinstance(a, float):
                a = Fraction(a)
            if a == 0:
                raise ValueError(f"preset {self.name!r} needs a != 0")
            object.__setattr__(self, "a", a)
        elif self.a is not None:
            raise ValueError(f"preset {self.name!r} takes no parameter a")

    @classmethod
    def from_params(cls, name: str, params: dict) -> "PresetId":
        known = {"m", "a"}
        bad = set(params) - known
        if bad:
            raise ValueError(f"unknown preset parameter(s): {', '.join(sorted(bad))}")
        return cls(name, m=params.get("m"), a=params.get("a"))


@dataclass(frozen=True)
class PresetInfo:
    """Displayable description of one catalog entry."""

    name: str
    p: int
    equation: str
    y0: int
    parameters: str
    modes: str
    exact_solution: str


PRESET_CATALOG = (
    PresetInfo(
        "lane_emden", 2, "y'' + (2/x)y' + y^m = 0", 1, "m >= 0",
        "rational, float",
        "1 - x^2/6 (m=0); sin(x)/x (m=1); (1+x^2/3)^(-1/2) (m=5)",
    ),
    PresetInfo(
        "isothermal", 2, "y'' + (2/x)y' + e^y = 0", 0, "-",
        "rational, float", "-",
    ),
    PresetInfo(
        "sinh_case", 2, "y'' + (2/x)y' + sinh(y) = 0", 1, "-",
        "float", "-",
    ),
    PresetInfo(
        "sin_case", 2, "y'' + (2/x)y' + sin(y) = 0", 1, "-",
        "float", "-",
    ),
    PresetInfo(
        "example5", 5, "y'' + (5/x)y' + 8a(e^y + 2e^(y/2)) = 0", 0, "a != 0",
        "rational, float", "-2*ln(1 + a*x^2)",
    ),
    PresetInfo(
        "example6", 8, "y'' + (8/x)y' + a(18y + 4y*ln(y)) = 0", 1, "a != 0",
        "rational, float", "exp(-a*x^2)",
    ),
)


def build_preset(pid: PresetId, order: int, mode: Mode) -> EmdenProblem:
    """Instantiate a catalog problem at the given order and mode."""
    name = pid.name
    if name == "lane_emden":
        p, a, y0, g = 2, 1, 1, Power(pid.m)
    elif name == "isothermal":
        p, a, y0, g = 2, 1, 0, Exp(Fraction(1))
    elif name == "sinh_case":
        p, a, y0, g = 2, 1, 1, Sinh(Fraction(1))
    elif name == "sin_case":
        p, a, y0, g = 2, 1, 1, Sin(Fraction(1))
    elif name == "example5":
        p, a, y0 = 5, 8 * pid.a, 0
        g = Sum((Exp(Fraction(1)), Scale(Fraction(2), Exp(Fraction(1, 2)))))
    else:
        # example6: 18ay = -4ay ln y rewritten with everything on the left
        p, a, y0 = 8, pid.a, 1
        g = Sum((Scale(Fraction(18), Var()), Scale(Fraction(4), Product((Var(), Log(Fraction(1), Fraction(0)))))))
    return EmdenProblem(
        p=p, a=a, f_poly=Series([1], mode), g=g, y0=y0, dy0=0, order=order, mode=mode
    )
