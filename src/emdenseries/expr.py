"""Expression trees for the nonlinearity g(y) and their streaming transform.

The solver needs the transform coefficients G(k) of g(y(x)) while y is
still being discovered, so expressions are evaluated incrementally: an
:class:`ExprState` compiles the tree once into one coefficient prefix
per distinct subtree (equal subtrees share it, and sin/cos or sinh/cosh
of one argument share one paired kernel), and each ``advance`` call
appends exactly one index everywhere.

Supported node kinds mirror the nonlinearities the kernels can handle:
``y`` itself, constants, scalar multiples, sums, products, and the leaf
functions y^m, exp(a*y), ln(a*y+b), sin/cos(a*y), sinh/cosh(a*y).  A
nonlinear function of anything other than plain y cannot even be built;
composition beyond that would need chained expansions the kernel table
does not provide.

Each nonlinear node class names its kernel as ``kernel = (KernelClass,
i)``: the node reads that kernel's F list (i = 0) or G list (i = 1),
and its grammar name, scalar value and seed are ``names[i]``,
``functions[i]`` and the seed rule of the kernel class.  Nothing here
restates them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import mul
from types import CodeType, FunctionType

from . import kernels
from .series import Mode, Number, Record, as_list, coerce, exact_dot, guarded_sum, zero


class GExpr(Record):
    """Base class for expression nodes over the dependent variable y."""

    __slots__ = ()
    kernel = None  # (kernel class, 0 for its F list or 1 for its G list)

    _scalar = cached_property(lambda self: _compile_scalar(self))  # for evaluate_scalar

    def __getstate__(self):  # pickles without the compiled g, a function, which does not pickle
        return {k: v for k, v in vars(self).items() if k != "_scalar"}


class Var(GExpr):
    """The dependent variable y itself."""


class Const(GExpr):
    value: object

    def __post_init__(self):
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))


class Scale(GExpr):
    factor: object
    child: GExpr

    def __post_init__(self):
        if isinstance(self.factor, int):
            object.__setattr__(self, "factor", Fraction(self.factor))


class _Nary(GExpr):
    """Sum or product of one or more children."""

    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError(f"empty {type(self).__name__.lower()}")


class Sum(_Nary):
    """The sum of the children."""


class Product(_Nary):
    """The product of the children."""


class Power(GExpr):
    """y**exponent applied to the variable directly."""

    exponent: object
    kernel = (kernels.PowerKernel, 0)


class _Function(GExpr):
    """A kernel function of alpha*y (of alpha*y + beta for ln)."""

    alpha: object


class Exp(_Function):
    kernel = (kernels.ExpKernel, 0)


class Log(_Function):
    beta: object
    kernel = (kernels.LogKernel, 0)


class Sin(_Function):
    kernel = (kernels.SinCosKernel, 0)


class Cos(_Function):
    kernel = (kernels.SinCosKernel, 1)


class Sinh(_Function):
    kernel = (kernels.SinhCoshKernel, 0)


class Cosh(_Function):
    kernel = (kernels.SinhCoshKernel, 1)


def walk(e: GExpr):
    """Yield every node of the tree, parents after children."""
    if isinstance(e, Scale):
        yield from walk(e.child)
    elif isinstance(e, _Nary):
        for c in e.children:
            yield from walk(c)
    yield e


def format_expr(e: GExpr) -> str:
    """Canonical text form, re-parseable by the expression parser."""

    def num(v):
        if isinstance(v, Fraction):
            return str(v)
        return repr(v)

    def arg(alpha, beta=None):
        if alpha == 1:
            s = "y"
        else:
            s = f"{num(alpha)}*y"
        if beta is not None and beta != 0:
            s += f"+{num(beta)}" if beta > 0 else f"-{num(-beta)}"
        return s

    def grouped(child, wrap_kinds):
        text = format_expr(child)
        return f"({text})" if isinstance(child, wrap_kinds) else text

    def factor(child):
        # the parser takes no sign after '*'
        if isinstance(child, Const) and child.value < 0:
            return f"({num(child.value)})"
        return grouped(child, (Sum, Scale))

    if isinstance(e, Var):
        return "y"
    if isinstance(e, Const):
        return num(e.value)
    if isinstance(e, Scale):
        return f"{num(e.factor)}*{factor(e.child)}"
    if isinstance(e, Sum):
        def term(c):
            # negative terms print as subtraction: the parser rejects "+ -"
            if isinstance(c, Scale) and c.factor < 0:
                return " - " + format_expr(Scale(-c.factor, c.child))
            if isinstance(c, Const) and c.value < 0:
                return " - " + format_expr(Const(-c.value))
            return " + " + grouped(c, (Sum,))

        return grouped(e.children[0], (Sum,)) + "".join(term(c) for c in e.children[1:])
    if isinstance(e, Product):
        return "*".join(map(factor, e.children))
    if isinstance(e, Power):
        return f"y^{num(e.exponent)}"
    if isinstance(e, _Function):
        cls, i = e.kernel
        return f"{cls.names[i]}({arg(*e._values())})"
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_scalar(e: GExpr, y: float) -> float:
    """Plain numeric value g(y) at a scalar y (float arithmetic).

    Used by the off-origin integrator, which works on numbers rather
    than coefficient streams.  The tree is compiled on first use into one
    flat function (:func:`_compile_scalar`) that the root node keeps.
    """
    return e._scalar(y)


def _compile_scalar(e: GExpr) -> Callable[[float], float]:
    """g at a float y as one generated function, a statement per node in a tree walk's
    order and operations.  Each constant goes through float() once, parents first, into the
    function's globals c0, c1, ... (never a node, as the root keeps g); the source names node
    kinds only, so trees that differ in constants alone share one code object, compiled once."""
    lines, args = [], []

    def arg(value) -> str:
        args.append(value)
        return f"c{len(args) - 1}"

    def const(value) -> str:
        try:
            return arg(float(value))
        except OverflowError:
            raise kernels.KernelDomainError(f"constant {value} in g(y) overflows a float") from None

    def let(value: str) -> str:
        lines.append(f"v{len(lines)} = {value}")
        return f"v{len(lines) - 1}"

    def emit(node) -> str:  # node's value over the names bound so far
        c = [const(v) for v in node._values() if not isinstance(v, (GExpr, tuple))]
        if isinstance(node, Scale):
            return f"{c[0]} * {let(emit(node.child))}"
        if isinstance(node, _Nary):  # left to right from 0.0 or 1.0, as ExprState adds
            op, start = (" + ", "0.0") if isinstance(node, Sum) else (" * ", "1.0")
            terms = [start, *(let(emit(child)) for child in node.children)]
            while len(terms) > 100:  # the bytecode compiler recurses once per operator
                terms[:100] = [let(op.join(terms[:100]))]
            return op.join(terms)
        if isinstance(node, (Var, Const)):
            return c[0] if c else "float(y)"  # Const's value, or y
        if isinstance(node, Power):
            lines.append(f"if y < 0 and not {c[0]}.is_integer(): "
                         f"raise Error(f'y^({{{arg(node.exponent)}}}) at negative y = {{y}}')")
            return f"float(y) ** {c[0]}"
        (cls, i), s = node.kernel, f"{c[0]} * y"
        if isinstance(node, Log):
            s = let(f"{s} + {c[1]}")
            lines.append(f"if {s} <= 0: raise Error(f'ln argument {{{s}}} is not positive')")
        return f"{arg(cls.functions[i])}({s})"

    lines.append(f"return {emit(e)}")
    namespace = {"Error": kernels.KernelDomainError, **{f"c{j}": v for j, v in enumerate(args)}}
    return FunctionType(_factory("def g(y):\n    " + "\n    ".join(lines)), namespace)


@lru_cache(maxsize=256)
def _factory(source: str) -> CodeType:  # the code object of the one def in source
    return next(c for c in compile(source, "<g>", "exec").co_consts if isinstance(c, CodeType))


class Finding(Record):
    where: str
    message: str


class ValidationReport(Record):
    findings: tuple

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self):
        if self.ok:
            return "expression valid"
        return "; ".join(f"{f.where}: {f.message}" for f in self.findings)


def validate_expr(e: GExpr, y0, mode: Mode) -> ValidationReport:
    """Check every kernel precondition of ``e`` at the initial value y0.

    Runs each nonlinear leaf's seed computation and records what fails
    (log of a nonpositive argument, singular power seed, irrational seed
    in rational mode, cross-mode constants, a seed that overflows).  An
    empty report means the expression can be transformed.
    """
    failures = (ValueError, TypeError, ArithmeticError)
    findings = []
    try:
        y0 = coerce(y0, mode)
    except failures as exc:
        return ValidationReport((Finding("y(0)", str(exc)),))
    for node in walk(e):
        if node.kernel is None and not isinstance(node, (Var, Const, Scale, Sum, Product)):
            raise TypeError(f"not an expression node: {node!r}")
        try:
            if isinstance(node, (Const, Scale)):
                coerce(node.value if isinstance(node, Const) else node.factor, mode)
            elif node.kernel is not None:
                node.kernel[0](*node._values(), mode).advance([y0])
        except failures as exc:  # a node is formatted only when it fails
            findings.append(Finding(format_expr(node), str(exc)))
    return ValidationReport(tuple(findings))


class ExprState:
    """Streaming transform of a whole expression tree.

    The tree is compiled once, children before parents, into one coefficient
    list per distinct subtree, so equal subtrees (and sin/cos or sinh/cosh of
    one argument, which read the two halves of one paired kernel) are
    computed once.  Kernel leaves read Y alone, so ``advance`` steps the
    distinct kernels first; then each other list's ``step(k, y_prefix)``
    gives its entry k, children first (an n-ary product is a chain of binary
    ones), in integers when exact, normalised once on append: the steps are
    chosen per mode when the state is built.  Emitted coefficients never
    change, so G(k) of the root depends on Y(0..k) only.  One state serves
    one solve session; it is not thread-safe.
    """

    def __init__(
        self,
        expr: GExpr,
        mode: Mode,
        on_warn: Callable[[str], None] | None = None,
        _stride: int = 1,
    ):
        self.expr = expr
        self.mode = mode
        self._on_warn = on_warn
        self._stride = _stride  # warning labels name index k as x-space index stride*k
        self.kernel_calls = 0
        self._kernels: list = []  # distinct kernels, in the order the tree first reads them
        self._steps: list = []  # (output list, step)
        # Keys are reprs, not nodes: 1 == 1.0 and 0.0 == -0.0 compare
        # equal but do not compute the same, so they must not share.
        slots: dict = {}
        kernels_by_args: dict = {}
        for node in walk(expr):
            key = repr(node)
            if key not in slots:
                slots[key] = self._compile(node, slots, kernels_by_args)
        self._root = slots[repr(expr)]

    def _compile(self, node: GExpr, slots: dict, kernels_by_args: dict) -> list:
        """Add the kernel or the steps that compute ``node`` and return its list."""
        mode, z, warn, stride = self.mode, zero(self.mode), self._on_warn, self._stride
        if node.kernel is not None:
            cls, i = node.kernel
            args = node._values()
            key = (cls, repr(args))
            if key not in kernels_by_args:
                kernels_by_args[key] = cls(*args, mode)
                self._kernels.append(kernels_by_args[key])
            return getattr(kernels_by_args[key], "fg"[i])
        if isinstance(node, Product):
            def product(a, b) -> list:  # the list of the Cauchy product of a and b
                if mode is Mode.RATIONAL:  # one integer sum, which never warns
                    return self._add(lambda k, y: exact_dot(a, reversed(b)))
                return self._add(lambda k, y: guarded_sum(map(mul, a, reversed(b)), warn,
                                 lambda: f"product convolution at index {k * stride}"))

            return reduce(product, (slots[repr(n)] for n in node.children))
        if isinstance(node, Var):
            step = lambda k, y: coerce(y[k], mode)
        elif isinstance(node, Const):
            c = coerce(node.value, mode)
            step = lambda k, y: c if k == 0 else z
        elif isinstance(node, Scale):
            c, child = coerce(node.factor, mode), slots[repr(node.child)]
            step = ((lambda k, y: Fraction(c.numerator * (v := child[k]).numerator,
                                           c.denominator * v.denominator))
                    if mode is Mode.RATIONAL else lambda k, y: c * child[k])
        elif isinstance(node, Sum):
            terms = [slots[repr(n)] for n in node.children]
            if mode is Mode.RATIONAL:  # added as integers
                def step(k, y):
                    num, den = 0, 1
                    for v in (t[k] for t in terms):
                        num, den = num * v.denominator + v.numerator * den, den * v.denominator
                    return Fraction(num, den)
            else:
                step = lambda k, y: guarded_sum(
                    (t[k] for t in terms), warn, lambda: f"sum at index {k * stride}")
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return self._add(step)

    def _add(self, step: Callable) -> list:
        out = as_list(self.mode)
        self._steps.append((out, step))
        return out

    @property
    def next_index(self) -> int:
        return len(self._root)

    def advance(self, y_prefix: Sequence[Number]) -> Number:
        """Consume Y(0..k) for k == next_index; return G(k) of the root."""
        k = self.next_index
        kernels.check_prefix(y_prefix, k)
        for kernel in self._kernels:
            kernel.advance(y_prefix)
        self.kernel_calls += len(self._kernels)
        for out, step in self._steps:
            out.append(step(k, y_prefix))
        return self._root[k]
