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
from functools import cached_property
from operator import add, mul

from . import kernels
from .series import Mode, Number, Record, as_list, coerce, dot, guarded_sum, zero


class GExpr(Record):
    """Base class for expression nodes over the dependent variable y."""

    __slots__ = ()
    kernel = None  # (kernel class, 0 for its F list or 1 for its G list)

    @cached_property
    def _scalar(self) -> Callable[[float], float]:
        """g at a float y, compiled once for :func:`evaluate_scalar`;
        KernelDomainError names a constant past the float range."""
        values = []
        for value in self._values():
            if not isinstance(value, (GExpr, tuple)):
                try:
                    values.append(float(value))
                except OverflowError:
                    raise kernels.KernelDomainError(
                        f"constant {value} in g(y) overflows a float"
                    ) from None
        return _compile_scalar(self, values)

    def __getstate__(self):  # pickles without the compiled closure, which does not pickle
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


def _leaf_args(node: GExpr) -> tuple:
    """Kernel constructor arguments of a nonlinear leaf, mode aside."""
    return node._values()


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
        return f"{cls.names[i]}({arg(*_leaf_args(e))})"
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_scalar(e: GExpr, y: float) -> float:
    """Plain numeric value g(y) at a scalar y (float arithmetic).

    Used by the off-origin integrator, which works on numbers rather
    than coefficient streams.
    """
    return e._scalar(y)


def _compile_scalar(e: GExpr, values: list) -> Callable[[float], float]:
    """g at a float y as one closure per node, given the node's numeric fields
    as floats: a tree walk's operations in its order, minus its type tests."""
    if isinstance(e, Var):
        return float
    if isinstance(e, Const):
        return lambda y: values[0]
    if isinstance(e, Scale):
        factor, child = values[0], e.child._scalar
        return lambda y: factor * child(y)
    if isinstance(e, _Nary):
        # left to right from 0.0 or 1.0, as ExprState adds (sum() compensates from 3.12 on)
        op, start = (add, 0.0) if isinstance(e, Sum) else (mul, 1.0)
        children = [c._scalar for c in e.children]
        def fold(y):
            out = start
            for c in children:
                out = op(out, c(y))
            return out
        return fold
    if isinstance(e, Power):
        (m,) = values
        def power(y):
            if y < 0 and not m.is_integer():
                raise kernels.KernelDomainError(f"y^({e.exponent}) at negative y = {y}")
            return float(y) ** m
        return power
    cls, i = e.kernel
    fn, alpha = cls.functions[i], values[0]
    if isinstance(e, Log):
        beta = values[1]
        def log(y):
            s = alpha * y + beta
            if s <= 0:
                raise kernels.KernelDomainError(f"ln argument {s} is not positive")
            return fn(s)
        return log
    return lambda y: fn(alpha * y)


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
        label = format_expr(node)
        try:
            if isinstance(node, (Const, Scale)):
                coerce(node.value if isinstance(node, Const) else node.factor, mode)
            elif node.kernel is not None:
                node.kernel[0](*_leaf_args(node), mode).advance([y0])
        except failures as exc:
            findings.append(Finding(label, str(exc)))
    return ValidationReport(tuple(findings))


_KERNEL, _VAR, _CONST, _SCALE, _SUM, _PRODUCT, _EXACT_PRODUCT = range(7)


class ExprState:
    """Streaming transform of a whole expression tree.

    The tree is compiled once into slots, children before parents: one
    coefficient list per distinct subtree, so equal subtrees (and sin/cos
    or sinh/cosh of one argument, which read the two halves of one paired
    kernel) are computed once.  An n-ary product becomes a chain of binary
    products.  Emitted coefficients never change, so G(k) of the root
    depends on Y(0..k) only, exactly like the raw kernels.  One state
    serves one solve session; it is not thread-safe.
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
        self._steps: list = []  # (op, output list, operand, operand)
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
        """Append the steps that compute ``node`` and return its list."""
        if node.kernel is not None:
            cls, i = node.kernel
            args = _leaf_args(node)
            key = (cls, repr(args))
            if key not in kernels_by_args:
                kernels_by_args[key] = cls(*args, self.mode)
                self._steps.append((_KERNEL, None, kernels_by_args[key], None))
            return getattr(kernels_by_args[key], "fg"[i])
        if isinstance(node, Product):
            left = slots[repr(node.children[0])]
            op = _EXACT_PRODUCT if self.mode is Mode.RATIONAL else _PRODUCT
            for child in node.children[1:]:
                out = as_list(self.mode)
                self._steps.append((op, out, left, slots[repr(child)]))
                left = out
            return left
        out = as_list(self.mode)
        if isinstance(node, Var):
            step = (_VAR, out, None, None)
        elif isinstance(node, Const):
            step = (_CONST, out, coerce(node.value, self.mode), None)
        elif isinstance(node, Scale):
            step = (_SCALE, out, coerce(node.factor, self.mode), slots[repr(node.child)])
        elif isinstance(node, Sum):
            step = (_SUM, out, [slots[repr(c)] for c in node.children], None)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        self._steps.append(step)
        return out

    @property
    def next_index(self) -> int:
        return len(self._root)

    def advance(self, y_prefix: Sequence[Number]) -> Number:
        """Consume Y(0..k) for k == next_index; return G(k) of the root."""
        k = self.next_index
        kernels.check_prefix(y_prefix, k)
        mode, warn, at = self.mode, self._on_warn, k * self._stride
        for op, out, a, b in self._steps:
            if op == _KERNEL:
                self.kernel_calls += 1
                a.advance(y_prefix)
            elif op == _VAR:
                out.append(coerce(y_prefix[k], mode))
            elif op == _CONST:
                out.append(a if k == 0 else zero(mode))
            elif op == _SCALE:
                out.append(a * b[k])
            elif op == _SUM:
                out.append(guarded_sum((c[k] for c in a), zero(mode), warn, f"sum at index {at}"))
            elif op == _EXACT_PRODUCT:  # a rational sum never warns
                out.append(dot(a, reversed(b), zero(mode)))
            else:  # _PRODUCT: the Cauchy product of two slots at index k
                terms = map(mul, a, reversed(b))
                out.append(guarded_sum(terms, zero(mode), warn, f"product convolution at index {at}"))
        return self._root[k]
