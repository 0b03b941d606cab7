"""The public value types are frozen records: their repr text, equality,
hashing and immutability are part of the interface (ExprState keys its
slots by repr), and importing the CLI stays free of heavy stdlib modules."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from emdenseries import (
    Const,
    Cos,
    Cosh,
    EmdenProblem,
    Exp,
    Log,
    Mode,
    Power,
    PresetId,
    Product,
    Scale,
    Series,
    Sin,
    Sinh,
    Sum,
    Var,
    build_preset,
    solve,
)
from emdenseries.expr import Finding
from emdenseries.validation import CoeffDelta, PointDelta

from conftest import REPO_ROOT

REPRS = [
    (lambda: Var(), "Var()"),
    (lambda: Const(3), "Const(value=Fraction(3, 1))"),
    (lambda: Scale(2, Var()), "Scale(factor=Fraction(2, 1), child=Var())"),
    (lambda: Sum((Var(), Const(F(1, 2)))), "Sum(children=(Var(), Const(value=Fraction(1, 2))))"),
    (lambda: Product((Var(), Var())), "Product(children=(Var(), Var()))"),
    (lambda: Power(F(3, 2)), "Power(exponent=Fraction(3, 2))"),
    (lambda: Exp(F(1)), "Exp(alpha=Fraction(1, 1))"),
    (lambda: Log(F(1), F(0)), "Log(alpha=Fraction(1, 1), beta=Fraction(0, 1))"),
    (lambda: Sin(F(1)), "Sin(alpha=Fraction(1, 1))"),
    (lambda: Cos(2.0), "Cos(alpha=2.0)"),
    (lambda: Sinh(F(-1)), "Sinh(alpha=Fraction(-1, 1))"),
    (lambda: Cosh(F(1, 3)), "Cosh(alpha=Fraction(1, 3))"),
    (
        lambda: PresetId("lane_emden", m=F(3, 2)),
        "PresetId(name='lane_emden', m=Fraction(3, 2), a=None)",
    ),
    (
        lambda: build_preset(PresetId("isothermal"), 2, Mode.RATIONAL),
        "EmdenProblem(p=Fraction(2, 1), a=Fraction(1, 1), f_poly=Series(coeffs=(Fraction(1, 1),),"
        " mode=<Mode.RATIONAL: 'rational'>), g=Exp(alpha=Fraction(1, 1)), y0=Fraction(0, 1),"
        " dy0=Fraction(0, 1), order=2, mode=<Mode.RATIONAL: 'rational'>)",
    ),
    (
        lambda: Series([1, F(1, 2)], Mode.RATIONAL),
        "Series(coeffs=(Fraction(1, 1), Fraction(1, 2)), mode=<Mode.RATIONAL: 'rational'>)",
    ),
    (
        lambda: solve(build_preset(PresetId("lane_emden", m=1), 2, Mode.FLOAT)),
        "SolveReport(series=Series(coeffs=(1.0, 0.0, -0.16666666666666666), mode=<Mode.FLOAT:"
        " 'float'>), problem=EmdenProblem(p=2.0, a=1.0, f_poly=Series(coeffs=(1.0,), mode=<Mode."
        "FLOAT: 'float'>), g=Power(exponent=1), y0=1.0, dy0=0.0, order=2, mode=<Mode.FLOAT:"
        " 'float'>), warnings=(), kernel_calls=1)",
    ),
    (lambda: Finding("y(0)", "bad"), "Finding(where='y(0)', message='bad')"),
    (lambda: PointDelta(0.5, 1.0, 1.25, 0.25), "PointDelta(x=0.5, a=1.0, b=1.25, abs_delta=0.25)"),
    (
        lambda: CoeffDelta(2, F(1, 3), 0.5, 0.125, 0.25, None),
        "CoeffDelta(k=2, a=Fraction(1, 3), b=0.5, abs_delta=0.125, rel_delta=0.25,"
        " exact_equal=None)",
    ),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_text(make, text):
    assert repr(make()) == text


class TestEquality:
    def test_same_fields_of_different_classes_differ(self):
        assert Exp(1) != Sin(1)
        assert Sum((Var(),)) != Product((Var(),))

    def test_equal_records_hash_equal(self):
        pairs = [
            (Scale(2, Exp(F(1))), Scale(F(2), Exp(F(1)))),
            (Sum((Var(), Log(1, 2))), Sum([Var(), Log(1, 2)])),
            (PresetId("example5", a=2), PresetId("example5", a=F(2))),
            (Series([1, 2], Mode.FLOAT), Series([1.0, 2.0], Mode.FLOAT)),
        ]
        for left, right in pairs:
            assert left == right and hash(left) == hash(right)
            assert left is not right

    def test_problems_compare_by_value(self):
        a = build_preset(PresetId("example6", a=1), 6, Mode.RATIONAL)
        b = build_preset(PresetId("example6", a=1), 6, Mode.RATIONAL)
        assert a == b and hash(a) == hash(b)
        assert a != build_preset(PresetId("example6", a=1), 7, Mode.RATIONAL)


class TestConstruction:
    def test_default_field(self):
        assert PresetId("isothermal").m is None
        assert PresetId("isothermal").a is None

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Exp(),
            lambda: Log(F(1)),
            lambda: Exp(1, 2),
            lambda: Exp(beta=1),
            lambda: PresetId(),
            lambda: PresetId("isothermal", b=1),
            lambda: PointDelta(0.5, 1.0, 1.0),
            lambda: Var(1),
        ],
    )
    def test_missing_or_unknown_argument_is_a_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_keywords_and_positions_agree(self):
        assert Log(beta=F(2), alpha=F(1)) == Log(F(1), F(2))
        p = build_preset(PresetId("lane_emden", m=5), 4, Mode.RATIONAL)
        kw = EmdenProblem(
            p=p.p, a=p.a, f_poly=p.f_poly, g=p.g, y0=p.y0, dy0=p.dy0, order=p.order, mode=p.mode
        )
        assert kw == EmdenProblem(p.p, p.a, p.f_poly, p.g, p.y0, p.dy0, p.order, p.mode)

    @pytest.mark.parametrize(
        "record, name",
        [
            (Exp(F(1)), "alpha"),
            (Sum((Var(),)), "children"),
            (PresetId("isothermal"), "name"),
            (Series([1], Mode.FLOAT), "coeffs"),
            (PointDelta(0.5, 1.0, 1.0, 0.0), "x"),
        ],
    )
    def test_assigning_a_field_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_cold_start_imports_no_heavy_stdlib_modules():
    """Importing the CLI on a bare interpreter (no site hooks) loads none
    of the modules that once made up most of its start-up time."""
    heavy = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import emdenseries.cli; "
        f"print(sorted(m for m in sys.modules if m in {heavy!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, os.path.join(REPO_ROOT, "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
