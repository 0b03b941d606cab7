from fractions import Fraction as F

import pytest

from emdenseries import (
    Const,
    EmdenProblem,
    Exp,
    Log,
    Mode,
    ParseError,
    Power,
    PresetId,
    ProblemValidationError,
    Product,
    Scale,
    Series,
    Sin,
    Sum,
    Var,
    build_preset,
    format_expr,
    parse_expression,
    parse_number,
    parse_polynomial,
    parse_problem_file,
    solve,
    validate_expr,
)
from emdenseries.cli import main
from emdenseries.problem import PRESET_CATALOG
from emdenseries.validation import has_exact_solution, reference_series


class TestParseExpression:
    def test_plain_sine(self):
        assert parse_expression("sin(y)") == Sin(F(1))

    def test_full_logarithmic_form(self):
        got = parse_expression("18*y + 4*y*ln(y)")
        expected = Sum(
            (Scale(F(18), Var()), Scale(F(4), Product((Var(), Log(F(1), F(0))))))
        )
        assert got == expected

    def test_power_zero(self):
        assert parse_expression("y^0") == Power(0)

    def test_double_exponential(self):
        got = parse_expression("exp(y) + 2*exp(y/2)")
        assert got == Sum((Exp(F(1)), Scale(F(2), Exp(F(1, 2)))))

    def test_whitespace_insensitive(self):
        assert parse_expression("18 * y+4*y * ln( y )") == parse_expression(
            "18*y + 4*y*ln(y)"
        )
        assert parse_expression("y ") == Var()

    def test_numbers(self):
        assert parse_expression("3/2*y") == Scale(F(3, 2), Var())
        assert parse_expression("0.25*y") == Scale(F(1, 4), Var())
        assert parse_expression("-y") == Scale(F(-1), Var())
        assert parse_expression("2") == Const(F(2))

    def test_fractional_and_negative_exponents(self):
        assert parse_expression("y^3/2") == Power(F(3, 2))
        assert parse_expression("y^-1") == Power(-1)

    def test_linear_argument_forms(self):
        assert parse_expression("ln(2*y+1)") == Log(F(2), F(1))
        assert parse_expression("ln(1+2*y)") == Log(F(2), F(1))
        assert parse_expression("ln(y-1)") == Log(F(1), F(-1))
        assert parse_expression("sin(2*y)") == Sin(F(2))
        assert parse_expression("exp(-y)") == Exp(F(-1))

    def test_parenthesized_sums(self):
        got = parse_expression("2*(y + y^2)")
        assert got == Scale(F(2), Sum((Var(), Power(2))))

    def test_nested_nonlinearity_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("sin(exp(y))")

    def test_offset_only_allowed_in_ln(self):
        with pytest.raises(ParseError):
            parse_expression("exp(y+1)")
        assert parse_expression("ln(y+1)") == Log(F(1), F(1))

    def test_division_outside_literals_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("y/2 + 1")

    def test_x_not_allowed(self):
        with pytest.raises(ParseError):
            parse_expression("x + y")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("18*y + $")
        assert "column 8" in str(err.value)

    def test_print_parse_round_trip(self):
        texts = [
            "sin(y)", "18*y + 4*y*ln(y)", "exp(y) + 2*exp(y/2)", "y^5",
            "y^0", "y^3/2", "-2*y + 3*y^2", "ln(2*y+1)", "cosh(3*y)",
            "2*(y + y^2)", "1/2*sinh(y)", "y - 2*exp(y)", "y^2 - 3",
        ]
        for text in texts:
            once = parse_expression(text)
            again = parse_expression(format_expr(once))
            assert once == again, text


class TestParseNumberAndPolynomial:
    def test_number_forms(self):
        assert parse_number("5") == F(5)
        assert parse_number("-3/4") == F(-3, 4)
        assert parse_number("2.5") == F(5, 2)
        with pytest.raises(ParseError):
            parse_number("abc")

    def test_polynomial_forms(self):
        assert parse_polynomial("1") == [F(1)]
        assert parse_polynomial("x") == [F(0), F(1)]
        assert parse_polynomial("1 - 2*x^2") == [F(1), F(0), F(-2)]
        assert parse_polynomial("x^3 + x") == [F(0), F(1), F(0), F(1)]
        assert parse_polynomial("1/2*x^2") == [F(0), F(0), F(1, 2)]

    def test_polynomial_rejects_fractional_powers(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^1/2")


# Every message and column below was recorded before the three grammars
# shared one token cursor; a refactor of the parsers must keep them.
PARSE_ERRORS = [
    (parse_expression, "y^", "column 3: expected a numeric exponent after '^'"),
    (parse_expression, "sin(y+1)", "column 1: sin(...) takes a pure multiple of y; "
     "a constant offset is only supported inside ln(...)"),
    (parse_expression, "1+*y", "column 3: unexpected '*'"),
    (parse_expression, "frob(y)",
     "column 1: unknown name 'frob' (functions: exp, ln, sin, cos, sinh, cosh)"),
    (parse_expression, "y/2 + 1", "column 2: unexpected '/'"),
    (parse_expression, "exp(y", "column 6: expected ')'"),
    (parse_expression, "(y + 1", "column 7: expected ')'"),
    (parse_expression, "exp(2*)", "column 7: expected y"),
    (parse_expression, "ln(y/)", "column 6: expected a number after '/'"),
    (parse_expression, "ln(y/0)", "column 6: zero denominator"),
    (parse_expression, "y y", "column 3: unexpected 'y'"),
    (parse_expression, "", "column 1: unexpected end of input"),
    (parse_expression, "-", "column 2: unexpected end of input"),
    (parse_expression, "exp(y)*", "column 8: unexpected end of input"),
    (parse_expression, "sin(x)", "column 5: expected a number or y inside the function argument"),
    (parse_expression, "2/0", "column 1: zero denominator"),
    (parse_expression, "y^1/0", "column 3: zero denominator"),
    (parse_expression, "2.5.1", "column 4: unexpected character '.'"),
    (parse_polynomial, "1+*x", "column 3: expected a number or x"),
    (parse_polynomial, "x^1/2", "column 3: powers of x must be nonnegative integers"),
    (parse_polynomial, "2*y", "column 3: expected x after '*'"),
    (parse_polynomial, "x^", "column 3: expected a numeric power after '^'"),
    (parse_polynomial, "x x", "column 3: unexpected 'x'"),
    (parse_polynomial, "x^-1", "column 3: expected a numeric power after '^'"),
    (parse_polynomial, "x+", "column 3: expected a number or x"),
    (parse_polynomial, "", "column 1: expected a number or x"),
    (parse_polynomial, "2/0*x", "column 1: zero denominator"),
    (parse_number, "-+1", "column 2: not a number: '-+1'"),
    (parse_number, "1/0", "column 1: zero denominator"),
]

# The remaining error branches of the nonlinearity and problem-file readers.
_EQUATION = "[equation]\np = 2\ng = y^2\n[initial]\ny0 = 1\n"
PARSE_ERRORS += [
    (parse_expression, "2*/y", "column 3: division is only allowed inside numeric literals"),
    (parse_problem_file, "[equation\n", "line 1: unterminated section header"),
    (parse_problem_file, "p = 2\n", "line 1: key outside any [section]"),
    (parse_problem_file, "[equation]\np 2\n", "line 2: expected key = value"),
    (parse_problem_file, "[solve]\nmode = fast\norder = 6\n" + _EQUATION,
     "line 2: mode must be 'rational' or 'float', got 'fast'"),
    (parse_problem_file, "[solve]\norder = ten\nmode = float\n" + _EQUATION,
     "line 2: order must be an integer, got 'ten'"),
]


@pytest.mark.parametrize(
    "parse, text, message", PARSE_ERRORS,
    ids=[f"{fn.__name__}[{text[:20]}]" for fn, text, _ in PARSE_ERRORS],
)
def test_parse_error_text(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


FILE_TEXT = """\
# index-5 polytrope
[equation]
p = 2
a = 1
f = 1
g = y^5

[initial]
y0 = 1
dy0 = 0

[solve]
order = 10
mode = rational
"""


class TestParseProblemFile:
    def test_round_trip_with_preset(self):
        problem = parse_problem_file(FILE_TEXT.encode())
        assert problem == build_preset(PresetId("lane_emden", m=5), 10, Mode.RATIONAL)

    def test_bytes_and_str_agree(self):
        assert parse_problem_file(FILE_TEXT) == parse_problem_file(FILE_TEXT.encode())

    def test_shipped_files_match_presets(self, problems_dir):
        pairs = {
            "lane_emden_m5.efp": (PresetId("lane_emden", m=5), 10, Mode.RATIONAL),
            "isothermal.efp": (PresetId("isothermal"), 10, Mode.RATIONAL),
            "sinh_case.efp": (PresetId("sinh_case"), 10, Mode.FLOAT),
            "sin_case.efp": (PresetId("sin_case"), 10, Mode.FLOAT),
            "example5.efp": (PresetId("example5", a=1), 14, Mode.RATIONAL),
            "example6.efp": (PresetId("example6", a=1), 14, Mode.RATIONAL),
        }
        for fname, (pid, order, mode) in pairs.items():
            parsed = parse_problem_file((problems_dir / fname).read_bytes())
            assert parsed == build_preset(pid, order, mode), fname

    def test_missing_required_key(self):
        text = FILE_TEXT.replace("y0 = 1\n", "")
        with pytest.raises(ParseError) as err:
            parse_problem_file(text)
        assert "y0" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_problem_file(FILE_TEXT + "tolerance = 1\n")
        assert "tolerance" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_problem_file("[output]\nstyle = wide\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError) as err:
            parse_problem_file(FILE_TEXT + "order = 12\n")
        assert "duplicate" in str(err.value)

    def test_error_carries_line(self):
        bad = FILE_TEXT.replace("g = y^5", "g = y^$")
        with pytest.raises(ParseError) as err:
            parse_problem_file(bad)
        assert "line 6" in str(err.value)

    def test_nonzero_dy0_rejected(self):
        bad = FILE_TEXT.replace("dy0 = 0", "dy0 = 1")
        with pytest.raises(ParseError) as err:
            parse_problem_file(bad)
        assert "y'(0)" in str(err.value)

    def test_nonpositive_p_rejected(self):
        bad = FILE_TEXT.replace("p = 2", "p = 0")
        with pytest.raises(ParseError):
            parse_problem_file(bad)

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_problem_file(b"[equation]\xff\xfe")
        assert "UTF-8" in str(err.value)

    def test_defaults_for_a_f_dy0(self):
        text = "[equation]\np = 2\ng = y^2\n[initial]\ny0 = 1\n[solve]\norder = 6\nmode = rational\n"
        problem = parse_problem_file(text)
        assert problem.a == F(1)
        assert problem.f_poly == Series([1], Mode.RATIONAL)
        assert problem.dy0 == 0

    def test_float_mode_file(self):
        text = FILE_TEXT.replace("mode = rational", "mode = float")
        problem = parse_problem_file(text)
        assert problem.mode is Mode.FLOAT
        assert isinstance(problem.y0, float)
        assert problem.f_poly.mode is Mode.FLOAT


class TestParseProblemFileOverrides:
    """``order`` and ``mode`` replace the file's own, as --order and
    --mode do on the command line."""

    @staticmethod
    def cli_coefficients(capsys, *argv):
        assert main(["solve", *argv, "--format", "csv"]) == 0
        return [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]]

    def test_float_file_solved_in_rational_mode(self, capsys, tmp_path):
        path = tmp_path / "m5_float.efp"
        path.write_text(FILE_TEXT.replace("mode = rational", "mode = float"))
        problem = parse_problem_file(path.read_bytes(), mode=Mode.RATIONAL)
        assert problem == parse_problem_file(FILE_TEXT)
        got = [str(c) for c in solve(problem).series.coeffs]
        assert got == self.cli_coefficients(capsys, "--file", str(path), "--mode", "rational")

    def test_order_override(self, capsys, problems_dir):
        path = problems_dir / "isothermal.efp"
        problem = parse_problem_file(path.read_bytes(), order=14)
        assert problem == build_preset(PresetId("isothermal"), 14, Mode.RATIONAL)
        got = [str(c) for c in solve(problem).series.coeffs]
        assert len(got) == 15
        assert got == self.cli_coefficients(capsys, "--file", str(path), "--order", "14")


class TestEmdenProblem:
    def test_invariants(self):
        ok = dict(
            p=2, a=1, f_poly=Series([1], Mode.RATIONAL), g=Power(2),
            y0=1, dy0=0, order=6, mode=Mode.RATIONAL,
        )
        EmdenProblem(**ok)
        with pytest.raises(ValueError):
            EmdenProblem(**{**ok, "p": 0})
        with pytest.raises(ValueError):
            EmdenProblem(**{**ok, "dy0": 1})
        with pytest.raises(ValueError):
            EmdenProblem(**{**ok, "order": 1})
        with pytest.raises(ValueError):
            EmdenProblem(**{**ok, "f_poly": Series([1] * 9, Mode.RATIONAL)})
        with pytest.raises(ValueError):
            EmdenProblem(**{**ok, "f_poly": Series([1.0], Mode.FLOAT)})
        with pytest.raises(TypeError) as err:
            EmdenProblem(**{**ok, "g": "y^2"})
        assert str(err.value) == "g must be an expression tree, got 'y^2'"


class TestPresets:
    def test_lane_emden_m0(self):
        problem = build_preset(PresetId("lane_emden", m=0), 10, Mode.RATIONAL)
        assert problem.p == 2 and problem.a == 1 and problem.y0 == 1
        assert problem.g == Power(0)
        assert problem.f_poly == Series([1], Mode.RATIONAL)

    def test_isothermal(self):
        problem = build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)
        assert problem.g == Exp(F(1)) and problem.y0 == 0

    def test_example6(self):
        problem = build_preset(PresetId("example6", a=1), 14, Mode.RATIONAL)
        assert problem.p == 8
        assert problem.g == parse_expression("18*y + 4*y*ln(y)")

    def test_example5_scales_the_constant(self):
        problem = build_preset(PresetId("example5", a=F(1, 2)), 10, Mode.RATIONAL)
        assert problem.a == F(4)  # 8 * (1/2)
        assert problem.p == 5

    def test_documented_modes_validate(self):
        rational_ok = [
            PresetId("lane_emden", m=0), PresetId("lane_emden", m=5),
            PresetId("isothermal"), PresetId("example5", a=1),
            PresetId("example6", a=1),
        ]
        for pid in rational_ok:
            problem = build_preset(pid, 6, Mode.RATIONAL)
            assert validate_expr(problem.g, problem.y0, Mode.RATIONAL).ok, pid
        for name in ("sinh_case", "sin_case"):
            with pytest.raises(ProblemValidationError, match="irrational"):
                build_preset(PresetId(name), 6, Mode.RATIONAL)
            floaty = build_preset(PresetId(name), 6, Mode.FLOAT)
            assert validate_expr(floaty.g, floaty.y0, Mode.FLOAT).ok

    def test_preset_id_validation(self):
        with pytest.raises(ValueError):
            PresetId("unknown")
        with pytest.raises(ValueError):
            PresetId("lane_emden")  # m is required
        with pytest.raises(ValueError):
            PresetId("lane_emden", m=-1)
        with pytest.raises(ValueError):
            PresetId("example5", a=0)
        with pytest.raises(ValueError):
            PresetId("isothermal", m=2)
        with pytest.raises(ValueError):
            PresetId.from_params("isothermal", {"q": F(1)})

    def test_example_defaults_to_a_one(self):
        assert PresetId("example5").a == F(1)
        assert PresetId("example6").a == F(1)


def _sample_id(info):
    # lane_emden's m has no default; m = 5 has a closed form
    return PresetId(info.name, m=5) if info.param == "m" else PresetId(info.name)


@pytest.mark.parametrize("info", PRESET_CATALOG, ids=lambda info: info.name)
def test_catalog_row_agrees_with_the_problem_it_builds(info):
    pid = _sample_id(info)
    for mode in Mode:
        if mode.value not in info.modes.split(", "):
            with pytest.raises(ProblemValidationError):
                build_preset(pid, 6, mode)
            continue
        problem = build_preset(pid, 6, mode)
        assert problem.p == info.p and problem.y0 == info.y0
    assert (info.exact_solution != "-") == has_exact_solution(pid)
    assert hash(info) == hash(info) and info == info
    if info.reference is not None:
        assert reference_series(pid).coeffs[0] == info.y0
