import csv
import hashlib
import io
import math
import subprocess
import sys
from fractions import Fraction as F

import pytest

from emdenseries import Mode, Series, cli, evaluate
from emdenseries.cli import main
from test_golden import CASES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSolve:
    def test_lane_emden_m5_rational(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--preset", "lane_emden", "--param", "m=5",
            "--order", "10", "--mode", "rational", "--format", "csv",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "coefficient"]
        assert rows[4] == ["4", "1/24"]
        assert len(rows) == 11

    def test_isothermal_tail(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--preset", "isothermal", "--order", "10",
            "--mode", "rational", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[10] == ["10", "-629/224532000"]

    def test_csv_uses_lf_and_header_first(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve", "--preset", "lane_emden", "--param", "m=0",
            "--order", "4", "--mode", "rational", "--format", "csv",
        )
        assert "\r" not in out
        assert out.startswith("k,coefficient\n")

    def test_missing_file_names_path(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--file", "missing.efp")
        assert code == 1
        assert "missing.efp" in err

    def test_file_solve(self, capsys, problems_dir):
        code, out, _ = run_cli(
            capsys, "solve", "--file", str(problems_dir / "example6.efp"),
            "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[4] == ["4", "1/2"]

    def test_file_order_and_mode_override(self, capsys, problems_dir):
        code, out, _ = run_cli(
            capsys, "solve", "--file", str(problems_dir / "isothermal.efp"),
            "--order", "4", "--mode", "float", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 5
        assert float(rows[2][1]) == pytest.approx(-1 / 6)

    def test_float_only_preset_in_rational_mode(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--preset", "sinh_case", "--order", "8",
            "--mode", "rational",
        )
        assert code == 1
        assert "rational mode" in err

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "solve", "--preset", "nope", "--order", "6")[0] == 1
        assert run_cli(capsys, "solve", "--preset", "isothermal")[0] == 1
        assert run_cli(capsys, "solve")[0] == 1
        assert run_cli(capsys, "solve", "--preset", "isothermal", "--order", "6",
                       "--param", "m")[0] == 1
        assert run_cli(capsys, "nonsense")[0] == 1

    def test_invalid_order_exits_1(self, capsys, problems_dir):
        code, _, err = run_cli(
            capsys, "solve", "--preset", "isothermal", "--order", "1",
        )
        assert code == 1 and "order" in err
        code, _, err = run_cli(
            capsys, "solve", "--file", str(problems_dir / "isothermal.efp"),
            "--order", "1",
        )
        assert code == 1 and "order" in err

    def test_float_file_solves_in_rational_mode(self, capsys, problems_dir, tmp_path):
        # --mode applies while the file's values are still exact
        source = problems_dir / "lane_emden_m5.efp"
        copy = tmp_path / "m5_float.efp"
        copy.write_text(source.read_text().replace("mode = rational", "mode = float"))
        want = run_cli(capsys, "solve", "--file", str(source))
        assert want[0] == 0
        assert run_cli(capsys, "solve", "--file", str(copy), "--mode", "rational") == want
        code, out, _ = run_cli(capsys, "solve", "--file", str(copy), "--mode", "rational",
                               "--order", "4", "--format", "csv")
        assert code == 0
        assert out == "k,coefficient\n0,1\n1,0\n2,-1/6\n3,0\n4,1/24\n"

    def test_irrational_file_rejects_rational_mode(self, capsys, problems_dir):
        code, out, err = run_cli(
            capsys, "solve", "--file", str(problems_dir / "sin_case.efp"), "--mode", "rational",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: problem cannot be transformed: sin(y): ")

    @pytest.mark.parametrize("g, y0, mode", [
        ("exp(1000*y)", "1", "float"),  # math range error
        ("y^400", "10", "float"),  # errno ERANGE
        ("y^3/2", "2" + "0" * 400, "rational"),  # an irrational root beyond float range
    ], ids=["exp", "power", "root"])
    def test_seed_overflow_is_a_validation_error(self, capsys, tmp_path, g, y0, mode):
        path = tmp_path / "overflow.efp"
        path.write_text(f"[equation]\np = 2\ng = {g}\n[initial]\ny0 = {y0}\n"
                        f"[solve]\norder = 6\nmode = {mode}\n")
        code, out, err = run_cli(capsys, "solve", "--file", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: problem cannot be transformed: {g}: ")
        assert err.count("\n") == 1

    def test_exact_root_beyond_float_range_solves(self, capsys, tmp_path):
        # 10^400 = (10^200)^2, so y^3/2 has the exact seed 10^600
        path = tmp_path / "huge_root.efp"
        path.write_text(f"[equation]\np = 2\ng = y^3/2\n[initial]\ny0 = {10**400}\n"
                        "[solve]\norder = 6\nmode = rational\n")
        code, out, err = run_cli(capsys, "solve", "--file", str(path), "--format", "csv")
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        assert rows[0] == ["0", str(10**400)]
        assert rows[2] == ["2", str(F(-10**600, 6))]  # Y(2) = -G(0) / (2 * 3)

    def test_value_beyond_float_range_is_a_usage_error(self, capsys, tmp_path):
        huge = "1" + "0" * 400
        path = tmp_path / "huge.efp"
        path.write_text(f"[equation]\np = 2\ng = y\n[initial]\ny0 = {huge}\n"
                        "[solve]\norder = 6\nmode = float\n")
        expected = (1, "", "error: integer division result too large for a float\n")
        assert run_cli(capsys, "solve", "--file", str(path)) == expected
        assert run_cli(capsys, "solve", "--preset", "example6", "--param", f"a={huge}",
                       "--order", "4", "--mode", "float") == expected

    def test_param_rejected_with_file(self, capsys, problems_dir):
        code, _, err = run_cli(
            capsys, "solve", "--file", str(problems_dir / "isothermal.efp"),
            "--param", "m=1",
        )
        assert code == 1
        assert "--param" in err


class TestEval:
    def test_float_default_at_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--preset", "lane_emden", "--param", "m=0",
            "--order", "10", "--at", "1", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][1].startswith("0.8333333333333333")

    def test_at_zero_echoes_initial_value(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--preset", "sinh_case", "--order", "8",
            "--at", "0", "--format", "csv",
        )
        _, rows = csv_rows(out)
        assert rows[0] == ["0", "1"]

    def test_example6_near_gaussian(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--preset", "example6", "--param", "a=1",
            "--order", "14", "--at", "0.5", "--format", "csv",
        )
        _, rows = csv_rows(out)
        assert float(rows[0][1]) == pytest.approx(0.7788008, abs=1e-6)

    def test_rational_eval_is_exact(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--preset", "lane_emden", "--param", "m=0",
            "--order", "10", "--mode", "rational", "--at", "1", "--format", "csv",
        )
        _, rows = csv_rows(out)
        assert rows[0] == ["1", "5/6"]

    def test_range_point_count(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--preset", "isothermal", "--order", "8",
            "--range", "0:2:0.1", "--format", "csv",
        )
        _, rows = csv_rows(out)
        assert len(rows) == 21

    def test_irrational_file_rejects_rational_mode(self, capsys, problems_dir):
        got = run_cli(
            capsys, "eval", "--file", str(problems_dir / "sin_case.efp"), "--mode", "rational",
            "--at", "1",
        )
        assert got == (1, "", "error: problem cannot be transformed: sin(y): sin(1), cos(1) "
                              "are irrational; rational mode needs alpha*Y(0) == 0\n")

    @pytest.mark.parametrize("x", [5, 10])
    def test_float_lane_emden_m1_past_its_first_zeros(self, capsys, x):
        # the float solve printed 546.03 at x = 5, and was 4.7e38 off at x = 10
        code, out, err = run_cli(
            capsys, "eval", "--preset", "lane_emden", "--param", "m=1",
            "--order", "120", "--at", str(x),
        )
        assert (code, err) == (0, "")
        assert float(out.split()[-1]) == pytest.approx(math.sin(x) / x, rel=0, abs=1e-12)

    def test_needs_exactly_one_target(self, capsys):
        base = ["eval", "--preset", "isothermal", "--order", "8"]
        assert run_cli(capsys, *base)[0] == 1
        assert run_cli(capsys, *base, "--at", "1", "--range", "0:1:0.5")[0] == 1

    def test_round_trip_against_solve(self, capsys):
        args = ["--preset", "lane_emden", "--param", "m=1", "--order", "10",
                "--mode", "rational"]
        _, solve_out, _ = run_cli(capsys, "solve", *args, "--format", "csv")
        _, rows = csv_rows(solve_out)
        coeffs = Series([F(cell) for _, cell in rows], Mode.RATIONAL)
        x = F(1, 3)
        expected = evaluate(coeffs, x)
        _, eval_out, _ = run_cli(capsys, "eval", *args, "--at", "1/3", "--format", "csv")
        _, eval_rows = csv_rows(eval_out)
        assert eval_rows[0][1] == str(expected)

    def test_round_trip_in_float_mode(self, capsys):
        # 17 significant digits round-trip doubles exactly
        args = ["--preset", "sin_case", "--order", "10", "--mode", "float"]
        _, solve_out, _ = run_cli(capsys, "solve", *args, "--format", "csv")
        _, rows = csv_rows(solve_out)
        coeffs = Series([float(cell) for _, cell in rows], Mode.FLOAT)
        expected = f"{evaluate(coeffs, 0.25):.17g}"
        _, eval_out, _ = run_cli(capsys, "eval", *args, "--at", "0.25", "--format", "csv")
        _, eval_rows = csv_rows(eval_out)
        assert eval_rows[0][1] == expected

    def test_deterministic_output(self, capsys):
        args = ["eval", "--preset", "sin_case", "--order", "10",
                "--range", "0:1:0.25", "--format", "csv"]
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second


class TestCompare:
    def test_reference_table_shape(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--preset", "isothermal", "--order", "10",
            "--against", "reference", "--format", "csv",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["x", "dtm", "reference", "abs_delta"]
        assert len(rows) == 21
        assert "k=10" in err  # the quoted-series mismatch is reported

    def test_exact_comparison_passes_tolerance(self, capsys):
        code, _, _ = run_cli(
            capsys, "compare", "--preset", "lane_emden", "--param", "m=1",
            "--order", "10", "--against", "exact", "--range", "0:1:0.1",
            "--tol", "1e-6",
        )
        assert code == 0

    def test_tolerance_breach_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--preset", "lane_emden", "--param", "m=5",
            "--order", "10", "--against", "exact", "--range", "0:2:0.5",
            "--tol", "1e-6",
        )
        assert code == 3
        assert "tolerance exceeded" in err

    def test_domain_error_during_integration_exits_2(self, capsys):
        # the m = 3/2 polytrope crosses zero near x ~ 3.7, after which
        # y^(3/2) is undefined on the integrator's trajectory
        code, _, err = run_cli(
            capsys, "compare", "--preset", "lane_emden", "--param", "m=3/2",
            "--order", "10", "--against", "numeric", "--range", "0:5:1",
        )
        assert code == 2
        assert "negative" in err

    def test_closed_form_outside_its_domain_exits_2(self, capsys):
        # with a = -1, -2 ln(1 + a x^2) is undefined from x = 1 on, which
        # the default grid reaches
        code, out, err = run_cli(
            capsys, "compare", "--preset", "example5", "--param", "a=-1",
            "--order", "16", "--against", "exact",
        )
        assert code == 2
        assert out == ""
        assert err == "error: 1 + a*x^2 = 0.0 is outside the solution's domain\n"

    def test_no_closed_form_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--preset", "sinh_case", "--order", "8",
            "--against", "exact",
        )
        assert code == 1
        assert "no closed form" in err

    def test_numeric_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--preset", "example6", "--param", "a=1",
            "--order", "10", "--against", "numeric", "--range", "0:0.4:0.2",
            "--tol", "1e-5", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3

    def test_numeric_oracle_on_a_quadratic_solution(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--preset", "lane_emden", "--param", "m=0",
            "--order", "20", "--against", "numeric", "--format", "csv",
        )
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        assert len(rows) == 21
        for x, _, numeric, _ in rows:
            assert float(numeric) == pytest.approx(1 - float(x) ** 2 / 6, abs=1e-12)

    def test_blow_up_during_integration_exits_2(self, capsys):
        # with a = -1 the solution -2 ln(1 - x^2) is singular at x = 1; from
        # the stop at x = 1 the first trial step drives exp(y) past the float range
        code, out, err = run_cli(
            capsys, "compare", "--preset", "example5", "--param", "a=-1",
            "--order", "2", "--against", "numeric",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: g(y) overflows at y = ") and err.count("\n") == 1

    def test_fractional_power_of_a_negative_value_exits_2(self, capsys):
        # past its first zero near x = 3.65 the m = 3/2 solution is negative
        code, out, err = run_cli(
            capsys, "compare", "--preset", "lane_emden", "--param", "m=3/2",
            "--order", "20", "--against", "numeric", "--range", "3.5:4:0.25",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: y^(3/2) at negative y = -") and err.count("\n") == 1

    def test_numeric_oracle_rejects_negative_points(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--preset", "lane_emden", "--param", "m=1",
            "--order", "10", "--against", "numeric", "--range=-1:1:0.5",
        )
        assert (code, out) == (1, "")
        assert err == "error: --against numeric needs grid points >= 0\n"

    def test_exact_oracle_takes_negative_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--preset", "lane_emden", "--param", "m=1",
            "--order", "10", "--against", "exact", "--range=-1:1:0.5", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["-1", "-0.5", "0", "0.5", "1"]


class TestChecksBeforeSolve:
    """Bad arguments and missing oracles are reported before any solve."""

    @pytest.mark.parametrize("argv, message", [
        ("eval --preset example5 --order 250 --mode rational",
         "eval needs exactly one of --at or --range"),
        ("eval --preset isothermal --order 10 --at 1 --range 0:1:1/2",
         "eval needs exactly one of --at or --range"),
        ("eval --preset isothermal --order 10 --at 1/0", "bad --at value '1/0': "),
        ("eval --preset isothermal --order 10 --range 1:0:1/8", "--range needs LO <= HI"),
        ("compare --preset isothermal --order 10 --against exact --range 0:1",
         "--range expects LO:HI:STEP, got '0:1'"),
        ("compare --preset lane_emden --param m=1 --order 10 --against reference",
         "no reference series for preset 'lane_emden'"),
        ("compare --preset isothermal --order 10 --against exact",
         "no closed form for preset 'isothermal'"),
        ("compare --preset lane_emden --param m=1 --order 10 --against numeric --range=-1:1:1/2",
         "--against numeric needs grid points >= 0"),
    ])
    def test_usage_error_without_solving(self, capsys, monkeypatch, argv, message):
        def no_solve(problem):
            raise AssertionError("solve called before the arguments were checked")

        monkeypatch.setattr("emdenseries.cli.solve", no_solve)
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


BIG_A = {"1e300": "1" + "0" * 300, "1e400": "1" + "0" * 400}


class TestFloatRange:
    """A rational comparison whose values leave the float range is a
    one-line usage error, not a traceback."""

    @pytest.mark.parametrize("against", ["exact", "numeric"])
    @pytest.mark.parametrize("size", BIG_A)
    @pytest.mark.parametrize("preset", ["example5", "example6"])
    def test_series_past_the_float_range_exits_1(self, capsys, preset, size, against):
        code, out, err = run_cli(
            capsys, "compare", "--preset", preset, "--param", f"a={BIG_A[size]}",
            "--order", "6", "--mode", "rational", "--against", against,
            "--range", "0.5:0.5:1",
        )
        # the x^2 coefficient is about -a, the x^4 one about a^2
        power = 2 if size == "1e400" else 4
        assert (code, out) == (1, "")
        assert err == f"error: coefficient of x^{power} overflows a float\n"


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "-1e-300"])
    def test_nan_or_negative_tol_is_a_usage_error(self, capsys, monkeypatch, tol):
        def no_solve(problem):
            raise AssertionError("solve called before --tol was checked")

        monkeypatch.setattr("emdenseries.cli.solve", no_solve)
        code, out, err = run_cli(
            capsys, "compare", "--preset", "example6", "--order", "6",
            "--against", "exact", "--range", "0:1:1", f"--tol={tol}",
        )
        assert (code, out) == (1, "")
        assert err == f"error: --tol must be a number >= 0, got {float(tol):g}\n"

    def test_zero_and_infinite_tol_are_accepted(self, capsys):
        base = ("compare", "--preset", "example6", "--order", "6", "--against", "exact")
        # the series and the closed form agree exactly at x = 0
        assert run_cli(capsys, *base, "--range", "0:0:1", "--tol", "0")[0] == 0
        assert run_cli(capsys, *base, "--range", "0:1:1", "--tol", "inf")[0] == 0


class TestPresets:
    def test_listing_contents(self, capsys):
        code, out, _ = run_cli(capsys, "presets")
        assert code == 0
        assert "isothermal" in out and "e^y" in out
        assert "example5" in out and "p=5" in out
        lines = out.strip().split("\n")
        assert len(lines) == 7  # header + six presets


@pytest.mark.parametrize("argv", [
    "presets",
    "solve --preset example6 --order 8",
    "eval --preset lane_emden --param m=5 --order 8 --mode rational --range 0:1:1/4",
    "compare --preset example6 --order 12 --against numeric --range 0:1:1/4",
], ids=["presets", "solve", "eval", "compare"])
def test_csv_rows_are_as_wide_as_the_header(capsys, argv):
    # presets has the cell "rational, float", which must be quoted
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert rows and all(len(row) == len(header) for row in rows)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "emdenseries", "presets"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "lane_emden" in proc.stdout


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_returns_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: emdenseries")
        assert "--help" in out and err == ""

    def test_golden_case_after_help(self, capsys):
        run_cli(capsys, "--help")
        run_cli(capsys, "solve", "--help")
        _, argv, code, out_sha, err_sha = CASES[0]
        got = run_cli(capsys, *argv.split())
        assert got[0] == code
        assert hashlib.sha256(got[1].encode()).hexdigest() == out_sha
        assert hashlib.sha256(got[2].encode()).hexdigest() == err_sha


# golden cases mixed with error paths and the list-valued --param
REUSE_SEQUENCE = [c[1].split() for c in CASES[:3]] + [
    "eval --preset lane_emden --param m=3 --param m=5 --order 8 --at 1/2 --mode rational".split(),
    "eval --preset lane_emden --param m=3 --order 8 --at 1/2 --mode rational".split(),
    "solve --preset isothermal --order 6 --mode exact".split(),
    "solve --preset isothermal --order 6 --bogus".split(),
    [],
    ["--help"],
    "compare --preset example6 --order 12 --against numeric --range 0:1:1/4".split(),
    "solve --preset isothermal --order 6".split(),
]


def test_parser_built_once_and_reused_without_state(monkeypatch, capsys):
    # each argv with a parser of its own, then all of them through one parser
    expected = []
    for argv in REUSE_SEQUENCE:
        monkeypatch.setattr(cli, "_parser", None)
        expected.append(run_cli(capsys, *argv))
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    forward = [run_cli(capsys, *argv) for argv in REUSE_SEQUENCE]
    backward = [run_cli(capsys, *argv) for argv in reversed(REUSE_SEQUENCE)][::-1]
    assert forward == expected
    assert backward == expected
    assert len(builds) == 1
    assert [e[0] for e in expected] == [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0]
