"""Command-line front end.

Four subcommands::

    emdenseries solve    (--file F | --preset NAME [--param k=v]...) --order N
                         [--mode rational|float] [--format csv|text]
    emdenseries eval     ... (--at X | --range LO:HI:STEP)
    emdenseries compare  --preset NAME --order N --against exact|reference|numeric
                         [--range LO:HI:STEP] [--tol T]
    emdenseries presets

Exit codes: 0 success, --help included; 1 usage, parse, or validation
failure, a NaN or negative --tol included, or a rational value (a grid
point too) that eval or compare cannot convert to a float; 2 an oracle
failed: the integrator left g's domain or its step underflowed, or a
closed form was outside its domain; 3 a comparison exceeded --tol.
Tables go to stdout (CSV: comma-separated, LF line endings, header row
first); messages go to stderr.  Identical invocations produce
byte-identical output: rationals as p/q, floats with 17 digits.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import partial

from .kernels import KernelDomainError
from .problem import (
    PRESET_CATALOG,
    ParseError,
    PresetId,
    _preset_info,
    build_preset,
    parse_number,
    parse_problem_file,
)
from .series import FloatRangeError, Mode, as_float, evaluate
from .solver import solve
from .validation import (
    DEFAULT_SAMPLE_GRID,
    OracleUnavailableError,
    StepSizeUnderflowError,
    _closed_form,
    compare,
    compare_pointwise,
    exact_solution,
    reference_series,
    rk_trajectory,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_TOLERANCE = 3


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse printed --help and asked to exit with status ``args[0]``."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits on its own; route everything through our exit codes
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        # only --help gets here (no message); main returns instead of exiting
        raise _Exit(status)


def format_value(v) -> str:
    """Canonical cell text: exact p/q for rationals, 17 significant
    digits for floats (enough to round-trip)."""
    if isinstance(v, (Fraction, int)):
        return str(v)
    return f"{float(v):.17g}"


def _parse_param(text: str):
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise _UsageError(f"--param expects k=v, got {text!r}")
    try:
        return key.strip(), parse_number(value.strip())
    except ParseError as exc:
        raise _UsageError(f"bad value in --param {text!r}: {exc}") from None


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--range expects LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (parse_number(p.strip()) for p in parts)
    except ParseError as exc:
        raise _UsageError(f"bad number in --range {text!r}: {exc}") from None
    if step <= 0:
        raise _UsageError("--range step must be positive")
    if hi < lo:
        raise _UsageError("--range needs LO <= HI")
    points = []
    x = lo
    while x <= hi:
        points.append(x)
        x += step
    return points


def _load_problem(args):
    """The problem the arguments name, and its PresetId (None for a file)."""
    if args.file and args.preset:
        raise _UsageError("give either --file or --preset, not both")
    params = dict(_parse_param(p) for p in (args.param or ()))
    if args.file:
        if params:
            raise _UsageError("--param only applies to --preset problems")
        try:
            with open(args.file, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read problem file {args.file!r}: {exc.strerror}") from None
        mode = Mode(args.mode) if args.mode else None
        return parse_problem_file(data, args.order, mode), None
    if args.preset:
        mode = Mode(args.mode) if args.mode else Mode.FLOAT
        try:
            _preset_info(args.preset)  # an unknown name is reported before a missing --order
            if args.order is None:
                raise _UsageError("--order is required with --preset")
            pid = PresetId.from_params(args.preset, params)
            return build_preset(pid, args.order, mode), pid
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise _UsageError(str(exc)) from None
    raise _UsageError("a problem is required: --file PATH or --preset NAME")


def _emit(args, headers: tuple, rows):
    """Write rows of formatted cells to stdout: CSV, or aligned text columns.

    Callers pass rows as a list.  CPython 3.11 keeps every tuple built
    from a generator in its free lists until a full collection, which
    seldom runs once the parser is reused, so peak memory grew per job."""
    if args.format == "csv":
        fit = ",".join
    else:
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        def fit(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sys.stdout.write("".join(fit(row) + "\n" for row in (headers, *rows)))


def cmd_solve(args) -> int:
    problem, _ = _load_problem(args)
    report = solve(problem)
    rows = [(str(k), format_value(c)) for k, c in enumerate(report.series.coeffs)]
    _emit(args, ("k", "coefficient"), rows)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    problem, _ = _load_problem(args)
    if (args.at is None) == (args.range is None):
        raise _UsageError("eval needs exactly one of --at or --range")
    if args.at is not None:
        try:
            points = [parse_number(args.at)]
        except ParseError as exc:
            raise _UsageError(f"bad --at value {args.at!r}: {exc}") from None
    else:
        points = _parse_range(args.range)
    if problem.mode is Mode.FLOAT:
        points = [as_float(x, f"point {x}") for x in points]
    series = solve(problem).series
    rows = [(format_value(x), format_value(evaluate(series, x))) for x in points]
    _emit(args, ("x", "y"), rows)
    return EXIT_OK


def cmd_compare(args) -> int:
    if not args.preset:
        raise _UsageError("compare works on --preset problems (oracles are preset-keyed)")
    problem, pid = _load_problem(args)
    points = _parse_range(args.range) if args.range else DEFAULT_SAMPLE_GRID
    xs = [as_float(x, f"point {x}") for x in points]
    # every argument and oracle check comes before the solve
    if args.against == "reference":
        ref = reference_series(pid)
    elif args.against == "exact":
        _closed_form(pid)  # OracleUnavailableError without one
    elif min(xs, default=0.0) < 0:
        raise _UsageError("--against numeric needs grid points >= 0")
    if args.tol is not None and not args.tol >= 0:  # NaN fails every comparison
        raise _UsageError(f"--tol must be a number >= 0, got {args.tol:g}")
    series = solve(problem).series
    if args.against == "reference":
        top = max(series.order, ref.order)
        report = compare(series.to_float().pad(top), ref.pad(top), xs, tolerance=args.tol)
    elif args.against == "exact":
        report = compare_pointwise(series, partial(exact_solution, pid), xs, tolerance=args.tol)
    else:
        # one integration through the grid, started below its smallest nonzero point
        positive = [x for x in xs if x > 0]
        x_start = min(1e-3, min(positive, default=1.0) / 2)
        values = dict(zip(positive, rk_trajectory(problem, positive, x_start=x_start)))
        values[0.0] = float(problem.y0)
        report = compare_pointwise(series, values.__getitem__, xs, tolerance=args.tol)
    rows = [
        (format_value(r.x), format_value(r.a), format_value(r.b), format_value(r.abs_delta))
        for r in report.point_deltas
    ]
    _emit(args, ("x", "dtm", args.against, "abs_delta"), rows)
    flagged = report.mismatched_indices(1e-9)
    if flagged:
        detail = "; ".join(
            f"k={k}: {format_value(d.a)} vs {format_value(d.b)}"
            for k, d in ((k, report.coeff_deltas[k]) for k in flagged)
        )
        print(f"note: coefficient mismatch at {detail}", file=sys.stderr)
    if args.tol is not None and not report.within_tolerance:
        print(
            f"tolerance exceeded: max |delta| = {report.max_point_delta:.3e} > {args.tol:g}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_presets(args) -> int:
    rows = [
        (
            info.name,
            f"p={info.p}",
            info.equation,
            f"y0={info.y0}",
            info.parameters,
            info.modes,
            info.exact_solution,
        )
        for info in PRESET_CATALOG
    ]
    headers = ("preset", "p", "equation", "y(0)", "parameters", "modes", "exact solution")
    _emit(args, headers, rows)
    return EXIT_OK


def _add_problem_args(p):
    p.add_argument("--file", help="problem file (see README for the format)")
    p.add_argument("--preset", help="catalog problem name (see `presets`)")
    p.add_argument(
        "--param", action="append", metavar="K=V",
        help="preset parameter, e.g. m=5 or a=1/2 (repeatable)",
    )
    p.add_argument("--order", type=int, help="truncation order N (highest power kept)")
    p.add_argument("--mode", choices=("rational", "float"), help="arithmetic mode")
    p.add_argument(
        "--format", choices=("csv", "text"), default="text", help="output table format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="emdenseries",
        description="Truncated power-series solutions of singular Emden-Fowler problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="print the coefficient table of a solution")
    _add_problem_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a solution at points")
    _add_problem_args(p)
    p.add_argument("--at", help="single evaluation point")
    p.add_argument("--range", help="LO:HI:STEP evaluation grid")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare a solution against an oracle")
    _add_problem_args(p)
    p.add_argument(
        "--against", choices=("exact", "reference", "numeric"), required=True,
        help="closed form, quoted literature series, or off-origin integration",
    )
    p.add_argument("--range", help="LO:HI:STEP comparison grid (default 0:2:0.1)")
    p.add_argument("--tol", type=float, help="exit 3 if any |delta| exceeds this")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("presets", help="list the built-in problems")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=cmd_presets)

    return parser


_parser = None  # built by the first main call; parse_args keeps no state on it


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Exit as exc:
        return exc.args[0]
    try:
        return args.func(args)
    except (_UsageError, ParseError, OracleUnavailableError, FloatRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KernelDomainError, StepSizeUnderflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
