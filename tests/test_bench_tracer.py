"""The benchmark's tracer still fits the program.

``bench/spans.py`` wraps functions and methods of the package by name
and checks its per-layer times and kernel counts against the program's
own ``SolveReport.kernel_calls``.  A refactor that renames or moves one
of them breaks only the benchmark, so this test runs the tracer over
in-process CLI calls that reach all five kernels and the integrator.
The tracer module is executed from its source, not imported, so nothing
is written under ``bench/``.
"""

import types

from emdenseries import cli, expr, kernels, validation

from conftest import REPO_ROOT

SPANS = REPO_ROOT / "bench" / "spans.py"

JOBS = [
    ["solve", "--preset", "lane_emden", "--param", "m=3/2", "--order", "12", "--mode", "rational"],
    ["solve", "--preset", "isothermal", "--order", "12", "--mode", "rational"],
    ["solve", "--preset", "example6", "--order", "12", "--mode", "rational"],
    ["solve", "--preset", "sin_case", "--order", "12"],
    ["solve", "--preset", "sinh_case", "--order", "12"],
    ["compare", "--preset", "example6", "--order", "10", "--against", "numeric",
     "--range", "0:1:1/4"],
    ["solve", "--file", str(REPO_ROOT / "problems" / "isothermal.efp"), "--order", "12"],
]


def _load_spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_its_checks_pass(capsys):
    spans = _load_spans()
    originals = (cli.main, expr.validate_expr, validation.evaluate_scalar,
                 kernels.Kernel.advance, expr.ExprState.advance)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for job, argv in enumerate(JOBS):
            tracer.job = job
            assert cli.main(argv) == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    assert (cli.main, expr.validate_expr, validation.evaluate_scalar,
            kernels.Kernel.advance, expr.ExprState.advance) == originals

    metrics = tracer.layer_metrics(0)  # raises TraceMismatch if a check fails
    for kind in spans.KERNEL_KINDS.values():
        assert metrics[f"kernels.{kind}_calls"] > 0, kind
    assert metrics["solver.solve_calls"] == len(JOBS)  # compare solves once too
    assert metrics["problem.load_calls"] == len(JOBS)  # presets and --file alike
    assert metrics["expr.kernel_calls"] > 0
    assert metrics["series.guarded_sum_calls"] > 0
    assert metrics["validation.rhs_evals"] > 0
