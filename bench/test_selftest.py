"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_selftest.py

Runs short seeds through bench/run.py and checks that every metric named
in BENCHMARK.json is printed with its unit, that a corrupted output is
counted as a failed job, that the benchmark refuses to run without the
program, and that the references agree with each other.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, group):
    proc = _run("--workload", "validate_numeric", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _spec()[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    table = proc.stdout.splitlines()[:-1]
    for name, unit in wanted.items():
        assert any(line.split()[1:2] == [name] and line.endswith(f" {unit}") for line in table), name


def test_corrupted_output_counts_as_failed():
    proc = _run("--workload", "validate_numeric", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--corrupt-job", "0")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    jobs = len(workloads.validate_numeric(3).jobs)
    passes = result["attempted"] // jobs
    assert not result["correct"]
    # one bad job, counted each time it ran; the last pass may stop early
    assert passes <= result["failed"] <= passes + 1
    assert "FAILED job 0:" in proc.stdout
    fail_frac = [line for line in proc.stdout.splitlines() if " fail_frac " in line]
    printed = float(fail_frac[0].split()[2])  # six significant digits
    assert printed == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_known_defect_is_listed_not_dropped():
    proc = _run("--workload", "validate_numeric", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    defects = [line for line in proc.stdout.splitlines() if line.startswith("KNOWN DEFECT job ")]
    assert len(defects) == 1 and workloads.KNOWN_DEFECT[-1] in defects[0]
    errors = [line for line in proc.stdout.splitlines() if " cli.errors " in line]
    assert float(errors[0].split()[2]) == 1


def test_tracer_refuses_a_missing_function(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    from emdenseries import cli, series

    main = cli.main
    monkeypatch.delattr(series, "guarded_sum")
    with pytest.raises(spans.TraceMismatch, match="guarded_sum"):
        spans.Tracer().install()
    assert cli.main is main  # what was wrapped before the error is restored


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "float_sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_names_each_tail_percentile():
    for entry in _spec()["workloads"]:
        jobs = len(workloads.build(entry["name"], 1, ".").jobs)
        assert f"p{int(100 * (1 - 10 / jobs))} of {jobs} jobs" in entry["why"]


def test_closed_forms_match_the_local_recurrence():
    for fam in (("lane_emden", 0, None), ("lane_emden", 1, None), ("lane_emden", 5, None),
                ("example5", None, Fraction(3, 4)), ("example6", None, Fraction(2, 3))):
        pb = ref.preset_problem(*fam)
        assert ref.series_coeffs(pb, 40, exact=True) == ref.closed_form_coeffs(*fam, 40)


def test_decimal_recurrence_matches_exact():
    pb = ref.preset_problem("isothermal")
    exact = ref.series_coeffs(pb, 120, exact=True)
    approx = ref.series_coeffs(pb, 120, exact=False)
    assert all(ref.correct_digits(float(d), e) >= 15 for d, e in zip(approx, exact) if e)


def test_integrator_matches_closed_forms():
    xs = [k / 10 for k in range(1, 21)]
    for fam in (("lane_emden", 5, None), ("example6", None, Fraction(3, 2)), ("example5", None, Fraction(1, 2))):
        pb = ref.preset_problem(*fam)
        traj = ref.trajectory(pb, ref.closed_form_coeffs(*fam, 60), xs)
        for x in xs:
            want = ref.closed_form_value(*fam, x)
            assert abs(traj[x] - want) <= 1e-9 * max(1.0, abs(want)), (fam, x)
