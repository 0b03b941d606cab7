"""The emdenseries benchmark: seeded CLI job mixes, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  NAME is one of exact_highorder,
float_sweep, validate_numeric (see bench/workloads.py); ``all`` runs
every workload untraced and traced and prints every metric.

Steps, in order:

1. build the job list from the seed and write any generated ``.efp``
   files under ``.bench_build/``;
2. compute references with bench/reference.py (no emdenseries code);
3. run the jobs in one child process (bench/worker.py), closed loop,
   one client, for ``--seconds``; in an untraced run the worker also
   times ``import emdenseries`` plus ``cli.main(["presets"])`` in fresh
   interpreters, spread over the run, between jobs (``setup_s``);
4. check every output, then print a metric table and, as the last line,
   one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
   ``--trace 1`` the per-layer ones (spans go to
   ``.bench_build/spans-NAME.tsv``).

Exit code 0 when the run completed (check ``correct`` for the verdict),
2 when the program or its inputs are missing or the run broke.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import reference as ref
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
DEADLINE_S = 170  # a run must end well within three minutes
SETUP_PROBES = 36  # fresh interpreters, spread evenly over an untraced run
SETUP_BEST = 5  # setup_s: median of the fastest five probes

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "float_digits_min": "digits",
}
PER_LAYER = {
    **{f"kernels.{k}_{s}": u for k in ("power", "exp", "log", "sincos", "sinhcosh")
       for s, u in (("ms", "ms"), ("calls", "count"))},
    "series.guarded_sum_ms": "ms",
    "series.guarded_sum_calls": "count",
    "series.evaluate_rational_ms": "ms",
    "series.evaluate_float_ms": "ms",
    "series.evaluate_calls": "count",
    "solver.solve_ms": "ms",
    "solver.self_ms": "ms",
    "solver.solve_calls": "count",
    "solver.coeffs": "count",
    "solver.warnings": "count",
    "solver.float_bad_coeffs": "count",
    "solver.coeff_bits_max": "bits",
    "expr.advance_ms": "ms",
    "expr.self_ms": "ms",
    "expr.advance_calls": "count",
    "expr.kernel_calls": "count",
    "expr.kernel_calls_per_coeff": "ratio",
    "validation.rk_oracle_ms": "ms",
    "validation.self_ms": "ms",
    "validation.rk_oracle_calls": "count",
    "validation.oracle_solves": "count",
    "validation.rhs_evals": "count",
    "validation.path_ratio": "ratio",
    "validation.compare_ms": "ms",
    "problem.load_ms": "ms",
    "problem.load_calls": "count",
    "cli.self_ms": "ms",
    "cli.errors": "count",
    "trace.overhead_frac": "ratio",
}

class RunError(Exception):
    """The benchmark could not produce a result."""


def environment(seed: int, workload: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # an exported checkout carries no history
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "workload": workload,
        "why": workloads.WORKLOADS.get(workload, ""),
        "clients": 1,
        "loop": "closed",
    }


def build_references(wl) -> dict:
    """Reference coefficients (and oracle values) for every problem."""
    need = {}
    for job in wl.jobs:
        order, points, exact = need.get(job.key, (0, set(), False))
        if job.against in ("numeric", "exact"):
            points |= set(job.points)
        need[job.key] = (max(order, job.order), points, exact or job.mode == "rational")
    refs = {}
    for key, (order, points, exact) in need.items():
        pb, preset = wl.problems[key]
        order = max(order, 60)  # enough terms to seed the integrator and estimate radii
        coeffs = wl.coeffs.get(key)
        if coeffs is None or len(coeffs) <= order:
            coeffs = ref.closed_form_coeffs(*preset, order) if preset else None
        if coeffs is None:
            coeffs = ref.series_coeffs(pb, order, exact=exact)
        r = check.Reference(coeffs, ref.radius_estimate(coeffs))
        if points:
            closed = [ref.closed_form_value(*preset, float(x)) if preset else None
                      for x in sorted(points)]
            if None in closed:
                traj = ref.trajectory(pb, coeffs, [float(x) for x in points])
                r.values = {x: traj[float(x)] for x in points}
            else:
                r.values = dict(zip(sorted(points), closed))
        refs[key] = r
    return refs


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least ten of ``jobs`` beyond it."""
    return int(100 * (1 - 10 / jobs))


def run_worker(wl, seconds: int, trace: bool, setup: bool, workdir: str, budget: float) -> dict:
    spec = {
        "jobs": [job.argv for job in wl.jobs],
        "seconds": seconds,
        "trace": trace,
        "setup_probes": SETUP_PROBES if setup else 0,
        "warmup": 3,
        "outputs": os.path.join(workdir, "outputs.jsonl"),
        "spans": os.path.join(BUILD, f"spans-{wl.name}.tsv"),
    }
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), spec_path, result_path],
                              cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {budget:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    with open(spec["outputs"]) as fh:
        result["outputs"] = [json.loads(line) for line in fh]
    return result


def run_one(name: str, seed: int, seconds: int, trace: bool, setup: bool,
            corrupt_job=None) -> dict:
    """One workload in one mode; ``setup`` also measures ``setup_s``."""
    started = time.monotonic()
    os.makedirs(BUILD, exist_ok=True)
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.build(name, seed, os.path.relpath(workdir, ROOT))
        for path, text in wl.files.items():
            with open(os.path.join(ROOT, path), "w") as fh:
                fh.write(text)
        refs = build_references(wl)
        budget = DEADLINE_S - 5 - (time.monotonic() - started)
        result = run_worker(wl, seconds, trace, setup, workdir, budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(wl, refs, result, trace, corrupt_job)


def summarize(wl, refs, result, trace, corrupt_job) -> dict:
    outputs = result["outputs"]
    if corrupt_job is not None:
        # self-test hook: a single wrong character in one job's table
        text = outputs[corrupt_job]["stdout"]
        i = max(text.rfind(c) for c in "0123456789")
        outputs[corrupt_job]["stdout"] = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    failures, known, digits = [], [], []
    for i, (job, status, out) in enumerate(zip(wl.jobs, result["status"], outputs)):
        verdict = check.check_job(job, status["rc"], status["exc"], out["stdout"], refs[job.key])
        if verdict.ok and not status["stable"]:
            verdict = check.Verdict(False, "output changed between passes")
        argv = " ".join(job.argv)
        if (not verdict.ok and job.known_defect and status["rc"] == 2 and status["stable"]
                and job.known_defect in out["stderr"]):
            known.append((i, argv, out["stderr"].strip()))
        elif not verdict.ok:
            failures.append((i, argv, verdict.reason))
        digits += verdict.digits
    passes = result["passes"]
    runs = [0] * len(wl.jobs)  # an untraced run may stop mid-pass
    for p in passes:
        for i in range(len(p["latencies"])):
            runs[i] += 1
    attempted = sum(runs)
    failed = sum(runs[i] for i, _, _ in failures)
    # A job's latency is its fastest pass.  Every pass repeats identical,
    # deterministic work, so the spread between passes is the host's: on a
    # shared 2-core VM, neighbours slow whole stretches of a run by up to
    # 1.7x, in CPU time too.  Median and tail are then taken across jobs.
    job_s = _per_job_best(passes, len(wl.jobs), traced=False)
    pass_s = sum(job_s)
    info = {
        "jobs": len(wl.jobs),
        "passes": len(passes),
        "fail_frac": failed / attempted,
        "failures": failures,
        "known_defects": known,
    }
    if trace:
        traced_s = sum(_per_job_best(passes, len(wl.jobs), traced=True))
        metrics = dict(result["layers"])
        metrics["solver.float_bad_coeffs"] = sum(
            check.bad_coefficients(coeffs, refs[wl.jobs[int(j)].key])
            for j, coeffs in result["solve_floats"].items())
        metrics["trace.overhead_frac"] = traced_s / pass_s - 1.0
        info["cli_main_ms"] = metrics.pop("cli.main_ms")
        info["layer_self_ms"] = result["layer_self_ms"]
        units = PER_LAYER
    else:
        q = tail_percentile(len(job_s))
        tail = statistics.quantiles(job_s, n=100)[q - 1]
        info["tail"] = f"p{q}, {sum(1 for t in job_s if t > tail)} jobs beyond"
        metrics = {
            "jobs_per_s": len(wl.jobs) / pass_s,
            "job_p50_ms": statistics.median(job_s) * 1000.0,
            "job_tail_ms": tail * 1000.0,
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            # no printed float in the workload: every value is exact
            "float_digits_min": min(digits, default=17.0),
        }
        if result["setup_s"]:  # measured once per invocation
            metrics["setup_s"] = setup_seconds(result["setup_s"])
        units = {k: u for k, u in END_TO_END.items() if k != "setup_s" or result["setup_s"]}
    missing = set(units) - set(metrics)
    if missing:
        raise RunError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "info": info,
    }


def setup_seconds(probes: list) -> float:
    """The median of the fastest few set-ups.  As with job latency, the
    fastest repeats are the ones the host disturbed least; a median of
    all probes follows whichever of the host's speeds held most of the
    run, and moved by 44% between two sets of runs of the same code."""
    return statistics.median(sorted(probes)[:SETUP_BEST])


def _per_job_best(passes, jobs: int, traced: bool) -> list:
    best = [math.inf] * jobs
    for p in passes:
        if p["traced"] == traced:
            best[: len(p["latencies"])] = map(min, best, p["latencies"])
    return best


def report(name, seed, trace, res):
    env = environment(seed, name)
    print(f"# {name} seed={seed} trace={int(trace)} python={env['python']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} commit={env['commit']}")
    print(f"# why: {env['why']}")
    info = res["info"]
    print(f"# {info['jobs']} jobs x {info['passes']} passes, closed loop, 1 client; "
          f"job latency = fastest pass" + (f"; tail = {info['tail']}" if "tail" in info else ""))
    for k, m in res["metrics"].items():
        print(f"{name:>16}  {k:<32} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:>16}  {'fail_frac':<32} {info['fail_frac']:>16.6g} ratio")
    if "layer_self_ms" in info:
        parts = info["layer_self_ms"]
        print(f"# layer self times add up to {sum(parts.values()):.3f} ms; traced cli.main "
              f"took {info['cli_main_ms']:.3f} ms: "
              + " + ".join(f"{k} {v:.1f}" for k, v in parts.items() if v))
    for i, argv, reason in info["failures"]:
        print(f"FAILED job {i}: {argv}: {reason}")
    for i, argv, cause in info["known_defects"]:
        print(f"KNOWN DEFECT job {i}: {argv}: {cause} (not counted as failed; see "
              f"KNOWN_DEFECT in bench/workloads.py)")
    with open(os.path.join(BUILD, f"result-{name}-{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"environment": env, **res}, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-job", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "emdenseries", "cli.py")):
        print("error: run from a checkout of the repository: src/emdenseries is missing",
              file=sys.stderr)
        return 2
    missing = [p for p in workloads.SHIPPED_FILES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: shipped problem files missing: {missing}", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in workloads.WORKLOADS for t in (False, True)]
            if args.workload == "all" else [(args.workload, bool(args.trace))])
    results = []
    for k, (name, trace) in enumerate(runs):
        setup = k == 0 and not trace  # set-up does not depend on the workload
        try:
            res = run_one(name, args.seed, args.seconds, trace, setup, args.corrupt_job)
        except (RunError, ArithmeticError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        report(name, args.seed, trace, res)
        results.append((name, res))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {k if k == "setup_s" else f"{n}/{k}": m
                        for n, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
