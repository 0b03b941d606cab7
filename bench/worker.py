"""Runs one workload's job list through ``emdenseries.cli.main`` in process.

Usage: python3 bench/worker.py SPEC.json RESULT.json

This is the only benchmark process that imports the program, apart from
the set-up probes it starts.  It runs closed-loop passes over the job
list (one client, each job after the previous one returns) until
``seconds`` have passed, timing every ``cli.main`` call; after the first
pass, an untraced run stops mid-pass when the time is up.  The first
pass's outputs go to ``outputs`` as JSON lines; later passes must
reproduce them byte for byte.  With ``trace`` set, passes alternate
untraced and traced, run whole, and the traced ones yield the per-layer
numbers.  With ``setup_probes`` set, it starts that many fresh
interpreters, evenly spread over the run and between jobs, each of which
times ``import emdenseries`` plus ``cli.main(["presets"])``
(``setup_s``); spreading them over the run lets their median see the
same host as the jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from emdenseries import cli  # noqa: E402

SETUP_CODE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import emdenseries
from emdenseries import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["presets"])
t1 = time.perf_counter()
print(repr(t1 - t0) if rc == 0 else "failed")
"""


def probe_setup() -> float:
    """Seconds a fresh interpreter takes to import the package and list
    the presets; this process's import has already compiled the bytecode."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, os.path.join(ROOT, "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or proc.stdout.strip() == "failed":
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def run_job(argv):
    """(exit code or None, stdout, stderr, exception text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    exc_text = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            rc, exc_text = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), exc_text, t1 - t0


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    jobs = spec["jobs"]
    tracer = None
    if spec["trace"]:
        from spans import SELF_TIME_METRICS, Tracer
        tracer = Tracer()
    digests = [None] * len(jobs)
    status = [{"rc": None, "exc": "", "stable": True} for _ in jobs]
    passes = []
    layer_runs = []
    solve_floats = {}
    setup_s = []
    probes = spec["setup_probes"]
    for argv in jobs[: spec["warmup"]]:
        run_job(argv)
    start = time.perf_counter()
    with open(spec["outputs"], "w") as outputs:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            latencies = []
            errors = 0
            try:
                for i, argv in enumerate(jobs):
                    elapsed = time.perf_counter() - start
                    if tracer is None and passes and elapsed >= spec["seconds"]:
                        break
                    if len(setup_s) < probes and elapsed >= len(setup_s) * spec["seconds"] / probes:
                        setup_s.append(probe_setup())
                    if traced:
                        tracer.job = i
                    rc, out, err, exc_text, dt = run_job(argv)
                    latencies.append(dt)
                    errors += rc != 0
                    digest = hashlib.blake2b((f"{rc}\0{exc_text}\0{out}\0{err}").encode()).digest()
                    if digests[i] is None:
                        digests[i] = digest
                        status[i].update(rc=rc, exc=exc_text)
                        outputs.write(json.dumps({"stdout": out, "stderr": err}) + "\n")
                    elif digest != digests[i]:
                        status[i]["stable"] = False
            finally:
                if traced:
                    tracer.uninstall()
            passes.append({"traced": traced, "latencies": latencies})
            if traced:
                layer_runs.append(tracer.layer_metrics(errors))
                if not solve_floats:
                    solve_floats = tracer.top_level_float_solves()
                    tracer.write_spans(spec["spans"])
            done = time.perf_counter() - start >= spec["seconds"]
            if done and (tracer is None or len(passes) >= 2):
                break
    while len(setup_s) < probes:
        setup_s.append(probe_setup())
    layers, layer_self_ms = {}, {}
    if layer_runs:
        # the traced pass with the median cli.main time, whole, so that its
        # layer self times still add up to its cli.main time
        layers = sorted(layer_runs, key=lambda r: r["cli.main_ms"])[(len(layer_runs) - 1) // 2]
        layer_self_ms = {k: layers[k] for k in SELF_TIME_METRICS}
    result = {
        "passes": passes,
        "status": status,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": setup_s,
        "layers": layers,
        "layer_self_ms": layer_self_ms,
        "solve_floats": {str(k): v for k, v in solve_floats.items()},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
