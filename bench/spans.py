"""Spans around the public functions of each emdenseries module.

The tracer replaces a function by a wrapper at every module that imported
it by name (``evaluate`` lives in ``series`` but is called through
``cli`` and ``validation`` too), records one span per call in flat
arrays (name, start, end, parent, job) and restores the originals on
``uninstall``.  A span's self time is its duration minus the durations
of its direct children; calls nest strictly in one thread, so the self
times of all spans add up to the time of the root ``cli.main`` spans,
and ``Tracer.layer_metrics`` asserts that the reported per-layer self
times do.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

from emdenseries import cli, expr, kernels, problem, series, solver, validation

MODULES = (series, kernels, expr, problem, solver, validation, cli)

KERNEL_KINDS = {
    kernels.PowerKernel: "power",
    kernels.ExpKernel: "exp",
    kernels.LogKernel: "log",
    kernels.SinCosKernel: "sincos",
    kernels.SinhCoshKernel: "sinhcosh",
}

# span names; the part before the dot is the layer (module)
NAMES = (
    "cli.main", "problem.load", "solver.solve", "expr.advance", "expr.validate_expr",
    "series.guarded_sum", "series.evaluate_rational", "series.evaluate_float",
    "validation.rk_oracle", "validation.compare",
    *(f"kernels.{k}" for k in KERNEL_KINDS.values()),
)
NAME_ID = {n: i for i, n in enumerate(NAMES)}

# The reported per-layer self times (each span's duration minus its traced
# children's); together they must cover the traced cli.main time.
SELF_TIME_METRICS = (
    *(f"kernels.{k}_ms" for k in KERNEL_KINDS.values()),
    "series.guarded_sum_ms", "series.evaluate_rational_ms", "series.evaluate_float_ms",
    "solver.self_ms", "expr.self_ms", "validation.self_ms", "validation.compare_ms",
    "problem.load_ms", "cli.self_ms",
)


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1
        self.reports = []  # (span index, SolveReport)
        self.oracle_paths = []  # (job, x_start, x_target)
        self.rhs_evals = 0

    # -- recording ----------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.job_of.append(self.job)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _span(self, fn, name_of, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(NAME_ID[name_of(args)])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return wrapper

    def _count_rhs(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.rhs_evals += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, module, name, make_wrapper):
        """Point every module attribute bound to ``module.name`` at its
        wrapper.  A missing function is an error: the tracer has to change
        with the program, or its metrics would silently read zero."""
        original = getattr(module, name, None)
        _require(original is not None, f"{module.__name__}.{name} is gone; update bench/spans.py")
        replacement = make_wrapper(original)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, attr, make_wrapper):
        """Wrap the class in ``cls``'s MRO that defines ``attr``."""
        owner = next((c for c in cls.__mro__ if attr in c.__dict__), None)
        _require(owner is not None, f"{cls.__name__}.{attr} is gone; update bench/spans.py")
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self):
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        def span(name, after=None):
            return lambda fn: self._span(fn, lambda args: name, after)

        def on_solve(idx, args, kwargs, report):
            self.reports.append((idx, report))

        def on_oracle(idx, args, kwargs, result):
            x_start = kwargs.get("x_start", args[2] if len(args) > 2 else 1e-3)
            self.oracle_paths.append((self.job, float(x_start), float(args[1])))

        def evaluate_name(args):
            return ("series.evaluate_rational" if args[0].mode is series.Mode.RATIONAL
                    else "series.evaluate_float")

        def kernel_name(args):
            return "kernels." + KERNEL_KINDS[type(args[0])]

        for module, name, wrap in (
            (cli, "main", span("cli.main")),
            (problem, "parse_problem_file", span("problem.load")),
            (problem, "build_preset", span("problem.load")),
            (solver, "solve", span("solver.solve", on_solve)),
            (expr, "validate_expr", span("expr.validate_expr")),
            (series, "guarded_sum", span("series.guarded_sum")),
            (series, "evaluate", lambda fn: self._span(fn, evaluate_name)),
            (validation, "rk_oracle", span("validation.rk_oracle", on_oracle)),
            (validation, "compare", span("validation.compare")),
            (validation, "compare_pointwise", span("validation.compare")),
            (validation, "reference_series", span("validation.compare")),
        ):
            self._replace_everywhere(module, name, wrap)
        # only the integrator's calls: evaluate_scalar also recurses through
        # its own module global
        _require(hasattr(validation, "evaluate_scalar"),
                 "validation.evaluate_scalar is gone; update bench/spans.py")
        self._patches.append((validation, "evaluate_scalar", validation.evaluate_scalar))
        validation.evaluate_scalar = self._count_rhs(validation.evaluate_scalar)
        self._replace_method(expr.ExprState, "advance", span("expr.advance"))
        for cls in KERNEL_KINDS:
            self._replace_method(cls, "advance", lambda fn: self._span(fn, kernel_name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per-span self time (duration minus direct children)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def layer_metrics(self, job_errors: int) -> dict:
        """Per-layer numbers for one traced pass, with consistency checks
        against the program's own counts."""
        dur, own = self.self_times()
        n = len(self.name)
        total = {name: 0.0 for name in NAMES}
        selft = {name: 0.0 for name in NAMES}
        calls = {name: 0 for name in NAMES}
        seed_calls = 0
        oracle_solves = 0
        validate_id = NAME_ID["expr.validate_expr"]
        oracle_id = NAME_ID["validation.rk_oracle"]
        solve_id = NAME_ID["solver.solve"]
        kernel_ids = {NAME_ID[f"kernels.{k}"] for k in KERNEL_KINDS.values()}
        for i in range(n):
            name = NAMES[self.name[i]]
            total[name] += dur[i]
            selft[name] += own[i]
            calls[name] += 1
            p = self.parent[i]
            parent_id = self.name[p] if p >= 0 else -1
            if parent_id == validate_id and self.name[i] in kernel_ids:
                seed_calls += 1
            elif parent_id == oracle_id and self.name[i] == solve_id:
                oracle_solves += 1

        root = total["cli.main"]
        kernel_spans = sum(calls[f"kernels.{k}"] for k in KERNEL_KINDS.values())
        kernel_calls = sum(r.kernel_calls for _, r in self.reports)
        _require(kernel_spans - seed_calls == kernel_calls,
                 f"traced kernel calls {kernel_spans} - seeds {seed_calls} "
                 f"!= SolveReport.kernel_calls {kernel_calls}")

        coeffs = sum(len(r.series.coeffs) for _, r in self.reports)
        bits = [c.numerator.bit_length() + c.denominator.bit_length()
                for _, r in self.reports if r.series.mode is series.Mode.RATIONAL
                for c in r.series.coeffs]
        ms = 1000.0
        out = {}
        for kind in KERNEL_KINDS.values():
            out[f"kernels.{kind}_ms"] = selft[f"kernels.{kind}"] * ms
            out[f"kernels.{kind}_calls"] = calls[f"kernels.{kind}"]
        out["series.guarded_sum_ms"] = selft["series.guarded_sum"] * ms
        out["series.guarded_sum_calls"] = calls["series.guarded_sum"]
        out["series.evaluate_rational_ms"] = selft["series.evaluate_rational"] * ms
        out["series.evaluate_float_ms"] = selft["series.evaluate_float"] * ms
        out["series.evaluate_calls"] = (calls["series.evaluate_rational"]
                                        + calls["series.evaluate_float"])
        out["solver.solve_ms"] = total["solver.solve"] * ms
        out["solver.self_ms"] = selft["solver.solve"] * ms
        out["solver.solve_calls"] = calls["solver.solve"]
        out["solver.coeffs"] = coeffs
        out["solver.warnings"] = sum(len(r.warnings) for _, r in self.reports)
        out["solver.coeff_bits_max"] = max(bits, default=0)
        out["expr.advance_ms"] = total["expr.advance"] * ms
        out["expr.self_ms"] = (selft["expr.advance"] + selft["expr.validate_expr"]) * ms
        out["expr.advance_calls"] = calls["expr.advance"]
        out["expr.kernel_calls"] = kernel_calls
        out["expr.kernel_calls_per_coeff"] = kernel_calls / coeffs if coeffs else 0.0
        out["validation.rk_oracle_ms"] = total["validation.rk_oracle"] * ms
        out["validation.self_ms"] = selft["validation.rk_oracle"] * ms
        out["validation.rk_oracle_calls"] = calls["validation.rk_oracle"]
        out["validation.oracle_solves"] = oracle_solves
        out["validation.rhs_evals"] = self.rhs_evals
        out["validation.path_ratio"] = _path_ratio(self.oracle_paths)
        out["validation.compare_ms"] = selft["validation.compare"] * ms
        out["problem.load_ms"] = selft["problem.load"] * ms
        out["problem.load_calls"] = calls["problem.load"]
        out["cli.self_ms"] = selft["cli.main"] * ms
        out["cli.errors"] = job_errors
        out["cli.main_ms"] = root * ms
        # every span name must feed exactly one reported self time
        layer_sum = sum(out[k] for k in SELF_TIME_METRICS)
        _require(abs(layer_sum - out["cli.main_ms"]) <= 1e-6 * max(out["cli.main_ms"], 1.0),
                 f"reported layer self times {layer_sum} ms do not add up to "
                 f"cli.main {out['cli.main_ms']} ms")
        return out

    def top_level_float_solves(self) -> dict:
        """job -> float coefficients of the solve each job ran itself."""
        main_id = NAME_ID["cli.main"]
        out = {}
        for idx, report in self.reports:
            p = self.parent[idx]
            if (p >= 0 and self.name[p] == main_id
                    and report.series.mode is series.Mode.FLOAT):
                out[self.job_of[idx]] = list(report.series.coeffs)
        return out

    def write_spans(self, path: str):
        """One tab-separated line per span; times in microseconds from the
        first span's start, parent as a line number (-1 for a root)."""
        _, own = self.self_times()
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_us\tend_us\tself_us\tparent\tjob\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{NAMES[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.3f}\t"
                         f"{(self.end[i] - t0) * 1e6:.3f}\t{own[i] * 1e6:.3f}\t"
                         f"{self.parent[i]}\t{self.job_of[i]}\n")


def _path_ratio(paths) -> float:
    """Integrated x-length over the length of the union of each job's paths."""
    by_job = {}
    for job, lo, hi in paths:
        by_job.setdefault(job, []).append((lo, hi))
    integrated = union = 0.0
    for intervals in by_job.values():
        integrated += sum(hi - lo for lo, hi in intervals)
        covered = -math.inf
        for lo, hi in sorted(intervals):
            union += max(0.0, hi - max(lo, covered))
            covered = max(covered, hi)
    return integrated / union if union else 0.0


class TraceMismatch(RuntimeError):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise TraceMismatch(message)
