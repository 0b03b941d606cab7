"""Seeded job lists for the three workloads.

A job is one ``emdenseries`` command line plus what the checker needs to
know about it.  Each workload has a fixed list of slots (problem family,
subcommand, size class); the seed picks orders, parameters, grids and
expression trees inside each slot, so that every seed costs about the
same to run and spreads between seeds stay small.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

F = Fraction

WORKLOADS = {
    "exact_highorder": (
        "rational solve and eval at orders 40-250 over every rational-capable "
        "preset: Fraction arithmetic in kernels and recurrence dominates"
    ),
    "float_sweep": (
        "float solve and eval of generated problems at orders 20-400: cheap "
        "arithmetic, so ExprState, CLI and parsing overhead dominate"
    ),
    "validate_numeric": (
        "compare against the Dormand-Prince oracle on all six presets: the "
        "integrator dominates, solve and kernels barely matter"
    ),
}


@dataclass
class Job:
    argv: list
    kind: str  # solve | eval | compare
    mode: str  # rational | float
    key: str  # problem key in Workload.problems
    order: int
    fmt: str = "text"
    points: list = field(default_factory=list)  # Fractions, eval/compare grids
    against: str = ""
    known_defect: str = ""  # what the program prints on stderr while a known defect lasts


@dataclass
class Workload:
    name: str
    jobs: list
    problems: dict  # key -> (reference.Problem, preset tuple or None)
    files: dict  # relative path -> text to write before running
    coeffs: dict = field(default_factory=dict)  # key -> reference coefficients already computed


def _grid_arg(lo: Fraction, hi: Fraction, step: Fraction) -> str:
    return f"{lo}:{hi}:{step}"


def _grid(lo, hi, step):
    out, x = [], lo
    while x <= hi:
        out.append(x)
        x += step
    return out


def _preset_key(name, m=None, a=None):
    if m is not None:
        return f"{name}:m={m}"
    if a is not None:
        return f"{name}:a={a}"
    return name


def _preset_argv(name, m=None, a=None):
    argv = ["--preset", name]
    if m is not None:
        argv += ["--param", f"m={m}"]
    if a is not None:
        argv += ["--param", f"a={a}"]
    return argv


def _jitter(rng, target: int, lo: int, hi: int) -> int:
    """An order within 1% of ``target``, clamped to [lo, hi]."""
    spread = max(1, round(target * 0.01))
    return min(hi, max(lo, target + rng.randint(-spread, spread)))


# --- exact_highorder --------------------------------------------------------

# The shipped rational problem files and the catalog problem each states.
SHIPPED_FILES = {
    "problems/example5.efp": ("example5", None, F(1)),
    "problems/example6.efp": ("example6", None, F(1)),
    "problems/isothermal.efp": ("isothermal", None, None),
    "problems/lane_emden_m5.efp": ("lane_emden", 5, None),
}
A_CHOICES = (F(1, 2), F(2, 3), F(3, 4), F(1), F(3, 2), F(2), F(5, 2), F(3))
# The seeded examples' ``a``, fixed: the size of ``a`` sets the size of
# every rational coefficient, so a seeded choice moved a pass by tens of
# percent between seeds.
EXACT_A = {"example5": (F(2, 3), F(5, 2)), "example6": (F(3, 4), F(3, 2))}
EXACT_HI = (F(3, 5), F(2, 3), F(3, 4), F(4, 5))  # eval grid ends of like size
# 32 orders from 40 to 250, denser at the low end (the exponent of the
# geometric spacing grows as the fourth power): 16 up to 44, 9 from 46 to
# 77, 7 from 87 to 250.  Each problem gets one from each half.  Cost grows
# like order^2.6, so this keeps a pass near 1 s while still reaching order
# 250.  A job's latency is its fastest pass, and on a shared host more
# passes make that steadier: with a 1.5 s pass, this workload's timings
# spread more between runs than those of the other two.
EXACT_ORDERS = tuple(round(40 * (250 / 40) ** ((i / 31) ** 4)) for i in range(32))


def exact_highorder(seed: int) -> Workload:
    rng = random.Random(f"exact_highorder:{seed}")
    # m = 3/2, the dearest per order, gets the third-highest order, not the second
    families = [("lane_emden", m, None) for m in (0, 1, 2, 3, 4, F(3, 2), 5)]
    families += [("isothermal", None, None)]
    families += [(name, None, a) for name, As in EXACT_A.items() for a in As]
    sources = [("preset", fam) for fam in families]
    sources += [("file", path) for path in SHIPPED_FILES]
    problems = {}
    jobs = []
    # two jobs per problem at orders far apart; one of them evals, at a
    # fixed number of points.  Which problem gets which orders, which job
    # evals and how many points it takes are fixed, so that the seed, which
    # picks the order within 1%, the grid's end and the format, moves the
    # cost of every job little.
    for i, (how, what) in enumerate(sources):
        fam = SHIPPED_FILES[what] if how == "file" else what
        key = _preset_key(*fam)
        problems[key] = (ref.preset_problem(*fam), fam)
        targets = [EXACT_ORDERS[16 * j + (i + 8 * j) % 16] for j in range(2)]
        eval_at = i % 2
        for j, target in enumerate(targets):
            order = _jitter(rng, target, 40, 250)
            fmt = rng.choice(("text", "csv"))
            source = ["--file", what] if how == "file" else _preset_argv(*fam) + ["--mode", "rational"]
            common = source + ["--order", str(order), "--format", fmt]
            if j == eval_at:
                hi = rng.choice(EXACT_HI)
                step = hi / (4 + i % 7)
                jobs.append(Job(["eval"] + common + ["--range", _grid_arg(F(0), hi, step)],
                                "eval", "rational", key, order, fmt, _grid(F(0), hi, step)))
            else:
                jobs.append(Job(["solve"] + common, "solve", "rational", key, order, fmt))
    rng.shuffle(jobs)
    return Workload("exact_highorder", jobs, problems, {})


# --- float_sweep ------------------------------------------------------------

# Leaf kinds by cost: a paired kernel (sin/cos, sinh/cosh) runs two
# convolutions per index, the others one.  Every tree position has a fixed
# class, so that each seed costs about the same; the seed picks the kind
# within its class, in turn, so that every kind appears across the workload.
KINDS = {"single": ("pow", "exp", "log"), "paired": ("sin", "cos", "sinh", "cosh")}
# Tree shapes, one per generated problem; the seed fills in the leaves.
SHAPES = (
    "sum2", "sum3", "sum4", "prod", "prod_sum", "pair", "repeat", "scaled",
) * 2 + ("sum3", "pair", "prod", "repeat")
FLOAT_ORDERS = (20, 40, 60, 90, 120, 160, 200, 250, 300, 350, 400)


def _quarter(rng, lo, hi, nonzero=False):
    while True:
        v = F(rng.randint(round(lo * 4), round(hi * 4)), 4)
        if v or not nonzero:
            return v


def _leaf(rng, kind, y0):
    if kind == "pow":
        # at y0 = 0 only nonnegative integer powers are regular
        ms = (F(2),) if y0 == 0 else (F(2), F(3), F(1, 2), F(3, 2), F(-1))
        return ("pow", rng.choice(ms))
    al = _quarter(rng, -1.5, 1.5, nonzero=True)
    if kind == "log":
        d = F(rng.randint(2, 8), 4)  # argument at y0, in [1/2, 2]
        return ("log", al, d - al * y0)
    return (kind, al)


def _tree(rng, shape, pools, y0):
    """Random nonlinearity of the given shape; ``pools`` holds the kinds
    still to be drawn in each cost class."""
    def leaf(cls):
        if not pools[cls]:
            pools[cls].extend(rng.sample(KINDS[cls], len(KINDS[cls])))
        return _leaf(rng, pools[cls].pop(), y0)

    def scaled(node):
        return ("scale", _quarter(rng, -2, 2, nonzero=True), node)

    if shape.startswith("sum"):
        classes = ("single", "paired", "single")[: int(shape[3])]
        terms = tuple(scaled(leaf(c)) for c in classes)
        return ("sum", terms + ((("y",),) if shape == "sum4" else ()))
    if shape == "prod":
        return ("sum", (("prod", (leaf("single"), leaf("paired"))), scaled(leaf("single"))))
    if shape == "prod_sum":
        return ("prod", (("sum", (leaf("single"), ("const", _quarter(rng, 0.5, 2)))), leaf("paired")))
    if shape == "pair":
        # sin(a y) + cos(a y) style: two leaves over one argument
        al = _quarter(rng, -1.5, 1.5, nonzero=True)
        first, second = rng.choice((("sin", "cos"), ("sinh", "cosh")))
        return ("sum", ((first, al), scaled((second, al)), scaled(leaf("single"))))
    if shape == "repeat":
        # (1 + c + y) * leaf, written out; c = -1 would leave y * leaf
        node = leaf("single")
        c = rng.choice((F(-2), F(-3, 2), F(-1, 2), F(1, 2), F(1), F(3, 2)))
        return ("sum", (node, ("prod", (("y",), node)), ("scale", c, node)))
    return scaled(("sum", (leaf("single"), leaf("paired"))))


def _float_problem(rng, shape, pools):
    y0 = rng.choice((F(0), F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2)))
    p = F(rng.randint(2, 32), 4)
    a = _quarter(rng, -1, 1, nonzero=True)
    f = [F(1)] + [_quarter(rng, -1, 1) for _ in range(rng.randint(1, 3))]
    if not any(f[1::2]):
        f[1] = _quarter(rng, -1, 1, nonzero=True)
    return ref.Problem(p, a, tuple(f), _tree(rng, shape, pools, y0), y0)


def float_sweep(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"float_sweep:{seed}")
    problems, jobs, files = {}, [], {}
    pools = {cls: [] for cls in KINDS}
    coeffs = {}
    for i, shape in enumerate(SHAPES):
        key = f"gen{i}"
        targets = (FLOAT_ORDERS[i % 4], FLOAT_ORDERS[4 + i % 4], FLOAT_ORDERS[8 + i % 3])
        orders = [_jitter(rng, target, 20, 400) for target in targets]
        while True:
            pb = _float_problem(rng, shape, pools)
            # keep problems whose coefficients stay well inside float range
            # and whose reference the Decimal recurrence can certify
            try:
                coeffs[key] = ref.series_coeffs(pb, max(orders), exact=False)
            except ArithmeticError:
                continue
            if ref.radius_estimate(coeffs[key]) > 0.6:
                break
        problems[key] = (pb, None)
        for j, order in enumerate(orders):
            path = os.path.join(workdir, f"{key}_{order}.efp")
            files[path] = ref.problem_file(pb, order, "float")
            fmt = rng.choice(("text", "csv"))
            common = ["--file", path, "--format", fmt]
            if j == 1:
                jobs.append(Job(["solve"] + common, "solve", "float", key, order, fmt))
            else:
                jobs.append(_float_eval(rng, common, key, order, fmt))
    # the catalog float problems, example6 at the orders where it loses digits
    for name, a, target, kind in (("example6", F(1), 150, "solve"),
                                  ("example6", rng.choice(A_CHOICES[:4]), 130, "eval"),
                                  ("sin_case", None, 300, "solve"),
                                  ("sinh_case", None, 200, "eval")):
        key = _preset_key(name, a=a)
        problems[key] = (ref.preset_problem(name, a=a), (name, None, a))
        order = _jitter(rng, target, 110, 400)
        fmt = rng.choice(("text", "csv"))
        common = _preset_argv(name, a=a) + ["--order", str(order), "--format", fmt]
        if kind == "solve":
            jobs.append(Job(["solve"] + common, "solve", "float", key, order, fmt))
        else:
            jobs.append(_float_eval(rng, common, key, order, fmt))
    rng.shuffle(jobs)
    return Workload("float_sweep", jobs, problems, files, coeffs)


def _float_eval(rng, common, key, order, fmt):
    # the grid stays within [0, 1/2]; the checker only scores points
    # inside the estimated disc of convergence
    hi = F(rng.randint(5, 10), 20)
    step = hi / rng.randint(7, 9)
    return Job(["eval"] + common + ["--range", _grid_arg(F(0), hi, step)],
               "eval", "float", key, order, fmt, _grid(F(0), hi, step))


# --- validate_numeric -------------------------------------------------------

# (family, parameter, against, points): the family and its parameter (m
# for lane_emden, a for the examples) pick the preset, the point count the
# grid size; None points means the default grid 0..2 step 0.1.  The
# parameter sets how hard the problem is for the integrator, so it is fixed
# per slot; the seed picks the order, the format and where the grid ends,
# none of which moves a job's cost by more than a few percent.  The
# examples cost the integrator 6-12 ms per point, the other presets 1-2 ms,
# so the examples get the small grids: a pass then takes under a second,
# and a job's fastest pass is drawn from more passes.
NUMERIC_SLOTS = [
    ("lane_emden", 1, "numeric", 4), ("lane_emden", 2, "numeric", 12),
    ("lane_emden", 3, "numeric", 24), ("lane_emden", 4, "numeric", None),
    ("lane_emden", 5, "numeric", 8), ("lane_emden", F(3, 2), "numeric", 16),
    ("isothermal", None, "numeric", 5), ("isothermal", None, "numeric", 15),
    ("isothermal", None, "numeric", 30), ("isothermal", None, "numeric", 10),
    ("sinh_case", None, "numeric", 3), ("sinh_case", None, "numeric", 20),
    ("sinh_case", None, "numeric", 12), ("sinh_case", None, "numeric", None),
    ("sin_case", None, "numeric", 6), ("sin_case", None, "numeric", 25),
    ("sin_case", None, "numeric", 10), ("sin_case", None, "numeric", 16),
    ("example5", F(1, 2), "numeric", 4), ("example5", F(3, 4), "numeric", 6),
    ("example5", F(2), "numeric", 8), ("example5", F(2, 3), "numeric", 3),
    ("example6", F(1, 2), "numeric", 5), ("example6", F(2), "numeric", 4),
    ("example6", F(3, 4), "numeric", 6), ("example6", F(1), "numeric", 7),
    ("example6", F(3, 2), "numeric", 3), ("lane_emden", 2, "numeric", 20),
    ("isothermal", None, "numeric", 22), ("sin_case", None, "numeric", 28),
    ("example5", F(3, 2), "numeric", 5), ("lane_emden", 5, "numeric", 30),
    ("sinh_case", None, "numeric", 26),
    ("lane_emden", 0, "exact", 10), ("example5", F(1), "exact", 20),
    ("example6", F(2, 3), "exact", None), ("lane_emden", 5, "exact", 15),
    ("isothermal", None, "reference", 10), ("sin_case", None, "reference", None),
    ("sinh_case", None, "reference", 12),
]
GRID_UNIT = F(1, 40)  # every grid point is a multiple of this
GRID_END = 76  # grids end between 76 and 80 grid units, 1.9 to 2
# A known defect, kept in the mix so that it shows.  At m = 0 the solution
# is a quadratic, the integrator's error estimate is exactly zero, steps
# grow fivefold, and rk_oracle stops with "step size underflow" (at x = 0.9
# on the default grid, whatever the order).  While the program fails in
# exactly this way the job is listed with its cause on every run and counts
# in cli.errors; once it prints a table, the table is checked like any other.
KNOWN_DEFECT = (("lane_emden", 0, None), "numeric", None, "step size underflow")


def _compare_job(rng, problems, fam, against, npoints, known_defect=""):
    name, m, a = fam
    key = _preset_key(name, m, a)
    problems[key] = (ref.preset_problem(name, m, a), fam)
    order = rng.randint(20, 40)
    fmt = rng.choice(("text", "csv"))
    argv = ["compare"] + _preset_argv(name, m, a) + [
        "--order", str(order), "--against", against, "--format", fmt]
    if npoints is None:
        points = [F(i, 10) for i in range(21)]
    else:
        # npoints points at a fixed spacing, on the grid unit
        step_units = max(1, GRID_END // npoints)
        hi_units = GRID_END + rng.randint(0, 4)
        lo_units = hi_units - step_units * (npoints - 1)
        lo, hi, step = lo_units * GRID_UNIT, hi_units * GRID_UNIT, step_units * GRID_UNIT
        argv += ["--range", _grid_arg(lo, hi, step)]
        points = _grid(lo, hi, step)
    return Job(argv, "compare", "float", key, order, fmt, points, against, known_defect)


def validate_numeric(seed: int) -> Workload:
    rng = random.Random(f"validate_numeric:{seed}")
    problems, jobs = {}, []
    for name, param, against, npoints in NUMERIC_SLOTS:
        m = param if name == "lane_emden" else None
        a = param if name in ("example5", "example6") else None
        jobs.append(_compare_job(rng, problems, (name, m, a), against, npoints))
    jobs.append(_compare_job(rng, problems, *KNOWN_DEFECT))
    rng.shuffle(jobs)
    return Workload("validate_numeric", jobs, problems, {})


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "exact_highorder":
        return exact_highorder(seed)
    if name == "float_sweep":
        return float_sweep(seed, workdir)
    if name == "validate_numeric":
        return validate_numeric(seed)
    raise ValueError(f"unknown workload {name!r}")
