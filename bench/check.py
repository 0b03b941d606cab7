"""Checks one job's printed table against the benchmark's references.

A job fails on a wrong exit code, an exception, a malformed table, a
rational value that is not exactly the reference, an oracle column
(closed form or integrator) off the reference, or an ``abs_delta`` that
is not |dtm - oracle|.  Float series values never fail a job: their
correct digits are scored instead, at points inside the disc of
convergence, against the same-order polynomial with reference
coefficients (so the score isolates rounding, not truncation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

HEADERS = {"solve": ("k", "coefficient"), "eval": ("x", "y")}
ORACLE_RTOL = {"numeric": 1e-7, "exact": 1e-12}
DISC_SHARE = 0.8  # score points with |x| < DISC_SHARE * radius


@dataclass
class Reference:
    """Everything known about one problem, computed before timing."""

    coeffs: list  # exact Fractions, or certified Decimals
    radius: float
    values: dict = field(default_factory=dict)  # Fraction x -> float y(x)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    digits: list = field(default_factory=list)


class _Bad(Exception):
    pass


def _rows(text: str, fmt: str, header: tuple, count: int):
    if not text.endswith("\n"):
        raise _Bad("output does not end with a newline")
    lines = text[:-1].split("\n")
    rows = [line.split(",") if fmt == "csv" else line.split() for line in lines]
    if tuple(rows[0]) != header:
        raise _Bad(f"header {rows[0]!r}, expected {list(header)!r}")
    if len(rows) - 1 != count:
        raise _Bad(f"{len(rows) - 1} rows, expected {count}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise _Bad(f"row {row!r} has {len(row)} cells")
    return rows[1:]


def _float_cell(cell: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise _Bad(f"{cell!r} is not a number") from None
    if math.isfinite(v) and f"{v:.17g}" != cell:
        raise _Bad(f"{cell!r} is not printed with 17 significant digits")
    return v


def _x_cell(cell: str, x: Fraction, mode: str):
    want = str(x) if mode == "rational" else f"{float(x):.17g}"
    if cell != want:
        raise _Bad(f"x cell {cell!r}, expected {want!r}")


def _digits(r: Reference, order: int, x: Fraction, got: float, out: list):
    xf = float(x)
    if abs(xf) < DISC_SHARE * r.radius:
        value, scale = ref.poly_value_and_scale(r.coeffs[: order + 1], xf)
        out.append(ref.correct_digits(got, value, scale))


def check_job(job, rc, exc: str, stdout: str, r: Reference) -> Verdict:
    if exc:
        return Verdict(False, f"exception: {exc}")
    if rc != 0:
        return Verdict(False, f"exit code {rc}")
    digits = []
    try:
        if job.kind == "solve":
            rows = _rows(stdout, job.fmt, HEADERS["solve"], job.order + 1)
            for k, (kcell, vcell) in enumerate(rows):
                if kcell != str(k):
                    raise _Bad(f"index cell {kcell!r} at row {k}")
                if job.mode == "rational":
                    if vcell != str(r.coeffs[k]):
                        raise _Bad(f"coefficient {k} is {vcell}, expected {r.coeffs[k]}")
                else:
                    _float_cell(vcell)
        elif job.kind == "eval":
            rows = _rows(stdout, job.fmt, HEADERS["eval"], len(job.points))
            coeffs = r.coeffs[: job.order + 1]
            for x, (xcell, ycell) in zip(job.points, rows):
                _x_cell(xcell, x, job.mode)
                if job.mode == "rational":
                    want = str(ref.horner(coeffs, x))
                    if ycell != want:
                        raise _Bad(f"y({x}) = {ycell[:40]}..., expected {want[:40]}...")
                else:
                    _digits(r, job.order, x, _float_cell(ycell), digits)
        else:
            header = ("x", "dtm", job.against, "abs_delta")
            rows = _rows(stdout, job.fmt, header, len(job.points))
            for x, (xcell, dcell, ocell, deltacell) in zip(job.points, rows):
                _x_cell(xcell, x, "float")
                dtm, oracle, delta = _float_cell(dcell), _float_cell(ocell), _float_cell(deltacell)
                if delta != abs(dtm - oracle):
                    raise _Bad(f"abs_delta {deltacell} != |{dcell} - {ocell}| at x={x}")
                if job.against in ORACLE_RTOL:
                    want = r.values[x]
                    if not abs(oracle - want) <= ORACLE_RTOL[job.against] * max(1.0, abs(want)):
                        raise _Bad(f"{job.against} value {ocell} at x={x}, expected {want!r}")
                _digits(r, job.order, x, dtm, digits)
    except _Bad as bad:
        return Verdict(False, str(bad))
    return Verdict(True, digits=digits)


def bad_coefficients(got: list, r: Reference, min_digits: float = 6.0) -> int:
    """Float coefficients with fewer than ``min_digits`` correct digits,
    relative to the local coefficient magnitude."""
    return sum(1 for k, (g, c) in enumerate(zip(got, r.coeffs))
               if ref.correct_digits(g, c, ref.local_scale(r.coeffs, k)) < min_digits)
