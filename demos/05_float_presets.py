"""The sinh and sin variants, which force float arithmetic.

With y(0) = 1 the seeds sinh(1), cosh(1), sin(1), cos(1) are
irrational, so rational mode refuses them and the solves run in double
precision.  Both have literature series to compare against; the sinh
one is quoted with sign slips at x^2, x^6 and x^8 that the comparison
flags (its x^4 and x^10 terms are fine).
"""

import math

from emdenseries import (
    Mode,
    PresetId,
    ProblemValidationError,
    build_preset,
    compare,
    reference_series,
    solve,
)

for name in ("sinh_case", "sin_case"):
    pid = PresetId(name)
    try:
        build_preset(pid, 10, Mode.RATIONAL)
    except ProblemValidationError as exc:
        print(f"{name} in rational mode: {exc}")

print()
sinh_series = solve(build_preset(PresetId("sinh_case"), 10, Mode.FLOAT)).series
print("sinh case: Y(2) =", sinh_series[2], "   -sinh(1)/6 =", -math.sinh(1) / 6)
print("           Y(4) =", sinh_series[4], "   sinh(1)cosh(1)/120 =",
      math.sinh(1) * math.cosh(1) / 120)

report = compare(sinh_series, reference_series(PresetId("sinh_case")))
print("quoted-series indices flagged:", report.mismatched_indices(1e-9))
row = report.coeff_deltas[2]
print(f"  x^2: computed {row.a:.12f} (= -sinh(1)/6), quoted {row.b:.12f} (= -cosh(1)/6)")

print()
sin_series = solve(build_preset(PresetId("sin_case"), 10, Mode.FLOAT)).series
report = compare(sin_series, reference_series(PresetId("sin_case")))
print("sin case: worst coefficient rel delta vs quoted series:",
      f"{max(d.rel_delta for d in report.coeff_deltas):.2e}")
print("sin case coefficients:")
for k, c in enumerate(sin_series.coeffs):
    if c:
        print(f"  x^{k:<2} {c: .17g}")
