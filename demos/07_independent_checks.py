"""Ways to check a series solution without trusting the recurrence.

Three independent instruments:

* residuals: push the candidate back through the x-multiplied operator
  x y'' + p y' + a x f(x) g(y); a true order-N solution leaves zeros in
  every coefficient up to N, and a lower-order solution shows exactly
  where its information runs out;
* off-origin integration: a Dormand-Prince 5(4) integrator started just
  off the singular point, seeded from the series, marches to any target
  by quadrature rather than by coefficient algebra;
* order sweeps: at a fixed point the gap to the closed form should fall
  as the order grows.
"""

from emdenseries import (
    Mode,
    PresetId,
    build_preset,
    evaluate,
    exact_solution,
    residual_series,
    rk_trajectory,
    solve,
)

# Residual of the exact order-10 isothermal solution: identically zero.
problem = build_preset(PresetId("isothermal"), 10, Mode.RATIONAL)
series = solve(problem).series
print("residual of the order-10 solve:", set(residual_series(problem, series).coeffs))

# Re-examine an order-6 solution with order-10 arithmetic: coefficients
# 0..6 still vanish, index 7 is the first place truncation shows.
low = solve(build_preset(PresetId("isothermal"), 6, Mode.RATIONAL)).series
res = residual_series(problem, low.pad(10))
print("residual of the order-6 solve, order-10 arithmetic:")
print("  ", [str(c) for c in res.coeffs])

# The integrator agrees with the series to within its own tolerance
# wherever the series has converged.
print("\nseries vs integrator at x = 0.5:")
for name, m in (("lane_emden", 5), ("isothermal", None), ("example6", None)):
    pid = PresetId(name, m=m) if m is not None else (
        PresetId(name, a=1) if name == "example6" else PresetId(name))
    prob = build_preset(pid, 10, Mode.RATIONAL)
    series = solve(prob).series
    dtm = evaluate(series.to_float(), 0.5)
    (rk,) = rk_trajectory(prob, series, [0.5], tol=1e-10)
    print(f"  {name:<11} dtm = {dtm: .12f}   rk = {rk: .12f}   |diff| = {abs(dtm - rk):.2e}")

# Convergence at x = 0.5 as the order grows, against the closed form.
print("\norder sweep for lane_emden m=5 at x = 0.5:")
pid = PresetId("lane_emden", m=5)
for n in (4, 6, 8, 10, 12):
    s = solve(build_preset(pid, n, Mode.RATIONAL)).series.to_float()
    err = abs(evaluate(s, 0.5) - exact_solution(pid, 0.5))
    print(f"  N = {n:<3} |error| = {err:.3e}")
