"""Levels under potential ordering, shifts, and the attainment signature.

Three computable consequences of the variational structure:

  1. a pointwise larger potential cannot lower the level;
  2. the level moves continuously with a constant shift of V;
  3. a potential strictly below its own limit at infinity pushes the level
     strictly under the limiting level, the signature that the infimum is
     attained rather than lost to translation; a potential above its limit,
     such as a hump, leaves the level above it, and is reported not attained.
"""

from fracnls import (
    Potential,
    SolverConfig,
    compare_c_to_c_infinity,
    compare_levels,
    continuity_sweep,
    level_c,
    make_grid,
    make_problem,
    power_nonlinearity,
)

grid = make_grid(20.0, 512)
cfg = SolverConfig(grad_tol=1e-6)
well = Potential.from_expr("2.0 - 1.0/(1.0 + t**2)", V0=1.0, V_inf=2.0,
                           radial_increasing=True, below_Vinf=True)
hump = Potential.from_expr("1.0 + 1.0/(1.0 + t**2)", V0=1.0, V_inf=1.0)
prob = make_problem(grid, 0.75, power_nonlinearity(3.0), well)

for name, p in (("well potential V = 2 - 1/(1 + t^2), V_inf = 2", prob),
                ("hump potential V = 1 + 1/(1 + t^2), V_inf = 1", prob.with_potential(hump))):
    out = compare_c_to_c_infinity(p, level_c(p, cfg=cfg), cfg)
    print(name)
    print(f"  c         = {out.c:.10f}")
    print(f"  c_inf     = {out.c_infinity:.10f}")
    print(f"  c_inf - c = {out.c_infinity - out.c:+.6f}  attained: {out.attained}")

cmp = compare_levels(well.shifted(0.3), well, prob, cfg=cfg)
print(f"\nordering: c(V + 0.3) = {cmp.c_a:.6f} >= c(V) = {cmp.c_b:.6f}"
      f"  margin {cmp.margin:.6f}  ordered: {cmp.ordered}")

table = continuity_sweep(prob, [0.4, 0.2, 0.1, 0.05], cfg=cfg)
print(f"\ncontinuity in the shift (base c = {table.c_base:.8f})")
for row in table.rows:
    print(f"  eps = {row.eps:<5} c = {row.c:.8f}  |c - c0| = {abs(row.c - table.c_base):.2e}")
print(f"  monotone: {table.monotone}, moduli decreasing: {table.moduli_decreasing}")
