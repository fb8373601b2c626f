"""Relaxation at desk scale: direct solves against the envelope functional.

The nonconvex double-well functional has no minimizer in the well gap: its
infimum is reached through ever finer oscillations.  Refining the grid lets
the direct solves track that infimum from above, while a single solve with
the interpolated envelope pins the relaxed value from below.  The gap
between the two shrinks as the oscillations resolve.
"""

from mixvar import (
    DirichletProblem,
    EnvelopeOptions,
    SolveOptions,
    builtin,
    relax_compare,
    solve_dirichlet,
    tabulate_envelope,
)

F = builtin("double_well", w=1.0, n=1, m=1)
a = (2,)

# The envelope table needs to be better converged than anything the direct
# solves will reach, so it gets the full refinement ladder.
print("tabulating the envelope (refinement ladder to 129 nodes)...")
table = tabulate_envelope(
    F, a, [(-2.0, 2.0, 21)],
    EnvelopeOptions(resolution=129, multistart=8, maxiter=2000, seed=1),
    levels=(17, 33, 65, 129),
)

# Dirichlet datum 0: the barycentre of the gradient field is pinned at the
# well midpoint, where F = 1 but the envelope vanishes.
prob = DirichletProblem(a, ((-1.0, 1.0),), F, {(0,): 0.0}, 9)
report = relax_compare(prob, table, refinement_levels=3,
                       opts=SolveOptions(seed=2, multistart=2, perturbation=0.05))

print("\nlevel  resolution   E_F        gap")
for lev, res, ef, gap in zip(report.levels, report.resolutions, report.E_F, report.gaps):
    print(f"{lev:4d}   {res[0]:6d}   {ef:9.5f}  {gap:9.5f}")
print(f"\nenvelope solve E_QF = {report.E_QF:.5f}")
print(f"lower bound holds at every level: {report.lower_bound_ok}")
print(f"relaxation gap detected: {not report.no_gap_detected}")

# For contrast, a convex problem has no gap at all: the datum itself is the
# minimizer and envelope and integrand agree.
G = builtin("pnorm", p=2, n=1, m=1)
conv_prob = DirichletProblem(a, ((-1.0, 1.0),), G, {(2,): 0.4}, 9)
conv_res = solve_dirichlet(conv_prob, SolveOptions(seed=3))
print(f"\nconvex control: solver energy {conv_res.energy:.6f} "
      f"(= |volume| x F(datum gradient))")
