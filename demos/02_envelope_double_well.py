"""Quasiconvex envelope of a double well, against a convex-hull oracle.

In one dimension with a = (2) the envelope of F(v) = (v^2 - 1)^2 coincides
with the convex hull: flat and equal to zero across the well gap [-1, 1].
The estimator minimizes the mean of F over zero-boundary test fields on
[-1, 1]; laminate-like starts let it discover the oscillating competitors.
"""

import numpy as np

from mixvar import EnvelopeOptions, builtin, dacorogna_min, dacorogna_refine, tabulate_envelope

F = builtin("double_well", w=1.0, n=1, m=1)
a = (2,)

# Point estimate at the well midpoint: F(0) = 1, envelope 0.
opts = EnvelopeOptions(resolution=129, multistart=16, maxiter=2000, seed=1)
est = dacorogna_min(F, 0.0, a, opts)
print(f"F(0) = {est.reference:.4f}, envelope estimate = {est.value:.5f}")
print(f"best start: {est.best_start} out of {est.n_starts}")

# Refinement ladder with B-spline subdivision warm starts.
values, _ = dacorogna_refine(F, 0.0, a, levels=(17, 33, 65), opts=EnvelopeOptions(multistart=8, seed=2))
print("ladder 17/33/65:", [round(v, 5) for v in values])

# Tabulate on [-2, 2] and compare to the hull oracle.
table = tabulate_envelope(F, a, [(-2.0, 2.0, 21)],
                          EnvelopeOptions(resolution=129, multistart=12, maxiter=800, seed=3))


def hull(v):
    return 0.0 if abs(v) <= 1.0 else (v**2 - 1.0) ** 2


vs = np.linspace(-2, 2, 21)
print("\n   v     envelope     hull")
for v, val in zip(vs, table.values):
    print(f"{v:+.1f}   {val:9.5f}   {hull(v):7.4f}")

worst = max(abs(val - hull(v)) / (1 + abs(float(F(np.array([[v]])))))
            for v, val in zip(vs, table.values))
print(f"\nmax relative deviation from the hull: {worst:.4f}")
