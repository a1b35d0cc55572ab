"""Capping slopes by a time change without losing energy.

For an integrand convex in the velocity, any finite-energy trajectory can
be time-changed into one with slopes at most 2k whose energy exceeds the
original by at most 1/k, once k is large enough.  The sweep below shows the
onset: |S_k| is the measure where slopes exceed k, |A_k| the compensating
half-speed set with |A_k| = 2 * deficit.
"""

import numpy as np

from lavlab import FindKReport, KRow, ReparInput, catalog, graded_mesh, sample

spec = catalog("sqrt_chain")
y = sample(np.sqrt, graded_mesh(0.0, 1.0, 4096, 2.0))
print(f"input: max slope {y.lipschitz_constant:.1f}, boundary {y.boundary}")

grid = [2, 4, 8, 16, 32, 64, 128, 256]
print(f"\n{'k':>6} {'|S_k|':>12} {'|A_k|':>12} {'Lip(y_k)':>10} "
      f"{'F(y_k)-F(y)':>14} {'1/k':>10}")
prepared = ReparInput.of(spec, y)  # lambda, F(y) and Lip(y) once for the sweep
rows = []
for k in grid:
    res = prepared.cap(k)
    rows.append(KRow.of(res))  # the same run judged against the 1/k bound
    print(f"{k:6d} {res.plan.measure_s:12.3e} {res.plan.measure_a:12.3e} "
          f"{res.lip_after:10.2f} {res.gap:14.6e} {1 / k:10.4g}")

print(f"\nenergy excess <= 1/k for every grid k >= {FindKReport.of(rows).K}")

print("\nthe same cap applied to sqrt(t) under the extended half-inverse")
print("integrand keeps the energy finite (it slows the steep first cells):")
prepared = ReparInput.of(catalog("half_inverse"), y)
for k in (4, 16, 64):
    res = prepared.cap(k)
    print(f"  k={k:3d}  Lip(y_k)={res.lip_after:7.2f}  F(y_k)={res.energy_after:.4f}")
