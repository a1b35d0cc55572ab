"""Capping slopes by a time change without losing energy.

For an integrand convex in the velocity, any finite-energy trajectory can
be time-changed into one with slopes at most 2k whose energy exceeds the
original by at most 1/k, once k is large enough.  The sweep below shows the
onset: |S_k| is the measure where slopes exceed k, and |A_k| = 2 * deficit
measures the compensating set, whose cells run at speed 1/2 but the last,
which runs whole at the speed in [1/2, 1] that saves the rest of the
deficit and closes the time change (|A_k| is the sum of 2 (1 - s_j) h_j
over its cells).
"""

import numpy as np

from lavlab import ReparInput, catalog, find_K, graded_mesh, sample

spec = catalog("sqrt_chain")
y = sample(np.sqrt, graded_mesh(0.0, 1.0, 4096, 2.0))
print(f"input: max slope {y.lipschitz_constant:.1f}, boundary {y.boundary}")

report = find_K(spec, y, [2, 4, 8, 16, 32, 64, 128, 256])  # each k judged against 1/k
print(f"\n{'k':>6} {'|S_k|':>12} {'|A_k|':>12} {'Lip(y_k)':>10} "
      f"{'F(y_k)-F(y)':>14} {'1/k':>10}")
for r in report.rows:
    print(f"{r.k:6g} {r.measure_s:12.3e} {r.measure_a:12.3e} "
          f"{r.lip:10.2f} {r.gap:14.6e} {1 / r.k:10.4g}")

print(f"\nenergy excess <= 1/k for every grid k >= {report.K}")

print("\nthe same cap applied to sqrt(t) under the extended half-inverse")
print("integrand keeps the energy finite (it slows the steep first cells):")
prepared = ReparInput.of(catalog("half_inverse"), y)
for k in (4, 16, 64):
    res = prepared.cap(k)
    print(f"  k={k:3d}  Lip(y_k)={res.lip_after:7.2f}  F(y_k)={res.energy_after:.4f}")
