"""The gap, exhibited: two pinned endpoints vs one.

Bounded-slope minimization of Mania's problem (boundary 0 and 1) cannot get
below a positive floor, while truncations of the minimizer pinned only at
t = 1 have energies at quadrature-noise level.  The same solver on the
autonomous, convex-in-v sqrt_chain, (2 y v - 1)^2, which has no gap, drives
its floor towards its infimum 0 as the slope bound grows.
"""

import numpy as np

from lavlab import (ReparInput, Trajectory, catalog, energy, graded_mesh,
                    mania_one_endpoint_truncations, mania_two_endpoint_scan,
                    minimize_bounded, sample)

report = mania_two_endpoint_scan([100, 200], [5, 10], restarts=4)
print("two-endpoint bounded-slope scan (Mania):")
print(f"{'n':>6} {'M':>6} {'best energy':>14} {'iterations':>11} {'stop':>10} {'PG residual':>12}")
for r in report.rows:
    print(f"{r.mesh_n:6d} {r.slope_bound:6g} {r.best_energy:14.6e} {r.iterations:11d} "
          f"{r.stop_reason:>10} {r.pg_residual:12.2e}")
print(f"floor estimate   : {report.floor_estimate:.6e}")
print(f"W^{{1,1}} infimum  : {report.reference_energy:g} exactly"
      "  (F >= 0, and y**3 - t vanishes along t**(1/3))")

print("\none-endpoint truncations of t**(1/3):")
for n, e in mania_one_endpoint_truncations([1, 10, 100, 1000, 10000]):
    print(f"  n={n:6d}  F = {e:.3e}")
print("with only the final constraint, the energies vanish: no gap remains.")

print("\ncontrol: the same solver without restarts on graded_mesh(0, 1, 50, 2)")
mesh, bounds = graded_mesh(0, 1, 50, 2), [2.0, 4.0, 8.0, 16.0]
control, mania = (minimize_bounded(catalog(ident), mesh, bounds, (0.0, 1.0), restarts=0)
                  for ident in ("sqrt_chain", "mania"))
# the proof's competitor: sqrt(t) capped at slope M by the time change, on the mesh
sqrt_chain = catalog("sqrt_chain")
prepared = ReparInput.of(sqrt_chain, sample(np.sqrt, graded_mesh(0, 1, 2 ** 14, 2)))
print(f"{'M':>6} {'sqrt_chain floor':>17} {'capped sqrt':>12} {'Mania floor':>12}")
for M, (_, free, _), (_, gapped, _) in zip(bounds, control, mania):
    witness = Trajectory(mesh, prepared.cap(M).y_k.eval(mesh.nodes))
    print(f"{M:6g} {free:17.4e} {energy(sqrt_chain, witness).value:12.4e} {gapped:12.4e}")
print("sqrt_chain's floor falls about fourfold per doubling of M, below the capped sqrt(t),\n"
      "a feasible point at bound M; Mania's floor stays above 0.025.")
