"""The gap, exhibited: two pinned endpoints vs one.

Bounded-slope minimization of Mania's problem (boundary 0 and 1) cannot get
below a positive floor, while truncations of the minimizer pinned only at
t = 1 have energies at quadrature-noise level.
"""

from lavlab import mania_one_endpoint_truncations, mania_two_endpoint_scan

report = mania_two_endpoint_scan([100, 200], [5, 10], restarts=4)
print("two-endpoint bounded-slope scan (Mania):")
print(f"{'n':>6} {'M':>6} {'best energy':>14} {'iterations':>11} {'stop':>10} {'PG residual':>12}")
for r in report.rows:
    print(f"{r.mesh_n:6d} {r.slope_bound:6g} {r.best_energy:14.6e} {r.iterations:11d} "
          f"{r.stop_reason:>10} {r.pg_residual:12.2e}")
print(f"floor estimate   : {report.floor_estimate:.6e}")
print(f"minimizer energy : {report.reference_energy:.3e}")
print(f"gap estimate     : {report.gap_estimate:.6e}")

print("\none-endpoint truncations of t**(1/3):")
for n, e in mania_one_endpoint_truncations([1, 10, 100, 1000, 10000]):
    print(f"  n={n:6d}  F = {e:.3e}")
print("with only the final constraint, the energies vanish: no gap remains.")
