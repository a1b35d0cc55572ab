"""Energies of the known zero-energy minimizers, by graded refinement.

The minimizers sqrt(t) and t**(1/3) have unbounded derivatives at 0, so
their energies are approximated by sampling the exact profile and its exact
derivative at interior quadrature points of meshes graded toward the
singular endpoint.

Contrast: the energy of the *interpolant* of t**(1/3) under Mania's
integrand grows like (8/105)/h_1 as the mesh refines -- no interpolant
pinned at both endpoints can approach the minimizer's zero energy.
"""

import numpy as np

from lavlab import (EXACT_PROFILES, catalog, energy, energy_converged, graded_family,
                    graded_mesh, sample)


for ident, profile, power in (("mania", "cuberoot", 3.0),
                              ("half_inverse", "sqrt", 3.0),
                              ("sqrt_chain", "sqrt", 2.0)):
    family = graded_family(0.0, 1.0, 2 ** 12, power)  # 64, 128, ..., 4096 cells
    res = energy_converged(catalog(ident), *EXACT_PROFILES[profile], family, tol=1e-9)
    print(f"{ident:14s} minimizer energy = {res.value:.3e}  "
          f"(converged={res.converged}, cells={res.n_cells})")

print("\ninterpolant energies under mania (both endpoints pinned):")
spec = catalog("mania")
for n in (8, 32, 128, 512):
    y = sample(np.cbrt, graded_mesh(0, 1, n, 3.0))
    print(f"  n={n:4d}  F(interpolant)={energy(spec, y).value:.4e}   "
          f"(8/105)/h1={8 / 105 / y.mesh.widths[0]:.4e}")
print("the interpolant energies diverge: that gap is the point of the lab.")
