"""lavlab: a desk-scale laboratory for one-dimensional variational energies.

Piecewise-linear trajectories and energy quadrature, a slope-capping time
reparametrization that preserves boundary values, residual checkers for the
first-order necessary conditions, and gap scans contrasting two-endpoint and
one-endpoint problems.
"""

from .errors import (ArgumentError, CatalogKeyError, ConfigError,
                     ConsistencyError, DomainError, InfeasibleError,
                     LavlabError, SamplingError, SingularPointError,
                     UnsupportedLagrangianError)
from .functional import (DEFAULT_ORDER, EXACT_PROFILES, ConvergenceResult,
                         EnergyReport, energy, energy_converged,
                         exact_profile_energy)
from .gapscan import (DEFAULT_SEED, GapReport, GapRow, cuberoot_truncation,
                      halfinverse_lower_bound, mania_one_endpoint_truncations,
                      mania_reference_energy, mania_two_endpoint_scan,
                      minimize_bounded, plateau_tent, sawtooth, sqrt_ramp)
from .lagrangian import (CATALOG_IDS, LagrangianSpec, brachistochrone_problem,
                         catalog, convexity_probe, minimal_surface,
                         polynomial_lagrangian)
from .necessary import (ResidualReport, catenary, dbr_residual, el_residual,
                        fit_catenary)
from .repar import (FindKReport, KRow, ReparInput, ReparPlan, ReparResult,
                    TangentCurve, choose_lambda, classify, find_K, lemma_P,
                    reparametrize, select_A)
from .trajectory import (Mesh, Trajectory, graded_family, graded_mesh, sample,
                         uniform_mesh)

__version__ = "0.1.0"
