"""Exception taxonomy shared across the package."""

from __future__ import annotations


class LavlabError(Exception):
    """Base class for all package errors."""


class ArgumentError(LavlabError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(LavlabError, ValueError):
    """A point lies outside the domain of a trajectory or integrand."""


class CatalogKeyError(LavlabError, KeyError):
    """Unknown Lagrangian id."""


class SamplingError(LavlabError, ValueError):
    """A function produced a non-finite value at a mesh node."""


class SingularPointError(LavlabError, ValueError):
    """Partial derivatives requested at a point where the Lagrangian is extended."""


class UnsupportedLagrangianError(LavlabError, ValueError):
    """Operation requires a structural flag (autonomous, convex) the integrand
    lacks, or derivatives it does not state (neither partials nor a jet)."""


class ConsistencyError(LavlabError, RuntimeError):
    """Internal invariant broken; indicates a bug, not bad input."""


class InfeasibleError(LavlabError, RuntimeError):
    """The compensation set cannot be chosen at this slope threshold.

    Attributes:
        k_hint: smallest threshold (from a doubling scan) at which the
            construction becomes feasible, or None if the scan failed.
    """

    def __init__(self, message: str, k_hint: float | None = None):
        super().__init__(message)
        self.k_hint = k_hint


class ConfigError(LavlabError, ValueError):
    """Invalid CLI/run configuration; message aggregates all issues."""
