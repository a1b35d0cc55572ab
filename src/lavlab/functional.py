"""Energy evaluation F(y) = integral of L(t, y, y') over [a, b].

Quadrature is composite Gauss-Legendre with interior nodes only, so an
integrable endpoint singularity of the integrand yields large-but-finite
samples; genuine divergence shows up as blow-up under refinement rather
than as an evaluation error.  Results are extended reals: any sample above
1e300 (or non-finite) makes the owning cell, and hence the total, +inf.

Every energy goes through one kernel, `cell_sums`, which walks the cells in
blocks and sums each cell's weighted samples left to right, so a cell's
bits depend neither on the BLAS build nor on the block it falls in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import ArgumentError
from .lagrangian import LagrangianSpec
from .trajectory import Mesh, Trajectory, sample

INF_THRESHOLD = 1e300

# Cells per kernel block: a block's (order, BLOCK) sample arrays stay in cache.
BLOCK = 2 ** 13

DEFAULT_ORDER = 5  # exact for the catalog's polynomial integrands per cell

# Relative step for differentiating an exactly-known profile at quadrature
# points; shrinks toward both endpoints so endpoint singularities are never
# crossed.
_EXACT_FD_REL = 1e-5


@lru_cache(maxsize=None)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], owned by lavlab.

    numpy's table is symmetrized (nodes odd, weights even), and the middle
    weight (or pair) is moved by the fewest ulps, at most 16, that make the
    left-to-right sum of the weights 2, and the exactly rounded sum too
    where both can hold (every order from 1 to 8).  So the kernel's
    fixed-order contraction integrates a constant 1 to exactly each cell's
    width.  An order with no such move keeps the symmetrized table.
    """
    if order < 1:
        raise ArgumentError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    middle = np.zeros(order, dtype=bool)
    middle[(order - 1) // 2:order // 2 + 1] = True  # one weight or a pair
    moves = (w + k * np.spacing(w) * middle for k in sorted(range(-16, 17), key=abs))
    fits = [fit for fit in moves if _total(fit) == 2.0]
    w = next((fit for fit in fits if math.fsum(fit) == 2.0), fits[0] if fits else w)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _eval_spec(spec: LagrangianSpec, tq, yq, vq) -> np.ndarray:
    if spec.vectorized:
        return np.asarray(spec.eval(tq, yq, vq), dtype=float)
    out = np.empty(tq.shape)
    it = np.nditer(tq, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        out[idx] = float(spec.eval(tq[idx], yq[idx], vq[idx]))
    return out


def cell_energies_lr(spec: LagrangianSpec, nodes: np.ndarray,
                     y_left: np.ndarray, y_right: np.ndarray,
                     order: int = DEFAULT_ORDER) -> np.ndarray:
    """Per-cell quadrature contributions from per-cell endpoint values."""
    x, w = _gauss(order)
    h = np.diff(nodes)
    d = (y_right - y_left) / h

    def samples(b: slice):
        tq = gauss_points(nodes, h, x, b)
        return (tq, y_left[b] + d[b] * (tq - nodes[:-1][b]),
                np.broadcast_to(d[b], tq.shape))

    return cell_sums(spec, h, w, samples)


def gauss_points(nodes: np.ndarray, h: np.ndarray, x: np.ndarray,
                 b: slice = slice(None)) -> np.ndarray:
    """The Gauss points of the cells in slice b: one row per rule node x on
    [-1, 1], one column per cell (h is np.diff(nodes))."""
    return (nodes[:-1][b] + nodes[1:][b]) / 2.0 + (h[b] / 2.0) * x[:, None]


def gauss_sum(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w[k] * a[k] over the rows of a, accumulated left to right in k,
    so each column's bits depend neither on the BLAS build nor on how many
    columns there are."""
    acc = a[0] * w[0]
    for k in range(1, w.size):
        acc += a[k] * w[k]
    return acc


def cell_sums(spec: LagrangianSpec, h: np.ndarray, w: np.ndarray,
              samples: Callable[[slice], tuple]) -> np.ndarray:
    """(h/2) * sum_k w_k L(tq, yq, vq) per cell; +inf for a cell with any
    sample that is non-finite or above INF_THRESHOLD.

    The one quadrature kernel.  It walks the cells in blocks of BLOCK, and
    `samples(b)` returns the (tq, yq, vq) of the cells in slice b, one row
    per Gauss point, so no sample array larger than a block is needed.  The
    contraction is `gauss_sum`.  A block whose samples are all finite and
    below the threshold (the usual case) skips the mask; either way a cell's
    bits depend on its own samples only, never on the block it falls in.
    """
    out = np.empty(h.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, h.size, BLOCK):
            b = slice(lo, lo + BLOCK)
            lq = _eval_spec(spec, *samples(b))
            if np.abs(lq).max() <= INF_THRESHOLD:  # False when a sample is NaN
                out[b] = (h[b] / 2.0) * gauss_sum(lq, w)
                continue
            bad = ~(np.abs(lq) <= INF_THRESHOLD)
            contrib = (h[b] / 2.0) * gauss_sum(np.where(bad, 0.0, lq), w)
            contrib[bad.any(axis=0)] = np.inf
            out[b] = contrib
    return out


def cell_energies(spec: LagrangianSpec, nodes: np.ndarray, values: np.ndarray,
                  order: int = DEFAULT_ORDER) -> np.ndarray:
    """Per-cell quadrature contributions for nodal data; may contain +inf."""
    return cell_energies_lr(spec, nodes, values[:-1], values[1:], order)


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Energy of a trajectory with per-cell contributions (a read-only array).

    `refinement_error_estimate` is computed lazily on first access as the
    absolute difference against the energy of the same function on the
    once-bisected mesh (0 when both are +inf).
    """

    value: float
    per_cell: np.ndarray
    quadrature_order: int
    _refine: Callable[[], float] = field(repr=False)

    @property
    def refinement_error_estimate(self) -> float:
        cached = self.__dict__.get("_estimate")
        if cached is None:
            cached = self._refine()
            self.__dict__["_estimate"] = cached
        return cached

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "per_cell": self.per_cell,
            "error_estimate": self.refinement_error_estimate,
            "order": self.quadrature_order,
        }


def _extended_diff(a: float, b: float) -> float:
    if np.isinf(a) and np.isinf(b):
        return 0.0
    return abs(a - b)


def _total(per_cell: np.ndarray) -> float:
    """Left-to-right sum, for bit-stable reports.  np.cumsum accumulates
    sequentially (unlike np.sum, which is pairwise), so its last entry is
    the same bits as the plain Python loop."""
    return float(np.cumsum(per_cell)[-1])


def energy(spec: LagrangianSpec, y: Trajectory, order: int = DEFAULT_ORDER) -> EnergyReport:
    """Composite Gauss-Legendre energy of a trajectory.

    The derivative entering L is the exact per-cell slope, and quadrature
    nodes are strictly interior to cells.
    """
    per_cell = cell_energies(spec, y.mesh.nodes, y.values, order)
    per_cell.flags.writeable = False
    value = _total(per_cell)

    def refine() -> float:
        fine = y.bisected()
        fine_val = _total(cell_energies(spec, fine.mesh.nodes, fine.values, order))
        return _extended_diff(value, fine_val)

    return EnergyReport(value=value, per_cell=per_cell,
                        quadrature_order=order, _refine=refine)


# -- energy of an exactly known profile -------------------------------------


def exact_profile_energy(spec: LagrangianSpec, f: Callable, mesh: Mesh,
                         order: int = DEFAULT_ORDER,
                         df: Callable | None = None) -> float:
    """Quadrature of L(t, f(t), f'(t)) sampling f itself at quadrature points.

    When df is not given, f'(t) is taken by central differences with step
    1e-5 * min(t - a, b - t), which never crosses the endpoints where the
    profiles of interest are singular.
    """
    x, w = _gauss(order)
    nodes = mesh.nodes
    h = np.diff(nodes)

    def samples(b: slice):
        tq = gauss_points(nodes, h, x, b)
        yq = np.asarray(f(tq), dtype=float)
        if df is not None:
            return tq, yq, np.asarray(df(tq), dtype=float)
        delta = _EXACT_FD_REL * np.minimum(tq - mesh.a, mesh.b - tq)
        return tq, yq, (np.asarray(f(tq + delta), dtype=float)
                        - np.asarray(f(tq - delta), dtype=float)) / (2.0 * delta)

    return _total(cell_sums(spec, h, w, samples))


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of an energy refinement sweep."""

    value: float
    converged: bool
    error_estimate: float
    n_cells: int
    history: tuple[tuple[int, float, float], ...]  # (cells, value, estimate)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "converged": self.converged,
            "error_estimate": self.error_estimate,
            "n_cells": self.n_cells,
            "history": [list(row) for row in self.history],
        }


def energy_converged(spec: LagrangianSpec, y_exact: Callable,
                     mesh_family: Iterable[Mesh], order: int = DEFAULT_ORDER,
                     tol: float = 1e-6,
                     dy_exact: Callable | None = None) -> ConvergenceResult:
    """First energy in the family whose refinement estimate is below tol.

    Approximates the energy of the exactly-known profile y_exact (not of its
    interpolant, whose energy need not converge when a Lavrentiev gap or a
    blow-up is present).  The refinement estimate of each family member is
    the difference against the once-bisected mesh.  If no member converges,
    the last value is returned with `converged=False`.
    """
    history: list[tuple[int, float, float]] = []
    value = np.inf
    estimate = np.inf
    n_cells = 0
    for mesh in mesh_family:
        value = exact_profile_energy(spec, y_exact, mesh, order, dy_exact)
        fine_val = exact_profile_energy(spec, y_exact, mesh.bisected(), order, dy_exact)
        estimate = _extended_diff(value, fine_val)
        n_cells = mesh.n_cells
        history.append((n_cells, value, estimate))
        if estimate <= tol:
            return ConvergenceResult(value, True, estimate, n_cells, tuple(history))
    if not history:
        raise ArgumentError("mesh_family is empty")
    return ConvergenceResult(value, False, estimate, n_cells, tuple(history))
