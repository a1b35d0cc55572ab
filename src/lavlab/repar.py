"""Slope-capping time reparametrization of finite-energy trajectories.

Given a trajectory y and a threshold k, build a strictly increasing time
change phi and return y o phi^{-1}, which has Lipschitz constant at most 2k
and the same boundary values.  Cells where |y'| >= k (the fast set) are
slowed by |y'|/k; to land exactly on the right endpoint, a measured subset
of slow cells (slope <= lambda < k, the compensation set) runs at speed 1/2,
its measure being exactly twice the time deficit created by the slowdown.
For integrands that are convex in the velocity, the energy excess of the
capped trajectory is eventually below 1/k; `find_K` locates that threshold
on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (ArgumentError, ConsistencyError, InfeasibleError,
                     SingularPointError, UnsupportedLagrangianError)
from .functional import DEFAULT_ORDER, _total, energy
from .lagrangian import LagrangianSpec, partial_array
from .trajectory import (ENDPOINT_RTOL, MonotoneMap, Trajectory,
                         push_through_inverse)

SPLIT_GUARD_REL = 1e-13  # measure shortfalls below this (times b-a) skip the cell split


@dataclass(frozen=True)
class ReparPlan:
    """Classification of mesh cells driving the time change.

    All indices refer to `trajectory`, which is the input refined by at most
    one node (the compensation-set split, reported in `split_node`), so every
    compensation cell is covered whole.  The cell sets are read-only intp
    arrays in mesh order.
    """

    trajectory: Trajectory
    k: float
    lam: float
    s_cells: np.ndarray
    omega_cells: np.ndarray
    a_cells: np.ndarray
    measure_s: float
    measure_omega: float
    deficit: float
    complete: bool
    split_node: float | None = None

    def __post_init__(self):
        for name in ("s_cells", "omega_cells", "a_cells"):
            cells = np.asarray(getattr(self, name), dtype=np.intp)
            cells.flags.writeable = False
            object.__setattr__(self, name, cells)

    @property
    def measure_a(self) -> float:
        widths = self.trajectory.mesh.widths[self.a_cells]
        return _total(widths) if widths.size else 0.0

    def speeds(self) -> np.ndarray:
        """Per-cell speeds: |d|/k on the fast set, 1/2 on the compensation
        set, 1 elsewhere (before the endpoint closure correction)."""
        d = self.trajectory.cell_derivatives()
        v = np.ones(self.trajectory.mesh.n_cells)
        v[self.s_cells] = np.abs(d[self.s_cells]) / self.k
        v[self.a_cells] = 0.5
        return v

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda": self.lam,
            "s_cells": self.s_cells.tolist(),
            "a_cells": self.a_cells.tolist(),
            "measure_s": self.measure_s,
            "measure_a": self.measure_a,
            "measure_omega": self.measure_omega,
            "deficit": self.deficit,
            "split_node": self.split_node,
        }


@dataclass(frozen=True)
class ReparResult:
    """Capped trajectory with its plan and the energy bookkeeping."""

    y_k: Trajectory
    plan: ReparPlan
    lip_before: float
    lip_after: float
    energy_before: float
    energy_after: float

    @property
    def gap(self) -> float:
        return self.energy_after - self.energy_before

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_json_dict(),
            "lip_before": self.lip_before,
            "lip_after": self.lip_after,
            "energy_before": self.energy_before,
            "energy_after": self.energy_after,
            "gap": self.gap,
        }


def choose_lambda(y: Trajectory) -> float:
    """Smallest integer lambda >= 1 whose slow set covers half the interval.

    The slow set {|y'| <= lambda} is a union of cells; the rule keeps the
    compensation set feasible at moderate thresholds.
    """
    d = np.abs(y.cell_derivatives())
    widths = y.mesh.widths
    half = (y.mesh.b - y.mesh.a) / 2.0
    top = int(math.ceil(float(np.max(d)))) + 1
    for lam in range(1, top + 1):
        if float(widths[d <= lam].sum()) >= half:
            return float(lam)
    return float(top)  # unreachable: lam = ceil(max|d|) covers every cell


def classify(y: Trajectory, k: float, lam: float) -> ReparPlan:
    """Fast set, slow set, and time deficit for threshold k > lambda.

    Slopes are constant per cell, so both sets are exact unions of cells and
    the deficit integral is a finite sum.
    """
    if not k > lam:
        raise ArgumentError(f"need k > lambda (got k={k}, lambda={lam})")
    d = y.cell_derivatives()
    widths = y.mesh.widths
    absd = np.abs(d)
    s_idx = np.flatnonzero(absd >= k)
    omega_idx = np.flatnonzero(absd <= lam)
    deficit = float(np.sum(widths[s_idx] * (absd[s_idx] / k - 1.0)))
    return ReparPlan(
        trajectory=y, k=float(k), lam=float(lam),
        s_cells=s_idx, omega_cells=omega_idx, a_cells=(),
        measure_s=float(widths[s_idx].sum()),
        measure_omega=float(widths[omega_idx].sum()),
        deficit=deficit, complete=False)


def _feasible_k_hint(y: Trajectory, k: float, lam: float) -> float | None:
    widths = y.mesh.widths
    absd = np.abs(y.cell_derivatives())
    omega = float(widths[absd <= lam].sum())
    probe = k
    for _ in range(64):
        probe *= 2.0
        mask = absd >= probe
        if 2.0 * float(np.sum(widths[mask] * (absd[mask] / probe - 1.0))) < omega:
            return probe
    return None


def select_A(plan: ReparPlan) -> ReparPlan:
    """Complete the plan: pick the compensation set greedily from the left.

    Cells of the slow set are taken in mesh order until their measure equals
    twice the deficit; the final cell is split by inserting one node so the
    measure is exact.  Requires the slow set strictly larger than the target
    measure; otherwise raises InfeasibleError carrying a feasible-k hint.
    """
    if plan.complete:
        return plan
    target = 2.0 * plan.deficit
    y = plan.trajectory
    span = y.mesh.b - y.mesh.a
    if target == 0.0:
        return replace(plan, a_cells=(), complete=True)
    if not plan.measure_omega > target:
        hint = _feasible_k_hint(y, plan.k, plan.lam)
        raise InfeasibleError(
            f"slow set too small: |Omega|={plan.measure_omega:.6g} <= "
            f"2*deficit={target:.6g}; retry with k >= {hint}", k_hint=hint)

    # remaining[j]: measure still to cover when slow cell j is reached; the
    # cumsum is sequential, so these are the bits of cell-by-cell subtraction
    cells = plan.omega_cells
    widths = y.mesh.widths[cells]
    remaining = np.cumsum(np.concatenate(([target], -widths)))
    guard = SPLIT_GUARD_REL * span
    whole = remaining[:-1] >= widths
    # stop at the first cell that does not fit whole or leaves at most guard
    stops = ~whole | (remaining[1:] <= guard)
    j = int(np.argmax(stops))
    if not stops[j]:
        raise ConsistencyError("compensation selection exhausted the slow set")
    if whole[j]:
        return replace(plan, a_cells=cells[:j + 1], complete=True)
    if not remaining[j] > guard:  # shortfall below the guard: no split
        return replace(plan, a_cells=cells[:j], complete=True)

    # split slow cell j at the exact measure; later indices shift by one
    split_cell = int(cells[j])
    split_node = float(y.mesh.nodes[split_cell]) + float(remaining[j])
    shift = lambda idx: idx + (idx >= split_cell)
    return ReparPlan(
        trajectory=y.with_node(split_node), k=plan.k, lam=plan.lam,
        s_cells=shift(plan.s_cells),
        omega_cells=np.insert(shift(cells), j, split_cell),  # both halves stay slow
        a_cells=np.append(cells[:j], split_cell),
        measure_s=plan.measure_s, measure_omega=plan.measure_omega,
        deficit=plan.deficit, complete=True, split_node=split_node)


def build_map(plan: ReparPlan) -> MonotoneMap:
    """Monotone map with the plan's speeds, closed to hit b exactly.

    In exact arithmetic the measure equation makes phi(b) = b; the residual
    float defect is absorbed into the last unit-speed cell before the map is
    validated against the endpoint tolerance.
    """
    if not plan.complete:
        raise ArgumentError("plan is not complete; run select_A first")
    mesh = plan.trajectory.mesh
    speeds = plan.speeds()
    widths = mesh.widths
    defect = (mesh.b - mesh.a) - _total(speeds * widths)
    if defect != 0.0:
        neutral = np.flatnonzero(speeds == 1.0)
        j = int(neutral[-1]) if neutral.size else mesh.n_cells - 1
        speeds[j] += defect / float(widths[j])
    phi = MonotoneMap(mesh, speeds)
    if not phi.is_endpoint_exact:
        raise ConsistencyError(
            f"endpoint defect {phi.endpoint_defect:.3e} exceeds tolerance "
            f"{ENDPOINT_RTOL * (mesh.b - mesh.a):.3e}")
    return phi


@dataclass(frozen=True, eq=False)
class ReparInput:
    """A trajectory prepared for slope capping at any number of thresholds.

    What depends on y alone is computed once: the autonomy check, lambda
    and Lip(y) by `of`, and F(y) by the first `cap(k)` with k > lambda (so a
    grid at or below lambda never evaluates it).  Each `cap(k)` then runs
    only the per-k phases.
    """

    spec: LagrangianSpec
    y: Trajectory
    order: int
    lam: float
    lip: float

    @classmethod
    def of(cls, spec: LagrangianSpec, y: Trajectory,
           order: int = DEFAULT_ORDER) -> "ReparInput":
        if not spec.autonomous:
            raise UnsupportedLagrangianError(
                f"{spec.id}: reparametrization requires an autonomous integrand")
        return cls(spec, y, order, choose_lambda(y), y.lipschitz_constant)

    @cached_property
    def energy_before(self) -> float:
        before = energy(self.spec, self.y, self.order).value
        if not math.isfinite(before):
            raise ArgumentError("reparametrize requires finite energy(y)")
        return before

    def cap(self, k: float) -> ReparResult:
        """Cap the slopes of y at 2k by a time change; see `reparametrize`."""
        if not k > self.lam:
            raise ArgumentError(f"need k > choose_lambda(y) = {self.lam} (got k={k})")
        lip, before = self.lip, self.energy_before
        plan = select_A(classify(self.y, k, self.lam))
        if np.all(plan.speeds() == 1.0):  # Lip(y) < k or |d| == k ties: no time change
            return ReparResult(y_k=plan.trajectory, plan=plan, lip_before=lip,
                               lip_after=lip, energy_before=before,
                               energy_after=before)
        y_k = push_through_inverse(plan.trajectory, build_map(plan))
        return ReparResult(y_k=y_k, plan=plan, lip_before=lip,
                           lip_after=y_k.lipschitz_constant, energy_before=before,
                           energy_after=energy(self.spec, y_k, self.order).value)


def reparametrize(spec: LagrangianSpec, y: Trajectory, k: float,
                  order: int = DEFAULT_ORDER) -> ReparResult:
    """Cap the slopes of y at 2k by a time change, preserving the boundary.

    Requires an autonomous integrand (the energy bookkeeping uses that L
    sees only (y, v)) with finite energy on y, and k above choose_lambda(y).
    If max |y'| < k the input is returned unchanged, bitwise.  For convex
    integrands the guarantee energy_after <= energy_before + 1/k is
    asymptotic in k; use find_K to locate the onset.  A sweep over many k
    should build one `ReparInput` and cap each k from it.
    """
    return ReparInput.of(spec, y, order).cap(k)


@dataclass(frozen=True)
class KRow:
    k: float
    status: str  # "ok" | "above_bound" | "skipped_lambda" | "infeasible"
    lip_after: float | None
    energy_before: float | None
    energy_after: float | None
    gap: float | None

    @classmethod
    def of(cls, res: ReparResult) -> "KRow":
        """Judge one reparametrization by the bound gap <= 1/k, allowing a
        relative slack of 1e-12 on the energy."""
        k = res.plan.k
        slack = 1e-12 * max(1.0, abs(res.energy_before))
        ok = res.energy_after <= res.energy_before + 1.0 / k + slack
        return cls(k, "ok" if ok else "above_bound", res.lip_after,
                   res.energy_before, res.energy_after, res.gap)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "status": self.status, "lip_after": self.lip_after,
                "energy_before": self.energy_before,
                "energy_after": self.energy_after, "gap": self.gap}


@dataclass(frozen=True)
class FindKReport:
    """Sweep of the energy-excess bound gap <= 1/k over a threshold grid.

    K is the smallest grid point from which the bound holds for every larger
    grid point; None when no trailing run satisfies it.
    """

    K: float | None
    rows: tuple[KRow, ...]

    @classmethod
    def of(cls, rows: Sequence[KRow]) -> "FindKReport":
        """Report over rows in ascending k: K starts the trailing "ok" run."""
        K = None
        for row in reversed(rows):
            if row.status != "ok":
                break
            K = row.k
        return cls(K=K, rows=tuple(rows))

    @property
    def found(self) -> bool:
        return self.K is not None

    def to_json_dict(self) -> dict:
        return {"K": self.K, "rows": [r.to_json_dict() for r in self.rows]}


def find_K(spec: LagrangianSpec, y: Trajectory, k_grid: Sequence[float],
           order: int = DEFAULT_ORDER) -> FindKReport:
    """Locate the onset of energy_after <= energy_before + 1/k on a grid."""
    prepared = ReparInput.of(spec, y, order)
    if not spec.convex_in_v:
        raise ArgumentError(f"{spec.id}: find_K requires convex_in_v")
    rows: list[KRow] = []
    for k in sorted(float(k) for k in k_grid):
        if not k > prepared.lam:
            rows.append(KRow(k, "skipped_lambda", None, None, None, None))
            continue
        try:
            rows.append(KRow.of(prepared.cap(k)))
        except InfeasibleError:
            rows.append(KRow(k, "infeasible", None, None, None, None))
    return FindKReport.of(rows)


@dataclass(frozen=True)
class TangentCurve:
    """P(w) = L(y, w) - w L_v(y, w) on a grid, with monotonicity report.

    For integrands convex in v, P is non-decreasing on w < 0 and
    non-increasing on w > 0; P(w) is the intercept of the tangent line to
    v -> L(y, v) at w with the vertical axis.
    """

    w_grid: tuple[float, ...]
    values: tuple[float, ...]
    nondecreasing_on_negative: bool
    nonincreasing_on_positive: bool
    max_violation: float


def lemma_P(spec: LagrangianSpec, y: float, w_grid, t: float = 0.0) -> TangentCurve:
    """Tangent-intercept values of v -> L(t, y, v) on a grid (t frozen)."""
    grid = np.sort(np.asarray(w_grid, dtype=float))
    t_grid, y_grid = np.full_like(grid, t), np.full_like(grid, y)
    lv = partial_array(spec, 2, t_grid, y_grid, grid)
    if not np.all(np.isfinite(lv)):
        raise SingularPointError(f"{spec.id}: L_v singular on the grid at (t={t}, y={y})")
    vals = np.asarray(spec.eval(t_grid, y_grid, grid), dtype=float) - grid * lv
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = 1e-10 * scale
    neg = grid < 0
    pos = grid > 0
    viol_neg = float(np.max(-np.diff(vals[neg]), initial=0.0))
    viol_pos = float(np.max(np.diff(vals[pos]), initial=0.0))
    return TangentCurve(
        w_grid=tuple(float(w) for w in grid),
        values=tuple(float(p) for p in vals),
        nondecreasing_on_negative=viol_neg <= tol,
        nonincreasing_on_positive=viol_pos <= tol,
        max_violation=max(viol_neg, viol_pos))
