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
from .functional import (DEFAULT_ORDER, _gauss, _total, cell_sums, energy,
                         gauss_points)
from .lagrangian import LagrangianSpec, partial_array
from .trajectory import (ENDPOINT_RTOL, Mesh, MonotoneMap, Trajectory, endpoint_exact,
                         push_through_inverse, pushed_nodes, time_change_image)

SPLIT_GUARD_REL = 1e-13  # measure shortfalls below this (times b-a) skip the cell split


@dataclass(frozen=True)
class ReparPlan:
    """Classification of mesh cells driving the time change.

    All indices refer to `trajectory`, which is the input `y` refined by at
    most one node (the compensation-set split, reported in `split_node`), so
    every compensation cell is covered whole.  Its nodes, values, cell
    widths and slopes are `_cells`, which the per-k phases read; the
    trajectory itself is built from them on first access.  The cell sets
    are read-only intp arrays in mesh order.
    """

    y: Trajectory
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

    @cached_property
    def trajectory(self) -> Trajectory:
        if self.split_node is None:
            return self.y
        nodes, values = self._cells[:2]
        return Trajectory(Mesh(nodes), values)

    @cached_property
    def _cells(self) -> tuple[np.ndarray, ...]:
        """Nodes, values, cell widths and slopes of y with the split node
        inserted, its value interpolated; the two new cells' widths and
        slopes are the differences a mesh and a trajectory take."""
        y = self.y
        nodes, values, h, d = y.mesh.nodes, y.values, y.mesh.widths, y.cell_derivatives()
        if self.split_node is None:
            return nodes, values, h, d
        c, t = int(self.a_cells[-1]), self.split_node
        value = np.interp(t, nodes[c:c + 2], values[c:c + 2])  # as with_node
        nodes, values = np.insert(nodes, c + 1, t), np.insert(values, c + 1, value)
        h, d = np.insert(h, c + 1, 0.0), np.insert(d, c + 1, 0.0)
        h[c:c + 2] = np.diff(nodes[c:c + 3])
        d[c:c + 2] = np.diff(values[c:c + 3]) / h[c:c + 2]
        return nodes, values, h, d

    @property
    def measure_a(self) -> float:
        widths = self._cells[2][self.a_cells]
        return _total(widths) if widths.size else 0.0

    def speeds(self) -> np.ndarray:
        """Per-cell speeds: |d|/k on the fast set, 1/2 on the compensation
        set, 1 elsewhere (before the endpoint closure correction)."""
        d = self._cells[3]
        v = np.ones(d.size)
        v[self.s_cells] = np.abs(d[self.s_cells]) / self.k
        v[self.a_cells] = 0.5
        return v


@dataclass(frozen=True)
class ReparResult:
    """One cap: its plan, and Lip and F before and after.

    `energy_after` and `lip_after` come from the `changed_cells` cells whose
    speed is not 1 (see `ReparInput.cap`).  The capped trajectory `y_k` is
    built by `build_map` and `push_through_inverse` on first access; with no
    changed cell it is the input itself.
    """

    plan: ReparPlan
    lip_before: float
    lip_after: float
    energy_before: float
    energy_after: float
    changed_cells: int

    @property
    def gap(self) -> float:
        return self.energy_after - self.energy_before

    @cached_property
    def y_k(self) -> Trajectory:
        if not self.changed_cells:
            return self.plan.trajectory
        return push_through_inverse(self.plan.trajectory, build_map(self.plan))


def choose_lambda(y: Trajectory) -> float:
    """Smallest integer lambda >= 1 whose slow set covers half the interval.

    The slow set {|y'| <= lambda} is a union of cells; the rule keeps the
    compensation set feasible at moderate thresholds.  At an integer lambda
    it is {ceil|y'| <= lambda}, so it changes only at the distinct values of
    ceil|y'|, and its measure grows with lambda: past lambda = 1, the measure
    test bisects those values, the largest of which covers every cell.
    """
    d = np.abs(y.cell_derivatives())
    widths = y.mesh.widths
    half = (y.mesh.b - y.mesh.a) / 2.0
    covers = lambda lam: float(widths[d <= lam].sum()) >= half
    if covers(1):
        return 1.0
    levels = np.unique(np.ceil(d[d > 1.0]))
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if covers(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[hi])


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
        y=y, k=float(k), lam=float(lam),
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
    y = plan.y
    span = y.mesh.b - y.mesh.a
    if target == 0.0:
        return replace(plan, a_cells=(), complete=True)
    if not plan.measure_omega > target:
        hint = _feasible_k_hint(y, plan.k, plan.lam)
        raise InfeasibleError(
            f"slow set too small: |Omega|={plan.measure_omega:.6g} <= "
            f"2*deficit={target:.6g}; retry with k >= {hint}", k_hint=hint)

    # remaining[j]: measure still to cover when slow cell j is reached; the
    # cumsum is sequential, so these are the bits of cell-by-cell subtraction,
    # and a prefix of the slow cells gives their prefix: the stop is sought in
    # prefixes growing fourfold, so the cost follows |A_k|, not |Omega|
    cells = plan.omega_cells
    guard = SPLIT_GUARD_REL * span
    m = 0
    while m < cells.size:
        m = 4 * m + 64
        widths = y.mesh.widths[cells[:m]]
        remaining = np.cumsum(np.concatenate(([target], -widths)))
        whole = remaining[:-1] >= widths
        # stop at the first cell that does not fit whole or leaves at most guard
        stops = ~whole | (remaining[1:] <= guard)
        if stops.any():
            break
    j = int(np.argmax(stops))
    if not stops[j]:
        raise ConsistencyError("compensation selection exhausted the slow set")
    if whole[j]:
        return replace(plan, a_cells=cells[:j + 1], complete=True)
    if not remaining[j] > guard:  # shortfall below the guard: no split
        return replace(plan, a_cells=cells[:j], complete=True)

    # split slow cell j at the exact measure; later indices shift by one
    split_cell = int(cells[j])
    left, right = y.mesh.nodes[split_cell:split_cell + 2]
    split_node = float(left) + float(remaining[j])
    if not left < split_node < right:
        # the split rounds onto a node: take the cell whole (or not at all) and
        # leave the sub-ulp difference to build_map's endpoint closure
        return replace(plan, a_cells=cells[:j + (split_node >= right)], complete=True)
    shift = lambda idx: idx + (idx >= split_cell)
    return ReparPlan(
        y=y, k=plan.k, lam=plan.lam,
        s_cells=shift(plan.s_cells),
        omega_cells=np.insert(shift(cells), j, split_cell),  # both halves stay slow
        a_cells=np.append(cells[:j], split_cell),
        measure_s=plan.measure_s, measure_omega=plan.measure_omega,
        deficit=plan.deficit, complete=True, split_node=split_node)


def build_map(plan: ReparPlan, speeds: np.ndarray | None = None) -> MonotoneMap:
    """Monotone map with the plan's speeds, closed to hit b exactly (see
    `_closed_image`).  `speeds`, if given, is `plan.speeds()` and is closed
    in place.  Only building y_k needs the map, which `ReparResult.y_k`
    does on first access; `ReparInput.cap` takes F(y_k) and Lip(y_k) from
    the changed cells and checks the closed speeds without the map.
    """
    if speeds is None:
        speeds = plan.speeds()
    _closed_image(plan, speeds)
    return MonotoneMap(plan.trajectory.mesh, speeds)


def _closed_image(plan: ReparPlan, speeds: np.ndarray) -> np.ndarray:
    """Close the plan's `speeds` in place, and return the image nodes
    phi(t_0), ..., phi(t_n) of their time change phi.

    In exact arithmetic the measure equation makes phi(b) = b; the residual
    float defect is absorbed into the last unit-speed cell (the last cell if
    there is none) before phi is checked against the endpoint tolerance.
    """
    if not plan.complete:
        raise ArgumentError("plan is not complete; run select_A first")
    a, b = plan.y.mesh.a, plan.y.mesh.b
    widths = plan._cells[2]
    defect = (b - a) - _total(speeds * widths)
    if defect != 0.0:  # argmax of no hit is 0: the last cell
        j = widths.size - 1 - int(np.argmax(speeds[::-1] == 1.0))
        speeds[j] += defect / float(widths[j])
    image = time_change_image(a, widths, speeds)
    if not endpoint_exact(image, a, b):
        raise ConsistencyError(
            f"endpoint defect {abs(float(image[-1]) - b):.3e} exceeds tolerance "
            f"{ENDPOINT_RTOL * (b - a):.3e}")
    return image


def _capped_energies(spec: LagrangianSpec, plan: ReparPlan, speeds: np.ndarray,
                     cells: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Energies of y o phi^{-1} on the images of `plan.trajectory`'s cells
    `cells`, phi having the per-cell `speeds`: phi maps cell j and its Gauss
    points affinely onto a cell of width h_j s_j, so for an autonomous L the
    image's energy is (h_j s_j / 2) sum_q w_q L(yq, d_j / s_j) on y's own
    samples yq (at speed 1, the bits of `energy`'s)."""
    x, w = _gauss(order)
    nodes, values, h, d = plan._cells
    s = speeds[cells]

    def samples(b: slice):
        idx = cells[b]
        tq = gauss_points(nodes, h, x, idx)
        yq = tq - nodes[idx]  # as in energy(): y_left + d (tq - t_left)
        yq *= d[idx]
        yq += values[idx]
        return tq, yq, (d[idx] / s[b])[None]

    return cell_sums(spec, h[cells] * s, w, samples)


@dataclass(frozen=True, eq=False)
class ReparInput:
    """A trajectory prepared for slope capping at any number of thresholds.

    What depends on y alone is computed once: the autonomy check, lambda
    and Lip(y) by `of`, and F(y) with its per-cell energies by the first
    `cap(k)` with k > lambda (so a grid at or below lambda never evaluates
    it).  Each `cap(k)` then runs only the per-k phases: it takes F(y_k)
    from the cells whose speed is not 1, evaluating the integrand on those
    alone, and builds no capped trajectory (`ReparResult.y_k` is built on
    first access).
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
    def _energy(self):
        report = energy(self.spec, self.y, self.order)
        if not math.isfinite(report.value):
            raise ArgumentError("reparametrize requires finite energy(y)")
        return report

    @property
    def energy_before(self) -> float:
        return self._energy.value

    def cap(self, k: float) -> ReparResult:
        """Cap the slopes of y at 2k by a time change; see `reparametrize`.

        Only the cells of speed s_j != 1 change, to slope d_j / s_j, so
        Lip(y_k) is max |d_j| / s_j, and F(y_k) is F(y) plus the energies of
        those cells (and of both halves of a split cell) after the change,
        less y's energies of the cells they come from.  Raises what building
        y_k would, without building it.
        """
        if not k > self.lam:
            raise ArgumentError(f"need k > choose_lambda(y) = {self.lam} (got k={k})")
        lip, before = self.lip, self.energy_before
        plan = select_A(classify(self.y, k, self.lam))
        speeds = plan.speeds()
        if np.all(speeds == 1.0):  # Lip(y) < k or |d| == k ties: no time change
            return ReparResult(plan, lip, lip, before, before, changed_cells=0)
        a, b = self.y.mesh.a, self.y.mesh.b
        pushed_nodes(_closed_image(plan, speeds), a, b)  # raises what the push of y_k would
        new = old = speeds != 1.0
        changed = int(np.count_nonzero(new))
        if plan.split_node is not None:  # y's cell c is split: cells c, c + 1 are new
            c = int(plan.a_cells[-1])
            old, new[c + 1] = np.delete(new, c + 1), True
        new, old = np.flatnonzero(new), np.flatnonzero(old)
        delta = (_total(_capped_energies(self.spec, plan, speeds, new, self.order))
                 - _total(self._energy.per_cell[old]))
        lip_after = float(np.max(np.abs(plan._cells[3]) / speeds))
        return ReparResult(plan, lip, lip_after, before, before + delta, changed)


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
