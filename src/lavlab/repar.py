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
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (ArgumentError, ConsistencyError, InfeasibleError,
                     SingularPointError, UnsupportedLagrangianError)
from .functional import (DEFAULT_ORDER, _gauss, _total, cell_sums, energy,
                         gauss_points)
from .lagrangian import LagrangianSpec, partial_array
from .trajectory import (CELLS, ENDPOINT_RTOL, NOT_INCREASING, Mesh, MonotoneMap,
                         Trajectory, endpoint_exact, positive_speeds, push_through_inverse,
                         running_sum)

SPLIT_GUARD_REL = 1e-13  # measure shortfalls below this (times b-a) skip the cell split


@dataclass(frozen=True)
class ReparPlan:
    """Classification of mesh cells driving the time change.

    `s_cells` and `a_cells` index the cells of `trajectory`, which is the
    input `y` refined by at most one node (the compensation-set split,
    reported in `split_node`), so every compensation cell is covered whole;
    `slow_cells` is the slow set in y's own cells (the compensation cells
    are a prefix of it, the split cell's left half last).  The per-k
    phases read the refined cells from y and the split cell's two halves;
    the refined trajectory is built on first access.  The cell sets are
    read-only intp arrays in mesh order.
    """

    y: Trajectory
    k: float
    lam: float
    s_cells: np.ndarray
    slow_cells: np.ndarray
    a_cells: np.ndarray
    measure_s: float
    measure_omega: float
    deficit: float
    complete: bool
    split_node: float | None = None

    def __post_init__(self):
        for name in ("s_cells", "slow_cells", "a_cells"):
            cells = np.asarray(getattr(self, name), dtype=np.intp)
            cells.flags.writeable = False
            object.__setattr__(self, name, cells)

    @property
    def n_cells(self) -> int:
        return self.y.mesh.n_cells + (self.split_node is not None)

    @property
    def split_cell(self) -> int | None:
        """The left half of the split cell (the last compensation cell)."""
        return None if self.split_node is None else int(self.a_cells[-1])

    @cached_property
    def _halves(self) -> tuple[np.ndarray, ...]:
        """Nodes and values of the split cell with the split node between
        them (its value interpolated, as with_node does), and the widths and
        slopes of the two halves, as the refined trajectory has them."""
        y, c, t = self.y, self.split_cell, self.split_node
        nodes = np.array([y.mesh.nodes[c], t, y.mesh.nodes[c + 1]])
        values = np.array([y.values[c], np.interp(t, nodes[::2], y.values[c:c + 2]),
                           y.values[c + 1]])
        h = np.diff(nodes)
        return nodes, values, h, np.diff(values) / h

    @cached_property
    def trajectory(self) -> Trajectory:
        if self.split_node is None:
            return self.y
        (_, t, _), (_, value, _), _, _ = self._halves
        c = self.split_cell
        return Trajectory(Mesh(np.insert(self.y.mesh.nodes, c + 1, t)),
                          np.insert(self.y.values, c + 1, value))

    def _y_cells(self, cells: np.ndarray) -> np.ndarray:
        """The cell of y that each of `trajectory`'s cells `cells` lies in."""
        c = self.split_cell
        return cells if c is None else cells - (cells > c)

    def _cell_data(self, cells: np.ndarray) -> list[np.ndarray]:
        """Left node, right node, left value, width and slope of each of
        `trajectory`'s cells `cells` (in order), read from y and the split
        halves."""
        y, c, src = self.y, self.split_cell, self._y_cells(cells)
        data = [y.mesh.nodes[src], y.mesh.nodes[src + 1], y.values[src],
                y.mesh.widths[src], y.cell_derivatives()[src]]
        for i in range(2) if c is not None else ():
            half = np.searchsorted(cells, c + i)
            if half < cells.size and cells[half] == c + i:
                nodes, values, h, d = self._halves
                for arr, x in zip(data, (nodes[i], nodes[i + 1], values[i], h[i], d[i])):
                    arr[half] = x
        return data

    @property
    def measure_a(self) -> float:
        widths = self.y.mesh.widths[self.a_cells]  # compensation cells end at the split
        if self.split_node is not None:
            widths[-1] = self._halves[2][0]
        return _total(widths) if widths.size else 0.0

    def _fast_speeds(self, cells: np.ndarray) -> np.ndarray:
        """|d|/k on the fast cells `cells`."""
        return np.abs(self.y.cell_derivatives()[self._y_cells(cells)]) / self.k

    def speeds(self) -> np.ndarray:
        """Per-cell speeds: |d|/k on the fast set, 1/2 on the compensation
        set, 1 elsewhere (before the endpoint closure correction)."""
        out = np.ones(self.n_cells)
        out[self.s_cells] = self._fast_speeds(self.s_cells)
        out[self.a_cells] = 0.5
        return out

    def _moved_blocks(self, first: int = 0, closure: tuple[int, float] | None = None
                      ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """For each block of CELLS of y's cells, from block `first`: its first
        cell in `trajectory`, its widths (the split cell's two halves in its
        place), and its cells of speed other than 1 in `speeds`, in mesh
        order, with those speeds (a fast cell at |d|/k = 1 keeps speed 1);
        with the `closure` (j, speed), cell j runs at that speed."""
        h, c, s, a = self.y.mesh.widths, self.split_cell, self.s_cells, self.a_cells
        for ylo in range(first * CELLS, h.size, CELLS):
            lo, widths = ylo, h[ylo:ylo + CELLS]
            if c is not None and c < ylo:
                lo += 1
            elif c is not None and c < ylo + CELLS:
                widths = np.concatenate((h[ylo:c], self._halves[2], h[c + 1:ylo + CELLS]))
            s0, s1, a0, a1 = np.searchsorted(s, (lo, lo + widths.size)).tolist() + \
                np.searchsorted(a, (lo, lo + widths.size)).tolist()
            cells, v = s[s0:s1], self._fast_speeds(s[s0:s1])
            if (v == 1.0).any():
                cells, v = cells[v != 1.0], v[v != 1.0]
            if a0 < a1:  # the two sets are disjoint
                at = np.searchsorted(cells, a[a0:a1])
                cells, v = np.insert(cells, at, a[a0:a1]), np.insert(v, at, 0.5)
            if closure is not None and lo <= closure[0] < lo + widths.size:
                j, speed = closure
                i = int(np.searchsorted(cells, j))
                if i < cells.size and cells[i] == j:
                    cells, v = np.delete(cells, i), np.delete(v, i)
                if speed != 1.0:
                    cells, v = np.insert(cells, i, j), np.insert(v, i, speed)
            yield lo, widths, cells, v


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


def _cells_where(d: np.ndarray, test: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """np.flatnonzero(test(|d|)), a block of CELLS cells at a time."""
    return np.concatenate([np.flatnonzero(test(np.abs(d[lo:lo + CELLS]))) + lo
                           for lo in range(0, d.size, CELLS)])


def slow_set(y: Trajectory, lam: float) -> tuple[np.ndarray, float]:
    """The cells of the slow set {|y'| <= lambda}, in mesh order, and its measure."""
    cells = _cells_where(y.cell_derivatives(), lambda s: s <= lam)
    return cells, float(y.mesh.widths[cells].sum())


def classify(y: Trajectory, k: float, lam: float,
             slow: tuple[np.ndarray, float] | None = None) -> ReparPlan:
    """Fast set, slow set, and time deficit for threshold k > lambda.

    Slopes are constant per cell, so both sets are exact unions of cells and
    the deficit integral is a finite sum.  `slow` is `slow_set(y, lam)`,
    which a sweep over k computes once.
    """
    if not k > lam:
        raise ArgumentError(f"need k > lambda (got k={k}, lambda={lam})")
    d = y.cell_derivatives()
    widths = y.mesh.widths
    s_idx = _cells_where(d, lambda s: s >= k)
    omega_idx, measure_omega = slow_set(y, lam) if slow is None else slow
    deficit = float(np.sum(widths[s_idx] * (np.abs(d[s_idx]) / k - 1.0)))
    return ReparPlan(
        y=y, k=float(k), lam=float(lam),
        s_cells=s_idx, slow_cells=omega_idx, a_cells=(),
        measure_s=float(widths[s_idx].sum()), measure_omega=measure_omega,
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
    cells = plan.slow_cells
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
        # leave the sub-ulp difference to the endpoint closure
        return replace(plan, a_cells=cells[:j + (split_node >= right)], complete=True)
    s_cells = plan.s_cells
    return replace(plan, s_cells=s_cells + (s_cells > split_cell),
                   a_cells=np.append(cells[:j], split_cell), complete=True,
                   split_node=split_node)


def build_map(plan: ReparPlan) -> MonotoneMap:
    """Monotone map with the plan's speeds, closed to hit b exactly (see
    `_closure`, which raises what pushing y through it would).  Only
    building y_k needs the map, which `ReparResult.y_k` does on first
    access."""
    j, speed = _closure(plan)
    speeds = plan.speeds()
    speeds[j] = speed
    return MonotoneMap(plan.trajectory.mesh, speeds)


def _trailing_run(cells: np.ndarray, end: int) -> int:
    """How many of end - 1, end - 2, ... lie in `cells` (distinct, below
    end, in order) in a row: cells[i] - i never falls, and the run is where
    it equals end - cells.size, so bisect for that."""
    lo, hi = 0, cells.size
    while lo < hi:
        mid = (lo + hi) // 2
        if cells[mid] - mid == end - cells.size:
            hi = mid
        else:
            lo = mid + 1
    return cells.size - lo


def _scaled(widths: np.ndarray, cells: np.ndarray, v: np.ndarray) -> np.ndarray:
    """speeds * widths for a block of widths whose cells `cells` (offsets
    in the block) run at speeds v and the rest at 1."""
    if cells.size:
        widths = widths.copy()
        widths[cells] *= v
    return widths


def _closure(plan: ReparPlan) -> tuple[int, float]:
    """The cell of `plan.trajectory` that absorbs the endpoint closure, and
    its closed speed.

    In exact arithmetic the measure equation makes phi(b) = b; the float
    defect, b - a less the left-to-right sum of speeds * widths, is absorbed
    into the last unit-speed cell (the last cell if there is none).  Then,
    as `time_change_image` and `pushed_nodes` would for y_k, every speed
    must be finite and positive, phi(b) within the endpoint tolerance
    (ConsistencyError) and the nodes phi(t_i) strictly increasing.  The
    sums walk `_moved_blocks`, each block's continued from the last by
    `running_sum`, so they have the bits of one np.cumsum; the blocks before
    the one that absorbs the defect are summed once.
    """
    if not plan.complete:
        raise ArgumentError("plan is not complete; run select_A first")
    a, b = plan.y.mesh.a, plan.y.mesh.b
    increasing = lambda nodes: bool(np.all(np.diff(nodes) > 0))
    j, top, carry, starts, ok = None, 1.0, -0.0, [], []
    for lo, widths, cells, v in plan._moved_blocks():
        starts.append(carry)
        sums = running_sum(_scaled(widths, cells - lo, v), carry)
        ok.append(increasing(sums + a))  # with the closed speeds from j's block on
        carry = sums[-1]
        run = _trailing_run(cells, lo + widths.size)
        if run < widths.size:
            j = lo + widths.size - 1 - run
        if v.size:
            top = max(top, float(v.max()))
    j, speed = (j, 1.0) if j is not None else (plan.n_cells - 1, float(v[-1]))
    defect = (b - a) - carry
    if defect != 0.0:
        speed += defect / float(plan._cell_data(np.array([j]))[3][0])
    positive_speeds((top, speed))  # every other speed lies in [1/2, top]
    first = int(plan._y_cells(np.array(j))) // CELLS  # the block holding cell j
    last = (plan.y.mesh.n_cells - 1) // CELLS
    ok, carry = all(ok[:first]), starts[first]
    for block, (lo, widths, cells, v) in enumerate(plan._moved_blocks(first, (j, speed)), first):
        sums = running_sum(_scaled(widths, cells - lo, v), carry)
        carry, nodes = sums[-1], sums + a
        if block == last:
            if not endpoint_exact(nodes, a, b):
                raise ConsistencyError(
                    f"endpoint defect {abs(float(nodes[-1]) - b):.3e} exceeds tolerance "
                    f"{ENDPOINT_RTOL * (b - a):.3e}")
            nodes[-1] = b  # snapped, as pushed_nodes does
        ok &= increasing(nodes)
    if not ok:
        raise ArgumentError(NOT_INCREASING)
    return j, speed


def _capped_cells(spec: LagrangianSpec, plan: ReparPlan, cells: np.ndarray,
                  s: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies and |slopes| of y o phi^{-1} on the images of
    `plan.trajectory`'s cells `cells`, run at speeds `s`: phi maps cell j
    and its Gauss points affinely onto a cell of width h_j s_j and slope
    d_j / s_j, so for an autonomous L the image's energy is
    (h_j s_j / 2) sum_q w_q L(yq, d_j / s_j) on y's own samples yq (at
    speed 1, the bits of `energy`'s).  The quadrature walks blocks of
    CELLS // order cells, so its sample arrays are no larger than a block
    of CELLS."""
    x, w = _gauss(order)
    left, right, values, h, d = plan._cell_data(cells)
    v = d / s

    def samples(b: slice):
        tq = gauss_points(left[b], right[b], h[b], x)
        yq = tq - left[b]  # as in energy(): y_left + d (tq - t_left)
        yq *= d[b]
        yq += values[b]
        return tq, yq, v[b][None]

    return cell_sums(spec, h * s, w, samples, max(1, CELLS // order)), np.abs(v)


@dataclass(frozen=True, eq=False)
class ReparInput:
    """A trajectory prepared for slope capping at any number of thresholds.

    What depends on y alone is computed once: the autonomy check, lambda
    and Lip(y) by `of`, the slow set by the first `cap(k)`, and F(y) with
    its per-cell energies by the first `cap(k)` with k > lambda (so a grid
    at or below lambda never evaluates it).  Each `cap(k)` then runs only
    the per-k phases on the fast, compensation and changed cells, plus
    passes over blocks of CELLS cells, so its memory follows the changed
    cells, not the mesh: it takes F(y_k) from the cells whose speed is not
    1, evaluating the integrand on those alone, and builds neither the
    refined nor the capped trajectory (`ReparResult.y_k` is built on first
    access).
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

    @cached_property
    def _slow(self) -> tuple[np.ndarray, float]:
        return slow_set(self.y, self.lam)

    @property
    def energy_before(self) -> float:
        return self._energy.value

    def cap(self, k: float) -> ReparResult:
        """Cap the slopes of y at 2k by a time change; see `reparametrize`.

        Only the cells of speed s_j != 1 change, to slope d_j / s_j, so
        Lip(y_k) is the larger of max |d_j| / s_j over them and max |d_i|
        over the rest, and F(y_k) is F(y) plus the energies of those cells
        (and of both halves of a split cell) after the change, less y's
        energies of the cells they come from.  Raises what building y_k
        would, without building it.
        """
        if not k > self.lam:
            raise ArgumentError(f"need k > choose_lambda(y) = {self.lam} (got k={k})")
        lip, before = self.lip, self.energy_before
        plan = select_A(classify(self.y, k, self.lam, self._slow))
        if not plan.a_cells.size and np.all(plan._fast_speeds(plan.s_cells) == 1.0):
            # Lip(y) < k or |d| == k ties: no time change
            return ReparResult(plan, lip, lip, before, before, changed_cells=0)
        closure = _closure(plan)
        d, per_cell, c = self.y.cell_derivatives(), self._energy.per_cell, plan.split_cell
        changed, lip_after, gained, lost = 0, 0.0, -0.0, -0.0
        for block, (lo, widths, cells, v) in enumerate(plan._moved_blocks(0, closure)):
            changed += cells.size
            new, s, old = cells, v, cells
            if c is not None and lo <= c + 1 < lo + widths.size:
                # y's cell c is split: cells c, c + 1 are new, and come from c
                i = int(np.searchsorted(cells, c + 1))
                if i < cells.size and cells[i] == c + 1:
                    old = np.delete(cells, i)
                else:
                    new, s = np.insert(cells, i, c + 1), np.insert(v, i, 1.0)
            old = plan._y_cells(old)
            slopes = np.abs(d[block * CELLS:(block + 1) * CELLS])  # y's, at speed 1
            slopes[old - block * CELLS] = 0.0
            lip_after = max(lip_after, float(slopes.max()))
            if new.size:
                energies, slopes = _capped_cells(self.spec, plan, new, s, self.order)
                gained = float(running_sum(energies, gained)[-1])
                lip_after = max(lip_after, float(slopes.max()))
            if old.size:
                lost = float(running_sum(per_cell[old], lost)[-1])
        return ReparResult(plan, lip, lip_after, before, before + (gained - lost), changed)


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
