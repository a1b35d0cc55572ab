"""Slope-capping time reparametrization of finite-energy trajectories.

Given a trajectory y and a threshold k, build a strictly increasing time
change phi and return y o phi^{-1}, which has Lipschitz constant at most 2k
and the same boundary values.  Cells where |y'| >= k (the fast set) are
slowed by |y'|/k; to land exactly on the right endpoint, a prefix of the
slow cells (slope <= lambda < k, the compensation set) runs faster: each
at speed 1/2 but the last, which runs at a speed in [1/2, 1], so that the
time it saves is exactly the deficit the slowdown created; that one free
speed also absorbs the float defect of phi(b) = b.  For integrands
that are convex in the velocity, the energy excess of the capped
trajectory is eventually below 1/k; `find_K` locates that threshold on a
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (ArgumentError, ConsistencyError, InfeasibleError,
                     SingularPointError, UnsupportedLagrangianError)
from .functional import (DEFAULT_ORDER, SAMPLES, _gauss, _total, cell_sums, energy,
                         linear_samples)
from .lagrangian import LagrangianSpec, jet
from .trajectory import (CELLS, ENDPOINT_RTOL, NOT_INCREASING, Mesh, Trajectory,
                         endpoint_exact, positive_speeds, running_sum)


@dataclass(frozen=True)
class ReparPlan:
    """Classification of y's cells driving the time change.

    The time change runs the fast cells `s_cells` at |d|/k, the
    compensation cells `a_cells` (a prefix of the slow set `slow_cells`) at
    1/2 but the last, which runs at `a_last_speed`, and the rest at 1;
    `_moved_blocks` lists the cells of speed other than 1, a block at a
    time.  `a_last_speed`, in [1/2, 1] from `select_A`, is the one closing
    speed: `_closure` absorbs the float defect of phi(b) = b into it.  The
    cell sets are read-only intp arrays in mesh order.
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
    a_last_speed: float = 0.5

    def __post_init__(self):
        for name in ("s_cells", "slow_cells", "a_cells"):
            cells = np.asarray(getattr(self, name), dtype=np.intp)
            cells.flags.writeable = False
            object.__setattr__(self, name, cells)

    @property
    def measure_a(self) -> float:
        """The sum of 2 (1 - s_j) h_j over the compensation cells: their
        widths, the last one's scaled by 2 (1 - a_last_speed).  The time
        they save is half of it: `select_A` makes it 2 * deficit, and
        `_closure` moves it by twice the float endpoint defect."""
        if not self.a_cells.size:
            return 0.0
        widths = self.y.mesh.widths[self.a_cells]
        widths[-1] *= 2.0 * (1.0 - self.a_last_speed)
        return _total(widths)

    def _fast_speeds(self, cells: np.ndarray) -> np.ndarray:
        """|d|/k on the fast cells `cells`."""
        return np.abs(self.y.cell_derivatives()[cells]) / self.k

    def _moved_blocks(self, first: int = 0
                      ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """For each block of CELLS cells, from block `first`: its first cell,
        its widths, and its cells of speed other than 1, in mesh order, with
        those speeds: |d|/k on the fast set, 1/2 on the compensation set but
        `a_last_speed` on its last cell.  A cell at speed 1 (a fast cell at
        |d|/k = 1, or the last compensation cell) is not listed."""
        h, s, a = self.y.mesh.widths, self.s_cells, self.a_cells
        for lo in range(first * CELLS, h.size, CELLS):
            widths = h[lo:lo + CELLS]
            hi = lo + widths.size
            s0, s1, a0, a1 = np.searchsorted(s, (lo, hi)).tolist() + \
                np.searchsorted(a, (lo, hi)).tolist()
            cells, v = s[s0:s1], self._fast_speeds(s[s0:s1])
            if a0 < a1:  # the two sets are disjoint
                va = np.full(a1 - a0, 0.5)
                if a1 == a.size:
                    va[-1] = self.a_last_speed
                at = np.searchsorted(cells, a[a0:a1])
                cells, v = np.insert(cells, at, a[a0:a1]), np.insert(v, at, va)
            if (v == 1.0).any():
                cells, v = cells[v != 1.0], v[v != 1.0]
            yield lo, widths, cells, v


@dataclass(frozen=True)
class ReparResult:
    """One cap: its plan, and Lip and F before and after.

    `energy_after` and `lip_after` come from the `changed_cells` cells whose
    speed is not 1 (see `ReparInput.cap`).  Where a cell moves, `plan` is
    closed: its `a_last_speed` is the one closing speed `_closure` gave it.
    The capped trajectory `y_k` is built on first access from the plan
    alone: its mesh nodes are the closed image phi(t_i) that
    `_image_blocks` gives, block by block, and its values those of y; with
    no changed cell it is the input itself.
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
        plan = self.plan
        if not self.changed_cells:
            return plan.y
        blocks = _image_blocks(plan)  # consecutive blocks share a node
        nodes = np.concatenate([next(blocks), *(nodes[1:] for nodes in blocks)])
        return Trajectory(Mesh(nodes), plan.y.values)


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


def _feasible_k_hint(plan: ReparPlan) -> float | None:
    """The first of 2k, 4k, ... (64 doublings) at which twice `classify`'s
    deficit falls below the slow set's measure, or None."""
    slow, probe = (plan.slow_cells, plan.measure_omega), plan.k
    for _ in range(64):
        probe *= 2.0
        if 2.0 * classify(plan.y, probe, plan.lam, slow).deficit < plan.measure_omega:
            return probe
    return None


def select_A(plan: ReparPlan) -> ReparPlan:
    """Complete the plan: pick the compensation set greedily from the left.

    Cells of the slow set are taken in mesh order, at speed 1/2, each saving
    half its width in time, up to the first cell j whose width h_j covers
    the measure r still to cover (twice the deficit less the widths before
    it).  Cell j runs whole at speed 1 - r / (2 h_j), in [1/2, 1], which
    saves r / 2, so the set saves exactly the deficit.  Where that speed
    rounds to 1, cell j stays in the set: `_closure` closes the time change
    on its speed.  Requires the slow set strictly larger than twice the
    deficit; otherwise raises InfeasibleError carrying a feasible-k hint.
    """
    if plan.complete:
        return plan
    target = 2.0 * plan.deficit
    if target == 0.0:
        return replace(plan, a_cells=(), complete=True)
    if not plan.measure_omega > target:
        hint = _feasible_k_hint(plan)
        raise InfeasibleError(
            f"slow set too small: |Omega|={plan.measure_omega:.6g} <= "
            f"2*deficit={target:.6g}; retry with k >= {hint}", k_hint=hint)

    # remaining[j]: measure still to cover when slow cell j is reached; the
    # cumsum is sequential, so these are the bits of cell-by-cell subtraction,
    # and a prefix of the slow cells gives their prefix: the last cell is
    # sought in prefixes growing fourfold, so the cost follows |A_k|, not |Omega|
    cells = plan.slow_cells
    m = 0
    while m < cells.size:
        m = 4 * m + 64
        widths = plan.y.mesh.widths[cells[:m]]
        remaining = np.cumsum(np.concatenate(([target], -widths)))[:-1]
        last = remaining <= widths
        if last.any():
            break
    j = int(np.argmax(last))
    if not last[j]:
        raise ConsistencyError("compensation selection exhausted the slow set")
    speed = 1.0 - 0.5 * float(remaining[j] / widths[j])
    return replace(plan, a_cells=cells[:j + 1], a_last_speed=speed, complete=True)


def _scaled(widths: np.ndarray, cells: np.ndarray, v: np.ndarray) -> np.ndarray:
    """speeds * widths for a block of widths whose cells `cells` (offsets
    in the block) run at speeds v and the rest at 1."""
    if cells.size:
        widths = widths.copy()
        widths[cells] *= v
    return widths


def _image_blocks(plan: ReparPlan, first: int = 0,
                  carry: float = -0.0) -> Iterator[np.ndarray]:
    """The image phi(t_i) of y's nodes, the mesh nodes of y_k, one block of
    `plan._moved_blocks(first)` at a time, from the block's left node to
    its right one (so consecutive blocks share a node): a plus the running
    sums of speeds * widths, continued from `carry`, the sum of the blocks
    before `first`, so they have the bits of one np.cumsum.  On the last
    block, phi(b) must lie within the endpoint tolerance of b
    (ConsistencyError) and is snapped to b."""
    a, b = plan.y.mesh.a, plan.y.mesh.b
    for lo, widths, cells, v in plan._moved_blocks(first):
        sums = running_sum(_scaled(widths, cells - lo, v), carry)
        carry, nodes = sums[-1], sums + a
        if lo + widths.size == plan.y.mesh.n_cells:
            if not endpoint_exact(nodes, a, b):
                raise ConsistencyError(
                    f"endpoint defect {abs(float(nodes[-1]) - b):.3e} exceeds tolerance "
                    f"{ENDPOINT_RTOL * (b - a):.3e}")
            nodes[-1] = b
        yield nodes
        del sums, nodes  # one block's arrays at a time


def _closure(plan: ReparPlan) -> ReparPlan:
    """The plan closed on its one free speed: `a_last_speed`, which
    `select_A` set in [1/2, 1].

    In exact arithmetic the measure equation makes phi(b) = b; the float
    defect, b - a less the left-to-right sum of speeds * widths, is absorbed
    into the speed of the last compensation cell (ConsistencyError if A is
    empty), and the plan is returned with that speed.  Then every speed must
    be finite and positive, and the closed image from which `ReparResult.y_k`
    builds its mesh, `_image_blocks`, must increase strictly (ArgumentError)
    and end within the endpoint tolerance of b (ConsistencyError), so a cap
    raises what building y_k would.  The sums walk `_moved_blocks`, each
    block's continued from the last by `running_sum`, and a nonzero defect
    re-sums the image from the block that holds the closing cell.  A zero
    defect returns the plan as it is: its sums were finite, so its speeds
    are, and `select_A` gave them in [1/2, top].
    """
    if not plan.complete:
        raise ArgumentError("plan is not complete; run select_A first")
    a, b = plan.y.mesh.a, plan.y.mesh.b
    increasing = lambda nodes: bool(np.all(np.diff(nodes) > 0))
    top, carry, starts, ok = 1.0, -0.0, [], []
    for lo, widths, cells, v in plan._moved_blocks():
        starts.append(carry)
        sums = running_sum(_scaled(widths, cells - lo, v), carry)
        ok.append(increasing(sums + a))  # re-checked from a[-1]'s block if it closes
        carry = sums[-1]
        if v.size:
            top = max(top, float(v.max()))
    defect = float((b - a) - carry)
    if defect != 0.0:
        if not plan.a_cells.size:
            raise ConsistencyError(
                f"endpoint defect {abs(defect):.3e} and no compensation cell to absorb it")
        j = int(plan.a_cells[-1])
        plan = replace(plan, a_last_speed=plan.a_last_speed
                       + defect / float(plan.y.mesh.widths[j]))
        positive_speeds((top, plan.a_last_speed))  # every other speed lies in [1/2, top]
        first = j // CELLS  # the block holding cell j
        ok[first:] = map(increasing, _image_blocks(plan, first, starts[first]))
    if not all(ok):
        raise ArgumentError(NOT_INCREASING)
    return plan


def _capped_cells(spec: LagrangianSpec, plan: ReparPlan, cells: np.ndarray,
                  s: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies and |slopes| of y o phi^{-1} on the images of
    y's cells `cells`, run at speeds `s`: phi maps cell j
    and its Gauss points affinely onto a cell of width h_j s_j and slope
    d_j / s_j, so for an autonomous L the image's energy is
    (h_j s_j / 2) sum_q w_q L(yq, d_j / s_j) on y's own samples yq (at
    speed 1, the bits of `energy`'s).  The quadrature walks blocks of
    SAMPLES // order cells, so its sample arrays hold at most SAMPLES."""
    y = plan.y
    h, d = y.mesh.widths[cells], y.cell_derivatives()[cells]
    v = d / s
    samples = linear_samples(order, y.mesh.nodes[cells], y.mesh.nodes[cells + 1],
                             y.values[cells], h, d, v)
    return cell_sums(spec, h * s, _gauss(order)[1], samples, max(1, SAMPLES // order)), np.abs(v)


@dataclass(frozen=True, eq=False)
class ReparInput:
    """A trajectory prepared for slope capping at any number of thresholds,
    as `find_K` caps a grid.

    What depends on y alone is computed once: the autonomy check, lambda
    and Lip(y) by `of`, the slow set by the first `cap(k)`, and F(y) with
    its per-cell energies by the first `cap(k)` with k > lambda (so a grid
    at or below lambda never evaluates it).  Each `cap(k)` then runs only
    the per-k phases on the fast, compensation and changed cells, plus
    passes over blocks of CELLS cells, so its memory follows the changed
    cells, not the mesh: it takes F(y_k) from the cells whose speed is not
    1, evaluating the integrand on those alone, and does not build the
    capped trajectory (`ReparResult.y_k` is built on first access).
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
        after the change, less y's energies of the same cells.  Raises what
        building y_k would, without building it, and ArgumentError for an
        infinite k, as `minimize_bounded` does for an infinite slope bound.
        """
        if not k > self.lam:
            raise ArgumentError(f"need k > choose_lambda(y) = {self.lam} (got k={k})")
        if not math.isfinite(k):
            raise ArgumentError(f"need a finite k (got k={k})")
        lip, before = self.lip, self.energy_before
        plan = select_A(classify(self.y, k, self.lam, self._slow))
        if not plan.a_cells.size and np.all(plan._fast_speeds(plan.s_cells) == 1.0):
            # Lip(y) < k or |d| == k ties: no time change
            return ReparResult(plan, lip, lip, before, before, changed_cells=0)
        plan = _closure(plan)
        d, per_cell = self.y.cell_derivatives(), self._energy.per_cell
        changed, lip_after, gained, lost = 0, 0.0, -0.0, -0.0
        for lo, widths, cells, v in plan._moved_blocks():
            changed += cells.size
            slopes = np.abs(d[lo:lo + widths.size])  # y's, at speed 1
            slopes[cells - lo] = 0.0
            lip_after = max(lip_after, float(slopes.max()))
            if cells.size:
                energies, slopes = _capped_cells(self.spec, plan, cells, v, self.order)
                gained = float(running_sum(energies, gained)[-1])
                lip_after = max(lip_after, float(slopes.max()))
                lost = float(running_sum(per_cell[cells], lost)[-1])
        return ReparResult(plan, lip, lip_after, before, before + (gained - lost), changed)


def reparametrize(spec: LagrangianSpec, y: Trajectory, k: float,
                  order: int = DEFAULT_ORDER) -> ReparResult:
    """Cap the slopes of y at 2k by a time change, preserving the boundary.

    Requires an autonomous integrand (the energy bookkeeping uses that L
    sees only (y, v)) with finite energy on y, and k above choose_lambda(y).
    If max |y'| < k the input is returned unchanged, bitwise.  For convex
    integrands the guarantee energy_after <= energy_before + 1/k is
    asymptotic in k; `find_K`, the sweep over many k, locates the onset
    from one `ReparInput`.
    """
    return ReparInput.of(spec, y, order).cap(k)


@dataclass(frozen=True)
class KRow:
    """One k of a sweep, as `find_K` gives it and `lavlab repar` writes it:
    the cap's measures of the fast and compensation sets, Lip(y_k), F(y),
    F(y_k), the gap and the changed cells, judged "ok" by the bound
    gap <= 1/k, allowing a relative slack of 1e-12 on the energy, or else
    "above_bound".  Every field is set: a k that cannot be capped stops the
    sweep instead of making a row."""

    k: float
    status: str  # "ok" | "above_bound"
    measure_s: float
    measure_a: float
    lip: float
    energy_before: float
    energy_after: float
    gap: float
    changed_cells: int


@dataclass(frozen=True)
class FindKReport:
    """Sweep of the energy-excess bound gap <= 1/k over a threshold grid,
    one row per grid point in ascending k.

    K is the smallest grid point from which the bound holds for every larger
    grid point; None when no trailing run satisfies it, or when the
    integrand is not flagged convex in v, the case the bound is proved for.
    """

    K: float | None
    rows: tuple[KRow, ...]


def find_K(spec: LagrangianSpec, y: Trajectory, k_grid: Sequence[float],
           order: int = DEFAULT_ORDER) -> FindKReport:
    """Locate the onset of energy_after <= energy_before + 1/k on a grid.

    One `ReparInput` caps y at each k of the sorted grid, and each cap is
    judged as a `KRow`.  The sweep stops at the first k that `cap` refuses:
    a k at or below lambda raises ArgumentError, before F(y) is evaluated
    (such a k sorts first), an infeasible k raises InfeasibleError with its
    `k_hint`, and an infinite k (which sorts last) raises ArgumentError.
    """
    prepared = ReparInput.of(spec, y, order)
    rows = []
    for k in sorted(map(float, k_grid)):
        res = prepared.cap(k)
        slack = 1e-12 * max(1.0, abs(res.energy_before))
        ok = res.energy_after <= res.energy_before + 1.0 / k + slack
        rows.append(KRow(k, "ok" if ok else "above_bound", res.plan.measure_s,
                         res.plan.measure_a, res.lip_after, res.energy_before,
                         res.energy_after, res.gap, res.changed_cells))
    K = None
    if spec.convex_in_v:  # the bound is proved for these alone
        for row in reversed(rows):
            if row.status != "ok":
                break
            K = row.k
    return FindKReport(K, tuple(rows))


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
    value, _, lv = jet(spec, t_grid, y_grid, grid)
    if not np.all(np.isfinite(lv)):
        raise SingularPointError(f"{spec.id}: L_v singular on the grid at (t={t}, y={y})")
    vals = value - grid * lv
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
