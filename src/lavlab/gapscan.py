"""Gap experiments: bounded-slope minimization, truncation sequences, and
the logarithmic lower bound that witnesses energy blow-up.

The central contrast: for Mania's integrand with both endpoints pinned, the
best energy reachable with a slope bound stays bounded away from zero no
matter how the mesh and bound grow, while truncations of the minimizer with
only the final endpoint pinned have energies at quadrature-noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, DomainError
from .functional import (DEFAULT_ORDER, _eval_spec, _gauss, _total, cell_sums,
                         energy, energy_converged, gauss_points, gauss_sum)
from .lagrangian import _FD_STEP, LagrangianSpec, catalog
from .repar import KRow, ReparInput
from .trajectory import (Mesh, Trajectory, graded_family, graded_mesh, sample,
                         uniform_mesh)

DEFAULT_SEED = 0x4C41565245


# -- reference minimizing families ------------------------------------------


def sqrt_ramp(n: int, tail_cells: int = 1024, tail_power: float = 2.0) -> Trajectory:
    """Linear ramp of slope sqrt(n) on [0, 1/n], then sqrt(t) up to 1.

    The tail is sampled on a graded mesh; tail_cells=1 gives the coarse
    three-node version with slopes (sqrt(n), (1 - n**-0.5)/(1 - 1/n)).
    """
    if n < 2:
        raise ArgumentError("need n >= 2")
    tail = graded_mesh(1.0 / n, 1.0, tail_cells, tail_power)
    nodes = np.concatenate([[0.0], tail.nodes])
    values = np.sqrt(nodes)
    values[0] = 0.0
    return Trajectory(Mesh(nodes), values)


def plateau_tent(n: int) -> Trajectory:
    """Tent from (0,0) to (1,0) flattened on [1/2 - 1/n, 1/2 + 1/n].

    Slopes are (1, 0, -1); the unit-slope pieces contribute nothing to the
    double-well integrand, and the plateau contributes exactly 2/n.
    """
    if n < 3:
        raise ArgumentError("need n >= 3 so the plateau is interior")
    left = 0.5 - 1.0 / n
    right = 0.5 + 1.0 / n
    nodes = np.array([0.0, left, right, 1.0])
    values = np.array([0.0, left, left, 0.0])
    return Trajectory(Mesh(nodes), values)


def sawtooth(n: int) -> Trajectory:
    """2n teeth of slope +/-1 on [0, 1]; |y| <= 1/(2n), boundary (0, 0)."""
    if n < 1:
        raise ArgumentError("need n >= 1")
    nodes = np.arange(2 * n + 1) / (2.0 * n)
    values = np.where(np.arange(2 * n + 1) % 2 == 1, 1.0 / (2.0 * n), 0.0)
    return Trajectory(Mesh(nodes), values)


def cuberoot_truncation(n: int, tail_power: float = 3.0) -> Trajectory:
    """t**(1/3) truncated flat at height (n+1)**(-1/3) on [0, 1/(n+1)].

    Lipschitz with constant (n+1)**(2/3)/3 and final value 1; the tail
    resolution scales with that constant so the sampled energy stays at
    quadrature-noise level for every n.
    """
    if n < 1:
        raise ArgumentError("need n >= 1")
    s0 = 1.0 / (n + 1)
    tail_cells = max(256, int(math.ceil(16.0 * (n + 1) ** (2.0 / 3.0))))
    tail = graded_mesh(s0, 1.0, tail_cells, tail_power)
    nodes = np.concatenate([[0.0], tail.nodes])
    values = np.cbrt(np.maximum(nodes, s0))
    return Trajectory(Mesh(nodes), values)


# -- bounded-slope minimization ----------------------------------------------

# Stop once the projected-gradient residual (in slope units) is this small.
_PG_TOL = 1e-8
# The winning start may run this many times max_iters on to stationarity.
_POLISH_FACTOR = 20
# Nonmonotone SPG (Birgin, Martinez & Raydan 2000): reference window,
# sufficient-decrease constant, spectral step safeguards, and the
# interpolation bracket of the backtracking.
_SPG_MEMORY = 10
_SPG_GAMMA = 1e-4
_SPG_STEP_MIN, _SPG_STEP_MAX = 1e-10, 1e10
_SPG_SIGMA = (0.1, 0.9)


class _SlopeSet:
    """The feasible slopes {|s| <= m, h.s = c}, or the box alone when c is
    None, with the exact projection onto them in the h-weighted metric."""

    def __init__(self, h: np.ndarray, c: float | None, m: float):
        self.h, self.c, self.m = h, c, m
        self.width = float(h.sum())
        self.signed_h = np.concatenate((h, -h))

    def project(self, u: np.ndarray) -> np.ndarray:
        """argmin of sum h (s - u)^2 over the set.

        The answer is clip(u - mu, -m, m), where mu is the root of the
        non-increasing piecewise-linear phi(mu) = h . clip(u - mu, -m, m).
        phi is evaluated at all 2n breakpoints u -+ m at once by a sort and
        a cumsum (the continuous quadratic knapsack, Kiwiel 2008).
        """
        m, c, width = self.m, self.c, self.width
        if c is None:
            return np.clip(u, -m, m)
        mu = (float(self.h @ u) - c) / width
        if np.abs(u - mu).max() <= m:  # no bound active: a plain shift
            return u - mu
        bp = np.concatenate((u - m, u + m))
        by = bp.argsort()
        bp = bp[by]
        # width of the unclipped cells between consecutive breakpoints
        free = self.signed_h[by].cumsum()
        np.maximum(free, 0.0, out=free)
        phi = m * width - (free[:-1] * np.diff(bp)).cumsum()  # phi(bp[1:])
        k = int(np.count_nonzero(phi >= c))  # bp[k] is the last with phi >= c
        phi_k = phi[k - 1] if k else m * width
        mu = bp[k] + (phi_k - c) / free[k] if free[k] > 0.0 else bp[k]
        return np.clip(u - mu, -m, m)


@dataclass(frozen=True)
class MinimizeInfo:
    """How `minimize_bounded` obtained its answer.

    `iterations`, `energy_evals` and `gradient_evals` are totals over all
    starts; `pg_residual` and `stop_reason` belong to the returned
    trajectory: "converged" (residual <= tolerance), "max_iters" (iteration
    cap) or "stalled" (the line search could not decrease the energy, or
    the gradient is not finite).
    """

    iterations: int
    energy_evals: int
    gradient_evals: int
    pg_residual: float
    stop_reason: str


class _SlopeProblem:
    """Quadrature energy as a function of the cell slopes s.

    Nodal values are y_i = A + sum_{j<i} h_j s_j with y_n pinned to B (two
    endpoints), or y_i = B - sum_{j>=i} h_j s_j (final endpoint only).  The
    quadrature geometry is built once and shared by the energy and the
    gradient, and the energy is computed from y exactly as
    `cell_energies(spec, nodes, y, order)` does.
    """

    def __init__(self, spec: LagrangianSpec, mesh: Mesh, order: int,
                 boundary: tuple[float | None, float]):
        self.spec = spec
        self.A, self.B = boundary
        x, self.w = _gauss(order)
        self.h = np.diff(mesh.nodes)
        self.tq = gauss_points(mesh.nodes, self.h, x)
        self.offsets = self.tq - mesh.nodes[:-1]  # from each left node
        self.energy_evals = 0
        self.gradient_evals = 0

    def values(self, s: np.ndarray) -> np.ndarray:
        """Nodal values of the slopes s, with the pinned endpoints exact."""
        y = np.empty(s.size + 1)
        if self.A is None:
            y[:-1] = self.B - np.cumsum((self.h * s)[::-1])[::-1]
        else:
            y[0] = self.A
            y[1:] = self.A + np.cumsum(self.h * s)
        y[-1] = self.B
        return y

    def cells(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(per-cell contributions, yq, vq): the same bits as
        `cell_energies(spec, nodes, y, order)`, plus the samples behind them
        (one row per Gauss point; vq is a broadcast view of the slopes)."""
        d = (y[1:] - y[:-1]) / self.h
        yq = y[:-1] + d * self.offsets
        vq = np.broadcast_to(d, yq.shape)
        tq = self.tq
        contrib = cell_sums(self.spec, self.h, self.w,
                            lambda b: (tq[:, b], yq[:, b], vq[:, b]))
        return contrib, yq, vq

    def energy(self, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """(total energy, yq, vq); the total is summed as `energy` does."""
        self.energy_evals += 1
        contrib, yq, vq = self.cells(y)
        return _total(contrib), yq, vq

    def _point_partials(self, yq, vq) -> tuple[np.ndarray, np.ndarray]:
        """(L_y, L_v) at the quadrature samples: exact partials when the
        spec has them, central differences of its integrand otherwise."""
        spec, tq = self.spec, self.tq
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if spec.partials is not None:
                _, ly, lv = spec.partials
                return (np.asarray(ly(tq, yq, vq), dtype=float),
                        np.asarray(lv(tq, yq, vq), dtype=float))
            hy = _FD_STEP * np.maximum(1.0, np.abs(yq))
            hv = _FD_STEP * np.maximum(1.0, np.abs(vq))
            return ((_eval_spec(spec, tq, yq + hy, vq)
                     - _eval_spec(spec, tq, yq - hy, vq)) / (2.0 * hy),
                    (_eval_spec(spec, tq, yq, vq + hv)
                     - _eval_spec(spec, tq, yq, vq - hv)) / (2.0 * hv))

    def gradient(self, yq: np.ndarray, vq: np.ndarray) -> np.ndarray:
        """dE/ds_j divided by h_j, i.e. the gradient in the h-weighted metric.

        Cell j's own samples move with s_j through y' and the offset from its
        left node; every later cell (earlier ones in one-endpoint mode)
        moves rigidly by -+h_j, which a cumsum of the per-cell L_y
        integrals collects.
        """
        self.gradient_evals += 1
        ly, lv = self._point_partials(yq, vq)
        rigid = (self.h / 2.0) * gauss_sum(ly, self.w)
        g = gauss_sum(ly * self.offsets + lv, self.w) / 2.0
        if self.A is None:
            g -= np.cumsum(rigid)
        else:
            g[:-1] += np.cumsum(rigid[::-1])[::-1][1:]
        return g


@dataclass
class _Iterate:
    """One SPG run: the current point and what the next step needs."""

    s: np.ndarray
    y: np.ndarray
    e: float
    g: np.ndarray
    history: list[float]
    step: float | None = None
    iterations: int = 0
    pg_residual: float = math.inf
    stop_reason: str = "max_iters"


def _start(prob: _SlopeProblem, s: np.ndarray, y: np.ndarray) -> _Iterate:
    e, yq, vq = prob.energy(y)
    return _Iterate(s=s, y=y, e=e, g=prob.gradient(yq, vq), history=[e])


def _spg(prob: _SlopeProblem, it: _Iterate, project: Callable,
         budget: int) -> _Iterate:
    """Nonmonotone spectral projected gradient on the slopes, for at most
    `budget` more iterations (Birgin, Martinez & Raydan 2000, SPG2).

    Steps are Barzilai-Borwein; the backtracking accepts a point whose
    energy is below the maximum of the last few plus a sufficient decrease,
    so an accepted energy never exceeds the start's.
    """
    h = prob.h
    while True:
        if not (math.isfinite(it.e) and np.all(np.isfinite(it.g))):
            it.stop_reason = "stalled"
            return it
        it.pg_residual = float(np.abs(project(it.s - it.g) - it.s).max())
        if it.pg_residual <= _PG_TOL:
            it.stop_reason = "converged"
            return it
        if budget == 0:
            it.stop_reason = "max_iters"
            return it
        budget -= 1
        if it.step is None:
            it.step = min(max(1.0 / it.pg_residual, _SPG_STEP_MIN), _SPG_STEP_MAX)
        d = project(it.s - it.step * it.g) - it.s
        slope = float(np.dot(h * it.g, d))
        ref = max(it.history[-_SPG_MEMORY:])
        alpha = 1.0
        scale = max(1.0, float(np.abs(it.s).max()))
        while True:
            s_new = it.s + alpha * d
            y_new = prob.values(s_new)
            e_new, yq, vq = prob.energy(y_new)
            if e_new <= ref + _SPG_GAMMA * alpha * slope:
                break
            if alpha * float(np.abs(d).max()) <= 1e-16 * scale:
                it.stop_reason = "stalled"
                return it
            trial = -0.5 * alpha * alpha * slope / (e_new - it.e - alpha * slope)
            lo, hi = _SPG_SIGMA
            alpha = trial if lo * alpha <= trial <= hi * alpha else alpha / 2.0
        g_new = prob.gradient(yq, vq)
        ds, dg = s_new - it.s, g_new - it.g
        curvature = float(np.dot(h * ds, dg))
        it.step = (min(max(float(np.dot(h * ds, ds)) / curvature, _SPG_STEP_MIN),
                       _SPG_STEP_MAX) if curvature > 0.0 else _SPG_STEP_MAX)
        it.s, it.y, it.e, it.g = s_new, y_new, e_new, g_new
        it.history.append(e_new)
        it.iterations += 1


def minimize_bounded(spec: LagrangianSpec, mesh: Mesh, bound_M: float,
                     boundary: tuple[float | None, float], restarts: int = 8,
                     seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER,
                     max_iters: int = 150,
                     extra_inits: Sequence[Trajectory] = ()
                     ) -> tuple[Trajectory, float, MinimizeInfo]:
    """Best slope-bounded trajectory by spectral projected gradient.

    The unknowns are the cell slopes s in [-M, M]^n; with both endpoints
    pinned (A not None) they also satisfy h . s = B - A, and with A None only
    y(b) = B is pinned.  The gradient is exact (chain rule through the Gauss
    rule, from the spec's partials), the projection is exact (see
    `_SlopeSet.project`), and steps are nonmonotone Barzilai-Borwein.

    Starts: the straight line (flat at B in one-endpoint mode), each of
    `extra_inits`, and `restarts` seeded smooth perturbations of the first.
    A start that already satisfies the constraints (exact endpoints,
    Lipschitz constant <= M) is used as given, so its energy is a candidate
    unchanged; others are projected.  Every start runs for up to
    `max_iters` iterations, and the best one is then run on until its
    projected-gradient residual falls below 1e-8 (or 20 * max_iters more
    iterations pass).

    Returns (trajectory, energy, info); the energy is that of
    `energy(spec, trajectory, order)`, bit for bit.
    """
    A, B = boundary
    nodes = mesh.nodes
    n = mesh.n_cells
    span = mesh.b - mesh.a
    if bound_M <= 0:
        raise ArgumentError("bound_M must be positive")
    m_eff = bound_M * (1.0 - 1e-12)
    if A is not None and m_eff * span <= abs(B - A):
        raise ArgumentError(
            f"bound_M={bound_M} infeasible: straight line needs slope {abs(B - A) / span:.6g}")
    prob = _SlopeProblem(spec, mesh, order, boundary)
    project = _SlopeSet(prob.h, None if A is None else B - A, m_eff).project

    def start(values: np.ndarray) -> _Iterate:
        s = np.diff(values) / prob.h
        pinned = values[-1] == B and (A is None or values[0] == A)
        if pinned and float(np.abs(s).max()) <= bound_M:
            return _start(prob, s, np.array(values, dtype=float))
        s = project(s)
        return _start(prob, s, prob.values(s))

    inits: list[np.ndarray] = []
    if A is None:
        inits.append(np.full(n + 1, B))
    else:
        inits.append(A + (B - A) * (nodes - mesh.a) / span)
    for t in extra_inits:
        if not np.array_equal(t.mesh.nodes, nodes):
            raise ArgumentError("extra_inits must live on the scan mesh")
        inits.append(t.values)
    rng = np.random.default_rng([seed, n, int(abs(bound_M) * 1e6)])
    base = inits[0]
    amp0 = 0.5 * max(1.0, float(np.max(np.abs(base))))
    for _ in range(restarts):
        bumps = rng.standard_normal(n + 1)
        bumps[0] = bumps[-1] = 0.0
        smooth = np.convolve(bumps, np.ones(5) / 5.0, mode="same")
        inits.append(base + amp0 * rng.uniform(0.2, 1.0) * smooth)

    best: _Iterate | None = None
    iterations = 0
    for y0 in inits:
        it = _spg(prob, start(y0), project, max_iters)
        iterations += it.iterations
        if best is None or it.e < best.e:
            best = it
    if best.stop_reason == "max_iters":
        done = best.iterations
        best = _spg(prob, best, project, _POLISH_FACTOR * max_iters)
        iterations += best.iterations - done
    info = MinimizeInfo(iterations=iterations, energy_evals=prob.energy_evals,
                        gradient_evals=prob.gradient_evals,
                        pg_residual=best.pg_residual, stop_reason=best.stop_reason)
    return Trajectory(mesh, best.y), best.e, info


# -- scans --------------------------------------------------------------------


@dataclass(frozen=True)
class GapRow:
    """One (mesh, bound) cell of a scan; `stop_reason` and `pg_residual`
    come from `MinimizeInfo` and say whether the row is a stationary point."""

    mesh_n: int
    slope_bound: float
    best_energy: float
    iterations: int
    stop_reason: str
    pg_residual: float

    def to_json_dict(self) -> dict:
        return {"mesh_n": self.mesh_n, "slope_bound": self.slope_bound,
                "best_energy": self.best_energy, "iterations": self.iterations,
                "stop_reason": self.stop_reason, "pg_residual": self.pg_residual}


@dataclass(frozen=True)
class GapReport:
    """Bounded-slope energies across (mesh, bound) grids vs. the minimizer."""

    rows: tuple[GapRow, ...]
    floor_estimate: float
    reference_energy: float
    gap_estimate: float

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "floor_estimate": self.floor_estimate,
            "reference_energy": self.reference_energy,
            "gap_estimate": self.gap_estimate,
        }

    def rows_to_csv(self, f) -> None:
        f.write("mesh_n,slope_bound,best_energy,iterations\n")
        for r in self.rows:
            f.write(f"{r.mesh_n},{r.slope_bound!r},{r.best_energy!r},{r.iterations}\n")


def mania_reference_energy(order: int = DEFAULT_ORDER, tol: float = 1e-6) -> float:
    """Energy of the true minimizer t**(1/3), by refinement on graded meshes."""
    family = graded_family(0.0, 1.0, 2 ** 14, 3.0)
    return energy_converged(catalog("mania"), np.cbrt, family, order=order, tol=tol).value


def _scan_mesh_group(args: tuple) -> list[GapRow]:
    """One mesh size, all bounds ascending with warm starts.  Module-level so
    process pools can pickle it."""
    n, M_grid, restarts, seed, order = args
    spec = catalog("mania")
    mesh = uniform_mesh(0.0, 1.0, int(n))
    warm: list[Trajectory] = []
    rows = []
    for M in sorted(float(m) for m in M_grid):
        traj, e, info = minimize_bounded(
            spec, mesh, M, (0.0, 1.0), restarts=restarts, seed=seed,
            order=order, extra_inits=warm)
        rows.append(GapRow(mesh_n=int(n), slope_bound=M, best_energy=e,
                           iterations=info.iterations,
                           stop_reason=info.stop_reason,
                           pg_residual=info.pg_residual))
        warm = [traj]
    return rows


def mania_two_endpoint_scan(n_grid: Sequence[int], M_grid: Sequence[float],
                            restarts: int = 8, seed: int = DEFAULT_SEED,
                            order: int = DEFAULT_ORDER,
                            jobs: int = 1) -> GapReport:
    """Bounded-slope minimization of Mania's problem with both endpoints.

    For each mesh size the bound grid is scanned in ascending order, warm-
    starting from the best trajectory at the previous bound.  That trajectory
    is feasible at the larger bound, so it is a candidate unchanged and the
    best energy is non-increasing in the bound by construction.  Each row
    carries the optimizer's stop reason and projected-gradient residual.
    Mesh sizes are independent jobs; with jobs > 1 they run in a process
    pool, and the report is assembled in grid order either way.
    """
    if not n_grid or not M_grid:
        raise ArgumentError("grids must be non-empty")
    groups = [(int(n), tuple(M_grid), restarts, seed, order) for n in n_grid]
    if jobs > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            per_group = list(pool.map(_scan_mesh_group, groups))
    else:
        per_group = [_scan_mesh_group(g) for g in groups]
    rows = [row for group in per_group for row in group]
    reference = mania_reference_energy(order=order)
    floor = min(r.best_energy for r in rows)
    return GapReport(rows=tuple(rows), floor_estimate=floor,
                     reference_energy=reference,
                     gap_estimate=floor - reference)


def mania_one_endpoint_truncations(n_grid: Sequence[int],
                                   order: int = DEFAULT_ORDER
                                   ) -> tuple[tuple[int, float], ...]:
    """Energies of the flat-topped truncations pinned only at t = 1."""
    spec = catalog("mania")
    out = []
    for n in n_grid:
        traj = cuberoot_truncation(int(n))
        out.append((int(n), energy(spec, traj, order).value))
    return tuple(out)


# -- logarithmic lower bound ---------------------------------------------------


def halfinverse_lower_bound(y: Trajectory, interval: tuple[float, float],
                            C: float) -> float:
    """Lower bound for the half-inverse energy of y over a window (c, b).

    For y nonvanishing on [c, b] with |y'| <= C,
        F(y) >= -ln|y(b)| + ln|y(c)| + (ln|y(b)| - ln|y(c)|)^2 / (4 C^2 (b-c)).
    Sending y(c) -> 0 makes the bound blow up, witnessing infinite energy
    for trajectories that vanish at the left endpoint.
    """
    c, b = interval
    if not (y.mesh.a <= c < b <= y.mesh.b):
        raise ArgumentError(f"window ({c}, {b}) must sit inside [{y.mesh.a}, {y.mesh.b}]")
    if C < y.lipschitz_constant * (1.0 - 1e-12):
        raise ArgumentError(
            f"C={C} is below the trajectory's Lipschitz constant {y.lipschitz_constant}")
    lo = y.mesh.cell_of(c)
    hi = y.mesh.cell_of(b)
    probe = np.concatenate([[y.eval(c)], y.values[lo + 1:hi + 1], [y.eval(b)]])
    if np.any(probe == 0.0) or np.any(probe > 0) != np.all(probe > 0):
        raise DomainError("trajectory must be nonvanishing on the window")
    log_ratio = math.log(abs(y.eval(b))) - math.log(abs(y.eval(c)))
    return -log_ratio + log_ratio ** 2 / (4.0 * C * C * (b - c))


# -- avoidance table -----------------------------------------------------------


def avoidance_demo(spec: LagrangianSpec, y_exact: Callable, mesh: Mesh,
                   k_grid: Sequence[float], order: int = DEFAULT_ORDER
                   ) -> tuple[KRow, ...]:
    """Slope-capping sweep on a sampled profile, one judged row per k."""
    prepared = ReparInput.of(spec, sample(y_exact, mesh), order)
    return tuple(KRow.of(prepared.cap(k)) for k in sorted(float(k) for k in k_grid))
