"""Gap experiments: bounded-slope minimization, truncation sequences, and
the logarithmic lower bound that witnesses energy blow-up.

The central contrast: for Mania's integrand with both endpoints pinned, the
best energy reachable with a slope bound stays bounded away from zero no
matter how the mesh and bound grow, while truncations of the minimizer with
only the final endpoint pinned have energies at quadrature-noise level.
"""

from __future__ import annotations

import math
import os
import pickle
import random
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DomainError
from .functional import (DEFAULT_ORDER, SAMPLES, _gauss, _total, cell_integrals, energy,
                         gauss_points, gauss_sum, line_values)
from .lagrangian import LagrangianSpec, catalog, jet
from .trajectory import Mesh, Trajectory, graded_mesh, uniform_mesh

DEFAULT_SEED = 0x4C41565245
SEED_MAX = 2 ** 64 - 1  # seeds are 64-bit, so (seed, M) keys the restarts one-to-one


# -- reference minimizing families ------------------------------------------


def sqrt_ramp(n: int, tail_cells: int = 1024) -> Trajectory:
    """Linear ramp of slope sqrt(n) on [0, 1/n], then sqrt(t) up to 1.

    The tail is sampled on a mesh graded with power 2; tail_cells=1 gives
    the coarse three-node version with slopes (sqrt(n), (1 - n**-0.5)/(1 - 1/n)).
    """
    if n < 2:
        raise ArgumentError("need n >= 2")
    tail = graded_mesh(1.0 / n, 1.0, tail_cells, 2.0)
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


def cuberoot_truncation(n: int) -> Trajectory:
    """t**(1/3) truncated flat at height (n+1)**(-1/3) on [0, 1/(n+1)].

    Lipschitz with constant (n+1)**(2/3)/3 and final value 1; the tail mesh
    is graded with power 3, and its resolution scales with that constant so
    the sampled energy stays at quadrature-noise level for every n.
    """
    if n < 1:
        raise ArgumentError("need n >= 1")
    s0 = 1.0 / (n + 1)
    tail_cells = max(256, int(math.ceil(16.0 * (n + 1) ** (2.0 / 3.0))))
    tail = graded_mesh(s0, 1.0, tail_cells, 3.0)
    nodes = np.concatenate([[0.0], tail.nodes])
    values = np.cbrt(np.maximum(nodes, s0))
    return Trajectory(Mesh(nodes), values)


# -- bounded-slope minimization ----------------------------------------------

# Stop once the projected-gradient residual (in slope units) is this small.
_PG_TOL = 1e-8
# Nonmonotone SPG (Birgin, Martinez & Raydan 2000): reference window,
# sufficient-decrease constant, spectral step safeguards, and the
# interpolation bracket of the backtracking.
_SPG_MEMORY = 10
_SPG_GAMMA = 1e-4
_SPG_STEP_MIN, _SPG_STEP_MAX = 1e-10, 1e10
_SPG_SIGMA = (0.1, 0.9)
_MODES = 8  # sine modes of a restart's perturbation
_SQRT3 = math.sqrt(3.0)  # scales a uniform draw on (-1, 1) to unit variance


class _SlopeSet:
    """The feasible slopes {|s| <= m, h.s = c}, with the exact projection
    onto them in the h-weighted metric."""

    def __init__(self, h: np.ndarray, c: float):
        self.h, self.c = h, c
        self.width = _total(h)
        self.signed_h = np.concatenate((h, -h))

    def project(self, u: np.ndarray, m: float | np.ndarray) -> np.ndarray:
        """argmin of sum h (s - u)^2 over the set, for each row of u and its
        own bound m (one per row, or one for all).

        The answer is clip(u - mu, -m, m), where mu is the root of the
        non-increasing piecewise-linear phi(mu) = h . clip(u - mu, -m, m).
        Where a plain shift leaves some |s| > m, phi is evaluated at all 2n
        breakpoints u -+ m by a sort and a cumsum along the row (the
        continuous quadratic knapsack, Kiwiel 2008), SAMPLES // (2n) rows at a
        time so the sort's temporaries stay small.
        """
        rows = u.reshape(-1, u.shape[-1])
        m = np.broadcast_to(m, rows.shape[:1])[:, None]  # each row's bound, as a column
        out = rows - ((_total(self.h * rows) - self.c) / self.width)[:, None]
        hit = np.flatnonzero(np.abs(out).max(axis=-1) > m[:, 0])  # rows with an active bound
        chunk = max(1, SAMPLES // (2 * rows.shape[-1]))
        for r in (hit[i:i + chunk] for i in range(0, hit.size, chunk)):
            out[r] = self._search(rows[r], m[r])
        return out.reshape(u.shape)

    def _search(self, v: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The projection of rows v with bounds m (a column) by the breakpoint search."""
        c, mw = self.c, m * self.width
        bp = np.concatenate((v - m, v + m), axis=-1)
        by = bp.argsort(axis=-1)
        # width of the unclipped cells between consecutive breakpoints
        free = self.signed_h[by].cumsum(axis=-1)
        bp = bp.take(by + np.arange(0, bp.size, bp.shape[-1])[:, None])  # sorted rows
        np.maximum(free, 0.0, out=free)
        phi = mw - (free[:, :-1] * np.diff(bp)).cumsum(axis=-1)  # phi(bp[1:])
        k = np.count_nonzero(phi >= c, axis=-1)  # bp[k] is the last with phi >= c
        r = np.arange(k.size)
        phi_k, free_k, bp_k = np.where(k > 0, phi[r, k - 1], mw[:, 0]), free[r, k], bp[r, k]
        mu = bp_k + np.divide(phi_k - c, free_k, out=np.zeros(k.size), where=free_k > 0.0)
        return np.clip(v - mu[:, None], -m, m)


@dataclass(frozen=True)
class MinimizeInfo:
    """How `minimize_bounded` obtained its answer at one slope bound.

    `iterations`, `energy_evals` and `gradient_evals` are totals over that
    bound's starts, the warm start included.  `energy_evals` counts the
    integrand jets, one per start and one per trial step; `gradient_evals`
    counts the gradients the iteration used, one per start and one per
    accepted step (iterations + starts).  A rejected trial's jet also yields
    a gradient, which is dropped and not counted.  `pg_residual` and
    `stop_reason` belong to the returned trajectory: "converged" (residual
    <= tolerance), "max_iters" (iteration cap) or "stalled" (the line search
    could not decrease the energy, or the gradient is not finite).
    """

    iterations: int
    energy_evals: int
    gradient_evals: int
    pg_residual: float
    stop_reason: str


class _SlopeProblem:
    """Quadrature energy as a function of the cell slopes s, with both
    endpoints pinned: nodal values y_i = A + sum_{j<i} h_j s_j, and y_n = B.

    Slopes and values come as stacks (rows, cells) and (rows, nodes), one
    start per row, and their samples, from `line_values`, as (order,
    rows, cells).  Each row's energy has the bits of `cell_energies(spec,
    nodes, y, order)` summed as `energy` sums them, whatever its stack.
    `project` is the exact projection onto the feasible slopes,
    `_SlopeSet(h, B - A).project`.
    """

    def __init__(self, spec: LagrangianSpec, mesh: Mesh, order: int,
                 boundary: tuple[float, float]):
        self.spec = spec
        self.A, self.B = boundary
        x, self.w = _gauss(order)
        self.h = np.diff(mesh.nodes)
        tq = gauss_points(mesh.nodes[:-1], mesh.nodes[1:], self.h, x)
        self.points = tq[:, None]  # (order, 1, cells), broadcast over the rows
        self.offsets = self.points - mesh.nodes[:-1]  # from each left node
        self.rows = max(1, SAMPLES // tq.size)  # starts per jet
        self.project = _SlopeSet(self.h, self.B - self.A).project

    def values(self, s: np.ndarray) -> np.ndarray:
        """Nodal values of the slopes s, with the pinned endpoints exact."""
        y = np.empty((len(s), s.shape[-1] + 1))
        y[:, 0] = self.A
        y[:, 1:] = self.A + np.cumsum(self.h * s, axis=-1)
        y[:, -1] = self.B
        return y

    def evaluate(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Energies of the rows of y and their gradients dE/ds_j divided by
        h_j (the gradient in the h-weighted metric), from one `jet` of the
        integrand per `rows` rows.

        The energies go through `cell_integrals` as `cell_sums` reduces its
        samples.  For the gradient, cell j's own samples move with s_j
        through y' and the offset from its left node; every later cell moves
        rigidly by h_j, which a reversed cumsum of the per-cell L_y integrals
        collects.
        """
        energies, gradients = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(0, len(y), self.rows):
                rows = y[r:r + self.rows]
                d = (rows[:, 1:] - rows[:, :-1]) / self.h
                yq = line_values(self.offsets, rows[:, :-1], d)
                # a value that ignores t and y keeps the (1, rows, cells) of d[None]
                lq, ly, lv = (a if a.shape == yq.shape else np.broadcast_to(a, yq.shape)
                              for a in jet(self.spec, self.points, yq, d[None]))
                energies.append(_total(cell_integrals(lq, self.h, self.w)))
                rigid = (self.h / 2.0) * gauss_sum(ly, self.w)
                ly = ly * self.offsets
                ly += lv
                g = gauss_sum(ly, self.w) / 2.0
                g[:, :-1] += np.cumsum(rigid[:, ::-1], axis=-1)[:, ::-1][:, 1:]
                gradients.append(g)
        return np.concatenate(energies), np.concatenate(gradients)


def _spg(prob: _SlopeProblem, inits: Sequence[np.ndarray], M: np.ndarray,
         budget: int) -> list[np.ndarray]:
    """Nonmonotone spectral projected gradient (Birgin, Martinez & Raydan
    2000) on a stack of starts given by their nodal values, one per row of
    `inits`, each under its own slope bound M and for at most `budget`
    iterations.

    A start that already satisfies the constraints (exact endpoints,
    Lipschitz constant <= M) is used as given; others are projected by
    `prob.project` onto |s| <= M (1 - 1e-12).  Each row of a `prob.evaluate`
    call, a start's or a trial step's, counts one energy evaluation.  A row
    whose line search fails keeps its point and is flagged; at the loop head
    it leaves with the rows that converge, spend the budget or are not
    finite.  The rows advance in lockstep and no sum mixes rows, so a row
    ends with the bits and counts of its start run alone, whatever its
    stack.  Returns each row's nodal values, energy, iterations, energy
    evaluations, projected-gradient residual and stop reason as it stopped.
    A row's gradient evaluations, one at its start and one per accepted
    step, are its iterations + 1.
    """
    y = np.array(inits, dtype=float)
    m = M * (1.0 - 1e-12)
    s = np.diff(y) / prob.h
    pinned = (y[:, 0] == prob.A) & (y[:, -1] == prob.B)
    moved = ~(pinned & (np.abs(s).max(axis=-1) <= M))
    s[moved] = prob.project(s[moved], m[moved])
    y[moved] = prob.values(s[moved])
    e, g = prob.evaluate(y)
    h, k = prob.h, e.size
    memory = np.where(np.arange(_SPG_MEMORY) == 0, e[:, None], -np.inf)
    st = [np.arange(k), s, y, e, g, np.full(k, np.nan), memory,
          np.zeros(k, dtype=int), m, np.ones(k, dtype=int), np.zeros(k, dtype=bool)]
    final = [np.empty_like(y), np.empty(k), np.empty(k, dtype=int), np.empty(k, dtype=int),
             np.empty(k), np.empty(k, "<U9")]
    while True:
        _, s, y, e, g, step, memory, iters, m, e_evals, stalled = st
        bad = ~(np.isfinite(e) & np.isfinite(g).all(axis=-1))
        pg = np.abs(prob.project(np.where(bad[:, None], s, s - g), m) - s).max(axis=-1)
        pg[bad] = np.inf
        stop = bad | stalled | (pg <= _PG_TOL) | (iters == budget)
        if stop.any():  # rows leave
            why = np.select([bad | stalled, pg <= _PG_TOL], ["stalled", "converged"], "max_iters")
            for out, a in zip(final, (y, e, iters, e_evals, pg, why)):
                out[st[0][stop]] = a[stop]
            if stop.all():
                return final
            st = [a[~stop] for a in st]
            _, s, y, e, g, step, memory, iters, m, e_evals, stalled = st
            pg = pg[~stop]
        step = np.where(np.isnan(step), np.clip(1 / pg, _SPG_STEP_MIN, _SPG_STEP_MAX), step)
        d = prob.project(s - step[:, None] * g, m) - s
        slope, ref = _total(h * g * d), memory.max(axis=-1)
        reach, floor = np.abs(d).max(axis=-1), 1e-16 * np.maximum(1.0, np.abs(s).max(axis=-1))
        alpha = np.ones(pg.size)
        s_new, y_new, e_new, g_new = s + d, np.empty_like(y), np.empty(pg.size), np.empty_like(g)
        todo = np.arange(pg.size)  # rows whose trial step is to be judged
        while todo.size:
            y_new[todo] = prob.values(s_new[todo])
            e_new[todo], g_new[todo] = prob.evaluate(y_new[todo])
            e_evals[todo] += 1
            a = alpha[todo]
            fail = ~(e_new[todo] <= ref[todo] + _SPG_GAMMA * a * slope[todo])
            tiny = a * reach[todo] <= floor[todo]
            stalled[todo[fail & tiny]] = True
            todo = todo[fail & ~tiny]
            a, sl = alpha[todo], slope[todo]
            trial = -0.5 * a * a * sl / (e_new[todo] - e[todo] - a * sl)
            alpha[todo] = np.where((_SPG_SIGMA[0] * a <= trial) & (trial <= _SPG_SIGMA[1] * a),
                                   trial, a / 2.0)
            s_new[todo] = s[todo] + alpha[todo, None] * d[todo]
        for new, old in zip((s_new, y_new, e_new, g_new), (s, y, e, g)):
            new[stalled] = old[stalled]  # a stalled row keeps its point until the loop head
        ds, dg = s_new - s, g_new - g
        curvature = _total(h * ds * dg)
        quotient = np.divide(_total(h * ds * ds), curvature, where=curvature > 0.0,
                             out=np.full(curvature.size, _SPG_STEP_MAX))
        memory[np.arange(iters.size), (iters + 1) % _SPG_MEMORY] = e_new
        st[1:8] = (s_new, y_new, e_new, g_new,
                   np.clip(quotient, _SPG_STEP_MIN, _SPG_STEP_MAX), memory, iters + ~stalled)


def _perturbations(mesh: Mesh, M: float, count: int, seed: int) -> np.ndarray:
    """`count` smooth perturbations at the nodes, one per row, for the
    restarts at slope bound M.

    Each is sum_k c_k sin(k pi x) over the first _MODES modes, with
    x = (t - a)/(b - a), c_k = sqrt(3) (2u - 1)/k (mean 0, variance 1/k^2)
    and a scale 0.2 + 0.8u, for uniform draws u of `random.Random`, and is 0
    exactly at both ends.  The draws are keyed by (seed, int(M * 1e6)),
    one-to-one for seeds below 2^64, and not by the mesh, so the j-th
    perturbation at M is one function sampled on every mesh, and its slopes
    stay bounded as the mesh is refined.  Python keeps `Random.random`'s
    stream for a given seed, and the draws become coefficients by correctly
    rounded float operations only, so the restarts depend on no library's
    generator.  The modes are summed left to right, with no BLAS call.
    """
    k = np.arange(1, _MODES + 1)
    x = (mesh.nodes - mesh.a) / (mesh.b - mesh.a)
    modes = np.sin(np.pi * k[:, None] * x)
    draw = random.Random(int(M * 1e6) << 64 | seed).random
    out = np.zeros((count, x.size))
    for row in out:
        for j, mode in enumerate(modes, start=1):
            row += _SQRT3 * (2.0 * draw() - 1.0) / j * mode
        row *= 0.2 + 0.8 * draw()
    out[:, [0, -1]] = 0.0
    return out


def minimize_bounded(spec: LagrangianSpec, mesh: Mesh, bounds: Sequence[float],
                     boundary: tuple[float, float], restarts: int = 8,
                     seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER,
                     max_iters: int = 3150) -> list[tuple[Trajectory, float, MinimizeInfo]]:
    """Best slope-bounded trajectory at each bound M of a grid, by spectral
    projected gradient; returns one (trajectory, energy, info) per bound, in
    ascending order of M.

    Both endpoints are pinned, y(a) = A and y(b) = B, so the unknowns are
    the cell slopes s in [-M, M]^n with h . s = B - A.  The gradient is
    exact (chain rule through the Gauss rule, from the integrand's `jet`), the
    projection is exact (see `_SlopeSet.project`), and steps are nonmonotone
    Barzilai-Borwein.

    Starts at each bound: the straight line, the warm start (the previous
    bound's answer; none at the first bound), and `restarts` perturbations
    of the line by low-frequency sine series that vanish at both ends
    (`_perturbations`), seeded by (seed, int(M * 1e6)), so that they are
    the same functions on every mesh.  A start that already satisfies the
    constraints (exact endpoints, Lipschitz constant <= M) is used as given,
    so its energy is a candidate unchanged; others are projected.  Every
    start runs once, until its projected-gradient residual falls below 1e-8
    or for `max_iters` iterations, and each bound's answer is its best start
    (the first of equals, in the order above).  The starts known in advance,
    those of every bound, run as one lockstep stack; each warm start runs
    alone once the previous bound is decided.  A start's result does not
    depend on its stack, so each bound's answer is that of `_spg` on its
    own starts, in the order above.

    Each energy is that of `energy(spec, trajectory, order)`, bit for bit.
    """
    A, B = boundary
    nodes, span = mesh.nodes, mesh.b - mesh.a
    if not all(math.isfinite(M) for M in bounds):
        raise ArgumentError(f"slope bounds must be finite, got {list(bounds)}")
    bounds = sorted(float(M) for M in bounds)
    if not bounds:
        raise ArgumentError("need at least one slope bound")
    if bounds[0] <= 0:
        raise ArgumentError("slope bounds must be positive")
    if not math.isfinite(bounds[-1] * 1e6):  # int(M * 1e6) keys the restarts
        raise ArgumentError(f"slope bounds times 1e6 must be finite, got {bounds}")
    if max_iters < 0:
        raise ArgumentError(f"max_iters must be >= 0, got {max_iters}")
    if not 0 <= seed <= SEED_MAX:
        raise ArgumentError(f"seed must be >= 0 and <= {SEED_MAX}, got {seed}")
    if bounds[0] * (1.0 - 1e-12) * span <= abs(B - A):
        raise ArgumentError(
            f"bound M={bounds[0]} infeasible: straight line needs slope {abs(B - A) / span:.6g}")
    prob = _SlopeProblem(spec, mesh, order, boundary)

    base = A + (B - A) * (nodes - mesh.a) / span
    amp0 = 0.5 * max(1.0, float(np.max(np.abs(base))))
    inits: list[np.ndarray] = []
    for M in bounds:
        inits += [base, *(base + amp0 * _perturbations(mesh, M, restarts, seed))]
    per = 1 + restarts
    stack = _spg(prob, inits, np.repeat(bounds, per), max_iters)

    out: list[tuple[Trajectory, float, MinimizeInfo]] = []
    for j, M in enumerate(bounds):
        rows = [a[j * per:(j + 1) * per] for a in stack]
        if out:  # the warm start goes after the straight line
            warm = _spg(prob, [out[-1][0].values], np.array([M]), max_iters)
            rows = [np.concatenate((a[:1], b, a[1:])) for a, b in zip(rows, warm)]
        y, e, iters, e_evals, pg, why = rows
        best = int(np.argmin(e))
        info = MinimizeInfo(iterations=int(iters.sum()), energy_evals=int(e_evals.sum()),
                            gradient_evals=int(iters.sum()) + e.size,
                            pg_residual=float(pg[best]), stop_reason=str(why[best]))
        out.append((Trajectory(mesh, y[best]), float(e[best]), info))
    return out


# -- scans --------------------------------------------------------------------


@dataclass(frozen=True)
class GapRow(MinimizeInfo):
    """One (mesh, bound) cell of a scan: its best energy, with the
    `MinimizeInfo` of the `minimize_bounded` run that found it."""

    mesh_n: int
    slope_bound: float
    best_energy: float


@dataclass(frozen=True)
class GapReport:
    """Bounded-slope energies across (mesh, bound) grids vs. the minimizer.

    `reference_energy` is the infimum of Mania's problem over W^{1,1},
    exactly 0: F >= 0, and t**(1/3) attains 0, since y**3 - t vanishes along
    it.  So `floor_estimate` estimates the gap as well.
    """

    rows: tuple[GapRow, ...]
    floor_estimate: float
    reference_energy: float = field(default=0.0, init=False)

    def rows_to_csv(self, f) -> None:
        f.write("mesh_n,slope_bound,best_energy,iterations\n")
        for r in self.rows:
            f.write(f"{r.mesh_n},{r.slope_bound!r},{r.best_energy!r},{r.iterations}\n")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _mesh_size(n) -> int:
    """n as a mesh size: an integral number >= 1 that is not a bool."""
    try:
        if not isinstance(n, (bool, np.bool_)) and n >= 1 and int(n) == n:
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ArgumentError(f"mesh sizes must be integers >= 1, got {n!r}")


def _forked(work, groups: list[list[int]]) -> dict:
    """{n: work(n)} over the n of every group: group 0's in this process, each
    other group's in a child made by `os.fork`.  A child pickles its dict, or
    its exception, back through a pipe and leaves by `os._exit`, so it neither
    flushes inherited stdio nor runs atexit hooks.  A child's exception is
    raised here with its own type, and a child that ends without a reply
    raises ChildProcessError.  If anything raises, the children still running
    are killed; every child is reaped."""
    running = {}  # pid -> read end of its pipe, until reaped
    try:
        for group in groups[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    try:
                        reply = (True, {n: work(n) for n in group})
                    except BaseException as exc:
                        reply = (False, exc)
                    with open(write, "wb") as pipe:
                        pickle.dump(reply, pipe)
                    status = 0
                finally:
                    os._exit(status)
            running[pid] = open(read, "rb")
            os.close(write)
        found = {n: work(n) for n in groups[0]}
        for pid in list(running):
            with running.pop(pid) as pipe:
                blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
            if status or not blob:
                raise ChildProcessError(f"mesh child {pid} ended with wait status {status}"
                                        " and no reply")
            ok, value = pickle.loads(blob)
            if not ok:
                raise value
            found.update(value)
        return found
    except BaseException:
        import signal  # only here, so that importing lavlab loads nothing more
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.waitpid(pid, 0)


def mania_two_endpoint_scan(n_grid: Sequence[int], M_grid: Sequence[float],
                            restarts: int = 8, seed: int = DEFAULT_SEED,
                            order: int = DEFAULT_ORDER) -> GapReport:
    """Bounded-slope minimization of Mania's problem with both endpoints.

    For each mesh size one `minimize_bounded` call scans the bound grid in
    ascending order, warm-starting each bound from the best trajectory at the
    previous bound.  That trajectory is feasible at the larger bound, so it
    is a candidate unchanged and the best energy is non-increasing in the
    bound by construction.  Each row carries the optimizer's stop reason and
    projected-gradient residual.

    The distinct mesh sizes, largest first, go to the lightest of
    min(sizes, usable CPUs) groups, at a cost proportional to n; group 0
    runs here and each other in a forked child (`_forked`).  A mesh's rows
    do not depend on where it runs, so the report has the same bits on any
    number of CPUs.  Rows come in the order of `n_grid`.
    """
    if not n_grid or not M_grid:
        raise ArgumentError("grids must be non-empty")
    sizes = [_mesh_size(n) for n in n_grid]
    bounds = sorted(float(M) for M in M_grid)

    def rows_of(n: int) -> list[GapRow]:
        runs = minimize_bounded(catalog("mania"), uniform_mesh(0.0, 1.0, n), bounds,
                                (0.0, 1.0), restarts=restarts, seed=seed, order=order)
        return [GapRow(mesh_n=n, slope_bound=M, best_energy=e, **asdict(info))
                for M, (_, e, info) in zip(bounds, runs)]

    groups = [[] for _ in range(min(len(set(sizes)), _usable_cpus()))]
    for n in sorted(set(sizes), reverse=True):
        min(groups, key=sum).append(n)
    found = _forked(rows_of, groups)
    rows = [row for n in sizes for row in found[n]]
    return GapReport(rows=tuple(rows), floor_estimate=min(r.best_energy for r in rows))


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

