import dataclasses
import functools
import math
import os

import numpy as np
import pytest

from lavlab import (DEFAULT_ORDER, DEFAULT_SEED, ArgumentError, DomainError,
                    LagrangianSpec, Mesh, ReparInput, Trajectory, catalog, cli,
                    cuberoot_truncation, energy, gapscan, graded_mesh, lagrangian,
                    halfinverse_lower_bound, mania_one_endpoint_truncations,
                    mania_two_endpoint_scan, minimize_bounded,
                    polynomial_lagrangian, sample, sawtooth, uniform_mesh)
from lavlab.functional import (SAMPLES, _gauss, _total, cell_energies, cell_integrals,
                               gauss_points, gauss_sum, line_values)
from lavlab.gapscan import MinimizeInfo, _SlopeProblem, _SlopeSet, _perturbations, _spg


V_SQUARED = polynomial_lagrangian([[1, 0, 0, 2]])


def _line_and_restarts(mesh, boundary, M, restarts, seed):
    """minimize_bounded's own starts at bound M: the straight line, then its
    `restarts` perturbations."""
    A, B = boundary
    base = A + (B - A) * (mesh.nodes - mesh.a) / (mesh.b - mesh.a)
    amp0 = 0.5 * max(1.0, float(np.max(np.abs(base))))
    return [base, *(base + amp0 * _perturbations(mesh, M, restarts, seed))]


def _best_start(spec, mesh, M, boundary, starts, max_iters=3150):
    """(values, energy, info) of the best of `starts` run by `_spg` at bound
    M, picked and reported as minimize_bounded picks and reports a bound's
    answer."""
    prob = _SlopeProblem(spec, mesh, DEFAULT_ORDER, boundary)
    y, e, iters, e_evals, pg, why = _spg(prob, starts, np.full(len(starts), M), max_iters)
    best = int(np.argmin(e))
    return y[best], float(e[best]), MinimizeInfo(
        int(iters.sum()), int(e_evals.sum()), int(iters.sum()) + len(starts), float(pg[best]),
        str(why[best]))


class TestMinimizeBounded:
    def test_convex_problem_finds_straight_line(self):
        traj, e, _ = minimize_bounded(V_SQUARED, uniform_mesh(0, 1, 16), [2.0],
                                      (0.0, 1.0), restarts=2, seed=1)[0]
        assert e == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(traj.values, traj.mesh.nodes, atol=1e-4)

    def test_integrand_of_the_slope_alone(self):
        # its value and partials keep the per-cell shape of the slopes they are given
        spec = LagrangianSpec(id="slope_only", eval=lambda t, y, v: v * v,
                              partials=(lambda t, y, v: 0.0 * v, lambda t, y, v: 2.0 * v),
                              autonomous=True, convex_in_v=True)
        traj, e, info = minimize_bounded(spec, uniform_mesh(0, 1, 16), [2.0], (0.0, 1.0),
                                         restarts=2, seed=1)[0]
        assert info.stop_reason == "converged"
        assert e == energy(spec, traj).value == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_bound_rejected(self):
        with pytest.raises(ArgumentError):
            minimize_bounded(V_SQUARED, uniform_mesh(0, 1, 8), [0.5], (0.0, 1.0))

    @pytest.mark.parametrize("bounds, message", [
        ([2.0, math.inf], "finite"), ([math.nan], "finite"), ([], "at least one")])
    def test_non_finite_or_empty_bound_grid_rejected(self, bounds, message):
        with pytest.raises(ArgumentError, match=message):
            minimize_bounded(V_SQUARED, uniform_mesh(0, 1, 8), bounds, (0.0, 1.0))

    def test_negative_iteration_cap_rejected(self):
        # a negative cap would never be reached and so would lift the cap
        with pytest.raises(ArgumentError, match="max_iters must be >= 0"):
            minimize_bounded(V_SQUARED, uniform_mesh(0, 1, 8), [2.0], (0.0, 1.0),
                             max_iters=-1)

    def test_slope_bound_respected_exactly(self):
        spec = catalog("quartic_plus_square")
        for M in (1.0, 2.0):
            traj, _, _ = minimize_bounded(spec, uniform_mesh(0, 1, 48), [M],
                                          (0.0, 0.0), restarts=4, seed=3)[0]
            assert traj.lipschitz_constant <= M

    def test_sawtooth_witness_bounds_the_minimum(self):
        # the n=8 sawtooth is feasible for M=1, so the found minimum cannot
        # be worse than its energy 1/768
        spec = catalog("quartic_plus_square")
        mesh = Mesh(sawtooth(8).mesh.nodes)  # 16 cells aligned with the teeth
        witness = energy(spec, sawtooth(8)).value
        assert witness == pytest.approx(1.0 / 768.0, rel=1e-12)
        starts = _line_and_restarts(mesh, (0.0, 0.0), 1.0, 4, 5)
        starts.insert(1, sawtooth(8).values)
        _, e, _ = _best_start(spec, mesh, 1.0, (0.0, 0.0), starts)
        assert e <= witness + 1e-12

    def test_bound_monotonicity_with_warm_starts(self):
        spec = catalog("mania")
        mesh = uniform_mesh(0, 1, 60)
        best = math.inf
        warm = []
        for M in (3.0, 5.0, 9.0):
            starts = _line_and_restarts(mesh, (0.0, 1.0), M, 3, 11)
            starts[1:1] = warm
            values, e, _ = _best_start(spec, mesh, M, (0.0, 1.0), starts)
            assert e <= best + 1e-10
            best = e
            warm = [values]

    def test_mania_two_endpoint_energy_floor(self):
        # any slope-bounded trajectory pinned at 0 and 1 keeps positive energy
        spec = catalog("mania")
        _, e, _ = minimize_bounded(spec, uniform_mesh(0, 1, 100), [20.0],
                                   (0.0, 1.0), restarts=4, seed=13)[0]
        assert e > 1e-4


class TestTruncationSequence:
    def test_energies_effectively_zero(self):
        rows = mania_one_endpoint_truncations([1, 10, 100, 1000])
        for n, e in rows:
            assert 0.0 <= e <= 1e-8

    def test_final_constraint_only(self):
        y = cuberoot_truncation(100)
        assert y.values[-1] == 1.0
        assert y.values[0] == pytest.approx(101 ** (-1 / 3))
        assert y.lipschitz_constant <= 101 ** (2 / 3) / 3 * (1 + 1e-9)

    def test_flat_part_contributes_nothing(self):
        spec = catalog("mania")
        y = cuberoot_truncation(10)
        rep = energy(spec, y)
        assert rep.per_cell[0] == 0.0


class TestHalfInverseLowerBound:
    def test_constant_one_gives_zero(self):
        y = sample(lambda t: np.ones_like(np.asarray(t, float)),
                   uniform_mesh(0, 1, 4))
        assert halfinverse_lower_bound(y, (0.0, 1.0), 1.0) == 0.0

    def test_identity_blows_up_as_window_approaches_zero(self):
        y = sample(lambda t: t, graded_mesh(1e-9, 1.0, 64, 3.0))
        prev = -math.inf
        for c in (1e-2, 1e-4, 1e-6):
            val = halfinverse_lower_bound(y, (c, 1.0), 1.0)
            assert val > prev
            prev = val
        assert prev > 25.0  # ln(1e-6)^2/4 - |ln 1e-6|

    def test_zero_crossing_rejected(self):
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([-1.0, 1.0, 1.0]))
        with pytest.raises(DomainError):
            halfinverse_lower_bound(y, (0.0, 1.0), 4.0)

    def test_lipschitz_constant_validated(self):
        y = sample(lambda t: t + 1.0, uniform_mesh(0, 1, 4))
        with pytest.raises(ArgumentError):
            halfinverse_lower_bound(y, (0.0, 1.0), 0.5)

    def test_bound_below_energy_on_random_positive_trajectories(self):
        spec = catalog("half_inverse")
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(8, 25))
            mesh = uniform_mesh(0.0, 1.0, n)
            vals = rng.uniform(0.2, 2.0, size=n + 1)
            y = Trajectory(mesh, vals)
            c_node = int(rng.integers(0, n - 1))
            b_node = int(rng.integers(c_node + 1, n + 1))
            window = (float(mesh.nodes[c_node]), float(mesh.nodes[b_node]))
            bound = halfinverse_lower_bound(y, window, y.lipschitz_constant)
            e = energy(spec, y).value
            assert bound <= e + 1e-8 * max(1.0, abs(e))


def _random_mesh(rng, n):
    inner = np.sort(rng.uniform(0.05, 0.95, n - 1))
    return Mesh(np.concatenate([[0.0], inner, [1.0]]))


def _unpinned_values(boundary, h, s):
    """Nodal values of the slopes s, built from y(a) = A only."""
    A, _ = boundary
    return np.concatenate([[A], A + np.cumsum(h * s)])


class TestSlopeGradient:
    @pytest.mark.parametrize("spec", [catalog("mania"),
                                      catalog("quartic_plus_square"),
                                      V_SQUARED],
                             ids=lambda s: s.id)
    @pytest.mark.parametrize("boundary", [(0.0, 1.0), (-0.5, 0.25)],
                             ids=["two_endpoint", "two_endpoint_shifted"])
    def test_matches_central_differences(self, spec, boundary):
        rng = np.random.default_rng(5)
        mesh = _random_mesh(rng, 12)
        h = mesh.widths
        prob = _SlopeProblem(spec, mesh, DEFAULT_ORDER, boundary)
        s = rng.uniform(-2.0, 2.0, h.size)
        y = _unpinned_values(boundary, h, s)
        grad = prob.evaluate(y[None])[1][0] * h  # the h-metric gradient times h is dE/ds

        def objective(slopes):
            y = _unpinned_values(boundary, h, slopes)
            return math.fsum(cell_energies(spec, mesh.nodes, y))

        fd = np.empty_like(s)
        for j in range(s.size):
            step = 1e-6 * max(1.0, abs(s[j]))
            up, down = s.copy(), s.copy()
            up[j] += step
            down[j] -= step
            fd[j] = (objective(up) - objective(down)) / (2.0 * step)
        assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))


def _bisection_projection(u, h, c, m):
    """Reference: bisect the non-increasing h . clip(u - mu, -m, m) = c."""
    lo, hi = float(np.min(u)) - m, float(np.max(u)) + m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h @ np.clip(u - mid, -m, m) > c:
            lo = mid
        else:
            hi = mid
    return np.clip(u - 0.5 * (lo + hi), -m, m)


def _assert_projection(s, u, h, c, m):
    """s is feasible, satisfies KKT and matches the bisection reference."""
    assert np.all(np.abs(s) <= m)
    assert abs(h @ s - c) <= 1e-12 * m * h.sum()
    # KKT: one multiplier mu with s = u - mu off the bounds, and
    # u - mu beyond the bound where s sits on it
    free = np.abs(s) < m
    lo = np.max(u[s == -m] + m, initial=-np.inf)
    hi = np.min(u[s == m] - m, initial=np.inf)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(u))))
    assert lo <= hi + tol
    mu = u[free] - s[free]
    assert np.all((lo - tol <= mu) & (mu <= hi + tol))
    assert np.all(np.abs(mu - mu[:1]) <= tol)
    assert np.allclose(s, _bisection_projection(u, h, c, m), atol=1e-9 * m)


class TestSlopeProjection:
    def test_feasible_kkt_and_matches_bisection(self):
        rng = np.random.default_rng(17)
        for trial in range(300):
            n = int(rng.integers(1, 30))
            h = rng.uniform(0.01, 1.0, n)
            m = float(rng.uniform(0.1, 5.0))
            u = rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0])) * m, n)
            c = float(rng.uniform(-1.0, 1.0)) * m * h.sum() * (1.0 - 1e-9)
            _assert_projection(_SlopeSet(h, c).project(u, m), u, h, c, m)

    def test_stacked_rows_are_projected_as_alone(self):
        # each row has its own bound m; rows with a small spread need only the
        # shift (|c| <= m h.sum() / 2 and a spread below m / 2), wide rows
        # take the breakpoint search, and every fifth stack is taller than
        # one chunk of that search
        rng = np.random.default_rng(19)
        mixed = tall = 0
        for trial in range(300):
            if trial % 5:
                n, k = int(rng.integers(1, 30)), int(rng.integers(1, 7))
            else:
                n = int(rng.integers(600, 1400))
                chunk = SAMPLES // (2 * n)
                k = int(rng.integers(chunk + 1, 2 * chunk + 2))
            h = rng.uniform(0.01, 1.0, n)
            m = rng.uniform(0.1, 5.0, k)
            c = float(rng.uniform(-0.5, 0.5)) * m.min() * h.sum()
            spread = rng.choice([0.04, 1.0, 10.0], k) * m
            u = rng.uniform(-1.0, 1.0, (k, n)) * spread[:, None] + rng.normal(0.0, m[:, None])
            project = _SlopeSet(h, c).project
            stack = project(u, m)
            assert stack.shape == (k, n)
            for i in range(k):
                assert np.array_equal(stack[i], project(u[i:i + 1], m[i:i + 1])[0])
                assert np.array_equal(stack[i], project(u[i], m[i]))
                _assert_projection(stack[i], u[i], h, c, m[i])
            shifted = [np.abs(stack[i] - u[i] + u[i][0] - stack[i][0]).max() <= 1e-12 * m[i]
                       for i in range(k)]
            mixed += any(shifted) and not all(shifted)
            tall += k - sum(shifted) > SAMPLES // (2 * n)
        assert mixed >= 30
        assert tall >= 20

    def test_unclipped_shift(self):
        h = np.array([0.25, 0.25, 0.5])
        s = _SlopeSet(h, 1.0).project(np.array([1.0, 2.0, 3.0]), 10.0)
        assert h @ s == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.diff(s), [1.0, 1.0])


def _whole_row_reference(spec, mesh, y):
    """Energies and h-metric gradients of the rows of y, each from one jet
    of the integrand over the samples of its row alone."""
    x, w = _gauss(DEFAULT_ORDER)
    left, right, h = mesh.nodes[:-1], mesh.nodes[1:], np.diff(mesh.nodes)
    tq = gauss_points(left, right, h, x)
    energies, gradients = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for row in y:
            d = (row[1:] - row[:-1]) / h
            lq, ly, lv = lagrangian.jet(spec, tq, d * (tq - left) + row[:-1], d[None])
            energies.append(_total(cell_integrals(lq, h, w)))
            g = gauss_sum(ly * (tq - left) + lv, w) / 2.0
            g[:-1] += np.cumsum(((h / 2.0) * gauss_sum(ly, w))[::-1])[::-1][1:]
            gradients.append(g)
    return np.array(energies), np.array(gradients)


class TestSPGDiagnostics:
    def test_energy_is_cell_energies_bit_for_bit(self):
        # a stack taller than one batch: the found trajectory, the straight
        # line and noisy rows each get the energy of `cell_energies` summed
        # as `energy` sums it
        spec = catalog("mania")
        rng = np.random.default_rng(3)
        mesh = _random_mesh(rng, 40)
        traj, e, _ = minimize_bounded(spec, mesh, [6.0], (0.0, 1.0), restarts=1)[0]
        prob = _SlopeProblem(spec, mesh, DEFAULT_ORDER, (0.0, 1.0))
        noise = rng.normal(0.0, 0.2, (prob.rows + 3, mesh.nodes.size))
        stack = np.vstack([traj.values, mesh.nodes, traj.values + noise])
        got, grads = prob.evaluate(stack)
        assert got.shape == (len(stack),)
        assert grads.shape == (len(stack), mesh.n_cells)
        for row, e_row, g_row in zip(stack, got, grads):
            assert e_row == _total(cell_energies(spec, mesh.nodes, row))
            assert np.array_equal(g_row, prob.evaluate(row[None])[1][0])
        assert got[0] == e == energy(spec, traj).value

    @pytest.mark.parametrize("rows", [1, 2, None], ids=["1", "2", "default"])
    def test_stacks_have_the_bits_of_single_rows(self, rows, monkeypatch):
        # energies and gradients with the sample budget patched to `rows`
        # whole rows per jet (None: its default, 3 rows on this mesh, so 5
        # rows make a full and a partial stack) against one jet per row; one
        # row has a +inf sample
        spec, mesh = catalog("mania"), graded_mesh(0.0, 1.0, 500, 2.0)
        if rows is not None:
            monkeypatch.setattr(gapscan, "SAMPLES", rows * DEFAULT_ORDER * mesh.n_cells)
        prob = _SlopeProblem(spec, mesh, DEFAULT_ORDER, (0.0, 1.0))
        assert prob.rows == (rows or 3)
        rng = np.random.default_rng(8)
        y = mesh.nodes + rng.normal(0.0, 0.01, (5, mesh.nodes.size))
        y[1, 123] = 1e120  # y^3 overflows
        energies, gradients = prob.evaluate(y)
        expected = _whole_row_reference(spec, mesh, y)
        assert energies[1] == math.inf and np.isfinite(energies[[0, 2, 3, 4]]).all()
        assert energies.tobytes() == expected[0].tobytes()
        assert gradients.tobytes() == expected[1].tobytes()

    def test_info_reports_stationarity(self):
        traj, e, info = minimize_bounded(catalog("mania"), uniform_mesh(0, 1, 50),
                                         [5.0], (0.0, 1.0), restarts=2, seed=1)[0]
        assert info.stop_reason == "converged"
        assert info.pg_residual <= 1e-6
        assert info.gradient_evals <= info.energy_evals
        assert info.iterations > 0
        assert traj.values[0] == 0.0 and traj.values[-1] == 1.0
        assert traj.lipschitz_constant <= 5.0

    def test_feasible_warm_start_is_a_candidate_as_given(self):
        spec = catalog("mania")
        mesh = _random_mesh(np.random.default_rng(3), 60)
        found, _, _ = minimize_bounded(spec, mesh, [4.0], (0.0, 1.0),
                                       restarts=0, max_iters=5)[0]
        # feasible, but not a point the optimizer itself would construct
        values = 0.9 * found.values + 0.1 * np.sin(np.pi * mesh.nodes / 2)
        values[-1] = 1.0
        warm = Trajectory(mesh, values)
        assert warm.lipschitz_constant <= 4.0
        e_warm = energy(spec, warm).value
        for M in (4.0, 4.5):
            line = _line_and_restarts(mesh, (0.0, 1.0), M, 0, 0)
            values, e, _ = _best_start(spec, mesh, M, (0.0, 1.0), [*line, warm.values],
                                       max_iters=0)
            assert e == e_warm
            assert np.array_equal(values, warm.values)

    def test_one_integrand_pass_per_trial(self):
        # each start and each trial step is one row of jets, which give its
        # energy and gradient together, order samples per cell; nothing else
        # samples the integrand
        mania, sampled, other = catalog("mania"), [], []

        def counted_jet(t, y, v):
            sampled.append(y.size)
            return mania.jet(t, y, v)

        def counted_eval(t, y, v):
            other.append("eval")
            return mania.eval(t, y, v)

        spec = dataclasses.replace(mania, eval=counted_eval, jet=counted_jet)
        mesh = uniform_mesh(0, 1, 100)
        found = minimize_bounded(spec, mesh, [5.0, 10.0], (0.0, 1.0), restarts=3, seed=2)
        assert sum(sampled) == DEFAULT_ORDER * mesh.n_cells * sum(
            info.energy_evals for _, _, info in found)
        assert other == []
        # straight line and 3 restarts per bound, and the second bound's warm start
        for (_, _, info), starts in zip(found, (4, 5)):
            assert info.gradient_evals == info.iterations + starts
        reference = minimize_bounded(mania, mesh, [5.0, 10.0], (0.0, 1.0), restarts=3, seed=2)
        assert [(e, info) for _, e, info in found] == [(e, info) for _, e, info in reference]


def test_c7_rows_are_stationary(monkeypatch):
    # every start of every stack converges, not only each row's winner; on
    # one CPU every stack runs in this process, where the spy sees it
    monkeypatch.setattr(gapscan, "_usable_cpus", lambda: 1)
    stops = []

    def spg(*args):
        done = _spg(*args)
        stops.extend(done[-1].tolist())
        return done

    monkeypatch.setattr(gapscan, "_spg", spg)
    report = mania_two_endpoint_scan([100, 200, 500], [5, 10, 20],
                                     restarts=8, seed=DEFAULT_SEED)
    # 3 meshes x 3 bounds x (straight line + 8 restarts), then 2 warm starts per mesh
    assert stops == ["converged"] * (81 + 6)
    for row in report.rows:
        assert row.stop_reason == "converged", row
        assert row.pg_residual <= 1e-6, row
        assert {"stop_reason", "pg_residual", "energy_evals",
                "gradient_evals"} <= {f.name for f in dataclasses.fields(row)}
        assert 0 < row.gradient_evals <= row.energy_evals, row
    for n in (100, 200, 500):
        energies = [r.best_energy for r in report.rows if r.mesh_n == n]
        assert energies == sorted(energies, reverse=True)


def _on_mesh(monkeypatch, act):
    """Make the scan's `minimize_bounded` call `act(n)` first, n its mesh's cells."""
    real = gapscan.minimize_bounded

    def run(spec, mesh, *args, **kwargs):
        act(mesh.n_cells)
        return real(spec, mesh, *args, **kwargs)

    monkeypatch.setattr(gapscan, "minimize_bounded", run)


def _raise_at(n, error):
    def act(cells):
        if cells == n:
            raise error
    return act


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedScan:
    """A scan's meshes run in forked children, one group per usable CPU."""

    @pytest.mark.parametrize("n_grid, M_grid", [
        ([100, 200, 500], [5, 10, 20]),
        ([20, 10, 20], [5, 10]),
    ], ids=["C7", "repeated-size"])
    def test_report_does_not_depend_on_the_cpu_count(self, n_grid, M_grid, monkeypatch):
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(gapscan, "_usable_cpus", lambda: cpus)
            reports.append(mania_two_endpoint_scan(n_grid, M_grid, seed=DEFAULT_SEED))
        assert reports[0] == reports[1] == reports[2]
        assert [r.mesh_n for r in reports[0].rows] == [n for n in n_grid for _ in M_grid]
        _assert_no_child_left()

    def test_parent_runs_the_largest_mesh(self, monkeypatch):
        # sizes go largest first to the lightest group: [500] here, [200, 100] in a child
        monkeypatch.setattr(gapscan, "_usable_cpus", lambda: 2)
        here = []
        _on_mesh(monkeypatch, here.append)
        mania_two_endpoint_scan([100, 200, 500], [5], restarts=0)
        assert here == [500]

    def test_child_error_reaches_the_caller_with_its_type(self, monkeypatch):
        monkeypatch.setattr(gapscan, "_usable_cpus", lambda: 2)
        _on_mesh(monkeypatch, _raise_at(10, ArgumentError("no mesh of 10 cells")))
        with pytest.raises(ArgumentError, match="no mesh of 10 cells"):
            mania_two_endpoint_scan([20, 10], [5], restarts=0)
        _assert_no_child_left()

    def test_child_error_exits_2_from_the_cli(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(gapscan, "_usable_cpus", lambda: 2)
        _on_mesh(monkeypatch, _raise_at(10, ArgumentError("no mesh of 10 cells")))
        argv = ["gap-scan", "--n", "20,10", "--M", "5", "--restarts", "0",
                "--out", str(tmp_path / "gap.json")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: no mesh of 10 cells\n"
        _assert_no_child_left()

    def test_parent_error_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(gapscan, "_usable_cpus", lambda: 2)
        _on_mesh(monkeypatch, _raise_at(20, KeyError("parent")))
        with pytest.raises(KeyError, match="parent"):
            mania_two_endpoint_scan([20, 10], [5], restarts=0)
        _assert_no_child_left()

    def test_child_that_dies_without_a_reply(self, monkeypatch):
        monkeypatch.setattr(gapscan, "_usable_cpus", lambda: 2)
        _on_mesh(monkeypatch, lambda cells: cells == 10 and os._exit(7))
        with pytest.raises(ChildProcessError, match="wait status 1792"):
            mania_two_endpoint_scan([20, 10], [5], restarts=0)
        _assert_no_child_left()

    @pytest.mark.parametrize("n", [100.5, True, np.True_, 0, -3, math.inf, math.nan, "20"])
    def test_mesh_size_must_be_an_integer_of_at_least_1(self, n, monkeypatch):
        # checked before anything is forked
        monkeypatch.setattr(gapscan, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with pytest.raises(ArgumentError, match="mesh sizes must be integers >= 1"):
            mania_two_endpoint_scan([20, n], [5], restarts=0)

    def test_integral_mesh_sizes_of_any_type(self):
        report = mania_two_endpoint_scan([np.int64(10), 10.0], [5], restarts=0)
        assert [(type(r.mesh_n), r.mesh_n) for r in report.rows] == [(int, 10)] * 2


def _lattice_paths(spec, mesh, bounds, lattice):
    """Bellman (1957) dynamic programming over the chain of cells: for each
    slope bound M, the nodal values on `lattice` of least summed cell energy
    with y(a) = 0, y(b) = 1 and every slope within M.  Cell energies use the
    optimizer's Gauss points, samples and reduction, and are shared by the
    bounds; only the feasible transitions differ."""
    x, w = _gauss(DEFAULT_ORDER)
    tq = gauss_points(mesh.nodes[:-1], mesh.nodes[1:], mesh.widths, x)
    p, q = lattice[:, None], lattice[None, :]  # (from, to) nodal values
    start = np.where(lattice == 0.0, 0.0, np.inf)
    cost, back = [start] * len(bounds), [[] for _ in bounds]
    for j, h in enumerate(mesh.widths):
        d = (q - p) / h
        t = tq[:, j, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            e = cell_integrals(spec.eval(t, line_values(t - mesh.nodes[j], p, d), d), h, w)
        for i, M in enumerate(bounds):
            total = np.where(np.abs(d) <= M, cost[i][:, None] + e, np.inf)
            back[i].append(np.argmin(total, axis=0))
            cost[i] = total[back[i][-1], np.arange(lattice.size)]
    paths = []
    for steps in back:
        node = [int(np.flatnonzero(lattice == 1.0)[0])]
        for came_from in reversed(steps):
            node.append(int(came_from[node[-1]]))
        paths.append(lattice[node[::-1]])
    return paths


@pytest.mark.parametrize("n, q", [(20, 100), (50, 200)])  # lattice steps 1/q, K = 1.8 q + 1
def test_straight_line_start_reaches_the_lattice_global_basin(n, q):
    """Mania's integrand is not convex in y, so a local method could stop in
    a basin that is not global.  The lattice optimum is a feasible path, so
    its energy bounds the discrete minimum from above: the 0-restart answer
    must lie at or below it, and polishing the lattice path by `_spg` must
    land on the same energy, within 8 ulps."""
    spec, mesh, bounds = catalog("mania"), uniform_mesh(0.0, 1.0, n), [5.0, 10.0]
    lattice = np.arange(-2 * q // 5, 7 * q // 5 + 1) / q  # [-0.4, 1.4], with 0 and 1
    found = minimize_bounded(spec, mesh, bounds, (0.0, 1.0), restarts=0)
    for M, path, (_, e0, _) in zip(bounds, _lattice_paths(spec, mesh, bounds, lattice), found):
        assert e0 <= energy(spec, Trajectory(mesh, path)).value
        _, polished, _ = _best_start(spec, mesh, M, (0.0, 1.0), [path])
        assert abs(polished - e0) <= 8 * math.ulp(e0), (M, polished, e0)


CONTROL_MESH, CONTROL_BOUNDS = graded_mesh(0, 1, 50, 2), (2.0, 4.0, 8.0, 16.0)


@functools.cache
def _control_scan(ident):
    """The gap-free control's grid, run once per integrand for every test
    that reads it."""
    return minimize_bounded(catalog(ident), CONTROL_MESH, CONTROL_BOUNDS, (0.0, 1.0),
                            restarts=0)


def test_gap_free_control_floor_falls_with_the_slope_bound():
    """The same solver, meshes and bounds drive a problem without a gap to
    its infimum.  sqrt_chain, (2 y v - 1)^2, is autonomous and convex in v,
    so it has no Lavrentiev gap: its infimum 0 is reached by sqrt(t), whose
    slope is unbounded at 0, and its floor falls about fourfold (as 1/M^2)
    at each doubling of M.  Mania's integrand has a gap, and its floor stays
    above 0.025.  With no iteration the line's sqrt_chain energy,
    the integral of (2t - 1)^2 = 1/3, would fail the decay."""
    control, mania = _control_scan("sqrt_chain"), _control_scan("mania")
    assert all(info.stop_reason == "converged" for *_, info in control + mania)
    floors = [e for _, e, _ in control]
    assert all(coarse >= 2.5 * fine for coarse, fine in zip(floors, floors[1:])), floors
    assert 10.0 * floors[-1] <= mania[-1][1] and mania[-1][1] > 0.025, (floors, mania[-1][1])


def test_control_rows_lie_below_the_proofs_competitor():
    """The non-occurrence proof's competitor is a witness against the
    optimizer.  sqrt(t), the control's minimizer, capped at slope M by the
    time change of `repar` and interpolated on the optimizer's mesh, is a
    feasible point of the optimizer's problem at bound M, since the chords
    of a Lipschitz-M curve have slope at most M.  So each row, the best
    energy the optimizer found at M, must lie at or below the witness's.
    The slack of 1e-9 relative covers the witness's nodes, rounded to
    floats, whose slopes may exceed M by a few ulps.  The straight line
    (energy 1/3), a row stopped before its first step, fails at every M."""
    spec = catalog("sqrt_chain")
    prepared = ReparInput.of(spec, sample(np.sqrt, graded_mesh(0, 1, 2 ** 14, 2)))
    for M, (_, row, _) in zip(CONTROL_BOUNDS, _control_scan("sqrt_chain")):
        witness = Trajectory(CONTROL_MESH, prepared.cap(M).y_k.eval(CONTROL_MESH.nodes))
        assert witness.boundary == (0.0, 1.0)
        assert witness.lipschitz_constant <= M * (1.0 + 1e-12), (M, witness.lipschitz_constant)
        bound = energy(spec, witness).value
        assert row <= bound * (1.0 + 1e-9), (M, row, bound)


class TestRestarts:
    @pytest.mark.parametrize("mesh", [uniform_mesh(0, 1, 100), graded_mesh(-0.3, 2.1, 37, 2.0)],
                             ids=["uniform", "graded"])
    def test_restarts_keep_both_endpoints_exactly(self, mesh):
        for M in (5.0, 20.0):
            wave = _perturbations(mesh, M, 8, DEFAULT_SEED)
            assert wave.shape == (8, mesh.n_cells + 1)
            assert np.all(wave[:, [0, -1]] == 0.0)
            assert np.all(np.abs(wave[:, 1:-1]).max(axis=-1) > 0.0)

    def test_restart_is_one_function_on_every_mesh(self):
        coarse, fine = uniform_mesh(0, 1, 100), uniform_mesh(0, 1, 500)
        assert np.array_equal(coarse.nodes, fine.nodes[::5])
        for M in (5.0, 10.0, 20.0):
            a = _perturbations(coarse, M, 8, DEFAULT_SEED)
            b = _perturbations(fine, M, 8, DEFAULT_SEED)
            assert np.max(np.abs(a - b[:, ::5])) <= 1e-12
        assert not np.array_equal(_perturbations(coarse, 5.0, 1, DEFAULT_SEED),
                                  _perturbations(coarse, 10.0, 1, DEFAULT_SEED))

    def test_seed_is_64_bit(self):
        # (seed, int(M * 1e6)) keys the draws one-to-one only for such seeds
        mesh = uniform_mesh(0, 1, 10)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ArgumentError, match=f"seed must be >= 0 and <= {2 ** 64 - 1}"):
                minimize_bounded(catalog("mania"), mesh, [5.0], (0.0, 1.0), restarts=1,
                                 seed=seed)
        waves = [_perturbations(mesh, 5.0, 1, seed) for seed in (0, 1, 2 ** 64 - 1)]
        assert len({w.tobytes() for w in waves}) == 3


class TestLockstep:
    @pytest.mark.parametrize("spec, M, k", [(catalog("mania"), 5.0, 7), (V_SQUARED, 2.0, 4)],
                             ids=["mania_two_endpoint", "v_squared_two_endpoint"])
    def test_each_start_ends_as_when_run_alone(self, spec, M, k):
        # no row sum may mix rows or go through BLAS, so a start's values,
        # energy, iteration and evaluation counts, residual and stop reason
        # do not depend on its stack, nor on the bounds of the other rows
        mesh = uniform_mesh(0.0, 1.0, 200)
        rng = np.random.default_rng(23)
        prob = _SlopeProblem(spec, mesh, DEFAULT_ORDER, (0.0, 1.0))
        inits = prob.values(1.0 + np.cumsum(rng.normal(0.0, 0.3, (k, 200)), axis=-1))
        bounds = M * rng.choice([1.0, 1.5, 2.0], k)
        done = _spg(prob, inits, bounds, 60)
        for i in range(k):
            one = _spg(prob, inits[i:i + 1], bounds[i:i + 1], 60)
            for a, b in zip(done, one, strict=True):
                # values, energy, iterations, energy evaluations, residual, stop reason
                assert np.array_equal(a[i], b[0])
        if spec is not V_SQUARED:  # whose starts all converge in 2 iterations
            assert set(done[-1].tolist()) == {"converged", "max_iters"}
            assert len(set(bounds.tolist())) > 1

    def test_stalled_rows_end_as_when_run_alone(self):
        # a normal start, one whose energy is +inf (it bulges above the
        # brachistochrone's height 1) and one whose every trial step is
        # rejected: the two odd rows stall at their starts, with residual
        # inf and |P(s - g) - s| there, and each row ends as it does alone
        mesh = uniform_mesh(0.0, 1.0, 100)
        t = mesh.nodes

        def stalling():
            # every evaluation after the first gives +inf energy to rows with
            # a slope above 1, which the normal start (bound 0.6) never has
            prob = _SlopeProblem(catalog("brachistochrone"), mesh, DEFAULT_ORDER, (0.0, 0.5))
            real, calls = prob.evaluate, []

            def evaluate(y):
                e, g = real(y)
                if calls:
                    e[np.abs(np.diff(y) / prob.h).max(axis=-1) > 1.0] = np.inf
                calls.append(len(y))
                return e, g

            prob.evaluate = evaluate
            return prob

        inits = 0.5 * t + np.array([0.0, 0.9, -0.4])[:, None] * np.sin(np.pi * t)
        inits[:, -1] = 0.5
        bounds = np.array([0.6, 10.0, 10.0])
        done = _spg(stalling(), inits, bounds, 40)
        for i in range(3):
            one = _spg(stalling(), inits[i:i + 1], bounds[i:i + 1], 40)
            for a, b in zip(done, one, strict=True):
                assert np.array_equal(a[i], b[0])
        y, e, iters, e_evals, pg, why = done
        assert why[0] != "stalled" and iters[0] > 0
        assert why[1:].tolist() == ["stalled"] * 2 and iters[1:].tolist() == [0, 0]
        assert e[1] == math.inf and e_evals[1] == 1 and pg[1] == math.inf
        assert np.array_equal(y[1:], inits[1:]) and e_evals[2] > 2
        prob = _SlopeProblem(catalog("brachistochrone"), mesh, DEFAULT_ORDER, (0.0, 0.5))
        e_start, g = prob.evaluate(inits[2:])
        s = np.diff(inits[2]) / prob.h
        assert e[2] == e_start[0] and math.isfinite(e[2])
        assert pg[2] == np.abs(prob.project(s - g[0], 10.0 * (1.0 - 1e-12)) - s).max()

    def test_bound_grid_equals_a_chain_of_one_bound_calls(self):
        # each bound's answer is that of `_spg` on the line, the previous
        # bound's answer and the restarts: values, energy and every
        # MinimizeInfo field, bit for bit
        spec, mesh = catalog("mania"), uniform_mesh(0, 1, 60)
        max_iters, restarts = 8, 3
        grid = minimize_bounded(spec, mesh, [9.0, 3.0, 5.0], (0.0, 1.0), restarts=restarts,
                                seed=11, max_iters=max_iters)
        assert all(traj.lipschitz_constant <= M for M, (traj, _, _) in zip((3, 5, 9), grid))
        warm = []
        for M, (traj, e, info) in zip((3.0, 5.0, 9.0), grid):
            starts = _line_and_restarts(mesh, (0.0, 1.0), M, restarts, 11)
            starts[1:1] = warm
            one, e_one, info_one = _best_start(spec, mesh, M, (0.0, 1.0), starts, max_iters)
            assert np.array_equal(traj.values, one)
            assert (e, info) == (e_one, info_one)
            # one run per start, none past the iteration cap
            assert info.iterations <= (1 + len(warm) + restarts) * max_iters
            warm = [traj.values]


