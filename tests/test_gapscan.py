import math

import numpy as np
import pytest

from lavlab import (DEFAULT_ORDER, DEFAULT_SEED, ArgumentError, DomainError,
                    LagrangianSpec, Mesh, Trajectory, avoidance_demo, catalog,
                    cuberoot_truncation, energy, graded_mesh,
                    halfinverse_lower_bound, mania_one_endpoint_truncations,
                    mania_two_endpoint_scan, minimize_bounded,
                    polynomial_lagrangian, sample, sawtooth, uniform_mesh)
from lavlab.functional import cell_energies
from lavlab.gapscan import _SlopeProblem, _SlopeSet


V_SQUARED = polynomial_lagrangian([[1, 0, 0, 2]])


class TestMinimizeBounded:
    def test_convex_problem_finds_straight_line(self):
        traj, e, _ = minimize_bounded(V_SQUARED, uniform_mesh(0, 1, 16), 2.0,
                                      (0.0, 1.0), restarts=2, seed=1)
        assert e == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(traj.values, traj.mesh.nodes, atol=1e-4)

    def test_infeasible_bound_rejected(self):
        with pytest.raises(ArgumentError):
            minimize_bounded(V_SQUARED, uniform_mesh(0, 1, 8), 0.5, (0.0, 1.0))

    def test_slope_bound_respected_exactly(self):
        spec = catalog("quartic_plus_square")
        for M in (1.0, 2.0):
            traj, _, _ = minimize_bounded(spec, uniform_mesh(0, 1, 48), M,
                                          (0.0, 0.0), restarts=4, seed=3)
            assert traj.lipschitz_constant <= M

    def test_sawtooth_witness_bounds_the_minimum(self):
        # the n=8 sawtooth is feasible for M=1, so the found minimum cannot
        # be worse than its energy 1/768
        spec = catalog("quartic_plus_square")
        mesh = Mesh(sawtooth(8).mesh.nodes)  # 16 cells aligned with the teeth
        witness = energy(spec, sawtooth(8)).value
        assert witness == pytest.approx(1.0 / 768.0, rel=1e-12)
        _, e, _ = minimize_bounded(spec, mesh, 1.0, (0.0, 0.0),
                                   restarts=4, seed=5,
                                   extra_inits=[sawtooth(8)])
        assert e <= witness + 1e-12

    def test_one_endpoint_mode_leaves_start_free(self):
        # pin only y(1) = 1; the flat profile y = 1 has zero kinetic energy
        traj, e, _ = minimize_bounded(V_SQUARED, uniform_mesh(0, 1, 16), 2.0,
                                      (None, 1.0), restarts=2, seed=7)
        assert e == pytest.approx(0.0, abs=1e-10)
        assert traj.values[-1] == 1.0

    def test_bound_monotonicity_with_warm_starts(self):
        spec = catalog("mania")
        mesh = uniform_mesh(0, 1, 60)
        best = math.inf
        warm = []
        for M in (3.0, 5.0, 9.0):
            traj, e, _ = minimize_bounded(spec, mesh, M, (0.0, 1.0),
                                          restarts=3, seed=11,
                                          extra_inits=warm)
            assert e <= best + 1e-10
            best = e
            warm = [traj]

    def test_mania_two_endpoint_energy_floor(self):
        # any slope-bounded trajectory pinned at 0 and 1 keeps positive energy
        spec = catalog("mania")
        _, e, _ = minimize_bounded(spec, uniform_mesh(0, 1, 100), 20.0,
                                   (0.0, 1.0), restarts=4, seed=13)
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


class TestAvoidanceDemo:
    def test_identity_profile_zero_gap(self):
        rows = avoidance_demo(V_SQUARED, lambda t: np.asarray(t, float),
                              uniform_mesh(0, 1, 32), [2, 4, 8])
        for r in rows:
            assert r.gap == 0.0

    def test_sqrt_chain_gap_shrinks(self):
        rows = avoidance_demo(catalog("sqrt_chain"), np.sqrt,
                              graded_mesh(0, 1, 1024, 2.0), [2, 8, 32, 128])
        gaps = [r.gap for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(r.gap <= 1.0 / r.k for r in rows)
        assert [r.status for r in rows] == ["ok"] * 4  # the rows are KRows

    def test_half_inverse_capped_energies_finite(self):
        rows = avoidance_demo(catalog("half_inverse"), np.sqrt,
                              graded_mesh(0, 1, 512, 2.0), [4, 16])
        for r in rows:
            assert math.isfinite(r.energy_after)
            assert r.lip_after <= 2 * r.k + 1e-9



NO_PARTIALS_MANIA = LagrangianSpec(
    id="mania_without_partials", eval=catalog("mania").eval, partials=None,
    autonomous=False, convex_in_v=True)


def _random_mesh(rng, n):
    inner = np.sort(rng.uniform(0.05, 0.95, n - 1))
    return Mesh(np.concatenate([[0.0], inner, [1.0]]))


def _unpinned_values(boundary, h, s):
    """Nodal values of the slopes s, built from the pinned end only."""
    A, B = boundary
    if A is None:
        return np.append(B - np.cumsum((h * s)[::-1])[::-1], B)
    return np.concatenate([[A], A + np.cumsum(h * s)])


class TestSlopeGradient:
    @pytest.mark.parametrize("spec", [catalog("mania"),
                                      catalog("quartic_plus_square"),
                                      V_SQUARED, NO_PARTIALS_MANIA],
                             ids=lambda s: s.id)
    @pytest.mark.parametrize("boundary", [(0.0, 1.0), (None, 1.0)],
                             ids=["two_endpoint", "one_endpoint"])
    def test_matches_central_differences(self, spec, boundary):
        rng = np.random.default_rng(5)
        mesh = _random_mesh(rng, 12)
        h = mesh.widths
        prob = _SlopeProblem(spec, mesh, DEFAULT_ORDER, boundary)
        s = rng.uniform(-2.0, 2.0, h.size)
        _, yq, vq = prob.energy(_unpinned_values(boundary, h, s))
        grad = prob.gradient(yq, vq) * h  # the h-metric gradient times h is dE/ds

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


class TestSlopeProjection:
    def test_feasible_kkt_and_matches_bisection(self):
        rng = np.random.default_rng(17)
        for trial in range(300):
            n = int(rng.integers(1, 30))
            h = rng.uniform(0.01, 1.0, n)
            m = float(rng.uniform(0.1, 5.0))
            u = rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0])) * m, n)
            c = float(rng.uniform(-1.0, 1.0)) * m * h.sum() * (1.0 - 1e-9)
            s = _SlopeSet(h, c, m).project(u)
            assert np.all(np.abs(s) <= m)
            assert abs(h @ s - c) <= 1e-12 * m * h.sum()
            # KKT: one multiplier mu with s = u - mu off the bounds, and
            # u - mu beyond the bound where s sits on it
            free = np.abs(s) < m
            lo = np.max(u[s == -m] + m, initial=-np.inf)
            hi = np.min(u[s == m] - m, initial=np.inf)
            tol = 1e-9 * max(1.0, float(np.max(np.abs(u))))
            assert lo <= hi + tol
            for mu in u[free] - s[free]:
                assert lo - tol <= mu <= hi + tol
                assert mu == pytest.approx(u[free][0] - s[free][0], abs=tol)
            assert np.allclose(s, _bisection_projection(u, h, c, m), atol=1e-9 * m)

    def test_one_endpoint_set_is_the_box(self):
        u = np.array([-3.0, -0.5, 0.0, 2.5])
        s = _SlopeSet(np.ones(4), None, 1.0).project(u)
        assert s.tolist() == [-1.0, -0.5, 0.0, 1.0]

    def test_unclipped_shift(self):
        h = np.array([0.25, 0.25, 0.5])
        s = _SlopeSet(h, 1.0, 10.0).project(np.array([1.0, 2.0, 3.0]))
        assert h @ s == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.diff(s), [1.0, 1.0])


class TestSPGDiagnostics:
    def test_energy_is_cell_energies_bit_for_bit(self):
        spec = catalog("mania")
        mesh = _random_mesh(np.random.default_rng(3), 40)
        traj, e, _ = minimize_bounded(spec, mesh, 6.0, (0.0, 1.0), restarts=1)
        prob = _SlopeProblem(spec, mesh, DEFAULT_ORDER, (0.0, 1.0))
        contrib, _, _ = prob.cells(traj.values)
        assert np.array_equal(contrib, cell_energies(spec, mesh.nodes, traj.values))
        assert e == energy(spec, traj).value

    def test_info_reports_stationarity(self):
        traj, e, info = minimize_bounded(catalog("mania"), uniform_mesh(0, 1, 50),
                                         5.0, (0.0, 1.0), restarts=2, seed=1)
        assert info.stop_reason == "converged"
        assert info.pg_residual <= 1e-6
        assert info.gradient_evals <= info.energy_evals
        assert info.iterations > 0
        assert traj.values[0] == 0.0 and traj.values[-1] == 1.0
        assert traj.lipschitz_constant <= 5.0

    def test_feasible_warm_start_is_a_candidate_as_given(self):
        spec = catalog("mania")
        mesh = _random_mesh(np.random.default_rng(3), 60)
        found, _, _ = minimize_bounded(spec, mesh, 4.0, (0.0, 1.0),
                                       restarts=0, max_iters=5)
        # feasible, but not a point the optimizer itself would construct
        values = 0.9 * found.values + 0.1 * np.sin(np.pi * mesh.nodes / 2)
        values[-1] = 1.0
        warm = Trajectory(mesh, values)
        assert warm.lipschitz_constant <= 4.0
        e_warm = energy(spec, warm).value
        for M in (4.0, 4.5):
            _, e, _ = minimize_bounded(spec, mesh, M, (0.0, 1.0), restarts=0,
                                       max_iters=0, extra_inits=[warm])
            assert e == e_warm

    def test_partials_fallback_reaches_the_same_minimum(self):
        mesh = uniform_mesh(0, 1, 40)
        _, exact, _ = minimize_bounded(catalog("mania"), mesh, 5.0, (0.0, 1.0),
                                       restarts=0)
        _, approx, _ = minimize_bounded(NO_PARTIALS_MANIA, mesh, 5.0,
                                        (0.0, 1.0), restarts=0)
        assert approx == pytest.approx(exact, rel=1e-6)


def test_c7_rows_are_stationary():
    report = mania_two_endpoint_scan([100, 200, 500], [5, 10, 20],
                                     restarts=8, seed=DEFAULT_SEED)
    for row in report.rows:
        assert row.stop_reason == "converged", row
        assert row.pg_residual <= 1e-6, row
        assert {"stop_reason", "pg_residual"} <= set(row.to_json_dict())
    for n in (100, 200, 500):
        energies = [r.best_energy for r in report.rows if r.mesh_n == n]
        assert energies == sorted(energies, reverse=True)
