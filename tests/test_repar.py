import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lavlab.repar
from lavlab import cli
from lavlab import (CATALOG_IDS, ArgumentError, ConsistencyError,
                    InfeasibleError, Mesh, ReparInput, SingularPointError,
                    Trajectory, UnsupportedLagrangianError, build_map, catalog,
                    choose_lambda, classify, energy, find_K, graded_mesh,
                    lemma_P, minimal_surface, partial_array, polynomial_lagrangian,
                    reparametrize, sample, select_A, sqrt_ramp, uniform_mesh)

from lavlab.repar import SPLIT_GUARD_REL

from conftest import random_trajectory

SQRT_CHAIN = catalog("sqrt_chain")
V_SQUARED = polynomial_lagrangian([[1, 0, 0, 2]])


def two_cell(slopes, a=0.0, b=1.0):
    mesh = uniform_mesh(a, b, 2)
    h = mesh.widths[0]
    vals = np.concatenate([[0.0], np.cumsum(np.asarray(slopes) * h)])
    return Trajectory(mesh, vals)


class TestChooseLambda:
    def test_identity_trajectory(self):
        y = sample(lambda t: t, uniform_mesh(0, 1, 4))
        assert choose_lambda(y) == 1.0

    def test_sawtooth(self):
        from lavlab import sawtooth
        assert choose_lambda(sawtooth(6)) == 1.0

    def test_graded_sqrt_sample_measure_rule(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 100, 2.0))
        lam = choose_lambda(y)
        # direct measure computation: slow-set width at the chosen level
        d = np.abs(y.cell_derivatives())
        w = y.mesh.widths
        assert float(w[d <= lam].sum()) >= 0.5
        assert lam == 1.0 or float(w[d <= lam - 1].sum()) < 0.5


class TestClassify:
    def test_all_slow_cells(self):
        y = two_cell([0.5, -0.25])
        plan = classify(y, 2.0, 1.0)
        assert plan.s_cells.size == 0
        assert plan.deficit == 0.0

    def test_hand_example_deficit(self):
        # slopes (4, 0), k=2: deficit = 0.5 (4/2 - 1) = 0.5
        plan = classify(two_cell([4.0, 0.0]), 2.0, 1.0)
        assert plan.s_cells == (0,)
        assert plan.omega_cells == (1,)
        assert plan.deficit == pytest.approx(0.5, abs=1e-15)

    def test_sqrt_ramp_coarse_deficit(self):
        plan = classify(sqrt_ramp(100, tail_cells=1), 2.0, 1.0)
        assert plan.s_cells == (0,)
        assert plan.deficit == pytest.approx(0.04, rel=1e-12)

    def test_requires_k_above_lambda(self):
        with pytest.raises(ArgumentError):
            classify(two_cell([4.0, 0.0]), 1.0, 1.0)


class TestSelectA:
    def test_zero_deficit_keeps_empty_set(self):
        plan = select_A(classify(two_cell([0.5, 0.5]), 2.0, 1.0))
        assert plan.complete
        assert plan.a_cells.size == 0
        assert plan.measure_a == 0.0

    def test_split_measures_exactly_twice_deficit(self):
        # slow set one cell of width 0.5; deficit 0.1 -> first 0.2 of the cell
        y = two_cell([4.0, 0.0])
        plan = classify(y, 2.0, 1.0)
        object.__setattr__(plan, "deficit", 0.1)
        done = select_A(plan)
        assert done.split_node == pytest.approx(0.7)
        assert done.measure_a == pytest.approx(0.2, abs=1e-15)
        assert done.trajectory.mesh.n_cells == 3

    def test_infeasible_at_small_k_feasible_at_large(self):
        y = two_cell([4.0, 0.0])
        plan = classify(y, 2.0, 1.0)
        with pytest.raises(InfeasibleError) as err:
            select_A(plan)
        assert err.value.k_hint == 4.0
        done = select_A(classify(y, 4.0, 1.0))
        assert done.complete
        assert done.deficit == 0.0

    def test_disjointness_and_slow_membership(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            y = random_trajectory(rng, lo=-3, hi=3)
            lam = choose_lambda(y)
            k = lam + rng.uniform(0.5, 4.0)
            try:
                plan = select_A(classify(y, k, lam))
            except InfeasibleError:
                continue
            assert set(plan.a_cells).isdisjoint(plan.s_cells)
            assert set(plan.a_cells) <= set(plan.omega_cells)


def reference_select_A(plan):
    """select_A's greedy rule cell by cell, as a plain Python loop over the
    classified plan: (s_cells, omega_cells, a_cells, split_node, measure_a),
    or None when the slow set runs out."""
    y = plan.trajectory
    widths = y.mesh.widths
    guard = SPLIT_GUARD_REL * (y.mesh.b - y.mesh.a)
    chosen = []
    remaining = 2.0 * plan.deficit
    split_node = split_cell = None
    for idx in plan.omega_cells.tolist():
        w = float(widths[idx])
        if remaining >= w:
            chosen.append(idx)
            remaining -= w
            if remaining <= guard:
                remaining = 0.0
                break
        else:
            if remaining > guard:
                split_node = float(y.mesh.nodes[idx]) + remaining
                split_cell = idx
                if split_node >= y.mesh.nodes[idx + 1]:  # rounds onto the right node
                    chosen.append(idx)
                if not y.mesh.nodes[idx] < split_node < y.mesh.nodes[idx + 1]:
                    split_node = None
            remaining = 0.0
            break
    if remaining > 0.0:
        return None
    s_cells, omega_cells, a_cells = plan.s_cells.tolist(), plan.omega_cells.tolist(), chosen
    if split_node is not None:
        shift = lambda i: i if i < split_cell else i + 1
        s_cells = [shift(i) for i in s_cells]
        omega_cells = []
        for i in plan.omega_cells.tolist():
            omega_cells.extend([i, i + 1] if i == split_cell else [shift(i)])
        a_cells = [shift(i) for i in chosen] + [split_cell]
        widths = y.with_node(split_node).mesh.widths
    measure_a = float(sum(widths[i] * 1.0 for i in a_cells))
    return s_cells, omega_cells, a_cells, split_node, measure_a


class TestSelectAReference:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["split", "whole", "tiny"]),
           st.sampled_from([24, 400]))
    @settings(max_examples=150, deadline=None)
    def test_matches_cell_by_cell_loop_bitwise(self, seed, mode, max_cells):
        """"split" keeps the classified deficit; "whole" sets the target to
        the measure of the first slow cells, so no cell is split; "tiny"
        sets it below the split guard.  Meshes of up to 400 cells give long
        slow and compensation sets."""
        rng = np.random.default_rng(seed)
        y = random_trajectory(rng, lo=-4, hi=4, max_cells=max_cells)
        lam = choose_lambda(y)
        plan = classify(y, lam + float(rng.uniform(0.25, 6.0)), lam)
        widths = y.mesh.widths[plan.omega_cells]
        if mode == "split" or widths.size < 2:
            mode = "split"
        elif mode == "whole":
            m = int(rng.integers(1, widths.size))
            object.__setattr__(plan, "deficit", sum(widths[:m].tolist()) / 2.0)
        else:
            object.__setattr__(plan, "deficit", SPLIT_GUARD_REL / 4.0)
        expected = reference_select_A(plan)
        try:
            done = select_A(plan)
        except InfeasibleError:
            assert not plan.measure_omega > 2.0 * plan.deficit
            return
        except ConsistencyError:
            assert expected is None
            return
        s_cells, omega_cells, a_cells, split_node, measure_a = expected
        for cells in (done.s_cells, done.omega_cells, done.a_cells):
            assert cells.dtype == np.intp and not cells.flags.writeable
        assert done.s_cells.tolist() == s_cells
        assert done.omega_cells.tolist() == omega_cells
        assert done.a_cells.tolist() == a_cells
        assert done.split_node == split_node
        assert done.measure_a == measure_a
        if mode != "split":
            assert split_node is None


class TestSelectASplitOntoANode:
    @pytest.mark.parametrize("a, target, taken", [
        (0.0, 2.0 ** -10 - 2.0 ** -62, [2]),  # onto the right node: whole
        (2.0 ** 20, 2e-11, []),               # below half an ulp of 2^20: none
    ])
    def test_a_split_that_rounds_onto_a_node_moves_no_index(self, a, target, taken):
        """The compensation target 2 * deficit falls short of the one slow
        cell's width 2^-10 by less than half an ulp of its right node, or is
        less than half an ulp of its left node, so the split node t_2 +
        target rounds onto a node: the cell is taken whole or not at all,
        the trajectory is kept, and no index moves."""
        eps = 2.0 ** -10
        y = Trajectory(Mesh(a + np.array([0.0, 0.25, 0.75, 0.75 + eps, 1.0])),
                       np.array([0.0, 0.3, 1.05, 1.05 + 0.1 * eps, 1.8]))
        plan = classify(y, 2.0, 1.0)
        assert plan.s_cells.tolist() == [3] and plan.omega_cells.tolist() == [2]
        short = dataclasses.replace(plan, deficit=target / 2.0)
        assert y.mesh.nodes[2] + target == y.mesh.nodes[2 + len(taken)]
        done = select_A(short)
        assert done.trajectory is y and done.split_node is None
        assert done.s_cells.tolist() == [3]
        assert done.omega_cells.tolist() == [2]
        assert done.a_cells.tolist() == taken
        assert done.measure_a == eps * len(taken)
        speeds = done.speeds()
        assert speeds[3] == abs(y.cell_derivatives()[3]) / 2.0
        assert speeds[2] == (0.5 if taken else 1.0)


class TestBuildMap:
    def test_empty_plan_gives_identity(self):
        plan = select_A(classify(two_cell([0.5, 0.5]), 2.0, 1.0))
        phi = build_map(plan)
        assert np.all(phi.speeds == 1.0)

    def test_tie_slopes_give_unit_speeds(self):
        plan = select_A(classify(two_cell([4.0, 0.0]), 4.0, 1.0))
        phi = build_map(plan)
        assert np.all(phi.speeds == 1.0)

    def test_hand_speed_balance(self):
        # fast cell of width 1/4 at speed 2 (deficit 1/4), compensation of
        # measure 1/2 at speed 1/2, neutral 1/4: phi(b) = b exactly
        nodes = np.array([0.0, 0.25, 0.75, 1.0])
        vals = np.array([0.0, 1.0, 1.25, 1.5])  # slopes 4, 0.5, 1
        y = Trajectory(Mesh(nodes), vals)
        plan = select_A(classify(y, 2.0, 1.0))
        phi = build_map(plan)
        assert phi.endpoint_defect <= 1e-15
        assert 0.25 * 2 + 0.5 * 0.5 + 0.25 * 1 == 1.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_measure_law_random(self, seed):
        rng = np.random.default_rng(seed)
        y = random_trajectory(rng, lo=-4, hi=4)
        lam = choose_lambda(y)
        k = lam + float(rng.uniform(0.25, 6.0))
        try:
            plan = select_A(classify(y, k, lam))
        except InfeasibleError:
            return
        span = y.mesh.b - y.mesh.a
        assert abs(plan.measure_a - 2.0 * plan.deficit) <= 1e-12 * span
        phi = build_map(plan)
        assert phi.endpoint_defect <= 1e-12 * span

    def test_closure_defect_is_a_left_to_right_sum(self):
        """The endpoint defect absorbed by build_map is summed cell by cell
        from the left (no BLAS dot), so the corrected speeds have fixed bits."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 400
            nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n))])
            nodes /= nodes[-1]
            fast = np.where(rng.uniform(size=n) < 0.1, 8.0, 1.0)
            slopes = rng.uniform(-1.0, 1.0, n) * fast
            values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(nodes))])
            y = Trajectory(Mesh(nodes), values)
            lam = choose_lambda(y)
            plan = select_A(classify(y, lam + 2.0, lam))
            speeds = plan.speeds()
            widths = plan.trajectory.mesh.widths
            total = 0.0
            for v, h in zip(speeds.tolist(), widths.tolist()):
                total += v * h
            defect = 1.0 - total
            if defect != 0.0:
                j = int(np.flatnonzero(speeds == 1.0)[-1])
                speeds[j] += defect / float(widths[j])
            assert np.array_equal(build_map(plan).speeds, speeds)


class TestReparametrize:
    def test_identity_law_bitwise(self):
        y = sample(np.sin, uniform_mesh(0, 1, 16))
        res = reparametrize(V_SQUARED, y, 2.0)
        assert res.y_k is y
        assert res.energy_after == res.energy_before

    def test_non_autonomous_rejected(self):
        y = sample(np.cbrt, graded_mesh(0, 1, 16, 3.0))
        with pytest.raises(UnsupportedLagrangianError):
            reparametrize(catalog("mania"), y, 4.0)

    def test_infinite_energy_rejected(self):
        spec = catalog("half_inverse")
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([1e-200, 1e-200, 1.0]))
        with pytest.raises(ArgumentError):
            reparametrize(spec, y, 3.0)

    def test_sqrt_sample_contracts(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 4096, 2.0))
        res = reparametrize(SQRT_CHAIN, y, 8.0)
        assert res.lip_after <= 16.0 + 1e-9
        assert res.y_k.boundary == (0.0, 1.0)
        assert res.y_k.values[0] == y.values[0]
        assert res.y_k.values[-1] == y.values[-1]

    def test_half_inverse_slowdown_keeps_energy_finite(self):
        spec = catalog("half_inverse")
        y = sample(np.sqrt, graded_mesh(0, 1, 1024, 2.0))
        res = reparametrize(spec, y, 8.0)
        assert res.lip_after <= 16.0 + 1e-9
        assert math.isfinite(res.energy_after)

    def test_energy_split_matches_classes(self):
        """Per-cell energies of the capped trajectory, grouped by cell class,
        add back to the total."""
        y = sample(np.sqrt, graded_mesh(0, 1, 256, 2.0))
        res = reparametrize(SQRT_CHAIN, y, 4.0)
        rep_after = energy(SQRT_CHAIN, res.y_k)
        per = np.asarray(rep_after.per_cell)
        s = set(res.plan.s_cells)
        a = set(res.plan.a_cells)
        n_cells = res.plan.trajectory.mesh.n_cells
        neutral = [i for i in range(n_cells) if i not in s and i not in a]
        split_sum = per[list(s)].sum() + per[list(a)].sum() + per[neutral].sum()
        assert split_sum == pytest.approx(res.energy_after, rel=1e-10)

    def test_plan_speed_classes(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 128, 2.0))
        res = reparametrize(SQRT_CHAIN, y, 4.0)
        d = res.plan.trajectory.cell_derivatives()
        v = res.plan.speeds()
        for i in res.plan.s_cells:
            assert v[i] == abs(d[i]) / 4.0
            assert v[i] >= 1.0
        for i in res.plan.a_cells:
            assert v[i] == 0.5

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_contracts_random(self, seed):
        rng = np.random.default_rng(seed)
        y = random_trajectory(rng, lo=-3, hi=3)
        lam = choose_lambda(y)
        k = lam + float(rng.uniform(0.5, 5.0))
        try:
            res = reparametrize(SQRT_CHAIN, y, k)
        except InfeasibleError:
            return
        assert res.lip_after <= 2 * k + 1e-9
        assert res.y_k.values[0] == y.values[0]
        assert res.y_k.values[-1] == y.values[-1]


def tie_trajectory(rng, k0):
    """Slopes in {0, k0, -k0} on a uniform mesh of 2^m cells, at least one
    cell at k0 and at least half at 0 (so lambda = 1).  Nodes and values are
    dyadic, so every slope is exactly 0 or +/-k0 and capping at k0 is the
    identity map; values stay in [1, 9], where half_inverse is finite."""
    n = 2 ** int(rng.integers(1, 6))
    slopes = np.zeros(n)
    fast = rng.permutation(n)[:max(1, n // 2)]
    slopes[fast] = rng.choice([k0, -k0], size=fast.size)
    slopes[fast[0]] = k0
    mesh = uniform_mesh(0.0, 1.0, n)
    return Trajectory(mesh, 5.0 + np.concatenate([[0.0], np.cumsum(slopes / n)]))


def _capped_bits(run, k):
    try:
        res = run(k)
    except InfeasibleError as exc:
        return "infeasible", str(exc)
    report = io.StringIO()
    cli._write_json(res, report.write)
    return (report.getvalue(), res.y_k.mesh.nodes.tobytes(), res.y_k.values.tobytes())


class TestReparInput:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["sqrt_chain", "half_inverse"]),
           st.sampled_from(["random", "ties"]))
    @settings(max_examples=100, deadline=None)
    def test_cap_matches_reparametrize_bitwise(self, seed, ident, mode):
        """One prepared input capped along a whole grid gives the bits of a
        fresh reparametrize per k, including k above Lip(y) (input returned
        as is) and exact |y'| == k ties (the identity map)."""
        spec = catalog(ident)
        rng = np.random.default_rng(seed)
        if mode == "ties":
            k0 = float(rng.integers(2, 5))
            y = tie_trajectory(rng, k0)
            grid = [k0, 2.0 * k0 + 1.0]
        else:
            y = random_trajectory(rng, lo=0.2, hi=3.0, max_cells=64)
            lam, lip = choose_lambda(y), y.lipschitz_constant
            # mostly feasible thresholds between lambda and Lip(y), then one above
            grid = sorted(lam + 1e-3 + rng.uniform(0.0, 1.0, size=4) * max(lip - lam, 1.0))
            grid.append(lip + 1.0)
        prepared = ReparInput.of(spec, y)
        assert prepared.lam == choose_lambda(y)
        for k in grid:
            expected = _capped_bits(lambda k: reparametrize(spec, y, k), k)
            assert _capped_bits(prepared.cap, k) == expected
        if mode == "ties":
            tie = prepared.cap(grid[0])
            assert tie.y_k is y and np.all(tie.plan.speeds() == 1.0)
        assert prepared.cap(grid[-1]).y_k is y  # Lip(y) < k

    def test_same_errors_as_reparametrize(self):
        y = sample(lambda t: 3 * t, uniform_mesh(0, 1, 8))  # lambda = 3
        with pytest.raises(ArgumentError, match=r"need k > choose_lambda\(y\) = 3.0"):
            ReparInput.of(SQRT_CHAIN, y).cap(3.0)
        with pytest.raises(UnsupportedLagrangianError, match="autonomous integrand"):
            ReparInput.of(catalog("mania"), y)
        inf = ReparInput.of(catalog("half_inverse"), Trajectory(
            uniform_mesh(0, 1, 2), np.array([1e-200, 1e-200, 1.0])))  # lambda = 1
        with pytest.raises(ArgumentError, match="finite energy"):
            inf.cap(3.0)
        # the threshold is checked first, as in reparametrize
        with pytest.raises(ArgumentError, match="need k > choose_lambda"):
            inf.cap(1.0)


class TestLimitLaw:
    def test_fast_set_and_deficit_vanish_as_k_doubles(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 2048, 2.0))
        lam = choose_lambda(y)
        measures, deficits = [], []
        k = 2.0
        while k <= 256.0:
            plan = classify(y, k, lam)
            measures.append(plan.measure_s)
            deficits.append(plan.deficit)
            k *= 2.0
        noise = 1e-12
        for a, b in zip(measures, measures[1:]):
            assert b <= a + noise
        for a, b in zip(deficits, deficits[1:]):
            assert b <= a + noise
        assert measures[-1] <= 1e-4
        assert deficits[-1] <= 1e-4


class TestFindK:
    def test_lipschitz_input_first_grid_point(self):
        y = sample(np.sin, uniform_mesh(0, 1, 32))  # slopes below 1
        rep = find_K(V_SQUARED, y, [2.0, 4.0, 8.0])
        assert rep.K is not None
        assert rep.K == 2.0
        assert all(r.status == "ok" for r in rep.rows)

    def test_sqrt_chain_sweep_finite_K(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 1024, 2.0))
        rep = find_K(SQRT_CHAIN, y, [2, 4, 8, 16, 32])
        assert rep.K is not None
        for row in rep.rows:
            if row.k >= rep.K:
                assert row.energy_after <= row.energy_before + 1 / row.k + 1e-12

    def test_nonconvex_flag_rejected(self):
        y = sample(np.sin, uniform_mesh(0, 1, 8))
        with pytest.raises(ArgumentError):
            find_K(catalog("quartic"), y, [2.0])

    def test_grid_points_below_lambda_are_skipped(self):
        y = sample(lambda t: 3 * t, uniform_mesh(0, 1, 8))  # lambda = 3
        rep = find_K(SQRT_CHAIN, y, [1.0, 2.0, 8.0])
        statuses = {r.k: r.status for r in rep.rows}
        assert statuses[1.0] == "skipped_lambda"
        assert statuses[2.0] == "skipped_lambda"
        assert statuses[8.0] == "ok"
        assert rep.K == 8.0

    def test_infeasible_row_and_input_energy_once(self, monkeypatch):
        energies = []

        def counted(spec, y, order):
            energies.append(y)
            return energy(spec, y, order)

        monkeypatch.setattr(lavlab.repar, "energy", counted)
        # slopes (4, 0), lambda 1: at k=2 twice the deficit (1) exceeds the
        # slow set (1/2); at k=8 the input is already below the cap
        y = Trajectory(uniform_mesh(0, 1, 2), [0, 2, 2])
        rep = find_K(SQRT_CHAIN, y, [2, 8])
        assert [r.status for r in rep.rows] == ["infeasible", "ok"]
        assert rep.K == 8.0
        assert len(energies) == 1 and energies[0] is y

    def test_grid_at_or_below_lambda_never_evaluates_energy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("F(y) evaluated")

        monkeypatch.setattr(lavlab.repar, "energy", refuse)
        y = sample(lambda t: 3 * t, uniform_mesh(0, 1, 8))  # lambda = 3
        rep = find_K(SQRT_CHAIN, y, [1.0, 3.0, 2.0])
        assert [r.status for r in rep.rows] == ["skipped_lambda"] * 3
        assert rep.K is None


class TestLemmaP:
    def test_velocity_square_closed_form(self):
        curve = lemma_P(V_SQUARED, 0.7, np.linspace(-2, 2, 9))
        for w, p in zip(curve.w_grid, curve.values):
            assert p == pytest.approx(-w * w, abs=1e-12)
        assert curve.nondecreasing_on_negative
        assert curve.nonincreasing_on_positive

    def test_minimal_surface_closed_form(self):
        spec = minimal_surface(1.0)
        grid = np.linspace(-3, 3, 13)
        curve = lemma_P(spec, 1.0, grid)
        for w, p in zip(curve.w_grid, curve.values):
            assert p == pytest.approx(1 / math.sqrt(1 + w * w), rel=1e-12)
        assert curve.nonincreasing_on_positive

    def test_p_at_zero_is_the_integrand(self):
        for ident in ("sqrt_chain", "quartic", "surface_of_revolution"):
            spec = catalog(ident)
            curve = lemma_P(spec, 1.3, [0.0])
            assert curve.values[0] == pytest.approx(spec.eval(0.0, 1.3, 0.0), rel=1e-14)

    def test_mania_frozen_time(self):
        curve = lemma_P(catalog("mania"), 0.8, np.linspace(-2, 2, 21), t=0.3)
        assert curve.nondecreasing_on_negative
        assert curve.nonincreasing_on_positive

    @pytest.mark.parametrize("ident", CATALOG_IDS)
    def test_grid_matches_pointwise_intercepts(self, ident):
        """The whole-grid evaluation gives the bits of L - w L_v taken point
        by point through `partial_array`."""
        spec = catalog(ident)
        (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
        t, y = (t0 + t1) / 2.0, (y0 + y1) / 2.0
        curve = lemma_P(spec, y, np.linspace(v0, v1, 17), t=t)
        for w, p in zip(curve.w_grid, curve.values):
            assert p == float(spec.eval(t, y, w)) - w * float(partial_array(spec, 2, t, y, w))

    def test_singular_grid_point_raises(self):
        with pytest.raises(SingularPointError):
            lemma_P(catalog("half_inverse"), 0.0, [-1.0, 1.0])


class TestTangentInequality:
    @pytest.mark.parametrize("ident", ["sqrt_chain", "half_inverse",
                                       "surface_of_revolution", "brachistochrone",
                                       "mania"])
    def test_capped_speed_energy_inequality(self, ident):
        """L(y, d/s) s <= L(y, d) + P(d/s)(s - 1) for convex integrands, s >= 1."""
        spec = catalog(ident)
        rng = np.random.default_rng(hash(ident) % 2 ** 32)
        (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
        for _ in range(200):
            t = float(rng.uniform(t0, t1))
            y = float(rng.uniform(y0, y1))
            d = float(rng.uniform(v0, v1))
            s = float(rng.uniform(1.0, 8.0))
            w = d / s
            lw = float(spec.eval(t, y, w))
            ld = float(spec.eval(t, y, d))
            lv = float(partial_array(spec, 2, t, y, w))
            p = lw - w * lv
            lhs = lw * s
            rhs = ld + p * (s - 1.0)
            scale = max(1.0, abs(lhs), abs(ld), abs(p) * (s - 1.0))
            assert lhs <= rhs + 1e-10 * scale
