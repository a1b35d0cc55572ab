import dataclasses
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lavlab.repar
from lavlab import cli
from lavlab import (CATALOG_IDS, ArgumentError, ConsistencyError,
                    InfeasibleError, KRow, Mesh, ReparInput, ReparResult, SingularPointError,
                    Trajectory, UnsupportedLagrangianError, catalog,
                    choose_lambda, classify, energy, find_K, graded_mesh,
                    lemma_P, minimal_surface, polynomial_lagrangian,
                    reparametrize, sample, select_A, sqrt_ramp, uniform_mesh)

from lavlab.functional import _gauss, _total, cell_sums, gauss_points
from lavlab.lagrangian import jet
from lavlab.repar import _closure
from lavlab.trajectory import CELLS, endpoint_exact, positive_speeds, running_sum

from conftest import random_trajectory

SQRT_CHAIN = catalog("sqrt_chain")
V_SQUARED = polynomial_lagrangian([[1, 0, 0, 2]])


def two_cell(slopes, a=0.0, b=1.0):
    mesh = uniform_mesh(a, b, 2)
    h = mesh.widths[0]
    vals = np.concatenate([[0.0], np.cumsum(np.asarray(slopes) * h)])
    return Trajectory(mesh, vals)


def former_speeds(plan):
    """The plan's per-cell speeds as first written, on full-length arrays:
    ones, |d|/k on the fast set, 1/2 on the compensation set but
    `a_last_speed` on its last cell (the closed speed, on a closed plan)."""
    speeds = np.ones(plan.y.mesh.n_cells)
    speeds[plan.s_cells] = np.abs(plan.y.cell_derivatives()[plan.s_cells]) / plan.k
    speeds[plan.a_cells] = 0.5
    speeds[plan.a_cells[-1:]] = plan.a_last_speed
    return speeds


def moved_speeds(plan):
    """The speed of each of y's cells as `_moved_blocks` gives them; 1 on
    the cells it does not list."""
    speeds = np.ones(plan.y.mesh.n_cells)
    for _, _, cells, v in plan._moved_blocks():
        speeds[cells] = v
    return speeds


def built_y_k(plan):
    """y_k of a cap with the complete `plan`, closed, built as
    `ReparResult.y_k` builds it, whether or not a cell moves."""
    return ReparResult(_closure(plan), 0.0, 0.0, 0.0, 0.0, changed_cells=1).y_k


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

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["random", "ties", "sqrt"]),
           st.sampled_from([1.0, 10.0]), st.sampled_from([24, 400]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_loop_over_lambda(self, seed, mode, scale, max_cells):
        rng = np.random.default_rng(seed)
        if mode == "ties":
            y = tie_trajectory(rng, float(rng.integers(1, 5)))
        elif mode == "sqrt":
            mesh = graded_mesh(0, 1, int(rng.integers(2, max_cells + 1)), 2.0)
            y = Trajectory(mesh, scale * np.sqrt(mesh.nodes))
        else:
            y = random_trajectory(rng, lo=-4 * scale, hi=4 * scale, max_cells=max_cells)
        assert choose_lambda(y) == reference_choose_lambda(y)

    def test_steep_slow_half(self):
        """Three of four cells at slope 10^6 + 1/2: the slow half needs
        lambda = 10^6 + 1, a million masked sums for the loop over lambda."""
        y = Trajectory(uniform_mesh(0, 1, 4), np.array([0.0, 0.0, 1.0, 2.0, 3.0]) * 250000.125)
        assert choose_lambda(y) == 1e6 + 1.0
        d, w = np.abs(y.cell_derivatives()), y.mesh.widths
        assert float(w[d <= 1e6 + 1.0].sum()) >= 0.5 > float(w[d <= 1e6].sum())

    def test_slow_half_on_the_boundary(self):
        """Seven cells at slope 2.5, then seven at 10^6: the slow cells
        cover exactly half in exact arithmetic.  A running sum of the widths
        in |y'| order falls an ulp short of half where the measure test's
        sum does not, so a candidate read from that sum lies on the steep
        side, about a million integers above lambda = 3."""
        mesh = uniform_mesh(0, 1, 14)
        d = np.where(np.arange(14) < 7, 2.5, 1e6)
        y = Trajectory(mesh, np.concatenate([[0.0], np.cumsum(d * mesh.widths)]))
        w = y.mesh.widths
        in_order = np.cumsum(w[np.argsort(np.abs(y.cell_derivatives()))])
        assert in_order[6] < 0.5 <= float(w[:7].sum())
        assert choose_lambda(y) == reference_choose_lambda(y) == 3.0


def reference_choose_lambda(y):
    """choose_lambda's rule as the plain loop over lambda = 1, 2, ...: one
    masked sum per integer lambda."""
    d = np.abs(y.cell_derivatives())
    widths = y.mesh.widths
    half = (y.mesh.b - y.mesh.a) / 2.0
    top = int(math.ceil(float(np.max(d)))) + 1
    for lam in range(1, top + 1):
        if float(widths[d <= lam].sum()) >= half:
            return float(lam)
    return float(top)


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
        assert plan.slow_cells == (1,)
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

    def test_fractional_speed_measures_exactly_twice_deficit(self):
        # slow set one cell of width 0.5; deficit 0.1 -> the whole cell at
        # speed 1 - 0.2 / (2 * 0.5) = 0.8, which saves 0.1
        y = two_cell([4.0, 0.0])
        plan = classify(y, 2.0, 1.0)
        object.__setattr__(plan, "deficit", 0.1)
        done = select_A(plan)
        assert done.a_cells.tolist() == [1]
        assert done.a_last_speed == pytest.approx(0.8, abs=1e-15)
        assert done.measure_a == pytest.approx(0.2, abs=1e-15)
        assert moved_speeds(done).tolist() == [2.0, done.a_last_speed]

    def test_a_last_speed_that_rounds_to_one_stays_in_A_and_closes_the_cap(self):
        """A fast cell 3 ulps above k before a wide slow cell: the deficit
        is so small that 1 - r / (2 h) rounds to 1.  The slow cell stays in
        A at speed 1, and the cap closes the float endpoint defect on its
        speed, while the last cell keeps speed 1."""
        h0 = 2.0 ** -10
        y1 = 2.0 * h0 * (1.0 + 3.0 * 2.0 ** -52)
        y = Trajectory(Mesh(np.array([0.3, 0.3 + h0, 0.9, 1.0])), np.array([0.0, y1, y1, y1]))
        assert 0.0 < y.cell_derivatives()[0] / 2.0 - 1.0 <= 4.0 * 2.0 ** -52
        plan = select_A(classify(y, 2.0, choose_lambda(y)))
        assert plan.a_cells.tolist() == [1] and plan.a_last_speed == 1.0
        assert plan.deficit > 0.0 and moved_speeds(plan)[1:].tolist() == [1.0, 1.0]
        res = ReparInput.of(V_SQUARED, y).cap(2.0)
        closed = res.plan.a_last_speed
        assert res.plan.a_cells.tolist() == [1]
        assert 0.0 < abs(closed - 1.0) <= 4.0 * 2.0 ** -52
        assert moved_speeds(res.plan)[1:].tolist() == [closed, 1.0]
        assert res.changed_cells == 2
        assert res.y_k.mesh.nodes[-1] == 1.0

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
            assert plan.a_cells.tolist() == plan.slow_cells[:plan.a_cells.size].tolist()


def former_k_hint(y, k, lam):
    """The feasible-k hint as first written: |Omega| and each doubled
    probe's deficit from full-length masks."""
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


class TestFeasibleKHint:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([24, 400]))
    @settings(max_examples=100, deadline=None)
    def test_hint_has_the_former_bits_and_is_feasible(self, seed, max_cells):
        """On infeasible plans the hint is the former formula's, bit for
        bit, and select_A accepts a plan classified at it."""
        rng = np.random.default_rng(seed)
        y = random_trajectory(rng, lo=-4, hi=4, max_cells=max_cells)
        lam = choose_lambda(y)
        k = lam + float(rng.uniform(1e-3, 2.0))
        plan = classify(y, k, lam)
        if plan.deficit == 0.0 or plan.measure_omega > 2.0 * plan.deficit:
            return  # feasible
        with pytest.raises(InfeasibleError) as err:
            select_A(plan)
        hint = err.value.k_hint
        assert hint == former_k_hint(y, k, lam)
        if hint is not None:
            assert select_A(classify(y, hint, lam)).complete


def reference_select_A(plan):
    """select_A's greedy rule cell by cell, as a plain Python loop over the
    classified plan: (s_cells, slow_cells, a_cells, a_last_speed,
    measure_a), or None when the slow set runs out."""
    widths = plan.y.mesh.widths
    slow = plan.slow_cells.tolist()
    remaining = 2.0 * plan.deficit
    for i, idx in enumerate(slow):
        w = float(widths[idx])
        if remaining <= w:  # the last compensation cell saves remaining / 2
            speed = 1.0 - 0.5 * (remaining / w)
            a_cells, last_speed = (slow[:i], 0.5) if speed == 1.0 else (slow[:i + 1], speed)
            break
        remaining -= w
    else:
        return None
    measure_a = 0.0
    for n, idx in enumerate(a_cells, start=1):
        measure_a += float(widths[idx]) * (2.0 * (1.0 - last_speed) if n == len(a_cells) else 1.0)
    return plan.s_cells.tolist(), slow, a_cells, last_speed, measure_a


class TestSelectAReference:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["classified", "whole"]),
           st.sampled_from([24, 400]))
    @settings(max_examples=150, deadline=None)
    def test_matches_cell_by_cell_loop_bitwise(self, seed, mode, max_cells):
        """"classified" keeps the classified deficit; "whole" sets the target
        to the measure of the first slow cells, so the last compensation
        cell runs at 1/2, up to the rounding of the running subtraction.
        Meshes of up to 400 cells give long slow and compensation sets."""
        rng = np.random.default_rng(seed)
        y = random_trajectory(rng, lo=-4, hi=4, max_cells=max_cells)
        lam = choose_lambda(y)
        plan = classify(y, lam + float(rng.uniform(0.25, 6.0)), lam)
        widths = y.mesh.widths[plan.slow_cells]
        if mode == "whole" and widths.size >= 2:
            m = int(rng.integers(1, widths.size))
            object.__setattr__(plan, "deficit", sum(widths[:m].tolist()) / 2.0)
        expected = reference_select_A(plan)
        try:
            done = select_A(plan)
        except InfeasibleError:
            assert not plan.measure_omega > 2.0 * plan.deficit
            return
        except ConsistencyError:
            assert expected is None
            return
        s_cells, slow_cells, a_cells, a_last_speed, measure_a = expected
        for cells in (done.s_cells, done.slow_cells, done.a_cells):
            assert cells.dtype == np.intp and not cells.flags.writeable
        assert done.s_cells.tolist() == s_cells
        assert done.slow_cells.tolist() == slow_cells
        assert done.a_cells.tolist() == a_cells
        assert done.a_last_speed == a_last_speed
        assert done.measure_a == measure_a


class TestFractionalCompensation:
    """The last compensation cell runs whole at a speed in [1/2, 1], so a
    cap keeps y's cells and the compensation saves exactly the deficit."""

    @staticmethod
    def random_plan(seed):
        """A complete plan of a random trajectory or a sqrt sample at a
        random feasible k, or None."""
        rng = np.random.default_rng(seed)
        if rng.uniform() < 0.5:
            y = sample(np.sqrt, graded_mesh(0, 1, int(rng.integers(16, 400)), 2.0))
        else:
            y = random_trajectory(rng, lo=-4, hi=4, max_cells=int(rng.choice([24, 400])))
        lam = choose_lambda(y)
        k = lam + 1e-3 + float(rng.uniform(0.0, 1.0)) * max(y.lipschitz_constant - lam, 1.0)
        try:
            return select_A(classify(y, k, lam))
        except InfeasibleError:
            return None

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_y_k_keeps_the_mesh_size(self, seed):
        plan = self.random_plan(seed)
        if plan is None:
            return
        res = reparametrize(V_SQUARED, plan.y, plan.k)
        assert res.y_k.mesh.n_cells == plan.y.mesh.n_cells

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_last_compensation_speed_lies_in_half_to_one(self, seed):
        plan = self.random_plan(seed)
        if plan is None or not plan.a_cells.size:
            return
        speeds = moved_speeds(plan)
        assert 0.5 <= plan.a_last_speed <= 1.0
        assert speeds[plan.a_cells[-1]] == plan.a_last_speed
        assert np.all(speeds[plan.a_cells[:-1]] == 0.5)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_time_saved_is_the_deficit(self, seed):
        """The sum over A of 2 (1 - s_j) h_j, from the speeds the time
        change runs, is 2 * deficit within 1e-12 (b - a)."""
        plan = self.random_plan(seed)
        if plan is None:
            return
        y = plan.y
        a = plan.a_cells
        saved = float(np.sum(2.0 * (1.0 - moved_speeds(plan)[a]) * y.mesh.widths[a]))
        assert abs(saved - 2.0 * plan.deficit) <= 1e-12 * (y.mesh.b - y.mesh.a)


class TestBuildMap:
    """`_closure`: the plan closed on its last compensation speed, and the
    image nodes that `ReparResult.y_k` builds from it."""

    def test_empty_plan_gives_identity(self):
        y = two_cell([0.5, 0.5])
        plan = select_A(classify(y, 2.0, 1.0))
        assert _closure(plan) is plan  # no defect to absorb
        assert np.all(moved_speeds(_closure(plan)) == 1.0)
        assert built_y_k(plan).mesh.nodes.tolist() == y.mesh.nodes.tolist()
        assert reparametrize(V_SQUARED, y, 2.0).y_k is y

    def test_tie_slopes_give_unit_speeds(self):
        y = two_cell([4.0, 0.0])
        plan = select_A(classify(y, 4.0, 1.0))
        assert np.all(moved_speeds(_closure(plan)) == 1.0)
        res = reparametrize(V_SQUARED, y, 4.0)
        assert res.changed_cells == 0 and res.y_k is y

    def test_hand_speed_balance(self):
        # fast cell of width 1/4 at speed 2 (deficit 1/4), compensation of
        # measure 1/2 at speed 1/2, neutral 1/4: phi(b) = b exactly
        nodes = np.array([0.0, 0.25, 0.75, 1.0])
        vals = np.array([0.0, 1.0, 1.25, 1.5])  # slopes 4, 0.5, 1
        y = Trajectory(Mesh(nodes), vals)
        plan = select_A(classify(y, 2.0, 1.0))
        assert plan.a_cells.tolist() == [1] and plan.a_last_speed == 0.5
        assert _closure(plan) is plan  # no defect to absorb
        assert 0.25 * 2 + 0.5 * 0.5 + 0.25 * 1 == 1.0
        y_k = reparametrize(V_SQUARED, y, 2.0).y_k
        assert y_k.mesh.nodes.tolist() == [0.0, 0.5, 0.75, 1.0]
        assert y_k.cell_derivatives().tolist() == [2.0, 1.0, 1.0]

    def test_closure_rejects_a_nonpositive_speed(self):
        """Every slow cell compensates, and the defect to absorb is as large
        as the last cell's image: its closed speed is 0."""
        y = two_cell([4.0, 0.0])
        plan = dataclasses.replace(classify(y, 2.0, 1.0), a_cells=[1], complete=True)
        with pytest.raises(ArgumentError, match="all speeds must be positive"):
            _closure(plan)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_measure_law_random(self, seed):
        """|A_k| = 2 deficit, so the unclosed map misses b by at most
        1e-12 (b - a), and the closure moves the last compensation cell's
        image by that, and no other cell's."""
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
        speeds, widths = former_speeds(plan), plan.y.mesh.widths
        assert abs(_total(speeds * widths) - span) <= 1e-12 * span
        closed = former_speeds(_closure(plan))
        assert np.flatnonzero(closed != speeds).tolist() in ([], plan.a_cells[-1:].tolist())
        assert _total(np.abs(closed - speeds) * widths) <= 1e-12 * span
        assert built_y_k(plan).mesh.b == y.mesh.b

    def test_closure_defect_is_a_left_to_right_sum(self):
        """The endpoint defect absorbed by the last compensation speed is
        summed cell by cell from the left (no BLAS dot), so the corrected
        speeds have fixed bits."""
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
            speeds = former_speeds(plan)
            widths = plan.y.mesh.widths
            total = 0.0
            for v, h in zip(speeds.tolist(), widths.tolist()):
                total += v * h
            defect = 1.0 - total
            if defect != 0.0:
                j = int(plan.a_cells[-1])
                speeds[j] += defect / float(widths[j])
            assert np.array_equal(moved_speeds(_closure(plan)), speeds)


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
        n_cells = res.plan.y.mesh.n_cells
        neutral = [i for i in range(n_cells) if i not in s and i not in a]
        split_sum = per[list(s)].sum() + per[list(a)].sum() + per[neutral].sum()
        assert split_sum == pytest.approx(res.energy_after, rel=1e-10)

    def test_plan_speed_classes(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 128, 2.0))
        res = reparametrize(SQRT_CHAIN, y, 4.0)
        d = res.plan.y.cell_derivatives()
        v = moved_speeds(res.plan)
        for i in res.plan.s_cells:
            assert v[i] == abs(d[i]) / 4.0
            assert v[i] >= 1.0
        for i in res.plan.a_cells[:-1]:
            assert v[i] == 0.5
        assert v[res.plan.a_cells[-1]] == res.plan.a_last_speed

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

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["random", "sqrt"]))
    @settings(max_examples=100, deadline=None)
    def test_a_cap_moves_only_fast_and_compensation_cells(self, seed, mode):
        """C3's random trajectories and sqrt samples: every cell a cap moves
        lies in S or A, so changed_cells <= |S| + |A|; the endpoint defect
        moves A's last speed, not a cell of its own."""
        rng = np.random.default_rng(seed)
        if mode == "sqrt":
            y = sample(np.sqrt, graded_mesh(0, 1, int(rng.integers(16, 600)), 2.0))
        else:
            y = random_trajectory(rng, lo=-3.0, hi=3.0)
        lam = choose_lambda(y)
        try:
            res = reparametrize(SQRT_CHAIN, y, lam + float(rng.uniform(0.5, 8.0)))
        except InfeasibleError:
            return
        plan = res.plan
        moved = np.flatnonzero(moved_speeds(plan) != 1.0)
        assert np.isin(moved, np.union1d(plan.s_cells, plan.a_cells)).all()
        assert res.changed_cells == moved.size <= plan.s_cells.size + plan.a_cells.size


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
            assert tie.y_k is y and np.all(moved_speeds(tie.plan) == 1.0)
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


class TestChangeOfVariables:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["sqrt_chain", "half_inverse"]),
           st.sampled_from(["random", "ties", "sqrt"]))
    @settings(max_examples=100, deadline=None)
    def test_numbers_match_the_built_trajectory(self, seed, ident, mode):
        """F(y_k) and Lip(y_k) from the changed cells against energy() and
        the Lipschitz constant of the built y_k.

        The built y_k's nodes are rounded, so its cell widths, and the
        slopes and energies computed from them, carry a relative error up
        to rho = ulp(max |t|) / (its smallest width); cap's numbers use the
        exact widths h_j s_j.  Random meshes keep cells of 1e-6 and more,
        so rho reaches about 1e-10 on the smallest compensation cells."""
        spec = catalog(ident)
        rng = np.random.default_rng(seed)
        if mode == "ties":
            k0 = float(rng.integers(2, 5))
            y = tie_trajectory(rng, k0)
            grid = [k0, 2.0 * k0 + 1.0]
        else:
            if mode == "sqrt":
                y = sample(np.sqrt, graded_mesh(0, 1, int(rng.integers(16, 400)), 2.0))
            else:
                y = random_trajectory(rng, lo=0.2, hi=3.0, max_cells=int(rng.choice([24, 400])))
            lam, lip = choose_lambda(y), y.lipschitz_constant
            grid = sorted(lam + 1e-3 + rng.uniform(0.0, 1.0, size=4) * max(lip - lam, 1.0))
        prepared = ReparInput.of(spec, y)
        eps = np.finfo(float).eps
        for k in grid:
            try:
                res = prepared.cap(k)
            except InfeasibleError:
                continue
            speeds = moved_speeds(res.plan)
            assert res.changed_cells == np.count_nonzero(speeds != 1.0)
            y_k = res.y_k
            if not res.changed_cells:
                assert y_k is y and res.energy_after == energy(spec, y).value
            rho = np.spacing(max(abs(y_k.mesh.a), abs(y_k.mesh.b))) / y_k.mesh.widths.min()
            assert energy(spec, y_k).value == pytest.approx(
                res.energy_after, rel=1e-10 + 32.0 * rho, abs=0.0)
            assert y_k.lipschitz_constant == pytest.approx(
                res.lip_after, rel=2.0 * (rho + 2.0 * eps), abs=0.0)

    def test_fractional_cell_is_evaluated_at_its_speed(self):
        """The last compensation cell is a cell of y run whole at a speed
        strictly between 1/2 and 1, its right neighbour keeps speed 1, and
        F(y_k) counts it on y's cells."""
        y = sample(np.sqrt, graded_mesh(0, 1, 256, 2.0))
        res = ReparInput.of(SQRT_CHAIN, y).cap(4.0)
        last, speed = int(res.plan.a_cells[-1]), res.plan.a_last_speed
        assert 0.5 < speed < 1.0
        assert moved_speeds(res.plan)[last:last + 2].tolist() == [speed, 1.0]
        per_cell = energy(SQRT_CHAIN, res.y_k).per_cell
        assert per_cell.size == y.mesh.n_cells
        assert res.energy_after == pytest.approx(float(per_cell.sum()), rel=1e-12)

    @staticmethod
    def colliding_nodes():
        """Four compensation cells one ulp of 0.25 wide, at speed 1/2: the
        first one's image of half an ulp rounds onto its left node."""
        u = 2.0 ** -54  # ulp(0.25)
        nodes = np.array([0.0, 0.25, 0.25 + u, 0.25 + 2 * u, 0.25 + 3 * u,
                          0.25 + 4 * u, 0.25 + 6 * u, 1.0])
        y = Trajectory(Mesh(nodes), 0.375 + np.array([-0.375, 0, 0, 0, 0, 0, 8 * u, 8 * u]))
        assert y.cell_derivatives().tolist() == [1.5, 0, 0, 0, 0, 4, 0]
        return y

    def test_nodes_that_collide_raise_as_the_push_does(self):
        """Compensation cells one ulp of 0.25 wide, at speed 1/2, have
        images of half an ulp, the first of which rounds onto its left
        node: y_k has no
        mesh (the full-length reference raises), and cap raises the same
        ArgumentError without building it."""
        y = self.colliding_nodes()
        plan = select_A(classify(y, 2.0, choose_lambda(y)))
        assert plan.a_cells.tolist() == [1, 2, 3, 4]
        with pytest.raises(ArgumentError, match="strictly increasing"):
            former_closure(plan)
        with pytest.raises(ArgumentError, match="strictly increasing"):
            ReparInput.of(SQRT_CHAIN, y).cap(2.0)

    @pytest.mark.parametrize("cells", [1, 2, 3, CELLS])
    def test_nodes_that_collide_raise_in_every_block_size(self, cells):
        """The collision is found whichever block of cells holds it."""
        y = self.colliding_nodes()
        with pytest.raises(ArgumentError, match="strictly increasing"), \
                mock.patch.object(lavlab.repar, "CELLS", cells):
            ReparInput.of(SQRT_CHAIN, y).cap(2.0)


def former_closure(plan):
    """The closed speeds and y_k's mesh nodes as first written, on
    full-length arrays: `former_speeds`, the defect summed by np.cumsum and
    absorbed into the last compensation cell's speed (a nonzero defect with
    no such cell raises); then the image a plus np.cumsum(speeds * widths),
    a prepended, which must end within the endpoint tolerance of b, snapped
    to b, and make a mesh.  Returns (speeds, nodes), or raises what those
    checks raise."""
    speeds = former_speeds(plan)
    widths = plan.y.mesh.widths
    a, b = plan.y.mesh.a, plan.y.mesh.b
    defect = (b - a) - _total(speeds * widths)
    if defect != 0.0:
        if not plan.a_cells.size:
            raise ConsistencyError(
                f"endpoint defect {abs(defect):.3e} and no compensation cell to absorb it")
        j = int(plan.a_cells[-1])
        speeds[j] += defect / float(widths[j])
    positive_speeds(speeds)
    nodes = np.concatenate(([a], a + np.cumsum(speeds * widths)))
    if not endpoint_exact(nodes, a, b):
        raise ConsistencyError(f"endpoint defect {abs(float(nodes[-1]) - b):.3e}")
    nodes[-1] = b
    Mesh(nodes)  # raises unless strictly increasing
    return speeds, nodes


def closure_outcome(plan):
    """former_closure(plan), or the type and the message head of the
    ArgumentError or ConsistencyError it raises."""
    try:
        return former_closure(plan)
    except (ArgumentError, ConsistencyError) as exc:
        return type(exc), str(exc).split(" exceeds")[0]


def former_cap(prepared, k):
    """(energy_after, lip_after, changed_cells) of cap(k) as first written:
    F(y_k) and Lip(y_k) from the full closed speeds and y's arrays."""
    plan = select_A(classify(prepared.y, k, prepared.lam))
    if np.all(former_speeds(plan) == 1.0):
        return prepared.energy_before, prepared.lip, 0
    closed = closure_outcome(plan)
    if isinstance(closed[0], type):
        return closed
    speeds = closed[0]
    y = plan.y
    nodes, values, h, d = y.mesh.nodes, y.values, y.mesh.widths, y.cell_derivatives()
    new = np.flatnonzero(speeds != 1.0)
    x, w = _gauss(prepared.order)
    s = speeds[new]

    def samples(b):
        idx = new[b]
        tq = gauss_points(nodes[:-1][idx], nodes[1:][idx], h[idx], x)
        yq = tq - nodes[idx]
        yq *= d[idx]
        yq += values[idx]
        return tq, yq, (d[idx] / s[b])[None]

    delta = (_total(cell_sums(prepared.spec, h[new] * s, w, samples))
             - _total(prepared._energy.per_cell[new]))
    return (prepared.energy_before + delta, float(np.max(np.abs(d) / speeds)), new.size)


def closure_plan(rng, mode):
    """A complete plan for the closure: a random trajectory capped at a
    random k, one whose compensation set is short or long by a random
    factor (a large closure, perhaps a speed <= 0), one where every slow
    cell compensates (every cell moves), or slow cells then a fast tail with
    the last slow cell at a fractional speed (every cell moves, and the
    closing speed is that of the last slow cell)."""
    if mode == "tail":
        m, r = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        mesh = uniform_mesh(0.0, 1.0, m + r)
        slopes = np.r_[np.full(m, 0.5), np.full(r, float(rng.uniform(2.5, 6.0)))]
        y = Trajectory(mesh, np.r_[0.0, np.cumsum(slopes * mesh.widths)])
        plan = classify(y, 2.0, 1.0)
        short = plan.measure_omega - float(rng.uniform(0.1, 0.9)) * mesh.widths[0]
        return select_A(dataclasses.replace(plan, deficit=short / 2.0))
    y = random_trajectory(rng, lo=0.2, hi=3.0, max_cells=int(rng.choice([24, 400])))
    lam = choose_lambda(y)
    k = lam + 1e-3 + float(rng.uniform(0.0, 1.0)) * max(y.lipschitz_constant - lam, 1.0)
    plan = classify(y, k, lam)
    if mode == "all":
        return dataclasses.replace(plan, a_cells=plan.slow_cells, complete=True)
    if mode == "scaled":
        plan = dataclasses.replace(plan, deficit=plan.deficit * float(rng.uniform(0.0, 1.2)))
    return select_A(plan)


class TestBlockedCap:
    """Every per-k pass walks blocks of CELLS cells, and the quadrature
    blocks of SAMPLES samples; with these patched to a few cells the block
    edges fall everywhere, and the numbers keep the bits of the full-length
    formulas."""

    @pytest.mark.parametrize("sizes", [[0], [1], [5, 3], [7, 1, 1, 9], [CELLS, 2, CELLS - 1]])
    def test_running_sum_has_the_bits_of_one_cumsum(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        whole = rng.normal(0.0, 1.0, sum(sizes)) * 10.0 ** rng.integers(-8, 8, sum(sizes))
        whole[:1] = -0.0  # the empty sum keeps a leading -0.0
        carry, parts = None, []
        for lo, n in zip(np.cumsum([0] + sizes), sizes):
            sums = running_sum(whole[lo:lo + n], *([] if carry is None else [carry]))
            parts.append(sums[1:])
            carry = sums[-1]
        assert np.concatenate(parts).tobytes() == np.cumsum(whole).tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["random", "scaled", "all", "tail"]),
           st.sampled_from([1, 2, 3, 8, CELLS]))
    @settings(max_examples=150, deadline=None)
    def test_closure_matches_the_full_length_checks(self, seed, mode, cells):
        """The closed speeds, what the image checks raise, and the nodes of
        y_k are those of the full-length closure and image, phi(b) snapped
        to b."""
        rng = np.random.default_rng(seed)
        try:
            plan = closure_plan(rng, mode)
        except InfeasibleError:
            return
        expected = closure_outcome(plan)
        with mock.patch.object(lavlab.repar, "CELLS", cells):
            try:
                closed = _closure(plan)
            except (ArgumentError, ConsistencyError) as exc:
                assert (type(exc), str(exc).split(" exceeds")[0]) == expected
                return
            assert not isinstance(expected[0], type), expected
            assert former_speeds(closed).tobytes() == expected[0].tobytes()
            y_k = built_y_k(plan)
            assert y_k.mesh.nodes.tobytes() == expected[1].tobytes()
            assert y_k.values.tobytes() == plan.y.values.tobytes()
        if mode == "tail":
            assert 0.5 < plan.a_last_speed < 1.0
            assert plan.a_cells[-1] == plan.slow_cells[-1]

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["sqrt_chain", "half_inverse"]),
           st.sampled_from(["random", "sqrt"]), st.sampled_from([1, 3, 8, CELLS]))
    @settings(max_examples=80, deadline=None)
    def test_cap_has_the_bits_of_the_full_length_formulas(self, seed, ident, mode, cells):
        spec = catalog(ident)
        rng = np.random.default_rng(seed)
        if mode == "sqrt":
            y = sample(np.sqrt, graded_mesh(0, 1, int(rng.integers(16, 400)), 2.0))
        else:
            y = random_trajectory(rng, lo=0.2, hi=3.0, max_cells=int(rng.choice([24, 400])))
        prepared = ReparInput.of(spec, y)
        lam, lip = prepared.lam, prepared.lip
        for k in sorted(lam + 1e-3 + rng.uniform(0.0, 1.0, size=3) * max(lip - lam, 1.0)):
            try:
                expected = former_cap(prepared, k)
            except InfeasibleError:
                continue
            with mock.patch.object(lavlab.repar, "CELLS", cells), \
                    mock.patch.object(lavlab.repar, "SAMPLES", cells):
                if isinstance(expected[0], type):
                    with pytest.raises(expected[0], match=expected[1]):
                        prepared.cap(k)
                    continue
                res = prepared.cap(k)
                y_k = res.y_k
            assert (res.energy_after, res.lip_after, res.changed_cells) == expected
            if res.changed_cells:  # else y_k is y
                speeds, nodes = former_closure(select_A(classify(y, k, lam)))
                assert res.plan.a_last_speed == speeds[res.plan.a_cells[-1]]
                assert y_k.mesh.nodes.tobytes() == nodes.tobytes()
                assert y_k.values.tobytes() == res.plan.y.values.tobytes()

    def test_y_k_reuses_the_closure_of_its_cap(self):
        """One cap and its y_k close the time change once: y_k builds its
        nodes from the closed plan the cap kept, with the same bits."""
        prepared = ReparInput.of(SQRT_CHAIN, sample(np.sqrt, graded_mesh(0, 1, 400, 2.0)))
        with mock.patch.object(lavlab.repar, "_closure", wraps=_closure) as closure:
            res = prepared.cap(2.0)
            y_k = res.y_k
        assert res.changed_cells and closure.call_count == 1
        plan = select_A(classify(prepared.y, 2.0, prepared.lam))
        assert res.plan.a_last_speed == _closure(plan).a_last_speed
        assert y_k.mesh.nodes.tobytes() == built_y_k(plan).mesh.nodes.tobytes()

    @staticmethod
    def cap_peak(y, k=256.0):
        """The traced peak of one cap of y at k, after F(y) and the slow
        set, and its changed cells."""
        prepared = ReparInput.of(SQRT_CHAIN, y)
        prepared.cap(2.0)  # F(y) and the slow set, once
        tracemalloc.start()
        try:
            changed = prepared.cap(k).changed_cells
            return tracemalloc.get_traced_memory()[1], changed
        finally:
            tracemalloc.stop()

    def test_cap_memory_follows_the_changed_cells(self):
        """At k = 256 a sqrt sample moves about n / 500 cells: one cap's
        traced peak is the same for 2^14 and 2^16 cells, below one
        2^16-entry float array."""
        (small, few), (large, more) = (self.cap_peak(sample(np.sqrt, graded_mesh(0, 1, n, 2.0)))
                                       for n in (2 ** 14, 2 ** 16))
        assert few < more < 2 ** 16 // 100
        assert large < 2 ** 16 * 8, (small, large)
        assert large - small < 2 ** 14, (small, large)

    def test_closing_pass_memory_follows_the_changed_cells(self):
        """On a 2^16-cell sqrt sample whose interior nodes move by up to a
        quarter of the smaller adjacent cell, the cap at k = 256 closes on
        a nonzero defect, so `_closure` re-sums the image over the blocks
        from a[-1]'s on.  That pass holds one block's arrays at a time: the
        cap's traced peak stays within 2^14 bytes of a clean 2^14-cell
        sample's, below one 2^16-entry float array."""
        rng = np.random.default_rng(4)
        nodes = graded_mesh(0, 1, 2 ** 16, 2.0).nodes.copy()
        h = np.diff(nodes)
        nodes[1:-1] += rng.uniform(-0.25, 0.25, h.size - 1) * np.minimum(h[:-1], h[1:])
        y = sample(np.sqrt, Mesh(nodes))
        plan = select_A(classify(y, 256.0, choose_lambda(y)))
        assert _closure(plan) is not plan
        small, _ = self.cap_peak(sample(np.sqrt, graded_mesh(0, 1, 2 ** 14, 2.0)))
        large, changed = self.cap_peak(y)
        assert 0 < changed < 2 ** 16 // 100
        assert large < 2 ** 16 * 8, (small, large)
        assert large - small < 2 ** 14, (small, large)


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

    def test_rows_set_every_field(self):
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(KRow))
        y = sample(np.sqrt, graded_mesh(0, 1, 1024, 2.0))
        for row in find_K(SQRT_CHAIN, y, [2, 8, 32]).rows:
            assert None not in dataclasses.astuple(row)
            assert row.status in ("ok", "above_bound")

    def test_identity_profile_zero_gap(self):
        y = sample(lambda t: np.asarray(t, float), uniform_mesh(0, 1, 32))
        for r in find_K(V_SQUARED, y, [2, 4, 8]).rows:
            assert r.gap == 0.0

    def test_sqrt_chain_gap_shrinks(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 1024, 2.0))
        rows = find_K(SQRT_CHAIN, y, [2, 8, 32, 128]).rows
        gaps = [r.gap for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(r.gap <= 1.0 / r.k for r in rows)
        assert [r.status for r in rows] == ["ok"] * 4

    def test_half_inverse_capped_energies_finite(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 512, 2.0))
        for r in find_K(catalog("half_inverse"), y, [4, 16]).rows:
            assert math.isfinite(r.energy_after)
            assert r.lip <= 2 * r.k + 1e-9

    def test_nonconvex_integrand_gets_rows_and_no_K(self):
        """The bound is proved for integrands convex in v: the quartic's
        rows are all "ok" here, yet K is None, and the same spec flagged
        convex gets the same rows and a K."""
        y = sample(np.sqrt, graded_mesh(0, 1, 256, 2.0))
        quartic = catalog("quartic")
        rep = find_K(quartic, y, [2.0, 8.0, 32.0])
        assert [r.status for r in rep.rows] == ["ok"] * 3
        assert all(r.changed_cells > 0 for r in rep.rows)
        assert rep.K is None
        flagged = find_K(dataclasses.replace(quartic, convex_in_v=True), y, [2.0, 8.0, 32.0])
        assert flagged.rows == rep.rows and flagged.K == 2.0

    def test_grid_point_at_or_below_lambda_raises(self):
        y = sample(lambda t: 3 * t, uniform_mesh(0, 1, 8))  # lambda = 3
        for grid in ([8.0, 1.0, 2.0], [3.0, 8.0]):
            with pytest.raises(ArgumentError, match=r"choose_lambda\(y\) = 3.0 \(got k="):
                find_K(SQRT_CHAIN, y, grid)
        assert find_K(SQRT_CHAIN, y, [8.0]).K == 8.0

    def test_infeasible_k_raises_with_hint_and_input_energy_once(self, monkeypatch):
        energies = []

        def counted(spec, y, order):
            energies.append(y)
            return energy(spec, y, order)

        monkeypatch.setattr(lavlab.repar, "energy", counted)
        # slopes (4, 0), lambda 1: at k=2 twice the deficit (1) exceeds the
        # slow set (1/2); at the hint k=4 the input is already at the cap
        y = Trajectory(uniform_mesh(0, 1, 2), [0, 2, 2])
        with pytest.raises(InfeasibleError) as exc:
            find_K(SQRT_CHAIN, y, [8, 2])
        assert exc.value.k_hint == 4.0
        assert len(energies) <= 1 and all(e is y for e in energies)
        rep = find_K(SQRT_CHAIN, y, [exc.value.k_hint, 8])
        assert [r.status for r in rep.rows] == ["ok", "ok"] and rep.K == 4.0

    def test_grid_at_or_below_lambda_never_evaluates_energy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("F(y) evaluated")

        monkeypatch.setattr(lavlab.repar, "energy", refuse)
        y = sample(lambda t: 3 * t, uniform_mesh(0, 1, 8))  # lambda = 3
        with pytest.raises(ArgumentError):
            find_K(SQRT_CHAIN, y, [1.0, 3.0, 2.0])
        with pytest.raises(ArgumentError):  # sorted: 2 is capped first
            find_K(SQRT_CHAIN, y, [8.0, 2.0])


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
        by point through `jet`."""
        spec = catalog(ident)
        (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
        t, y = (t0 + t1) / 2.0, (y0 + y1) / 2.0
        curve = lemma_P(spec, y, np.linspace(v0, v1, 17), t=t)
        for w, p in zip(curve.w_grid, curve.values):
            value, _, lv = jet(spec, t, y, w)
            assert p == float(value) - w * float(lv)

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
            lv = float(jet(spec, t, y, w)[2])
            p = lw - w * lv
            lhs = lw * s
            rhs = ld + p * (s - 1.0)
            scale = max(1.0, abs(lhs), abs(ld), abs(p) * (s - 1.0))
            assert lhs <= rhs + 1e-10 * scale
