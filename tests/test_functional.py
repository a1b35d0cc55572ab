import json
import math

import numpy as np
import pytest

from lavlab import (Trajectory, catalog, energy, energy_converged,
                    graded_mesh, plateau_tent, polynomial_lagrangian, sample,
                    sawtooth, sqrt_ramp, uniform_mesh)

from lavlab import cli
from lavlab.functional import (BLOCK, _gauss, _total, cell_energies,
                               cell_energies_lr)
from lavlab.lagrangian import LagrangianSpec

from conftest import oracle_energy, random_trajectory

V_SQUARED = polynomial_lagrangian([[1, 0, 0, 2]])


class TestGaussTable:
    def test_low_orders_match_closed_forms(self):
        ulp = 4 * np.finfo(float).eps
        for order, nodes, weights in (
                (1, [0.0], [2.0]),
                (2, [-1 / math.sqrt(3), 1 / math.sqrt(3)], [1.0, 1.0]),
                (3, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], [5 / 9, 8 / 9, 5 / 9])):
            x, w = _gauss(order)
            assert x == pytest.approx(nodes, abs=ulp)
            assert w == pytest.approx(weights, abs=ulp)

    def test_symmetric_with_exact_weight_sum(self):
        for order in range(1, 9):
            x, w = _gauss(order)
            assert np.array_equal(x, -x[::-1])
            assert np.array_equal(w, w[::-1])
            assert math.fsum(w) == 2.0
            assert _total(w) == 2.0  # the kernel's contraction order

    def test_every_order_builds_a_symmetric_rule(self):
        # beyond order 8 a left-to-right sum of exactly 2 is not always one
        # middle move away; the table is still built
        for order in range(1, 41):
            x, w = _gauss(order)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            assert abs(_total(w) - 2.0) <= 8 * np.finfo(float).eps

    def test_total_is_the_left_to_right_sum(self):
        rng = np.random.default_rng(8)
        for n in (1, 7, 500, 4096):
            per_cell = rng.uniform(0, 1, n) * rng.choice([1e-9, 1.0, 1e6], n)
            total = 0.0
            for c in per_cell:
                total += float(c)
            assert _total(per_cell) == total
        assert _total(np.array([1.0, np.inf, 2.0])) == math.inf


# y^2 (1 + t v^2) + v^2 from products and sums only, so numpy arrays and
# Python floats give it the same bits
PLAIN = LagrangianSpec(id="plain", eval=lambda t, y, v: y * y * (1.0 + t * v * v) + v * v,
                       partials=None, autonomous=False, convex_in_v=True)


class TestKernel:
    @pytest.mark.parametrize("order", range(1, 9))
    def test_per_cell_bits_match_a_python_left_to_right_sum(self, order):
        rng = np.random.default_rng(order)
        n = 300
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n))])
        values = rng.normal(0.0, 2.0, n + 1)
        cells = cell_energies(PLAIN, nodes, values, order)
        x, w = (v.tolist() for v in _gauss(order))
        for j in range(n):
            a, b = float(nodes[j]), float(nodes[j + 1])
            ya, yb = float(values[j]), float(values[j + 1])
            h = b - a
            d = (yb - ya) / h
            terms = []
            for xk, wk in zip(x, w):
                t = (a + b) / 2.0 + (h / 2.0) * xk
                terms.append(PLAIN.eval(t, ya + d * (t - a), d) * wk)
            acc = terms[0]
            for term in terms[1:]:
                acc = acc + term
            assert cells[j] == (h / 2.0) * acc
            assert cells[j] == pytest.approx((h / 2.0) * math.fsum(terms),
                                             rel=order * np.finfo(float).eps)

    def test_a_cell_has_the_same_bits_in_any_block(self):
        rng = np.random.default_rng(21)
        n = 2 * BLOCK + 3
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.0, n))]) / n
        values = np.sin(8.0 * nodes) + rng.normal(0.0, 1e-3, n + 1)
        spec = catalog("quartic_plus_square")
        cells = cell_energies(spec, nodes, values)
        alone = [cell_energies(spec, nodes[j:j + 2], values[j:j + 2])[0]
                 for j in range(n)]
        assert np.array_equal(cells, alone)

    @pytest.mark.parametrize("poison", [math.nan, math.inf, 1e151])
    @pytest.mark.parametrize("cell", [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK + 2])
    def test_a_bad_sample_makes_only_its_cell_infinite(self, poison, cell):
        # 1e151 gives samples near 1e302: finite, but above INF_THRESHOLD
        rng = np.random.default_rng(4)
        n = 2 * BLOCK + 3
        nodes = np.linspace(0.0, 1.0, n + 1)
        y_left = rng.normal(0.0, 1.0, n)
        y_right = rng.normal(0.0, 1.0, n)
        clean = cell_energies_lr(PLAIN, nodes, y_left, y_right)
        y_left[cell] = y_right[cell] = poison
        with np.errstate(invalid="ignore"):  # the slope inf - inf
            cells = cell_energies_lr(PLAIN, nodes, y_left, y_right)
        assert cells[cell] == math.inf
        others = np.arange(n) != cell
        assert np.array_equal(cells[others], clean[others])


class TestEnergy:
    def test_constant_integrand_exact_at_any_order(self):
        y = sample(lambda t: t, uniform_mesh(0, 1, 3))
        for order in range(1, 9):
            assert energy(V_SQUARED, y, order).value == 1.0

    def test_sawtooth_energy_closed_form(self):
        # teeth have unit slopes, so only the y^2 term contributes: 1/(12 n^2)
        spec = catalog("quartic_plus_square")
        for n in (2, 8, 32):
            rep = energy(spec, sawtooth(n), order=2)
            assert rep.value == pytest.approx(1 / (12 * n ** 2), abs=1e-12)
            assert rep.value <= 1 / (2 * n) ** 2

    def test_sqrt_ramp_energy_bound(self):
        spec = catalog("sqrt_chain")
        for n in (10, 100):
            assert energy(spec, sqrt_ramp(n)).value <= 3 / n

    def test_plateau_tent_energy(self):
        spec = catalog("quartic")
        for n in (4, 16, 64):
            assert energy(spec, plateau_tent(n)).value == pytest.approx(2 / n, rel=1e-12)

    def test_value_is_sum_of_cells(self):
        rng = np.random.default_rng(7)
        y = random_trajectory(rng)
        rep = energy(catalog("quartic_plus_square"), y)
        assert rep.value == pytest.approx(sum(rep.per_cell), rel=1e-15)

    def test_infinite_cell_makes_value_infinite(self):
        # a whole cell at height 1e-200 puts samples past the 1e300 threshold
        spec = catalog("half_inverse")
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([1e-200, 1e-200, 1.0]))
        rep = energy(spec, y)
        assert rep.value == math.inf
        assert math.isinf(rep.per_cell[0]) and math.isfinite(rep.per_cell[1])

    def test_open_quadrature_keeps_nodal_singularity_finite(self):
        # the value dips to ~0 only at a node, which is never sampled
        spec = catalog("half_inverse")
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([1.0, 1e-200, 1.0]))
        assert math.isfinite(energy(spec, y).value)

    def test_matches_adaptive_oracle_on_random_trajectories(self):
        rng = np.random.default_rng(123)
        spec = catalog("quartic_plus_square")
        for _ in range(20):
            y = random_trajectory(rng)
            assert energy(spec, y).value == pytest.approx(
                oracle_energy(spec, y), rel=1e-12)

    def test_quadrature_exact_for_low_degree_polynomials(self):
        # order n integrates joint degree <= 2n-1 in t exactly per cell
        spec = polynomial_lagrangian([[1, 3, 1, 2], [2, 1, 0, 4]])
        rng = np.random.default_rng(5)
        y = random_trajectory(rng)
        for order in (3, 4, 5):
            v1 = energy(spec, y, order).value
            v2 = energy(spec, y, 2 * order).value
            assert abs(v1 - v2) <= 1e-13 * max(1.0, abs(v1))

    def test_additivity_under_cell_split(self):
        rng = np.random.default_rng(11)
        spec = catalog("quartic_plus_square")
        y = random_trajectory(rng)
        t_split = 0.5 * (y.mesh.nodes[0] + y.mesh.nodes[1])
        y2 = y.with_node(float(t_split))
        assert energy(spec, y2).value == pytest.approx(
            energy(spec, y).value, rel=1e-12)

    def test_refinement_estimate_zero_for_exact_integrand(self):
        y = sample(lambda t: t, uniform_mesh(0, 1, 4))
        rep = energy(V_SQUARED, y)
        assert rep.refinement_error_estimate <= 1e-15

    def test_nonnegative_on_catalog_domains(self):
        rng = np.random.default_rng(42)
        for ident in ("sqrt_chain", "quartic", "quartic_plus_square", "mania"):
            spec = catalog(ident)
            for _ in range(10):
                assert energy(spec, random_trajectory(rng)).value >= 0.0

    def test_report_serialization(self):
        rep = energy(V_SQUARED, sample(lambda t: t, uniform_mesh(0, 1, 2)))
        d = rep.to_json_dict()
        assert set(d) == {"value", "per_cell", "error_estimate", "order"}
        assert d["order"] == 5


    def test_per_cell_is_the_kernel_array_read_only(self):
        spec = catalog("half_inverse")
        y = Trajectory(uniform_mesh(0, 1, 3), np.array([1e-200, 1e-200, 0.5, 1.0]))
        rep = energy(spec, y)
        cells = cell_energies(spec, y.mesh.nodes, y.values)
        assert math.isinf(cells[0])
        assert isinstance(rep.per_cell, np.ndarray)
        assert np.array_equal(rep.per_cell, cells)
        with pytest.raises(ValueError):
            rep.per_cell[1] = 0.0
        # the same JSON as the former tuple of Python floats
        d = rep.to_json_dict()
        old = dict(d, per_cell=list(tuple(float(c) for c in cells)))
        assert cli._dumps(d) == json.dumps(old, sort_keys=True, indent=2) + "\n"


class TestEnergyConverged:
    def family(self, power=3.0, n_max=4096):
        n = 64
        out = []
        while n <= n_max:
            out.append(graded_mesh(0.0, 1.0, n, power))
            n *= 2
        return out

    def test_mania_on_cuberoot_reaches_zero(self):
        res = energy_converged(catalog("mania"), np.cbrt, self.family(), tol=1e-6)
        assert res.converged
        assert res.value <= 1e-3

    def test_half_inverse_on_sqrt_reaches_zero(self):
        res = energy_converged(catalog("half_inverse"), np.sqrt,
                               self.family(power=2.0), tol=1e-6)
        assert res.converged
        assert res.value <= 1e-3

    def test_sqrt_chain_on_sqrt_decreases_with_refinement(self):
        res = energy_converged(catalog("sqrt_chain"), np.sqrt,
                               self.family(power=2.0), tol=1e-12)
        assert res.value <= 1e-9

    def test_exact_derivative_accepted(self):
        res = energy_converged(catalog("half_inverse"), np.sqrt, self.family(2.0),
                               tol=1e-9, dy_exact=lambda t: 0.5 / np.sqrt(t))
        assert res.converged
        assert res.value <= 1e-12

    def test_not_converged_marker(self):
        # a single coarse mesh with a loose integrand and absurd tolerance
        spec = catalog("quartic_plus_square")
        res = energy_converged(spec, np.cos, [uniform_mesh(0, 1, 3)], tol=1e-30)
        assert not res.converged
        assert res.history[-1][0] == 3


class TestGradingBehavior:
    def test_grading_improves_convergent_interpolant_energy(self):
        """At fixed n the sampled-sqrt energy drops as the grading power
        grows; cross-checked against the adaptive oracle."""
        spec = catalog("sqrt_chain")
        values = []
        for power in (1.0, 2.0, 3.0):
            y = sample(np.sqrt, graded_mesh(0, 1, 10, power))
            rep = energy(spec, y)
            assert rep.value == pytest.approx(oracle_energy(spec, y), rel=1e-9)
            values.append(rep.value)
        assert values[0] > values[1] > values[2]

    def test_mania_interpolant_energy_blows_up(self):
        """Both-endpoint interpolants of the mania minimizer cannot approach
        zero energy; refinement makes the first-cell contribution grow like
        (8/105) / h_1."""
        spec = catalog("mania")
        vals = []
        for n in (8, 32, 128):
            y = sample(np.cbrt, graded_mesh(0, 1, n, 3.0))
            rep = energy(spec, y)
            h1 = y.mesh.widths[0]
            assert rep.per_cell[0] == pytest.approx(8 / 105 / h1, rel=1e-12)
            vals.append(rep.value)
        assert vals[0] < vals[1] < vals[2]
