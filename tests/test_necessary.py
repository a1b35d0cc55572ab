import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lavlab import (ArgumentError, LagrangianSpec, ResidualReport, Trajectory,
                    UnsupportedLagrangianError, catalog,
                    catenary, dbr_residual, el_residual, fit_catenary,
                    minimal_surface, plateau_tent, polynomial_lagrangian,
                    sample, sawtooth, uniform_mesh)

from conftest import alternating_mesh

V_SQUARED = polynomial_lagrangian([[1, 0, 0, 2]])
UNIT_SURFACE = minimal_surface(1.0)


class TestCatenary:
    def test_values(self):
        assert catenary(1.0)(0.0) == 1.0
        assert catenary(2.0)(0.0) == 0.5

    def test_zero_alpha_rejected(self):
        with pytest.raises(ArgumentError):
            catenary(0.0)

    def test_fit_recovers_symmetric_arc(self):
        alpha, beta = fit_catenary(-1.0, math.cosh(1.0), 1.0, math.cosh(1.0))
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert beta == pytest.approx(0.0, abs=1e-9)

    def test_fit_recovers_shifted_arc(self):
        f = catenary(1.5, 0.4)
        alpha, beta = fit_catenary(-0.5, f(-0.5), 0.8, f(0.8))
        assert alpha == pytest.approx(1.5, abs=1e-7)
        assert beta == pytest.approx(0.4, abs=1e-7)


class TestEulerLagrangeResidual:
    def test_linear_solves_velocity_square(self):
        y = sample(lambda t: t, uniform_mesh(0, 1, 8))
        rep = el_residual(V_SQUARED, y)
        assert rep.max_abs == 0.0

    def test_tent_slopes_are_stationary_for_quartic(self):
        # slopes +/-1 sit at the wells where L_v = 0, so the residual vanishes
        rep = el_residual(catalog("quartic"), plateau_tent(8))
        assert rep.max_abs == 0.0

    def test_catenary_residual_small_and_first_order(self):
        levels = []
        for n in (1000, 2000, 4000):
            y = sample(np.cosh, alternating_mesh(-1.0, 1.0, n))
            levels.append(el_residual(UNIT_SURFACE, y).max_abs)
        assert levels[0] <= 1e-2
        for coarse, fine in zip(levels, levels[1:]):
            assert 0.375 <= fine / coarse <= 0.625  # halves within 25%

    def test_uniform_mesh_superconverges(self):
        # order >= 1 either way; uniform meshes actually gain a factor ~4
        levels = []
        for n in (1000, 2000):
            y = sample(np.cosh, uniform_mesh(-1.0, 1.0, n))
            levels.append(el_residual(UNIT_SURFACE, y).max_abs)
        assert levels[1] <= 0.6 * levels[0]

    def test_needs_three_cells(self):
        y = sample(lambda t: t, uniform_mesh(0, 1, 2))
        with pytest.raises(ArgumentError):
            el_residual(V_SQUARED, y)

    def test_singular_nodes_skipped_and_flagged(self):
        spec = catalog("half_inverse")
        vals = np.array([1.0, 0.5, 0.0, 0.5, 1.0])
        y_mesh = uniform_mesh(0, 1, 4)
        from lavlab import Trajectory
        rep = el_residual(spec, Trajectory(y_mesh, vals))
        assert len(rep.skipped) > 0
        assert all(math.isfinite(r) for _, r in rep.samples)

    def test_finite_difference_partials_skip_singular_nodes(self):
        exact = catalog("half_inverse")
        spec = LagrangianSpec(id="half_inverse_fd", eval=exact.eval,
                              partials=None, autonomous=True,
                              convex_in_v=True, extended=True)
        vals = np.array([1.0, 0.5, 0.0, 0.5, 1.0])
        rep = el_residual(spec, Trajectory(uniform_mesh(0, 1, 4), vals))
        assert len(rep.skipped) > 0
        assert all(math.isfinite(r) for _, r in rep.samples)

    def test_integrand_bug_propagates(self):
        def broken(t, y, v):
            raise TypeError("bug in a user integrand")

        spec = LagrangianSpec(id="broken", eval=broken, partials=None,
                              autonomous=True, convex_in_v=True)
        with pytest.raises(TypeError):
            el_residual(spec, sample(lambda t: t, uniform_mesh(0, 1, 4)))


class TestDuBoisReymondResidual:
    def test_linear_velocity_square_constant(self):
        y = sample(lambda t: t, uniform_mesh(0, 1, 8))
        rep = dbr_residual(V_SQUARED, y)
        assert rep.erdmann_constant == pytest.approx(-1.0, abs=1e-14)
        assert rep.max_abs == 0.0

    def test_catenary_constant_is_inverse_alpha(self):
        y = sample(np.cosh, uniform_mesh(-1.0, 1.0, 4000))
        rep = dbr_residual(UNIT_SURFACE, y)
        assert rep.max_abs <= 1e-3
        assert rep.erdmann_constant == pytest.approx(1.0, abs=1e-3)

    def test_non_autonomous_unsupported(self):
        y = sample(np.cbrt, uniform_mesh(0.1, 1.0, 8))
        with pytest.raises(UnsupportedLagrangianError):
            dbr_residual(catalog("mania"), y)

    def test_sawtooth_not_a_minimizer(self):
        """Negative control: the sawtooth does not satisfy the constancy
        condition.  On its natural mesh every cell midpoint sits at the same
        height, so the deviation must be probed on a refined mesh, where it
        stays bounded away from zero under further refinement (unlike the
        catenary, whose residual shrinks)."""
        spec = catalog("quartic_plus_square")
        y = sawtooth(4).bisected().bisected()
        rep = dbr_residual(spec, y)
        assert rep.max_abs > 1e-3
        rep_finer = dbr_residual(spec, y.bisected())
        assert rep_finer.max_abs > 1e-3
        assert rep_finer.max_abs >= 0.9 * rep.max_abs

    def test_algebraic_form_of_the_constancy_condition(self):
        """Along the catenary y = cosh(t)/alpha the conserved quantity is
        y / sqrt(1 + y'^2) = 1/alpha, i.e. y^2 = c^2 (1 + y'^2); the variant
        y^2 (1 + y'^2) = c^2 does not hold."""
        t = np.linspace(-1, 1, 201)
        alpha = 1.0
        y = np.cosh(alpha * t) / alpha
        dy = np.sinh(alpha * t)
        c = 1.0 / alpha
        assert np.allclose(y ** 2, c ** 2 * (1 + dy ** 2), rtol=1e-12)
        assert not np.allclose(y ** 2 * (1 + dy ** 2), c ** 2, rtol=0.5)


class TestResidualReport:
    def test_samples_and_skipped_are_read_only_arrays(self):
        vals = np.array([1.0, 0.5, 0.0, 0.5, 1.0])
        y = Trajectory(uniform_mesh(0, 1, 4), vals)
        for rep in (el_residual(catalog("half_inverse"), y),
                    dbr_residual(UNIT_SURFACE, sample(np.cosh, uniform_mesh(-1, 1, 8)))):
            assert rep.samples.ndim == 2 and rep.samples.shape[1] == 2
            assert rep.skipped.ndim == 1
            for arr in (rep.samples, rep.skipped):
                with pytest.raises(ValueError):
                    arr[...] = 0.0
        assert len(ResidualReport((), math.nan, 3).samples) == 0

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2)),
                      elements=st.floats()))
    @settings(max_examples=100, deadline=None)
    def test_samples_csv_matches_the_former_row_loop(self, samples):
        rep = ResidualReport(samples, math.nan, 3)
        buf = io.StringIO()
        rep.samples_to_csv(buf)
        former = io.StringIO()
        former.write("t,residual\n")
        for t, r in tuple(tuple(float(v) for v in row) for row in samples):
            former.write(f"{float(t)!r},{float(r)!r}\n")
        assert buf.getvalue() == former.getvalue()
