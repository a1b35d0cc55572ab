import dataclasses
import math

import numpy as np
import pytest

from lavlab import (CATALOG_IDS, ArgumentError, CatalogKeyError,
                    SingularPointError, catalog, convexity_probe,
                    minimal_surface, partial_array, partials,
                    polynomial_lagrangian)

RNG = np.random.default_rng(20260811)

ALL_SPECS = [catalog(i) for i in CATALOG_IDS]


def sample_points(spec, count, rng=RNG):
    (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
    return zip(rng.uniform(t0, t1, count), rng.uniform(y0, y1, count),
               rng.uniform(v0, v1, count))


class TestCatalog:
    def test_unknown_id(self):
        with pytest.raises(CatalogKeyError):
            catalog("nope")

    def test_ids_are_stable(self):
        assert CATALOG_IDS == (
            "brachistochrone", "half_inverse", "mania", "quartic",
            "quartic_plus_square", "sqrt_chain", "surface_of_revolution")

    def test_mania_zero_velocity(self):
        assert catalog("mania").eval(1.0, 1.0, 0.0) == 0.0

    def test_mania_vanishes_along_cuberoot(self):
        spec = catalog("mania")
        for t in [0.1, 0.5, 0.9]:
            assert spec.eval(t, t ** (1 / 3), 7.0) == pytest.approx(0.0, abs=1e-25)

    def test_half_inverse_vanishes_along_sqrt(self):
        spec = catalog("half_inverse")
        for t in [0.04, 0.25, 1.0]:
            assert spec.eval(t, math.sqrt(t), 1 / (2 * math.sqrt(t))) == 0.0

    def test_half_inverse_extended_at_zero(self):
        spec = catalog("half_inverse")
        assert spec.eval(0.5, 0.0, 1.0) == math.inf
        assert spec.eval(0.5, 0.0, -3.0) == math.inf

    def test_brachistochrone_extended_above_height(self):
        spec = catalog("brachistochrone")
        assert spec.eval(0.0, 1.0, 0.5) == math.inf
        assert spec.eval(0.0, 2.0, 0.5) == math.inf
        assert math.isfinite(spec.eval(0.0, 0.5, 0.5))

    def test_surface_includes_area_constant(self):
        spec = catalog("surface_of_revolution")
        assert spec.eval(0.0, 1.0, 0.0) == pytest.approx(2 * math.pi)
        assert minimal_surface(1.0).eval(0.0, 1.0, 0.0) == 1.0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.id)
    def test_nonnegative_on_sample_box(self, spec):
        for t, y, v in sample_points(spec, 1000):
            assert spec.eval(t, y, v) >= 0.0

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.autonomous],
                             ids=lambda s: s.id)
    def test_autonomy_is_exact(self, spec):
        for _, y, v in sample_points(spec, 50):
            assert spec.eval(0.0, y, v) == spec.eval(17.3, y, v)

    def test_flags(self):
        flags = {s.id: (s.autonomous, s.convex_in_v, s.extended) for s in ALL_SPECS}
        assert flags["surface_of_revolution"] == (True, True, False)
        assert flags["sqrt_chain"] == (True, True, False)
        assert flags["brachistochrone"] == (True, True, True)
        assert flags["quartic"] == (True, False, False)
        assert flags["quartic_plus_square"] == (True, False, False)
        assert flags["mania"] == (False, True, False)
        assert flags["half_inverse"] == (True, True, True)


class TestPartials:
    def test_quartic_stationary_at_unit_slope(self):
        _, _, lv = partials(catalog("quartic"), 0.0, 0.3, 1.0)
        assert lv == 0.0

    def test_surface_ly_at_zero_velocity(self):
        _, ly, _ = partials(minimal_surface(1.0), 0.0, 2.0, 0.0)
        assert ly == 1.0

    def test_mania_lv_closed_form_and_fd_cross_check(self):
        spec = catalog("mania")
        _, _, lv = partials(spec, 0.0, 1.0, 1.0)
        assert lv == pytest.approx(6.0, rel=1e-14)
        h = 1e-6
        fd = (spec.eval(0.0, 1.0, 1.0 + h) - spec.eval(0.0, 1.0, 1.0 - h)) / (2 * h)
        assert lv == pytest.approx(fd, rel=1e-8)

    def test_singular_point_raises(self):
        with pytest.raises(SingularPointError):
            partials(catalog("half_inverse"), 0.0, 0.0, 1.0)
        with pytest.raises(SingularPointError):
            partials(catalog("brachistochrone"), 0.0, 1.5, 0.0)

    def test_finite_difference_fallback(self):
        """Specs without closed-form partials fall back to central
        differences with step eps**(1/3) * max(1, |coordinate|)."""
        from lavlab import LagrangianSpec
        spec = LagrangianSpec(id="adhoc", eval=lambda t, y, v: t * y + v * v,
                              partials=None, autonomous=False, convex_in_v=True)
        lt, ly, lv = partials(spec, 2.0, 3.0, 0.5)
        assert lt == pytest.approx(3.0, rel=1e-9)
        assert ly == pytest.approx(2.0, rel=1e-9)
        assert lv == pytest.approx(1.0, rel=1e-9)

    def test_finite_difference_fallback_singular_stencil(self):
        from lavlab import LagrangianSpec

        def ev(t, y, v):
            return math.inf if y <= 0 else 1.0 / y

        spec = LagrangianSpec(id="edge", eval=ev, partials=None,
                              autonomous=True, convex_in_v=False)
        with pytest.raises(SingularPointError):
            partials(spec, 0.0, 1e-9, 0.0)  # stencil crosses the barrier

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.id)
    def test_exact_partials_match_finite_differences(self, spec):
        """Central differences agree with the closed forms to relative 1e-6."""
        eps = np.finfo(float).eps ** (1 / 3)
        for t, y, v in sample_points(spec, 100):
            exact = partials(spec, t, y, v)
            for axis, c in enumerate((t, y, v)):
                h = eps * max(1.0, abs(c))
                args_p = [t, y, v]
                args_m = [t, y, v]
                args_p[axis] = c + h
                args_m[axis] = c - h
                hi, lo = spec.eval(*args_p), spec.eval(*args_m)
                if not (math.isfinite(hi) and math.isfinite(lo)):
                    continue
                fd = (hi - lo) / (2 * h)
                assert exact[axis] == pytest.approx(
                    fd, rel=1e-6, abs=1e-6 * max(1.0, abs(exact[axis])))
        # the same comparison in one array call per axis, through the
        # finite-difference fallback of partial_array
        t, y, v = np.array(list(sample_points(spec, 100))).T
        no_partials = dataclasses.replace(spec, partials=None)
        for axis in range(3):
            exact = partial_array(spec, axis, t, y, v)
            fd = partial_array(no_partials, axis, t, y, v)
            assert fd.shape == exact.shape == t.shape
            assert np.all(np.isfinite(fd))
            tol = np.maximum(1e-6 * np.abs(fd), 1e-6 * np.maximum(1.0, np.abs(exact)))
            assert np.all(np.abs(exact - fd) <= tol)

    def test_finite_difference_array_nan_exactly_at_singular_points(self):
        spec = dataclasses.replace(catalog("half_inverse"), partials=None)
        y = np.array([-1.0, 0.0, 0.5, 1e-3, 0.0, 2.0])
        for axis in range(3):
            d = partial_array(spec, axis, 0.3, y, 1.0)
            assert np.array_equal(np.isnan(d), y == 0.0)
            assert np.all(np.isfinite(d[y != 0.0]))

    def test_finite_difference_array_nan_where_stencil_crosses_barrier(self):
        """A finite centre with an infinite stencil sample is NaN, not inf."""
        from lavlab import LagrangianSpec

        def ev(t, y, v):
            y = np.asarray(y, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(y > 0, 1.0 / y, np.inf)

        spec = LagrangianSpec(id="edge", eval=ev, partials=None,
                              autonomous=True, convex_in_v=False)
        d = partial_array(spec, 1, 0.0, np.array([1e-12, 1.0]), 0.0)
        assert math.isnan(d[0])
        assert d[1] == pytest.approx(-1.0, rel=1e-9)


class TestConvexityProbe:
    def test_half_inverse_quadratic_in_v(self):
        assert convexity_probe(catalog("half_inverse"), 1.0, np.arange(-2.0, 2.5, 0.5))

    def test_quartic_double_well_detected(self):
        assert not convexity_probe(catalog("quartic"), 0.0, np.linspace(-1.5, 1.5, 25))

    def test_surface_convex_at_positive_height(self):
        grid = np.linspace(-3, 3, 41)
        assert convexity_probe(catalog("surface_of_revolution"), 1.0, grid)
        # independent check: second derivative of sqrt(1+v^2) is positive
        v = np.linspace(-3, 3, 100)
        d2 = (1 + v ** 2) ** -1.5
        assert np.all(d2 > 0)

    def test_mania_convex_flag_confirmed(self):
        spec = catalog("mania")
        assert spec.convex_in_v
        grid = np.linspace(-2, 2, 41)
        for t in [0.0, 0.4, 1.0]:
            for y in [-1.0, 0.2, 1.3]:
                assert convexity_probe(spec, y, grid, t=t)

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.convex_in_v],
                             ids=lambda s: s.id)
    def test_convex_flag_holds_on_sample_box(self, spec):
        (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
        grid = np.linspace(v0, v1, 33)
        for t in np.linspace(t0, t1, 3):
            for y in np.linspace(y0, y1, 7):
                assert convexity_probe(spec, float(y), grid, t=float(t))

    def test_non_finite_grid_rejected(self):
        with pytest.raises(ArgumentError):
            convexity_probe(catalog("half_inverse"), 0.0, [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("spec", ALL_SPECS + [polynomial_lagrangian([[1, 0, 0, 1]])],
                             ids=lambda s: s.id)
    def test_matches_pointwise_chord_loop(self, spec):
        """The whole-grid chord test decides as a triple-by-triple loop on
        scalar evaluations does, on uneven grids (a linear L sits on the
        tolerance)."""
        def reference(y, grid, t):
            f = [float(spec.eval(t, y, v)) for v in grid]
            for i in range(len(grid) - 2):
                (v1, v2, v3), (f1, f2, f3) = grid[i:i + 3], f[i:i + 3]
                chord = (f1 * (v3 - v2) + f3 * (v2 - v1)) / (v3 - v1)
                if f2 > chord + 1e-12 * max(1.0, abs(f1), abs(f2), abs(f3)):
                    return False
            return True

        _, _, (v0, v1) = spec.sample_box
        for t, y, _ in sample_points(spec, 6):
            grid = np.sort(RNG.uniform(v0, v1, 30))
            assert convexity_probe(spec, y, grid, t=t) == reference(y, grid, t)


class TestPolynomialLagrangian:
    def test_velocity_square(self):
        spec = polynomial_lagrangian([[1, 0, 0, 2]])
        assert spec.eval(0.3, 5.0, 2.0) == 4.0
        assert spec.autonomous
        assert spec.convex_in_v

    def test_rational_coefficients(self):
        spec = polynomial_lagrangian([["3/4", 0, 2, 0], [1, 1, 0, 1]])
        assert spec.eval(2.0, 2.0, 0.5) == pytest.approx(0.75 * 4 + 2 * 0.5)
        assert not spec.autonomous

    def test_termwise_partials(self):
        spec = polynomial_lagrangian([[2, 1, 2, 3]])
        lt, ly, lv = partials(spec, 2.0, 3.0, 0.5)
        assert lt == pytest.approx(2 * 3 ** 2 * 0.5 ** 3)
        assert ly == pytest.approx(2 * 2 * 2 * 3 * 0.5 ** 3)
        assert lv == pytest.approx(2 * 3 * 2 * 3 ** 2 * 0.5 ** 2)

    def test_double_well_flagged_nonconvex(self):
        # (v^2-1)^2 = v^4 - 2 v^2 + 1
        spec = polynomial_lagrangian([[1, 0, 0, 4], [-2, 0, 0, 2], [1, 0, 0, 0]])
        assert not spec.convex_in_v

    def test_bad_terms_rejected(self):
        with pytest.raises(ArgumentError):
            polynomial_lagrangian([])
        with pytest.raises(ArgumentError):
            polynomial_lagrangian([[1, -1, 0, 0]])
