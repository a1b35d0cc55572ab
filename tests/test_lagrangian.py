import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from lavlab import (CATALOG_IDS, ArgumentError, CatalogKeyError, LagrangianSpec, ReparInput,
                    UnsupportedLagrangianError, brachistochrone_problem, catalog,
                    convexity_probe, dbr_residual, el_residual, energy, lemma_P,
                    minimal_surface, minimize_bounded, polynomial_lagrangian, sample,
                    uniform_mesh)
from lavlab.lagrangian import jet

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


def central_difference(spec, axis, t, y, v):
    """The central difference of L along coordinate `axis` of (t, y, v),
    1 for y and 2 for v, with step eps**(1/3) * max(1, |coordinate|),
    at broadcast points; non-finite where a stencil sample is."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, y, v)))
    h = np.finfo(float).eps ** (1 / 3) * np.maximum(1.0, np.abs(args[axis]))
    up, down = list(args), list(args)
    up[axis], down[axis] = args[axis] + h, args[axis] - h
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return (np.asarray(spec.eval(*up), dtype=float)
                - np.asarray(spec.eval(*down), dtype=float)) / (2.0 * h)


class TestPartials:
    def test_quartic_stationary_at_unit_slope(self):
        lv = float(jet(catalog("quartic"), 0.0, 0.3, 1.0)[2])
        assert lv == 0.0

    def test_surface_ly_at_zero_velocity(self):
        ly = float(jet(minimal_surface(1.0), 0.0, 2.0, 0.0)[1])
        assert ly == 1.0

    def test_mania_lv_closed_form_and_fd_cross_check(self):
        spec = catalog("mania")
        lv = float(jet(spec, 0.0, 1.0, 1.0)[2])
        assert lv == pytest.approx(6.0, rel=1e-14)
        h = 1e-6
        fd = (spec.eval(0.0, 1.0, 1.0 + h) - spec.eval(0.0, 1.0, 1.0 - h)) / (2 * h)
        assert lv == pytest.approx(fd, rel=1e-8)

    def test_singular_point_is_not_finite(self):
        for spec, y, v in ((catalog("half_inverse"), 0.0, 1.0),
                           (catalog("brachistochrone"), 1.5, 0.0)):
            for axis in (1, 2):
                assert not math.isfinite(float(jet(spec, 0.0, y, v)[axis]))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.id)
    def test_exact_partials_match_finite_differences(self, spec):
        """Central differences agree with the closed forms to relative 1e-6,
        point by point and in one array call per axis."""
        for t, y, v in sample_points(spec, 100):
            for axis in (1, 2):
                exact = float(jet(spec, t, y, v)[axis])
                fd = float(central_difference(spec, axis, t, y, v))
                if not math.isfinite(fd):
                    continue
                assert exact == pytest.approx(
                    fd, rel=1e-6, abs=1e-6 * max(1.0, abs(exact)))
        t, y, v = np.array(list(sample_points(spec, 100))).T
        got = jet(spec, t, y, v)
        for axis in (1, 2):
            exact, fd = got[axis], central_difference(spec, axis, t, y, v)
            assert fd.shape == exact.shape == t.shape
            assert np.all(np.isfinite(fd))
            tol = np.maximum(1e-6 * np.abs(fd), 1e-6 * np.maximum(1.0, np.abs(exact)))
            assert np.all(np.abs(exact - fd) <= tol)


EVAL_ONLY = LagrangianSpec(id="eval_only", eval=catalog("sqrt_chain").eval, partials=None,
                           autonomous=True, convex_in_v=True)


class TestNoDerivatives:
    """A spec that states neither partials nor a jet has no derivatives:
    every reader of L_y or L_v refuses it, and nothing falls back on a
    numerical derivative."""

    @pytest.mark.parametrize("read", [
        lambda spec: jet(spec, 0.5, 1.0, 0.5),
        lambda spec: el_residual(spec, sample(np.sqrt, uniform_mesh(0.1, 1, 8))),
        lambda spec: dbr_residual(spec, sample(np.sqrt, uniform_mesh(0.1, 1, 8))),
        lambda spec: minimize_bounded(spec, uniform_mesh(0, 1, 8), [2.0], (0.0, 1.0),
                                      restarts=0),
        lambda spec: lemma_P(spec, 1.0, [-1.0, 1.0]),
    ], ids=["jet", "el_residual", "dbr_residual", "minimize_bounded", "lemma_P"])
    def test_a_derivative_reader_raises(self, read):
        with pytest.raises(UnsupportedLagrangianError, match="eval_only: .*no derivatives"):
            read(EVAL_ONLY)

    def test_energy_and_repar_read_no_derivative(self):
        y = sample(np.sqrt, uniform_mesh(0.0, 1.0, 16))
        assert energy(EVAL_ONLY, y).value == energy(catalog("sqrt_chain"), y).value
        capped, reference = (ReparInput.of(spec, y).cap(2.0)
                             for spec in (EVAL_ONLY, catalog("sqrt_chain")))
        assert capped.changed_cells > 0
        assert (capped.energy_before, capped.energy_after) == (
            reference.energy_before, reference.energy_after)


def optimizer_grid(spec, rng, rows=3, cells=7, order=5):
    """Points in the spec's sample box laid out as the slope optimizer lays
    out its samples: t (order, 1, cells), y (order, rows, cells) and one
    slope per cell, v (1, rows, cells)."""
    (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
    return (rng.uniform(t0, t1, (order, 1, cells)), rng.uniform(y0, y1, (order, rows, cells)),
            rng.uniform(v0, v1, (1, rows, cells)))


def eval_and_partials(spec, t, y, v):
    """`eval`, then L_y and L_v from the spec's partials, or from its own jet
    where it states only that."""
    partials = ([f(t, y, v) for f in spec.partials] if spec.partials is not None
                else spec.jet(t, y, v)[1:])
    return tuple(np.asarray(a, dtype=float) for a in (spec.eval(t, y, v), *partials))


JET_SPECS = ALL_SPECS + [
    polynomial_lagrangian([[1, 1, 2, 2], ["3/4", 0, 3, 1], [2, 0, 0, 4]], "polynomial")]


class TestJet:
    def test_mania_has_its_own_jet(self):
        assert catalog("mania").jet is not None

    @pytest.mark.parametrize("spec", JET_SPECS, ids=lambda s: s.id)
    def test_equals_eval_and_partials_bit_for_bit(self, spec):
        t, y, v = optimizer_grid(spec, np.random.default_rng(31))
        got = jet(spec, t, y, v)
        for a, b in zip(got, eval_and_partials(spec, t, y, v), strict=True):
            assert a.shape == b.shape == y.shape
            assert np.all(np.isfinite(a))
            assert np.array_equal(a, b)
        point = next(iter(sample_points(spec, 1)))
        for a, b in zip(jet(spec, *point), eval_and_partials(spec, *point), strict=True):
            assert a.shape == () and a == b

    @pytest.mark.parametrize("spec", [s for s in JET_SPECS if s.extended], ids=lambda s: s.id)
    def test_singular_points_stay_infinite(self, spec):
        # brachistochrone is singular for y >= 1, half_inverse at y = 0
        t, y, v = optimizer_grid(spec, np.random.default_rng(37))
        singular = np.random.default_rng(41).random(y.shape) < 0.3
        y[singular] = 1.0 if spec.id.startswith("brachistochrone") else 0.0
        got = jet(spec, t, y, v)
        assert np.all(got[0][singular] == np.inf)
        assert np.all(np.isfinite(got[0][~singular]))
        for a, b in zip(got, eval_and_partials(spec, t, y, v), strict=True):
            assert np.array_equal(a, b, equal_nan=True)
        assert not any(np.isnan(a).any() for a in got)


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
        _, ly, lv = (float(a) for a in jet(spec, 2.0, 3.0, 0.5))
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


# -- the hand-guarded formulas the catalog had before its one guard --------


def reference_brachistochrone(height):
    def ev(t, y, v):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            root = np.sqrt(np.maximum(height - y, 0.0))
            val = np.where(y < height, np.sqrt(1.0 + v * v) / np.where(root > 0, root, 1.0), np.inf)
        return val if val.ndim else float(val)

    def _guard(y, raw):
        y = np.asarray(y, dtype=float)
        out = np.where(y < height, raw, np.inf)
        return out if out.ndim else float(out)

    def ly(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            raw = 0.5 * np.sqrt(1.0 + v * v) * np.where(
                y_arr < height, np.maximum(height - y_arr, np.finfo(float).tiny) ** -1.5, 1.0)
        return _guard(y, raw)

    def lv(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            root = np.sqrt(np.maximum(height - y_arr, np.finfo(float).tiny))
            raw = v / np.sqrt(1.0 + v * v) / root
        return _guard(y, raw)

    return ev, ly, lv


def reference_half_inverse():
    def ev(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = v - 1.0 / (2.0 * y_arr)
            val = np.where(y_arr != 0.0, r * r, np.inf)
        return val if val.ndim else float(val)

    def ly(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = v - 1.0 / (2.0 * y_arr)
            raw = r / (y_arr * y_arr)
            val = np.where(y_arr != 0.0, raw, np.inf)
        return val if val.ndim else float(val)

    def lv(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = np.where(y_arr != 0.0, 2.0 * (v - 1.0 / (2.0 * y_arr)), np.inf)
        return val if val.ndim else float(val)

    return ev, ly, lv


def reference_polynomial(parsed):
    def ev(t, y, v):
        t = np.asarray(t, dtype=float)
        total = np.zeros(np.broadcast(t, y, v).shape)
        for c, i, j, k in parsed:
            total = total + c * t**i * np.asarray(y, dtype=float)**j * np.asarray(v, dtype=float)**k
        return total if total.ndim else float(total)

    def _diff(axis: int):
        def d(t, y, v):
            t = np.asarray(t, dtype=float)
            total = np.zeros(np.broadcast(t, y, v).shape)
            for c, i, j, k in parsed:
                p = (i, j, k)[axis]
                if p == 0:
                    continue
                e = [i, j, k]
                e[axis] -= 1
                total = total + c * p * t**e[0] * np.asarray(y, dtype=float)**e[1] \
                    * np.asarray(v, dtype=float)**e[2]
            return total if total.ndim else float(total)
        return d

    return ev, _diff(1), _diff(2)


def reference_zero(t, y, v):
    return np.zeros_like(np.asarray(t, dtype=float) + y + v)


def reference_quartic_plus_square_lv(t, y, v):
    return 4.0 * v * (v * v - 1.0) + 0.0 * y


POLYNOMIAL_TERMS = (
    [[1, 1, 2, 2], ["3/4", 0, 3, 1], [2, 0, 0, 4]],
    [[1, 0, 0, 4], [-2, 0, 0, 2], [1, 0, 0, 0]],
    [["-5/3", 3, 0, 1], [0.1, 0, 1, 0], ["1/3", 2, 2, 3], [7, 0, 5, 0]],
)

# brachistochrone at height 0 puts subnormal depths 0 - y in reach
REFERENCE_CASES = (
    [(f"brachistochrone@{h}", brachistochrone_problem(h), reference_brachistochrone(h))
     for h in (1.0, 0.0, 2.5)]
    + [("half_inverse", catalog("half_inverse"), reference_half_inverse())]
    + [(f"polynomial{n}", polynomial_lagrangian(terms),
        reference_polynomial([(float(Fraction(c)) if isinstance(c, str) else float(c), i, j, k)
                              for c, i, j, k in terms]))
       for n, terms in enumerate(POLYNOMIAL_TERMS)]
    + [("quartic_ly", dataclasses.replace(catalog("quartic"), eval=catalog("quartic").partials[0],
                                          partials=None), (reference_zero,)),
       ("quartic_plus_square_lv",
        dataclasses.replace(catalog("quartic_plus_square"),
                            eval=catalog("quartic_plus_square").partials[1], partials=None),
        (reference_quartic_plus_square_lv,))]
)

SINGULAR_Y = (0.0, 1.0, 1.0 - 1e-310, -1e-310, -5e-324, 5e-324, 1e-310, 2.5, 2.5 - 4e-16,
              3.0, math.inf, -math.inf, math.nan)


class TestReferenceBits:
    """The catalog's guarded and polynomial integrands and partials have the
    bits, NaNs and result types of the formulas each used to write out."""

    @staticmethod
    def functions(spec):
        return (spec.eval,) + tuple(spec.partials or ())

    @staticmethod
    def quiet(spec):
        """inf and NaN points make a polynomial warn, and a guarded spec never."""
        return np.errstate() if spec.extended else np.errstate(invalid="ignore", over="ignore")

    @pytest.mark.parametrize("name,spec,reference", REFERENCE_CASES,
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_arrays_with_singular_points(self, name, spec, reference):
        rng = np.random.default_rng(53)
        (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
        t = rng.uniform(t0, t1, (5, 1, 400))
        y = rng.uniform(y0, y1, (5, 3, 400))
        y.flat[:len(SINGULAR_Y) * 7:7] = SINGULAR_Y
        v = rng.uniform(v0, v1, (1, 3, 400))
        v.flat[[3, 11, 29]] = (0.0, math.inf, math.nan)
        for points in ((t, y, v), (t[:, 0], y[:, 0], 0.5), (0.3, y, v[0, 0])):
            for f, g in zip(self.functions(spec), reference, strict=True):
                with self.quiet(spec):
                    got, want = f(*points), g(*points)
                assert type(got) is type(want) is np.ndarray
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("name,spec,reference", REFERENCE_CASES,
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_scalars(self, name, spec, reference):
        rng = np.random.default_rng(59)
        (t0, t1), _, (v0, v1) = spec.sample_box
        for y in SINGULAR_Y + tuple(rng.uniform(-3.0, 3.0, 20)):
            for t, v in ((0.0, 0.0), (float(rng.uniform(t0, t1)), float(rng.uniform(v0, v1))),
                         (1.0, math.inf)):
                for f, g in zip(self.functions(spec), reference, strict=True):
                    with self.quiet(spec):
                        got, want = f(t, float(y), v), g(t, float(y), v)
                    # as every reference but quartic's old L_y, which gave a 0-d array
                    assert type(got) is float
                    assert np.array_equal(got, want, equal_nan=True)
