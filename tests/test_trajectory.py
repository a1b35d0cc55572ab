import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lavlab import (ArgumentError, ContractError, DomainError, Mesh,
                    MonotoneMap, SamplingError, Trajectory, graded_mesh,
                    push_through_inverse, sample, uniform_mesh)
from lavlab.trajectory import graded_family

from conftest import random_trajectory


class TestMesh:
    def test_rejects_non_increasing_nodes(self):
        with pytest.raises(ArgumentError):
            Mesh(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ArgumentError):
            Mesh(np.array([0.0]))
        with pytest.raises(ArgumentError):
            Mesh(np.array([0.0, np.inf]))

    def test_graded_mesh_formula(self):
        assert np.array_equal(graded_mesh(0, 1, 2, 1.0).nodes, [0.0, 0.5, 1.0])
        assert np.allclose(graded_mesh(0, 1, 4, 2.0).nodes,
                           [0.0, 1 / 16, 1 / 4, 9 / 16, 1.0], rtol=0, atol=1e-15)

    def test_graded_family_doubles_from_64_then_ends_at_n(self):
        sizes = lambda n: [m.n_cells for m in graded_family(0, 1, n, 2.0)]
        assert sizes(300) == [64, 128, 256, 300]
        assert sizes(256) == [64, 128, 256]
        assert sizes(10) == [10]
        last = list(graded_family(0.5, 2.0, 300, 3.0))[-1]
        assert np.array_equal(last.nodes, graded_mesh(0.5, 2.0, 300, 3.0).nodes)

    def test_graded_mesh_resolves_left_endpoint(self):
        mesh = graded_mesh(0, 1, 10, 3.0)
        assert mesh.nodes[1] == pytest.approx(1e-3)

    def test_graded_mesh_rejects_bad_args(self):
        with pytest.raises(ArgumentError):
            graded_mesh(0, 1, 0, 1.0)
        with pytest.raises(ArgumentError):
            graded_mesh(0, 1, 4, 0.5)

    def test_endpoints_exact_even_for_awkward_intervals(self):
        mesh = graded_mesh(0.1, 0.3, 7, 2.5)
        assert mesh.a == 0.1
        assert mesh.b == 0.3

    def test_bisected_interleaves_midpoints(self):
        mesh = Mesh(np.array([0.0, 1.0, 4.0]))
        assert np.array_equal(mesh.bisected().nodes, [0.0, 0.5, 1.0, 2.5, 4.0])


class TestTrajectoryEval:
    def test_linear_interpolation(self):
        y = Trajectory(Mesh(np.array([0.0, 1.0])), np.array([0.0, 1.0]))
        assert y.eval(0.5) == 0.5

    def test_nodal_exactness_sqrt(self):
        mesh = Mesh(np.array([0.0, 0.25, 1.0]))
        y = sample(np.sqrt, mesh)
        assert y.eval(0.25) == 0.5

    def test_nodal_exactness_on_graded_mesh(self):
        mesh = graded_mesh(0, 1, 10, 3.0)
        y = sample(np.cbrt, mesh)
        for t, v in zip(mesh.nodes, y.values):
            assert y.eval(float(t)) == v

    def test_domain_error_outside_interval(self):
        y = Trajectory(Mesh(np.array([0.0, 1.0])), np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            y.eval(-0.1)
        with pytest.raises(DomainError):
            y.eval(1.1)


class TestCellDerivatives:
    def test_single_cell(self):
        y = Trajectory(Mesh(np.array([0.0, 1.0])), np.array([0.0, 1.0]))
        assert np.array_equal(y.cell_derivatives(), [1.0])

    def test_sawtooth_alternates(self):
        from lavlab import sawtooth
        d = sawtooth(4).cell_derivatives()
        assert np.array_equal(d, [1.0, -1.0] * 4)

    def test_sqrt_ramp_coarse_slopes(self):
        from lavlab import sqrt_ramp
        n = 100
        y = sqrt_ramp(n, tail_cells=1)
        d = y.cell_derivatives()
        assert d[0] == pytest.approx(np.sqrt(n), rel=1e-14)
        assert d[1] == pytest.approx((1 - n ** -0.5) / (1 - 1 / n), rel=1e-14)
        assert y.lipschitz_constant == pytest.approx(10.0)


class TestSample:
    def test_identity(self):
        mesh = graded_mesh(0, 1, 5, 2.0)
        y = sample(lambda t: t, mesh)
        assert np.array_equal(y.values, mesh.nodes)

    def test_cuberoot_on_uniform_two_cells(self):
        y = sample(np.cbrt, uniform_mesh(0, 1, 2))
        assert np.allclose(y.values, [0.0, 0.5 ** (1 / 3), 1.0], rtol=1e-15)

    def test_catenary_samples(self):
        from lavlab import catenary
        f = catenary(2.0, 0.0)
        y = sample(f, uniform_mesh(-1, 1, 4))
        assert y.eval(0.0) == pytest.approx(0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(SamplingError):
            sample(lambda t: np.where(t == 0, np.nan, t), uniform_mesh(0, 1, 2))

    @given(st.integers(min_value=1, max_value=40), st.floats(1.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_sample_then_eval_is_identity_at_nodes(self, n, power):
        mesh = graded_mesh(0.0, 2.0, n, power)
        y = sample(np.cos, mesh)
        out = y.eval(mesh.nodes)
        assert np.array_equal(out, y.values)


class TestMonotoneMap:
    def test_identity_map(self):
        mesh = uniform_mesh(0, 1, 4)
        phi = MonotoneMap.identity(mesh)
        assert phi.is_endpoint_exact
        assert np.allclose(phi.image_nodes, mesh.nodes, rtol=0, atol=1e-15)

    def test_rejects_nonpositive_speeds(self):
        mesh = uniform_mesh(0, 1, 2)
        with pytest.raises(ArgumentError):
            MonotoneMap(mesh, np.array([1.0, 0.0]))

    def test_endpoint_defect(self):
        mesh = uniform_mesh(0, 1, 2)
        phi = MonotoneMap(mesh, np.array([2.0, 2.0 / 3.0]))
        assert phi.image_nodes[1] == pytest.approx(1.0)
        assert phi.endpoint_defect == pytest.approx(1.0 / 3.0)
        assert not phi.is_endpoint_exact


class TestPushThroughInverse:
    def test_identity_speeds_leave_trajectory_unchanged(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 8, 2.0))
        out = push_through_inverse(y, MonotoneMap.identity(y.mesh))
        assert np.array_equal(out.values, y.values)
        assert np.allclose(out.mesh.nodes, y.mesh.nodes, rtol=0, atol=1e-15)

    def test_not_endpoint_exact_rejected(self):
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([0.0, 1.0, 2.0]))
        phi = MonotoneMap(y.mesh, np.array([2.0, 2.0 / 3.0]))
        with pytest.raises(ContractError):
            push_through_inverse(y, phi)

    def test_mesh_mismatch_rejected(self):
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([0.0, 1.0, 2.0]))
        phi = MonotoneMap.identity(uniform_mesh(0, 1, 3))
        with pytest.raises(ContractError):
            push_through_inverse(y, phi)

    def test_hand_composed_two_cell_example(self):
        # slopes (3, 1) on equal cells, speeds (3/2, 1/2): endpoint exact,
        # output slopes both 2, boundary values preserved
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([0.0, 1.5, 2.0]))
        phi = MonotoneMap(y.mesh, np.array([1.5, 0.5]))
        assert phi.is_endpoint_exact
        out = push_through_inverse(y, phi)
        assert np.allclose(out.mesh.nodes, [0.0, 0.75, 1.0])
        assert np.allclose(out.cell_derivatives(), [2.0, 2.0])
        assert out.boundary == y.boundary

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_push_preserves_boundary_and_variation(self, seed):
        rng = np.random.default_rng(seed)
        y = random_trajectory(rng)
        speeds = rng.uniform(0.5, 2.0, size=y.mesh.n_cells)
        # close the map so it is endpoint-exact
        widths = y.mesh.widths
        speeds *= (y.mesh.b - y.mesh.a) / float(np.dot(speeds, widths))
        phi = MonotoneMap(y.mesh, speeds)
        if not phi.is_endpoint_exact:
            return
        out = push_through_inverse(y, phi)
        assert out.values[0] == y.values[0]
        assert out.values[-1] == y.values[-1]
        assert out.total_variation() == pytest.approx(y.total_variation(), rel=0, abs=0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_speed_floor_bounds_output_slopes(self, seed):
        rng = np.random.default_rng(seed)
        y = random_trajectory(rng)
        speeds = rng.uniform(0.5, 3.0, size=y.mesh.n_cells)
        widths = y.mesh.widths
        speeds *= (y.mesh.b - y.mesh.a) / float(np.dot(speeds, widths))
        if np.min(speeds) < 0.5:
            return
        phi = MonotoneMap(y.mesh, speeds)
        if not phi.is_endpoint_exact:
            return
        out = push_through_inverse(y, phi)
        assert out.lipschitz_constant <= 2.0 * y.lipschitz_constant * (1 + 1e-12)


# Float texts that read back to exactly the float they were made from.
EXACT_FORMATS = [repr, "{:.17g}".format, "{:.16E}".format, "{:+.17e}".format]
# Any float text that float() reads, exact or not.
NUMBER_TEXTS = (
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from(EXACT_FORMATS).map(lambda f: f(x)))
    | st.floats(-1e300, 1e300).flatmap(  # rounded text, still finite
        lambda x: st.sampled_from(["{:.3e}".format, "{:f}".format]).map(lambda f: f(x)))
    | st.sampled_from(["1e+16", "1E-5", "-0.0", "5e-324", "4.9406564584124654e-324",
                       "2.2250738585072009e-308", "1.7976931348623157e308", "-7",
                       " 3.5 ", "0.1000000000000000055511151231257827"]))


class TestSerialization:
    def test_csv_round_trip(self):
        y = sample(np.sqrt, graded_mesh(0, 1, 7, 2.0))
        buf = io.StringIO(y.to_csv_text())
        back = Trajectory.from_csv(buf)
        assert np.array_equal(back.mesh.nodes, y.mesh.nodes)
        assert np.array_equal(back.values, y.values)

    def test_csv_has_header_and_full_precision(self):
        y = Trajectory(Mesh(np.array([0.0, 1.0 / 3.0, 1.0])),
                       np.array([0.0, 2.0 / 3.0, 1.0]))
        text = y.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,y"
        assert lines[1].split(",")[0] == "0.0"
        assert float(lines[2].split(",")[1]) == 2.0 / 3.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=12, unique=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_csv_parses_like_float(self, ts, data):
        t_texts = [data.draw(st.sampled_from(EXACT_FORMATS))(t) for t in sorted(ts)]
        y_texts = data.draw(st.lists(NUMBER_TEXTS, min_size=len(ts), max_size=len(ts)))
        body = "".join(f"{t},{y}\n" for t, y in zip(t_texts, y_texts))
        back = Trajectory.from_csv(io.StringIO("t,y\n" + body))
        for got, texts in ((back.mesh.nodes, t_texts), (back.values, y_texts)):
            want = np.array([float(x) for x in texts])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=12, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_to_csv_matches_the_former_row_loop(self, ts, data):
        ys = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(ts), max_size=len(ts)))
        y = Trajectory(Mesh(np.array(sorted(ts))), np.array(ys))
        buf = io.StringIO()
        buf.write("t,y\n")
        for t, v in zip(y.mesh.nodes, y.values):
            buf.write(f"{float(t)!r},{float(v)!r}\n")
        assert y.to_csv_text() == buf.getvalue()

    def test_json_round_trip(self):
        y = sample(np.cbrt, graded_mesh(0, 1, 5, 3.0))
        back = Trajectory.from_json_dict(y.to_json_dict())
        assert np.array_equal(back.values, y.values)
