import dataclasses
import io
import math
import os
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lavlab import (ArgumentError, ConsistencyError, DomainError, InfeasibleError,
                    Mesh, SamplingError, Trajectory, choose_lambda,
                    classify, graded_mesh, polynomial_lagrangian, reparametrize,
                    sample, select_A, uniform_mesh)
from lavlab import trajectory
from lavlab.repar import _closure, _image_blocks
from lavlab.trajectory import endpoint_exact, graded_family, positive_speeds, running_sum

from conftest import random_trajectory

V_SQUARED = polynomial_lagrangian([[1, 0, 0, 2]])

WIDTHS_NOT_FINITE = "mesh cell widths must be finite"
WIDE = [-9.9792015476736e+291, 1.7976931348623157e+308]  # finite, more than the largest float apart


def overflows(nodes):
    """Whether some pair of neighbouring nodes lies more than the largest
    float apart."""
    return any(math.isinf(b - a) for a, b in zip(nodes, nodes[1:]))


class TestMesh:
    def test_rejects_non_increasing_nodes(self):
        with pytest.raises(ArgumentError):
            Mesh(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ArgumentError):
            Mesh(np.array([0.0]))
        with pytest.raises(ArgumentError):
            Mesh(np.array([0.0, np.inf]))

    def test_rejects_finite_nodes_whose_width_overflows(self):
        # np.diff of these finite nodes is +inf, which `> 0` lets through
        assert overflows(WIDE)
        with pytest.raises(ArgumentError, match=WIDTHS_NOT_FINITE):
            Mesh(np.array(WIDE))
        body = "".join(f"{t!r},{y}\n" for t, y in zip(WIDE, (0, 1)))
        with pytest.raises(ArgumentError, match=WIDTHS_NOT_FINITE):
            Trajectory.from_csv(io.StringIO("t,y\n" + body))

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

    def test_widths_are_the_validation_diff_read_only(self):
        nodes = np.array([0.0, 0.1, 0.30000000000000004, 0.7, 1.0])
        widths = Mesh(nodes).widths
        assert np.array_equal(widths.view(np.int64), np.diff(nodes).view(np.int64))
        assert not widths.flags.writeable

    def test_bisected_interleaves_midpoints(self):
        mesh = Mesh(np.array([0.0, 1.0, 4.0]))
        assert np.array_equal(mesh.bisected().nodes, [0.0, 0.5, 1.0, 2.5, 4.0])

    @pytest.mark.parametrize("nodes, bisected", [
        ([0.0, 0.5, 0.5000000000000001, 1.0], [0.0, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0]),
        ([0.0, 5e-324, 1.0], [0.0, 5e-324, 0.5, 1.0]),
        ([1.0, 1.0000000000000002], [1.0, 1.0000000000000002]),
    ])
    def test_bisected_keeps_a_cell_one_ulp_wide_whole(self, nodes, bisected):
        """Such a cell's midpoint rounds onto a node, so it stays whole,
        and the trajectory on it keeps its values there."""
        mesh = Mesh(np.array(nodes))
        assert mesh.bisected().nodes.tolist() == bisected
        y = Trajectory(mesh, 2.0 * mesh.nodes)
        assert y.bisected().mesh.nodes.tolist() == bisected
        assert y.bisected().values.tolist() == [2.0 * t for t in bisected]

    def test_bisected_splits_near_the_largest_float(self):
        """Each mean is halved before it is summed, so neighbours near +-max
        float split, with no overflow warning, at the correctly rounded mean."""
        big = np.finfo(float).max
        y = Trajectory(uniform_mesh(0, 3, 3), np.array([0.9 * big, big, -big, -0.95 * big]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for coarse, fine in ((np.array([1e308, 1.7e308]),
                                  Mesh(np.array([1e308, 1.7e308])).bisected().nodes),
                                 (y.values, y.bisected().values)):
                mean = [float((Fraction(p) + Fraction(q)) / 2)
                        for p, q in zip(coarse[:-1], coarse[1:])]
                assert fine[0::2].tolist() == coarse.tolist()
                assert fine[1::2].tolist() == mean

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bisected_interleaves_when_every_midpoint_is_inside(self, seed):
        y = random_trajectory(np.random.default_rng(seed), lo=-4, hi=4, max_cells=64)
        fine = y.bisected()
        for coarse, got in ((y.mesh.nodes, fine.mesh.nodes), (y.values, fine.values)):
            want = np.empty(2 * coarse.size - 1)
            want[0::2], want[1::2] = coarse, (coarse[:-1] + coarse[1:]) / 2.0
            assert got.tobytes() == want.tobytes()


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

    def test_a_slope_too_steep_for_a_float_is_inf(self):
        """Rise 10 over 5e-324 overflows to +inf, with no numpy warning."""
        y = Trajectory(Mesh(np.array([0.0, 5e-324, 1.0])), np.array([0.0, 10.0, 0.0]))
        assert y.cell_derivatives().tolist() == [np.inf, -10.0]
        assert y.lipschitz_constant == np.inf

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
    """The sums and checks of a time change phi that runs each cell at a
    speed: phi(t_i) = a plus the running sums of speeds * widths,
    `positive_speeds` and `endpoint_exact`."""

    def test_identity_map(self):
        mesh = uniform_mesh(0, 1, 4)
        image = mesh.a + running_sum(mesh.widths)
        assert endpoint_exact(image, mesh.a, mesh.b)
        assert np.allclose(image, mesh.nodes, rtol=0, atol=1e-15)

    def test_rejects_nonpositive_speeds(self):
        with pytest.raises(ArgumentError, match="positive"):
            positive_speeds(np.array([1.0, 0.0]))
        with pytest.raises(ArgumentError, match="finite"):
            positive_speeds(np.array([1.0, np.inf]))

    def test_endpoint_defect(self):
        mesh = uniform_mesh(0, 1, 2)
        image = mesh.a + running_sum(np.array([2.0, 2.0 / 3.0]) * mesh.widths)
        assert image[1] == pytest.approx(1.0)
        assert image[-1] - mesh.b == pytest.approx(1.0 / 3.0)
        assert not endpoint_exact(image, mesh.a, mesh.b)


def random_cap(rng: np.random.Generator):
    """A random trajectory y and its cap at a random k between lambda and
    Lip(y), or None where k is infeasible."""
    y = random_trajectory(rng, lo=-1.0, hi=1.0)
    lam = choose_lambda(y)
    k = lam + 1e-3 + float(rng.uniform()) * max(y.lipschitz_constant - lam, 1.0)
    try:
        return y, reparametrize(V_SQUARED, y, k)
    except InfeasibleError:
        return y, None


class TestPushThroughInverse:
    """y_k = y o phi^{-1}, as `ReparResult.y_k` builds it: the mesh nodes
    phi(t_i) of y's nodes, whose values it keeps."""

    def test_identity_speeds_leave_trajectory_unchanged(self):
        """A cap with no cell to move returns y; built anyway, y_k has y's
        values and, up to rounding, its nodes."""
        y = sample(np.sqrt, graded_mesh(0, 1, 8, 2.0))
        res = reparametrize(V_SQUARED, y, y.lipschitz_constant + 1.0)
        assert res.changed_cells == 0 and res.y_k is y
        out = dataclasses.replace(res, changed_cells=1).y_k
        assert np.array_equal(out.values, y.values)
        assert np.allclose(out.mesh.nodes, y.mesh.nodes, rtol=0, atol=1e-15)

    def test_not_endpoint_exact_rejected(self):
        """The image's last block raises unless phi(b) is within the
        endpoint tolerance of b; the closed speed passes."""
        y = Trajectory(uniform_mesh(0, 1, 4), np.array([0.0, 0.75, 1.0, 1.25, 1.5]))
        plan = select_A(classify(y, 2.0, 1.0))
        assert plan.a_cells.tolist() == [1] and plan.a_last_speed == 0.5
        assert _closure(plan) is plan  # no defect to absorb
        assert list(_image_blocks(plan))[-1].tolist() == [0.0, 0.375, 0.5, 0.75, 1.0]
        with pytest.raises(ConsistencyError, match="endpoint defect 2.500e-01"):
            list(_image_blocks(dataclasses.replace(plan, a_last_speed=1.5)))

    def test_hand_composed_two_cell_example(self):
        # slopes (3, 1, 1, 1) on equal cells, capped at k = 2: speeds
        # (3/2, 1/2, 1, 1), endpoint exact, output slopes (2, 2, 1, 1),
        # boundary values preserved
        y = Trajectory(uniform_mesh(0, 1, 4), np.array([0.0, 0.75, 1.0, 1.25, 1.5]))
        out = reparametrize(V_SQUARED, y, 2.0).y_k
        assert out.mesh.nodes.tolist() == [0.0, 0.375, 0.5, 0.75, 1.0]
        assert out.cell_derivatives().tolist() == [2.0, 2.0, 1.0, 1.0]
        assert out.boundary == y.boundary

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_push_preserves_boundary_and_variation(self, seed):
        y, res = random_cap(np.random.default_rng(seed))
        if res is None:
            return
        out = res.y_k
        assert out.values[0] == y.values[0]
        assert out.values[-1] == y.values[-1]
        assert np.array_equal(out.values, res.plan.y.values)
        assert np.abs(np.diff(out.values)).sum() == \
            np.abs(np.diff(res.plan.y.values)).sum()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_speed_floor_bounds_output_slopes(self, seed):
        """Every speed is at least 1/2, so no slope more than doubles."""
        y, res = random_cap(np.random.default_rng(seed))
        if res is None:
            return
        assert res.y_k.lipschitz_constant <= 2.0 * y.lipschitz_constant * (1 + 1e-9)


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
        buf = io.StringIO()
        y.to_csv(buf)
        buf.seek(0)
        back = Trajectory.from_csv(buf)
        assert np.array_equal(back.mesh.nodes, y.mesh.nodes)
        assert np.array_equal(back.values, y.values)

    def test_csv_has_header_and_full_precision(self):
        y = Trajectory(Mesh(np.array([0.0, 1.0 / 3.0, 1.0])),
                       np.array([0.0, 2.0 / 3.0, 1.0]))
        buf = io.StringIO()
        y.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
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
        if overflows(sorted(ts)):  # finite nodes too far apart for a float width
            with pytest.raises(ArgumentError, match=WIDTHS_NOT_FINITE):
                Trajectory.from_csv(io.StringIO("t,y\n" + body))
            return
        back = Trajectory.from_csv(io.StringIO("t,y\n" + body))
        for got, texts in ((back.mesh.nodes, t_texts), (back.values, y_texts)):
            want = np.array([float(x) for x in texts])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("body, line", [
        ("0,0,5\n1,1,6\n", "line 2: expected t,y numbers, got '0,0,5'"),  # loadtxt reads 3 columns
        ("0,0\n1,1,6\n", "line 3: expected t,y numbers, got '1,1,6'"),    # loadtxt refuses
        ("0,0,\n1,1\n", "line 2: expected t,y numbers, got '0,0,'"),      # an empty third field
    ])
    def test_from_csv_refuses_a_row_with_extra_fields(self, body, line):
        with pytest.raises(ArgumentError) as err:
            Trajectory.from_csv(io.StringIO("t,y\n" + body))
        assert str(err.value) == line

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=12, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_to_csv_matches_the_former_row_loop(self, ts, data):
        """The same bytes whatever the piece size, so across piece edges."""
        assume(not overflows(sorted(ts)))  # no mesh has an infinite width
        ys = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(ts), max_size=len(ts)))
        y = Trajectory(Mesh(np.array(sorted(ts))), np.array(ys))
        want = "t,y\n" + "".join(f"{float(t)!r},{float(v)!r}\n"
                                 for t, v in zip(y.mesh.nodes, y.values))
        for piece in (1, 2, 3, trajectory.PIECE):
            buf = io.StringIO()
            with mock.patch.object(trajectory, "PIECE", piece):
                y.to_csv(buf)
            assert buf.getvalue() == want

    def test_from_csv_peak_follows_the_columns_not_the_text(self, tmp_path):
        """The file is read a line at a time: parsing 2^15 rows peaks under
        3 times the two result columns (the rows, then the mesh and values
        copies), where a copy of the whole text would take 4 bytes a
        character."""
        rows = 2 ** 15
        path = tmp_path / "y.csv"
        with open(path, "w", newline="") as f:
            sample(np.sqrt, graded_mesh(0, 1, rows - 1, 2.0)).to_csv(f)
        with open(path, newline="") as f:
            tracemalloc.start()
            try:
                Trajectory.from_csv(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        columns = 2 * 8 * rows
        assert peak < 3 * columns, (peak, columns)

    @pytest.mark.parametrize("row, error, detail", [
        ("0.5,abc", ArgumentError, "line 4002: expected t,y numbers, got '0.5,abc'"),
        ("0.5,1,extra", ArgumentError, "line 4002: expected t,y numbers, got '0.5,1,extra'"),
        ("0.5", ArgumentError, "line 4002: expected t,y numbers, got '0.5'"),
    ])
    def test_from_csv_names_a_bad_line_past_the_first_chunk(self, tmp_path, row, error, detail):
        """4,000 good rows (about 100 KiB) before the bad one, so the parser
        has read past its first chunk and the file is read again from the
        first row."""
        path = tmp_path / "y.csv"
        good = "".join(f"{i / 8000!r},{i / 7!r}\n" for i in range(4000))
        path.write_text(f"t,y\n{good}{row}\n0.75,2\n")
        assert path.stat().st_size > 64 * 1024
        with open(path, newline="") as f, pytest.raises(error) as err:
            Trajectory.from_csv(f)
        assert str(err.value) == detail

    @pytest.mark.parametrize("body, line", [("0,0\r\n1,2\r\n", None),
                                            ("0,0\n0.5,x\n", "line 3")])
    def test_from_csv_reads_a_pipe(self, body, line):
        """A pipe cannot be read twice: its text is parsed from a copy."""
        read, write = os.pipe()
        os.write(write, f"t,y\n{body}".encode())
        os.close(write)
        with os.fdopen(read, newline="") as f:
            if line is None:
                assert Trajectory.from_csv(f).values.tolist() == [0.0, 2.0]
            else:
                with pytest.raises(ArgumentError, match=line):
                    Trajectory.from_csv(f)

    def test_from_csv_refuses_a_bad_byte_past_the_first_chunk(self, tmp_path):
        path = tmp_path / "y.csv"
        good = "".join(f"{i / 8000!r},{i / 7!r}\n" for i in range(4000))
        path.write_bytes(f"t,y\n{good}".encode() + b"0.5,\xff\n0.75,2\n")
        with open(path, newline="") as f, pytest.raises(UnicodeDecodeError,
                                                       match="can't decode byte 0xff"):
            Trajectory.from_csv(f)

    def test_to_csv_memory_does_not_grow_with_the_rows(self):
        """to_csv holds a piece of text at a time: 4x the rows raise the
        traced peak while writing to a write that keeps nothing by less
        than 0.5 MB."""
        class Discard:
            def write(self, text):
                pass

        def writing_peak(rows):
            y = sample(np.sqrt, graded_mesh(0, 1, rows - 1, 2.0))
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                y.to_csv(Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        quarter, full = writing_peak(2 ** 15), writing_peak(2 ** 17)
        assert full - quarter < 500_000, (quarter, full)

    def test_json_round_trip(self):
        y = sample(np.cbrt, graded_mesh(0, 1, 5, 3.0))
        back = Trajectory.from_json_dict(y.to_json_dict())
        assert np.array_equal(back.values, y.values)
