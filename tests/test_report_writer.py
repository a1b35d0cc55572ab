"""The report writer `cli._write_json` against `json.dumps(sort_keys=True, indent=2)`."""

import dataclasses
import json
import math
import tracemalloc
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lavlab import cli, trajectory


def dumps(obj) -> str:
    """What `cli._write_json` writes for obj, as one string."""
    parts: list[str] = []
    cli._write_json(obj, parts.append)
    return "".join(parts)


def as_lists(obj):
    """The payload with every ndarray replaced by its nested lists and every
    dataclass instance by the dict of its fields."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: as_lists(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(as_lists(v) for v in obj)
    return obj


def reference(obj) -> str:
    return json.dumps(as_lists(obj), sort_keys=True, indent=2) + "\n"


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7,
                  1.0 / 3.0, -1e300, 2.0 ** 53 + 2.0]
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
    elements=finite_floats | floats)
keys = st.text(max_size=6) | st.sampled_from(['"', 'a"b', "\\", "é", "☃", "\n", ""])
leaves = (st.none() | st.booleans() | st.integers() | floats
          | floats.map(np.float64) | st.text(max_size=6) | float_arrays
          | hnp.arrays(np.int64, st.integers(0, 3)))


@dataclasses.dataclass(frozen=True)
class Row:
    """A report row: scalar, array, tuple and optional fields."""

    n: int
    value: float
    samples: np.ndarray
    history: tuple
    note: Any = None


@dataclasses.dataclass(frozen=True)
class Report:
    """A report holding rows and any payload."""

    rows: tuple
    extra: Any


rows = st.builds(Row, st.integers(), floats, float_arrays,
                 st.lists(floats, max_size=3).map(tuple), st.none() | st.text(max_size=6))
payloads = st.recursive(
    leaves | rows,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)
                   | st.builds(Report, st.lists(rows, max_size=3).map(tuple), inner)),
    max_leaves=24)


class TestDumps:
    @given(payloads)
    @settings(max_examples=300, deadline=None)
    @example({"a": np.array([1.0, math.nan]), "b": np.zeros((0, 2)), "c": ()})
    @example(np.array([[1.0, -0.0], [5e-324, math.inf]]))
    @example([np.zeros((2, 0)), np.ones((1, 1)), np.empty(0), {}])
    @example(Report((Row(1, -0.0, np.ones((2, 2)), (1.0, math.inf)),), {"r": Report((), None)}))
    def test_matches_json_dumps(self, payload):
        assert dumps(payload) == reference(payload)

    @pytest.mark.parametrize("piece", [1, 2, 3])
    @given(payload=payloads)
    @settings(max_examples=100, deadline=None)
    @example(payload={"a": np.array([1.0, 2.0, math.nan]), "b": np.ones((3, 2))})
    @example(payload=[np.array([[1.0, 2.0, 3.0], [4.0, -math.inf, 6.0]]), np.ones(4)])
    def test_matches_json_dumps_across_pieces(self, piece, payload):
        with mock.patch.object(trajectory, "PIECE", piece):
            assert dumps(payload) == reference(payload)

    def test_large_arrays_non_finite_in_the_last_piece_only(self):
        """Pieces of the default size, every one but the last finite."""
        rng = np.random.default_rng(19)
        flat = rng.standard_normal(10_001) * 10.0 ** rng.integers(-300, 300, 10_001)
        rows = rng.standard_normal((5_000, 2))
        flat[-3:] = math.nan, math.inf, -math.inf
        rows[-1] = math.nan, -math.inf
        assert flat.size % trajectory.PIECE and len(rows) % trajectory.PIECE
        assert np.isfinite(flat[:-trajectory.PIECE]).all()
        assert np.isfinite(rows[:-trajectory.PIECE]).all()
        payload = {"flat": flat, "rows": rows, "after": [1.0, math.nan]}
        assert dumps(payload) == reference(payload)

    @pytest.mark.parametrize("bad", [object(), {"x": {1, 2}}, [np.int64(3)], Row])
    def test_unsupported_type_raises_like_json(self, bad):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            dumps(bad)


def _writing_peak(payload) -> int:
    """tracemalloc's peak, in bytes, while the writer writes payload to a
    write that keeps nothing."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._write_json(payload, lambda text: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_memory_does_not_grow_with_the_report():
    """The writer holds a piece of text at a time, never the report: a
    report 4x as large raises the traced peak by less than 0.5 MB."""
    rng = np.random.default_rng(4)
    flat, rows = rng.standard_normal(400_000), rng.standard_normal((200_000, 2))
    quarter = _writing_peak({"a": flat[:100_000], "b": rows[:50_000]})
    full = _writing_peak({"a": flat, "b": rows})
    assert full - quarter < 500_000, (quarter, full)


def report(name, **kw):
    """The report `lavlab name` writes: its config echo and its runner's body."""
    config = cli.resolve(name, kw)
    body = cli.COMMANDS[name].run(config)
    return {"config": config, **(body[0] if isinstance(body, tuple) else body)}


def catenary_csv(path):
    from lavlab import graded_mesh, sample
    with open(path, "w", newline="") as f:
        sample(np.cosh, graded_mesh(-1, 1, 40, 1.0)).to_csv(f)
    return str(path)


def small_payloads(tmp_path, capsys):
    """The payload of each report-writing subcommand on a small run."""
    traj = catenary_csv(tmp_path / "cat.csv")
    inf_traj = tmp_path / "inf.csv"
    inf_traj.write_text("t,y\n0.0,1e-200\n0.5,1e-200\n0.75,0.5\n1.0,1.0\n")

    yield report("energy", lagrangian="surface_of_revolution", trajectory=traj)
    yield report("energy", lagrangian="half_inverse", trajectory=str(inf_traj))
    yield report("energy", lagrangian="mania", exact="cuberoot", n=128, power=3.0)
    yield report("necessary-check", lagrangian="surface_of_revolution",
                 trajectory=traj)
    yield report("necessary-check", lagrangian="half_inverse", trajectory=str(inf_traj))
    yield report("repar", lagrangian="sqrt_chain", exact="sqrt", n=64, power=2.0,
                 k_grid=(2.0, 8.0, 64.0))
    yield report("gap-scan", n_grid=(20,), M_grid=(4.0, 8.0), restarts=0, order=3)
    yield report("repar", lagrangian="sqrt_chain", trajectory=traj, k_grid=(2.0, 4.0))
    capsys.readouterr()


def test_real_payloads_match_json_dumps(tmp_path, capsys):
    seen = 0
    for payload in small_payloads(tmp_path, capsys):
        assert dumps(payload) == reference(payload)
        seen += 1
    assert seen == 8


RESIDUAL_KEYS = {"samples", "max_abs", "mesh_resolution", "skipped", "erdmann_constant"}
GAP_SCAN = {"n_grid": (20,), "M_grid": (4.0,), "restarts": 0, "order": 3}
NECESSARY = {"lagrangian": "surface_of_revolution"}


@pytest.mark.parametrize("name, settings, path, keys", [
    ("gap-scan", GAP_SCAN, ["report"],  # GapReport
     {"rows", "floor_estimate", "reference_energy", "gap_estimate"}),
    ("gap-scan", GAP_SCAN, ["report", "rows", 0],  # GapRow
     {"mesh_n", "slope_bound", "best_energy", "iterations", "stop_reason",
      "pg_residual", "energy_evals", "gradient_evals"}),
    ("necessary-check", NECESSARY, ["el"], RESIDUAL_KEYS),  # ResidualReport
    ("necessary-check", NECESSARY, ["dbr"], RESIDUAL_KEYS),
    ("energy", {"lagrangian": "mania", "exact": "cuberoot", "n": 64}, ["energy"],
     {"value", "converged", "error_estimate", "n_cells", "history"}),  # ConvergenceResult
    ("repar", {"lagrangian": "sqrt_chain", "exact": "sqrt", "n": 64, "k_grid": (2.0,)},
     ["rows", 0],  # KRow
     {"k", "status", "measure_s", "measure_a", "lip", "energy_before", "energy_after",
      "gap", "changed_cells"}),
    ("energy", {"lagrangian": "surface_of_revolution"}, ["energy"],  # EnergyReport
     {"value", "per_cell", "error_estimate", "order"}),
], ids=["GapReport", "GapRow", "ResidualReport_el", "ResidualReport_dbr",
        "ConvergenceResult", "KRow", "EnergyReport"])
def test_report_object_keys(name, settings, path, keys, tmp_path):
    """The JSON keys of each report object the CLI writes.  The writer keys a
    report dataclass by its field names, so renaming a field renames a key."""
    if name in ("necessary-check", "energy") and "exact" not in settings:
        settings = {**settings, "trajectory": catenary_csv(tmp_path / "cat.csv")}
    obj = json.loads(dumps(report(name, **settings)))
    for step in path:
        obj = obj[step]
    assert set(obj) == keys


@pytest.mark.parametrize("piece", [3, trajectory.PIECE])
@pytest.mark.parametrize("name, settings", [
    ("necessary-check", {"lagrangian": "surface_of_revolution"}),  # 2-D samples
    ("energy", {"lagrangian": "sqrt_chain"}),  # 1-D per_cell
])
def test_out_file_and_stdout_get_the_same_bytes(name, settings, piece, tmp_path, capsys):
    kw = {**settings, "trajectory": catenary_csv(tmp_path / "c.csv")}
    config = cli.resolve(name, kw)
    out = tmp_path / "report.json"
    with mock.patch.object(trajectory, "PIECE", piece):
        assert cli.run(config) == 0
        printed = capsys.readouterr().out
        assert cli.run(config, str(out)) == 0
    assert out.read_bytes() == printed.encode()
    assert printed == reference(report(name, **kw))
