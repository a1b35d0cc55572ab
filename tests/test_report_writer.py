"""The report writer `cli._dumps` against `json.dumps(sort_keys=True, indent=2)`."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lavlab import cli
from lavlab.cli import RunConfig


def as_lists(obj):
    """The payload with every ndarray replaced by its nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
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
payloads = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=24)


class TestDumps:
    @given(payloads)
    @settings(max_examples=300, deadline=None)
    @example({"a": np.array([1.0, math.nan]), "b": np.zeros((0, 2)), "c": ()})
    @example(np.array([[1.0, -0.0], [5e-324, math.inf]]))
    @example([np.zeros((2, 0)), np.ones((1, 1)), np.empty(0), {}])
    def test_matches_json_dumps(self, payload):
        assert cli._dumps(payload) == reference(payload)

    @pytest.mark.parametrize("bad", [object(), {"x": {1, 2}}, [np.int64(3)]])
    def test_unsupported_type_raises_like_json(self, bad):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            cli._dumps(bad)


def small_payloads(tmp_path, capsys):
    """The payload of each report-writing subcommand on a small run."""
    from lavlab import graded_mesh, sample
    traj = tmp_path / "cat.csv"
    with open(traj, "w", newline="") as f:
        sample(np.cosh, graded_mesh(-1, 1, 40, 1.0)).to_csv(f)
    inf_traj = tmp_path / "inf.csv"
    inf_traj.write_text("t,y\n0.0,1e-200\n0.5,1e-200\n0.75,0.5\n1.0,1.0\n")

    def config(sub, **kw):
        cfg = RunConfig(subcommand=sub, **kw)
        cfg.validate()
        return cfg

    yield cli._run_energy(config("energy", lagrangian="surface_of_revolution",
                                 trajectory_path=str(traj)))
    yield cli._run_energy(config("energy", lagrangian="half_inverse",
                                 trajectory_path=str(inf_traj)))
    yield cli._run_energy(config("energy", lagrangian="mania", exact="cuberoot",
                                 n=128, power=3.0))
    yield cli._run_necessary(config("necessary-check", lagrangian="surface_of_revolution",
                                    trajectory_path=str(traj)))[0]
    yield cli._run_necessary(config("necessary-check", lagrangian="half_inverse",
                                    trajectory_path=str(inf_traj)))[0]
    yield cli._run_repar(config("repar", lagrangian="sqrt_chain", exact="sqrt",
                                n=64, power=2.0, k_grid=(2.0, 8.0, 64.0)))
    yield cli._run_gap_scan(config("gap-scan", n_grid=(20,), M_grid=(4.0, 8.0),
                                   restarts=0, order=3))[0]
    yield cli._run_demo(config("demo", n=64, k_grid=(2.0, 4.0)))
    capsys.readouterr()


def test_real_payloads_match_json_dumps(tmp_path, capsys):
    seen = 0
    for payload in small_payloads(tmp_path, capsys):
        assert cli._dumps(payload) == reference(payload)
        seen += 1
    assert seen == 8
