import argparse
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lavlab import CATALOG_IDS, cli, graded_mesh, necessary, sample
from lavlab.cli import _config_from_args, _build_parser, main
from lavlab.trajectory import float_texts


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "lavlab", *argv],
                          capture_output=True, text=True)


class TestMainInProcess:
    def test_catalog_lists_ids(self, capsys):
        assert main(["catalog"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "mania" in out["catalog"]
        assert out["catalog"]["half_inverse"]["extended"] is True

    def test_unknown_lagrangian_exits_2_and_lists_ids(self, capsys):
        assert main(["energy", "--lagrangian", "nope", "--exact", "sqrt"]) == 2
        err = capsys.readouterr().err
        assert "valid ids" in err
        assert "sqrt_chain" in err

    def test_energy_exact_cuberoot(self, tmp_path, capsys):
        out = tmp_path / "energy.json"
        code = main(["energy", "--lagrangian", "mania", "--exact", "cuberoot",
                     "--n", "1024", "--power", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["energy"]["value"] <= 1e-3
        assert payload["energy"]["converged"] is True

    def test_energy_trajectory_file_with_two_pi_report(self, tmp_path, capsys):
        traj = sample(np.cosh, graded_mesh(-1, 1, 64, 1.0))
        path = tmp_path / "catenary.csv"
        with open(path, "w") as f:
            traj.to_csv(f)
        out = tmp_path / "energy.json"
        code = main(["energy", "--lagrangian", "surface_of_revolution",
                     "--trajectory", str(path), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value_over_two_pi"] == pytest.approx(
            payload["energy"]["value"] / (2 * np.pi))

    def test_energy_requires_input(self, capsys):
        assert main(["energy", "--lagrangian", "mania"]) == 2

    def test_polynomial_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "lagrangian": {"polynomial": [[1, 0, 0, 2]]},
            "exact": "identity", "n": 64,
        }))
        out = tmp_path / "energy.json"
        assert main(["energy", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["energy"]["value"] == pytest.approx(1.0)

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lagrangian": "mania", "exact": "cuberoot",
                                   "n": 64, "power": 3}))
        out = tmp_path / "e.json"
        assert main(["energy", "--config", str(cfg), "--n", "128",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["n"] == 128

    def test_gap_scan_problem_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap-scan", "--problem", "mania", "--n", "30", "--M", "4"])
        assert exc.value.code == 2
        assert "--problem" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["boundary_A", "boundary_B", "endpoint_mode"])
    def test_removed_config_keys_are_unknown(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "two" if key == "endpoint_mode" else 0.0}))
        assert main(["catalog", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err
        assert key in err

    def test_repar_runs_each_k_once_and_reports_find_K(self, tmp_path, capsys,
                                                       monkeypatch):
        import lavlab.repar
        from lavlab import ReparInput, catalog, find_K
        ks, energies, lambdas, builds, sweeps = [], [], [], [], []

        def counting(fn, calls, key=lambda *args: None):
            def counted(*args):
                calls.append(key(*args))
                return fn(*args)
            return counted

        # classify runs once per capped k; energy, choose_lambda and
        # ReparResult.y_k, which builds a capped trajectory, are counted
        # wherever repar calls them; the sweep is find_K's
        monkeypatch.setattr(lavlab.repar, "find_K",
                            counting(lavlab.repar.find_K, sweeps))
        monkeypatch.setattr(lavlab.repar, "classify",
                            counting(lavlab.repar.classify, ks, lambda y, k, *_: k))
        monkeypatch.setattr(lavlab.repar, "energy",
                            counting(lavlab.repar.energy, energies))
        monkeypatch.setattr(lavlab.repar, "choose_lambda",
                            counting(lavlab.repar.choose_lambda, lambdas))
        monkeypatch.setattr(lavlab.repar.ReparResult, "y_k",
                            property(counting(lavlab.repar.ReparResult.y_k.func, builds)))
        out = tmp_path / "repar.json"
        grid = [2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0]
        assert main(["repar", "--lagrangian", "half_inverse", "--exact", "cuberoot",
                     "--n", "64", "--power", "2",
                     "--k", ",".join(str(k) for k in reversed(grid)),
                     "--out", str(out)]) == 0
        assert len(sweeps) == 1
        assert ks == grid
        assert len(lambdas) == 1
        # F(y) once; every F(y_k) from the changed cells, no y_k built
        assert len(energies) == 1 and builds == []
        monkeypatch.undo()
        y = sample(np.cbrt, graded_mesh(0, 1, 64, 2.0))
        prepared = ReparInput.of(catalog("half_inverse"), y)
        changed = [prepared.cap(k).changed_cells for k in grid]
        assert all(c > 0 for c in changed)
        expected = find_K(catalog("half_inverse"), y, grid)
        assert [r.status for r in expected.rows][:2] == ["above_bound"] * 2
        payload = json.loads(out.read_text())
        assert payload["K"] == expected.K == 16.0
        # one row type: the rows are find_K's, field for field
        assert payload["rows"] == [dataclasses.asdict(r) for r in expected.rows]
        assert [r["changed_cells"] for r in payload["rows"]] == changed

    def test_repar_nonconvex_integrand_writes_rows_and_null_K(self, tmp_path, capsys):
        out = tmp_path / "repar.json"
        assert main(["repar", "--lagrangian", "quartic", "--exact", "sqrt",
                     "--n", "256", "--power", "2", "--k", "2,8,32",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["K"] is None
        assert [r["k"] for r in payload["rows"]] == [2.0, 8.0, 32.0]
        assert all(None not in r.values() for r in payload["rows"])
        assert capsys.readouterr().err.count("\n") == 4  # header and three rows

    @pytest.mark.parametrize("argv", [
        ["necessary-check", "--lagrangian", "sqrt_chain", "--trajectory", "TRAJ"],
        ["gap-scan", "--n", "20", "--M", "5", "--restarts", "0"],
    ], ids=["necessary-check", "gap-scan"])
    @pytest.mark.parametrize("csv_name", ["x", "./x", "link"])
    def test_report_and_csv_naming_one_file_exit_2(self, tmp_path, capsys, monkeypatch,
                                                   argv, csv_name):
        """The CSV would overwrite the report: the run stops before it
        starts, and writes nothing."""
        traj = tmp_path / "in" / "y.csv"
        traj.parent.mkdir()
        with traj.open("w", newline="") as f:
            sample(np.sqrt, graded_mesh(0, 1, 16, 2.0)).to_csv(f)
        work = tmp_path / "out"
        work.mkdir()
        monkeypatch.chdir(work)
        if csv_name == "link":
            (work / "x").write_text("kept")
            (work / "link").symlink_to(work / "x")
        argv = [str(traj) if a == "TRAJ" else a for a in argv]
        assert main([*argv, "--out", "x", "--csv-out", csv_name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report file x and CSV file") and "one file" in err
        if csv_name == "link":
            assert (work / "x").read_text() == "kept"
            assert sorted(p.name for p in work.iterdir()) == ["link", "x"]
        else:
            assert list(work.iterdir()) == []

    def test_repar_non_autonomous_exits_2(self, capsys):
        assert main(["repar", "--lagrangian", "mania", "--exact", "cuberoot",
                     "--n", "64", "--power", "3", "--k", "4"]) == 2
        assert "autonomous integrand" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, detail", [
        ("header_only.csv", "t,y\n", "no rows"),
        ("word.csv", "t,y\n0,1\n0.5,abc\n1,2\n", "line 3"),
        ("short_row.csv", "t,y\n0,1\n0.5\n1,2\n", "line 3"),
        ("no_values.json", '{"nodes": [0, 1]}', "KeyError('values')"),
        ("string_value.json", '{"nodes": [0, 1], "values": [0, "one"]}', "'one'"),
        ("bool_values.json", '{"nodes": [0, 0.5, 1], "values": [false, true, true]}',
         "'values' holds False"),
        ("numeric_string.json", '{"nodes": [0, "1"], "values": [0, 1]}', "'nodes' holds '1'"),
        ("empty.csv", "", "header 't,y'"),
        ("other_header.csv", "x,y\n0,1\n1,2\n", "header 't,y'"),
        ("blank_rows_only.csv", "t,y\n\r\n", "no rows"),
        ("short_after_blank.csv", "t,y\n0,1\n\n0.5\n", "line 4"),
        ("three_fields.csv", "t,y\n0,0,5\n1,1,6\n",
         "line 2: expected t,y numbers, got '0,0,5'"),
        ("third_field_late.csv", "t,y\n0,1\n0.5,2\n1,3,extra\n",
         "line 4: expected t,y numbers, got '1,3,extra'"),
        ("not_an_object.json", "[0, 1]", "TypeError"),
        ("ragged.json", '{"nodes": [[0], [1, 2]], "values": [0, 1]}', "ValueError"),
        ("bad_syntax.json", '{"nodes": [0, 1],', "Expecting"),
        ("not_utf8.csv", b"t,y\n0,0\n0.5,\xff\xfe\n1,1\n", "can't decode byte 0xff"),
    ])
    def test_malformed_trajectory_file_exits_2(self, tmp_path, capsys,
                                               name, text, detail):
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["energy", "--lagrangian", "sqrt_chain",
                     "--trajectory", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and detail in err

    @pytest.mark.parametrize("k, detail", [("4", "need k > choose_lambda(y) = 10.0"),
                                           ("20", "finite energy")])
    def test_repar_with_an_infinite_slope_exits_2(self, tmp_path, capsys, k, detail):
        """A cell of width 5e-324 and rise 10 has slope +inf: lambda comes
        from the finite slopes, and the cap stops with a usage error, the
        only line on stderr."""
        path = tmp_path / "inf.csv"
        path.write_text("t,y\n0,0\n5e-324,10\n1,0\n")
        assert main(["repar", "--lagrangian", "sqrt_chain", "--trajectory", str(path),
                     "--k", k]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and detail in err and err.count("\n") == 1

    @pytest.mark.parametrize("ident", CATALOG_IDS)
    def test_energy_with_an_infinite_slope_is_inf(self, ident, tmp_path, capsys):
        """The +inf slope makes its cell's energy, and F, +inf (never NaN)
        for every catalog integrand, with no numpy warning; the refinement
        estimate keeps the one-ulp cell whole."""
        path = tmp_path / "inf.csv"
        path.write_text("t,y\n0,0\n5e-324,10\n1,0\n")
        out = tmp_path / "e.json"
        assert main(["energy", "--lagrangian", ident, "--trajectory", str(path),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["energy"]["value"] == math.inf
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "t,y\r\n0,1\r\n0.5,2\r\n1,3\r\n",          # CRLF line endings
        "t,y\n\n0,1\n\n0.5,2\n1,3\n\n",             # blank lines
        " t , y \n0,1\n0.5,2\n1,3\n",                 # spaces around the header
        "t,y\r0,1\r0.5,2\r1,3\r",                     # CR line endings
        't,y\n"0","1"\n0.5,2\n1,3\n',                 # quoted cells
    ])
    def test_trajectory_csv_layouts_read_as_before(self, tmp_path, text):
        path = tmp_path / "y.csv"
        path.write_bytes(text.encode())
        y = cli._load_trajectory(str(path))
        assert y.mesh.nodes.tolist() == [0.0, 0.5, 1.0]
        assert y.values.tolist() == [1.0, 2.0, 3.0]

    def test_config_round_trip_is_canonical(self):
        parser = _build_parser()
        args = parser.parse_args(["repar", "--lagrangian", "sqrt_chain",
                                  "--exact", "sqrt", "--k", "2,4"])
        first = _config_from_args(args)
        echoed = json.loads(json.dumps(first))
        assert echoed.pop("subcommand") == "repar"
        assert cli.resolve("repar", echoed) == first

    def test_necessary_check_formats_each_sample_once(self, tmp_path, monkeypatch):
        """--csv-out reuses the JSON report's float text of the EL samples:
        it formats no float, and both files keep their bytes."""
        traj = tmp_path / "cat.csv"
        with open(traj, "w", newline="") as f:
            sample(np.cosh, graded_mesh(-1, 1, 64, 1.0)).to_csv(f)
        formatted = []

        def counting(a):
            texts = list(float_texts(a))
            formatted.append(len(texts))
            return iter(texts)

        monkeypatch.setattr(cli, "float_texts", counting)
        monkeypatch.setattr(necessary, "float_texts", counting)
        argv = ["necessary-check", "--lagrangian", "surface_of_revolution",
                "--trajectory", str(traj), "--out"]
        assert main([*argv, str(tmp_path / "a.json")]) == 0
        json_only = sum(formatted)
        formatted.clear()
        assert main([*argv, str(tmp_path / "b.json"),
                     "--csv-out", str(tmp_path / "b.csv")]) == 0
        assert sum(formatted) == json_only
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        samples = json.loads((tmp_path / "b.json").read_text())["el"]["samples"]
        assert len(samples) == 63
        assert (tmp_path / "b.csv").read_text() == "t,residual\n" + "".join(
            f"{t!r},{r!r}\n" for t, r in samples)

    def test_json_only_necessary_check_keeps_no_sample_texts(self, tmp_path, monkeypatch):
        """Without --csv-out the EL samples are formatted as the JSON report
        writes them, never kept as one list of texts; the report keeps the
        bytes it has beside a CSV."""
        traj = tmp_path / "cat.csv"
        with open(traj, "w", newline="") as f:
            sample(np.cosh, graded_mesh(-1, 1, 64, 1.0)).to_csv(f)
        argv = ["necessary-check", "--lagrangian", "surface_of_revolution",
                "--trajectory", str(traj), "--out"]
        assert main([*argv, str(tmp_path / "a.json"),
                     "--csv-out", str(tmp_path / "a.csv")]) == 0

        def refuse(report):
            raise AssertionError("sample_texts read without --csv-out")

        monkeypatch.setattr(necessary.ResidualReport, "sample_texts", property(refuse))
        assert main([*argv, str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def _write_trajectory(path, f, mesh):
    with open(path, "w", newline="") as fh:
        sample(f, mesh).to_csv(fh)
    return str(path)


def setting_cases(tmp_path):
    """Small runs of every subcommand, one for each input it can take."""
    cat = _write_trajectory(tmp_path / "cat.csv", np.cosh, graded_mesh(-1, 1, 40, 1.0))
    root = _write_trajectory(tmp_path / "sqrt.csv", np.sqrt, graded_mesh(0, 1, 64, 2.0))
    # a cell one ulp wide, which the refinement estimate keeps whole
    ulp = tmp_path / "ulp.csv"
    ulp.write_text("t,y\n0,0\n0.5,0.5\n0.5000000000000001,0.5000000000000001\n1,1\n")
    exact = ["--lagrangian", "sqrt_chain", "--exact", "sqrt", "--n", "64", "--power", "2"]
    return {
        "catalog": [[]],
        "energy": [exact, ["--lagrangian", "surface_of_revolution", "--trajectory", cat],
                   ["--lagrangian", "sqrt_chain", "--trajectory", str(ulp)]],
        "repar": [[*exact, "--k", "2,4"],
                  ["--lagrangian", "sqrt_chain", "--trajectory", root, "--k", "4"],
                  ["--lagrangian", "sqrt_chain", "--exact", "sqrt", "--n", "64",
                   "--k", "2,4,8,16,32,64"]],
        "necessary-check": [["--lagrangian", "surface_of_revolution", "--trajectory", cat]],
        "gap-scan": [["--n", "20", "--M", "4", "--restarts", "1", "--order", "3"]],
    }


class RecordingConfig(dict):
    """A resolved config that records which settings are read from it."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestSettings:
    """A subcommand's flags, its config-file keys, its report's `config` echo
    and the settings its runner reads are one set."""

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_echo_reruns_byte_identical_and_is_what_ran(self, name, tmp_path, capsys):
        echoed = set()
        for i, argv in enumerate(setting_cases(tmp_path)[name]):
            first, second, cfg = (tmp_path / f"{i}{x}" for x in ("a.json", "b.json", "c.json"))
            assert main([name, *argv, "--out", str(first)]) == 0
            config = json.loads(first.read_text())["config"]
            cfg.write_text(json.dumps(config))
            assert main([name, "--config", str(cfg), "--out", str(second)]) == 0
            assert second.read_bytes() == first.read_bytes()
            args = _build_parser().parse_args([name, "--config", str(cfg)])
            recording = RecordingConfig(_config_from_args(args))
            assert cli.run(recording, str(second)) == 0
            assert recording.read == set(config)
            echoed |= set(config)
        capsys.readouterr()
        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[name]
        flags = {a.dest for a in sub._actions} - {"help", "config", "out", "csv_out"}
        assert flags == echoed - {"subcommand"}

    def test_repar_echoes_the_grid_and_power_it_ran(self, tmp_path, capsys):
        out = tmp_path / "repar.json"
        argv = ["repar", "--lagrangian", "sqrt_chain", "--exact", "sqrt", "--n", "64",
                "--k", "2,4,8,16,32,64"]
        assert main([*argv, "--power", "2", "--out", str(out)]) == 0
        default = json.loads(out.read_text())
        assert default["config"]["k_grid"] == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert default["config"]["power"] == 2.0
        assert main([*argv, "--power", "1.5", "--out", str(out)]) == 0
        graded = json.loads(out.read_text())
        assert graded["config"]["power"] == 1.5
        assert graded["rows"] != default["rows"]

    @pytest.mark.parametrize("name, flag, key, value", [
        ("catalog", "--seed", "restarts", 3),
        ("energy", "--seed", "seed", 1),
        ("repar", "--tol", "tol", 1e-3),
        ("necessary-check", "--order", "order", 3),
        ("gap-scan", "--lagrangian", "lagrangian", "mania"),
        ("repar", "--restarts", "restarts", 5),
        ("gap-scan", "--jobs", "jobs", 2),  # removed: a scan uses every usable CPU
        ("gap-scan", "--format", "format", "csv"),  # removed: CSV rows go to --csv-out
        ("necessary-check", "--format", "format", "json"),
    ])
    def test_setting_of_another_subcommand_exits_2(self, name, flag, key, value,
                                                   tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, flag, str(value)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([name, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err

    @pytest.mark.parametrize("name, extra, message", [
        ("energy", ["--exact", "sqrt"], "not both"),
        ("repar", ["--exact", "sqrt"], "not both"),
        ("energy", ["--a", "0"], "reads a only with --exact"),
        ("energy", ["--b", "2"], "reads b only with --exact"),
        ("energy", ["--n", "64"], "reads n only with --exact"),
        ("energy", ["--power", "2"], "reads power only with --exact"),
        ("energy", ["--tol", "1e-3"], "reads tol only with --exact"),
        ("energy", {"tol": 1e-3}, "reads tol only with --exact"),
        ("repar", ["--n", "64"], "reads n only with --exact"),
        ("repar", {"power": 2.0}, "reads power only with --exact"),
    ])
    def test_one_input_and_only_its_settings(self, name, extra, message, tmp_path,
                                             capsys):
        traj = _write_trajectory(tmp_path / "y.csv", np.sqrt, graded_mesh(0, 1, 16, 2.0))
        argv = [name, "--lagrangian", "sqrt_chain", "--trajectory", traj]
        if name == "repar":
            argv += ["--k", "4"]
        if isinstance(extra, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(extra))
            extra = ["--config", str(cfg)]
        assert main([*argv, *extra]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gap-scan", "--n", "20", "--M", "4", "--seed", "-1"], "seed must be >= 0"),
        (["gap-scan", "--n", "20", "--M", "4", "--restarts", "-1"], "restarts must be >= 0"),
        (["energy", "--lagrangian", "mania", "--exact", "cuberoot", "--n", "8", "--tol", "-1"],
         "tol must be >= 0"),
        (["repar", "--lagrangian", "sqrt_chain", "--exact", "sqrt", "--k", "4",
          "--power", "0.5"], "power must be >= 1"),
        (["energy", "--lagrangian", "mania", "--exact", "sqrt", "--n", "0"], "n must be >= 1"),
        (["repar", "--lagrangian", "mania", "--exact", "sqrt", "--k", ""], "non-empty --k"),
        (["gap-scan", "--n", "10", "--M", "inf"], "slope bounds must be finite"),
        (["gap-scan", "--n", "10", "--M", "nan"], "M_grid must not be NaN: (nan,)"),
        (["gap-scan", "--n", "10", "--M", "4,nan"], "M_grid must not be NaN: (4.0, nan)"),
        (["energy", "--lagrangian", "mania", "--exact", "cuberoot", "--tol", "nan"],
         "tol must not be NaN: nan"),
        (["energy", "--lagrangian", "mania", "--exact", "sqrt", "--order", "100000"],
         "order must be <= 64"),
        (["gap-scan", "--n", "20", "--M", "4", "--seed", str(2 ** 64)],
         f"seed must be <= {2 ** 64 - 1}"),
        (["repar", "--lagrangian", "sqrt_chain", "--exact", "sqrt", "--a", "-1", "--b", "1",
          "--n", "8", "--k", "2"], "f is not finite at node t=-1.0"),
        (["energy", "--lagrangian", "sqrt_chain", "--exact", "sqrt", "--a", "-1", "--b", "1",
          "--n", "64"], "f or f' is NaN at the Gauss point t=-0.99"),
        (["gap-scan", "--n", "4", "--M", "1e308"], "slope bounds times 1e6 must be finite"),
        (["repar", "--lagrangian", "sqrt_chain", "--exact", "sqrt", "--n", "64",
          "--k", "2,inf"], "need a finite k (got k=inf)"),
    ])
    def test_out_of_range_setting_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    # a small run of each subcommand that has float settings; a case adds
    # one float setting as --flag=value, which overrides the run's own
    EXTREME_RUNS = {
        "energy": ["--lagrangian", "sqrt_chain", "--exact", "sqrt", "--n", "8"],
        "repar": ["--lagrangian", "sqrt_chain", "--exact", "sqrt", "--n", "8", "--k", "4"],
        "gap-scan": ["--n", "4", "--M", "4", "--restarts", "0"],
    }

    @pytest.mark.parametrize("name, flag", [
        (name, s.flag) for name, command in cli.COMMANDS.items()
        for s in command.every_setting if s.cast is float])
    @pytest.mark.parametrize("value", ["1e308", "-1e308", "5e-324", "-0.0"])
    def test_extreme_float_setting_exits_cleanly(self, name, flag, value, tmp_path, capsys):
        """Every float setting at the largest, smallest and signed-zero
        floats either runs, or exits 2 or 3 with a message, not a
        traceback."""
        argv = [name, *self.EXTREME_RUNS[name], f"{flag}={value}",
                "--out", str(tmp_path / "report.json")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        assert code in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name, argv, key, value", [
        ("gap-scan", ["--n", "10"], "M_grid", [4.0, math.nan]),
        ("energy", ["--lagrangian", "mania", "--exact", "cuberoot"], "tol", math.nan),
        ("energy", ["--lagrangian", "mania", "--exact", "cuberoot"], "n", math.nan)])
    def test_config_file_nan_exits_2(self, name, argv, key, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))  # json writes NaN
        assert "NaN" in cfg.read_text()
        assert main([name, *argv, "--config", str(cfg)]) == 2
        assert f"{key} must not be NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("content, detail", [
        (None, "No such file or directory"),
        (b'{"n": 3', "Expecting"),
        (b'[{"n": 3}]', "expected a JSON object"),
        (b'\xff{"n": 3}', "can't decode byte 0xff")],
        ids=["missing", "bad_syntax", "list", "not_utf8"])
    def test_malformed_config_file_exits_2(self, content, detail, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["repar", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and str(cfg) in err and detail in err

    @pytest.mark.parametrize("flag", ["--trajectory", "--config", "--out", "--csv-out"])
    def test_unopenable_file_exits_2(self, flag, tmp_path, capsys):
        """A named file that cannot be opened (a directory to read, a file to
        write in a missing directory) is a configuration error, not a traceback."""
        cat = _write_trajectory(tmp_path / "cat.csv", np.cosh, graded_mesh(-1, 1, 8, 1.0))
        argv = ["necessary-check", "--lagrangian", "surface_of_revolution",
                "--trajectory", cat]
        path = str(tmp_path / "missing" / "x") if flag in ("--out", "--csv-out") \
            else str(tmp_path)
        assert main([*argv, flag, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: " in err

    @pytest.mark.parametrize("bad_flag", ["--out", "--csv-out"])
    @pytest.mark.parametrize("bad", ["missing_directory", "directory"])
    def test_unwritable_output_exits_2_before_the_run(self, bad_flag, bad, tmp_path,
                                                      monkeypatch, capsys):
        """The runner is never called, and the other output is not written."""
        calls = []
        monkeypatch.setitem(cli.COMMANDS, "gap-scan", dataclasses.replace(
            cli.COMMANDS["gap-scan"], run=calls.append))
        paths = {"--out": tmp_path / "g.json", "--csv-out": tmp_path / "r.csv"}
        paths[bad_flag] = tmp_path / "missing" / "x" if bad == "missing_directory" else tmp_path
        argv = ["gap-scan", "--n", "20", "--M", "5", "--restarts", "0"]
        assert main([*argv, *(a for f, p in paths.items() for a in (f, str(p)))]) == 2
        assert calls == []
        assert not (tmp_path / "g.json").exists() and not (tmp_path / "r.csv").exists()
        what = "report file" if bad_flag == "--out" else "CSV file"
        detail = "No such file or directory" if bad == "missing_directory" else "Is a directory"
        assert capsys.readouterr().err == f"error: {what} {paths[bad_flag]}: {detail}\n"

    def test_config_file_names_the_subcommand_it_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "catalog"}))
        assert main(["catalog", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["repar", "--config", str(cfg)]) == 2
        assert "'catalog'" in capsys.readouterr().err


def test_readme_command_lines_parse():
    """Every `lavlab ...` line of the README's Command line block names
    only flags that exist; the lines are parsed, not run."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("lavlab ")]
    assert {argv[0] for argv in lines} == set(cli.COMMANDS)
    parser = _build_parser()
    for argv in lines:
        parser.parse_args(argv)


def test_readme_sh_command_lines_resolve():
    """Every `lavlab ...` line of the README's `sh` blocks parses, and each
    one without `--config` resolves to a config: its settings exist, have
    the right types and are in range.  The lines are not run."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("\n", 1)[1] for block in text.split("```")[1::2]
              if block.startswith("sh\n")]
    lines = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
             if line.startswith("lavlab ")]
    assert lines
    parser = _build_parser()
    for argv in lines:
        args = parser.parse_args(argv)
        if "--config" not in argv:
            _config_from_args(args)


def test_readme_and_cli_docstring_name_only_the_subcommands():
    """Beyond the Command line block: the README's prose names no
    `lavlab <subcommand>` that `cli.COMMANDS` lacks, and the `cli` module
    docstring lists exactly its subcommands, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(re.findall(r"`lavlab ([a-z-]+)", text)) <= set(cli.COMMANDS)
    listed = cli.__doc__.split("Subcommands: ", 1)[1].split(".", 1)[0]
    assert listed.split(", ") == list(cli.COMMANDS)


def test_removed_demo_subcommand_exits_2(capsys):
    """`demo` ran the sweep `repar --lagrangian sqrt_chain --exact sqrt
    --power 2` runs; it is an unknown subcommand now."""
    with pytest.raises(SystemExit) as exc:
        main(["demo"])
    assert exc.value.code == 2
    assert "invalid choice: 'demo'" in capsys.readouterr().err


def test_runs_load_neither_numpy_random_nor_numpy_polynomial(tmp_path):
    """The restarts draw from Python's `random` and the Gauss-Legendre table
    is lavlab's own, so a fresh process that runs a gap scan and an exact
    energy never imports numpy's generators or its polynomial package (whose
    Gauss table calls LAPACK)."""
    runs = [["gap-scan", "--n", "20,40", "--M", "4,8", "--restarts", "2",
             "--out", str(tmp_path / "gap.json")],
            ["energy", "--lagrangian", "mania", "--exact", "cuberoot", "--n", "256",
             "--out", str(tmp_path / "energy.json")]]
    script = ("import sys\n"
              "from lavlab.cli import main\n"
              f"assert [main(argv) for argv in {runs!r}] == [0, 0]\n"
              "print([m for m in ('numpy.random', 'numpy.polynomial') if m in sys.modules])\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_forked_gap_scan_prints_one_report():
    """The scan's children leave by `os._exit`: none writes a report or
    flushes the parent's stdout, so stdout holds one JSON document."""
    script = ("import sys\n"
              "from lavlab import cli, gapscan\n"
              "gapscan._usable_cpus = lambda: 2\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    res = subprocess.run([sys.executable, "-c", script, "gap-scan", "--n", "20,40",
                          "--M", "5", "--restarts", "1"], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert [r["mesh_n"] for r in json.loads(res.stdout)["report"]["rows"]] == [20, 40]
    assert res.stderr == ""


class TestSubprocessReproducibility:
    def test_gap_scan_byte_identical(self, tmp_path):
        args = ["gap-scan", "--n", "40", "--M", "4", "--restarts", "2",
                "--seed", "7", "--order", "3"]
        outs = []
        for name in ("one.json", "two.json"):
            path = tmp_path / name
            res = run_cli(args + ["--out", str(path)])
            assert res.returncode == 0, res.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_repar_sweep_byte_identical_and_csv(self, tmp_path):
        args = ["repar", "--lagrangian", "sqrt_chain", "--exact", "sqrt",
                "--n", "256", "--power", "2", "--k", "2,4,8"]
        blobs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            res = run_cli(args + ["--out", str(path)])
            assert res.returncode == 0, res.stderr
            assert "F(y_k)" in res.stderr  # table printed for humans
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["K"] == 2.0

    def test_necessary_check_writes_json_and_csv(self, tmp_path):
        traj = sample(np.cosh, graded_mesh(-1, 1, 128, 1.0))
        tfile = tmp_path / "cat.csv"
        with open(tfile, "w") as f:
            traj.to_csv(f)
        out = tmp_path / "res.json"
        csv_out = tmp_path / "res.csv"
        res = run_cli(["necessary-check", "--lagrangian", "surface_of_revolution",
                       "--trajectory", str(tfile), "--out", str(out),
                       "--csv-out", str(csv_out)])
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["el"]["max_abs"] < 1.0
        assert payload["dbr"]["erdmann_constant"] == pytest.approx(
            2 * np.pi, rel=1e-2)
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0] == "t,residual"
        assert len(lines) == len(payload["el"]["samples"]) + 1

    def test_repar_runs(self, tmp_path):
        res = run_cli(["repar", "--lagrangian", "sqrt_chain", "--exact", "sqrt",
                       "--n", "128", "--power", "2", "--k", "2,4"])
        assert res.returncode == 0
        assert "Lip(y_k)" in res.stderr

    def test_gap_scan_csv_out_writes_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli(["gap-scan", "--n", "30", "--M", "4", "--restarts", "1",
                       "--seed", "3", "--order", "3", "--csv-out", str(out)])
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mesh_n,slope_bound,best_energy,iterations"
        assert len(lines) == 2

    def test_csv_format_rejected_without_csv_form(self):
        res = run_cli(["catalog", "--format", "csv"])
        assert res.returncode == 2

    def test_infeasible_experiment_exits_3(self, tmp_path):
        # k below choose_lambda triggers a config-style argument error (2);
        # a genuinely infeasible compensation set propagates as exit 3
        traj_path = tmp_path / "steep.csv"
        import numpy as np
        from lavlab import Trajectory, uniform_mesh
        y = Trajectory(uniform_mesh(0, 1, 2), np.array([0.0, 2.0, 2.0]))
        with open(traj_path, "w") as f:
            y.to_csv(f)
        res = run_cli(["repar", "--lagrangian", "sqrt_chain",
                       "--trajectory", str(traj_path), "--k", "2"])
        assert res.returncode == 3, (res.returncode, res.stderr)
