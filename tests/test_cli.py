import json
import subprocess
import sys

import numpy as np
import pytest

from lavlab import cli, graded_mesh, necessary, sample
from lavlab.cli import RunConfig, _config_from_args, _build_parser, main
from lavlab.trajectory import float_texts


def run_cli(argv, tmp_path=None, env_extra=None):
    import os
    env = dict(os.environ)
    env.pop("LAVLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "lavlab", *argv],
        capture_output=True, text=True, env=env)


class TestMainInProcess:
    def test_catalog_lists_ids(self, capsys, monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        assert main(["catalog"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "mania" in out["catalog"]
        assert out["catalog"]["half_inverse"]["extended"] is True

    def test_unknown_lagrangian_exits_2_and_lists_ids(self, capsys, monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        assert main(["energy", "--lagrangian", "nope", "--exact", "sqrt"]) == 2
        err = capsys.readouterr().err
        assert "valid ids" in err
        assert "sqrt_chain" in err

    def test_energy_exact_cuberoot(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        out = tmp_path / "energy.json"
        code = main(["energy", "--lagrangian", "mania", "--exact", "cuberoot",
                     "--n", "1024", "--power", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["energy"]["value"] <= 1e-3
        assert payload["energy"]["converged"] is True

    def test_energy_trajectory_file_with_two_pi_report(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
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

    def test_energy_requires_input(self, monkeypatch, capsys):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        assert main(["energy", "--lagrangian", "mania"]) == 2

    def test_polynomial_config_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "lagrangian": {"polynomial": [[1, 0, 0, 2]]},
            "exact": "identity", "n": 64,
        }))
        out = tmp_path / "energy.json"
        assert main(["energy", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["energy"]["value"] == pytest.approx(1.0)

    def test_flags_override_config_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lagrangian": "mania", "exact": "cuberoot",
                                   "n": 64, "power": 3}))
        out = tmp_path / "e.json"
        assert main(["energy", "--config", str(cfg), "--n", "128",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["n"] == 128

    def test_env_seed_overrides_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAVLAB_SEED", "77")
        out = tmp_path / "c.json"
        assert main(["catalog", "--seed", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 77

    def test_gap_scan_problem_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap-scan", "--problem", "mania", "--n", "30", "--M", "4"])
        assert exc.value.code == 2
        assert "--problem" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["boundary_A", "boundary_B", "endpoint_mode"])
    def test_removed_config_keys_are_unknown(self, key, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
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
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        ks, energies, lambdas = [], [], []

        def counting(fn, calls, key=lambda *args: None):
            def counted(*args):
                calls.append(key(*args))
                return fn(*args)
            return counted

        # classify runs once per capped k; energy and choose_lambda are counted
        # wherever repar calls them
        monkeypatch.setattr(lavlab.repar, "classify",
                            counting(lavlab.repar.classify, ks, lambda y, k, lam: k))
        monkeypatch.setattr(lavlab.repar, "energy",
                            counting(lavlab.repar.energy, energies))
        monkeypatch.setattr(lavlab.repar, "choose_lambda",
                            counting(lavlab.repar.choose_lambda, lambdas))
        out = tmp_path / "repar.json"
        grid = [2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0]
        assert main(["repar", "--lagrangian", "half_inverse", "--exact", "cuberoot",
                     "--n", "64", "--power", "2",
                     "--k", ",".join(str(k) for k in reversed(grid)),
                     "--out", str(out)]) == 0
        assert ks == grid
        assert len(lambdas) == 1
        monkeypatch.undo()
        y = sample(np.cbrt, graded_mesh(0, 1, 64, 2.0))
        prepared = ReparInput.of(catalog("half_inverse"), y)
        capped = sum(prepared.cap(k).y_k is not y for k in grid)
        assert len(energies) == 1 + capped
        expected = find_K(catalog("half_inverse"), y, grid)
        assert [r.status for r in expected.rows][:2] == ["above_bound"] * 2
        payload = json.loads(out.read_text())
        assert payload["K"] == expected.K == 16.0
        assert [r["gap"] for r in payload["rows"]] == [r.gap for r in expected.rows]

    def test_repar_non_autonomous_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        assert main(["repar", "--lagrangian", "mania", "--exact", "cuberoot",
                     "--n", "64", "--power", "3", "--k", "4"]) == 2
        assert "autonomous integrand" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, detail", [
        ("header_only.csv", "t,y\n", "no rows"),
        ("word.csv", "t,y\n0,1\n0.5,abc\n1,2\n", "line 3"),
        ("short_row.csv", "t,y\n0,1\n0.5\n1,2\n", "line 3"),
        ("no_values.json", '{"nodes": [0, 1]}', "KeyError('values')"),
        ("string_value.json", '{"nodes": [0, 1], "values": [0, "one"]}', "'one'"),
        ("empty.csv", "", "header 't,y'"),
        ("other_header.csv", "x,y\n0,1\n1,2\n", "header 't,y'"),
        ("blank_rows_only.csv", "t,y\n\r\n", "no rows"),
        ("short_after_blank.csv", "t,y\n0,1\n\n0.5\n", "line 4"),
        ("not_an_object.json", "[0, 1]", "TypeError"),
        ("ragged.json", '{"nodes": [[0], [1, 2]], "values": [0, 1]}', "ValueError"),
        ("bad_syntax.json", '{"nodes": [0, 1],', "Expecting"),
    ])
    def test_malformed_trajectory_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                               name, text, detail):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        path = tmp_path / name
        path.write_text(text)
        assert main(["energy", "--lagrangian", "sqrt_chain",
                     "--trajectory", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and detail in err

    @pytest.mark.parametrize("text", [
        "t,y\r\n0,1\r\n0.5,2\r\n1,3\r\n",          # CRLF line endings
        "t,y\n\n0,1\n\n0.5,2\n1,3\n\n",             # blank lines
        " t , y \n0,1\n0.5,2\n1,3\n",                 # spaces around the header
        "t,y\r0,1\r0.5,2\r1,3\r",                     # CR line endings
        't,y\n"0","1"\n0.5,2\n1,3,extra\n',           # quoted cells, a third column
    ])
    def test_trajectory_csv_layouts_read_as_before(self, tmp_path, text):
        path = tmp_path / "y.csv"
        path.write_bytes(text.encode())
        y = cli._load_trajectory(str(path))
        assert y.mesh.nodes.tolist() == [0.0, 0.5, 1.0]
        assert y.values.tolist() == [1.0, 2.0, 3.0]

    def test_config_round_trip_is_canonical(self, monkeypatch):
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
        parser = _build_parser()
        args = parser.parse_args(["repar", "--lagrangian", "sqrt_chain",
                                  "--exact", "sqrt", "--k", "2,4"])
        config = _config_from_args(args)
        first = config.canonical_dict()
        rebuilt = RunConfig(subcommand="repar", **{
            "lagrangian": first["lagrangian"], "exact": first["exact"],
            "a": first["a"], "b": first["b"], "n": first["n"],
            "power": first["power"], "order": first["order"],
            "k_grid": tuple(first["k_grid"]), "seed": first["seed"],
        })
        assert rebuilt.canonical_dict() == first

    def test_necessary_check_formats_each_sample_once(self, tmp_path, monkeypatch):
        """--csv-out reuses the JSON report's float text of the EL samples:
        it formats no float, and both files keep their bytes."""
        monkeypatch.delenv("LAVLAB_SEED", raising=False)
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

    def test_demo_runs(self, tmp_path):
        res = run_cli(["demo", "--n", "128", "--k", "2,4"])
        assert res.returncode == 0
        assert "Lip(y_k)" in res.stderr

    def test_parallel_scan_matches_serial(self, tmp_path):
        base = ["gap-scan", "--n", "30,50", "--M", "4,6", "--restarts", "1",
                "--seed", "3", "--order", "3"]
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert run_cli(base + ["--out", str(serial)]).returncode == 0
        assert run_cli(base + ["--jobs", "2", "--out", str(parallel)]).returncode == 0
        a = json.loads(serial.read_text())
        b = json.loads(parallel.read_text())
        assert a["report"] == b["report"]

    def test_csv_format_writes_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli(["gap-scan", "--n", "30", "--M", "4", "--restarts", "1",
                       "--seed", "3", "--order", "3", "--format", "csv",
                       "--out", str(out)])
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
