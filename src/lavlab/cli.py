"""Command-line front door.

Subcommands: catalog, energy, repar, necessary-check, gap-scan, demo.  Each
subcommand declares the settings its runner reads (`COMMANDS`), and each
setting is declared once, with its flag, its config-file key, its type, its
default and its range check.  That declaration makes the subcommand's flags,
the keys its `--config` JSON file may hold (any other key is an error), and
the report's `config` echo, which lists exactly those settings with the
values that ran.  Flags override the file and the file overrides the
defaults, so feeding a report's `config` back through `--config` reproduces
the report.  Output JSON uses sorted keys and shortest-round-trip float
formatting, so the same config always produces byte-identical files.  A
report dataclass is written as the dict of its fields, so its JSON keys are
its field names.  The JSON report goes to `--out` (stdout when not given);
the subcommands with CSV rows write them to `--csv-out`.

Exit codes: 0 success, 2 configuration error (including an integrand the
subcommand does not support, a malformed trajectory file, and a named file
that cannot be opened), 3 infeasible experiment, 1 internal error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import gapscan, necessary
from .errors import (ArgumentError, CatalogKeyError, ConfigError,
                     InfeasibleError, LavlabError, UnsupportedLagrangianError)
from .functional import DEFAULT_ORDER, energy, energy_converged
from .lagrangian import CATALOG_IDS, TWO_PI, catalog, polynomial_lagrangian
from .repar import FindKReport, KRow, ReparInput
from .trajectory import (Trajectory, float_texts, graded_family, graded_mesh,
                         row_pieces, sample)

# Named exact profiles accepted by --exact, with exact derivatives.
EXACT_CURVES: dict[str, tuple[Callable, Callable]] = {
    "identity": (lambda t: np.asarray(t, dtype=float),
                 lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "sqrt": (np.sqrt, lambda t: 0.5 / np.sqrt(t)),
    "cuberoot": (np.cbrt, lambda t: np.cbrt(t) / (3.0 * np.asarray(t, dtype=float))),
    "catenary": (lambda t: np.cosh(t), lambda t: np.sinh(t)),
}


@dataclass(frozen=True)
class Setting:
    """One value a subcommand reads.

    `key` names it in a config file and in the report's `config` echo, and
    `flag` sets it on the command line.  `cast` is its type; a grid is a
    list of such values, comma-separated on the flag.  A setting whose
    default is None must be given.  `check(value)` says what is wrong with a
    value, or returns None.
    """

    key: str
    flag: str
    cast: Callable[[Any], Any]
    default: Any = None
    grid: bool = False
    check: Callable[[Any], str | None] | None = None
    help: str | None = None

    def parse(self, text: str) -> Any:
        """The value a flag's text gives."""
        try:
            if self.grid:
                return tuple(self.cast(x) for x in text.split(",") if x.strip())
            return self.cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None

    def load(self, value: Any) -> Any:
        """A given value (a config-file entry, or a parsed flag) as the
        setting's type; the value must already be of that type."""
        is_list = isinstance(value, (list, tuple))
        items = value if self.grid and is_list else [value]
        if any(isinstance(x, float) and math.isnan(x) for x in items):
            raise ConfigError(f"{self.key} must not be NaN: {value!r}")
        try:
            ok = is_list == self.grid and all(
                type(x) is not bool and self.cast(x) == x for x in items)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"{self.key} has the wrong type: {value!r}")
        return tuple(map(self.cast, items)) if self.grid else self.cast(value)


def _lagrangian(value: Any) -> str | dict:
    """A catalog id, or (in a config file) {"polynomial": [[c, i, j, k], ...]}."""
    if not isinstance(value, (str, dict)):
        raise TypeError(value)
    return value


def _at_least(low: int) -> Callable[[Any], str | None]:
    return lambda value: None if value >= low else f"must be >= {low}"


def _one_of(names: Sequence[str]) -> Callable[[Any], str | None]:
    return lambda value: None if value in names else "must be one of " + ", ".join(names)


LAGRANGIAN = Setting("lagrangian", "--lagrangian", _lagrangian,
                     help="catalog id: " + ", ".join(CATALOG_IDS))
EXACT = Setting("exact", "--exact", str, check=_one_of(sorted(EXACT_CURVES)),
                help="named exact profile: " + ", ".join(sorted(EXACT_CURVES)))
TRAJECTORY = Setting("trajectory", "--trajectory", str,
                     help="CSV or JSON trajectory file")
A = Setting("a", "--a", float, 0.0, help="left end of the mesh")
B = Setting("b", "--b", float, 1.0, help="right end of the mesh")
N = Setting("n", "--n", int, 256, check=_at_least(1), help="number of mesh cells")
POWER = Setting("power", "--power", float, 1.0, check=_at_least(1),
                help="mesh grading power (>= 1)")
ORDER = Setting("order", "--order", int, DEFAULT_ORDER, check=_at_least(1),
                help="Gauss points per cell; the weights sum to exactly 2 at "
                     "orders 1-8, within 6 eps beyond")
TOL = Setting("tol", "--tol", float, 1e-6, check=_at_least(0),
              help="refinement tolerance for --exact")
K_GRID = Setting("k_grid", "--k", float, grid=True, help="comma-separated k grid")
N_GRID = Setting("n_grid", "--n", int, grid=True, help="comma-separated mesh sizes")
M_GRID = Setting("M_grid", "--M", float, grid=True, help="comma-separated slope bounds")
RESTARTS = Setting("restarts", "--restarts", int, 8, check=_at_least(0),
                   help="seeded restarts per slope bound: the straight line plus a "
                        "random 8-mode sine series, the same function on every mesh")
SEED = Setting("seed", "--seed", int, gapscan.DEFAULT_SEED, check=_at_least(0),
               help="64-bit seed of the restarts; with the bound M it keys "
                    "their sine coefficients")


@dataclass(frozen=True)
class Command:
    """A subcommand: its runner and the settings the runner reads.

    `inputs` are alternative groups of settings.  A run gives the first
    setting of exactly one group, and reads the other settings of that group
    only.  A command with `rows` also writes CSV rows: it takes --csv-out,
    and its runner returns (report, CSV writer, float texts for the JSON
    writer or None) instead of the report alone.
    """

    name: str
    help: str
    run: Callable[[dict], Any]
    settings: tuple[Setting, ...] = ()
    inputs: tuple[tuple[Setting, ...], ...] = ()
    rows: bool = False

    @property
    def every_setting(self) -> tuple[Setting, ...]:
        return self.settings + sum(self.inputs, ())


def _resolve_spec(lag: str | dict):
    if isinstance(lag, str):
        return catalog(lag)
    if "polynomial" in lag:
        return polynomial_lagrangian(lag["polynomial"])
    raise ConfigError(f"unrecognized lagrangian config {lag!r}")


def _open(path: str, what: str, mode: str = "r", newline: str | None = None):
    """The user-named file `path` opened as UTF-8 text.  One that cannot be
    opened (missing, in a missing directory, a directory, not permitted)
    is a ConfigError naming it as `what`."""
    try:
        return open(path, mode, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"{what} {path}: {exc.strerror}") from None


def _check_output(path: str, what: str) -> None:
    """Raise now the ConfigError that `_open(path, what, "w")` is sure to
    raise later: `path` is a directory, or its directory is missing or not a
    directory.  Opens and truncates nothing."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return
    raise ConfigError(f"{what} {path}: {os.strerror(code)}")


def _load_trajectory(path: str) -> Trajectory:
    is_csv = Path(path).suffix.lower() == ".csv"
    with _open(path, "trajectory file", newline="" if is_csv else None) as f:
        try:
            if is_csv:
                return Trajectory.from_csv(f)
            return Trajectory.from_json_dict(json.load(f))
        except (ArgumentError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ArgumentError(f"trajectory file {path}: {exc}") from None


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(obj: Any, write: Callable[[str], Any],
                texts: Callable | None = None) -> None:
    """Write `json.dumps(obj, sort_keys=True, indent=2) + "\n"`, byte for
    byte, through `write`, as it is encoded.  A non-empty 1-D or 2-D float
    array goes out in pieces of `trajectory.PIECE` entries (rows, for 2-D),
    each one join, so the text held at any time does not grow with the
    report.  Dict keys are str.  `texts` gives an array's float texts
    (default `float_texts`), so a run that also writes the array to a CSV
    can format it once.  An unencodable payload raises TypeError when the
    writer reaches it, after what comes before it has been written."""
    _encode(obj, "\n", write, texts or float_texts)
    write("\n")


def _encode(obj: Any, nl: str, write: Callable[[str], Any], texts: Callable) -> None:
    """Write obj's JSON; nl is a newline and the indent of obj's line."""
    inner = nl + "  "
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        write(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        write(_JSON_NONFINITE.get(text, text))
    elif (isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
          and obj.ndim in (1, 2) and obj.size):
        _write_array(obj, nl, write, texts(obj))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), nl, write, texts)
    elif isinstance(obj, (list, tuple, dict)) and not obj:
        write("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            write(sep + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, write, texts)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(obj, (list, tuple)):
        sep = "[" + inner
        for value in obj:
            write(sep)
            _encode(value, inner, write, texts)
            sep = "," + inner
        write(nl + "]")
    elif is_dataclass(obj) and not isinstance(obj, type):
        _encode({f.name: getattr(obj, f.name) for f in fields(obj)}, nl, write, texts)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_array(a: np.ndarray, nl: str, write: Callable[[str], Any],
                 texts: Iterable[str]) -> None:
    """Write the non-empty float array a (1-D, or 2-D as nested lists),
    whose row-major float texts are `texts`, one piece of rows per join."""
    inner = nl + "  "
    if a.ndim == 2:
        row = inner + "  "
        lead, sep, end = "[" + inner + "[" + row, f"{inner}],{inner}[{row}", inner + "]" + nl + "]"
    else:
        lead, sep, end = "[" + inner, "," + inner, nl + "]"
    for rows, items in row_pieces(a, texts):
        if not np.isfinite(rows).all():
            items = (_JSON_NONFINITE.get(t, t) for t in items)
        if a.ndim == 2:
            items = map(("," + row).join, zip(*[items] * a.shape[1]))
        write(lead)
        write(sep.join(items))
        lead = sep
    write(end)


# -- subcommand runners -------------------------------------------------------
# Each runner takes the resolved config (`resolve`) and reads every setting
# in it; `run` adds the config itself to the report.


def _run_catalog(config: dict) -> dict:
    entries = {}
    for ident in CATALOG_IDS:
        spec = catalog(ident)
        entries[ident] = {
            "autonomous": spec.autonomous,
            "convex_in_v": spec.convex_in_v,
            "extended": spec.extended,
        }
    return {"catalog": entries}


def _run_energy(config: dict) -> dict:
    spec = _resolve_spec(config["lagrangian"])
    payload: dict[str, Any] = {"lagrangian": spec.id}
    if "exact" in config:
        f, df = EXACT_CURVES[config["exact"]]
        family = graded_family(config["a"], config["b"], config["n"], config["power"])
        res = energy_converged(spec, f, family,
                               order=config["order"], tol=config["tol"], dy_exact=df)
        payload["energy"] = res
        value = res.value
    else:
        traj = _load_trajectory(config["trajectory"])
        report = energy(spec, traj, config["order"])
        payload["energy"] = report.to_json_dict()
        value = report.value
    if spec.id == "surface_of_revolution":
        payload["value_over_two_pi"] = value / TWO_PI
        sys.stderr.write(f"F = {value:.12g}  (F / 2 pi = {value / TWO_PI:.12g})\n")
    else:
        sys.stderr.write(f"F = {value:.12g}\n")
    return payload


def _run_repar(config: dict) -> dict:
    spec = _resolve_spec(config["lagrangian"])
    if "exact" in config:
        f, _ = EXACT_CURVES[config["exact"]]
        y = sample(f, graded_mesh(config["a"], config["b"], config["n"], config["power"]))
    else:
        y = _load_trajectory(config["trajectory"])
    prepared = ReparInput.of(spec, y, config["order"])
    rows, k_rows = [], []
    for k in sorted(config["k_grid"]):
        res = prepared.cap(k)
        rows.append({
            "k": k,
            "measure_s": res.plan.measure_s,
            "measure_a": res.plan.measure_a,
            "lip": res.lip_after,
            "energy_before": res.energy_before,
            "energy_after": res.energy_after,
            "gap": res.gap,
            "changed_cells": res.changed_cells,
        })
        k_rows.append(KRow.of(res))
        del res  # one plan alive at a time
    header = f"{'k':>8} {'|S_k|':>12} {'|A_k|':>12} {'Lip(y_k)':>12} " \
             f"{'F(y)':>14} {'F(y_k)':>14} {'gap':>12}"
    lines = [header]
    for r in rows:
        lines.append(f"{r['k']:8g} {r['measure_s']:12.5g} {r['measure_a']:12.5g} "
                     f"{r['lip']:12.5g} {r['energy_before']:14.8g} "
                     f"{r['energy_after']:14.8g} {r['gap']:12.5g}")
    sys.stderr.write("\n".join(lines) + "\n")
    return {
        "rows": rows,
        # ReparInput.of has already refused non-autonomous integrands
        "K": FindKReport.of(k_rows).K if spec.convex_in_v else None,
    }


def _run_necessary(config: dict) -> tuple[dict, Callable, Callable]:
    """(payload, CSV writer of the EL samples, float texts for the JSON
    writer): the EL samples are formatted once for both outputs."""
    spec = _resolve_spec(config["lagrangian"])
    y = _load_trajectory(config["trajectory"])
    el = necessary.el_residual(spec, y)
    dbr = necessary.dbr_residual(spec, y) if spec.autonomous else None

    def texts(a) -> Iterable[str]:
        return el.sample_texts if a is el.samples else float_texts(a)

    return {"el": el, "dbr": dbr}, el.samples_to_csv, texts


def _run_gap_scan(config: dict) -> tuple[dict, Callable, None]:
    report = gapscan.mania_two_endpoint_scan(
        config["n_grid"], config["M_grid"], restarts=config["restarts"],
        seed=config["seed"], order=config["order"])
    return {"report": report}, report.rows_to_csv, None


def _run_demo(config: dict) -> dict:
    spec = catalog("sqrt_chain")
    mesh = graded_mesh(0.0, 1.0, config["n"], config["power"])
    rows = gapscan.avoidance_demo(spec, np.sqrt, mesh, config["k_grid"], config["order"])
    lines = [f"{'k':>6} {'Lip(y_k)':>12} {'F(y)':>14} {'F(y_k)':>14} {'gap':>12} {'1/k':>10}"]
    for r in rows:
        lines.append(f"{r.k:6g} {r.lip_after:12.5g} {r.energy_before:14.8g} "
                     f"{r.energy_after:14.8g} {r.gap:12.5g} {1.0 / r.k:10.5g}")
    sys.stderr.write("\n".join(lines) + "\n")
    return {"rows": rows}


COMMANDS: dict[str, Command] = {c.name: c for c in (
    Command("catalog", "list catalog ids and flags", _run_catalog),
    Command("energy", "energy of a trajectory or exact profile", _run_energy,
            (LAGRANGIAN, ORDER), ((EXACT, A, B, N, POWER, TOL), (TRAJECTORY,))),
    Command("repar", "slope-capping sweep over a k grid", _run_repar,
            (LAGRANGIAN, ORDER, K_GRID), ((EXACT, A, B, N, POWER), (TRAJECTORY,))),
    Command("necessary-check", "Euler-Lagrange and constancy residuals",
            _run_necessary, (LAGRANGIAN, TRAJECTORY), rows=True),
    Command("gap-scan", "bounded-slope scan of Mania's problem", _run_gap_scan,
            (N_GRID, M_GRID, RESTARTS, SEED, ORDER), rows=True),
    Command("demo", "avoidance sweep for sqrt_chain on sqrt(t)", _run_demo,
            (N, replace(POWER, default=2.0), ORDER,
             replace(K_GRID, default=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0)))),
)}


def resolve(name: str, given: dict[str, Any]) -> dict[str, Any]:
    """The config of a run of subcommand `name`: the settings its runner
    reads, from the values `given` (by flag or config-file key) over their
    defaults.  This is also the report's `config` echo.  Raises ConfigError
    for an unknown key, a value of the wrong type, a missing or out-of-range
    value, and a setting of an input the run does not use."""
    command = COMMANDS[name]
    settings = {s.key: s for s in command.every_setting}
    unknown = sorted(set(given) - set(settings))
    if unknown:
        raise ConfigError(f"unknown config keys for {name}: {', '.join(unknown)}")
    given = {key: settings[key].load(value) for key, value in given.items()}
    chosen = [group for group in command.inputs if group[0].key in given]
    if command.inputs and len(chosen) != 1:
        flags = " or ".join(group[0].flag for group in command.inputs)
        raise ConfigError(f"{name} needs {flags}" if not chosen
                          else f"{name} takes {flags}, not both")
    issues = []
    for group in command.inputs:
        unread = [s.key for s in group if s.key in given]
        if group not in chosen and unread:
            issues.append(f"{name} reads {', '.join(unread)} only with {group[0].flag}")
    config = {"subcommand": name}
    for s in command.settings + sum(chosen, ()):
        value = config[s.key] = given.get(s.key, s.default)
        if value is None:
            issues.append(f"{name} needs {s.flag}")
        elif s.grid and not value:
            issues.append(f"{name} needs a non-empty {s.flag} grid")
        elif s.check and (problem := s.check(value)):
            issues.append(f"{s.key} {problem}")
    if issues:
        raise ConfigError("; ".join(issues))
    return config


def run(config: dict, out: str | None = None, csv_out: str | None = None) -> int:
    """Run a resolved config, write the report (with the config) to `out`,
    stdout when None, and the CSV rows to `csv_out`; returns the exit status.
    An output path that cannot be written fails before the run.  The report
    is written as it is encoded, so only an unencodable payload (a
    programming error) can leave a partial file."""
    command = COMMANDS[config["subcommand"]]
    for path, what in ((out, "report file"), (csv_out, "CSV file")):
        if path:
            _check_output(path, what)
    result = command.run(config)
    body, csv_writer, texts = result if command.rows else (result, None, None)
    report = {"config": config, **body}
    if not csv_out:  # formatting once for two outputs pays only with both
        texts = None
    if out:
        with _open(out, "report file", "w") as f:
            _write_json(report, f.write, texts)
    else:
        _write_json(report, sys.stdout.write, texts)
    if csv_out:
        with _open(csv_out, "CSV file", "w", newline="") as f:
            csv_writer(f)
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lavlab",
        description="Laboratory for one-dimensional variational energies")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="write the report here")
        if command.rows:
            p.add_argument("--csv-out", dest="csv_out", help="write the CSV rows here")
        for s in command.every_setting:
            p.add_argument(s.flag, dest=s.key, type=s.parse, help=s.help)
    return parser


def _read_config_file(path: str, name: str) -> dict[str, Any]:
    """The settings a config file gives; its `subcommand` key, if any, must be `name`."""
    with _open(path, "config file") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    named = raw.pop("subcommand", name)
    if named != name:
        raise ConfigError(f"config file {path} is for subcommand {named!r}, not {name!r}")
    return raw


def _config_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The resolved config of a parsed command line: flags over the --config file."""
    given = _read_config_file(args.config, args.subcommand) if args.config else {}
    for s in COMMANDS[args.subcommand].every_setting:
        if getattr(args, s.key) is not None:
            given[s.key] = getattr(args, s.key)
    return resolve(args.subcommand, given)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config, args.out, getattr(args, "csv_out", None))
    except (ConfigError, CatalogKeyError, ArgumentError,
            UnsupportedLagrangianError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 3
    except LavlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
