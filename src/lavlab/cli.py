"""Command-line front door.

Subcommands: catalog, energy, repar, necessary-check, gap-scan, demo.
Configuration may come from flags or a JSON file (flags override the file;
the LAVLAB_SEED environment variable overrides both for the seed).  Output
JSON uses sorted keys and shortest-round-trip float formatting, so the same
config always produces byte-identical files.

Exit codes: 0 success, 2 configuration error (including an integrand the
subcommand does not support and a malformed trajectory file), 3 infeasible
experiment, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
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
                         sample)

SUBCOMMANDS = ("catalog", "energy", "repar", "necessary-check", "gap-scan", "demo")

DEFAULT_SEED = gapscan.DEFAULT_SEED

# Named exact profiles accepted by --exact, with exact derivatives.
EXACT_CURVES: dict[str, tuple[Callable, Callable]] = {
    "identity": (lambda t: np.asarray(t, dtype=float),
                 lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "sqrt": (np.sqrt, lambda t: 0.5 / np.sqrt(t)),
    "cuberoot": (np.cbrt, lambda t: np.cbrt(t) / (3.0 * np.asarray(t, dtype=float))),
    "catenary": (lambda t: np.cosh(t), lambda t: np.sinh(t)),
}


@dataclass
class RunConfig:
    """Validated run description; `canonical_dict` is its stable JSON form."""

    subcommand: str
    lagrangian: Any = None          # catalog id or {"polynomial": [...]}
    exact: str | None = None
    trajectory_path: str | None = None
    a: float = 0.0
    b: float = 1.0
    n: int = 256
    power: float = 1.0
    order: int = DEFAULT_ORDER
    k_grid: tuple[float, ...] = ()
    M_grid: tuple[float, ...] = ()
    n_grid: tuple[int, ...] = ()
    restarts: int = 8
    seed: int = DEFAULT_SEED
    tol: float = 1e-6
    jobs: int = 1
    out: str | None = None
    csv_out: str | None = None
    fmt: str = "json"

    def canonical_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "lagrangian": self.lagrangian,
            "exact": self.exact,
            "trajectory": self.trajectory_path,
            "a": self.a, "b": self.b, "n": self.n, "power": self.power,
            "order": self.order,
            "k_grid": list(self.k_grid), "M_grid": list(self.M_grid),
            "n_grid": list(self.n_grid),
            "restarts": self.restarts, "seed": self.seed, "tol": self.tol,
            "jobs": self.jobs, "format": self.fmt,
        }

    def validate(self) -> None:
        issues = []
        if self.subcommand not in SUBCOMMANDS:
            issues.append(f"unknown subcommand {self.subcommand!r}")
        if isinstance(self.lagrangian, str) and self.lagrangian not in CATALOG_IDS:
            issues.append(
                f"unknown lagrangian id {self.lagrangian!r}; valid ids: "
                + ", ".join(CATALOG_IDS))
        if not self.b > self.a:
            issues.append(f"need a < b (got a={self.a}, b={self.b})")
        if self.n < 1:
            issues.append("n must be >= 1")
        if self.power < 1:
            issues.append("power must be >= 1")
        if self.order < 1:
            issues.append("order must be >= 1")
        if self.exact is not None and self.exact not in EXACT_CURVES:
            issues.append(
                f"unknown exact curve {self.exact!r}; valid: "
                + ", ".join(sorted(EXACT_CURVES)))
        if self.fmt not in ("json", "csv"):
            issues.append("format must be 'json' or 'csv'")
        if self.jobs < 1:
            issues.append("jobs must be >= 1")
        if self.subcommand == "repar" and not self.k_grid:
            issues.append("repar needs a non-empty --k grid")
        if self.subcommand == "gap-scan" and (not self.n_grid or not self.M_grid):
            issues.append("gap-scan needs non-empty --n and --M grids")
        if issues:
            raise ConfigError("; ".join(issues))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _resolve_spec(config: RunConfig):
    lag = config.lagrangian
    if lag is None:
        raise ConfigError("a lagrangian is required")
    if isinstance(lag, str):
        return catalog(lag)
    if isinstance(lag, dict) and "polynomial" in lag:
        return polynomial_lagrangian(lag["polynomial"])
    raise ConfigError(f"unrecognized lagrangian config {lag!r}")


def _load_trajectory(path: str) -> Trajectory:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"trajectory file not found: {path}")
    try:
        if p.suffix.lower() == ".csv":
            with open(p, newline="") as f:
                return Trajectory.from_csv(f)
        with open(p) as f:
            return Trajectory.from_json_dict(json.load(f))
    except (ArgumentError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"trajectory file {path}: {exc}") from None


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_floats(a, texts: Callable) -> Iterable[str]:
    """texts(a), the float texts of a, with json's spelling of the
    non-finite values."""
    out = texts(a)
    if np.isfinite(a).all():
        return out
    return (_JSON_NONFINITE.get(t, t) for t in out)


def _dumps(obj: Any, texts: Callable | None = None) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\n"`, byte for byte,
    with a non-empty 1-D or 2-D float array written by one join over its
    entries instead of one encoder call per element.  Dict keys are str.
    `texts` gives an array's float texts (default `float_texts`), so a run
    that also writes the array to a CSV can format it once."""
    out: list[str] = []
    _encode(obj, "\n", out, texts or float_texts)
    out.append("\n")
    return "".join(out)


def _encode(obj: Any, nl: str, out: list[str], texts: Callable) -> None:
    """Append obj's JSON to out; nl is a newline and the indent of obj's line."""
    inner = nl + "  "
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.extend(_json_floats(obj, texts))
    elif (isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
          and obj.ndim in (1, 2) and obj.size):
        items = _json_floats(obj, texts)
        if obj.ndim == 2:  # rows of shape[1] entries, laid out as nested lists
            row = inner + "  "
            items = map(("," + row).join, zip(*[iter(items)] * obj.shape[1]))
            out += ("[", inner, "[", row, f"{inner}],{inner}[{row}".join(items),
                    inner, "]", nl, "]")
        else:
            out += ("[", inner, ("," + inner).join(items), nl, "]")
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), nl, out, texts)
    elif isinstance(obj, (list, tuple, dict)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out += (sep, encode_basestring_ascii(key), ": ")
            _encode(value, inner, out, texts)
            sep = "," + inner
        out += (nl, "}")
    elif isinstance(obj, (list, tuple)):
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _encode(value, inner, out, texts)
            sep = "," + inner
        out += (nl, "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_outputs(config: RunConfig, payload: dict,
                   csv_writer: Callable | None = None,
                   texts: Callable | None = None) -> None:
    if config.fmt == "csv":
        if csv_writer is None:
            raise ConfigError(
                f"{config.subcommand} has no CSV form; use the default json format")
        if config.out:
            with open(config.out, "w", encoding="utf-8", newline="") as f:
                csv_writer(f)
        else:
            csv_writer(sys.stdout)
    else:
        text = _dumps(payload, texts)
        if config.out:
            Path(config.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    if config.csv_out and csv_writer is not None:
        with open(config.csv_out, "w", encoding="utf-8", newline="") as f:
            csv_writer(f)


# -- subcommand runners -------------------------------------------------------


def _run_catalog(config: RunConfig) -> dict:
    entries = {}
    for ident in CATALOG_IDS:
        spec = catalog(ident)
        entries[ident] = {
            "autonomous": spec.autonomous,
            "convex_in_v": spec.convex_in_v,
            "extended": spec.extended,
        }
    return {"config": config.canonical_dict(), "catalog": entries}


def _run_energy(config: RunConfig) -> dict:
    spec = _resolve_spec(config)
    payload: dict[str, Any] = {"config": config.canonical_dict(), "lagrangian": spec.id}
    if config.exact is not None:
        f, df = EXACT_CURVES[config.exact]
        family = graded_family(config.a, config.b, config.n, config.power)
        res = energy_converged(spec, f, family,
                               order=config.order, tol=config.tol, dy_exact=df)
        payload["energy"] = res.to_json_dict()
        value = res.value
    else:
        if config.trajectory_path is None:
            raise ConfigError("energy needs --exact or --trajectory")
        traj = _load_trajectory(config.trajectory_path)
        report = energy(spec, traj, config.order)
        payload["energy"] = report.to_json_dict()
        value = report.value
    if spec.id == "surface_of_revolution":
        payload["value_over_two_pi"] = value / TWO_PI
        sys.stderr.write(f"F = {value:.12g}  (F / 2 pi = {value / TWO_PI:.12g})\n")
    else:
        sys.stderr.write(f"F = {value:.12g}\n")
    return payload


def _run_repar(config: RunConfig) -> dict:
    spec = _resolve_spec(config)
    if config.exact is not None:
        f, _ = EXACT_CURVES[config.exact]
        y = sample(f, graded_mesh(config.a, config.b, config.n, config.power))
    elif config.trajectory_path is not None:
        y = _load_trajectory(config.trajectory_path)
    else:
        raise ConfigError("repar needs --exact or --trajectory")
    prepared = ReparInput.of(spec, y, config.order)
    rows, k_rows = [], []
    for k in sorted(config.k_grid):
        res = prepared.cap(k)
        rows.append({
            "k": k,
            "measure_s": res.plan.measure_s,
            "measure_a": res.plan.measure_a,
            "lip": res.lip_after,
            "energy_before": res.energy_before,
            "energy_after": res.energy_after,
            "gap": res.gap,
        })
        k_rows.append(KRow.of(res))
        del res  # one capped trajectory alive at a time
    header = f"{'k':>8} {'|S_k|':>12} {'|A_k|':>12} {'Lip(y_k)':>12} " \
             f"{'F(y)':>14} {'F(y_k)':>14} {'gap':>12}"
    lines = [header]
    for r in rows:
        lines.append(f"{r['k']:8g} {r['measure_s']:12.5g} {r['measure_a']:12.5g} "
                     f"{r['lip']:12.5g} {r['energy_before']:14.8g} "
                     f"{r['energy_after']:14.8g} {r['gap']:12.5g}")
    sys.stderr.write("\n".join(lines) + "\n")
    return {
        "config": config.canonical_dict(),
        "rows": rows,
        # ReparInput.of has already refused non-autonomous integrands
        "K": FindKReport.of(k_rows).K if spec.convex_in_v else None,
    }


def _run_necessary(config: RunConfig) -> tuple[dict, Callable, Callable]:
    """(payload, CSV writer of the EL samples, float texts for the JSON
    writer): the EL samples are formatted once for both outputs."""
    spec = _resolve_spec(config)
    if config.trajectory_path is None:
        raise ConfigError("necessary-check needs --trajectory")
    y = _load_trajectory(config.trajectory_path)
    el = necessary.el_residual(spec, y)
    payload: dict[str, Any] = {
        "config": config.canonical_dict(),
        "el": el.to_json_dict(),
    }
    if spec.autonomous:
        payload["dbr"] = necessary.dbr_residual(spec, y).to_json_dict()
    else:
        payload["dbr"] = None

    def texts(a) -> Iterable[str]:
        return el.sample_texts if a is el.samples else float_texts(a)

    return payload, el.samples_to_csv, texts


def _run_gap_scan(config: RunConfig) -> tuple[dict, Callable]:
    report = gapscan.mania_two_endpoint_scan(
        config.n_grid, config.M_grid, restarts=config.restarts,
        seed=config.seed, order=config.order, jobs=config.jobs)
    payload = {"config": config.canonical_dict(), "report": report.to_json_dict()}
    return payload, report.rows_to_csv


def _run_demo(config: RunConfig) -> dict:
    spec = catalog("sqrt_chain")
    mesh = graded_mesh(0.0, 1.0, config.n, max(config.power, 2.0))
    k_grid = config.k_grid or (2, 4, 8, 16, 32, 64)
    rows = gapscan.avoidance_demo(spec, np.sqrt, mesh, k_grid, config.order)
    lines = [f"{'k':>6} {'Lip(y_k)':>12} {'F(y)':>14} {'F(y_k)':>14} {'gap':>12} {'1/k':>10}"]
    for r in rows:
        lines.append(f"{r.k:6g} {r.lip_after:12.5g} {r.energy_before:14.8g} "
                     f"{r.energy_after:14.8g} {r.gap:12.5g} {1.0 / r.k:10.5g}")
    sys.stderr.write("\n".join(lines) + "\n")
    return {"config": config.canonical_dict(),
            "rows": [r.to_json_dict() for r in rows]}


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    config.validate()
    csv_writer = texts = None
    if config.subcommand == "catalog":
        payload = _run_catalog(config)
    elif config.subcommand == "energy":
        payload = _run_energy(config)
    elif config.subcommand == "repar":
        payload = _run_repar(config)
    elif config.subcommand == "necessary-check":
        payload, csv_writer, texts = _run_necessary(config)
    elif config.subcommand == "gap-scan":
        payload, csv_writer = _run_gap_scan(config)
    else:
        payload = _run_demo(config)
    _write_outputs(config, payload, csv_writer, texts)
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lavlab",
        description="Laboratory for one-dimensional variational energies")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--csv-out", dest="csv_out", help="write the CSV rows here")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"])
        p.add_argument("--order", type=int, help="quadrature order per cell")
        p.add_argument("--seed", type=int, help="64-bit experiment seed")

    def mesh_args(p):
        p.add_argument("--a", type=float)
        p.add_argument("--b", type=float)
        p.add_argument("--n", type=int, help="number of mesh cells")
        p.add_argument("--power", type=float, help="mesh grading power (>= 1)")

    p = sub.add_parser("catalog", help="list catalog ids and flags")
    common(p)

    p = sub.add_parser("energy", help="energy of a trajectory or exact profile")
    common(p)
    mesh_args(p)
    p.add_argument("--lagrangian")
    p.add_argument("--exact", help="named exact profile: " + ", ".join(sorted(EXACT_CURVES)))
    p.add_argument("--trajectory", dest="trajectory_path", help="CSV or JSON trajectory file")
    p.add_argument("--tol", type=float, help="refinement tolerance for --exact")

    p = sub.add_parser("repar", help="slope-capping sweep over a k grid")
    common(p)
    mesh_args(p)
    p.add_argument("--lagrangian")
    p.add_argument("--exact")
    p.add_argument("--trajectory", dest="trajectory_path")
    p.add_argument("--k", dest="k_grid", type=_parse_floats, help="comma-separated k grid")

    p = sub.add_parser("necessary-check", help="Euler-Lagrange and constancy residuals")
    common(p)
    p.add_argument("--lagrangian")
    p.add_argument("--trajectory", dest="trajectory_path", required=False)

    p = sub.add_parser("gap-scan", help="bounded-slope scan of Mania's problem")
    common(p)
    p.add_argument("--n", dest="n_grid", type=_parse_ints, help="comma-separated mesh sizes")
    p.add_argument("--M", dest="M_grid", type=_parse_floats, help="comma-separated slope bounds")
    p.add_argument("--restarts", type=int)
    p.add_argument("--jobs", type=int, help="parallel mesh-size groups (default 1)")

    p = sub.add_parser("demo", help="avoidance sweep for sqrt_chain on sqrt(t)")
    common(p)
    mesh_args(p)
    p.add_argument("--k", dest="k_grid", type=_parse_floats)

    return parser


_CONFIG_KEYS = {
    "lagrangian", "exact", "trajectory", "a", "b", "n", "power", "order",
    "k_grid", "M_grid", "n_grid", "restarts", "seed", "tol", "jobs", "format",
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, Any] = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {args.config}")
        raw = json.loads(path.read_text())
        unknown = set(raw) - _CONFIG_KEYS - {"subcommand"}
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        file_values = raw

    config = RunConfig(subcommand=args.subcommand)
    renames = {"trajectory": "trajectory_path", "format": "fmt"}
    for key, value in file_values.items():
        if key == "subcommand":
            continue
        attr = renames.get(key, key)
        if attr in ("k_grid", "M_grid"):
            value = tuple(float(x) for x in value)
        if attr == "n_grid":
            value = tuple(int(x) for x in value)
        setattr(config, attr, value)

    for attr in ("lagrangian", "exact", "trajectory_path", "a", "b", "n",
                 "power", "order", "k_grid", "M_grid", "n_grid", "restarts",
                 "seed", "tol", "jobs", "out", "csv_out", "fmt"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(config, attr, value)

    env_seed = os.environ.get("LAVLAB_SEED")
    if env_seed is not None:
        try:
            config.seed = int(env_seed, 0)
        except ValueError:
            raise ConfigError(f"LAVLAB_SEED must be an integer, got {env_seed!r}")
    return config


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
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
