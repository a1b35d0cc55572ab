"""The three benchmark workloads: seeded inputs, CLI sessions, output checks.

Each workload is a fixed sequence of `lavlab` command lines (one *session*)
whose inputs are generated from the benchmark seed.  Every session's outputs
are checked against properties that hold for the inputs, so a faster program
that produces wrong numbers counts as failed, not as faster.

Input generation uses numpy and the standard library only; it never calls
lavlab, so a change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Input sizes: "full" is the benchmark proper, "small" is for its self-test.
SIZES = {
    "gap_scan": {
        "full": {"n": "100,200,500", "M": "5,10,20", "restarts": 8},
        "small": {"n": "20,40", "M": "5,10", "restarts": 1},
    },
    "repar_sweep": {
        "full": {"cells": 2 ** 17, "k": (2, 4, 8, 16, 32, 64, 128, 256)},
        "small": {"cells": 2 ** 12, "k": (2, 4, 8, 16, 32, 64)},
    },
    "residual_report": {
        "full": {"cells": 100_000, "exact_n": 1024},
        "small": {"cells": 2_000, "exact_n": 128},
    },
}


@dataclass
class Session:
    """One session: the argv of each CLI call, and the report files it writes.

    `stdout_reports` names the calls (by index) whose report goes to stdout;
    the runner captures that text and stores it under the given file name.
    """

    calls: list[list[str]]
    reports: list[str]
    stdout_reports: dict[int, str] = field(default_factory=dict)
    k_grid_size: int = 0


@dataclass
class CheckResult:
    """Failed checks, and the quality numbers read from the reports.

    `quality` is the end-to-end quality metric (lower is better); `named`
    holds the same result under its own name (gap_floor, repar_K,
    energy_rel_err).
    """

    problems: list[str]
    quality: float | None = None
    named: dict[str, float | None] = field(default_factory=dict)
    iterations: int = 0         # gap_scan: sum of row iterations


# -- seeded inputs -----------------------------------------------------------


def _write_trajectory_csv(path: Path, nodes: np.ndarray, values: np.ndarray) -> None:
    """Same layout as lavlab's trajectory CSV: header t,y, shortest repr floats."""
    lines = ["t,y\n"]
    lines.extend(f"{float(t)!r},{float(y)!r}\n" for t, y in zip(nodes, values))
    path.write_text("".join(lines), encoding="utf-8")


def sqrt_trajectory(seed: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(t) on a power-2 graded mesh of [0, 1] with jittered interior nodes.

    Each interior node moves by a seeded amount of at most a quarter of the
    smaller adjacent cell, so the mesh stays strictly increasing.
    """
    rng = np.random.default_rng([seed, 0x5EED, cells])
    nodes = (np.arange(cells + 1) / cells) ** 2
    h = np.diff(nodes)
    reach = 0.25 * np.minimum(h[:-1], h[1:])
    nodes[1:-1] += rng.uniform(-1.0, 1.0, size=cells - 1) * reach
    return nodes, np.sqrt(nodes)


def catenary_params(seed: int) -> tuple[float, float]:
    """(alpha, beta) of cosh(alpha t + beta)/alpha; every draw is a catenary."""
    rng = np.random.default_rng([seed, 0xCA7E])
    return float(rng.uniform(0.5, 0.9)), float(rng.uniform(-0.3, 0.3))


def alternating_nodes(cells: int) -> np.ndarray:
    """Nodes of [-1, 1] with cell widths alternating in the ratio 1 : 0.7."""
    pattern = np.where(np.arange(cells) % 2 == 0, 1.0, 0.7)
    nodes = np.empty(cells + 1)
    nodes[0] = 0.0
    np.cumsum(pattern, out=nodes[1:])
    nodes = -1.0 + 2.0 * nodes / nodes[-1]
    nodes[-1] = 1.0
    return nodes


def catenary_area(alpha: float, beta: float) -> float:
    """Closed form of (2 pi / alpha) * integral_{-1}^{1} cosh^2(alpha t + beta) dt."""
    integral = 1.0 + (math.sinh(2.0 * (alpha + beta))
                      - math.sinh(2.0 * (beta - alpha))) / (4.0 * alpha)
    return TWO_PI / alpha * integral


def make_inputs(workload: str, seed: int, scale: str, work: Path) -> None:
    """Write the workload's input files into `work` (gap_scan has none)."""
    size = SIZES[workload][scale]
    work.mkdir(parents=True, exist_ok=True)
    if workload == "repar_sweep":
        _write_trajectory_csv(work / "sqrt.csv", *sqrt_trajectory(seed, size["cells"]))
    elif workload == "residual_report":
        alpha, beta = catenary_params(seed)
        nodes = alternating_nodes(size["cells"])
        _write_trajectory_csv(work / "catenary.csv", nodes,
                              np.cosh(alpha * nodes + beta) / alpha)


# -- sessions ----------------------------------------------------------------


def session(workload: str, seed: int, scale: str, work: Path, out: Path) -> Session:
    """The CLI calls of one session, reading inputs from `work`, writing to `out`."""
    size = SIZES[workload][scale]
    if workload == "gap_scan":
        return Session(
            calls=[["gap-scan", "--n", size["n"], "--M", size["M"],
                    "--restarts", str(size["restarts"]), "--seed", str(seed),
                    "--out", str(out / "gap.json")]],
            reports=["gap.json"])
    if workload == "repar_sweep":
        k_grid = size["k"]
        return Session(
            calls=[["repar", "--lagrangian", "sqrt_chain",
                    "--trajectory", str(work / "sqrt.csv"),
                    "--k", ",".join(str(k) for k in k_grid),
                    "--out", str(out / "repar.json")]],
            reports=["repar.json"], k_grid_size=len(k_grid))
    if workload == "residual_report":
        traj = str(work / "catenary.csv")
        return Session(
            calls=[["necessary-check", "--lagrangian", "surface_of_revolution",
                    "--trajectory", traj, "--out", str(out / "necessary.json"),
                    "--csv-out", str(out / "necessary.csv")],
                   ["energy", "--lagrangian", "surface_of_revolution",
                    "--trajectory", traj, "--out", str(out / "energy.json")],
                   ["energy", "--lagrangian", "mania", "--exact", "cuberoot",
                    "--n", str(size["exact_n"]), "--power", "3"]],
            reports=["necessary.json", "necessary.csv", "energy.json", "exact.json"],
            stdout_reports={2: "exact.json"})
    raise KeyError(workload)


# -- output checks -------------------------------------------------------------


def _load(out: Path, name: str):
    return json.loads((out / name).read_text(encoding="utf-8"))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_gap_scan(out: Path, seed: int) -> CheckResult:
    report = _load(out, "gap.json")["report"]
    rows = report["rows"]
    floor = report["floor_estimate"]
    problems = []
    # C7's gates, unchanged.
    if not floor > 10.0 * report["reference_energy"]:
        problems.append(f"floor {floor!r} not above 10 x reference")
    if not floor > 0.0:
        problems.append(f"floor {floor!r} not positive")
    if not all(r["best_energy"] >= 0.0 for r in rows):
        problems.append("a row has negative best_energy")
    if floor != min(r["best_energy"] for r in rows):
        problems.append("floor is not the minimum row energy")
    by_n: dict[int, list[tuple[float, float]]] = {}
    for r in rows:
        by_n.setdefault(r["mesh_n"], []).append((r["slope_bound"], r["best_energy"]))
    for n, pairs in by_n.items():
        energies = [e for _, e in sorted(pairs)]
        if any(b > a for a, b in zip(energies, energies[1:])):
            problems.append(f"n={n}: best_energy increases with M")
    return CheckResult(problems, floor, {"gap_floor": floor},
                       iterations=sum(r["iterations"] for r in rows))


def check_repar_sweep(out: Path, seed: int) -> CheckResult:
    report = _load(out, "repar.json")
    problems = []
    for r in report["rows"]:
        if not r["lip"] <= 2.0 * r["k"] * (1.0 + 1e-12):
            problems.append(f"k={r['k']}: lip {r['lip']!r} above 2k")
    K = report["K"]
    if K is None:
        problems.append("K is null")
        return CheckResult(problems, None, {"repar_K": None})
    for r in report["rows"]:
        if r["k"] >= K and not r["gap"] <= 1.0 / r["k"]:
            problems.append(f"k={r['k']} >= K: gap {r['gap']!r} above 1/k")
    return CheckResult(problems, float(K), {"repar_K": float(K)})


def check_residual_report(out: Path, seed: int) -> CheckResult:
    alpha, beta = catenary_params(seed)
    necessary = _load(out, "necessary.json")
    problems = []
    erdmann = necessary["dbr"]["erdmann_constant"]
    if not _rel(erdmann, TWO_PI / alpha) <= 1e-6:
        problems.append(f"erdmann_constant {erdmann!r} not 2 pi / alpha")
    el = necessary["el"]
    if not el["max_abs"] <= 1e-3:
        problems.append(f"EL max_abs {el['max_abs']!r} above 1e-3")
    with open(out / "necessary.csv", newline="", encoding="utf-8") as f:
        csv_rows = sum(1 for _ in csv.reader(f)) - 1
    if csv_rows != len(el["samples"]):
        problems.append(f"CSV has {csv_rows} rows for {len(el['samples'])} samples")
    value = _load(out, "energy.json")["energy"]["value"]
    area = catenary_area(alpha, beta)
    if not _rel(value, area) <= 1e-6:
        problems.append(f"energy {value!r} not the catenary area {area!r}")
    if _load(out, "exact.json")["energy"]["converged"] is not True:
        problems.append("--exact energy did not converge")
    # Quality: decimal digits the energy loses against the closed form.  The
    # relative error is a few 1e-12 and moves with the seed by tens of
    # percent; its logarithm moves by a few percent.  Floored at the unit
    # roundoff so an exact match still yields a finite number.
    rel_err = _rel(value, area)
    lost_digits = 16.0 + math.log10(max(rel_err, 2.0 ** -53))
    return CheckResult(problems, lost_digits, {"energy_rel_err": rel_err})


CHECKS: dict[str, Callable[[Path, int], CheckResult]] = {
    "gap_scan": check_gap_scan,
    "repar_sweep": check_repar_sweep,
    "residual_report": check_residual_report,
}
