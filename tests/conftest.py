"""Shared helpers: random trajectory factories, an independent
adaptive-quadrature oracle (scipy), and the acceptance summary hook."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from lavlab import Mesh, Trajectory

ACCEPTANCE_LINES: list[str] = []

# Subprocesses (`python -m lavlab`, the demos) import this checkout's package too.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_mesh(rng: np.random.Generator, a: float = 0.0, b: float = 1.0,
                max_cells: int = 24) -> Mesh:
    n = int(rng.integers(2, max_cells + 1))
    interior = np.sort(rng.uniform(a, b, size=n - 1))
    nodes = np.concatenate([[a], interior, [b]])
    # drop near-duplicates, keep at least one interior node
    keep = np.concatenate([[True], np.diff(nodes) > 1e-6 * (b - a)])
    nodes = nodes[keep]
    if nodes.size < 3:
        nodes = np.array([a, (a + b) / 2, b])
    nodes[-1] = b
    return Mesh(nodes)


def random_trajectory(rng: np.random.Generator, lo: float = -2.0,
                      hi: float = 2.0, **mesh_kw) -> Trajectory:
    mesh = random_mesh(rng, **mesh_kw)
    return Trajectory(mesh, rng.uniform(lo, hi, size=mesh.nodes.size))


def oracle_energy(spec, traj: Trajectory) -> float:
    """Adaptive-quadrature energy of the linear interpolant, cellwise.

    Independent of the package's Gauss-Legendre path.
    """
    total = 0.0
    nodes = traj.mesh.nodes
    vals = traj.values
    d = traj.cell_derivatives()
    for i in range(traj.mesh.n_cells):
        def f(t, i=i):
            y = vals[i] + d[i] * (t - nodes[i])
            return float(spec.eval(t, y, d[i]))
        part, _ = quad(f, nodes[i], nodes[i + 1], limit=200)
        total += part
    return total


def alternating_mesh(a: float, b: float, n: int, ratio: float = 0.7) -> Mesh:
    """Widths alternating 1 : ratio; generic enough to defeat the staggered
    scheme's uniform-mesh supercancellation."""
    pattern = np.tile([1.0, ratio], (n + 1) // 2)[:n]
    w = pattern / pattern.sum() * (b - a)
    return Mesh(np.concatenate([[a], a + np.cumsum(w)]))
