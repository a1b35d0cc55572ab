"""Residual checkers for the two first-order necessary conditions.

Both checkers work on piecewise-linear data with a staggered grid: the
velocity-partial is evaluated at cell midpoints using the exact cell slope,
and its discrete time derivative lives at the interior nodes.  Both read
L and its partials through `lagrangian.jet`, one call per grid, so a spec
that states no derivatives is refused, and every midpoint is formed by
`trajectory.midpoints`, which cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ArgumentError, UnsupportedLagrangianError
from .lagrangian import LagrangianSpec, jet
from .trajectory import Trajectory, float_texts, midpoints, row_pieces


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals with their maximum magnitude.

    `samples` is a read-only (n, 2) array of (t, residual) rows; `skipped`
    is a read-only array of the sample times where the integrand's partials
    were singular; `erdmann_constant` is the recovered constant for the
    constancy check (None for the Euler-Lagrange residual).
    """

    samples: np.ndarray
    max_abs: float
    mesh_resolution: int
    skipped: np.ndarray = ()
    erdmann_constant: float | None = None

    def __post_init__(self):
        for name, shape in (("samples", (-1, 2)), ("skipped", -1)):
            arr = np.array(getattr(self, name), dtype=float).reshape(shape)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def sample_texts(self) -> list[str]:
        """float_texts of `samples`, row-major, formatted on first use and
        kept, so the JSON report and the CSV share them."""
        return list(float_texts(self.samples))

    def samples_to_csv(self, f) -> None:
        """Write a 't,residual' header and one line per sample, PIECE
        lines at a time."""
        f.write("t,residual\n")
        for _, texts in row_pieces(self.samples, self.sample_texts):
            f.write("".join(map("%s,%s\n".__mod__, zip(texts, texts))))


def el_residual(spec: LagrangianSpec, y: Trajectory) -> ResidualReport:
    """Euler-Lagrange residual L_y - d/dt L_v at the interior nodes.

    d/dt L_v is the staggered difference of midpoint evaluations (cell
    slopes as velocities); L_y uses the average of the adjacent slopes.
    Nodes whose stencil hits a singular point are skipped and reported.
    """
    if y.mesh.n_cells < 3:
        raise ArgumentError("Euler-Lagrange residual needs at least 3 cells")
    nodes = y.mesh.nodes
    vals = y.values
    h = y.mesh.widths
    d = y.cell_derivatives()
    t_int = nodes[1:-1]
    # the node jet first: the other order measured a 5% higher peak RSS on
    # a 1e5-cell check, from the heap layout it leaves
    ly_node = jet(spec, t_int, vals[1:-1], midpoints(d))[1]
    lv_mid = jet(spec, midpoints(nodes), midpoints(vals), d)[2]

    delta = midpoints(h)
    with np.errstate(invalid="ignore"):
        res = ly_node - (lv_mid[1:] - lv_mid[:-1]) / delta
    good = np.isfinite(res)
    max_abs = float(np.max(np.abs(res[good]))) if good.any() else math.nan
    return ResidualReport(samples=np.column_stack((t_int[good], res[good])),
                          max_abs=max_abs, mesh_resolution=y.mesh.n_cells,
                          skipped=t_int[~good])


def dbr_residual(spec: LagrangianSpec, y: Trajectory) -> ResidualReport:
    """Deviation of the Erdmann function E = L - y' L_v from constancy.

    Only autonomous integrands are supported (E is then constant along a
    minimizer); E is evaluated at cell midpoints and compared against its
    mean, which is reported as the recovered constant.
    """
    if not spec.autonomous:
        raise UnsupportedLagrangianError(
            f"{spec.id}: the constancy check requires an autonomous integrand")
    nodes = y.mesh.nodes
    vals = y.values
    d = y.cell_derivatives()
    mids = midpoints(nodes)
    l_mid, _, lv_mid = jet(spec, mids, midpoints(vals), d)
    e = l_mid - d * lv_mid
    good = np.isfinite(e)
    if not np.any(good):
        raise ArgumentError("all midpoint evaluations were singular")
    const = float(np.mean(e[good]))
    res = e - const
    return ResidualReport(samples=np.column_stack((mids[good], res[good])),
                          max_abs=float(np.max(np.abs(res[good]))),
                          mesh_resolution=y.mesh.n_cells, skipped=mids[~good],
                          erdmann_constant=const)


def catenary(alpha: float, beta: float = 0.0) -> Callable:
    """The curve t -> cosh(alpha t + beta) / alpha (alpha != 0)."""
    if alpha == 0:
        raise ArgumentError("alpha must be nonzero")

    def f(t):
        return np.cosh(alpha * np.asarray(t, dtype=float) + beta) / alpha

    return f


def _bisect(g: Callable[[float], float], lo: float, hi: float,
            tol: float = 1e-14, max_iter: int = 200) -> float:
    glo = g(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0 or (hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if (glo < 0) == (gm < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_catenary(a: float, A: float, b: float, B: float) -> tuple[float, float]:
    """Fit (alpha, beta) so cosh(alpha t + beta)/alpha hits (a, A) and (b, B).

    Eliminating beta leaves a single equation in alpha, solved by bisection
    on the first sign change from small alpha (scanned up to 60); the
    smallest positive solution is returned.
    """
    if min(A, B) <= 0:
        raise ArgumentError("boundary values must be positive")
    if not b > a:
        raise ArgumentError("need b > a")

    def g(alpha: float) -> float:
        dd = alpha * (a - b) / 2.0
        c = alpha * (A + B) / (2.0 * math.cosh(dd))
        s = alpha * (A - B) / (2.0 * math.sinh(dd))
        return c * c - s * s - 1.0

    grid = np.linspace(1e-6, 60.0, 4096)
    prev_alpha, prev_val = grid[0], g(grid[0])
    root = None
    for alpha in grid[1:]:
        val = g(float(alpha))
        if prev_val == 0.0:
            root = prev_alpha
            break
        if (prev_val < 0) != (val < 0):
            root = _bisect(g, float(prev_alpha), float(alpha))
            break
        prev_alpha, prev_val = float(alpha), val
    if root is None:
        raise ArgumentError("no catenary through the given boundary points")

    dd = root * (a - b) / 2.0
    sinh_u = root * (A - B) / (2.0 * math.sinh(dd))
    u = math.asinh(sinh_u)
    beta = u - root * (a + b) / 2.0
    # verify both boundary residuals before returning
    for t, val in ((a, A), (b, B)):
        if abs(math.cosh(root * t + beta) / root - val) > 1e-8 * max(1.0, abs(val)):
            raise ArgumentError("catenary fit did not converge to the boundary data")
    return root, beta
