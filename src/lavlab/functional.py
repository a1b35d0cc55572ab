"""Energy evaluation F(y) = integral of L(t, y, y') over [a, b].

Quadrature is composite Gauss-Legendre with interior nodes only, so an
integrable endpoint singularity of the integrand yields large-but-finite
samples; genuine divergence shows up as blow-up under refinement rather
than as an evaluation error.  Results are extended reals: any sample above
1e300 (or non-finite) makes the owning cell, and hence the total, +inf.

Every energy goes through one kernel, `cell_sums`, which walks the cells in
blocks and sums each cell's weighted samples left to right, so a cell's
bits depend neither on the BLAS build nor on the block it falls in.  The
samples of piecewise-linear cells come from one formula, `line_values`,
which the energy and the slope caps reach through their sampler,
`linear_samples`; the slope optimizer, which needs the integrand's jet,
applies it to its mesh's kept Gauss points and reduces whole rows by the
kernel's step, `cell_integrals`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterable

import numpy as np

from .errors import ArgumentError, SamplingError
from .lagrangian import LagrangianSpec
from .trajectory import CELLS, Mesh, Trajectory

INF_THRESHOLD = 1e300

SAMPLES = 2 ** 13  # per jet of the optimizer's rows and the caps: 64 KiB, under malloc's mmap cut
MAX_ORDER = 64  # no composite rule needs more; _gauss's Newton work grows as order^2

DEFAULT_ORDER = 5  # exact for the catalog's polynomial integrands per cell

# Digits of the decimal Newton iteration behind `_gauss`, and the step below
# which it stops: the root is then good to about 45 digits, far past a float.
_DIGITS = 45
_NEWTON_STOP = Decimal("1e-30")

# Named exact profiles, name -> (f, f'), with exact derivatives: `energy
# --exact` and `repar --exact` read them by name.
EXACT_PROFILES: dict[str, tuple[Callable, Callable]] = {
    "identity": (lambda t: np.asarray(t, dtype=float),
                 lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "sqrt": (np.sqrt, lambda t: 0.5 / np.sqrt(t)),
    "cuberoot": (np.cbrt, lambda t: np.cbrt(t) / (3.0 * np.asarray(t, dtype=float))),
    "catenary": (lambda t: np.cosh(t), lambda t: np.sinh(t)),
}


@lru_cache(maxsize=None)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], owned by lavlab: the
    `_legendre_table` of the order, as read-only arrays."""
    if not 1 <= order <= MAX_ORDER:
        raise ArgumentError(f"quadrature order must be >= 1 and <= {MAX_ORDER}, got {order}")
    x, w = map(np.array, _legendre_table(order))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _legendre_table(order: int) -> tuple[list[float], list[float]]:
    """The Gauss-Legendre nodes, ascending, and weights of an order, with
    no numpy and no LAPACK.

    Each positive root of P_order is found by Newton's method in
    `_DIGITS`-digit decimal arithmetic from the classic guess
    cos(pi (i - 1/4) / (order + 1/2)), with P_order and P_order-1 from the
    three-term recurrence, and its weight is 2 / ((1 - x^2) P'(x)^2); each is
    then rounded once to a float.  So the table is correctly rounded, and
    the nodes are odd and the weights even by construction.  Where the
    left-to-right sum of the weights misses 2 (order 7 of orders 1 to 8), the
    middle weight (or pair) is moved by the fewest ulps, at most 16, that
    make it 2, and the exactly rounded sum too where both can hold.  So the
    kernel's fixed-order contraction integrates a constant 1 to exactly each
    cell's width at orders 1 to 8.  Beyond 8 some orders have no such move
    and keep the rounded table, whose sum is then only within 6 eps of 2.
    """
    roots, weights = [], []
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        for i in range(1, order // 2 + 1):  # the positive roots, largest first
            x, step = Decimal(math.cos(math.pi * (i - 0.25) / (order + 0.5))), 1
            while abs(step) >= _NEWTON_STOP:
                p, dp = _legendre(order, x)
                step = p / dp
                x -= step
            roots.append(float(x))
            weights.append(_weight(order, x))
        middle = [_weight(order, Decimal(0))] if order % 2 else []  # an odd order's root 0
    nodes = [-r for r in roots] + [0.0] * (order % 2) + roots[::-1]
    w = weights + middle + weights[::-1]
    if _sum(w) != 2.0:
        mid = range((order - 1) // 2, order // 2 + 1)  # one weight or a pair
        moves = ([v + k * math.ulp(v) if i in mid else v for i, v in enumerate(w)]
                 for k in sorted(range(-16, 17), key=abs))
        fits = [fit for fit in moves if _sum(fit) == 2.0]
        w = next((fit for fit in fits if math.fsum(fit) == 2.0), fits[0] if fits else w)
    return nodes, w


def _legendre(order: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """P_order(x) and P'_order(x), by the three-term recurrence
    (k + 1) P_k+1 = (2k + 1) x P_k - k P_k-1, in the current decimal context."""
    prev, p = Decimal(1), x
    for k in range(1, order):
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    return p, order * (x * p - prev) / (x * x - 1)


def _weight(order: int, x: Decimal) -> float:
    """The Gauss weight 2 / ((1 - x^2) P'(x)^2) of the root x, as a float."""
    dp = _legendre(order, x)[1]
    return float(2 / ((1 - x * x) * dp * dp))


def _sum(w: list[float]) -> float:
    """The left-to-right float sum of w: `_total`'s bits, without numpy."""
    return reduce(operator.add, w)


def linear_samples(order: int, left: np.ndarray, right: np.ndarray, y_left: np.ndarray,
                   h: np.ndarray, d: np.ndarray, v: np.ndarray) -> Callable[[slice], tuple]:
    """The `samples(b)` of `cell_sums` for piecewise-linear cells: the Gauss
    points tq of the cells [left, right] of widths h, one row per rule node;
    their `line_values` yq on each cell's line through its left value with
    slope d; and vq, one row of v per cell (the slopes d, or the capped
    slopes of a time change).
    """
    x = _gauss(order)[0]

    def samples(b: slice):
        tq = gauss_points(left[b], right[b], h[b], x)
        return tq, line_values(tq - left[b], y_left[b], d[b]), v[b][None]  # one slope per cell

    return samples


def line_values(offsets: np.ndarray, y_left: np.ndarray, d: np.ndarray) -> np.ndarray:
    """y_left + d * offsets: the values of the cells' lines through their
    left values y_left with slopes d, at offsets from their left nodes, one
    row per Gauss point.  Offsets shaped (order, 1, cells) broadcast over
    stacks (rows, cells) of y_left and d, giving (order, rows, cells)."""
    yq = offsets * d
    yq += y_left
    return yq


def gauss_points(left: np.ndarray, right: np.ndarray, h: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """The Gauss points of the cells [left, right] of widths h (right - left):
    one row per rule node x on [-1, 1], one column per cell.  The centres
    are formed as `trajectory.midpoints` forms its means, each end halved
    before the sum, so they cannot overflow."""
    tq = (h / 2.0) * x[:, None]
    tq += left * 0.5 + right * 0.5
    return tq


def gauss_sum(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w[k] * a[k] over the rows of a, accumulated left to right in k,
    so each column's bits depend neither on the BLAS build nor on how many
    columns there are."""
    acc = a[0] * w[0]
    for k in range(1, w.size):
        acc += a[k] * w[k]
    return acc


def cell_sums(spec: LagrangianSpec, h: np.ndarray, w: np.ndarray,
              samples: Callable[[slice], tuple], block: int = CELLS) -> np.ndarray:
    """(h/2) * sum_k w_k L(tq, yq, vq) per cell; +inf for a cell with any
    sample that is non-finite or above INF_THRESHOLD.

    The one quadrature kernel.  It walks the cells in blocks of `block`
    (by default `CELLS`: a block's (order, CELLS) sample arrays stay in
    cache, measured faster than blocks of SAMPLES samples), and
    `samples(b)` returns the (tq, yq, vq) of the cells in slice b, one row
    per Gauss point (vq may be one row, a slope per cell), so no sample
    array larger than a block is needed.  Each block's integrand samples,
    broadcast to the shape of yq, are reduced by `cell_integrals`, so a cell's
    bits depend on its own samples only, never on the block it falls in.
    """
    out = np.empty(h.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, h.size, block):
            b = slice(lo, lo + block)
            tq, yq, vq = samples(b)
            lq = np.asarray(spec.eval(tq, yq, vq), dtype=float)
            if lq.shape != yq.shape:  # a value that ignores t and y
                lq = np.broadcast_to(lq, yq.shape)
            out[b] = cell_integrals(lq, h[b], w)
    return out


def cell_integrals(lq: np.ndarray, h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(h/2) * gauss_sum(lq, w): the cell integrals of integrand samples lq
    laid out one row per Gauss point; +inf for a cell with any sample that
    is non-finite or above INF_THRESHOLD.  Samples laid out (order, rows,
    cells) give each row the bits of that row alone.

    Samples that are all finite and below the threshold (the usual case)
    skip the mask.  Call it with over and invalid warnings off.
    """
    if lq.max() <= INF_THRESHOLD and lq.min() >= -INF_THRESHOLD:  # False on NaN
        return (h / 2.0) * gauss_sum(lq, w)
    bad = ~(np.abs(lq) <= INF_THRESHOLD)
    contrib = (h / 2.0) * gauss_sum(np.where(bad, 0.0, lq), w)
    contrib[bad.any(axis=0)] = np.inf
    return contrib


def cell_energies(spec: LagrangianSpec, nodes: np.ndarray, values: np.ndarray,
                  order: int = DEFAULT_ORDER, *, h: np.ndarray | None = None,
                  d: np.ndarray | None = None) -> np.ndarray:
    """Per-cell quadrature contributions for nodal data; may contain +inf.

    h and d are the cell widths np.diff(nodes) and slopes np.diff(values) / h;
    a caller that keeps them (a Trajectory does) passes them.
    """
    w = _gauss(order)[1]
    if h is None:
        h = np.diff(nodes)
    if d is None:
        d = np.diff(values) / h
    return cell_sums(spec, h, w, linear_samples(order, nodes[:-1], nodes[1:], values[:-1], h, d, d))


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Energy of a trajectory with per-cell contributions (a read-only array).

    `refinement_error_estimate` is computed lazily on first access as the
    absolute difference against the energy of the same function on the
    once-bisected mesh (0 when both are +inf).
    """

    value: float
    per_cell: np.ndarray
    quadrature_order: int
    _refine: Callable[[], float] = field(repr=False)

    @cached_property
    def refinement_error_estimate(self) -> float:
        return self._refine()

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "per_cell": self.per_cell,
            "error_estimate": self.refinement_error_estimate,
            "order": self.quadrature_order,
        }


def _extended_diff(a: float, b: float) -> float:
    if np.isinf(a) and np.isinf(b):
        return 0.0
    return abs(a - b)


def _total(per_cell: np.ndarray):
    """Left-to-right sum along the last axis (a float for 1-D input), for
    bit-stable reports.  np.cumsum accumulates sequentially (unlike np.sum,
    which is pairwise), so each row's last entry is the plain loop's bits."""
    total = np.cumsum(per_cell, axis=-1)[..., -1]
    return total if total.ndim else float(total)


def energy(spec: LagrangianSpec, y: Trajectory, order: int = DEFAULT_ORDER) -> EnergyReport:
    """Composite Gauss-Legendre energy of a trajectory.

    The derivative entering L is the exact per-cell slope (the one y keeps,
    as are the widths), and quadrature nodes are strictly interior to cells.
    """
    cells = lambda y: cell_energies(spec, y.mesh.nodes, y.values, order,
                                    h=y.mesh.widths, d=y.cell_derivatives())
    per_cell = cells(y)
    per_cell.flags.writeable = False
    value = _total(per_cell)

    def refine() -> float:
        fine_val = _total(cells(y.bisected()))
        return _extended_diff(value, fine_val)

    return EnergyReport(value=value, per_cell=per_cell,
                        quadrature_order=order, _refine=refine)


# -- energy of an exactly known profile -------------------------------------


def exact_profile_energy(spec: LagrangianSpec, f: Callable, df: Callable, mesh: Mesh,
                         order: int = DEFAULT_ORDER) -> float:
    """Quadrature of L(t, f(t), f'(t)), sampling the profile f and its exact
    derivative df at the quadrature points.  A NaN of either, where the
    profile is undefined, raises SamplingError naming the first such point;
    an infinite one is an extended value."""
    x, w = _gauss(order)
    nodes = mesh.nodes
    h = np.diff(nodes)

    def samples(b: slice):
        tq = gauss_points(nodes[:-1][b], nodes[1:][b], h[b], x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fq, dq = np.asarray(f(tq), dtype=float), np.asarray(df(tq), dtype=float)
        undefined = np.isnan(fq) | np.isnan(dq)
        if undefined.any():
            raise SamplingError(f"f or f' is NaN at the Gauss point t={tq[undefined].min()}")
        return tq, fq, dq

    return _total(cell_sums(spec, h, w, samples))


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of an energy refinement sweep."""

    value: float
    converged: bool
    error_estimate: float
    n_cells: int
    history: tuple[tuple[int, float, float], ...]  # (cells, value, estimate)


def energy_converged(spec: LagrangianSpec, f: Callable, df: Callable,
                     mesh_family: Iterable[Mesh], order: int = DEFAULT_ORDER,
                     tol: float = 1e-6) -> ConvergenceResult:
    """First energy in the family whose refinement estimate is below tol.

    Approximates the energy of the exactly-known profile f, whose exact
    derivative is df (not of its interpolant, whose energy need not converge
    when a Lavrentiev gap or a blow-up is present).  The refinement estimate
    of each family member is the difference against the once-bisected mesh.
    If no member converges, the last value is returned with `converged=False`.
    """
    history: list[tuple[int, float, float]] = []
    value = np.inf
    estimate = np.inf
    n_cells = 0
    for mesh in mesh_family:
        value = exact_profile_energy(spec, f, df, mesh, order)
        fine_val = exact_profile_energy(spec, f, df, mesh.bisected(), order)
        estimate = _extended_diff(value, fine_val)
        n_cells = mesh.n_cells
        history.append((n_cells, value, estimate))
        if estimate <= tol:
            return ConvergenceResult(value, True, estimate, n_cells, tuple(history))
    if not history:
        raise ArgumentError("mesh_family is empty")
    return ConvergenceResult(value, False, estimate, n_cells, tuple(history))
