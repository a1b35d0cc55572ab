"""Meshes, piecewise-linear trajectories, and monotone time changes.

A trajectory is the linear interpolant of nodal values on a strictly
increasing mesh; its derivative is constant on each cell.  Singular
profiles (sqrt(t), t**(1/3)) are approached by grading the mesh toward
the endpoint, never by special-casing the evaluation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ArgumentError, ContractError, DomainError, SamplingError

# Endpoint-exactness tolerance for monotone maps, relative to (b - a).
ENDPOINT_RTOL = 1e-12

# Entries (rows, of a 2-D array) per piece of report text: a piece joined
# into one string stays well under malloc's 128 KiB mmap threshold.
PIECE = 2 ** 10


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ArgumentError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing nodes t_0 < ... < t_n spanning [a, b].

    Nodes are stored as absolute positions (not widths) so refinement and
    time changes do not accumulate drift.  Instances are immutable; the
    cell widths np.diff(nodes) that validation computes are kept.
    """

    nodes: np.ndarray

    def __post_init__(self):
        arr = _as_float_vector(self.nodes, "nodes").copy()
        if arr.size < 2:
            raise ArgumentError("a mesh needs at least one cell")
        widths = np.diff(arr)
        if not np.all(widths > 0):
            raise ArgumentError("mesh nodes must be strictly increasing")
        arr.flags.writeable = False
        widths.flags.writeable = False
        object.__setattr__(self, "nodes", arr)
        object.__setattr__(self, "_widths", widths)

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def widths(self) -> np.ndarray:
        return self._widths

    def cell_of(self, t: float) -> int:
        """Index of the cell containing t (right-closed at b)."""
        if not (self.a <= t <= self.b):
            raise DomainError(f"t={t} outside [{self.a}, {self.b}]")
        i = int(np.searchsorted(self.nodes, t, side="right") - 1)
        return min(i, self.n_cells - 1)

    def bisected(self) -> "Mesh":
        """Mesh with every cell split at its midpoint."""
        mid = (self.nodes[:-1] + self.nodes[1:]) / 2.0
        out = np.empty(2 * self.n_cells + 1)
        out[0::2] = self.nodes
        out[1::2] = mid
        return Mesh(out)

    def with_node(self, t: float) -> "Mesh":
        """Mesh with one extra node at t (no-op if t is already a node)."""
        if not (self.a < t < self.b):
            raise DomainError(f"new node {t} must lie strictly inside ({self.a}, {self.b})")
        i = int(np.searchsorted(self.nodes, t))
        if self.nodes[i] == t:
            return self
        return Mesh(np.insert(self.nodes, i, t))


def uniform_mesh(a: float, b: float, n: int) -> Mesh:
    return graded_mesh(a, b, n, 1.0)


def graded_mesh(a: float, b: float, n: int, power: float = 1.0) -> Mesh:
    """Nodes t_i = a + (b-a)(i/n)**power; power=1 is the uniform mesh.

    Grading with power >= 2 concentrates cells near a, resolving minimizers
    whose derivative blows up there.
    """
    if n < 1:
        raise ArgumentError("n must be >= 1")
    if not power >= 1.0:
        raise ArgumentError("power must be >= 1")
    if not b > a:
        raise ArgumentError("need b > a")
    frac = (np.arange(n + 1) / n) ** power
    nodes = a + (b - a) * frac
    nodes[0] = a
    nodes[-1] = b
    return Mesh(nodes)


def graded_family(a: float, b: float, n: int, power: float = 1.0) -> Iterator[Mesh]:
    """Graded meshes of 64, 128, ... cells below n, then of n cells; built
    lazily, so a refinement sweep that stops early builds no more."""
    m = 64
    while m < n:
        yield graded_mesh(a, b, m, power)
        m *= 2
    yield graded_mesh(a, b, n, power)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear function: nodal values on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = _as_float_vector(self.values, "values").copy()
        if vals.size != self.mesh.nodes.size:
            raise ArgumentError("values and mesh nodes must have equal length")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def eval(self, t):
        """Linear interpolation; exact at nodes.  Accepts scalars or arrays."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.mesh.a) or np.any(t_arr > self.mesh.b):
            raise DomainError(f"evaluation outside [{self.mesh.a}, {self.mesh.b}]")
        out = np.interp(t_arr, self.mesh.nodes, self.values)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    @cached_property
    def _derivatives(self) -> np.ndarray:
        d = np.diff(self.values) / self.mesh.widths
        d.flags.writeable = False
        return d

    def cell_derivatives(self) -> np.ndarray:
        """Per-cell slopes d_i = (y_{i+1} - y_i) / h_i."""
        return self._derivatives

    @property
    def lipschitz_constant(self) -> float:
        return float(np.max(np.abs(self._derivatives)))

    @property
    def boundary(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    def bisected(self) -> "Trajectory":
        """The same function on the once-bisected mesh (exact refinement)."""
        mid = (self.values[:-1] + self.values[1:]) / 2.0
        out = np.empty(2 * self.mesh.n_cells + 1)
        out[0::2] = self.values
        out[1::2] = mid
        return Trajectory(self.mesh.bisected(), out)

    def with_node(self, t: float) -> "Trajectory":
        """The same function with one extra node at t, whose value is the
        interpolant's there (no-op if t is already a node)."""
        new_mesh = self.mesh.with_node(t)
        if new_mesh is self.mesh:
            return self
        i = int(np.searchsorted(self.mesh.nodes, t))  # t lies in cell i - 1
        value = np.interp(t, self.mesh.nodes[i - 1:i + 1], self.values[i - 1:i + 1])
        return Trajectory(new_mesh, np.insert(self.values, i, value))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"nodes": self.mesh.nodes.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Trajectory":
        try:
            nodes, values = (np.asarray(obj[key], dtype=float)
                             for key in ("nodes", "values"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ArgumentError("trajectory JSON needs numeric 'nodes' and "
                                f"'values' lists ({exc!r})") from None
        return cls(Mesh(nodes), values)

    def to_csv(self, f) -> None:
        """Write a 't,y' header and one line per node, PIECE lines at a
        time, with shortest round-trip formatting (>= 15 digits)."""
        f.write("t,y\n")
        pairs = zip(float_texts(self.mesh.nodes), float_texts(self.values))
        for _, rows in row_pieces(self.mesh.nodes, pairs):
            f.write("".join(map("%s,%s\n".__mod__, rows)))

    @classmethod
    def from_csv(cls, f) -> "Trajectory":
        """Read a 't,y' header and rows t,y; a malformed file raises
        ArgumentError naming the first bad line."""
        header = next(csv.reader([f.readline()]), [])
        if [h.strip() for h in header] != ["t", "y"]:
            raise ArgumentError("trajectory CSV must have header 't,y'")
        body = f.read()
        if not body or body.isspace():
            raise ArgumentError("trajectory CSV has no rows after its header")
        try:  # correctly rounded, so the same bits as float()
            rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            rows = None
        if rows is None or rows.shape[1] != 2:
            rows = _parse_rows(body)
        return cls(Mesh(rows[:, 0]), rows[:, 1])


def _parse_rows(body: str) -> np.ndarray:
    """The rows of a trajectory CSV body one at a time with float(): reads
    what np.loadtxt refuses but float() takes, and names the first line
    that is not exactly two numbers."""
    rows = []
    reader = csv.reader(io.StringIO(body, newline=""))
    for r in reader:
        if r:
            try:
                t, y = r
                rows.append((float(t), float(y)))
            except ValueError:
                raise ArgumentError(
                    f"line {reader.line_num + 1}: expected t,y numbers, "
                    f"got {','.join(r)!r}") from None
    return np.array(rows).reshape(-1, 2)


def float_texts(a) -> Iterator[str]:
    """float.__repr__ of each entry of `a`, row-major: the shortest text
    that reads back to the same bits, and the one float format of every
    lavlab report (CSV keeps 'nan'/'inf'; the JSON writer respells them).
    The entries become Python floats PIECE at a time."""
    flat = np.asarray(a, dtype=float).ravel()
    return chain.from_iterable(map(float.__repr__, flat[lo:lo + PIECE].tolist())
                               for lo in range(0, flat.size, PIECE))


def row_pieces(a: np.ndarray, texts: Iterable[str]) -> Iterator[tuple[np.ndarray, Iterator[str]]]:
    """(rows, their texts) for each run of PIECE rows of `a` (entries, for
    a 1-D array), the texts taken in turn from `texts`, one item per entry
    of `a` in row-major order.  Each piece's texts must be used up before
    the next piece.  The report writers write an array one such piece at a
    time, so no text they build grows with the array."""
    texts = iter(texts)
    for lo in range(0, len(a), PIECE):
        rows = a[lo:lo + PIECE]
        yield rows, islice(texts, rows.size)


def sample(f: Callable[[float], float], mesh: Mesh) -> Trajectory:
    """Nodal interpolant of f on the mesh."""
    try:
        vals = np.asarray(f(mesh.nodes), dtype=float)
        if vals.shape != mesh.nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(t)) for t in mesh.nodes])
    if not np.all(np.isfinite(vals)):
        bad = mesh.nodes[~np.isfinite(vals)][0]
        raise SamplingError(f"f is not finite at node t={bad}")
    return Trajectory(mesh, vals)


@dataclass(frozen=True)
class MonotoneMap:
    """Strictly increasing piecewise-linear time change phi: [a,b] -> [a, phi(b)].

    Defined by per-cell speeds v_i > 0 on a mesh; phi(a) = a by construction.
    The map is *endpoint-exact* when |phi(b) - b| <= 1e-12 (b - a).
    """

    mesh: Mesh
    speeds: np.ndarray

    def __post_init__(self):
        v = _as_float_vector(self.speeds, "speeds").copy()
        if v.size != self.mesh.n_cells:
            raise ArgumentError("speeds must have one entry per cell")
        if not np.all(v > 0):
            raise ArgumentError("all speeds must be positive")
        v.flags.writeable = False
        object.__setattr__(self, "speeds", v)

    @cached_property
    def image_nodes(self) -> np.ndarray:
        img = np.empty(self.mesh.nodes.size)
        img[0] = self.mesh.a
        np.cumsum(self.speeds * self.mesh.widths, out=img[1:])
        img[1:] += self.mesh.a
        img.flags.writeable = False
        return img

    @property
    def endpoint_defect(self) -> float:
        return abs(float(self.image_nodes[-1]) - self.mesh.b)

    @property
    def is_endpoint_exact(self) -> bool:
        return self.endpoint_defect <= ENDPOINT_RTOL * (self.mesh.b - self.mesh.a)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.mesh.a) or np.any(t_arr > self.mesh.b):
            raise DomainError(f"evaluation outside [{self.mesh.a}, {self.mesh.b}]")
        out = np.interp(t_arr, self.mesh.nodes, self.image_nodes)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def push_through_inverse(y: Trajectory, phi: MonotoneMap) -> Trajectory:
    """Exact representation of y o phi^{-1}.

    The output mesh nodes are phi(t_i) and the values are unchanged, so the
    new cell slopes are d_i / v_i and both boundary values are preserved
    exactly.  Requires phi on the same mesh as y and endpoint-exact.
    """
    if y.mesh is not phi.mesh and not np.array_equal(y.mesh.nodes, phi.mesh.nodes):
        raise ContractError("trajectory and map must share the same mesh")
    if not phi.is_endpoint_exact:
        raise ContractError(
            f"map is not endpoint-exact: |phi(b) - b| = {phi.endpoint_defect:.3e}")
    new_nodes = phi.image_nodes.copy()
    new_nodes[-1] = y.mesh.b  # snap within the endpoint tolerance
    return Trajectory(Mesh(new_nodes), y.values)
