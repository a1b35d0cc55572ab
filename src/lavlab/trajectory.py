"""Meshes, piecewise-linear trajectories, and the sums and checks of
monotone time changes.

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

from .errors import ArgumentError, DomainError, SamplingError

# Endpoint-exactness tolerance for time changes, relative to (b - a).
ENDPOINT_RTOL = 1e-12

# Entries (rows, of a 2-D array) per piece of report text: a piece joined
# into one string stays well under malloc's 128 KiB mmap threshold.
PIECE = 2 ** 10

# Cells per block of a pass over a trajectory's cells: a block's float
# temporaries (64 KiB) stay under the same threshold.
CELLS = 2 ** 13

NOT_INCREASING = "mesh nodes must be strictly increasing"


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ArgumentError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError(f"{name} must be finite")
    return arr


def _cell_widths(nodes: np.ndarray) -> np.ndarray:
    """np.diff(nodes) of finite nodes, checked as a mesh's cell widths:
    positive, and finite (two finite nodes can lie more than the largest
    float apart)."""
    if nodes.size < 2:
        raise ArgumentError("a mesh needs at least one cell")
    with np.errstate(over="ignore"):
        widths = np.diff(nodes)
    if not np.all(widths > 0):
        raise ArgumentError(NOT_INCREASING)
    if not np.all(np.isfinite(widths)):
        raise ArgumentError("mesh cell widths must be finite: nodes too far apart")
    return widths


def midpoints(a: np.ndarray) -> np.ndarray:
    """The mean of each pair of neighbours of `a`.  Each is halved before
    they are summed, so the mean cannot overflow, and it has the bits of
    (a_i + a_{i+1}) / 2 unless a half falls below the normal floats."""
    return a[:-1] * 0.5 + a[1:] * 0.5


def _bisect(a: np.ndarray, cells: np.ndarray | None) -> np.ndarray:
    """`a` with the `midpoints` of its pairs of neighbours inserted between
    them, for the pairs `cells` only (every pair if None)."""
    mid = midpoints(a)
    if cells is not None:
        return np.insert(a, cells + 1, mid[cells])
    out = np.empty(2 * a.size - 1)
    out[0::2] = a
    out[1::2] = mid
    return out


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
        widths = _cell_widths(arr)
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
        """Mesh with every cell split at its midpoint; see `_bisectable`."""
        return Mesh(_bisect(self.nodes, self._bisectable()))

    def _bisectable(self) -> np.ndarray | None:
        """The cells whose midpoint lies strictly inside them, None if all
        do.  A cell with no float inside (one ulp wide) has its midpoint
        rounded onto a node, so bisection keeps it whole."""
        mid = midpoints(self.nodes)
        inside = (self.nodes[:-1] < mid) & (mid < self.nodes[1:])
        return None if inside.all() else np.flatnonzero(inside)


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
        with np.errstate(over="ignore"):  # a slope too steep for a float is +-inf
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
        cells = self.mesh._bisectable()
        return Trajectory(Mesh(_bisect(self.mesh.nodes, cells)), _bisect(self.values, cells))

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
        """Read a 't,y' header and rows t,y from the text file f, a line at
        a time, so no copy of its text is made (but of a pipe's, which
        cannot be read twice); a malformed file raises ArgumentError naming
        the first bad line."""
        header = next(csv.reader([f.readline()]), [])
        if [h.strip() for h in header] != ["t", "y"]:
            raise ArgumentError("trajectory CSV must have header 't,y'")
        if not f.seekable():
            f = io.StringIO(f.read(), newline="")
        body = f.tell()
        if all(map(str.isspace, iter(f.readline, ""))):
            raise ArgumentError("trajectory CSV has no rows after its header")
        f.seek(body)
        try:  # correctly rounded, so the same bits as float()
            rows = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a decoding error included: _parse_rows raises it again
            rows = None
        if rows is None or rows.shape[1] != 2:
            f.seek(body)
            rows = _parse_rows(f)
        return cls(Mesh(rows[:, 0]), rows[:, 1])


def _parse_rows(f) -> np.ndarray:
    """The rows of the rest of a trajectory CSV file, after its header,
    one at a time with float(): reads what np.loadtxt refuses but float()
    takes, and names the first line that is not exactly two numbers."""
    rows = []
    reader = csv.reader(f)
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
    """Nodal interpolant of f on the mesh.  f runs with numpy's float
    warnings off; a value that is not finite raises SamplingError."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def positive_speeds(speeds) -> np.ndarray:
    """`speeds` as a float vector; raises ArgumentError unless every entry
    is finite and positive."""
    v = _as_float_vector(speeds, "speeds")
    if not np.all(v > 0):
        raise ArgumentError("all speeds must be positive")
    return v


def running_sum(part: np.ndarray, carry: float = -0.0) -> np.ndarray:
    """`carry`, then the left-to-right running sums of `part` continued
    from it: np.cumsum with the carry prepended, so a sequence summed one
    part at a time, each part carrying the last sum of the one before, has
    the bits of one np.cumsum over the whole sequence (the empty sum -0.0
    adds to any float exactly)."""
    return np.cumsum(np.concatenate(([carry], part)))


def endpoint_exact(image: np.ndarray, a: float, b: float) -> bool:
    """Whether the time change of [a, b] with node images `image` is
    endpoint-exact: |phi(b) - b| <= ENDPOINT_RTOL (b - a)."""
    return abs(float(image[-1]) - b) <= ENDPOINT_RTOL * (b - a)
