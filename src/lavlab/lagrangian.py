"""Catalog of integrands L(t, y, v) with exact partials and structural flags.

Evaluators must accept numpy arrays, and are extended-real: a singular
point yields +inf (never NaN), and infinities propagate through sums.  Exact
partial derivatives likewise return +/-inf at singular points.  Every
partial goes through `partial_array`, which falls back on central
differences for a spec without exact partials; the scalar `partials`
wrapper turns a non-finite partial into a SingularPointError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, CatalogKeyError, SingularPointError

TWO_PI = 2.0 * math.pi

# Central-difference step exponent 1/3 balances O(h^2) truncation against
# rounding for first derivatives.
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

Box = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


@dataclass(frozen=True, eq=False)
class LagrangianSpec:
    """Evaluator for an extended-real integrand with optional exact partials.

    Attributes:
        id: stable name used by the CLI and catalogs.
        eval: (t, y, v) -> value >= 0 (or +inf when `extended`); must accept
            numpy arrays.
        partials: optional (L_t, L_y, L_v) evaluators, array-safe, returning
            +/-inf at singular points.
        autonomous: independent of t.
        convex_in_v: v -> L(t, y, v) convex for every (t, y) in the domain.
        extended: may take the value +inf.
        sample_box: (t, y, v) ranges where the integrand is finite and all
            structural flags hold; used by randomized checks.
    """

    id: str
    eval: Callable
    partials: tuple[Callable, Callable, Callable] | None
    autonomous: bool
    convex_in_v: bool
    extended: bool = False
    sample_box: Box = ((0.0, 1.0), (-2.0, 2.0), (-3.0, 3.0))

    def __call__(self, t, y, v):
        return self.eval(t, y, v)


# -- catalog builders -----------------------------------------------------


def _zero(t, y, v):
    """The partial of a variable the integrand does not depend on."""
    return np.zeros_like(np.asarray(t, dtype=float) + y + v)


def minimal_surface(weight: float = TWO_PI) -> LagrangianSpec:
    """Rotation-surface area integrand weight * y * sqrt(1 + v^2), y >= 0."""

    def ev(t, y, v):
        return weight * y * np.sqrt(1.0 + v * v)

    def ly(t, y, v):
        return weight * np.sqrt(1.0 + v * v) + 0.0 * y

    def lv(t, y, v):
        return weight * y * v / np.sqrt(1.0 + v * v)

    ident = "surface_of_revolution" if weight == TWO_PI else f"surface_of_revolution@{weight!r}"
    return LagrangianSpec(
        id=ident, eval=ev, partials=(_zero, ly, lv),
        autonomous=True, convex_in_v=True,
        sample_box=((0.0, 1.0), (0.0, 3.0), (-3.0, 3.0)))


def _sqrt_chain() -> LagrangianSpec:
    """(2 y v - 1)^2; vanishes along y = sqrt(t).  Convex in v (8 y^2 >= 0)."""

    def ev(t, y, v):
        r = 2.0 * y * v - 1.0
        return r * r

    def ly(t, y, v):
        return 4.0 * v * (2.0 * y * v - 1.0)

    def lv(t, y, v):
        return 4.0 * y * (2.0 * y * v - 1.0)

    return LagrangianSpec(
        id="sqrt_chain", eval=ev, partials=(_zero, ly, lv),
        autonomous=True, convex_in_v=True)


def brachistochrone_problem(height: float = 1.0) -> LagrangianSpec:
    """sqrt(1 + v^2) / sqrt(height - y), extended (+inf for y >= height)."""

    def ev(t, y, v):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            root = np.sqrt(np.maximum(height - y, 0.0))
            val = np.where(y < height, np.sqrt(1.0 + v * v) / np.where(root > 0, root, 1.0), np.inf)
        return val if val.ndim else float(val)

    def _guard(y, raw):
        y = np.asarray(y, dtype=float)
        out = np.where(y < height, raw, np.inf)
        return out if out.ndim else float(out)

    def ly(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            raw = 0.5 * np.sqrt(1.0 + v * v) * np.where(
                y_arr < height, np.maximum(height - y_arr, np.finfo(float).tiny) ** -1.5, 1.0)
        return _guard(y, raw)

    def lv(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            root = np.sqrt(np.maximum(height - y_arr, np.finfo(float).tiny))
            raw = v / np.sqrt(1.0 + v * v) / root
        return _guard(y, raw)

    return LagrangianSpec(
        id="brachistochrone", eval=ev, partials=(_zero, ly, lv),
        autonomous=True, convex_in_v=True, extended=True,
        sample_box=((0.0, 1.0), (height - 2.0, height - 0.05), (-3.0, 3.0)))


def _quartic() -> LagrangianSpec:
    """(v^2 - 1)^2: the double well, not convex in v."""

    def ev(t, y, v):
        r = v * v - 1.0
        return r * r + 0.0 * y

    def lv(t, y, v):
        return 4.0 * v * (v * v - 1.0) + 0.0 * y

    return LagrangianSpec(
        id="quartic", eval=ev, partials=(_zero, _zero, lv),
        autonomous=True, convex_in_v=False)


def _quartic_plus_square() -> LagrangianSpec:
    """(v^2 - 1)^2 + y^2: double well plus confinement."""

    def ev(t, y, v):
        r = v * v - 1.0
        return r * r + y * y

    def ly(t, y, v):
        return 2.0 * y + 0.0 * v

    def lv(t, y, v):
        return 4.0 * v * (v * v - 1.0) + 0.0 * y

    return LagrangianSpec(
        id="quartic_plus_square", eval=ev, partials=(_zero, ly, lv),
        autonomous=True, convex_in_v=False)


def _mania() -> LagrangianSpec:
    """(y^3 - t)^2 v^6: non-autonomous; vanishes along y = t**(1/3)."""

    def ev(t, y, v):
        c = y * y * y - t
        v2 = v * v
        return c * c * v2 * v2 * v2

    def lt(t, y, v):
        c = y * y * y - t
        v2 = v * v
        return -2.0 * c * v2 * v2 * v2

    def ly(t, y, v):
        c = y * y * y - t
        v2 = v * v
        return 6.0 * y * y * c * v2 * v2 * v2

    def lv(t, y, v):
        c = y * y * y - t
        v2 = v * v
        return 6.0 * c * c * v2 * v2 * v

    return LagrangianSpec(
        id="mania", eval=ev, partials=(lt, ly, lv),
        autonomous=False, convex_in_v=True,
        sample_box=((0.0, 1.0), (-1.5, 1.5), (-3.0, 3.0)))


def _half_inverse() -> LagrangianSpec:
    """(v - 1/(2y))^2 for y != 0, +inf otherwise.  Vanishes along y = sqrt(t)."""

    def ev(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = v - 1.0 / (2.0 * y_arr)
            val = np.where(y_arr != 0.0, r * r, np.inf)
        return val if val.ndim else float(val)

    def ly(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = v - 1.0 / (2.0 * y_arr)
            raw = r / (y_arr * y_arr)
            val = np.where(y_arr != 0.0, raw, np.inf)
        return val if val.ndim else float(val)

    def lv(t, y, v):
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = np.where(y_arr != 0.0, 2.0 * (v - 1.0 / (2.0 * y_arr)), np.inf)
        return val if val.ndim else float(val)

    return LagrangianSpec(
        id="half_inverse", eval=ev, partials=(_zero, ly, lv),
        autonomous=True, convex_in_v=True, extended=True,
        sample_box=((0.0, 1.0), (0.15, 2.0), (-3.0, 3.0)))


_CATALOG: dict[str, Callable[[], LagrangianSpec]] = {
    "surface_of_revolution": minimal_surface,
    "sqrt_chain": _sqrt_chain,
    "brachistochrone": brachistochrone_problem,
    "quartic": _quartic,
    "quartic_plus_square": _quartic_plus_square,
    "mania": _mania,
    "half_inverse": _half_inverse,
}

CATALOG_IDS: tuple[str, ...] = tuple(sorted(_CATALOG))


def catalog(ident: str) -> LagrangianSpec:
    """Fetch a catalog entry by its stable id."""
    try:
        builder = _CATALOG[ident]
    except KeyError:
        raise CatalogKeyError(
            f"unknown Lagrangian id {ident!r}; valid ids: {', '.join(CATALOG_IDS)}"
        ) from None
    return builder()


# -- user-defined polynomial integrands ------------------------------------


def polynomial_lagrangian(terms: Sequence, ident: str | None = None) -> LagrangianSpec:
    """Build sum of c * t^i * y^j * v^k from [[c, i, j, k], ...].

    Coefficients may be numbers or rational strings like "3/4".  Partials are
    differentiated term-wise; convexity in v is probed on a sample grid.
    """
    parsed: list[tuple[float, int, int, int]] = []
    for term in terms:
        if len(term) != 4:
            raise ArgumentError(f"polynomial term must be [coeff, t_pow, y_pow, v_pow]: {term!r}")
        c_raw, i, j, k = term
        c = float(Fraction(c_raw)) if isinstance(c_raw, str) else float(c_raw)
        i, j, k = int(i), int(j), int(k)
        if min(i, j, k) < 0:
            raise ArgumentError("polynomial exponents must be non-negative")
        parsed.append((c, i, j, k))
    if not parsed:
        raise ArgumentError("polynomial needs at least one term")

    def ev(t, y, v):
        t = np.asarray(t, dtype=float)
        total = np.zeros(np.broadcast(t, y, v).shape)
        for c, i, j, k in parsed:
            total = total + c * t**i * np.asarray(y, dtype=float)**j * np.asarray(v, dtype=float)**k
        return total if total.ndim else float(total)

    def _diff(axis: int):
        def d(t, y, v):
            t = np.asarray(t, dtype=float)
            total = np.zeros(np.broadcast(t, y, v).shape)
            for c, i, j, k in parsed:
                p = (i, j, k)[axis]
                if p == 0:
                    continue
                e = [i, j, k]
                e[axis] -= 1
                total = total + c * p * t**e[0] * np.asarray(y, dtype=float)**e[1] \
                    * np.asarray(v, dtype=float)**e[2]
            return total if total.ndim else float(total)
        return d

    autonomous = all(i == 0 for _, i, _, _ in parsed)
    spec = LagrangianSpec(
        id=ident or "polynomial",
        eval=ev, partials=(_diff(0), _diff(1), _diff(2)),
        autonomous=autonomous, convex_in_v=False)
    # probe convexity in v on the sample box before freezing the flag
    (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
    grid = np.linspace(v0, v1, 33)
    probe = all(
        convexity_probe(spec, y, grid, t=t)
        for t in np.linspace(t0, t1, 3)
        for y in np.linspace(y0, y1, 5)
    )
    return replace(spec, convex_in_v=probe)


# -- generic operations -----------------------------------------------------


def partial_array(spec: LagrangianSpec, axis: int, t, y, v) -> np.ndarray:
    """One partial of L (axis 0, 1, 2: L_t, L_y, L_v) at broadcast points.

    Exact closed forms where the spec has them; otherwise a central
    difference on that axis with step eps**(1/3) * max(1, |coord|), which is
    NaN wherever the centre sample or either stencil sample is non-finite.
    Singular points come back non-finite either way.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.partials is not None:
            return np.asarray(spec.partials[axis](t, y, v), dtype=float)
        args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, y, v)))
        c = args[axis]
        h = _FD_STEP * np.maximum(1.0, np.abs(c))

        def at(x):
            return np.asarray(spec.eval(*args[:axis], x, *args[axis + 1:]), dtype=float)

        centre, d = at(c), (at(c + h) - at(c - h)) / (2.0 * h)
        return np.where(np.isfinite(centre) & np.isfinite(d), d, np.nan)


def partials(spec: LagrangianSpec, t: float, y: float, v: float) -> tuple[float, float, float]:
    """(L_t, L_y, L_v) at a point, from `partial_array`.  Raises
    SingularPointError where any of them is non-finite."""
    out = tuple(float(partial_array(spec, axis, t, y, v)) for axis in range(3))
    if not all(math.isfinite(x) for x in out):
        raise SingularPointError(f"{spec.id}: partials singular at (t={t}, y={y}, v={v})")
    return out


def convexity_probe(spec: LagrangianSpec, y: float, v_grid, t: float = 0.0) -> bool:
    """Chord test on all consecutive triples of the grid, tolerance 1e-12*scale."""
    grid = np.sort(np.asarray(v_grid, dtype=float))
    t_grid, y_grid = np.full_like(grid, t), np.full_like(grid, y)
    vals = np.asarray(spec.eval(t_grid, y_grid, grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ArgumentError("convexity probe requires finite evaluations on the grid")
    (v1, v2, v3), (f1, f2, f3) = ((a[:-2], a[1:-1], a[2:]) for a in (grid, vals))
    chord = (f1 * (v3 - v2) + f3 * (v2 - v1)) / (v3 - v1)
    scale = np.maximum(np.maximum(1.0, np.abs(f1)), np.maximum(np.abs(f2), np.abs(f3)))
    return not np.any(f2 > chord + 1e-12 * scale)
