"""Catalog of integrands L(t, y, v) with exact partials and structural flags.

Evaluators must accept numpy arrays, and are extended-real: a singular
point yields +inf (never NaN), and infinities propagate through sums.  Exact
partial derivatives likewise return +/-inf at singular points.  Only L_y
and L_v are ever read, and only through `jet`, which returns (L, L_y, L_v)
together: the spec's own jet, which shares its subexpressions across the
three, or `eval` and its exact partials, each stated once.  No derivative
is taken numerically; a spec that states neither partials nor a jet has
no derivatives, and reading them raises UnsupportedLagrangianError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, CatalogKeyError, UnsupportedLagrangianError

TWO_PI = 2.0 * math.pi

Box = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


@dataclass(frozen=True, eq=False)
class LagrangianSpec:
    """Evaluator for an extended-real integrand with optional exact partials.

    Attributes:
        id: stable name used by the CLI and catalogs.
        eval: (t, y, v) -> value >= 0 (or +inf when `extended`); must accept
            numpy arrays.
        partials: optional (L_y, L_v) evaluators, array-safe, returning
            +/-inf at singular points; `jet` reads them where the spec has
            no jet.
        autonomous: independent of t.
        convex_in_v: v -> L(t, y, v) convex for every (t, y) in the domain.
        extended: may take the value +inf.
        sample_box: (t, y, v) ranges where the integrand is finite and all
            structural flags hold; used by randomized checks.
        jet: optional (t, y, v) -> (L, L_y, L_v) in one pass, its L equal
            bit for bit to `eval`; where a spec has one, `jet` reads L_y
            and L_v from it alone, so it needs no `partials`.  A spec with
            neither serves `energy` and `repar`, which read no derivative.
    """

    id: str
    eval: Callable
    partials: tuple[Callable, Callable] | None
    autonomous: bool
    convex_in_v: bool
    extended: bool = False
    sample_box: Box = ((0.0, 1.0), (-2.0, 2.0), (-3.0, 3.0))
    jet: Callable | None = None


# -- catalog builders -----------------------------------------------------


def _extended(domain: Callable, formula: Callable) -> Callable:
    """(t, y, v) -> formula(t, y, v) where domain(y) holds, else +inf: the catalog's one
    off-domain guard.  Both get y as a float array, the formula runs with divide,
    invalid and overflow warnings off, and a scalar point gives a float."""

    def guarded(t, y, v):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(domain(y), formula(t, y, v), np.inf)
        return out if out.ndim else float(out)

    return guarded


def _monomials(terms: Sequence[tuple[float, int, int, int]]) -> Callable:
    """(t, y, v) -> the left-to-right sum of c * t**i * y**j * v**k over the
    terms (c, i, j, k), from zeros of the broadcast shape; a float for a scalar."""

    def total(t, y, v):
        t, y, v = (np.asarray(a, dtype=float) for a in (t, y, v))
        out = np.zeros(np.broadcast(t, y, v).shape)
        for c, i, j, k in terms:
            out = out + c * t**i * y**j * v**k
        return out if out.ndim else float(out)

    return total


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
        id=ident, eval=ev, partials=(ly, lv),
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
        id="sqrt_chain", eval=ev, partials=(ly, lv),
        autonomous=True, convex_in_v=True)


def brachistochrone_problem(height: float = 1.0) -> LagrangianSpec:
    """sqrt(1 + v^2) / sqrt(height - y), extended (+inf for y >= height)."""

    def ev(t, y, v):  # y < height makes height - y > 0, subnormal or not
        return np.sqrt(1.0 + v * v) / np.sqrt(height - y)

    def ly(t, y, v):  # a subnormal depth overflows to +inf
        return 0.5 * np.sqrt(1.0 + v * v) * (height - y) ** -1.5

    def lv(t, y, v):
        return v / np.sqrt(1.0 + v * v) / np.sqrt(np.maximum(height - y, np.finfo(float).tiny))

    ev, ly, lv = (_extended(lambda y: y < height, f) for f in (ev, ly, lv))
    return LagrangianSpec(
        id="brachistochrone", eval=ev, partials=(ly, lv),
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
        id="quartic", eval=ev, partials=(_monomials(()), lv),
        autonomous=True, convex_in_v=False)


def _quartic_plus_square() -> LagrangianSpec:
    """(v^2 - 1)^2 + y^2: double well plus confinement; L_v is the quartic's."""

    def ev(t, y, v):
        r = v * v - 1.0
        return r * r + y * y

    def ly(t, y, v):
        return 2.0 * y + 0.0 * v

    return LagrangianSpec(
        id="quartic_plus_square", eval=ev, partials=(ly, _quartic().partials[1]),
        autonomous=True, convex_in_v=False)


def _mania() -> LagrangianSpec:
    """(y^3 - t)^2 v^6: non-autonomous; vanishes along y = t**(1/3).

    Both forms take the power of v before it meets a power of y, so where v
    has one value per cell (a piecewise-linear trajectory sampled cell by
    cell) the powers of v cost a cell-sized pass.  The jet, the one source
    of L_y and L_v, shares y^2, c = y^3 - t and c^2 among the three values;
    its L has the bits of `ev`.
    """

    def ev(t, y, v):
        v2 = v * v
        c = y * y * y - t
        return c * c * (v2 * v2 * v2)

    def jet(t, y, v):
        v2 = v * v
        v4 = v2 * v2
        y2 = y * y
        c = y2 * y - t
        c2 = c * c
        return c2 * (v4 * v2), y2 * c * (6.0 * (v4 * v2)), c2 * (6.0 * (v4 * v))

    return LagrangianSpec(
        id="mania", eval=ev, partials=None,
        autonomous=False, convex_in_v=True,
        sample_box=((0.0, 1.0), (-1.5, 1.5), (-3.0, 3.0)), jet=jet)


def _half_inverse() -> LagrangianSpec:
    """(v - 1/(2y))^2 for y != 0, +inf otherwise.  Vanishes along y = sqrt(t)."""

    def ev(t, y, v):
        r = v - 1.0 / (2.0 * y)
        return r * r

    def ly(t, y, v):
        return (v - 1.0 / (2.0 * y)) / (y * y)

    def lv(t, y, v):
        return 2.0 * (v - 1.0 / (2.0 * y))

    ev, ly, lv = (_extended(lambda y: y != 0.0, f) for f in (ev, ly, lv))
    return LagrangianSpec(
        id="half_inverse", eval=ev, partials=(ly, lv),
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

    # term-wise: c * p times the term with its power p of y (or v) lowered, p = 0 dropped
    ly, lv = (_monomials(tuple((c * e[axis], *(p - (a == axis) for a, p in enumerate(e)))
                               for c, *e in parsed if e[axis])) for axis in (1, 2))
    spec = LagrangianSpec(
        id=ident or "polynomial", eval=_monomials(tuple(parsed)), partials=(ly, lv),
        autonomous=all(i == 0 for _, i, _, _ in parsed), convex_in_v=False)
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


def jet(spec: LagrangianSpec, t, y, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, L_y, L_v) at broadcast points, the one reader of an integrand's
    derivatives: the spec's own `jet` where it has one, otherwise `eval`
    and its exact `partials`.  A spec that states neither raises
    UnsupportedLagrangianError; singular points come back non-finite."""
    if spec.jet is None and spec.partials is None:
        raise UnsupportedLagrangianError(
            f"{spec.id}: the integrand states no derivatives (neither partials nor a jet)")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.jet is not None:
            return tuple(np.asarray(a, dtype=float) for a in spec.jet(t, y, v))
        return tuple(np.asarray(f(t, y, v), dtype=float) for f in (spec.eval, *spec.partials))


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
