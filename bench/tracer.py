"""Span tracing of lavlab's layers from outside the program.

`Tracer.install` wraps each layer's public functions and binds the wrapper in
every `lavlab.*` namespace that holds the original (so `from .x import f`
call sites are traced too); `uninstall` puts the originals back.  A span
is [name, start, end, parent index, measure], the measure being a per-call
count such as quadrature points, or a (count, extra) pair.  A target that
no longer exists is recorded in `absent` and skipped, so a later change
that deletes a function yields missing numbers, not a crash.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import numpy as np


def _qpoints(args, kwargs, result) -> int:
    # cell_energies_lr(spec, nodes, y_left, y_right, order=DEFAULT_ORDER)
    if len(args) > 4:
        order = args[4]
    else:
        order = kwargs.get("order",
                           importlib.import_module("lavlab.functional").DEFAULT_ORDER)
    return int(np.size(result)) * int(order)


def _points(args, kwargs, result) -> int:
    return int(np.broadcast(*args[:3]).size)


def _samples(args, kwargs, result) -> tuple[int, int]:
    return len(result.samples), len(result.skipped)


# (module, attribute path, span name, per-call measure).  Span names are the
# per-layer metric prefixes.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("lavlab.cli", "run", "cli.run", None),
    ("lavlab.gapscan", "minimize_bounded", "gapscan.minimize_bounded", None),
    ("lavlab.gapscan", "mania_reference_energy", "gapscan.mania_reference_energy", None),
    ("lavlab.functional", "cell_energies_lr", "functional.cell_energies_lr", _qpoints),
    ("lavlab.functional", "cell_energies", "functional.cell_energies", None),
    ("lavlab.functional", "energy", "functional.energy", None),
    ("lavlab.functional", "exact_profile_energy", "functional.exact_profile_energy", None),
    ("lavlab.lagrangian", "catalog", "lagrangian.catalog", None),
    ("lavlab.repar", "reparametrize", "repar.reparametrize", None),
    ("lavlab.repar", "choose_lambda", "repar.choose_lambda", None),
    ("lavlab.repar", "classify", "repar.classify", None),
    ("lavlab.repar", "select_A", "repar.select_A", None),
    ("lavlab.repar", "build_map", "repar.build_map", None),
    ("lavlab.repar", "find_K", "repar.find_K", None),
    ("lavlab.trajectory", "push_through_inverse", "trajectory.push_through_inverse", None),
    ("lavlab.trajectory", "Trajectory.from_csv", "trajectory.from_csv", None),
    ("lavlab.trajectory", "Mesh.__post_init__", "trajectory.Mesh", None),
    ("lavlab.necessary", "el_residual", "necessary.el_residual", _samples),
    ("lavlab.necessary", "dbr_residual", "necessary.dbr_residual", _samples),
)


class Tracer:
    """Spans of one thread, kept in memory until `take` hands them over."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str, measure: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return traced

    def _tracing_specs(self, catalog: Callable) -> Callable:
        """A catalog whose entries come back with integrand and partials traced."""

        @functools.wraps(catalog)
        def traced_catalog(ident):
            spec = catalog(ident)
            partials = spec.partials
            if partials is not None:
                partials = tuple(self.wrap(p, "lagrangian.partials", _points)
                                 for p in partials)
            return dataclasses.replace(
                spec, eval=self.wrap(spec.eval, "lagrangian.eval", _points),
                partials=partials)

        return traced_catalog

    def install(self) -> None:
        for module_name, path, name, measure in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{module_name}.{path}")
                continue
            raw = vars(owner)[attr]
            if owner is not module:  # a class attribute
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = self.wrap(fn, name, measure)
                self._bind(owner, attr, classmethod(wrapper)
                           if isinstance(raw, classmethod) else wrapper)
                continue
            wrapper = self.wrap(raw, name, measure)
            if attr == "catalog":  # integrand timing: trace the specs it returns
                wrapper = self._tracing_specs(wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lavlab" or mod_name.startswith("lavlab."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._bind(mod, key, wrapper)

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


@dataclasses.dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0
    extra: int = 0


def aggregate(spans: list[list]) -> tuple[dict[str, LayerTotals], dict[tuple[str, str], int]]:
    """Per-name totals, and call counts per (parent name, child name).

    Spans nest on one thread, so the time a span's children cover is the
    sum of their durations; self time is duration minus that sum.
    """
    child_time = [0.0] * len(spans)
    edges: dict[tuple[str, str], int] = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            edges[(spans[parent][0], name)] += 1
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for (name, start, end, _, measure), covered in zip(spans, child_time):
        t = totals[name]
        t.calls += 1
        t.total_s += end - start
        t.self_s += end - start - covered
        if isinstance(measure, tuple):
            t.count += measure[0]
            t.extra += measure[1]
        else:
            t.count += measure
    return totals, edges
