"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; every tolerance is pinned here, not calibrated elsewhere.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lavlab import (CATALOG_IDS, EXACT_PROFILES, InfeasibleError, Mesh, Trajectory,
                    catalog, choose_lambda, dbr_residual,
                    el_residual, energy, energy_converged, find_K,
                    graded_mesh, halfinverse_lower_bound, lemma_P,
                    mania_one_endpoint_truncations, mania_two_endpoint_scan,
                    minimal_surface, plateau_tent, reparametrize,
                    sample, sawtooth, sqrt_ramp, uniform_mesh)
from lavlab.lagrangian import jet

import conftest
from conftest import alternating_mesh, random_trajectory


def _report(name: str) -> None:
    line = f"[acceptance] {name}: PASS"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_c1_minimizing_sequence_energy_bounds():
    """Paper-exact bounds for the three explicit minimizing families."""
    t0 = time.perf_counter()
    spec = catalog("sqrt_chain")
    for n in (10, 100, 1000):
        assert energy(spec, sqrt_ramp(n)).value <= 3.0 / n
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    spec = catalog("quartic")
    for n in (10, 100, 1000):
        assert energy(spec, plateau_tent(n)).value <= 2.0 / n + 1e-12
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    spec = catalog("quartic_plus_square")
    for n in (10, 100, 1000):
        value = energy(spec, sawtooth(n)).value
        assert value <= 1.0 / (2 * n) ** 2
        assert abs(value - 1.0 / (12 * n * n)) <= 1e-10
    assert time.perf_counter() - t0 < 1.0
    _report("C1 minimizing-sequence bounds")


def test_c2_known_minimizer_energies():
    """Refinement on graded meshes reaches the zero-energy minimizers."""
    t0 = time.perf_counter()

    def family(power):
        n = 64
        while n <= 2 ** 14:
            yield graded_mesh(0.0, 1.0, n, power)
            n *= 2

    res = energy_converged(catalog("mania"), *EXACT_PROFILES["cuberoot"], family(3.0),
                           tol=1e-6)
    assert res.converged and res.value <= 1e-3

    res = energy_converged(catalog("half_inverse"), *EXACT_PROFILES["sqrt"], family(3.0),
                           tol=1e-6)
    assert res.converged and res.value <= 1e-3

    assert time.perf_counter() - t0 < 10.0
    _report("C2 known minimizers via graded refinement")


def test_c3_reparametrization_contracts():
    """Slope cap, boundary preservation, and the measure identity over a
    randomized suite of 200 finite-energy trajectories."""
    spec = catalog("sqrt_chain")
    rng = np.random.default_rng(0x4C41565245)
    span_tol = 1e-12

    suite = [sample(np.sqrt, graded_mesh(0, 1, 512, 2.0)),
             sample(np.cbrt, graded_mesh(0, 1, 512, 3.0))]
    while len(suite) < 200:
        suite.append(random_trajectory(rng, lo=-3.0, hi=3.0))

    checked = 0
    identity_checked = 0
    for y in suite:
        lam = choose_lambda(y)
        k = lam + float(rng.uniform(0.5, 8.0))
        try:
            res = reparametrize(spec, y, k)
        except InfeasibleError:
            res = reparametrize(spec, y, 4.0 * y.lipschitz_constant + lam)
            k = 4.0 * y.lipschitz_constant + lam
        assert res.lip_after <= 2.0 * k + 1e-9
        assert res.y_k.values[0] == y.values[0]
        assert res.y_k.values[-1] == y.values[-1]
        span = y.mesh.b - y.mesh.a
        assert abs(res.plan.measure_a - 2.0 * res.plan.deficit) <= span_tol * span
        checked += 1
        if y.lipschitz_constant < k:
            assert res.y_k is y  # bitwise identity
            identity_checked += 1
    assert checked == 200
    assert identity_checked > 0
    _report("C3 reparametrization contracts (200 trajectories)")


def test_c4_avoidance_bound_on_grid():
    """find_K returns a finite onset for the 1/k energy-excess bound."""
    t0 = time.perf_counter()
    y = sample(np.sqrt, graded_mesh(0, 1, 4096, 2.0))
    grid = [2, 4, 8, 16, 32, 64, 128, 256]
    rep = find_K(catalog("sqrt_chain"), y, grid)
    assert rep.K is not None
    assert math.isfinite(rep.K)
    for row in rep.rows:
        if row.k >= rep.K:
            assert row.status == "ok"
            assert row.energy_after <= row.energy_before + 1.0 / row.k \
                + 1e-12 * max(1.0, row.energy_before)
    assert time.perf_counter() - t0 < 30.0
    _report(f"C4 avoidance bound holds from K={rep.K}")


def test_c5_tangent_function_monotonicity_and_inequality():
    """Tangent-intercept monotonicity and the capped-speed inequality for
    every convex catalog entry."""
    convex = [catalog(i) for i in CATALOG_IDS if catalog(i).convex_in_v]
    assert {s.id for s in convex} == {"brachistochrone", "half_inverse",
                                      "mania", "sqrt_chain",
                                      "surface_of_revolution"}
    rng = np.random.default_rng(515)
    for spec in convex:
        (t0, t1), (y0, y1), (v0, v1) = spec.sample_box
        for _ in range(100):
            y = float(rng.uniform(y0, y1))
            t = float(rng.uniform(t0, t1))
            w_grid = np.sort(rng.uniform(v0, v1, size=9))
            curve = lemma_P(spec, y, w_grid, t=t)
            assert curve.nondecreasing_on_negative, (spec.id, y, w_grid)
            assert curve.nonincreasing_on_positive, (spec.id, y, w_grid)
        for _ in range(1000):
            t = float(rng.uniform(t0, t1))
            y = float(rng.uniform(y0, y1))
            d = float(rng.uniform(v0, v1))
            s = float(rng.uniform(1.0, 10.0))
            w = d / s
            lw = float(spec.eval(t, y, w))
            ld = float(spec.eval(t, y, d))
            lv = float(jet(spec, t, y, w)[2])
            p = lw - w * lv
            scale = max(1.0, abs(lw * s), abs(ld), abs(p) * (s - 1.0))
            assert lw * s <= ld + p * (s - 1.0) + 1e-10 * scale
    _report("C5 tangent monotonicity and capped-speed inequality")


def test_c6_blowup_lower_bound():
    """The logarithmic bound sits below the energy, and both diverge as the
    profile's starting height drops."""
    spec = catalog("half_inverse")
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(8, 30))
        mesh = uniform_mesh(0.0, 1.0, n)
        y = Trajectory(mesh, rng.uniform(0.2, 2.0, size=n + 1))
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n + 1))
        window = (float(mesh.nodes[i]), float(mesh.nodes[j]))
        bound = halfinverse_lower_bound(y, window, y.lipschitz_constant)
        e = energy(spec, y).value
        assert bound <= e + 1e-8 * max(1.0, abs(e))

    # y = max(t, eps) over the window (eps, 2 eps), C = 1:
    # bound = (ln 2)^2 / (4 eps) - ln 2, so it crosses 10, 1e3, 1e5
    thresholds = {1e-2: 10.0, 1e-4: 1e3, 1e-6: 1e5}
    for eps, floor in thresholds.items():
        tail = graded_mesh(2 * eps, 1.0, 64, 2.0)
        nodes = np.concatenate([[0.0, eps], tail.nodes])
        y = Trajectory(Mesh(nodes), np.maximum(nodes, eps))
        bound = halfinverse_lower_bound(y, (eps, 2 * eps), 1.0)
        closed_form = (math.log(2.0) ** 2) / (4 * eps) - math.log(2.0)
        assert bound == pytest.approx(closed_form, rel=1e-9)
        assert bound > floor
        assert energy(spec, y).value > floor
    _report("C6 blow-up bound below energy; divergence witnessed")


def test_c7_two_endpoint_gap_vs_one_endpoint_truncations():
    """The central contrast: a positive floor with both endpoints pinned,
    quadrature-level energies with only the final endpoint pinned."""
    t0 = time.perf_counter()
    report = mania_two_endpoint_scan([100, 200, 500], [5, 10, 20],
                                     restarts=8, seed=0x4C41565245)
    assert report.reference_energy <= 1e-3
    assert report.floor_estimate > 10.0 * report.reference_energy
    assert report.floor_estimate > 0.0
    assert all(r.best_energy >= 0.0 for r in report.rows)
    assert report.floor_estimate == min(r.best_energy for r in report.rows)

    rows = mania_one_endpoint_truncations([1, 10, 100, 1000, 10 ** 4])
    energies = dict(rows)
    assert energies[10 ** 4] <= 1e-2
    assert all(e <= 1e-2 for e in energies.values())
    assert time.perf_counter() - t0 < 300.0
    _report(f"C7 gap floor {report.floor_estimate:.4g} vs truncation "
            f"{energies[10 ** 4]:.3g}")


def test_c8_necessary_condition_residuals():
    """Catenary residuals: constancy recovered, staggered residual halves."""
    spec = minimal_surface(1.0)

    y = sample(np.cosh, uniform_mesh(-1.0, 1.0, 4000))
    rep = dbr_residual(spec, y)
    assert rep.max_abs <= 1e-3
    assert abs(rep.erdmann_constant - 1.0) <= 1e-3

    levels = []
    for n in (1000, 2000, 4000):
        y = sample(np.cosh, alternating_mesh(-1.0, 1.0, n))
        levels.append(el_residual(spec, y).max_abs)
    for coarse, fine in zip(levels, levels[1:]):
        ratio = fine / coarse
        assert 0.375 <= ratio <= 0.625
    _report("C8 catenary residuals (constancy and first-order decay)")


def test_c9_cli_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical JSON artifacts."""
    argv = [sys.executable, "-m", "lavlab", "gap-scan", "--n", "50,80",
            "--M", "4,6", "--restarts", "2", "--seed", "99", "--order", "3"]
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        res = subprocess.run(argv + ["--out", str(out)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["config"]["seed"] == 99
    _report("C9 byte-identical CLI reruns")
