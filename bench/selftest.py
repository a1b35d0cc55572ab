"""Self-test of the benchmark at reduced input sizes.

    python3 bench/selftest.py

Runs every workload at `--scale small`, untraced and traced, and asserts
that each run prints exactly the metrics BENCHMARK.json lists, that no
session failed, and that each layer's metrics are nonzero on the workloads
that exercise it.  It also checks that a missing wrap target is reported
as absent rather than crashing the tracer, and that the benchmark refuses
to run in a directory without lavlab's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Per-layer metrics that must be nonzero on each workload.
EXERCISED = {
    "gap_scan": (
        "gapscan.minimize_bounded.calls", "gapscan.minimize_bounded.self_s",
        "gapscan.grad_kernel_calls", "gapscan.obj_kernel_calls",
        "gapscan.iterations", "gapscan.mania_reference_energy.s",
        "functional.cell_energies_lr.calls", "functional.cell_energies_lr.self_s",
        "functional.cell_energies_lr.qpoints", "functional.cell_energies_lr.ns_per_qpoint",
        "functional.exact_profile_energy.calls", "functional.exact_profile_energy.self_s",
        "lagrangian.eval.calls", "lagrangian.eval.points", "lagrangian.eval.self_s",
        "lagrangian.eval.ns_per_point", "trajectory.mesh_builds", "cli.run.self_s",
        "cli.report_bytes", "trace.overhead_ratio"),
    "repar_sweep": (
        "repar.reparametrize.calls", "repar.reparametrize.self_s", "repar.calls_per_k",
        "repar.choose_lambda.s", "repar.classify.s", "repar.select_A.s",
        "repar.build_map.s", "repar.find_K.self_s", "functional.energy.calls",
        "functional.energy.self_s", "functional.cell_energies_lr.calls",
        "functional.cell_energies_lr.qpoints", "lagrangian.eval.points",
        "trajectory.push_through_inverse.s", "trajectory.mesh_builds",
        "trajectory.from_csv.s", "cli.run.self_s", "cli.report_bytes",
        "trace.overhead_ratio"),
    "residual_report": (
        "necessary.el_residual.s", "necessary.dbr_residual.s", "necessary.samples",
        "lagrangian.partials.calls", "lagrangian.partials.self_s",
        "functional.energy.calls", "functional.energy.self_s",
        "functional.exact_profile_energy.calls", "functional.exact_profile_energy.self_s",
        "trajectory.from_csv.s", "cli.run.self_s", "cli.report_bytes",
        "trace.overhead_ratio"),
}
QUALITY_NAMES = {"gap_scan": "gap_floor", "repar_sweep": "repar_K"}


def run_bench(bench_dir: Path, workload: str, trace: int, scale: str = "small"):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", scale],
        capture_output=True, text=True, timeout=170)


def check_workload(workload: str, spec: dict) -> None:
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run_bench(BENCH, workload, trace)
        assert proc.returncode == 0, proc.stderr
        detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stderr
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in listed}, sorted(metrics)
        for m in listed:
            assert metrics[m["name"]]["unit"] == m["unit"], m
        assert detail["metrics"]["failed_ratio"]["value"] == 0.0
        if workload in QUALITY_NAMES:
            name = QUALITY_NAMES[workload]
            assert detail["metrics"][name] == detail["metrics"]["quality"]
        if trace == 0:
            assert all(v["value"] > 0 for v in metrics.values()), metrics
        else:
            zero = [n for n in EXERCISED[workload] if not metrics[n]["value"] > 0]
            assert not zero, f"{workload}: zero metrics {zero}"
            assert detail["absent_wrap_targets"] == []
        print(f"ok  {workload} --trace {trace}")


def check_absent_target() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import tracer

    saved = tracer.TARGETS
    tracer.TARGETS = saved + (("lavlab.gapscan", "no_such_function", "gapscan.gone", None),
                              ("lavlab.trajectory", "NoSuchClass.method", "trajectory.gone", None))
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
    finally:
        tracer.TARGETS = saved
    assert t.absent == ["lavlab.gapscan.no_such_function",
                        "lavlab.trajectory.NoSuchClass.method"], t.absent
    print("ok  missing wrap targets are reported as absent")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare / BENCH.name, "gap_scan", 0)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        bare.parent.rmdir()
    print("ok  refuses to run without lavlab's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(workload, spec)
    check_absent_target()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
