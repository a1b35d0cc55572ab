"""lavlab benchmark: CLI sessions timed end to end, and per layer when traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; lavlab is imported from the checkout's
`src/`, and scratch files go to `.bench_work/` there and are removed at exit.
Workloads (inputs and checks in workloads.py):

  gap_scan         gap-scan at the C7 grid: thousands of small kernel calls.
  repar_sweep      repar over k = 2..256 on a 2^17-cell jittered sqrt(t).
  residual_report  necessary-check and energy on a 10^5-cell catenary, then
                   energy --exact for Mania's cube root: report writing.

A run is a closed loop with one client: set-up (five fresh interpreters that
import lavlab.cli and write the seeded inputs; the median is `setup_s`), one
untimed warm-up session, then sessions back to back in this process, each
`lavlab.cli.main(argv)` per call, until the time budget is spent.  Every
session's outputs are checked and hashed; a nonzero exit, a failed check or
a report digest that differs from the first session's is a failed session.

End-to-end metrics (--trace 0):
  setup_s      median set-up time
  op_s         median session wall time
  peak_rss_mb  peak resident memory of this process
  quality      the workload's result, lower is better: the gap floor
               (`gap_floor`) on gap_scan, the threshold `repar_K` on
               repar_sweep, and on residual_report the decimal digits lost
               by the catenary energy against its closed form
               (16 + log10 of the relative error)
`failed_ratio` is failed / attempted of the result line.

With --trace 1 half the budget runs untraced and half traced; the traced
sessions give the per-layer metrics (per session, median over sessions)
and must reproduce the untraced report digests.  A layer's self time
excludes its traced callees, so the kernel's ns_per_qpoint leaves out the
integrand, which lagrangian.eval.ns_per_point covers.  The last
stdout line is the result; the line before it has every number by name,
with host facts and the report digests.

`python3 bench/selftest.py` checks the benchmark itself at reduced sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("gap_scan", "repar_sweep", "residual_report")
SETUP_REPEATS = 5
MIN_SESSIONS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Metric units.  END_TO_END and PER_LAYER are what the result line carries
# (BENCHMARK.json lists the same); DETAIL_ONLY goes to the detail line.
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "quality": "1"}
DETAIL_ONLY = {"failed_ratio": "1", "gap_floor": "1", "repar_K": "1", "energy_rel_err": "1"}
PER_LAYER = {
    "cli.run.self_s": "s", "cli.report_bytes": "bytes",
    "gapscan.minimize_bounded.calls": "count", "gapscan.minimize_bounded.self_s": "s",
    "gapscan.grad_kernel_calls": "count", "gapscan.obj_kernel_calls": "count",
    "gapscan.iterations": "count", "gapscan.mania_reference_energy.s": "s",
    "functional.cell_energies_lr.calls": "count", "functional.cell_energies_lr.self_s": "s",
    "functional.cell_energies_lr.qpoints": "count",
    "functional.cell_energies_lr.ns_per_qpoint": "ns",
    "functional.energy.calls": "count", "functional.energy.self_s": "s",
    "functional.exact_profile_energy.calls": "count",
    "functional.exact_profile_energy.self_s": "s",
    "lagrangian.eval.calls": "count", "lagrangian.eval.points": "count",
    "lagrangian.eval.self_s": "s", "lagrangian.eval.ns_per_point": "ns",
    "lagrangian.partials.calls": "count", "lagrangian.partials.self_s": "s",
    "repar.reparametrize.calls": "count", "repar.reparametrize.self_s": "s",
    "repar.calls_per_k": "1", "repar.choose_lambda.s": "s", "repar.classify.s": "s",
    "repar.select_A.s": "s", "repar.build_map.s": "s", "repar.find_K.self_s": "s",
    "trajectory.push_through_inverse.s": "s", "trajectory.mesh_builds": "count",
    "trajectory.from_csv.s": "s",
    "necessary.el_residual.s": "s", "necessary.dbr_residual.s": "s",
    "necessary.samples": "count", "necessary.skipped": "count",
    "trace.overhead_ratio": "1",
}
UNITS = {**END_TO_END, **DETAIL_ONLY, **PER_LAYER}


def _import_lavlab():
    """lavlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "lavlab" / "cli.py").is_file():
        sys.stderr.write(f"error: no lavlab sources under {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import lavlab.cli
    if Path(lavlab.cli.__file__).resolve().parent != SRC / "lavlab":
        sys.stderr.write(f"error: imported lavlab from {lavlab.cli.__file__}\n")
        sys.exit(2)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    import numpy
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def setup(workload: str, seed: int, scale: str, work: Path) -> tuple[list[float], Path]:
    """Time SETUP_REPEATS fresh set-ups; all must write identical inputs."""
    times, digests = [], set()
    for i in range(SETUP_REPEATS):
        inputs = work / f"inputs{i}"
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "make_inputs.py"), workload, str(seed),
             scale, str(inputs)],
            capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        digests.add(tuple(sorted((p.name, _sha256(p)) for p in inputs.iterdir())))
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different inputs for the same seed")
    return times, work / "inputs0"


@dataclass
class SessionResult:
    seconds: float
    ok: bool
    digests: dict[str, str]
    problems: list[str]
    quality: float | None = None
    named: dict[str, float | None] = field(default_factory=dict)
    iterations: int = 0
    report_bytes: int = 0


def run_session(workload: str, sess, out: Path, seed: int) -> SessionResult:
    """Run one session's CLI calls in this process, then check and hash the reports."""
    import lavlab.cli
    import workloads

    for name in sess.reports:
        (out / name).unlink(missing_ok=True)
    captured: dict[str, str] = {}
    status = 0
    t0 = perf_counter()
    for i, argv in enumerate(sess.calls):
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = lavlab.cli.main(argv)
        except (Exception, SystemExit):
            sys.stderr.write(f"session call {argv[0]} raised:\n{traceback.format_exc()}")
            status = -1
        if i in sess.stdout_reports:
            captured[sess.stdout_reports[i]] = stdout.getvalue()
        if status != 0:
            break
    seconds = perf_counter() - t0
    if status != 0:
        return SessionResult(seconds, False, {}, [f"exit status {status}"])
    for name, text in captured.items():
        (out / name).write_text(text, encoding="utf-8")
    missing = [name for name in sess.reports if not (out / name).is_file()]
    if missing:
        return SessionResult(seconds, False, {}, [f"missing reports {missing}"])
    try:
        checked = workloads.CHECKS[workload](out, seed)
    except (KeyError, TypeError, ValueError) as exc:  # a malformed report
        return SessionResult(seconds, False, {}, [f"unreadable report: {exc!r}"])
    return SessionResult(
        seconds, not checked.problems,
        {name: _sha256(out / name) for name in sess.reports},
        checked.problems, checked.quality, checked.named, checked.iterations,
        sum((out / name).stat().st_size for name in sess.reports))


class Loop:
    """Closed loop, one client: the next session starts when one ends."""

    def __init__(self, workload: str, sess, out: Path, seed: int) -> None:
        self.workload, self.session, self.out, self.seed = workload, sess, out, seed
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.last: SessionResult | None = None

    def once(self, on_done=None) -> SessionResult:
        gc.collect()  # each session starts from the same collector state
        res = run_session(self.workload, self.session, self.out, self.seed)
        self.attempted += 1
        if res.ok:
            if self.reference is None:
                self.reference = res.digests
            elif res.digests != self.reference:
                res.ok = False
                res.problems.append("report digests differ from the first session")
        if not res.ok:
            self.failed += 1
            sys.stderr.write(f"failed session: {'; '.join(res.problems)}\n")
        self.last = res
        if on_done is not None:
            on_done(res)
        return res

    def timed(self, budget_s: float, min_sessions: int,
              on_done=None) -> list[SessionResult]:
        """Sessions until the next one would overrun the budget."""
        results = []
        start = perf_counter()
        while True:
            results.append(self.once(on_done))
            median = statistics.median(r.seconds for r in results)
            if len(results) >= min_sessions and \
                    perf_counter() - start + median > budget_s:
                return results


def layer_metrics(spans, sess, res: SessionResult) -> dict[str, float]:
    """PER_LAYER values of one traced session; a ratio with a zero base reads 0."""
    from tracer import LayerTotals, aggregate

    totals, edges = aggregate(spans)

    def t(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def per(num: float, base: float, scale: float = 1.0) -> float:
        return scale * num / base if base else 0.0

    kernel, ev = t("functional.cell_energies_lr"), t("lagrangian.eval")
    el, dbr = t("necessary.el_residual"), t("necessary.dbr_residual")
    return {
        "cli.run.self_s": t("cli.run").self_s,
        "cli.report_bytes": res.report_bytes,
        "gapscan.minimize_bounded.calls": t("gapscan.minimize_bounded").calls,
        "gapscan.minimize_bounded.self_s": t("gapscan.minimize_bounded").self_s,
        "gapscan.grad_kernel_calls":
            edges.get(("gapscan.minimize_bounded", "functional.cell_energies_lr"), 0),
        "gapscan.obj_kernel_calls":
            edges.get(("gapscan.minimize_bounded", "functional.cell_energies"), 0),
        "gapscan.iterations": res.iterations,
        "gapscan.mania_reference_energy.s": t("gapscan.mania_reference_energy").total_s,
        "functional.cell_energies_lr.calls": kernel.calls,
        "functional.cell_energies_lr.self_s": kernel.self_s,
        "functional.cell_energies_lr.qpoints": kernel.count,
        "functional.cell_energies_lr.ns_per_qpoint": per(kernel.self_s, kernel.count, 1e9),
        "functional.energy.calls": t("functional.energy").calls,
        "functional.energy.self_s": t("functional.energy").self_s,
        "functional.exact_profile_energy.calls": t("functional.exact_profile_energy").calls,
        "functional.exact_profile_energy.self_s": t("functional.exact_profile_energy").self_s,
        "lagrangian.eval.calls": ev.calls,
        "lagrangian.eval.points": ev.count,
        "lagrangian.eval.self_s": ev.self_s,
        "lagrangian.eval.ns_per_point": per(ev.self_s, ev.count, 1e9),
        "lagrangian.partials.calls": t("lagrangian.partials").calls,
        "lagrangian.partials.self_s": t("lagrangian.partials").self_s,
        "repar.reparametrize.calls": t("repar.reparametrize").calls,
        "repar.reparametrize.self_s": t("repar.reparametrize").self_s,
        "repar.calls_per_k": per(t("repar.reparametrize").calls, sess.k_grid_size),
        "repar.choose_lambda.s": t("repar.choose_lambda").total_s,
        "repar.classify.s": t("repar.classify").total_s,
        "repar.select_A.s": t("repar.select_A").total_s,
        "repar.build_map.s": t("repar.build_map").total_s,
        "repar.find_K.self_s": t("repar.find_K").self_s,
        "trajectory.push_through_inverse.s": t("trajectory.push_through_inverse").total_s,
        "trajectory.mesh_builds": t("trajectory.Mesh").calls,
        "trajectory.from_csv.s": t("trajectory.from_csv").total_s,
        "necessary.el_residual.s": el.total_s,
        "necessary.dbr_residual.s": dbr.total_s,
        "necessary.samples": el.count + dbr.count,
        "necessary.skipped": el.extra + dbr.extra,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One benchmark run; returns the detail record, metrics included."""
    import workloads

    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, inputs = setup(workload, seed, scale, work)
        out = work / "out"
        out.mkdir()
        sess = workloads.session(workload, seed, scale, inputs, out)
        loop = Loop(workload, sess, out, seed)
        loop.once()  # warm-up: untimed, but checked
        detail: dict = {"workload": workload, "seed": seed, "scale": scale,
                        "host": host_facts(), "setup_runs_s": setup_times}
        if trace:
            untraced = loop.timed(seconds / 2, MIN_SESSIONS - 1)
            metrics = traced_metrics(loop, seconds / 2, untraced, detail)
        else:
            untraced = loop.timed(seconds, MIN_SESSIONS)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_s": statistics.median(r.seconds for r in untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    metrics["quality"] = loop.last.quality
    metrics["failed_ratio"] = loop.failed / loop.attempted
    metrics.update(loop.last.named)
    detail.update({
        "sessions_s": [r.seconds for r in untraced],
        "op_s_samples": len(untraced),
        "report_digests": loop.reference,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    })
    return detail


def traced_metrics(loop: Loop, budget_s: float, untraced: list[SessionResult],
                   detail: dict) -> dict[str, float]:
    """Per-layer medians over traced sessions, and the tracing overhead."""
    from tracer import Tracer

    tracer = Tracer()
    per_session: list[dict[str, float]] = []
    tracer.install()
    try:
        traced = loop.timed(budget_s, MIN_SESSIONS - 1, on_done=lambda res: per_session.append(
            layer_metrics(tracer.take(), loop.session, res)))
    finally:
        tracer.uninstall()
    metrics = {name: statistics.median(m[name] for m in per_session)
               for name in per_session[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(r.seconds for r in traced)
                                       / statistics.median(r.seconds for r in untraced))
    detail["traced_sessions_s"] = [r.seconds for r in traced]
    detail["absent_wrap_targets"] = tracer.absent
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "small"),
                        help="input sizes; 'small' is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _import_lavlab()
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    listed = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: detail["metrics"][name] for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
