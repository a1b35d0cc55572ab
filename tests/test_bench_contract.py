"""The benchmark's sessions, at their `small` size, run through the CLI and
pass the benchmark's own output checks.

bench/workloads.py holds the argv of each session and the report keys its
checks read.  A change to lavlab that breaks either (a renamed flag, a
dropped report key) fails here, and not first in a benchmark run.  The file
is read, compiled and run as a module of its own; nothing under bench/ is
imported through sys.path, traced or written.
"""

import sys
import types
from pathlib import Path

import pytest

from lavlab import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEED = 611


def _workloads() -> types.ModuleType:
    """bench/workloads.py as a module, compiled in memory (no bytecode file
    is written beside it); registered so its dataclasses can resolve it."""
    module = sys.modules["bench_workloads"] = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"),
         module.__dict__)
    return module


workloads = _workloads()


@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_small_session_passes_the_benchmark_checks(workload, tmp_path, capsys):
    work, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    workloads.make_inputs(workload, SEED, "small", work)
    session = workloads.session(workload, SEED, "small", work, out)
    for i, argv in enumerate(session.calls):
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        stdout = capsys.readouterr().out
        if i in session.stdout_reports:
            (out / session.stdout_reports[i]).write_text(stdout, encoding="utf-8")
    assert workloads.CHECKS[workload](out, SEED).problems == []
