"""Set-up step of one benchmark run, timed by the caller as a whole process.

A fresh interpreter imports lavlab's CLI (what every user invocation pays)
and writes the workload's seeded input files:

    python3 bench/make_inputs.py <workload> <seed> <full|small> <directory>
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import lavlab.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    workload, seed, scale, directory = sys.argv[1:]
    workloads.make_inputs(workload, int(seed), scale, Path(directory))
