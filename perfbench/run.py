"""Repository benchmark: one seeded workload per run, checked and measured.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` splits the time between untraced and traced operations
(solve-batch and stream-durable alternate cycles or episodes; serve-open
runs an untraced half, then a traced half).  The traced ones turn on the
program's ``trace=`` hooks and the benchmark's own spans around each layer
call.  It reports the per-layer metrics and writes a Chrome-trace JSON
under ``.perfbench/traces/``.  Human-readable lines come first; the last
line of standard output is the JSON result.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

#: BLAS pools would add threads beyond the ones each workload budgets.
BLAS_THREADS = 1
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

WORKLOADS = {
    "serve-open": "workload_serve",
    "solve-batch": "workload_batch",
    "stream-durable": "workload_stream",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _checkout_root() -> Path:
    """The checkout this file sits in; the library must be there as source."""
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {root / 'src'}; run from a checkout")
    return root


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    root = _checkout_root()
    sys.path.insert(0, str(root / "src"))
    bench_dir = Path(__file__).resolve().parent
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))

    import importlib

    import numpy as np

    import repro
    from benchcommon import END_TO_END, PER_LAYER

    if Path(repro.__file__).resolve().parent != root / "src" / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not this checkout")
    workload = importlib.import_module(WORKLOADS[args.workload])

    out_dir = root / ".perfbench"
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    trace_path = str(
        out_dir / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    )
    try:
        result = workload.run(
            args.seed, args.seconds, bool(args.trace), trace_path, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    threads = dict(workload.THREADS)
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "threads": threads,
        "busy_threads_max": sum(threads.values()),
    }
    print(
        f"workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    print("environment " + json.dumps(environment, sort_keys=True))
    if environment["busy_threads_max"] > (os.cpu_count() or 1):
        print("warning: the workload runs more busy threads than the machine has cores")
    for line in result.report:
        print(line)
    for reason in result.tally.reasons:
        print(f"check failed: {reason}")
    if args.trace:
        print(f"trace written to {os.path.relpath(trace_path, root)}")
        names = PER_LAYER
        values = {name: float(result.per_layer.get(name, 0.0)) for name, _ in names}
    else:
        names = END_TO_END
        values = {name: float(result.end_to_end[name]) for name, _ in names}
    units = dict(names)
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    tally = result.tally
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.attempted > 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
