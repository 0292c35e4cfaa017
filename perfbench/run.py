#!/usr/bin/env python3
"""latomo benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk-ssatv2 --seed 42 --seconds 25 --trace 0

Run from the root of a source checkout; latomo is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress and check failures go to standard error.  ``--workload all`` runs
every workload in turn, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One thread for every BLAS/OpenMP pool; set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or `all`")
    ap.add_argument("--seed", type=int, default=42,
                    help="noise seed and check sampling seed (default 42)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="repeat the workload until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting per-layer metrics")
    return ap.parse_args(argv)


def run_all(args, names) -> int:
    worst = 0
    for name in names:
        code = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "latomo" / "__init__.py").is_file():
        print(f"error: no latomo sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    def report(line):
        print(f"[{args.workload}] {line}", file=sys.stderr, flush=True)

    runs = ROOT / ".perfbench_runs"
    result = workloads.measure(workloads.WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace),
                               runs / f"{args.workload}-{os.getpid()}", report)
    try:
        runs.rmdir()
    except OSError:  # another run still uses it
        pass
    absent = sorted(k for k, m in result["metrics"].items() if m["value"] is None)
    if absent:
        report("absent on this workload: " + ", ".join(absent))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
