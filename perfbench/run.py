"""Benchmark of the mambavla stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_pipeline --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.  The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the step time is unchanged and the
# pool's start-up cost leaves the first timed step.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def attach_units(metrics: dict, listed: list[dict]) -> dict:
    """{name: value} -> {name: {value, unit}}, in BENCHMARK.json's order.

    The names must be exactly the listed ones: a metric the benchmark forgot,
    or one BENCHMARK.json does not declare, is a bug in the benchmark.
    """
    names = [m["name"] for m in listed]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing "
                           f"{sorted(set(names) - set(metrics))}, undeclared "
                           f"{sorted(set(metrics) - set(names))}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mambavla" / "__init__.py").is_file():
        print(f"perfbench: no mambavla sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    import numpy as np
    import bench

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} numpy={np.__version__} "
          + " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS), flush=True)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass                       # another run still uses it
    if result["correct"]:
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        result["metrics"] = attach_units(result["metrics"], listed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
