"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload grid2d --seed 0 --seconds 20 --trace 0

Pins BLAS to one thread before numpy loads, imports the package from the
checkout's ``src/`` and prints one JSON result as its last line.  Exits with
code 2, printing no result, when the checkout has no package to measure.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / "src"
    if not (src / "snchol" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'snchol'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload '{args.workload}' "
              f"(choose from {', '.join(bench.WORKLOADS)})", file=sys.stderr)
        return 2
    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    bench.print_report(report, bool(args.trace))
    print(json.dumps(bench.result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
