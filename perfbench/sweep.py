"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads grid2d,grid3d-nd,random --seeds 0-9 \\
        --seconds 20 [--out perfbench/BASELINE.json]

For every workload it runs ``run.py`` once per seed, one after another, and
prints per end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  With ``--out`` it also makes
one traced run per workload at the first seed and writes everything as the
recorded baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result line, report) of one benchmark process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=900).stdout.splitlines()
    report = next(json.loads(line[len("# report "):]) for line in out
                  if line.startswith("# report "))
    return json.loads(out[-1]), report


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = [run_once(w, s, seconds, 0) for s in args.seeds]
        if not all(r[0]["correct"] for r in runs):
            print(f"{w}: a run failed its checks", file=sys.stderr)
            return 1
        entry = {"attempted": [r[0]["attempted"] for r in runs],
                 "failed": [r[0]["failed"] for r in runs],
                 "rounds": [r[1]["rounds"] for r in runs], "end_to_end": {}}
        for name in bounds:
            s = spread([r[0]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            if name != "setup_s":
                worst = max(worst, s["spread"] / bounds[name])
            print(f"{w:10s} {name:20s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bounds[name]}")
        baseline["env"] = runs[0][1]["env"]
        if args.out:
            line, report = run_once(w, args.seeds[0], seconds, 1)
            entry["traced_seed"] = args.seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in line["metrics"].items()}
            entry["rlb_vs_best_base"] = report["rlb_vs_best_base"]
        baseline["workloads"][w] = entry
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
