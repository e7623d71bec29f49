#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload grid-default --seeds 0,1,2,3,4

For every metric the ten (or however many) values are summarised by their
median and quartiles, as ``statistics.quantiles(values, n=4)`` gives them,
and the spread is (Q3 - Q1) / median.  End-to-end spreads are compared with
the bounds of BENCHMARK.json; a spread above a third of the bound is flagged.
Runs are sequential, one benchmark process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9",
                        help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds.split(","):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", seed, "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds or args.trace),
              flush=True)

    worst = 0.0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        line = f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}"
        if name in bounds:
            line += f" bound={bounds[name]}"
            if name != "setup_s":
                if spread > bounds[name] / 3:
                    line += "  <-- above a third of the bound"
                worst = max(worst, spread / bounds[name])
        print(line)
    print(f"all correct: {all(r['correct'] for r in runs)}; "
          f"worst spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
