"""Steadiness: repeat workloads with fresh seeds and report the spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

Runs `run.py` for BENCHMARK.json's `run_seconds` once per seed, seeds 1
to RUNS, for each workload (default: all three) and prints, per
end-to-end metric, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median
beside the metric's bound in BENCHMARK.json, and the share of failed
operations in each run.  The bounds are set from this output: each
spread should stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for name in args.workload or list(WORKLOADS):
        runs = []
        for seed in range(1, args.runs + 1):
            command = [sys.executable, "perfbench/run.py", "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{name}: {args.runs} runs, correct={correct}, failed/attempted {' '.join(shares)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            steady &= ok and correct
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"  {metric:12s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}{'' if ok else '  NOT STEADY'}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
