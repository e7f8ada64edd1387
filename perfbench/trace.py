"""The traced run: per-layer records for each workload.

    python3 perfbench/trace.py [--workload NAME ...] [--seed N]

For each workload, runs the seed's first round untraced, with spans
installed, and untraced again (see `run.traced_run`) and prints a JSON
list of records {"layer", "workload", "value", "unit", "python",
"git_sha"}: the
calls, inclusive time and self time of every span, the object sizes, the
bytes written, and the tracing overhead.  Call counts repeat exactly for
the same seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys

from run import check_checkout, summarize, traced_run
from workloads import ROOT, WORKLOADS

UNITS = {
    "_calls": "count",
    "_s": "s",
    "max_terms": "count",
    "max_coeff_bits": "bits",
    "output_bytes": "bytes",
}


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except FileNotFoundError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def unit_of(layer: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if layer.endswith(suffix))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    check_checkout()
    sha, python = git_sha(), platform.python_version()
    records = []
    for name in args.workload or list(WORKLOADS):
        results, values = traced_run(WORKLOADS[name], args.seed)
        attempted, failed, correct = summarize(results)
        if not correct:
            print(f"perfbench: {name}: wrong outputs, see above", file=sys.stderr)
            return 1
        records += [
            {"layer": layer, "workload": name, "value": value, "unit": unit_of(layer),
             "python": python, "git_sha": sha}
            for layer, value in values.items()
        ]
    print("[\n" + ",\n".join(json.dumps(record) for record in records) + "\n]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
