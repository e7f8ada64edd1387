"""degenbell benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/`
there.  With `--trace 0` it sets up, then runs whole rounds of the
workload until S seconds have passed, checks every output against
`reference`, and reports the end-to-end metrics of BENCHMARK.json.  With
`--trace 1` it runs the seed's first round untraced, traced and untraced
again, and reports the per-layer metrics.  The last line of standard
output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import tracing
from workloads import ROOT, SRC, WORKLOADS, Result, executor, program_env, run_round
from yardstick import yardstick

# A set-up sample is taken before the first operation of a run and then
# before the first operation after each SETUP_EVERY_S seconds.
SETUP_EVERY_S = 1.0
# Times are reported at the speed at which the yardstick takes this long,
# about the fastest it ran on the machine of the README's figures.
YARDSTICK_REFERENCE_S = 0.005


def check_checkout() -> None:
    """Refuse to run without the program's sources in this checkout, or
    when `degenbell` would be imported from anywhere else.  Also writes
    the bytecode cache before anything is timed."""
    if not (SRC / "degenbell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run from a full checkout")
    proc = subprocess.run(
        [sys.executable, "-c", "import degenbell.__main__, degenbell.cli; print(degenbell.__file__)"],
        cwd=ROOT, env=program_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    if not proc.stdout.strip().startswith(str(SRC)):
        raise SystemExit(f"perfbench: degenbell imports from {proc.stdout.strip()}, not {SRC}")


def setup_sample() -> float:
    """Wall time, at reference speed, of a fresh interpreter importing the
    program's CLI: the start-up every command pays before it runs."""
    before = yardstick()
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import degenbell.cli"], cwd=ROOT, env=program_env(), check=True, timeout=60
    )
    seconds = perf_counter() - start
    return seconds * 2 * YARDSTICK_REFERENCE_S / (before + yardstick())


def run_rounds(workload, seed: int, seconds: float) -> tuple[list[Result], list[float]]:
    """Whole rounds until `seconds` have passed, with set-up samples spread
    over the run: the results and the set-up times."""
    stream = workload.rounds(seed)
    results: list[Result] = []
    setups: list[float] = []
    last_setup = -SETUP_EVERY_S
    with executor(workload, traced=False, spans=[]) as execute:

        def execute_and_sample(op):
            nonlocal last_setup
            if perf_counter() - last_setup >= SETUP_EVERY_S:
                last_setup = perf_counter()
                setups.append(setup_sample())
            return execute(op)

        start = perf_counter()
        while not results or perf_counter() - start < seconds:
            results += run_round(next(stream), execute_and_sample)
    return results, setups


def op_times(results: list[Result]) -> list[float]:
    """Each command's wall time at the yardstick's reference speed.  The
    machine's speed moves by half or more within a minute with other
    tenants' load, and the yardstick timed around the command follows it."""
    return [r.seconds * YARDSTICK_REFERENCE_S / r.yard for r in results]


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results: list[Result], setups: list[float]) -> dict[str, float]:
    latencies = op_times(results)
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(latencies) * 1000,
        "op_ms_p90": percentile(latencies, 90) * 1000,
        "ops_per_s": len(latencies) / sum(latencies),
        # Every program process is a child: a set-up interpreter or a
        # worker, which imports only degenbell and the standard library.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def one_round(workload, ops, traced: bool) -> tuple[list[Result], dict | None]:
    """One round in fresh workers, so every round starts with the same
    cold caches; with `traced`, also its spans."""
    spans: list[dict] = []
    with executor(workload, traced, spans) as execute:
        results = run_round(ops, execute)
    stats = None
    for part in spans:
        if part is not None:
            stats = tracing.merge(stats, part)
    return results, stats


def traced_run(workload, seed: int) -> tuple[list[Result], dict[str, float]]:
    """The seed's first round untraced, traced, then untraced again, so
    call counts repeat exactly: the traced results, and the per-layer
    values with the tracing overhead against the two untraced rounds."""
    ops = next(workload.rounds(seed))
    before, _ = one_round(workload, ops, traced=False)
    results, stats = one_round(workload, ops, traced=True)
    after, _ = one_round(workload, ops, traced=False)
    if stats["missing"]:
        print(f"perfbench: not traced, missing: {stats['missing']}", file=sys.stderr)
    values: dict[str, float] = {}
    for metric, (calls, inclusive, self_time) in stats["spans"].items():
        values[f"{metric}_calls"] = calls
        values[f"{metric}_s"] = inclusive
        values[f"{metric}_self_s"] = self_time
    values["poly.max_terms"] = stats["max_terms"]
    values["poly.max_coeff_bits"] = stats["max_coeff_bits"]
    values["cli.output_bytes"] = sum(r.out_bytes for r in results)
    values["trace.untraced_s"] = statistics.mean(sum(op_times(rs)) for rs in (before, after))
    values["trace.traced_s"] = sum(op_times(results))
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    return results, values


def declared_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[kind]


def summarize(results: list[Result]) -> tuple[int, int, bool]:
    failed = [r for r in results if r.failure is not None]
    unexpected = [r for r in failed if not r.op.known_fault]
    for r in unexpected[:5]:
        print(f"perfbench: FAILED {' '.join(r.op.args)}: {r.failure}", file=sys.stderr)
    return len(results), len(failed), not unexpected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    workload = WORKLOADS[args.workload]
    if args.trace:
        results, values = traced_run(workload, args.seed)
        declared = declared_metrics("per_layer")
    else:
        results, setups = run_rounds(workload, args.seed, args.seconds)
        values = end_to_end(results, setups)
        declared = declared_metrics("end_to_end")
    attempted, failed, correct = summarize(results)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {workload.name} seed {args.seed}: {attempted} operations, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
