"""The benchmark's workloads: seeded operation sequences, and how one
operation is run and checked.

An operation is one `degenbell` command line, run by the CLI entry
point in a worker process (`worker.py`) and timed there.  `verify-n10`
and `cli-mix` start a fresh worker for each, so every command starts
cold as `python3 -m degenbell` does; `eval-sweep` runs all of a run's
commands in one worker.  Every workload is
a stream of rounds, and a run executes whole rounds, so the share of each
kind of operation, the known fault included, is the same in every run.
The worker times a yardstick (`yardstick.py`) just before and just
after each command, which gives the machine's speed at that moment.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FAMILIES = ("bell", "stirling1", "stirling2", "dstirling", "dbell")
FORMATS = ("text", "json", "csv")
CLI_EVAL_NS = (0, 3, 6, 8, 11, 14, 16, 19, 22, 24, 27, 30)


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    check: Callable[[str, int], None]
    # Compare the bytes with the earlier run of the same arguments in this round.
    repeat: bool = False
    # Fails until the fault it exercises is fixed; see README.
    known_fault: bool = False


@dataclass
class Result:
    op: Op
    seconds: float
    out_bytes: int
    failure: str | None
    # Mean of the yardsticks timed just before and just after the command.
    yard: float


def table_op(family: str, n_max: int, fmt: str) -> Op:
    args = ("table", "--family", family, "--n-max", str(n_max), "--format", fmt)
    return Op(args, functools.partial(checks.check_table, family, n_max, fmt))


def verify_op(n_max: int, fmt: str) -> Op:
    args = ("verify", "--n-max", str(n_max), "--format", fmt)
    return Op(args, functools.partial(checks.check_verify, n_max, fmt))


def eval_op(n: int, lam: float, x: float, dobinski: bool, fmt: str, known_fault: bool = False) -> Op:
    args = ("eval", "--n", str(n), "--lambda", repr(lam), "--x", repr(x), "--format", fmt)
    args += ("--dobinski",) if dobinski else ()
    check = functools.partial(checks.check_eval, n, lam, x, dobinski, fmt)
    return Op(args, check, known_fault=known_fault)


# exp(-xL) underflows at xL ≈ 810 and 80 terms stop far short of the peak
# term, so the program prints a Dobinski value of 0.0 against about 5.3e8.
KNOWN_FAULT = eval_op(3, 0.5, 1000.0, True, "text", known_fault=True)


def draw_lambda(rng: random.Random) -> float:
    """Uniform on (-0.95, -0.05) ∪ [0.05, 2)."""
    u = rng.uniform(0.0, 2.85)
    return u - 0.95 if u < 0.9 else u - 0.85


def verify_rounds(seed: int) -> Iterator[list[Op]]:
    """One cold `verify --n-max 10` per round; the seed changes nothing.
    At n = 10 a 30 s run holds about 17 commands; at n = 12 it held eight
    to ten, and their median spread 9 % across runs."""
    while True:
        yield [verify_op(10, "json")]


def eval_sweep_rounds(seed: int) -> Iterator[list[Op]]:
    """Per round, every n from 0 to 30 at four (λ, x) points, two of them
    with --dobinski, shuffled; then the known fault.  125 operations.
    Every round has the same mix of n, so the latency percentiles do not
    depend on which n a seed happens to draw."""
    rng = random.Random(seed)
    while True:
        ops = [
            eval_op(n, draw_lambda(rng), rng.uniform(0.1, 5.0), dobinski, "text")
            for n in range(31)
            for dobinski in (True, True, False, False)
        ]
        rng.shuffle(ops)
        yield ops + [KNOWN_FAULT]


def cli_mix_rounds(seed: int) -> Iterator[list[Op]]:
    """Per round: `table` for every family in every format at --n-max 30,
    at one of 4, 8, 12 and at one of 17, 21, 25 (which format gets which
    size is drawn); `eval` at each n of CLI_EVAL_NS, --dobinski on every
    second one, at drawn (λ, x) and format; `verify` at --n-max 2, 5 and 8
    in drawn formats; all shuffled, then a repeat of one of them.  61
    processes.  Every round has the same sizes, so the latency percentiles
    do not depend on the seed or on how many rounds fit in a run."""
    rng = random.Random(seed)
    while True:
        ops = []
        for family in FAMILIES:
            sizes = zip(rng.sample((4, 8, 12), 3), rng.sample((17, 21, 25), 3))
            for fmt, (small, large) in zip(FORMATS, sizes):
                ops += [table_op(family, n_max, fmt) for n_max in (30, small, large)]
        for index, n in enumerate(CLI_EVAL_NS):
            point = (n, draw_lambda(rng), rng.uniform(0.1, 5.0))
            ops.append(eval_op(*point, index % 2 == 1, rng.choice(FORMATS)))
        ops += [verify_op(n_max, rng.choice(FORMATS)) for n_max in (2, 5, 8)]
        rng.shuffle(ops)
        again = rng.choice(ops)
        yield ops + [Op(again.args, again.check, repeat=True)]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Iterator[list[Op]]]
    # All commands in one long-lived worker process, rather than one
    # fresh process each.
    one_process: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-n10", verify_rounds, False),
        Workload("eval-sweep", eval_sweep_rounds, True),
        Workload("cli-mix", cli_mix_rounds, False),
    )
}


# -- running one operation -------------------------------------------------------


def program_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Worker:
    """One `worker.py` process, which runs commands in turn and times
    each.  `close()` ends it and returns its spans when traced."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        command = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *(["--trace"] if traced else [])]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __call__(self, op: Op) -> tuple[float, float, str, str, int]:
        self.proc.stdin.write(json.dumps(op.args) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended during {' '.join(op.args)}")
        answer = json.loads(line)
        return answer["seconds"], answer["yard"], answer["out"], answer["err"], answer["status"]

    def close(self) -> dict | None:
        self.proc.stdin.close()
        stats = json.loads(self.proc.stdout.readline()) if self.traced else None
        self.proc.wait()
        return stats


@contextlib.contextmanager
def executor(workload: Workload, traced: bool, spans: list[dict]) -> Iterator[Callable]:
    """A function that runs one operation: in a fresh worker each, so
    every command starts cold as `python3 -m degenbell` does, or in one
    worker for the whole block when the workload is `one_process`.  The
    spans of traced workers are appended to `spans`."""
    if workload.one_process:
        with Worker(traced) as worker:
            yield worker
            spans.append(worker.close())
        return

    def fresh(op: Op) -> tuple[float, float, str, str, int]:
        with Worker(traced) as worker:
            answer = worker(op)
            spans.append(worker.close())
        return answer

    yield fresh


def run_round(ops: list[Op], execute: Callable[[Op], tuple[float, float, str, str, int]]) -> list[Result]:
    """Each operation through `execute`; checks the outputs."""
    results = []
    seen: dict[tuple[str, ...], tuple[str, int]] = {}
    for op in ops:
        seconds, yard, out, err, status = execute(op)
        failure = None
        try:
            checks.expect(not err, f"stderr: {err.strip()[-300:]}")
            if op.repeat:
                checks.expect(seen[op.args] == (out, status), "same flags gave different output")
            op.check(out, status)
        except (checks.Mismatch, ValueError, LookupError, TypeError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        seen[op.args] = (out, status)
        results.append(Result(op, seconds, len(out.encode()), failure, yard))
    return results
