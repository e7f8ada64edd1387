"""Command-line front end.

Three subcommands:

    table    emit a number family (classical or degenerate) as text, JSON
             or CSV
    verify   run the full identity suite; exit 0 only if everything passed
    eval     evaluate a degenerate Bell value at real lambda and x

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error.  Output is deterministic: same flags, same bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from .classical import bell_polynomial, stirling1, stirling2
from .degenerate import degenerate_bell, degenerate_stirling2
from .numeric import DEFAULT_TERMS, DEFAULT_TOL, dobinski_check, eval_bel_numeric
from .poly import MPoly
from .suite import run_full_suite

FAMILIES = ("bell", "stirling1", "stirling2", "dstirling", "dbell")
FORMATS = ("text", "json", "csv")
CSV_HEADER = ["identity", "n", "lambda", "x", "terms", "lhs", "rhs", "abs_error", "passed"]


class UsageError(Exception):
    """Input that passed parsing but cannot be served (a value out of float
    range, an unwritable --output); `main` reports it and exits 2."""


@dataclass(frozen=True)
class CliConfig:
    command: str
    family: str | None = None
    n_max: int = 0
    lam: float | None = None
    x: float | None = None
    terms: int = DEFAULT_TERMS
    tol: float = DEFAULT_TOL
    fmt: str = "text"
    output: str | None = None
    dobinski: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenbell",
        description="Exact tables, identity verification and numeric evaluation "
        "for degenerate Bell polynomials and degenerate Stirling numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a number family")
    table.add_argument("--family", required=True, choices=FAMILIES)
    table.add_argument("--n-max", type=int, default=8)
    table.add_argument("--format", choices=FORMATS, default="text")
    table.add_argument("--output", default=None)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--n-max", type=int, default=12)
    verify.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--format", choices=FORMATS, default="text")
    verify.add_argument("--output", default=None)

    ev = sub.add_parser("eval", help="evaluate a degenerate Bell value")
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--lambda", dest="lam", type=float, required=True)
    ev.add_argument("--x", type=float, required=True)
    ev.add_argument("--dobinski", action="store_true")
    ev.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    ev.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ev.add_argument("--format", choices=FORMATS, default="text")
    ev.add_argument("--output", default=None)

    return parser


def parse_config(argv: list[str] | None = None) -> CliConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "table":
        if ns.n_max < 0:
            parser.error("--n-max must be >= 0")
        return CliConfig("table", family=ns.family, n_max=ns.n_max, fmt=ns.format, output=ns.output)
    if ns.command == "verify":
        if ns.n_max < 0:
            parser.error("--n-max must be >= 0")
        if ns.terms < 1:
            parser.error("--terms must be >= 1")
        if ns.tol <= 0:
            parser.error("--tol must be > 0")
        return CliConfig(
            "verify", n_max=ns.n_max, terms=ns.terms, tol=ns.tol, fmt=ns.format, output=ns.output
        )
    if ns.n < 0:
        parser.error("--n must be >= 0")
    if ns.terms < 1:
        parser.error("--terms must be >= 1")
    if ns.tol <= 0:
        parser.error("--tol must be > 0")
    if not -1.0 < ns.lam < math.inf or ns.lam == 0.0:
        parser.error("--lambda must lie in (-1, 0) or (0, inf); use the classical table at 0")
    if not math.isfinite(ns.x):
        parser.error("--x must be finite")
    return CliConfig(
        "eval",
        n_max=ns.n,
        lam=ns.lam,
        x=ns.x,
        dobinski=ns.dobinski,
        terms=ns.terms,
        tol=ns.tol,
        fmt=ns.format,
        output=ns.output,
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {output}: {exc.strerror}") from exc


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _csv_text(rows: list[list], header: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# -- table ----------------------------------------------------------------


def _table_entries(family: str, n_max: int) -> list[tuple]:
    """(label parts..., value) tuples per family, in table order."""
    if family == "bell":
        return [(n, bell_polynomial(n)) for n in range(n_max + 1)]
    if family == "dbell":
        return [(n, degenerate_bell(n)) for n in range(n_max + 1)]
    if family == "dstirling":
        return [(n, m, degenerate_stirling2(n, m)) for n in range(n_max + 1) for m in range(n + 1)]
    entry = stirling1 if family == "stirling1" else stirling2
    return [(n, [entry(n, k) for k in range(n + 1)]) for n in range(n_max + 1)]


def run_table(config: CliConfig) -> int:
    entries = _table_entries(config.family, config.n_max)
    if config.fmt == "text":
        lines = []
        for entry in entries:
            if config.family == "bell":
                n, poly = entry
                lines.append(f"Bel_{n}(x) = {poly.pretty()}")
            elif config.family == "dbell":
                n, poly = entry
                lines.append(f"Bel_{{{n},λ}}(x) = {poly.pretty()}")
            elif config.family == "dstirling":
                n, m, poly = entry
                lines.append(f"S2({n},{m}|λ) = {poly.pretty()}")
            else:
                n, row = entry
                lines.append(f"n={n}: " + " ".join(str(v) for v in row))
        _emit("\n".join(lines) + "\n", config.output)
        return 0
    if config.fmt == "json":
        if config.family in ("bell", "dbell"):
            payload = [{"n": n, "poly": poly.to_json_obj()} for n, poly in entries]
        elif config.family == "dstirling":
            payload = [{"n": n, "m": m, "poly": poly.to_json_obj()} for n, m, poly in entries]
        else:
            payload = [{"n": n, "row": list(row)} for n, row in entries]
        _emit(_json_text(payload), config.output)
        return 0
    if config.family in ("bell", "dbell"):
        rows = [[n, poly.pretty()] for n, poly in entries]
        header = ["n", "poly"]
    elif config.family == "dstirling":
        rows = [[n, m, poly.pretty()] for n, m, poly in entries]
        header = ["n", "m", "poly"]
    else:
        rows = [[n, k, value] for n, row in entries for k, value in enumerate(row)]
        header = ["n", "k", "value"]
    _emit(_csv_text(rows, header), config.output)
    return 0


# -- verify ---------------------------------------------------------------


def run_verify(config: CliConfig) -> int:
    result = run_full_suite(config.n_max, config.terms, config.tol)
    if config.fmt == "json":
        payload = [r.to_json_obj() for r in result.reports] + [c.to_json_obj() for c in result.checks]
        _emit(_json_text(payload), config.output)
    elif config.fmt == "csv":
        rows = [
            [r.identity_name, f"{r.n_range[0]}..{r.n_range[1]}", "", "", "", "", "", "", r.passed]
            for r in result.reports
        ]
        rows.extend(c.to_csv_row() for c in result.checks)
        _emit(_csv_text(rows, CSV_HEADER), config.output)
    else:
        lines = []
        for r in result.reports:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.identity_name} n={r.n_range[0]}..{r.n_range[1]}"
            if r.first_failure is not None:
                line += f" (first failure at n={r.first_failure[0]})"
            lines.append(line)
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            where = f"n={c.n}" + ("" if c.lam is None else f" lambda={c.lam} x={c.x}")
            lines.append(f"{status} {c.identity_name} {where} terms={c.terms} abs_error={c.abs_error:.3e}")
        total = len(result.reports) + len(result.checks)
        failed = sum(1 for r in result.reports if not r.passed) + sum(
            1 for c in result.checks if not c.passed
        )
        lines.append(
            f"{total} checks, {failed} failed" if failed else f"{total} checks, all passed"
        )
        _emit("\n".join(lines) + "\n", config.output)
    return 0 if result.passed else 1


# -- eval -----------------------------------------------------------------


def run_eval(config: CliConfig) -> int:
    try:
        if config.dobinski:
            check = dobinski_check(config.n_max, config.lam, config.x, config.terms, config.tol)
            value = check.lhs
        else:
            check = None
            value = eval_bel_numeric(config.n_max, config.lam, config.x)
    except OverflowError as exc:
        where = f"n={config.n_max}, lambda={config.lam!r}, x={config.x!r}"
        raise UsageError(f"the value at {where} is out of float range ({exc})") from exc
    if config.fmt == "json":
        payload = {"n": config.n_max, "lambda": config.lam, "x": config.x, "value": value}
        if check is not None:
            payload.update(
                {
                    "dobinski": check.rhs,
                    "terms": check.terms,
                    "abs_error": check.abs_error,
                    "passed": check.passed,
                }
            )
        _emit(_json_text(payload), config.output)
    elif config.fmt == "csv":
        if check is not None:
            rows = [check.to_csv_row()]
        else:
            rows = [["bell_degenerate_value", config.n_max, repr(config.lam), repr(config.x), "", repr(value), "", "", ""]]
        _emit(_csv_text(rows, CSV_HEADER), config.output)
    else:
        if check is None:
            _emit(f"{value!r}\n", config.output)
        else:
            _emit(
                f"value {value!r}\ndobinski {check.rhs!r}\nabs_error {check.abs_error!r}\n",
                config.output,
            )
    return 0 if check is None or check.passed else 1


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    config = parse_config(argv)
    run = {"table": run_table, "verify": run_verify, "eval": run_eval}[config.command]
    try:
        return run(config)
    except UsageError as exc:
        print(f"degenbell: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
