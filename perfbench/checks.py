"""Checks of the program's outputs against `reference`.

Each `check_*` function takes the command's parameters, its standard
output and its exit status, and raises `Mismatch` (or, for output that
does not parse, `ValueError`, `LookupError` or `TypeError`) when the
output is wrong.  None of them imports `degenbell`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import reference as ref

# Relative rounding budget of one float evaluation of degree <= 30, about
# 100 times the worst-case bound of a Horner pass or a summed series of
# that length.  It scales the sum of absolute values of the terms, so a
# value near a zero of Bel_{n,λ}(x) is judged by what floats can resolve.
REL = 1e-12
# The verify grid is compared at the program's own 1e-9, taken relative
# to the size of the value.
GRID_REL = 1e-9
DEFAULT_TERMS = 80
DEFAULT_TOL = 1e-9

# Exact reports `verify` must print: identity name -> first n of its range.
VERIFY_REPORTS = {
    "addition": 0,
    "classical_bell_expansion_vs_oracle": 1,
    "classical_limit": 0,
    "classical_recurrence": 0,
    "composita_vs_oracle": 0,
    "degenerate_stirling_closed_vs_oracle": 0,
    "degenerate_stirling_sum_vs_oracle": 0,
    "derivative": 1,
    "recurrence_classical_limit": 0,
    "recurrence_vs_oracle": 0,
    "stirling_pair_vs_oracle": 0,
}
GRID_LAMBDAS = (0.1, 0.5, 1.0)
GRID_XS = (0.5, 1.0, 2.0)
GRID_N_CAP = 8
CLASSICAL_N_CAP = 5


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- table ------------------------------------------------------------------

_TEXT_LINE = {
    "bell": re.compile(r"^Bel_(\d+)\(x\) = (.+)$"),
    "dbell": re.compile(r"^Bel_\{(\d+),λ\}\(x\) = (.+)$"),
    "dstirling": re.compile(r"^S2\((\d+),(\d+)\|λ\) = (.+)$"),
    "stirling1": re.compile(r"^n=(\d+): (.+)$"),
    "stirling2": re.compile(r"^n=(\d+): (.+)$"),
}


def expected_table(family: str, n_max: int) -> list[tuple[tuple[int, ...], object]]:
    if family == "bell":
        return [((n,), ref.bell_poly(n)) for n in range(n_max + 1)]
    if family == "dbell":
        return [((n,), ref.dbell_poly(n)) for n in range(n_max + 1)]
    if family == "dstirling":
        return [((n, m), ref.dstirling_poly(n, m)) for n in range(n_max + 1) for m in range(n + 1)]
    row = ref.stirling1_row if family == "stirling1" else ref.stirling2_row
    return [((n,), list(row(n))) for n in range(n_max + 1)]


def parse_table(family: str, fmt: str, out: str) -> list[tuple[tuple[int, ...], object]]:
    rows_family = family in ("stirling1", "stirling2")
    if fmt == "json":
        parsed = []
        for entry in json.loads(out):
            key = (entry["n"], entry["m"]) if family == "dstirling" else (entry["n"],)
            value = entry["row"] if rows_family else ref.poly_from_json(entry["poly"])
            parsed.append((key, value))
        return parsed
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(out)))
        header = {"dstirling": ["n", "m", "poly"]}.get(family, ["n", "poly"])
        if rows_family:
            header = ["n", "k", "value"]
        expect(records[0] == header, f"csv header {records[0]}")
        if rows_family:
            grouped: list[tuple[tuple[int, ...], object]] = []
            for n, k, value in records[1:]:
                if int(k) == 0:
                    grouped.append(((int(n),), []))
                expect(grouped[-1][0] == (int(n),) and len(grouped[-1][1]) == int(k), "csv row order")
                grouped[-1][1].append(int(value))
            return grouped
        return [
            (tuple(int(v) for v in record[:-1]), ref.poly_from_pretty(record[-1]))
            for record in records[1:]
        ]
    expect(out.endswith("\n"), "text output lacks a final newline")
    parsed = []
    for line in out[:-1].split("\n"):
        match = _TEXT_LINE[family].match(line)
        expect(match is not None, f"unexpected line {line[:80]!r}")
        *key, body = match.groups()
        value = [int(v) for v in body.split(" ")] if rows_family else ref.poly_from_pretty(body)
        parsed.append((tuple(int(v) for v in key), value))
    return parsed


def check_table(family: str, n_max: int, fmt: str, out: str, status: int) -> None:
    """Rows and polynomials must equal the reference exactly, in order."""
    expect(status == 0, f"exit status {status}")
    got = parse_table(family, fmt, out)
    want = expected_table(family, n_max)
    expect(len(got) == len(want), f"{len(got)} entries, expected {len(want)}")
    for (got_key, got_value), (want_key, want_value) in zip(got, want):
        expect(got_key == want_key, f"entry {got_key}, expected {want_key}")
        expect(got_value == want_value, f"{family} entry {want_key} differs from the reference")


# -- eval -------------------------------------------------------------------


def _close(value: float, target: float, scale: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= rel * max(abs(target), scale)


def check_eval(
    n: int, lam: float, x: float, dobinski: bool, fmt: str, out: str, status: int
) -> None:
    """The value, and the Dobinski value when asked for, must lie within
    the rounding budget of the reference; the exit status must match the
    reported error against the default tolerance."""
    if fmt == "json":
        payload = json.loads(out)
        expect((payload["n"], payload["lambda"], payload["x"]) == (n, lam, x), "echoed point")
        value = payload["value"]
        if dobinski:
            series, terms = payload["dobinski"], payload["terms"]
            abs_error, passed = payload["abs_error"], payload["passed"]
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(out)))
        expect(len(records) == 2, f"{len(records)} csv records")
        identity, n_text, lam_text, x_text, terms_text, lhs, rhs, err, passed_text = records[1]
        expect((int(n_text), float(lam_text), float(x_text)) == (n, lam, x), "echoed point")
        value = float(lhs)
        if dobinski:
            expect(identity == "dobinski_degenerate", f"identity {identity}")
            series, terms, abs_error = float(rhs), int(terms_text), float(err)
            passed = {"True": True, "False": False}[passed_text]
        else:
            expect(identity == "bell_degenerate_value", f"identity {identity}")
    else:
        lines = out.split("\n")
        if dobinski:
            expect(len(lines) == 4 and lines[3] == "", "three text lines")
            fields = dict(line.split(" ", 1) for line in lines[:3])
            value, series = float(fields["value"]), float(fields["dobinski"])
            abs_error, terms = float(fields["abs_error"]), DEFAULT_TERMS
            passed = abs_error <= DEFAULT_TOL
        else:
            expect(len(lines) == 2 and lines[1] == "", "one text line")
            value = float(lines[0])
    target, scale = ref.dbell_value(n, lam, x)
    expect(_close(value, target, scale, REL), f"value {value!r}, reference {target!r}")
    if not dobinski:
        expect(status == 0, f"exit status {status}")
        return
    expect(terms == DEFAULT_TERMS, f"terms {terms}")
    expect(abs_error == abs(value - series), "abs_error is not |value - dobinski|")
    expect(passed == (abs_error <= DEFAULT_TOL), "passed disagrees with abs_error")
    expect(status == (0 if passed else 1), f"exit status {status} with passed={passed}")
    series_scale = ref.dobinski_scale(n, lam, x, DEFAULT_TERMS)
    expect(
        _close(series, target, series_scale, REL),
        f"dobinski {series!r}, reference {target!r}",
    )


# -- verify -----------------------------------------------------------------


def _grid_reference(identity: str, n: int, lam: float | None, x: float | None) -> float:
    if identity == "dobinski_classical":
        return float(ref.bell_number(n))
    value, _ = ref.dbell_value(n, lam, x)
    if identity == "scaled_bell_series":
        return math.exp(x * math.log1p(lam) / lam) * value
    return value


def expected_grid(n_max: int) -> set[tuple]:
    grid = {
        (identity, n, lam, x)
        for identity in ("dobinski_degenerate", "scaled_bell_series")
        for n in range(min(n_max, GRID_N_CAP) + 1)
        for lam in GRID_LAMBDAS
        for x in GRID_XS
    }
    grid.update(("dobinski_classical", n, None, None) for n in range(min(n_max, CLASSICAL_N_CAP) + 1))
    return grid


def _check_numeric_values(identity: str, n: int, lam, x, values: tuple[float, float]) -> None:
    target = _grid_reference(identity, n, lam, x)
    for value in values:
        expect(
            _close(value, target, 1.0, GRID_REL),
            f"{identity} n={n} lambda={lam} x={x}: {value!r}, reference {target!r}",
        )


def check_verify(n_max: int, fmt: str, out: str, status: int) -> None:
    """Exit 0; every expected report over its expected range and every
    expected grid point appears, and everything printed passed.  The
    float values, where the format prints them, match the reference."""
    expect(status == 0, f"exit status {status}")
    reports: dict[str, tuple[int, int]] = {}
    grid: set[tuple] = set()
    if fmt == "json":
        for entry in json.loads(out):
            expect(entry["passed"] is True, f"FAIL in {entry}"[:200])
            if "range" in entry:
                expect(entry["first_failure"] is None, f"{entry['identity']} first_failure")
                reports[entry["identity"]] = tuple(entry["range"])
            else:
                key = (entry["identity"], entry["n"], entry["lambda"], entry["x"])
                _check_numeric_values(*key, (entry["lhs"], entry["rhs"]))
                grid.add(key)
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(out)))
        expect(records[0][0] == "identity" and len(records[0]) == 9, "csv header")
        for identity, n, lam, x, _terms, lhs, rhs, _err, passed in records[1:]:
            expect(passed == "True", f"FAIL in {identity} {n}")
            if ".." in n:
                lo, hi = n.split("..")
                reports[identity] = (int(lo), int(hi))
            else:
                key = (identity, int(n), float(lam) if lam else None, float(x) if x else None)
                _check_numeric_values(*key, (float(lhs), float(rhs)))
                grid.add(key)
    else:
        expect(out.endswith("\n"), "text output lacks a final newline")
        *lines, summary = out[:-1].split("\n")
        expect(re.fullmatch(r"\d+ checks, all passed", summary) is not None, summary)
        expect(int(summary.split()[0]) == len(lines), "summary count")
        for line in lines:
            status_word, identity, where, *rest = line.split(" ")
            expect(status_word == "PASS", line)
            if not rest:
                lo, hi = where.removeprefix("n=").split("..")
                reports[identity] = (int(lo), int(hi))
                continue
            fields = dict(item.split("=", 1) for item in [where, *rest])
            lam = float(fields["lambda"]) if "lambda" in fields else None
            x = float(fields["x"]) if "x" in fields else None
            grid.add((identity, int(fields["n"]), lam, x))
    for identity, lo in VERIFY_REPORTS.items():
        expect(reports.get(identity) == (lo, n_max), f"report {identity}: {reports.get(identity)}")
    missing = expected_grid(n_max) - grid
    expect(not missing, f"{len(missing)} grid checks missing, e.g. {sorted(missing, key=str)[:1]}")
