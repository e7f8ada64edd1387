"""Assembly of the full verification run: every exact identity sweep plus
the floating-point grid, in a deterministic order."""

from __future__ import annotations

import math
from typing import NamedTuple

from .poly import MPoly, X
from .classical import bell_polynomial
from .degenerate import (
    VerificationReport,
    binomial_convolution,
    dbell_classical_bell_table,
    dbell_composita_table,
    dbell_recurrence_table,
    dbell_via_stirling_pair,
    degenerate_bell,
    degenerate_stirling2,
    limit_lambda_zero,
    sweep_identity,
    verify_addition,
    verify_derivative,
)
from .numeric import (
    DEFAULT_TERMS,
    DEFAULT_TOL,
    NumericCheck,
    classical_dobinski_check,
    grid_checks,
)
from .series import oracle_degenerate_bell_table, oracle_degenerate_stirling2_table

GRID_LAMBDAS = (0.1, 0.5, 1.0)
GRID_XS = (0.5, 1.0, 2.0)
# The float grid caps n here: beyond it the compared values grow past the
# point where a 1e-9 absolute tolerance is meaningful in double precision.
NUMERIC_N_CAP = 8
CLASSICAL_BELL_MAX = 5


class SuiteResult(NamedTuple):
    reports: tuple[VerificationReport, ...]
    checks: tuple[NumericCheck, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports) and all(c.passed for c in self.checks)


def constructor_reports(
    rows: list[list[MPoly]], bells: list[MPoly], recurrence: list[MPoly]
) -> list[VerificationReport]:
    """Each closed form's rows against the series oracle for n up to n_max,
    given the rows `oracle_degenerate_stirling2_table(n_max)`, the
    canonical rows bells[n] = degenerate_bell(n) and the rows of
    `dbell_recurrence_table` through n_max at least; rows past n_max are
    not read."""
    n_max = len(rows) - 1
    oracle = oracle_degenerate_bell_table(rows)
    tables = [
        ("stirling_pair_vs_oracle", 0, [dbell_via_stirling_pair(n) for n in range(n_max + 1)]),
        ("degenerate_stirling_sum_vs_oracle", 0, bells),
        ("classical_bell_expansion_vs_oracle", 1, dbell_classical_bell_table(n_max)),
        ("composita_vs_oracle", 0, dbell_composita_table(n_max)),
        ("recurrence_vs_oracle", 0, recurrence),
    ]
    return [
        sweep_identity(name, lo, n_max, zip(range(lo, n_max + 1), table[lo:], oracle[lo:]))
        for name, lo, table in tables
    ]


def degenerate_stirling_report(rows: list[list[MPoly]]) -> VerificationReport:
    """Closed form against the series value for every 0 <= m <= n <= n_max,
    given the rows `oracle_degenerate_stirling2_table(n_max)`."""
    sides = ((n, degenerate_stirling2(n, m), entry) for n, row in enumerate(rows) for m, entry in enumerate(row))
    return sweep_identity("degenerate_stirling_closed_vs_oracle", 0, len(rows) - 1, sides)


def classical_limit_report(bells: list[MPoly], classical: list[MPoly]) -> VerificationReport:
    """bells[n] = degenerate_bell(n) tends to classical[n] =
    bell_polynomial(n) under lambda -> 0, L -> 1."""
    sides = ((n, limit_lambda_zero(bell), classical[n]) for n, bell in enumerate(bells))
    return sweep_identity("classical_limit", 0, len(bells) - 1, sides)


def classical_recurrence_report(classical: list[MPoly], steps: list[MPoly]) -> VerificationReport:
    """One-step classical recurrence classical[n + 1] = steps[n], given
    classical[n] = bell_polynomial(n) for n = 0..n_max + 1 and the step row
    steps[n] = x times the binomial convolution of classical with the ones,
    for n = 0..n_max."""
    sides = ((n, classical[n + 1], step) for n, step in enumerate(steps))
    return sweep_identity("classical_recurrence", 0, len(steps) - 1, sides)


def recurrence_limit_report(recurrence: list[MPoly], steps: list[MPoly]) -> VerificationReport:
    """The degenerate one-step recurrence collapses under lambda -> 0,
    L -> 1 to the classical one: row n + 1 of `dbell_recurrence_table`,
    given through n_max + 1, tends to the classical step row steps[n]."""
    sides = ((n, limit_lambda_zero(recurrence[n + 1]), step) for n, step in enumerate(steps))
    return sweep_identity("recurrence_classical_limit", 0, len(steps) - 1, sides)


def exact_reports(n_max: int) -> list[VerificationReport]:
    """Every exact sweep for n up to n_max.  The oracle rows, the canonical
    rows degenerate_bell(n), the recurrence table and the classical Bell
    polynomials (both through n_max + 1) and the classical step row are
    built once here, each just before the first report that reads it, and
    passed to every report that reads them.  The recurrence table's rows
    0..n_max are swept against the oracle, and its row n + 1 stands for
    the degenerate step at n in the limit report.  A report whose first n
    exceeds n_max compares nothing, so it is left out."""
    rows = oracle_degenerate_stirling2_table(n_max)
    bells = [degenerate_bell(n) for n in range(n_max + 1)]
    recurrence = dbell_recurrence_table(n_max + 1)
    reports = constructor_reports(rows, bells, recurrence)
    reports.append(degenerate_stirling_report(rows))
    reports.append(verify_addition(bells))
    reports.append(verify_derivative(bells))
    classical = [bell_polynomial(n) for n in range(n_max + 2)]
    reports.append(classical_limit_report(bells, classical))
    ones = [MPoly.one()] * (n_max + 1)
    steps = [X * binomial_convolution(classical, ones, n) for n in range(n_max + 1)]
    reports.append(classical_recurrence_report(classical, steps))
    reports.append(recurrence_limit_report(recurrence, steps))
    return [report for report in reports if report.n_range[0] <= n_max]


def numeric_checks(n_max: int, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL) -> list[NumericCheck]:
    """The float grid at n = 0..min(n_max, NUMERIC_N_CAP) for every lambda of
    GRID_LAMBDAS and x of GRID_XS, both series, then the classical Dobinski
    sums at n = 0..min(n_max, CLASSICAL_BELL_MAX).  A point of that grid with
    no check gets a failing one, with both sides NaN, since nothing was
    compared there."""
    grid_n, classical_n = min(n_max, NUMERIC_N_CAP), min(n_max, CLASSICAL_BELL_MAX)
    checks = grid_checks(grid_n, GRID_LAMBDAS, GRID_XS, terms, tol)
    checks.extend(classical_dobinski_check(n, terms, tol) for n in range(classical_n + 1))
    points = [
        (name, n, lam, x)
        for n in range(grid_n + 1)
        for lam in GRID_LAMBDAS
        for x in GRID_XS
        for name in ("dobinski_degenerate", "scaled_bell_series")
    ]
    points += [("dobinski_classical", n, None, None) for n in range(classical_n + 1)]
    seen = {(check.identity_name, check.n, check.lam, check.x) for check in checks}
    checks.extend(NumericCheck(*point, terms, math.nan, math.nan, tol) for point in points if point not in seen)
    return checks


def run_full_suite(
    n_max: int = 12, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL
) -> SuiteResult:
    """Everything the verify command runs, sorted by (identity, n)."""
    reports = sorted(exact_reports(n_max), key=lambda r: (r.identity_name, r.n_range))
    checks = sorted(
        numeric_checks(n_max, terms, tol),
        key=lambda c: (c.identity_name, c.n, c.lam or 0.0, c.x or 0.0),
    )
    return SuiteResult(tuple(reports), tuple(checks))


__all__ = [
    "CLASSICAL_BELL_MAX",
    "GRID_LAMBDAS",
    "GRID_XS",
    "NUMERIC_N_CAP",
    "SuiteResult",
    "classical_limit_report",
    "classical_recurrence_report",
    "constructor_reports",
    "degenerate_stirling_report",
    "exact_reports",
    "numeric_checks",
    "recurrence_limit_report",
    "run_full_suite",
]
