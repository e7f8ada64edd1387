"""Assembly of the full verification run: every exact identity sweep plus
the floating-point grid, in a deterministic order."""

from __future__ import annotations

from dataclasses import dataclass

from .poly import L, LAM, MPoly, X
from .classical import bell_polynomial, binomial, falling_factorial_general
from .degenerate import (
    VerificationReport,
    dbell_via_classical_bell,
    dbell_via_composita,
    dbell_via_recurrence,
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
    dobinski_check,
    scaled_bell_series_check,
)
from .numeric import _closed_terms, _falling_row, _scaled_inner_row
from .series import oracle_degenerate_bell_table, oracle_degenerate_stirling2_table

GRID_LAMBDAS = (0.1, 0.5, 1.0)
GRID_XS = (0.5, 1.0, 2.0)
# The float grid caps n here: beyond it the compared values grow past the
# point where a 1e-9 absolute tolerance is meaningful in double precision.
NUMERIC_N_CAP = 8
CLASSICAL_BELL_MAX = 5


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[VerificationReport, ...]
    checks: tuple[NumericCheck, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports) and all(c.passed for c in self.checks)


def constructor_reports(rows: list[list[MPoly]]) -> list[VerificationReport]:
    """Each closed-form constructor against the series oracle for n up to
    n_max, given the rows `oracle_degenerate_stirling2_table(n_max)`."""
    n_max = len(rows) - 1
    oracle = oracle_degenerate_bell_table(rows)
    pairs = [
        ("stirling_pair_vs_oracle", 0, dbell_via_stirling_pair),
        ("degenerate_stirling_sum_vs_oracle", 0, degenerate_bell),
        ("classical_bell_expansion_vs_oracle", 1, dbell_via_classical_bell),
        ("composita_vs_oracle", 0, dbell_via_composita),
        ("recurrence_vs_oracle", 0, dbell_via_recurrence),
    ]
    return [
        sweep_identity(name, lo, n_max, lambda n, f=fn: (f(n), oracle[n]))
        for name, lo, fn in pairs
    ]


def degenerate_stirling_report(rows: list[list[MPoly]]) -> VerificationReport:
    """Closed form against the series value for every 0 <= m <= n <= n_max,
    given the rows `oracle_degenerate_stirling2_table(n_max)`."""

    def sides(n: int) -> tuple[MPoly, MPoly]:
        # The first mismatching pair of row n, or else any matching one, so
        # the sweep stops at the first n with a bad entry and reports it.
        pairs = [(degenerate_stirling2(n, m), rows[n][m]) for m in range(n + 1)]
        return next((pair for pair in pairs if pair[0] != pair[1]), pairs[0])

    return sweep_identity("degenerate_stirling_closed_vs_oracle", 0, len(rows) - 1, sides)


def classical_limit_report(n_max: int) -> VerificationReport:
    return sweep_identity(
        "classical_limit",
        0,
        n_max,
        lambda n: (limit_lambda_zero(degenerate_bell(n)), bell_polynomial(n)),
    )


def classical_recurrence_report(n_max: int) -> VerificationReport:
    """One-step classical recurrence with step index up to n_max (so the
    produced polynomial reaches degree n_max + 1)."""
    bells = [bell_polynomial(n) for n in range(n_max + 2)]

    def sides(n: int) -> tuple[MPoly, MPoly]:
        rhs = MPoly.zero()
        for j in range(n + 1):
            rhs = rhs + binomial(n, j) * bells[j]
        return bells[n + 1], X * rhs

    return sweep_identity("classical_recurrence", 0, n_max, sides)


def recurrence_limit_report(n_max: int) -> VerificationReport:
    """The degenerate one-step recurrence collapses to the classical one
    under lambda -> 0, L -> 1."""
    bells = [degenerate_bell(n) for n in range(n_max + 1)]
    classical = [bell_polynomial(n) for n in range(n_max + 1)]
    falling = [falling_factorial_general(1 - LAM, k) for k in range(n_max + 1)]

    def sides(n: int) -> tuple[MPoly, MPoly]:
        step = MPoly.zero()
        for k in range(n + 1):
            step = step + binomial(n, k) * bells[k] * falling[n - k]
        degenerate_step = limit_lambda_zero(X * L * step)
        classical_step = MPoly.zero()
        for j in range(n + 1):
            classical_step = classical_step + binomial(n, j) * classical[j]
        return degenerate_step, X * classical_step

    return sweep_identity("recurrence_classical_limit", 0, n_max, sides)


def exact_reports(n_max: int) -> list[VerificationReport]:
    rows = oracle_degenerate_stirling2_table(n_max)
    reports = constructor_reports(rows)
    reports.append(degenerate_stirling_report(rows))
    reports.append(verify_addition(n_max))
    reports.append(verify_derivative(n_max))
    reports.append(classical_limit_report(n_max))
    reports.append(classical_recurrence_report(n_max))
    reports.append(recurrence_limit_report(n_max))
    return reports


def numeric_checks(
    n_max: int, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL
) -> list[NumericCheck]:
    checks: list[NumericCheck] = []
    for n in range(min(n_max, NUMERIC_N_CAP) + 1):
        closed = _closed_terms(n)  # the rows shared by every x, built once
        for lam in GRID_LAMBDAS:
            falling, inner = _falling_row(n, lam, terms), _scaled_inner_row(n, lam, terms)
            for x in GRID_XS:
                checks.append(dobinski_check(n, lam, x, terms, tol, falling=falling))
                checks.append(scaled_bell_series_check(n, lam, x, terms, tol, closed=closed, inner=inner))
    for n in range(min(n_max, CLASSICAL_BELL_MAX) + 1):
        checks.append(classical_dobinski_check(n, terms, tol))
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
