"""Assembly of the full verification run: every exact identity sweep plus
the floating-point grid, in a deterministic order."""

from __future__ import annotations

import math
from itertools import accumulate, count, repeat
from operator import mul
from typing import Callable, Iterator, NamedTuple

from .poly import L, MPoly, X, Y
from .classical import bell_polynomial, falling_factorials
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
# The float grid caps n here for its absolute tolerance, not for lost digits:
# the first check past the cap to fail, scaled_bell_series at n = 10,
# lambda = 0.1, x = 2, has both sides within 4e-16 relative of the exact
# 1.18e7 and an abs_error of 1.86e-9.  Raising the cap adds printed checks,
# and from n = 13 the scaled series' right side loses digits as well.
NUMERIC_N_CAP = 8
CLASSICAL_BELL_MAX = 5


class SuiteResult(NamedTuple):
    reports: tuple[VerificationReport, ...]
    checks: tuple[NumericCheck, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports) and all(c.passed for c in self.checks)


class ExactRows(NamedTuple):
    """The rows that several exact reports read, built once per sweep to n_max."""

    n_max: int
    stirling: list[list[MPoly]]  # oracle_degenerate_stirling2_table(n_max)
    oracle: list[MPoly]  # the oracle's Bell rows, from `stirling`
    bells: list[MPoly]  # degenerate_bell(n), n = 0..n_max
    recurrence: list[MPoly]  # dbell_recurrence_table(n_max + 1)
    classical: list[MPoly]  # bell_polynomial(n), n = 0..n_max + 1
    steps: list[MPoly]  # x times the binomial convolution of `classical` with the ones, n = 0..n_max


Triples = Iterator[tuple[int, MPoly, MPoly]]


def exact_rows(n_max: int) -> ExactRows:
    """The shared rows of every exact report for n up to n_max."""
    stirling = oracle_degenerate_stirling2_table(n_max)
    bells = [degenerate_bell(n) for n in range(n_max + 1)]
    classical = [bell_polynomial(n) for n in range(n_max + 2)]
    steps = [X * binomial_convolution(classical, [MPoly.one()] * (n + 1), n) for n in range(n_max + 1)]
    recurrence = dbell_recurrence_table(n_max + 1)
    return ExactRows(n_max, stirling, oracle_degenerate_bell_table(stirling), bells, recurrence, classical, steps)


def _addition(rows: ExactRows) -> Triples:
    """Binomial addition law in Q[lambda, L, x, y]: the oracle's Bel_n at
    x + y, the sum of S2(n, m|lambda) (L (x + y))^m over its Stirling row,
    against the binomial convolution of the closed-form rows at x and at y.
    The powers of L (x + y) come from one running product."""
    at_y = [bell.substitute({"x": Y}) for bell in rows.bells]
    powers = list(accumulate(repeat(L * (X + Y), rows.n_max), mul, initial=MPoly.one()))
    for n, row in enumerate(rows.stirling):
        yield n, MPoly.sum_of_products(zip(repeat(1), row, powers)), binomial_convolution(rows.bells, at_y, n)


def _derivative(rows: ExactRows) -> Triples:
    """d/dx Bel_n against L times the binomial convolution with (1 | lambda)_k
    for k >= 1 and 0 at k = 0, which drops m = n; L is formal, so this holds
    exactly when (1/L) d/dx equals the convolution."""
    falling = [MPoly.zero()] + falling_factorials(1, rows.n_max)[1:]
    for n in range(1, rows.n_max + 1):
        yield n, rows.bells[n].derivative_x(), L * binomial_convolution(rows.bells, falling, n)


def _stirling_closed(rows: ExactRows) -> Triples:
    """The closed form S2(n,m|lambda) against the oracle's, 0 <= m <= n."""
    for n, row in enumerate(rows.stirling):
        for m, entry in enumerate(row):
            yield n, degenerate_stirling2(n, m), entry


# Every exact report, in print order: (name, first n, its (n, lhs, rhs)
# triples over the shared rows).  A closed form's table is built when its
# report is, and its rows from the first n are swept against the oracle's.
EXACT_REPORTS: tuple[tuple[str, int, Callable[[ExactRows], Triples]], ...] = (
    ("addition", 0, _addition),
    (
        "classical_bell_expansion_vs_oracle",
        1,
        lambda r: zip(count(1), dbell_classical_bell_table(r.n_max)[1:], r.oracle[1:]),
    ),
    ("classical_limit", 0, lambda r: zip(count(), map(limit_lambda_zero, r.bells), r.classical)),
    ("classical_recurrence", 0, lambda r: zip(count(), r.classical[1:], r.steps)),
    ("composita_vs_oracle", 0, lambda r: zip(count(), dbell_composita_table(r.n_max), r.oracle)),
    ("degenerate_stirling_closed_vs_oracle", 0, _stirling_closed),
    ("degenerate_stirling_sum_vs_oracle", 0, lambda r: zip(count(), r.bells, r.oracle)),
    ("derivative", 1, _derivative),
    ("recurrence_classical_limit", 0, lambda r: zip(count(), map(limit_lambda_zero, r.recurrence[1:]), r.steps)),
    ("recurrence_vs_oracle", 0, lambda r: zip(count(), r.recurrence, r.oracle)),
    ("stirling_pair_vs_oracle", 0, lambda r: ((n, dbell_via_stirling_pair(n), row) for n, row in enumerate(r.oracle))),
)


def exact_reports(n_max: int) -> list[VerificationReport]:
    """Every report of `EXACT_REPORTS` whose first n is at most n_max, in
    its order, each swept over first n..n_max.  The shared rows are built
    once, before any report; a report left out is never built."""
    rows = exact_rows(n_max)
    return [sweep_identity(name, lo, n_max, sides(rows)) for name, lo, sides in EXACT_REPORTS if lo <= n_max]


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


def run_full_suite(n_max: int, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL) -> SuiteResult:
    """Everything the verify command runs: the exact reports in their
    table's order, then the float checks sorted by (identity, n, lambda, x)."""
    reports = exact_reports(n_max)
    checks = sorted(
        numeric_checks(n_max, terms, tol),
        key=lambda c: (c.identity_name, c.n, c.lam or 0.0, c.x or 0.0),
    )
    return SuiteResult(tuple(reports), tuple(checks))
