"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (visible with `pytest -s` or on failure).

All tolerances are pinned here; nothing is deferred to runtime
configuration.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import comb

from degenbell.classical import bell_polynomial, falling_factorials
from degenbell.degenerate import (
    composition_coefficient,
    dbell_classical_bell_table,
    dbell_composita_table,
    dbell_recurrence_table,
    dbell_via_stirling_pair,
    degenerate_bell,
    degenerate_stirling2,
    limit_lambda_zero,
)
from degenbell.numeric import classical_dobinski_check, dobinski_check, eval_bel_numeric
from degenbell.poly import L, LAM, MPoly, X
from degenbell.series import oracle_degenerate_bell_table, oracle_degenerate_stirling2_table
from degenbell.suite import exact_reports
from references import scaled_bell_series_check

GRID_N = range(9)
GRID_LAMBDAS = (0.1, 0.5, 1.0)
GRID_XS = (0.5, 1.0, 2.0)
NUMERIC_TOL = 1e-9


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_six_way_exact_equality():
    with criterion("criterion 1: six-way exact equality for n = 0..12"):
        oracle = oracle_degenerate_bell_table(oracle_degenerate_stirling2_table(12))
        composita, recurrence = dbell_composita_table(12), dbell_recurrence_table(12)
        classical = dbell_classical_bell_table(12)
        for n in range(13):
            assert dbell_via_stirling_pair(n) == oracle[n]
            assert degenerate_bell(n) == oracle[n]
            assert composita[n] == oracle[n]
            assert recurrence[n] == oracle[n]
            if n >= 1:
                assert classical[n] == oracle[n]


def test_criterion_2_degenerate_stirling_consistency():
    with criterion("criterion 2: degenerate Stirling closed form equals series value, n <= 12"):
        rows = oracle_degenerate_stirling2_table(12)
        for n in range(13):
            for m in range(n + 1):
                assert degenerate_stirling2(n, m) == rows[n][m]


def test_criterion_3_classical_limit_table():
    printed = [
        MPoly.one(),
        X,
        X**2 + X,
        X**3 + 3 * X**2 + X,
        X**4 + 6 * X**3 + 7 * X**2 + X,
        X**5 + 10 * X**4 + 25 * X**3 + 15 * X**2 + X,
    ]
    with criterion("criterion 3: lambda -> 0 limit reproduces the classical table"):
        for n, expected in enumerate(printed):
            assert limit_lambda_zero(degenerate_bell(n)) == expected
        # Degree 6 follows the Stirling-sum definition; its x^2 coefficient
        # is the 2-block partition count of a 6-set, 2^5 - 1 = 31.
        degree_six = limit_lambda_zero(degenerate_bell(6))
        assert degree_six == bell_polynomial(6)
        assert dict(degree_six.items())[(0, 0, 2, 0)] == 31


def test_criterion_4_addition_and_derivative():
    with criterion("criterion 4: addition and derivative identities hold exactly, n <= 10"):
        reports = {report.identity_name: report for report in exact_reports(10)}
        assert reports["addition"].passed and reports["addition"].n_range == (0, 10)
        assert reports["derivative"].passed and reports["derivative"].n_range == (1, 10)
        for n in range(1, 11):
            derivative = degenerate_bell(n).derivative_x()
            assert all(exps[1] >= 1 for exps, _ in derivative.items())


def test_criterion_5_numeric_grid():
    with criterion(
        "criterion 5: degenerate Dobinski and scaled series within 1e-9 on the full grid"
    ):
        for n in GRID_N:
            for lam in GRID_LAMBDAS:
                for x in GRID_XS:
                    closed = eval_bel_numeric(n, lam, x)
                    truncated = dobinski_check(n, lam, x, 80).rhs
                    assert abs(closed - truncated) <= NUMERIC_TOL
                    assert scaled_bell_series_check(n, lam, x, 80, NUMERIC_TOL).passed


def test_criterion_6_classical_dobinski():
    with criterion("criterion 6: classical Dobinski reproduces 1, 1, 2, 5, 15, 52 at 60 terms"):
        for n, bell in enumerate([1, 1, 2, 5, 15, 52]):
            assert abs(classical_dobinski_check(n, 60).lhs - bell) <= NUMERIC_TOL


def test_criterion_7_normalization_resolution():
    with criterion(
        "criterion 7: ordinary composition coefficient misses by n! and the shipped "
        "constructor restores it"
    ):
        ordinary = composition_coefficient(2, [falling_factorials(j, 2)[2] for j in (1, 2)])
        # Control: the unscaled coefficient does NOT equal the polynomial...
        assert ordinary != degenerate_bell(2)
        # ...it is exactly the polynomial divided by 2!.
        assert ordinary * 2 == degenerate_bell(2)
        # The shipped constructor multiplies the n! back (already swept in
        # criterion 1; re-asserted here at n = 2 for the record).
        assert dbell_composita_table(2)[2] == oracle_degenerate_bell_table(oracle_degenerate_stirling2_table(2))[2]


def test_criterion_8_recurrences():
    with criterion(
        "criterion 8: classical recurrence for n <= 12 and the degenerate recurrence "
        "degenerating to it for n <= 10"
    ):
        for n in range(13):
            convolution = MPoly.zero()
            for j in range(n + 1):
                convolution = convolution + comb(n, j) * bell_polynomial(j)
            assert bell_polynomial(n + 1) == X * convolution
        falling = falling_factorials(1 - LAM, 10)
        for n in range(11):
            step = MPoly.zero()
            for k in range(n + 1):
                step = step + comb(n, k) * degenerate_bell(k) * falling[n - k]
            degenerate_side = limit_lambda_zero(X * L * step)
            classical_side = MPoly.zero()
            for j in range(n + 1):
                classical_side = classical_side + comb(n, j) * bell_polynomial(j)
            assert degenerate_side == X * classical_side
            assert degenerate_side == bell_polynomial(n + 1)
