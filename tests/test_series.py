"""Series-oracle tests: truncated arithmetic, the oracle's own inner
series, the generating-function oracles, and the composita closed form
(which lives with the closed forms in `degenerate`) against direct power
extraction from the series."""

from fractions import Fraction
from math import factorial

import pytest

from degenbell.classical import bell_polynomial, falling_factorials, stirling_rows
from degenbell.degenerate import degenerate_exp_composita
from degenbell.poly import L, LAM, MPoly, X
from degenbell.series import (
    degenerate_exp_minus_one,
    oracle_degenerate_bell_table,
    oracle_degenerate_stirling2_table,
    series_mul,
)


def test_inner_series_coefficients():
    f = degenerate_exp_minus_one(3)
    assert len(f) == 4
    assert f[0] == MPoly.zero()
    assert f[1] == MPoly.one()
    assert f[2] == (1 - LAM) * Fraction(1, 2)
    assert f[3] == (1 - 3 * LAM + 2 * LAM**2) * Fraction(1, 6)


def test_series_mul_identity():
    f = degenerate_exp_minus_one(4)
    assert series_mul(f, (MPoly.one(),) + (MPoly.zero(),) * 4) == f


def test_series_mul_truncates():
    t = (MPoly.zero(), MPoly.one())
    assert series_mul(t, t) == (MPoly.zero(), MPoly.zero())


def test_series_mul_square_of_inner_series():
    f = degenerate_exp_minus_one(2)
    assert series_mul(f, f)[2] == MPoly.one()


def test_series_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(degenerate_exp_minus_one(2), degenerate_exp_minus_one(3))


def test_series_mul_rejects_empty_series():
    with pytest.raises(ValueError, match="constant coefficient"):
        series_mul((), ())


# -- composita ----------------------------------------------------------------


def falling_at(n, k):
    """(j | lambda)_n at index j - 1 for j = 1..k, as the composita reads them."""
    return [falling_factorials(j, n)[n] for j in range(1, k + 1)]


def test_composita_hand_values():
    assert degenerate_exp_composita(2, 1, falling_at(2, 1)) == (1 - LAM) * Fraction(1, 2)
    assert degenerate_exp_composita(3, 2, falling_at(3, 2)) == 1 - LAM
    for n in range(1, 9):
        assert degenerate_exp_composita(n, n, falling_at(n, n)) == MPoly.one()


def test_composita_above_diagonal_is_zero():
    assert degenerate_exp_composita(2, 3, falling_at(2, 3)) == MPoly.zero()


def test_composita_rejects_bad_arguments():
    with pytest.raises(ValueError):
        degenerate_exp_composita(0, 1, falling_at(0, 1))
    with pytest.raises(ValueError):
        degenerate_exp_composita(3, 0, [])


def test_composita_matches_power_extraction():
    # Closed form against the k-th power of the series itself.
    for n in range(1, 13):
        f = degenerate_exp_minus_one(n)
        power = f
        falling = falling_at(n, n)
        for k in range(1, n + 1):
            assert degenerate_exp_composita(n, k, falling) == power[n]
            power = series_mul(power, f)


# -- oracles -------------------------------------------------------------------

STIRLING_ROWS = oracle_degenerate_stirling2_table(12)
BELL_ROWS = oracle_degenerate_bell_table(STIRLING_ROWS)


def test_oracle_bell_small():
    assert BELL_ROWS[0] == MPoly.one()
    assert BELL_ROWS[1] == L * X
    assert BELL_ROWS[2] == L**2 * X**2 + (1 - LAM) * L * X


def test_oracle_bell_rejects_negative():
    with pytest.raises(ValueError):
        oracle_degenerate_bell_table(oracle_degenerate_stirling2_table(-1))


def test_oracle_stirling_small():
    assert STIRLING_ROWS[2][1] == 1 - LAM
    assert STIRLING_ROWS[3][1] == 1 - 3 * LAM + 2 * LAM**2
    for n in range(9):
        assert STIRLING_ROWS[n][n] == MPoly.one()


def test_oracle_stirling_rejects_m_above_n():
    # Row n holds m = 0..n and nothing beyond.
    assert [len(row) for row in STIRLING_ROWS] == list(range(1, 14))
    with pytest.raises(IndexError):
        STIRLING_ROWS[2][3]


def test_oracle_stirling_classical_limit():
    s2 = stirling_rows(12)[1]
    for n in range(13):
        for m in range(n + 1):
            at_zero = STIRLING_ROWS[n][m].substitute({"lambda": 0})
            assert at_zero == MPoly.one() * s2[n][m]


def test_oracle_bell_classical_limit():
    for n in range(13):
        limit = BELL_ROWS[n].substitute({"lambda": 0, "L": 1})
        assert limit == bell_polynomial(n)


def test_oracle_bell_leading_term():
    for n in range(1, 13):
        terms = dict(BELL_ROWS[n].items())
        assert max(exps[2] for exps in terms) == n
        assert terms[(0, n, n, 0)] == 1
        # nothing of x-degree n besides L^n x^n
        assert all(exps[2] < n or exps == (0, n, n, 0) for exps in terms)


# -- one-pass oracle tables against the per-n expansion -------------------------


def _power(f, k):
    """f^k as k truncated products, starting from the constant 1."""
    out = (MPoly.one(),) + (MPoly.zero(),) * (len(f) - 1)
    for _ in range(k):
        out = series_mul(out, f)
    return out


def _per_n_bell(n):
    """The Bell oracle expanded at truncation order n for this n alone, with
    x L inside every product: n! times [t^n] of the sum of (x L f)^m / m!."""
    f = degenerate_exp_minus_one(n)
    scaled = tuple(c * (X * L) for c in f)
    total = MPoly.zero()
    for m in range(n + 1):
        total = total + _power(scaled, m)[n] * Fraction(1, factorial(m))
    return total * factorial(n)


def _per_n_stirling2(n, m):
    """The Stirling oracle with f^m expanded at order n for this (n, m) alone."""
    f = degenerate_exp_minus_one(n)
    return _power(f, m)[n] * Fraction(factorial(n), factorial(m))


def test_oracle_tables_match_per_n_expansion():
    stirling = oracle_degenerate_stirling2_table(12)
    bell = oracle_degenerate_bell_table(stirling)
    assert len(bell) == len(stirling) == 13
    for n in range(13):
        assert bell[n] == _per_n_bell(n)
        assert len(stirling[n]) == n + 1
        for m in range(n + 1):
            assert stirling[n][m] == _per_n_stirling2(n, m)


def test_oracle_table_rows_do_not_depend_on_the_order():
    # Row n of a table expanded at order n equals row n at order 8.
    stirling = oracle_degenerate_stirling2_table(8)
    bell = oracle_degenerate_bell_table(stirling)
    for n in range(9):
        short = oracle_degenerate_stirling2_table(n)
        assert oracle_degenerate_bell_table(short)[n] == bell[n]
        assert short[n] == stirling[n]


def test_oracle_tables_reject_negative_order():
    with pytest.raises(ValueError):
        oracle_degenerate_stirling2_table(-1)
