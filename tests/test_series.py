"""Series-oracle tests: truncated arithmetic, the oracle's own inner
series, the generating-function oracles, and the composita closed form
(which lives with the closed forms in `degenerate`) against direct power
extraction from the series.  The oracle and the closed form are anchored
at the values of lambda where f is classical."""

from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest

from degenbell import degenerate, series
from degenbell.classical import bell_polynomial, falling_factorials, stirling_rows
from degenbell.degenerate import degenerate_exp_composita
from degenbell.poly import L, LAM, MPoly, X
from degenbell.series import (
    degenerate_exp_minus_one,
    oracle_degenerate_bell_table,
    oracle_degenerate_stirling2_table,
    series_mul,
)
from references import compiled_with


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


# -- special values of lambda, where f is classical -----------------------------
#
# f(t) = (1 + lambda t)^(1/lambda) - 1 is t at lambda = 1, t + t^2/4 at
# lambda = 1/2 and t/(1 - t) at lambda = -1, so S2(n, m|lambda), n!/m! times
# [t^n] f^m, is there delta_nm, (n!/m!) C(m, n - m) / 4^(n - m) and the Lah
# number C(n - 1, m - 1) n!/m! (Comtet, "Advanced Combinatorics", Reidel
# 1974), with S2(0, 0|lambda) = 1.  The references are plain binomials and
# factorials and share no code with `series` or the closed forms; each
# check folds one value of lambda into a polynomial.

ANCHOR_N = 20
SPECIAL_VALUES = {
    1: lambda n, m: int(n == m),
    Fraction(1, 2): lambda n, m: Fraction(factorial(n), factorial(m)) * comb(m, n - m) / 4 ** (n - m),
    -1: lambda n, m: comb(n - 1, m - 1) * factorial(n) // factorial(m) if m else int(n == 0),
}


def special_value_mismatches(table, lam):
    """(n, m) of each entry of a Stirling table whose value at lambda = lam
    is not its classical one."""
    return [
        (n, m)
        for n, row in enumerate(table)
        for m, entry in enumerate(row)
        if entry.substitute({"lambda": lam}) != SPECIAL_VALUES[lam](n, m)
    ]


def closed_form_table(n_max):
    return [[degenerate.degenerate_stirling2(n, m) for m in range(n + 1)] for n in range(n_max + 1)]


def bell_at_one_mismatches(table):
    """n of each row of the Bell oracle over a Stirling table whose value at
    lambda = 1 is not (L x)^n."""
    rows = oracle_degenerate_bell_table(table)
    return [n for n, row in enumerate(rows) if row.substitute({"lambda": 1}) != (L * X) ** n]


def anchor_mismatches(n_max):
    """Each anchor's name and its mismatches up to n_max: the oracle's and
    the closed form's S2 at every special value, and the oracle's Bel at 1."""
    tables = {"oracle": series.oracle_degenerate_stirling2_table(n_max), "closed_form": closed_form_table(n_max)}
    found = {
        f"{name}_s2_at_{lam}": special_value_mismatches(table, lam)
        for name, table in tables.items()
        for lam in SPECIAL_VALUES
    }
    found["oracle_bell_at_1"] = bell_at_one_mismatches(tables["oracle"])
    return found


ANCHORS = list(anchor_mismatches(0))


def test_special_value_references_small_rows():
    assert [SPECIAL_VALUES[Fraction(1, 2)](3, m) for m in range(4)] == [0, 0, Fraction(3, 2), 1]
    assert [SPECIAL_VALUES[-1](3, m) for m in range(4)] == [0, 6, 6, 1]


def test_the_oracle_and_the_closed_form_meet_every_special_value():
    assert anchor_mismatches(ANCHOR_N) == dict.fromkeys(ANCHORS, [])


def test_the_oracle_anchors_fail_on_a_wrong_running_factor_of_f(monkeypatch):
    # (1 - n lambda)/n in place of (1 - (n - 1) lambda)/n: every anchor that
    # reads the oracle fails, and the closed form's cannot see it.
    mutant = compiled_with(series.degenerate_exp_minus_one, "1 - n}", "-n}")
    monkeypatch.setattr(series, "degenerate_exp_minus_one", mutant)
    failing = {name for name, mismatches in anchor_mismatches(ANCHOR_N).items() if mismatches}
    assert failing == {name for name in ANCHORS if name.startswith("oracle_")}


def test_every_anchor_fails_on_a_perturbed_stirling_entry(monkeypatch):
    # S2(5, 2|lambda) + lambda, in the oracle's table and in the closed form.
    original_table, original_entry = series.oracle_degenerate_stirling2_table, degenerate.degenerate_stirling2

    def perturbed_table(n_max):
        table = original_table(n_max)
        table[5][2] = table[5][2] + LAM
        return table

    monkeypatch.setattr(series, "oracle_degenerate_stirling2_table", perturbed_table)
    monkeypatch.setattr(
        degenerate, "degenerate_stirling2", lambda n, m: original_entry(n, m) + LAM * ((n, m) == (5, 2))
    )
    found = anchor_mismatches(ANCHOR_N)
    assert found == {name: [5] if name == "oracle_bell_at_1" else [(5, 2)] for name in ANCHORS}


# -- the literal generating function, through sympy -----------------------------
#
# n! [t^n] (1 + lambda)^((x/lambda)((1 + lambda t)^(1/lambda) - 1)), with
# log(1 + lambda) kept symbolic, against the oracle's Bel_n with L bound to
# log(1 + lambda)/lambda.  Since x is free and L is transcendental over
# Q(lambda), equal polynomials in x also mean equal S2(n, m|lambda) rows.
# sympy's expansion shares no code with `series` or the closed forms.

SYMPY_N = 5


@cache
def generating_function_rows():
    """n! [t^n] of the generating function for n = 0..SYMPY_N, and its lambda, L and x."""
    sympy = pytest.importorskip("sympy")
    lam, x, t = sympy.symbols("lambda x t")
    g = (1 + lam) ** ((x / lam) * ((1 + lam * t) ** (1 / lam) - 1))
    expansion = sympy.series(g, t, 0, SYMPY_N + 1).removeO()
    rows = [sympy.factorial(n) * expansion.coeff(t, n) for n in range(SYMPY_N + 1)]
    return rows, (lam, sympy.log(1 + lam) / lam, x)


def generating_function_mismatches():
    """n of each oracle row up to SYMPY_N that is not the generating function's."""
    sympy = pytest.importorskip("sympy")
    rows, (lam, big_l, x) = generating_function_rows()
    oracle = oracle_degenerate_bell_table(series.oracle_degenerate_stirling2_table(SYMPY_N))
    mismatches = []
    for n, (row, entry) in enumerate(zip(rows, oracle)):
        bound = sum(
            sympy.Rational(c.numerator, c.denominator) * lam**i * big_l**j * x**m for (i, j, m, _), c in entry.items()
        )
        if sympy.expand(row - bound) != 0:
            mismatches.append(n)
    return mismatches


def test_the_oracle_is_the_literal_generating_function():
    assert generating_function_mismatches() == []


def test_the_generating_function_anchor_fails_on_a_wrong_running_factor_of_f(monkeypatch):
    mutant = compiled_with(series.degenerate_exp_minus_one, "1 - n}", "-n}")
    monkeypatch.setattr(series, "degenerate_exp_minus_one", mutant)
    assert generating_function_mismatches()[:1] == [1]
