"""Kernel-free audit of the six Bell tables against Carlitz's triangle.

Every exact report, the oracle's included, runs through the one
multiply-accumulate kernel `MPoly.sum_of_products`, so a fault in that
kernel could make a closed form and the oracle agree on the same wrong
polynomial.  This audit reads each table's terms and checks them with no
polynomial arithmetic at all, against the degenerate Stirling numbers of
Carlitz's triangle (Carlitz, "Degenerate Stirling, Bernoulli and Eulerian
numbers", Utilitas Math. 15, 1979),

    S2(n+1, k|lambda) = S2(n, k-1|lambda) + (k - n lambda) S2(n, k|lambda),

built in plain ints at each integer lambda in LAMBDAS.  Row n of a Bell
table must be the sum of S2(n, m|lambda) (L x)^m over m = 0..n.  The
coefficient of (L x)^m has lambda-degree at most n - m, which the shape
check enforces, so agreement at the 31 points of LAMBDAS proves the two
equal for every n <= 30.
"""

from fractions import Fraction

import pytest

from degenbell.degenerate import (
    dbell_classical_bell_table,
    dbell_composita_table,
    dbell_recurrence_table,
    dbell_via_stirling_pair,
    degenerate_bell,
)
from degenbell.poly import MPoly
from degenbell.series import oracle_degenerate_bell_table, oracle_degenerate_stirling2_table

N_MAX = 30
LAMBDAS = range(-15, 16)


def carlitz_triangle(n_max, lam):
    """Rows 0..n_max of S2(n, k|lam) at one integer lam, in plain ints."""
    rows = [[1]]
    for n in range(n_max):
        prev = [0] + rows[-1] + [0]  # prev[k] is S2(n, k - 1|lam)
        rows.append([prev[k] + (k - n * lam) * prev[k + 1] for k in range(n + 2)])
    return rows


TRIANGLES = {lam: carlitz_triangle(N_MAX, lam) for lam in LAMBDAS}


def row_matches(n, row):
    """Whether the terms of row n are the sum of S2(n, m|lambda) (L x)^m."""
    by_power = {}  # m -> [(lambda exponent, integer coefficient)]
    for (e_lam, e_l, e_x, e_y), coeff in row.items():
        if e_l != e_x or e_y or coeff.denominator != 1 or e_lam + e_x > n:
            return False
        by_power.setdefault(e_x, []).append((e_lam, coeff.numerator))
    return all(
        sum(c * lam**e for e, c in by_power.get(m, ())) == TRIANGLES[lam][n][m]
        for lam in LAMBDAS
        for m in range(n + 1)
    )


def six_tables(n_max):
    return {
        "oracle": oracle_degenerate_bell_table(oracle_degenerate_stirling2_table(n_max)),
        "stirling_pair": [dbell_via_stirling_pair(n) for n in range(n_max + 1)],
        "degenerate_bell": [degenerate_bell(n) for n in range(n_max + 1)],
        "classical_bell": dbell_classical_bell_table(n_max),
        "composita": dbell_composita_table(n_max),
        "recurrence": dbell_recurrence_table(n_max),
    }


def first_mismatches(tables):
    """Each table's first row that fails the audit, or None."""
    return {
        name: next((n for n, row in enumerate(table) if not row_matches(n, row)), None)
        for name, table in tables.items()
    }


def test_carlitz_triangle_small_rows():
    assert carlitz_triangle(3, 0) == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1]]
    # S2(2, 1|lambda) = 1 - lambda and S2(3, 1|lambda) = (1 - lambda)(1 - 2 lambda).
    assert carlitz_triangle(3, 2)[2][1] == -1
    assert carlitz_triangle(3, 2)[3][1] == 3


def test_every_bell_table_matches_carlitz_without_polynomial_arithmetic():
    tables = six_tables(N_MAX)
    assert [len(table) for table in tables.values()] == [N_MAX + 1] * 6
    assert first_mismatches(tables) == dict.fromkeys(tables)


@pytest.mark.parametrize(
    "term, n",
    [
        (((0, 1, 1, 0), Fraction(1, 2)), 1),  # a denominator
        (((0, 1, 1, 1), 1), 1),  # a y
        (((0, 2, 1, 0), 1), 1),  # L-degree apart from x-degree
        (((2, 1, 1, 0), 1), 2),  # lambda-degree above n - m
    ],
)
def test_audit_rejects_each_shape_fault(term, n):
    exps, coeff = term
    assert row_matches(n, MPoly({exps: coeff})) is False


def test_audit_catches_a_kernel_that_wraps_coefficients_at_64_bits(monkeypatch):
    # A kernel whose coefficients wrap into [-2^63, 2^63), as a packed
    # product would on a slot overflow, leaves small rows right and must
    # fail the audit once a coefficient of a table outgrows 64 bits.
    kernel = MPoly.sum_of_products.__func__
    half = 1 << 63

    def wrapped(cls, terms):
        exact = kernel(cls, terms)
        return cls._trusted({e: (c + half) % (2 * half) - half for e, c in exact._num.items()}, exact._den)

    monkeypatch.setattr(MPoly, "sum_of_products", classmethod(wrapped))
    failures = first_mismatches(six_tables(N_MAX))
    assert failures.pop("stirling_pair") is None  # built without the kernel
    # Below n = 10 every number the kernel returns fits in 64 bits.
    assert all(n is not None and n >= 10 for n in failures.values()), failures
