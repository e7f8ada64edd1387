"""Kernel-free audit of the six Bell tables, and of both sides of the
addition, derivative and three classical reports, against Carlitz's
triangle.

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

The addition, derivative, classical limit, classical recurrence and
recurrence limit reports are audited at seeded points modulo the prime
P = 2^61 - 1: each side, as its entry of `suite.EXACT_REPORTS` builds it
over the suite's shared rows, is read through `terms()` alone, and its
value must equal that of the side's definition, computed in plain ints
mod P from Carlitz's triangle at the point's lambda, or at 0 for the
classical sides.  A wrong side of degree d agrees at one random point with
probability at most d/P (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM
1979).
"""

import random
from fractions import Fraction
from math import comb

import pytest

from degenbell import suite
from degenbell.degenerate import (
    dbell_classical_bell_table,
    dbell_composita_table,
    dbell_recurrence_table,
    dbell_via_stirling_pair,
    degenerate_bell,
)
from degenbell.poly import MPoly
from degenbell.series import oracle_degenerate_bell_table, oracle_degenerate_stirling2_table
from test_poly import kernel_scaling_one_orientation_only

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


def wrap_kernel_at_64_bits(monkeypatch):
    """Make the kernel wrap its coefficients into [-2^63, 2^63), as a
    packed product would on a slot overflow."""
    kernel = MPoly.sum_of_products.__func__
    half = 1 << 63

    def wrapped(cls, terms):
        exact = kernel(cls, terms)
        return cls._trusted({e: (c + half) % (2 * half) - half for e, c in exact._num.items()}, exact._den)

    monkeypatch.setattr(MPoly, "sum_of_products", classmethod(wrapped))


def test_audit_catches_a_kernel_that_wraps_coefficients_at_64_bits(monkeypatch):
    # The wrap leaves small rows right and must fail the audit once a
    # coefficient of a table outgrows 64 bits.
    wrap_kernel_at_64_bits(monkeypatch)
    failures = first_mismatches(six_tables(N_MAX))
    assert failures.pop("stirling_pair") is None  # built without the kernel
    # Below n = 10 every number the kernel returns fits in 64 bits.
    assert all(n is not None and n >= 10 for n in failures.values()), failures


# -- the addition and derivative reports, mod P -----------------------------------

P = (1 << 61) - 1
# The sides' coefficients reach 33 bits at n = 12 and 68 bits at n = 20,
# the first n where a kernel that wraps at 64 bits shows.
REPORT_N_MAX = 20
AUDITED_REPORTS = ("addition", "classical_limit", "classical_recurrence", "derivative", "recurrence_classical_limit")
REPORT_POINTS = [tuple(random.Random(seed).randrange(P) for _ in range(4)) for seed in (1, 2)]  # (lambda, L, x, y)


def value_mod_p(poly, point):
    """poly at point = (lambda, L, x, y), mod P, read through `terms()` alone."""
    total = 0
    for exponents, num, den in poly.terms():
        term = num * pow(den, -1, P)
        for value, e in zip(point, exponents):
            term = term * pow(value, e, P) % P
        total += term
    return total % P


def report_definitions(n_max, point):
    """Each side of the audited reports at point, mod P, from its
    definition: name -> n -> (lhs, rhs).  Bel_n(z) is the sum of
    S2(n, m|lambda) (L z)^m over Carlitz's triangle; addition compares
    Bel_n(x + y) with the sum of C(n, k) Bel_k(x) Bel_(n-k)(y), and
    derivative d/dx Bel_n(x) with L times the sum of C(n, k) Bel_k(x)
    (1|lambda)_(n-k) over k < n.  The classical Bell polynomial B_n(x) is
    the sum of S2(n, m|0) x^m, the limit of Bel_n(x) as lambda -> 0 and
    L -> 1, and the classical step at n is x times the sum of C(n, k) B_k(x):
    the two classical recurrence reports compare B_(n+1)(x), the classical
    row or the limit of the degenerate recurrence's row, with that step."""
    lam, big_l, x, y = point
    triangle = [[1]]
    for n in range(n_max):
        prev = [0] + triangle[-1] + [0]
        triangle.append([(prev[k] + (k - n * lam) * prev[k + 1]) % P for k in range(n + 2)])

    def bell(n, z):
        return sum(s2 * pow(big_l * z, m, P) for m, s2 in enumerate(triangle[n])) % P

    at_x = [bell(n, x) for n in range(n_max + 1)]
    at_y = [bell(n, y) for n in range(n_max + 1)]
    falling = [1]  # (1|lambda)_j
    for j in range(n_max):
        falling.append(falling[-1] * (1 - j * lam) % P)
    classical = [sum(s2 * pow(x, m, P) for m, s2 in enumerate(row)) % P for row in carlitz_triangle(n_max + 1, 0)]
    steps = [x * sum(comb(n, k) * classical[k] for k in range(n + 1)) % P for n in range(n_max + 1)]
    ns = range(n_max + 1)
    return {
        "addition": {n: (bell(n, x + y), sum(comb(n, k) * at_x[k] * at_y[n - k] for k in range(n + 1)) % P) for n in ns},
        "derivative": {
            n: (
                sum(s2 * m * pow(big_l, m, P) * pow(x, m - 1, P) for m, s2 in enumerate(triangle[n]) if m) % P,
                big_l * sum(comb(n, k) * at_x[k] * falling[n - k] for k in range(n)) % P,
            )
            for n in ns[1:]
        },
        "classical_limit": {n: (classical[n], classical[n]) for n in ns},
        "classical_recurrence": {n: (classical[n + 1], steps[n]) for n in ns},
        "recurrence_classical_limit": {n: (classical[n + 1], steps[n]) for n in ns},
    }


def report_sides(n_max):
    """name -> the (n, lhs, rhs) triples of each audited report, read from
    its entry of `suite.EXACT_REPORTS` over the rows the suite builds."""
    rows = suite.exact_rows(n_max)
    return {name: list(sides(rows)) for name, _, sides in suite.EXACT_REPORTS if name in AUDITED_REPORTS}


def report_mismatches(sides, n_max):
    """(report, n, side) for every side whose value differs from its
    definition at some point; every n of the report must be read."""
    mismatches = []
    for point in REPORT_POINTS:
        for name, expected in report_definitions(n_max, point).items():
            triples = sides[name]
            assert [n for n, _, _ in triples] == list(expected), name
            for n, lhs, rhs in triples:
                got = (value_mod_p(lhs, point), value_mod_p(rhs, point))
                mismatches += [(name, n, side) for side, a, b in zip(("lhs", "rhs"), got, expected[n]) if a != b]
    return sorted(set(mismatches))


@pytest.fixture(scope="module")
def audited_mismatches():
    return report_mismatches(report_sides(REPORT_N_MAX), REPORT_N_MAX)


def test_addition_and_derivative_sides_equal_their_definitions_mod_p(audited_mismatches):
    assert [m for m in audited_mismatches if m[0] in ("addition", "derivative")] == []


def test_classical_report_sides_equal_their_definitions_mod_p(audited_mismatches):
    assert [m for m in audited_mismatches if m[0] not in ("addition", "derivative")] == []


def test_report_audit_catches_a_kernel_that_wraps_coefficients_at_64_bits(monkeypatch):
    # No wrap reaches the classical sides.  They read only lambda^0
    # coefficients, which a product forms from its factors' lambda^0
    # coefficients alone, and those are S2(n, m) < 2^51 for n <= 22.
    wrap_kernel_at_64_bits(monkeypatch)
    mismatches = report_mismatches(report_sides(REPORT_N_MAX), REPORT_N_MAX)
    assert {name for name, _, _ in mismatches} == {"addition", "derivative"}
    assert all(n > 12 for _, n, _ in mismatches), mismatches


def test_report_audit_catches_a_kernel_that_scales_one_orientation_only(monkeypatch):
    # Every report whose sides form a product with c != 1 fails, named.
    # classical_limit cannot fail: its one kernel pass per side, in
    # degenerate_bell, has c = 1 in every product, and bell_polynomial and
    # the substitution lambda -> 0, L -> 1 make no kernel pass.
    monkeypatch.setattr(MPoly, "sum_of_products", kernel_scaling_one_orientation_only())
    mismatches = report_mismatches(report_sides(REPORT_N_MAX), REPORT_N_MAX)
    assert {name for name, _, _ in mismatches} == {
        "addition",
        "classical_recurrence",
        "derivative",
        "recurrence_classical_limit",
    }
