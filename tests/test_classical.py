"""Classical combinatorics tests.

Derived expectations are recomputed here from independent oracles that do
not share code with the implementation: Pascal's triangle for binomials,
direct product expansion for Stirling numbers of the first kind, and
brute-force set partition counting for the second kind.
"""

import sys
import threading
from fractions import Fraction
from itertools import product

import pytest

from degenbell import classical
from degenbell.classical import (
    bell_polynomial,
    binomial,
    falling_factorials,
    stirling1,
    stirling2,
    stirling_rows,
)
from degenbell.poly import LAM, MPoly, X


# -- independent oracles ----------------------------------------------------


def pascal_triangle(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n + 1)])
    return rows


def count_partitions_with_blocks(n, k):
    """Count k-block set partitions of {0..n-1} by brute enumeration of
    block assignments in canonical (restricted growth) form."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for assignment in product(range(k), repeat=n):
        used = []
        canonical = True
        for label in assignment:
            if label not in used:
                if label != len(used):
                    canonical = False
                    break
                used.append(label)
        if canonical and len(used) == k:
            count += 1
    return count


def expand_integer_falling_factorial(n):
    """Coefficients of x(x-1)...(x-n+1), by plain polynomial multiplication."""
    poly = [1]  # ascending coefficients
    for i in range(n):
        shifted = [0] + poly
        poly = [shifted[d] - i * (poly[d] if d < len(poly) else 0) for d in range(len(shifted))]
    return poly


# -- binomial -----------------------------------------------------------------


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(6, 3) == 20
    for n in (0, 1, 7, 30):
        assert binomial(n, 0) == 1
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0


def test_binomial_matches_pascal():
    rows = pascal_triangle(12)
    for n in range(13):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]


# -- Stirling, first kind -------------------------------------------------------


def test_stirling1_from_product_expansion():
    for n in range(13):
        expanded = expand_integer_falling_factorial(n)
        for k in range(n + 1):
            assert stirling1(n, k) == expanded[k]


def test_stirling1_hand_values():
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert stirling1(3, 2) == -3
    assert stirling1(3, 1) == 2
    for n in range(10):
        assert stirling1(n, n) == 1
        if n >= 1:
            assert stirling1(n, 0) == 0


def test_stirling1_sign_pattern():
    for n in range(13):
        for k in range(n + 1):
            value = stirling1(n, k)
            if value:
                assert value * (-1) ** (n - k) > 0


def test_stirling_rejects_out_of_range():
    with pytest.raises(ValueError):
        stirling1(3, 4)
    with pytest.raises(ValueError):
        stirling1(-1, 0)
    with pytest.raises(ValueError):
        stirling2(2, 3)
    with pytest.raises(ValueError):
        stirling2(2, -1)


# -- Stirling, second kind --------------------------------------------------------


def test_stirling2_counts_set_partitions():
    for n in range(8):
        for k in range(n + 1):
            assert stirling2(n, k) == count_partitions_with_blocks(n, k)


def test_stirling2_hand_values():
    assert stirling2(3, 2) == 3
    # 2-block partitions of a 6-set: 2^5 - 1 = 31
    assert stirling2(6, 2) == 31
    assert stirling2(6, 2) == count_partitions_with_blocks(6, 2)
    for n in range(10):
        assert stirling2(n, n) == 1
        if n >= 1:
            assert stirling2(n, 0) == 0


def test_inversion_pair():
    for n in range(13):
        for m in range(n + 1):
            total = sum(stirling1(n, l) * stirling2(l, m) for l in range(m, n + 1))
            assert total == (1 if n == m else 0)


def test_stirling_caches_survive_concurrent_first_use(monkeypatch):
    # Four threads fill cold caches at once while the interpreter switches
    # threads as often as it can.  Growth without a lock appended rows
    # built from a stale last row, or raised IndexError, in about a third
    # of such trials.
    n_max = 60
    expected = [([stirling1(n, k) for k in range(n + 1)], [stirling2(n, k) for k in range(n + 1)])
                for n in range(n_max + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            monkeypatch.setattr(classical, "_S1_ROWS", [[1]])
            monkeypatch.setattr(classical, "_S2_ROWS", [[1]])
            seen, errors = [], []

            def fill():
                try:
                    seen.append([(stirling1(n, n // 2), stirling2(n, n // 2)) for n in range(n_max + 1)])
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=fill) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert classical._S1_ROWS == [first for first, _ in expected]
            assert classical._S2_ROWS == [second for _, second in expected]
            assert seen == [[(first[n // 2], second[n // 2]) for n, (first, second) in enumerate(expected)]] * 4
    finally:
        sys.setswitchinterval(interval)


def test_stirling_rows_grow_the_caches_bound_at_call_time(monkeypatch):
    # Whole-row readers see the caches through the module globals, so a
    # fresh cache installed later is the one they grow.
    monkeypatch.setattr(classical, "_S1_ROWS", [[1]])
    monkeypatch.setattr(classical, "_S2_ROWS", [[1]])
    s1_rows, s2_rows = stirling_rows(6)
    assert s1_rows is classical._S1_ROWS and s2_rows is classical._S2_ROWS
    assert len(s1_rows) == len(s2_rows) == 7
    assert s1_rows[6] == [0, -120, 274, -225, 85, -15, 1]
    assert s2_rows[6] == [0, 1, 31, 90, 65, 15, 1]
    with pytest.raises(ValueError):
        stirling_rows(-1)


# -- Bell polynomials ----------------------------------------------------------------


def test_bell_polynomial_small():
    assert bell_polynomial(0) == MPoly.one()
    assert bell_polynomial(3) == X**3 + 3 * X**2 + X
    assert bell_polynomial(5) == X**5 + 10 * X**4 + 25 * X**3 + 15 * X**2 + X


def test_bell_polynomial_degree_six_x2_coefficient():
    # Pinned by the brute-force partition count, 2^5 - 1 = 31.
    assert dict(bell_polynomial(6).items())[(0, 0, 2, 0)] == 31


def test_bell_numbers_at_one():
    expected = [1, 1, 2, 5, 15, 52]
    point = {"lambda": 0, "L": 1, "x": 1, "y": 0}
    for n, value in enumerate(expected):
        assert bell_polynomial(n).eval_exact(point) == value


def test_bell_recurrence():
    for n in range(13):
        convolution = MPoly.zero()
        for j in range(n + 1):
            convolution = convolution + binomial(n, j) * bell_polynomial(j)
        assert bell_polynomial(n + 1) == X * convolution


# -- rows of lambda-step falling factorials ------------------------------------------------


def test_falling_factorial_of_one():
    assert falling_factorials(1, 3)[3] == 1 - 3 * LAM + 2 * LAM**2


def test_falling_factorial_empty_product():
    assert falling_factorials(X + LAM, 0) == [MPoly.one()]


def test_falling_factorial_polynomial_argument():
    assert falling_factorials(1 - LAM, 2) == [MPoly.one(), 1 - LAM, (1 - LAM) * (1 - 2 * LAM)]


def test_falling_factorial_rows_are_the_products():
    # Every entry against its product written out, for n = 0 too.
    for z in (0, 1, 1 - LAM, X + LAM):
        for n in range(9):
            row = falling_factorials(z, n)
            assert len(row) == n + 1
            for k, entry in enumerate(row):
                product = MPoly.one()
                for i in range(k):
                    product = product * (z - i * LAM)
                assert entry == product


def test_falling_factorial_homogenizes_stirling1():
    # The coefficient of lambda^(n-k) x^k in x(x - lambda)...(x - (n-1)lambda)
    # is the signed first-kind number.
    for n, entry in enumerate(falling_factorials(X, 12)):
        terms = dict(entry.items())
        for k in range(n + 1):
            assert terms.get((n - k, 0, k, 0), 0) == stirling1(n, k)


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorials(1, -1)
