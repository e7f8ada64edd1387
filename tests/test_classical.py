"""Classical combinatorics tests.

Derived expectations are recomputed here from independent oracles that do
not share code with the implementation: Pascal's triangle for binomials,
direct product expansion for Stirling numbers of the first kind, and
brute-force set partition counting for the second kind.
"""

import functools
import math
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from itertools import product

import pytest

from degenbell import classical
from degenbell.classical import bell_polynomial, falling_factorials, stirling_rows
from degenbell.poly import LAM, MPoly, X
from references import eval_exact
from test_scripts import src_env


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
    # The closed forms take their binomials from math.comb, inside the triangle.
    assert math.comb(5, 2) == 10
    assert math.comb(6, 3) == 20
    for n in (0, 1, 7, 30):
        assert math.comb(n, 0) == 1
    assert math.comb(4, 5) == 0


def test_binomial_matches_pascal():
    rows = pascal_triangle(12)
    for n in range(13):
        for k in range(n + 1):
            assert math.comb(n, k) == rows[n][k]


# -- Stirling, first kind -------------------------------------------------------


def test_stirling1_from_product_expansion():
    s1 = stirling_rows(12)[0]
    for n in range(13):
        assert list(s1[n]) == expand_integer_falling_factorial(n)


def test_stirling1_hand_values():
    s1 = stirling_rows(9)[0]
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert s1[3][2] == -3
    assert s1[3][1] == 2
    for n in range(10):
        assert s1[n][n] == 1
        if n >= 1:
            assert s1[n][0] == 0


def test_stirling1_sign_pattern():
    for n, row in enumerate(stirling_rows(12)[0]):
        for k, value in enumerate(row):
            if value:
                assert value * (-1) ** (n - k) > 0


def test_stirling_rejects_out_of_range():
    with pytest.raises(ValueError):
        stirling_rows(-1)


# -- Stirling, second kind --------------------------------------------------------


def test_stirling2_counts_set_partitions():
    s2 = stirling_rows(7)[1]
    for n in range(8):
        assert list(s2[n]) == [count_partitions_with_blocks(n, k) for k in range(n + 1)]


def test_stirling2_hand_values():
    s2 = stirling_rows(9)[1]
    assert s2[3][2] == 3
    # 2-block partitions of a 6-set: 2^5 - 1 = 31
    assert s2[6][2] == 31
    assert s2[6][2] == count_partitions_with_blocks(6, 2)
    for n in range(10):
        assert s2[n][n] == 1
        if n >= 1:
            assert s2[n][0] == 0


def test_inversion_pair():
    s1, s2 = stirling_rows(12)
    for n in range(13):
        for m in range(n + 1):
            total = sum(s1[n][l] * s2[l][m] for l in range(m, n + 1))
            assert total == (1 if n == m else 0)


def test_stirling_caches_survive_concurrent_first_use():
    # Four threads fill a cold cache at once while the interpreter switches
    # threads as often as it can; each must read the serial rows.
    n_max = 60
    stirling_rows.cache_clear()
    expected = [stirling_rows(n) for n in range(n_max + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            stirling_rows.cache_clear()
            seen, errors = [], []

            def fill():
                try:
                    seen.append([stirling_rows(n) for n in range(n_max, -1, -7)])
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=fill) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert seen == [expected[::-7]] * 4
            assert [stirling_rows(n) for n in range(n_max + 1)] == expected
    finally:
        sys.setswitchinterval(interval)


def test_stirling_rows_hold_exactly_rows_0_to_n_as_tuples():
    stirling_rows(30)
    s1_rows, s2_rows = stirling_rows(3)
    assert len(s1_rows) == len(s2_rows) == 4
    assert all(type(row) is tuple for row in (*s1_rows, *s2_rows))
    s1_rows, s2_rows = stirling_rows(6)
    assert s1_rows[6] == (0, -120, 274, -225, 85, -15, 1)
    assert s2_rows[6] == (0, 1, 31, 90, 65, 15, 1)


def test_cold_stirling_rows_make_linearly_many_calls():
    # Each row is built once and finds the row below it cached: 31 misses and
    # 29 hits at n = 30, where re-reading every lower row made 466 calls.
    n = 30
    stirling_rows.cache_clear()
    stirling_rows(n)
    info = stirling_rows.cache_info()
    assert info.currsize == n + 1
    assert info.hits + info.misses <= 2 * n + 2


def test_cold_stirling_rows_build_through_a_rebound_wrapper(monkeypatch):
    # A tracer rebinds the module's name to a functools.wraps wrapper, which
    # has no cache_info; the rows' own recursion then goes through it.
    expected = stirling_rows(30)
    calls = []

    @functools.wraps(stirling_rows)
    def traced(n):
        calls.append(n)
        return stirling_rows(n)

    assert not hasattr(traced, "cache_info")
    monkeypatch.setattr(classical, "stirling_rows", traced)
    stirling_rows.cache_clear()
    assert classical.stirling_rows(30) == expected
    assert sorted(set(calls)) == list(range(31)) and len(calls) <= 2 * 30 + 2


def test_cold_stirling_rows_nest_at_most_two_calls_deep():
    # A cold call reads every earlier n first, each one level below it, so
    # n = 400 returns under a recursion limit of 100.
    script = textwrap.dedent(
        """
        import sys
        from degenbell.classical import stirling_rows

        sys.setrecursionlimit(100)
        s1, s2 = stirling_rows(400)
        assert len(s1) == len(s2) == 401 and len(s1[400]) == len(s2[400]) == 401
        for n in (399, 400):
            a, b = s1[n - 1] + (0,), s2[n - 1] + (0,)
            assert s1[n] == (0, *(a[k - 1] + (1 - n) * a[k] for k in range(1, n + 1)))
            assert s2[n] == (0, *(b[k - 1] + k * b[k] for k in range(1, n + 1)))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), check=False)
    assert proc.returncode == 0, proc.stderr


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
        assert eval_exact(bell_polynomial(n), point) == value


def test_bell_recurrence():
    for n in range(13):
        convolution = MPoly.zero()
        for j in range(n + 1):
            convolution = convolution + math.comb(n, j) * bell_polynomial(j)
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
    for z in (0, 1, Fraction(1, 2), 1 - LAM, X + LAM):
        for n in range(9):
            row = falling_factorials(z, n)
            assert len(row) == n + 1
            for k, entry in enumerate(row):
                product = MPoly.one()
                for i in range(k):
                    product = product * (z - i * LAM)
                assert entry == product


def test_falling_factorial_refuses_a_float():
    # A scalar z is an int or a Fraction; a float is not taken through Fraction.
    with pytest.raises(TypeError):
        falling_factorials(0.5, 2)


@pytest.mark.parametrize("z", [1, 1 - LAM])
def test_falling_factorial_entry_is_one_kernel_pass(monkeypatch, z):
    # Each entry is (z | lambda)_k * z - k (z | lambda)_k * lambda in one
    # sum_of_products, with no separate pass forming z - k lambda.
    kernel = MPoly.sum_of_products.__func__
    calls = []

    def counted(cls, terms):
        calls.append(1)
        return kernel(cls, terms)

    monkeypatch.setattr(MPoly, "sum_of_products", classmethod(counted))
    for n in (0, 1, 7):
        calls.clear()
        falling_factorials(z, n)
        assert len(calls) == n


def test_falling_factorial_homogenizes_stirling1():
    # The coefficient of lambda^(n-k) x^k in x(x - lambda)...(x - (n-1)lambda)
    # is the signed first-kind number.
    s1 = stirling_rows(12)[0]
    for n, entry in enumerate(falling_factorials(X, 12)):
        terms = dict(entry.items())
        for k in range(n + 1):
            assert terms.get((n - k, 0, k, 0), 0) == s1[n][k]


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorials(1, -1)
