"""Classical integer combinatorics: binomials, both kinds of Stirling
numbers, Bell polynomials, and rows of lambda-step falling factorials."""

from __future__ import annotations

import math
import threading
from itertools import accumulate
from operator import mul

from .poly import LAM, MPoly, Scalar

# Triangular caches, grown on demand.  Row n holds entries for k = 0..n.
# Rows are appended whole, under _GROW_LOCK, and never changed after; a
# reader that finds its row present takes no lock.
_S1_ROWS: list[list[int]] = [[1]]
_S2_ROWS: list[list[int]] = [[1]]
_GROW_LOCK = threading.Lock()


def binomial(n: int, k: int) -> int:
    """n choose k, with 0 outside the triangle (k < 0 or k > n)."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_pair(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError(f"Stirling numbers need n, k >= 0, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"Stirling numbers need k <= n, got n={n}, k={k}")


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: coefficient of z^k in
    the falling factorial z(z-1)...(z-n+1)."""
    _check_pair(n, k)
    return stirling_rows(n)[0][n][k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: k-block set partitions of an n-set."""
    _check_pair(n, k)
    return stirling_rows(n)[1][n][k]


def stirling_rows(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Both caches, grown through row n: (stirling1 rows, stirling2 rows),
    row m holding k = 0..m.  For callers that read whole rows; never change
    them.

    Row m of each triangle comes from row m - 1:
    s1(m, k) = s1(m-1, k-1) + (1 - m) s1(m-1, k), since
    (z)_m = (z - (m-1)) (z)_{m-1}, and s2(m, k) = s2(m-1, k-1) + k s2(m-1, k).
    Both grow together, the stirling2 row last, so a stirling2 cache longer
    than n means both hold row n.  The length is tested again under the
    lock, so two threads never build the same row.
    """
    _check_pair(n, 0)
    s1_rows, s2_rows = _S1_ROWS, _S2_ROWS
    if len(s2_rows) <= n:
        with _GROW_LOCK:
            while len(s2_rows) <= n:
                m = len(s2_rows)
                s1, s2 = s1_rows[-1] + [0], s2_rows[-1] + [0]
                s1_rows.append([0] + [s1[k - 1] + (1 - m) * s1[k] for k in range(1, m + 1)])
                s2_rows.append([0] + [s2[k - 1] + k * s2[k] for k in range(1, m + 1)])
    return s1_rows, s2_rows


def bell_polynomial(n: int) -> MPoly:
    """The exponential polynomial: sum of stirling2(n, k) * x^k over k."""
    if n < 0:
        raise ValueError(f"bell_polynomial needs n >= 0, got {n}")
    return MPoly.from_ints({(0, 0, k, 0): s2 for k, s2 in enumerate(stirling_rows(n)[1][n])})


def falling_factorials(z: MPoly | Scalar, n: int) -> list[MPoly]:
    """The row [(z | lambda)_0, ..., (z | lambda)_n] of lambda-step falling
    factorials (z | lambda)_k = z (z - lambda) ... (z - (k-1) lambda), from
    one running product: each entry is the one before times (z - (k-1) lambda).

    (z | lambda)_0 is the empty product 1.  The step is the formal variable
    lambda, so with z an integer each entry is a polynomial in lambda.
    """
    if n < 0:
        raise ValueError(f"falling factorials need n >= 0, got {n}")
    return list(accumulate((z - k * LAM for k in range(n)), mul, initial=MPoly.one()))


__all__ = [
    "bell_polynomial",
    "binomial",
    "falling_factorials",
    "stirling1",
    "stirling2",
    "stirling_rows",
]
