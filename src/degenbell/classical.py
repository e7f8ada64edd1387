"""Classical integer combinatorics: both kinds of Stirling numbers, Bell
polynomials, and rows of lambda-step falling factorials."""

from __future__ import annotations

import functools

from .poly import LAM, MPoly, Scalar


@functools.cache
def stirling_rows(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Rows 0..n of both triangles, (stirling1 rows, stirling2 rows), row m
    the tuple of k = 0..m: the signed first kind, the coefficients of
    z(z-1)...(z-m+1), and the second kind, k-block set partitions of an m-set.

    Row m of each triangle comes from row m - 1:
    s1(m, k) = s1(m-1, k-1) + (1 - m) s1(m-1, k), since
    (z)_m = (z - (m-1)) (z)_{m-1}, and s2(m, k) = s2(m-1, k-1) + k s2(m-1, k).
    An entry n is cached only after every m < n, so the cache holds the
    entries 0..size - 1, size being its current size.  A miss at n calls
    stirling_rows(m) in order for m = min(size, n - 1)..n - 1, each finding
    m - 1 cached, so no call nests more than two deep and a cold call at n
    makes at most 2n calls; each n's entry shares the row tuples of the
    entries before it.  Two threads may each build the same new n; their
    results are equal and immutable, and the cache keeps one.
    """
    if n < 0:
        raise ValueError(f"Stirling rows need n >= 0, got {n}")
    if n == 0:
        return ((1,),), ((1,),)
    for m in range(min(_rows_cache_info().currsize, n - 1), n):
        s1_rows, s2_rows = stirling_rows(m)
    s1, s2 = s1_rows[-1] + (0,), s2_rows[-1] + (0,)
    s1_row = (0, *[s1[k - 1] + (1 - n) * s1[k] for k in range(1, n + 1)])
    s2_row = (0, *[s2[k - 1] + k * s2[k] for k in range(1, n + 1)])
    return (*s1_rows, s1_row), (*s2_rows, s2_row)


# `stirling_rows` reads its cache's size through this name, bound once here:
# a wrapper rebound over the module's `stirling_rows` (a tracer's, say) need
# not carry `cache_info`.
_rows_cache_info = stirling_rows.cache_info


def bell_polynomial(n: int) -> MPoly:
    """The exponential polynomial: sum of stirling2(n, k) * x^k over k."""
    if n < 0:
        raise ValueError(f"bell_polynomial needs n >= 0, got {n}")
    return MPoly.from_ints({(0, 0, k, 0): s2 for k, s2 in enumerate(stirling_rows(n)[1][n])})


def falling_factorials(z: MPoly | Scalar, n: int) -> list[MPoly]:
    """The row [(z | lambda)_0, ..., (z | lambda)_n] of lambda-step falling
    factorials (z | lambda)_k = z (z - lambda) ... (z - (k-1) lambda), from
    one running product: entry k + 1 is the one kernel pass
    (z | lambda)_k * z - k (z | lambda)_k * lambda.

    (z | lambda)_0 is the empty product 1.  The step is the formal variable
    lambda, so with z an integer each entry is a polynomial in lambda.
    """
    if n < 0:
        raise ValueError(f"falling factorials need n >= 0, got {n}")
    z = z if isinstance(z, MPoly) else MPoly.one() * z
    row = [MPoly.one()]
    for k in range(n):
        row.append(MPoly.sum_of_products(((1, row[k], z), (-k, row[k], LAM))))
    return row


__all__ = [
    "bell_polynomial",
    "falling_factorials",
    "stirling_rows",
]
