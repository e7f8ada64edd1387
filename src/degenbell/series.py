"""Truncated power series in t with polynomial coefficients.

These series are the brute-force oracle: every closed form elsewhere in
the package is checked against coefficients extracted here by expanding
the defining generating functions directly.

A series is the tuple of its ordinary coefficients: the entry at index n
is the plain coefficient of t^n, and its truncation order is its length
less one.  Arithmetic is truncation closed: nothing beyond the stored
order is ever read or written.  Exponentially normalized quantities are
produced at the boundary by multiplying the n-th coefficient by n!.
Keeping a single stored form with explicit conversion is what prevents a
silent factor of n! from creeping into the composita arithmetic, which
lives on ordinary coefficients while Bell-style values are exponential.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import factorial
from operator import mul

from .poly import L, MPoly, X


def series_mul(a: tuple[MPoly, ...], b: tuple[MPoly, ...]) -> tuple[MPoly, ...]:
    """Truncated Cauchy product of two series of equal order, each a
    non-empty tuple of coefficients."""
    if len(a) != len(b):
        raise ValueError(f"series order mismatch: {len(a) - 1} != {len(b) - 1}")
    if not a:
        raise ValueError("a series needs at least the constant coefficient")
    products = (zip(repeat(1), a[: n + 1], b[n::-1]) for n in range(len(a)))
    return tuple(map(MPoly.sum_of_products, products))


def degenerate_exp_minus_one(order: int) -> tuple[MPoly, ...]:
    """The series of (1 + lambda t)^(1/lambda) - 1.

    Its exponential coefficients are the lambda-step falling factorials of
    1, so the stored ordinary coefficient of t^n is (1 | lambda)_n / n!,
    the one before times (1 - (n-1) lambda) / n, one term map over n.
    The oracle builds this running product itself, so it shares no row
    with the closed forms.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = [MPoly.zero()]
    c = MPoly.one()
    for n in range(1, order + 1):
        c = c * MPoly.from_ints({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1 - n}, n)
        coeffs.append(c)
    return tuple(coeffs)


def oracle_degenerate_bell_table(rows: list[list[MPoly]]) -> list[MPoly]:
    """Degenerate Bell polynomials for n = 0..n_max straight from their
    generating function, given the rows
    `oracle_degenerate_stirling2_table(n_max)`.

    exp(x L f(t)) = sum over m of (x L)^m f(t)^m / m!, with
    f(t) = (1 + lambda t)^(1/lambda) - 1, so n! times its coefficient of
    t^n is the sum of S2(n, m|lambda) (x L)^m, where S2(n, m|lambda) is
    n!/m! times the coefficient of t^n in f(t)^m.  The Stirling oracle's
    rows hold exactly those numbers, so both oracles come from its one
    expansion of the powers of f.  Each entry is a polynomial in lambda,
    L and x.  The powers (x L)^m come from one running product.
    """
    xl_powers = list(accumulate(repeat(X * L, len(rows) - 1), mul, initial=MPoly.one()))
    return [MPoly.sum_of_products(zip(repeat(1), row, xl_powers)) for row in rows]


def oracle_degenerate_stirling2_table(n_max: int) -> list[list[MPoly]]:
    """Degenerate Stirling numbers of the second kind from their generating
    function: row n holds S2(n, m|lambda) for m = 0..n, each (n!/m!) times
    the coefficient of t^n in f(t)^m.

    Each power f^m is formed once at truncation order n_max, one
    `series_mul` per m, and read at every n.
    """
    if n_max < 0:
        raise ValueError(f"oracle needs n >= 0, got {n_max}")
    f = degenerate_exp_minus_one(n_max)
    powers = [(MPoly.one(),) + (MPoly.zero(),) * n_max]
    for _ in range(n_max):
        powers.append(series_mul(powers[-1], f))
    return [
        [powers[m][n] * (factorial(n) // factorial(m)) for m in range(n + 1)]
        for n in range(n_max + 1)
    ]
