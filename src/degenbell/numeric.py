"""Floating-point evaluation and truncated validation of the
infinite-series (Dobinski-type) identities.

All series are summed with math.fsum, which is exact over the generated
term list, so the 1e-9 default tolerance is reachable in double precision
across the whole supported grid.  lambda = 0 is a removable singularity of
L = log(1+lambda)/lambda and is rejected everywhere here; callers wanting
the classical limit use the exact classical constructors instead.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, repeat
from operator import mul, sub, truediv
from typing import NamedTuple

from .classical import stirling_rows

DEFAULT_TERMS = 80
DEFAULT_TOL = 1e-9


class NumericCheck(NamedTuple):
    """One floating-point comparison: `abs_error` is |lhs - rhs| and
    `passed` is abs_error <= tol, so a NaN on either side fails.

    `lam` and `x` are None for purely classical checks.
    """

    identity_name: str
    n: int
    lam: float | None
    x: float | None
    terms: int
    lhs: float
    rhs: float
    tol: float

    @property
    def abs_error(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tol

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity_name,
            "n": self.n,
            "lambda": self.lam,
            "x": self.x,
            "terms": self.terms,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_error": self.abs_error,
            "tol": self.tol,
            "passed": self.passed,
        }


def _check_lambda(lam: float) -> float:
    """Validate lambda and return L = log(1+lambda)/lambda."""
    if not (lam > -1.0 and math.isfinite(lam)) or lam == 0.0:
        raise ValueError(f"lambda must lie in (-1, 0) or (0, inf), got {lam}")
    return math.log1p(lam) / lam


def _check_x(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")


# One cached entry per row builder is enough: the float grid asks for each
# (n, lambda) row for every x in turn.  The weights keep an entry for each
# (lambda, x) of a grid of up to 16 points (verify's has 9), met at every n.
# Rows are tuples, so no caller can change what the next one reads.


@functools.lru_cache(maxsize=1)
def _falling_row(n: int, lam: float, terms: int) -> tuple[float, ...]:
    """((l | lambda)_n for l = 0..terms), each l (l - lambda) ... (l - (n-1) lambda)."""
    steps = [i * lam for i in range(n)]
    return tuple(math.prod(map(sub, repeat(l, n), steps), start=1.0) for l in range(terms + 1))


@functools.lru_cache(maxsize=1)
def _scaled_inner_row(n: int, lam: float, terms: int) -> tuple[float, ...]:
    """(fsum over l of (k^l lambda^(n-l)) stirling1(n, l) for k = 0..terms);
    the columns are lazy, so zip forms the products k by k, l by l."""
    columns = [
        map(mul, map(mul, map(pow, map(float, range(terms + 1)), repeat(l)), repeat(lam ** (n - l))), repeat(s1))
        for l, s1 in enumerate(stirling_rows(n)[0][n])
    ]
    return tuple(map(math.fsum, zip(*columns)))


@functools.lru_cache(maxsize=16)
def _weights(xl: float, terms: int) -> tuple[float, ...]:
    """((x L)^k / k! for k = 0..terms), each the one before times x L / k.
    0.0 and -0.0 share an entry: fsum does not see the signs of zero weights."""
    return tuple(accumulate((xl / k for k in range(1, terms + 1)), mul, initial=1.0))


def _weighted_sum(xl: float, row: tuple[float, ...], series: str) -> float:
    """fsum of (x L)^k / k! * row[k]; OverflowError names the first term out of float range."""
    terms = list(map(mul, _weights(xl, len(row) - 1), row))
    try:
        total = math.fsum(terms)  # not finite only when some term is not
        if math.isfinite(total):
            return total
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf among the terms
        if all(map(math.isfinite, terms)):
            raise
    k = next(k for k, term in enumerate(terms) if not math.isfinite(term))
    raise OverflowError(f"{series} term {k} overflows")


def eval_bel_numeric(n: int, lam: float, x: float) -> float:
    """Closed-form degenerate Bell value at real lambda and x.

    Bel_{n,lambda}(x) is the sum over m of S2(n,m|lambda) (x L)^m, with
    S2(n,m|lambda) the sum over k of stirling1(n,k) stirling2(k,m)
    lambda^(n-k).  lambda = p/q and x = r/s are bound exactly (every float
    is a rational), so the coefficient of L^m is N_m r^m / (q^n s^m) with
    the integer N_m = sum over k of stirling1(n,k) stirling2(k,m)
    p^(n-k) q^k, rounded once by a correctly rounded integer division.
    No polynomial is built: the work is about n^2/2 products of exact
    integers, read from whole rows of the cached Stirling triangles.  Only
    the single transcendental L = log1p(lambda)/lambda is bound in
    floating point, in one Horner pass, which keeps the large cancellations
    among the lambda terms exact.

    Raises ValueError for n < 0, lambda outside (-1, 0) and (0, inf) or a
    non-finite x, and OverflowError when a coefficient of L^m is too large
    for a float.
    """
    big_l = _check_lambda(lam)
    _check_x(x)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    p, q = lam.as_integer_ratio()
    r, s = x.as_integer_ratio()
    s1_rows, s2_rows = stirling_rows(n)
    coeffs = [0] * (n + 1)  # N_m, summed one stirling2 row k at a time
    for k, s1 in enumerate(s1_rows[n]):
        weight = s1 * p ** (n - k) * q**k
        for m, s2 in enumerate(s2_rows[k]):
            coeffs[m] += weight * s2
    r_m = accumulate(repeat(r, n), mul, initial=1)  # r**m, one factor more per m
    den_m = accumulate(repeat(s, n), mul, initial=q**n)  # q**n s**m
    value = 0.0
    for term in reversed([c * r_pow / den for c, r_pow, den in zip(coeffs, r_m, den_m)]):
        value = value * big_l + term
    return value


def dobinski_degenerate(n: int, lam: float, x: float, terms: int = DEFAULT_TERMS) -> float:
    """Truncated Dobinski-type series for the degenerate Bell value:
    exp(-x L) * sum over l of (x^l / l!) L^l (l | lambda)_n.

    Converges to eval_bel_numeric(n, lam, x) as terms grows.  Raises
    OverflowError when a term, or the sum, is out of float range, never inf
    or nan.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    big_l = _check_lambda(lam)
    _check_x(x)
    total = _weighted_sum(x * big_l, _falling_row(n, lam, terms), "Dobinski series")
    try:
        value = math.exp(-x * big_l) * total
    except OverflowError:  # exp(-x L) alone is out of range
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError("Dobinski series sum overflows")
    return value


def dobinski_classical(n: int, terms: int = 60) -> float:
    """Truncated classical Dobinski sum (1/e) * sum of k^n / k!."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    inv_fact = accumulate(range(1, terms + 1), truediv, initial=1.0)  # 1/k!, the one before over k
    return math.exp(-1.0) * math.fsum(map(mul, map(pow, map(float, range(terms + 1)), repeat(n)), inv_fact))


def dobinski_check(
    n: int, lam: float, x: float, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL
) -> NumericCheck:
    """Closed form against the truncated degenerate Dobinski series."""
    lhs = eval_bel_numeric(n, lam, x)
    rhs = dobinski_degenerate(n, lam, x, terms)
    return NumericCheck("dobinski_degenerate", n, lam, x, terms, lhs, rhs, tol)


def classical_dobinski_check(n: int, terms: int = 60, tol: float = DEFAULT_TOL) -> NumericCheck:
    """Truncated classical Dobinski sum against the exact Bell number, the
    sum of the stirling2 row n."""
    exact = float(sum(stirling_rows(n)[1][n]))
    return NumericCheck("dobinski_classical", n, None, None, terms, dobinski_classical(n, terms), exact, tol)


def scaled_bell_series_check(
    n: int, lam: float, x: float, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL
) -> NumericCheck:
    """Two-sided series identity for the exponentially scaled Bell value.

    Left side: exp(x L) times the double-Stirling closed form, the fsum
    of stirling1(n,k) stirling2(k,m) lambda^(n-k) (L x)^m over its non-zero
    integer coefficients, each rounded once to a float.  Right side: the
    truncated series sum over k of (x^k / k!) L^k * sum over l of
    k^l lambda^(n-l) stirling1(n, l), each inner sum an fsum of its float
    products.  Raises OverflowError naming the side or term out of range.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    big_l = _check_lambda(lam)
    _check_x(x)
    s1, s2 = stirling_rows(n)
    try:  # float, exp and ** raise OverflowError, fsum raises ValueError on inf - inf
        lam_pows = [lam**j for j in range(max(n, 1))]  # lambda^n has no non-zero coefficient when n > 0
        l_pows, x_pows = [big_l**m for m in range(n + 1)], [x**m for m in range(n + 1)]
        closed = math.fsum(
            float(c) * (lam_pows[n - k] * l_pows[m] * x_pows[m])
            for k in range(n + 1) for m in range(k + 1) if (c := s1[n][k] * s2[k][m])
        )
        lhs = math.exp(x * big_l) * closed
    except (OverflowError, ValueError):
        lhs = math.nan
    if not math.isfinite(lhs):
        raise OverflowError("scaled series left side overflows")
    rhs = _weighted_sum(x * big_l, _scaled_inner_row(n, lam, terms), "scaled series")
    return NumericCheck("scaled_bell_series", n, lam, x, terms, lhs, rhs, tol)


__all__ = [
    "DEFAULT_TERMS",
    "DEFAULT_TOL",
    "NumericCheck",
    "classical_dobinski_check",
    "dobinski_check",
    "dobinski_classical",
    "dobinski_degenerate",
    "eval_bel_numeric",
    "scaled_bell_series_check",
]
