"""Floating-point evaluation and truncated validation of the
infinite-series (Dobinski-type) identities.

All series are summed with math.fsum, which rounds the exact sum of the
generated terms once; each term is itself rounded once.  The closed form
has one float evaluator, `_horner`, and the scaled series' left side is
exp(x L) times its value: within 1e-15 relative of 80-digit mpmath over
the `verify` grid out to n = 20.  What caps that grid at n = 8 is the
absolute tolerance: at n = 10, lambda = 0.1, x = 2 the sides differ by
1.86e-9 on a value of 1.18e7.  The scaled series' right side holds its
digits to n = 12; from n = 13 at lambda = 1 its inner row, an fsum of
products k^l lambda^(n-l) stirling1(n,l) that cancel, loses them.

lambda = 0 is a removable singularity of L = log(1+lambda)/lambda and is
rejected everywhere here; callers wanting the classical limit use the
exact classical constructors instead.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import reduce
from itertools import accumulate, count, repeat
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


def _falling_rows(lam: float, terms: int) -> Iterator[list[float]]:
    """Rows ((l | lambda)_n for l = 0..terms), n = 0, 1, ...: row n is row n - 1 times l - (n - 1) lambda.  The
    grid reads every row, and one list per row is cheaper there than `_falling_row` at each n."""
    ls, row = list(map(float, range(terms + 1))), [1.0] * (terms + 1)
    for i in count():
        yield row
        row = list(map(mul, row, map(sub, ls, repeat(i * lam))))


def _falling_row(n: int, lam: float, terms: int) -> list[float]:
    """Row n of `_falling_rows` alone: each entry is `math.prod` of its factors l - i lambda for i = 0..n-1, which
    multiplies them in the same order from 1.0 in one C double, so the same bits, with no row boxed between factors."""
    if not n:
        return [1.0] * (terms + 1)
    ls = list(map(float, range(terms + 1)))
    return list(map(math.prod, zip(*[map(sub, ls, repeat(i * lam)) for i in range(n)])))


def _power_columns(n: int, terms: int) -> list[list[float]]:
    """(float(k) ** l for k = 0..terms) for l = 0..n, read only by the scaled series' inner rows."""
    try:
        return [list(map(pow, map(float, range(terms + 1)), repeat(l))) for l in range(n + 1)]
    except OverflowError:  # ** raises where k^l leaves float range
        raise OverflowError("scaled series inner row overflows") from None


def _scaled_inner_row(n: int, lam: float, powers: list[list[float]]) -> list[float]:
    """(fsum over l of (k^l lambda^(n-l)) stirling1(n, l) for k = 0..terms), k^l from the power columns."""
    s1_row = stirling_rows(n)[0][n]
    try:  # ** and a stirling1 entry raise OverflowError, fsum raises ValueError on inf - inf
        columns = [map(mul, map(mul, powers[l], repeat(lam ** (n - l))), repeat(s1)) for l, s1 in enumerate(s1_row)]
        return list(map(math.fsum, zip(*columns)))
    except (OverflowError, ValueError):
        raise OverflowError("scaled series inner row overflows") from None


def _bell_coefficients(n: int, lam: float) -> list[int]:
    """N_m = sum over k of stirling1(n,k) stirling2(k,m) p^(n-k) q^k for m = 0..n, lambda = p/q, with
    stirling1(n,k) p^(n-k) q^k formed once per k: one big-int product per term, not two."""
    p, q = lam.as_integer_ratio()
    s1_rows, s2_rows = stirling_rows(n)
    p_pows, q_pows = list(accumulate(repeat(p, n), mul, initial=1)), accumulate(repeat(q, n), mul, initial=1)
    coeffs = [0] * (n + 1)
    for k, s1, q_k in zip(count(), s1_rows[n], q_pows):  # summed one stirling2 row k at a time
        weight = s1 * p_pows[n - k] * q_k
        for m, s2 in enumerate(s2_rows[k]):
            coeffs[m] += weight * s2
    return coeffs


def _horner(coeffs: list[int], lam: float, big_l: float, x: float) -> float:
    """Sum over m of N_m r^m / (q^n s^m) L^m, x = r/s, in one Horner pass in L."""
    n, q, (r, s) = len(coeffs) - 1, lam.as_integer_ratio()[1], x.as_integer_ratio()
    r_m = accumulate(repeat(r, n), mul, initial=1)  # r**m, one factor more per m
    den_m = accumulate(repeat(s, n), mul, initial=q**n)  # q**n s**m
    terms = [c * r_pow / den for c, r_pow, den in zip(coeffs, r_m, den_m)]  # each rounded once
    return reduce(lambda value, term: value * big_l + term, reversed(terms), 0.0)


def _weights(xl: float, terms: int) -> list[float]:
    """((x L)^k / k! for k = 0..terms), each the one before times x L / k."""
    return list(accumulate(map(truediv, repeat(xl), range(1, terms + 1)), mul, initial=1.0))


def _weighted_sum(weights: list[float], row: list[float], series: str) -> float:
    """fsum of weights[k] * row[k]; OverflowError names the first term out of float range."""
    terms = list(map(mul, weights, row))
    try:
        total = math.fsum(terms)  # not finite only when some term is not
        if math.isfinite(total):
            return total
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf among the terms
        if all(map(math.isfinite, terms)):
            raise
    k = next(k for k, term in enumerate(terms) if not math.isfinite(term))
    raise OverflowError(f"{series} term {k} overflows")


def _exp_times(xl: float, value: float, what: str) -> float:
    """exp(xl) times value, never inf or nan: OverflowError names `what`."""
    try:
        product = math.exp(xl) * value
    except OverflowError:  # exp(xl) alone is out of range
        product = math.inf
    if not math.isfinite(product):
        raise OverflowError(f"{what} overflows")
    return product


def _dobinski_sum(weights: list[float], row: list[float], xl: float) -> float:
    """exp(-x L) times the weighted falling row, never inf or nan."""
    return _exp_times(-xl, _weighted_sum(weights, row, "Dobinski series"), "Dobinski series sum")


def eval_bel_numeric(n: int, lam: float, x: float) -> float:
    """Closed-form degenerate Bell value at real lambda and x.

    Bel_{n,lambda}(x) is the sum over m of S2(n,m|lambda) (x L)^m.  With
    lambda = p/q and x = r/s bound exactly, the coefficient of L^m is the
    integer N_m times r^m / (q^n s^m), rounded once; only L is a float, bound
    in one Horner pass, so the cancellations among the lambda terms are exact.
    Raises ValueError for n < 0, lambda outside (-1, 0) and (0, inf) or a
    non-finite x, and OverflowError for a coefficient of L^m out of float range.
    """
    big_l = _check_lambda(lam)
    _check_x(x)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _horner(_bell_coefficients(n, lam), lam, big_l, x)


def dobinski_check(
    n: int, lam: float, x: float, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL
) -> NumericCheck:
    """Closed form against its truncated Dobinski-type series, exp(-x L) * sum over l
    of (x^l / l!) L^l (l | lambda)_n, which converges to it as terms grows.  eval_bel_numeric
    validates n, lambda and x; the series raises OverflowError, never inf or nan, naming
    the term or the sum out of float range."""
    lhs = eval_bel_numeric(n, lam, x)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    xl = x * _check_lambda(lam)
    rhs = _dobinski_sum(_weights(xl, terms), _falling_row(n, lam, terms), xl)
    return NumericCheck("dobinski_degenerate", n, lam, x, terms, lhs, rhs, tol)


def classical_dobinski_check(n: int, terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL) -> NumericCheck:
    """Truncated classical Dobinski sum (1/e) * sum of k^n / k! against the exact
    Bell number, the sum of the stirling2 row n; stirling_rows validates n."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    exact = float(sum(stirling_rows(n)[1][n]))
    inv_fact = accumulate(range(1, terms + 1), truediv, initial=1.0)  # 1/k!, the one before over k
    lhs = math.exp(-1.0) * math.fsum(map(mul, map(pow, map(float, range(terms + 1)), repeat(n)), inv_fact))
    return NumericCheck("dobinski_classical", n, None, None, terms, lhs, exact, tol)


def grid_checks(n_max: int, lams: Sequence[float], xs: Sequence[float], terms: int, tol: float) -> list[NumericCheck]:
    """dobinski_check, then the scaled series identity, exp(x L) times the closed form
    against the truncated sum over k of (x L)^k/k! times the fsum over l of
    k^l lambda^(n-l) stirling1(n,l), at each n = 0..n_max, lambda in lams and x in xs,
    from one pass that builds each row once where it is read.  Raises OverflowError
    naming the side, row or term out of float range."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    big_ls = [_check_lambda(lam) for lam in lams]
    for x in xs:
        _check_x(x)
    weights = [[_weights(x * big_l, terms) for x in xs] for big_l in big_ls]
    falling, powers, checks = [_falling_rows(lam, terms) for lam in lams], _power_columns(n_max, terms), []
    for n in range(n_max + 1):
        for lam, big_l, rows, lam_weights in zip(lams, big_ls, falling, weights):
            row, inner, coeffs = next(rows), _scaled_inner_row(n, lam, powers), _bell_coefficients(n, lam)
            for x, w in zip(xs, lam_weights):
                value, xl = _horner(coeffs, lam, big_l, x), x * big_l  # the closed form, read by both left sides
                rhs = _dobinski_sum(w, row, xl)
                checks.append(NumericCheck("dobinski_degenerate", n, lam, x, terms, value, rhs, tol))
                lhs, rhs = _exp_times(xl, value, "scaled series left side"), _weighted_sum(w, inner, "scaled series")
                checks.append(NumericCheck("scaled_bell_series", n, lam, x, terms, lhs, rhs, tol))
    return checks
