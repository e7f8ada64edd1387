"""Closed-form constructors for degenerate Bell polynomials and degenerate
Stirling numbers of the second kind, plus exact identity verifiers.

Every constructor gives the same canonical polynomials in Q[lambda, L, x]
(L standing in for log(1 + lambda)/lambda).  The closed sums take one n;
the forms that build row n from earlier rows (`*_table`) return rows
0..n_max from one pass.  The verifiers take those rows and play the forms
against each other and against the series oracle, reporting the first
mismatching n if any.
"""

from __future__ import annotations

import functools
from itertools import accumulate, repeat
from math import comb, factorial
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .poly import L, LAM, MPoly, X, Y
from .classical import bell_polynomial, falling_factorials, stirling_rows


class VerificationReport(NamedTuple):
    """Outcome of sweeping one identity over a range of n.

    `first_failure`, when present, carries (n, lhs, rhs) for the smallest
    failing n, with both sides None when no triple of that n was read;
    `passed` is true exactly when it is absent.
    """

    identity_name: str
    n_range: tuple[int, int]
    first_failure: tuple[int, MPoly | None, MPoly | None] | None = None

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def to_json_obj(self) -> dict:
        failure = None
        if self.first_failure is not None:
            n, lhs, rhs = self.first_failure
            sides = [None if side is None else side.to_json_obj() for side in (lhs, rhs)]
            failure = {"n": n, "lhs": sides[0], "rhs": sides[1]}
        return {
            "identity": self.identity_name,
            "range": [self.n_range[0], self.n_range[1]],
            "passed": self.passed,
            "first_failure": failure,
        }


def sweep_identity(
    name: str, lo: int, hi: int, sides: Iterable[tuple[int, MPoly, MPoly]]
) -> VerificationReport:
    """Read the triples (n, lhs, rhs) of an identity for n = lo..hi in order,
    one at a time, and stop at the first exact mismatch, which is the
    report's first failure.  An n may repeat in consecutive triples, but
    their n's must run through lo, lo + 1, ..., hi exactly: at the first n
    where they do not (one skipped or never reached, or one past hi) the
    report fails with (n, None, None), since neither side was compared
    there.  An empty range passes vacuously."""
    expected = lo  # the next n of lo..hi not read yet
    for triple in sides:
        n = triple[0]
        if n == expected <= hi:
            expected += 1
        elif n != expected - 1 or n < lo:
            return VerificationReport(name, (lo, hi), (expected, None, None))
        if triple[1] != triple[2]:
            return VerificationReport(name, (lo, hi), triple)
    return VerificationReport(name, (lo, hi), None if expected > hi else (expected, None, None))


# -- constructors ---------------------------------------------------------


# `degenerate_bell`, the suite's report and the dstirling table read each entry: 4096 hold n <= 89.
@functools.lru_cache(maxsize=1 << 12)
def degenerate_stirling2(n: int, m: int) -> MPoly:
    """Closed form over the classical pair: sum of
    stirling1(n,k) * stirling2(k,m) * lambda^(n-k) for k = m..n."""
    if m < 0 or n < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    s1, s2 = stirling_rows(n)
    return MPoly.from_ints({(n - k, 0, 0, 0): s1[n][k] * s2[k][m] for k in range(m, n + 1)})


def degenerate_bell(n: int) -> MPoly:
    """Canonical constructor: single sum of the degenerate Stirling numbers
    against L^m x^m.  The suite's canonical rows, which `verify` reads."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    terms = ((1, degenerate_stirling2(n, m), MPoly.from_ints({(0, m, m, 0): 1})) for m in range(n + 1))
    return MPoly.sum_of_products(terms)


def dbell_via_stirling_pair(n: int) -> MPoly:
    """Double sum over both classical Stirling kinds with lambda^(n-k)
    weights and L^m x^m attached: the coefficient of lambda^j (L x)^m is
    the integer stirling1(n, n-j) * stirling2(n-j, m), so no kernel pass is
    made.  `table --family dbell` reads it.  For n >= 1 the terms m = 0 are
    zero (stirling2(k, 0) = 0 for k >= 1 and stirling1(n, 0) = 0), so they
    are left out."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    s1, s2 = stirling_rows(n)
    s1_n = s1[n]
    return MPoly.from_ints(
        {(n - k, m, m, 0): s1_n[k] * s2[k][m] for k in range(n + 1) for m in range(1 if n else 0, k + 1)}
    )


def binomial_convolution(a: Sequence[MPoly], b: Sequence[MPoly], n: int) -> MPoly:
    """The binomial convolution: sum of C(n, k) a[k] b[n-k] for k = 0..n."""
    return MPoly.sum_of_products((comb(n, k), a[k], b[n - k]) for k in range(n + 1))


def dbell_classical_bell_table(n_max: int) -> list[MPoly]:
    """Rows 0..n_max of the expansion through classical Bell polynomials
    taken at the rescaled argument x*L.  The expansion is stated for
    n >= 1; row 0 is Bel_0 = 1, which it does not produce.

    Row n is x L times the sum over k of stirling1(n,k) lambda^(n-k) c_k,
    where c_k, the sum of C(k-1, j-1) Bel_{j-1}(x L) over j = 1..k, does
    not depend on n: each n appends one rescaled Bell polynomial and one c_n.
    The monomials x L and lambda^e x L are built once for the table.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    s1 = stirling_rows(n_max)[0]
    xl = MPoly.from_ints({(0, 1, 1, 0): 1})
    lam_xl = [MPoly.from_ints({(e, 1, 1, 0): 1}) for e in range(n_max)]
    rescaled: list[MPoly] = []
    inner: list[MPoly] = []
    one = MPoly.one()
    table = [one]
    for n in range(1, n_max + 1):
        rescaled.append(bell_polynomial(n - 1).substitute({"x": xl}))
        inner.append(MPoly.sum_of_products((comb(n - 1, j), rescaled[j], one) for j in range(n)))
        table.append(MPoly.sum_of_products((s1[n][k], lam_xl[n - k], inner[k - 1]) for k in range(1, n + 1)))
    return table


def degenerate_exp_composita(n: int, k: int, falling: Sequence[MPoly]) -> MPoly:
    """Coefficient of t^n in the k-th power of (1 + lambda t)^(1/lambda) - 1.

    Computed by the alternating binomial closed form over the lambda-step
    falling factorials (j | lambda)_n, which `falling` holds at index j - 1
    for j = 1..k at least, so a caller that takes every k at one n builds
    them once; k > n gives 0 because the series has no constant term.  The
    1/n! is the constant factor of every product in the one kernel pass.
    """
    if n < 1 or k < 1:
        raise ValueError(f"composita needs n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n:
        return MPoly.zero()
    inv_fact = MPoly.from_ints({(0, 0, 0, 0): 1}, factorial(n))
    return MPoly.sum_of_products(((-1) ** (k - j) * comb(k, j), falling[j - 1], inv_fact) for j in range(1, k + 1))


def composition_coefficient(n: int, falling: Sequence[MPoly]) -> MPoly:
    """Ordinary coefficient of t^n (n >= 1) in the composed generating
    function, via composita: sum of composita(n,k) * (L x)^k / k!, given
    falling[j - 1] = (j | lambda)_n for j = 1..n.

    This is the exponential value divided by n!; `dbell_composita_table`
    restores the n! to land on the degenerate Bell polynomial itself.
    """
    return MPoly.sum_of_products(
        (1, degenerate_exp_composita(n, k, falling), MPoly.from_ints({(0, k, k, 0): 1}, factorial(k)))
        for k in range(1, n + 1)
    )


def dbell_composita_table(n_max: int) -> list[MPoly]:
    """Rows 0..n_max of the degenerate Bell polynomial assembled from the
    composita of the inner series: n! times the ordinary composition
    coefficient.  The (j | lambda)_n are read from the rows
    `falling_factorials(j, n_max)` for j = 1..n_max, one column per n."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    rows = [falling_factorials(j, n_max) for j in range(1, n_max + 1)]
    return [MPoly.one()] + [
        composition_coefficient(n, [row[n] for row in rows]) * factorial(n) for n in range(1, n_max + 1)
    ]


def dbell_recurrence_table(n_max: int) -> list[MPoly]:
    """Rows 0..n_max of the one-step recurrence iterated up from 1: each
    step multiplies by x*L the binomial convolution of the rows so far with
    the lambda-step falling factorials of 1-lambda."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    falling = falling_factorials(1 - LAM, n_max)
    xl = MPoly.from_ints({(0, 1, 1, 0): 1})
    bells = [MPoly.one()]
    for m in range(n_max):
        bells.append(xl * binomial_convolution(bells, falling, m))
    return bells


def limit_lambda_zero(p: MPoly) -> MPoly:
    """The lambda -> 0 limit, realized as the substitution lambda -> 0,
    L -> 1 (L tends to 1 there)."""
    return p.substitute({"lambda": 0, "L": 1})


# -- verifiers ------------------------------------------------------------


def verify_addition(bells: list[MPoly]) -> VerificationReport:
    """Binomial addition law in Q[lambda, L, x, y], given bells[n] =
    Bel_n for n = 0..n_max: the polynomial at x+y against the binomial
    convolution of the polynomials at x and at y.  The powers of x + y come
    from one running product, built once for every substitution."""
    at_y = [bell.substitute({"x": Y}) for bell in bells]
    shift = X + Y
    powers = list(accumulate(repeat(shift, len(bells) - 1), mul, initial=MPoly.one()))
    sides = (
        (n, bell.substitute({"x": shift}, {"x": powers}), binomial_convolution(bells, at_y, n))
        for n, bell in enumerate(bells)
    )
    return sweep_identity("addition", 0, len(bells) - 1, sides)


def verify_derivative(bells: list[MPoly]) -> VerificationReport:
    """Derivative reduction, given bells[n] = Bel_n for n = 0..n_max:
    d/dx of the degree-n polynomial equals L times the binomial convolution
    with the falling factorials of 1 over m = 0..n-1.  The convolution
    reads (1 | lambda)_k for k >= 1 and 0 at k = 0, which drops m = n.
    L is a formal variable, so this holds exactly when (1/L) d/dx equals
    the convolution."""
    falling = [MPoly.zero()] + falling_factorials(1, len(bells) - 1)[1:]
    sides = ((n, bells[n].derivative_x(), L * binomial_convolution(bells, falling, n)) for n in range(1, len(bells)))
    return sweep_identity("derivative", 1, len(bells) - 1, sides)


__all__ = [
    "VerificationReport",
    "binomial_convolution",
    "composition_coefficient",
    "dbell_classical_bell_table",
    "dbell_composita_table",
    "dbell_recurrence_table",
    "dbell_via_stirling_pair",
    "degenerate_bell",
    "degenerate_exp_composita",
    "degenerate_stirling2",
    "limit_lambda_zero",
    "sweep_identity",
    "verify_addition",
    "verify_derivative",
]
