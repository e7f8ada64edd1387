"""Closed-form constructors for degenerate Bell polynomials and degenerate
Stirling numbers of the second kind, plus exact identity verifiers.

Every constructor returns the same canonical polynomial in Q[lambda, L, x]
(L standing in for log(1 + lambda)/lambda); the verifiers play the
constructors against each other and against the series oracle, reporting
the first mismatching n if any.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from .poly import L, LAM, MPoly, X, Y
from .classical import bell_polynomial, binomial, falling_factorial_general, stirling1, stirling2
from .series import degenerate_exp_composita


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sweeping one identity over a range of n.

    `first_failure`, when present, carries (n, lhs, rhs) for the smallest
    failing n; `passed` is true exactly when it is absent.
    """

    identity_name: str
    n_range: tuple[int, int]
    passed: bool
    first_failure: tuple[int, MPoly, MPoly] | None = None

    def __post_init__(self) -> None:
        if self.passed != (self.first_failure is None):
            raise ValueError("passed must be true exactly when first_failure is absent")

    def to_json_obj(self) -> dict:
        failure = None
        if self.first_failure is not None:
            n, lhs, rhs = self.first_failure
            failure = {"n": n, "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}
        return {
            "identity": self.identity_name,
            "range": [self.n_range[0], self.n_range[1]],
            "passed": self.passed,
            "first_failure": failure,
        }


def sweep_identity(
    name: str, lo: int, hi: int, sides: Callable[[int], tuple[MPoly, MPoly]]
) -> VerificationReport:
    """Compare both sides of an identity for n = lo..hi, stopping at the
    first exact mismatch.  An empty range passes vacuously."""
    for n in range(lo, hi + 1):
        lhs, rhs = sides(n)
        if lhs != rhs:
            return VerificationReport(name, (lo, hi), False, (n, lhs, rhs))
    return VerificationReport(name, (lo, hi), True)


# -- constructors ---------------------------------------------------------


def degenerate_stirling2(n: int, m: int) -> MPoly:
    """Closed form over the classical pair: sum of
    stirling1(n,k) * stirling2(k,m) * lambda^(n-k) for k = m..n."""
    if m < 0 or n < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    return MPoly._trusted({(n - k, 0, 0, 0): stirling1(n, k) * stirling2(k, m) for k in range(m, n + 1)})


def degenerate_bell(n: int) -> MPoly:
    """Canonical constructor: single sum of the degenerate Stirling numbers
    against L^m x^m.  Cheapest form, used by the verifiers and the CLI."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    acc = MPoly.zero()
    for m in range(n + 1):
        acc = acc + degenerate_stirling2(n, m) * MPoly._trusted({(0, m, m, 0): 1})
    return acc


def dbell_via_stirling_pair(n: int) -> MPoly:
    """Double sum over both classical Stirling kinds with lambda^(n-k)
    weights and L^m x^m attached."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return MPoly._trusted(
        {(n - k, m, m, 0): stirling1(n, k) * stirling2(k, m) for k in range(n + 1) for m in range(k + 1)}
    )


def dbell_via_classical_bell(n: int) -> MPoly:
    """Expansion through classical Bell polynomials taken at the rescaled
    argument x*L; only stated for n >= 1."""
    if n < 1:
        raise ValueError(f"this expansion needs n >= 1, got {n}")
    rescaled = [bell_polynomial(j).substitute({"x": X * L}) for j in range(n)]
    acc = MPoly.zero()
    for k in range(1, n + 1):
        s1 = stirling1(n, k)
        if s1 == 0:
            continue
        lam_power = LAM ** (n - k)
        for j in range(1, k + 1):
            acc = acc + s1 * binomial(k - 1, j - 1) * lam_power * rescaled[j - 1]
    return L * X * acc


def composition_coefficient(n: int) -> MPoly:
    """Ordinary coefficient of t^n in the composed generating function,
    via composita: sum of composita(n,k) * (L x)^k / k!.

    This is the exponential value divided by n!; `dbell_via_composita`
    restores the n! to land on the degenerate Bell polynomial itself.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return MPoly.one()
    falling = [falling_factorial_general(j, n) for j in range(1, n + 1)]
    acc = MPoly.zero()
    for k in range(1, n + 1):
        r_k = (L * X) ** k * Fraction(1, factorial(k))
        acc = acc + degenerate_exp_composita(n, k, falling) * r_k
    return acc


def dbell_via_composita(n: int) -> MPoly:
    """Degenerate Bell polynomial assembled from the composita of the
    inner series: n! times the ordinary composition coefficient."""
    if n == 0:
        return MPoly.one()
    return composition_coefficient(n) * factorial(n)


def dbell_via_recurrence(n: int) -> MPoly:
    """Iterate the one-step recurrence up from 1: each step multiplies by
    x*L and convolves with the lambda-step falling factorials of 1-lambda."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    falling = [falling_factorial_general(1 - LAM, k) for k in range(n)]
    bells = [MPoly.one()]
    for m in range(n):
        step = MPoly.zero()
        for k in range(m + 1):
            step = step + binomial(m, k) * bells[k] * falling[m - k]
        bells.append(X * L * step)
    return bells[n]


def limit_lambda_zero(p: MPoly) -> MPoly:
    """The lambda -> 0 limit, realized as the substitution lambda -> 0,
    L -> 1 (L tends to 1 there)."""
    return p.substitute({"lambda": 0, "L": 1})


# -- verifiers ------------------------------------------------------------


def verify_addition(n_max: int) -> VerificationReport:
    """Binomial addition law in Q[lambda, L, x, y]: the polynomial at x+y
    against the binomial convolution of the polynomials at x and at y."""
    bells = [degenerate_bell(n) for n in range(n_max + 1)]
    at_y = [bell.substitute({"x": Y}) for bell in bells]

    def sides(n: int) -> tuple[MPoly, MPoly]:
        lhs = bells[n].substitute({"x": X + Y})
        rhs = MPoly.zero()
        for m in range(n + 1):
            rhs = rhs + binomial(n, m) * bells[m] * at_y[n - m]
        return lhs, rhs

    return sweep_identity("addition", 0, n_max, sides)


def verify_derivative(n_max: int) -> VerificationReport:
    """Derivative reduction: (1/L) d/dx of the degree-n polynomial equals
    the binomial convolution with the falling factorials of 1.

    The 1/L factor is realized as an exact L-exponent decrement; if some
    term of the derivative carried no L at all the check fails outright
    (recorded with both sides multiplied back by L).
    """
    bells = [degenerate_bell(n) for n in range(n_max + 1)]
    falling = [falling_factorial_general(1, k) for k in range(n_max + 1)]

    def sides(n: int) -> tuple[MPoly, MPoly]:
        derivative = bells[n].derivative_x()
        rhs = MPoly.zero()
        for m in range(n):
            rhs = rhs + binomial(n, m) * bells[m] * falling[n - m]
        try:
            return derivative.exact_div_var("L"), rhs
        except ValueError:
            return derivative, L * rhs

    return sweep_identity("derivative", 1, n_max, sides)


__all__ = [
    "VerificationReport",
    "composition_coefficient",
    "dbell_via_classical_bell",
    "dbell_via_composita",
    "dbell_via_recurrence",
    "dbell_via_stirling_pair",
    "degenerate_bell",
    "degenerate_stirling2",
    "limit_lambda_zero",
    "sweep_identity",
    "verify_addition",
    "verify_derivative",
]
