"""Reference helpers that only the tests read: the exact value of a
polynomial at a rational point, from its terms, and the one-point scaled
series check, the per-point reference of the float grid, from the row
helpers of `numeric`."""

import math
from fractions import Fraction

from degenbell import numeric
from degenbell.numeric import DEFAULT_TERMS, DEFAULT_TOL, NumericCheck
from degenbell.poly import VARIABLES


def eval_exact(p, values):
    """The exact rational value of p; all four variables must be bound."""
    missing = [name for name in VARIABLES if name not in values]
    if missing:
        raise ValueError(f"eval_exact needs a value for every variable; missing {missing}")
    point = [Fraction(values[name]) for name in VARIABLES]
    return sum((coeff * math.prod(map(pow, point, exponents)) for exponents, coeff in p.items()), Fraction(0))


def scaled_bell_series_check(n, lam, x, terms=DEFAULT_TERMS, tol=DEFAULT_TOL):
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
    big_l = numeric._check_lambda(lam)
    numeric._check_x(x)
    lhs = numeric._scaled_left(numeric._left_terms(n), n, lam, big_l, x)
    inner = numeric._scaled_inner_row(n, lam, numeric._power_columns(n, terms))
    rhs = numeric._weighted_sum(numeric._weights(x * big_l, terms), inner, "scaled series")
    return NumericCheck("scaled_bell_series", n, lam, x, terms, lhs, rhs, tol)
