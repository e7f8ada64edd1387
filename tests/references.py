"""Reference helpers that only the tests read: the exact value of a
polynomial at a rational point, from its terms, the one-point scaled
series check, the per-point reference of the float grid, from the row
helpers of `numeric`, and mutants of a function compiled from its source."""

import inspect
import math
import sys
import textwrap
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

    Left side: exp(x L) times `eval_bel_numeric`, the closed form's one
    Horner pass, which the grid reads too.  Right side: the truncated series
    sum over k of (x^k / k!) L^k * sum over l of k^l lambda^(n-l)
    stirling1(n, l), each inner sum an fsum of its float products.  Raises
    OverflowError naming the side or term out of range.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    big_l = numeric._check_lambda(lam)
    numeric._check_x(x)
    try:
        value = numeric.eval_bel_numeric(n, lam, x)
    except OverflowError:  # a coefficient of L^m is out of float range
        value = math.inf
    lhs = numeric._exp_times(x * big_l, value, "scaled series left side")
    inner = numeric._scaled_inner_row(n, lam, numeric._power_columns(n, terms))
    rhs = numeric._weighted_sum(numeric._weights(x * big_l, terms), inner, "scaled series")
    return NumericCheck("scaled_bell_series", n, lam, x, terms, lhs, rhs, tol)


def compiled_with(function, old, new, *edits):
    """`function` compiled afresh from its source, with the one `old` in it
    replaced by `new`, and so for each further (old, new) pair of `edits`,
    over a copy of its module's globals: a mutant that leaves the module
    itself unchanged.  A decorated function comes back decorated, so a
    classmethod's mutant is a classmethod to rebind."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in ((old, new), *edits):
        assert source.count(old) == 1, f"{old!r} is not in the source of {function.__name__} exactly once"
        source = source.replace(old, new)
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[function.__name__]
