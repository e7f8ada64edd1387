"""Independent reference values for the benchmark's correctness checks.

Nothing here imports `degenbell`.  Degenerate Stirling numbers come from
Carlitz's triangle

    S2(n+1, k | λ) = S2(n, k-1 | λ) + (k - nλ) S2(n, k | λ),

classical Stirling and Bell numbers from their own recurrences, and
numeric values of Bel_{n,λ}(x) = Σ_k S2(n,k|λ) (xL)^k, with
L = log(1+λ)/λ, from `mpmath` at `DIGITS` significant digits.

Polynomials are plain dicts from exponent tuples (λ, L, x, y) to
`Fraction`, the same variable order as the program's JSON interchange.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath

DIGITS = 80
VARIABLES = ("lambda", "L", "x", "y")
_PRETTY_SYMBOLS = {"λ": 0, "L": 1, "x": 2, "y": 3}
_TERM_RE = re.compile(r"^(\d+|\((\d+)/(\d+)\))?((?:[λLxy](?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"([λLxy])(?:\^(\d+))?")


@lru_cache(maxsize=None)
def carlitz_row(n: int) -> tuple[tuple[int, ...], ...]:
    """Row n of Carlitz's triangle: entry k is S2(n,k|λ) as integer
    coefficients of λ^0, λ^1, ... (trailing zeros dropped)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return ((1,),)
    prev = carlitz_row(n - 1)
    m = n - 1
    row = []
    for k in range(n + 1):
        coeffs = [0] * (n + 1)
        if k >= 1:
            for i, c in enumerate(prev[k - 1]):
                coeffs[i] += c
        if k <= m:
            for i, c in enumerate(prev[k]):
                coeffs[i] += k * c
                coeffs[i + 1] -= m * c
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        row.append(tuple(coeffs))
    return tuple(row)


@lru_cache(maxsize=None)
def stirling2_row(n: int) -> tuple[int, ...]:
    """Classical S(n, k) for k = 0..n from S(n,k) = S(n-1,k-1) + k S(n-1,k)."""
    if n == 0:
        return (1,)
    prev = stirling2_row(n - 1)
    return tuple(
        (prev[k - 1] if k >= 1 else 0) + (k * prev[k] if k < n else 0) for k in range(n + 1)
    )


@lru_cache(maxsize=None)
def stirling1_row(n: int) -> tuple[int, ...]:
    """Signed s(n, k) for k = 0..n from s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)."""
    if n == 0:
        return (1,)
    prev = stirling1_row(n - 1)
    return tuple(
        (prev[k - 1] if k >= 1 else 0) - ((n - 1) * prev[k] if k < n else 0) for k in range(n + 1)
    )


def bell_number(n: int) -> int:
    """Classical Bell number from the Bell triangle (Aitken's array)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def dstirling_poly(n: int, k: int) -> dict[tuple[int, int, int, int], Fraction]:
    return {(i, 0, 0, 0): Fraction(c) for i, c in enumerate(carlitz_row(n)[k]) if c}


def dbell_poly(n: int) -> dict[tuple[int, int, int, int], Fraction]:
    """Bel_{n,λ}(x) = Σ_k S2(n,k|λ) L^k x^k."""
    out = {}
    for k, coeffs in enumerate(carlitz_row(n)):
        for i, c in enumerate(coeffs):
            if c:
                out[(i, k, k, 0)] = Fraction(c)
    return out


def bell_poly(n: int) -> dict[tuple[int, int, int, int], Fraction]:
    return {(0, 0, k, 0): Fraction(c) for k, c in enumerate(stirling2_row(n)) if c}


def dbell_value(n: int, lam: float, x: float) -> tuple[float, float]:
    """Bel_{n,λ}(x) at real λ in (-1,0) ∪ (0,∞), to `DIGITS` digits, with
    the rounding scale Σ_k |S2(n,k|λ) (xL)^k| of evaluating it as a
    polynomial in L.  λ and x are taken as the exact binary values of the
    floats; both results are rounded to floats only at the end."""
    with mpmath.workdps(DIGITS):
        lam_m = mpmath.mpf(lam)
        xl = mpmath.mpf(x) * mpmath.log1p(lam_m) / lam_m
        total = scale = mpmath.mpf(0)
        power = mpmath.mpf(1)
        for coeffs in carlitz_row(n):
            s2 = mpmath.mpf(0)
            for c in reversed(coeffs):
                s2 = s2 * lam_m + c
            total += s2 * power
            scale += abs(s2) * power
            power *= xl
        return float(total), float(scale)


def dobinski_scale(n: int, lam: float, x: float, terms: int) -> float:
    """Rounding scale of the truncated Dobinski sum
    exp(-xL) Σ_{l<=terms} (xL)^l / l! (l|λ)_n: the same sum over the
    absolute values of its terms.  Only a magnitude, so floats suffice."""
    xl = x * math.log1p(lam) / lam
    weight, parts = 1.0, []
    for l in range(terms + 1):
        if l:
            weight *= xl / l
        parts.append(weight * abs(math.prod(l - i * lam for i in range(n))))
    return math.exp(-xl) * math.fsum(parts)


# -- the program's output formats, parsed without the program ----------------


def poly_from_json(obj: list) -> dict[tuple[int, int, int, int], Fraction]:
    out = {}
    for term in obj:
        exps = tuple(term["pow"][v] for v in VARIABLES)
        if exps in out:
            raise ValueError(f"repeated monomial {exps}")
        out[exps] = Fraction(term["coeff"])
    return out


def poly_from_pretty(text: str) -> dict[tuple[int, int, int, int], Fraction]:
    """Parse the program's human rendering, e.g. "L^2x^2 - λLx + Lx"."""
    if text == "0":
        return {}
    out = {}
    tokens = text.split(" ")
    sign = 1
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    for index, token in enumerate(tokens):
        if index % 2 == 1:
            if token not in "+-":
                raise ValueError(f"bad separator {token!r} in {text!r}")
            sign = 1 if token == "+" else -1
            continue
        match = _TERM_RE.match(token)
        if not match or not token:
            raise ValueError(f"bad term {token!r} in {text!r}")
        head, num, den, monomial = match.groups()
        if head is None:
            coeff = Fraction(1)
        elif num is not None:
            coeff = Fraction(int(num), int(den))
        else:
            coeff = Fraction(int(head))
        exps = [0, 0, 0, 0]
        for symbol, power in _FACTOR_RE.findall(monomial):
            exps[_PRETTY_SYMBOLS[symbol]] += int(power or 1)
        key = tuple(exps)
        if key in out or (head is None and not monomial):
            raise ValueError(f"bad term {token!r} in {text!r}")
        out[key] = sign * coeff
    return out
