"""Sparse multivariate polynomials over exact rationals.

Everything exact in this package lives in the ring Q[lambda, L, x, y],
with a fixed variable order:

    lambda   deformation parameter
    L        independent stand-in for log(1 + lambda) / lambda
    x, y     ordinary indeterminates

L is deliberately kept formal: log(1 + lambda) / lambda is transcendental
over Q(lambda), so two expressions built from these symbols agree as
analytic functions exactly when they agree as polynomials in Q[lambda, L,
x, y].  That turns every identity this package verifies into a decidable
equality of canonical forms.

A polynomial is a finite map from exponent vectors to integer numerators,
over one positive common denominator: the layout of FLINT's fmpq_mpoly.
Each exponent vector, a 4-tuple outside this module, is packed into one
int key (Monagan and Pearce): 16-bit fields for, from the top, the total
degree and the exponents of lambda, L, x and y, each below 2^15 so that
the top bit, a guard bit, stays clear.  A product's key is the sum of its
factors' keys, and keys sort as ints in graded lex order.  The map is
kept canonical: no numerator is zero, the denominator and all numerators
have gcd 1, and the zero polynomial is the empty map over 1.  Two
polynomials are then equal iff their maps and denominators are equal,
and arithmetic on the integer coefficients the Bell and Stirling
constructors produce never leaves the integers.  Every sum, product and
sum of products in the package goes through one multiply-accumulate
kernel, `MPoly.sum_of_products`, which adds each c*a*b into one map and
grows the denominator only by lcm.  `terms()` gives each term as its
exponent 4-tuple and reduced numerator and denominator, the term stream
that `items()`, `to_json_obj()`, `pretty()` and the CLI's JSON writer
read; over the denominator 1 its numerators are the stored ones, with no
gcd taken.  Terms come in the graded lexicographic order with the
largest term first, the order of the keys.  `render_text` writes any
such stream, a polynomial's or one read straight off the Stirling rows.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import repeat
from operator import floordiv, index as as_int, mul
from typing import Iterable, Iterator, Mapping, Union

Exponents = tuple[int, int, int, int]
Scalar = Union[int, Fraction]

VARIABLES = ("lambda", "L", "x", "y")
_VAR_INDEX = {name: index for index, name in enumerate(VARIABLES)}
_PRETTY_NAMES = ("λ", "L", "x", "y")

# 16 bits: an exponent below 2^15 and a guard bit, so adding keys never carries between fields.
# No field exceeds the total degree, the top one, so one max() of the keys checks a whole map.
_FIELD_BITS = 16
_LIMIT = 1 << (_FIELD_BITS - 1)
_MASK = (1 << _FIELD_BITS) - 1
_DEGREE_SHIFT, *_SHIFTS = (_FIELD_BITS * i for i in (4, 3, 2, 1, 0))  # the degree; lambda, L, x, y
_UNITS = tuple((1 << _DEGREE_SHIFT) + (1 << shift) for shift in _SHIFTS)  # the key of each variable


@functools.lru_cache(maxsize=1 << 14)
def _unpack(key: int) -> Exponents:
    return (key >> _SHIFTS[0] & _MASK, key >> _SHIFTS[1] & _MASK, key >> _SHIFTS[2] & _MASK, key & _MASK)


def _in_range(num: dict[int, int]) -> dict[int, int]:
    """`num` itself; OverflowError names the largest key's exponents when it is out of range."""
    if (top := max(num, default=0)) >> _DEGREE_SHIFT >= _LIMIT:
        raise OverflowError(f"exponents {_unpack(top)} of total degree {top >> _DEGREE_SHIFT} reach 2^15")
    return num


@functools.lru_cache(maxsize=1 << 14)
def _monomial_text(exponents: Exponents) -> str:
    """The text of one monomial, e.g. "λ^3L^2x^2"; "" at the origin."""
    return "".join(f"{name}^{e}" if e > 1 else name for name, e in zip(_PRETTY_NAMES, exponents) if e)


def render_text(terms: Iterable[tuple[Exponents, int, int]]) -> str:
    """The text of a term stream in canonical order, (exponents, numerator,
    denominator) per term as `MPoly.terms()` gives them, e.g. "x^3 + 3x^2 + x"
    or "L^2x^2 - (1/2)λLx + Lx"; "0" for no terms."""
    pieces: list[str] = []
    for exponents, num, den in terms:
        monomial = _monomial_text(exponents)
        magnitude = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if monomial and magnitude == "1":
            body = monomial
        elif monomial and den != 1:
            body = f"({magnitude}){monomial}"
        else:
            body = magnitude + monomial
        pieces.append(f"+ {body}" if num > 0 else f"- {body}")
    if not pieces:
        return "0"
    text = " ".join(pieces)  # the leading term drops the space after its sign, and a "+"
    return text[2:] if text[0] == "+" else f"-{text[2:]}"


@functools.lru_cache(maxsize=1 << 14, typed=True)
def _pack(e_lam: int, e_l: int, e_x: int, e_y: int) -> int:
    """The key of one exponent vector of ints >= 0 whose total degree is below 2^15.
    The cache is typed, so a float equal to an int never gets that int's key."""
    if min(e_lam, e_l, e_x, e_y) < 0 or e_lam + e_l + e_x + e_y >= _LIMIT:
        raise ValueError(f"exponents {(e_lam, e_l, e_x, e_y)} must be >= 0, of total degree below 2^15")
    return sum(map(mul, map(as_int, (e_lam, e_l, e_x, e_y)), _UNITS))


class MPoly:
    """Canonical sparse polynomial in Q[lambda, L, x, y].

    Instances are immutable; all arithmetic returns new objects, so values
    can be shared freely between threads.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        """The rational front of `from_ints`: each coefficient through `Fraction`,
        then the numerators over the lcm of the denominators."""
        values: dict[Exponents, Fraction] = {}
        for exponents, coeff in (terms or {}).items():
            if not isinstance(exponents, tuple) or len(exponents) != 4 or not all(isinstance(e, int) for e in exponents):
                raise ValueError(f"exponents must be a 4-tuple of ints, got {exponents!r}")
            values[exponents] = Fraction(coeff)
        den = math.lcm(*(value.denominator for value in values.values()))
        poly = MPoly.from_ints({e: v.numerator * (den // v.denominator) for e, v in values.items()}, den)
        self._num, self._den = poly._num, poly._den

    @classmethod
    def from_ints(cls, terms: Mapping[Exponents, int], den: int = 1) -> "MPoly":
        """Integer numerators keyed by exponent 4-tuples over the common denominator
        `den`, an int >= 1, without the rational arithmetic of `MPoly(...)`;
        `_pack` checks each exponent vector."""
        if as_int(den) < 1:
            raise ValueError(f"the denominator must be >= 1, got {den}")
        return cls._trusted({_pack(*exponents): as_int(coeff) for exponents, coeff in terms.items()}, den)

    @classmethod
    def _trusted(cls, num: dict[int, int], den: int = 1) -> "MPoly":
        """Wrap the result of internal arithmetic without re-validating it.

        The keys must already be packed keys in range, the values
        ints and `den` a positive int; zero numerators are dropped and, when
        `den` is not 1, the common factor of `den` and the numerators is
        divided out.  Input from outside the package goes through
        `from_ints`, directly or from `MPoly(...)`, which checks everything.
        The polynomial may keep `num` itself, so the caller must not change
        it afterwards.
        """
        if 0 in num.values():
            num = {key: coeff for key, coeff in num.items() if coeff}
        if den != 1:
            common = math.gcd(den, *num.values())
            if common != 1:
                num = {key: coeff // common for key, coeff in num.items()}
                den //= common
        poly = object.__new__(cls)
        poly._num = num
        poly._den = den
        return poly

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "MPoly":
        return cls._trusted({0: 1})

    # -- inspection ----------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, int, int]]:
        """(exponents, numerator, denominator) of each term's reduced value, in
        canonical order (graded lex, largest first, the order of the keys):
        the terms as read outside this module.  Over the denominator 1 every
        numerator is already reduced."""
        num, den = self._num, self._den
        keys = sorted(num, reverse=True)
        if den == 1:
            return zip(map(_unpack, keys), map(num.__getitem__, keys), repeat(1))
        coeffs = [num[key] for key in keys]
        commons = [math.gcd(coeff, den) for coeff in coeffs]
        return zip(map(_unpack, keys), map(floordiv, coeffs, commons), [den // common for common in commons])

    def items(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """Terms in canonical order (graded lex, largest first)."""
        return tuple((exponents, Fraction(num, den)) for exponents, num, den in self.terms())

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._den == rhs._den and self._num == rhs._num

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den))

    def __repr__(self) -> str:
        return f"MPoly({self.pretty()})"

    # -- ring arithmetic -----------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "MPoly | None":
        if isinstance(value, MPoly):
            return value
        if isinstance(value, int):
            return MPoly._trusted({0: value})
        if isinstance(value, Fraction):
            return MPoly._trusted({0: value.numerator}, value.denominator)
        return None

    def __add__(self, other: object) -> "MPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        one = MPoly.one()
        return MPoly.sum_of_products(((1, self, one), (1, rhs, one)))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._trusted({key: -coeff for key, coeff in self._num.items()}, self._den)

    def __sub__(self, other: object) -> "MPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        one = MPoly.one()
        return MPoly.sum_of_products(((1, self, one), (-1, rhs, one)))

    def __rsub__(self, other: object) -> "MPoly":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: object) -> "MPoly":
        if type(other) is int:
            return MPoly._trusted({key: coeff * other for key, coeff in self._num.items()}, self._den)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return MPoly.sum_of_products([(1, self, rhs)])

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "MPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"polynomial power must be a non-negative int, got {power!r}")
        result = MPoly.one()
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    @classmethod
    def sum_of_products(cls, terms: Iterable[tuple[int, "MPoly", "MPoly"]]) -> "MPoly":
        """The sum of c*a*b over the (int c, MPoly a, MPoly b) triples.

        Every product is added into one dict, so no partial sum is built as a
        polynomial.  The common denominator grows to the lcm only when a
        product's denominator does not divide it, rescaling the sum so far.
        A product's key is the sum of its factors' keys, checked by `_in_range`.
        The outer loop runs over the factor with fewer terms: many products
        have a one-term factor (a constant, a monomial), and an inner loop
        costs more to start than one of its steps."""
        acc: dict[int, int] = {}
        get = acc.get
        den = 1
        for c, a, b in terms:
            product_den = a._den * b._den
            if den % product_den:
                scale = product_den // math.gcd(den, product_den)
                for key in acc:
                    acc[key] *= scale
                den *= scale
            c *= den // product_den
            outer, inner = a._num, b._num
            if len(inner) < len(outer):
                outer, inner = inner, outer
            for key_o, coeff_o in outer.items():
                coeff_o *= c
                for key_i, coeff_i in inner.items():
                    key = key_o + key_i
                    acc[key] = get(key, 0) + coeff_o * coeff_i
        return cls._trusted(_in_range(acc), den)

    # -- calculus ---------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "MPoly | Scalar"]) -> "MPoly":
        """Simultaneously substitute the bound variables; others stay formal.

        Each binding is a scalar or a polynomial of at most one term,
        (c/d)*monomial, folded into every term: e of the variable leave its
        key and e of the monomial join it, and its numerator gains
        c^e d^(E-e) over the denominator's d^E, where E is the variable's
        highest exponent.  A binding of two or more terms raises ValueError."""
        folds: list[tuple[int, int, int, int, int]] = []
        for name, value in bindings.items():
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
            bound = self._coerce(value)
            if bound is None:
                raise TypeError(f"cannot substitute value of type {type(value).__name__}")
            if len(bound._num) > 1:
                raise ValueError(f"the binding of {name!r} has {len(bound._num)} terms; substitute folds at most one")
            index, d = _VAR_INDEX[name], bound._den
            monomial, c = next(iter(bound._num.items()), (0, 0))
            top = max((key >> _SHIFTS[index] & _MASK for key in self._num), default=0) if d != 1 else 0
            folds.append((_SHIFTS[index], monomial - _UNITS[index], c, d, top))
        num: dict[int, int] = {}
        for key, coeff in self._num.items():
            folded = key
            for shift, step, c, d, top in folds:
                e = key >> shift & _MASK
                if e:
                    folded += e * step
                    coeff *= c**e
                if top > e:
                    coeff *= d ** (top - e)
            if coeff:
                num[folded] = num.get(folded, 0) + coeff
        return MPoly._trusted(_in_range(num), self._den * math.prod(d**top for *_, d, top in folds))

    def derivative_x(self) -> "MPoly":
        """Formal partial derivative with respect to x; keys only shrink, so they stay in range."""
        derived: dict[int, int] = {}
        for key, coeff in self._num.items():
            e_x = key >> _SHIFTS[2] & _MASK
            if e_x:
                derived[key - _UNITS[2]] = coeff * e_x
        return MPoly._trusted(derived, self._den)

    # -- rendering -------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """JSON output form: canonical term list with "p/q" coefficients."""
        return [
            {"coeff": f"{num}/{den}", "pow": dict(zip(VARIABLES, exponents))}
            for exponents, num, den in self.terms()
        ]

    def pretty(self) -> str:
        """Human-oriented rendering, e.g. "x^3 + 3x^2 + x" or "L^2x^2 - λLx + Lx"."""
        return render_text(self.terms())


LAM, L, X, Y = (MPoly._trusted({unit: 1}) for unit in _UNITS)
