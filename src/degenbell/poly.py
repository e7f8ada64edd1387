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

Coefficients are `fractions.Fraction` values, which are always stored
reduced with a positive denominator.  A polynomial is a finite map from
exponent vectors (4-tuples of non-negative ints) to nonzero coefficients;
the zero polynomial is the empty map, and two polynomials are equal iff
their maps are equal.  Wherever an ordering of terms is needed (JSON
serialization, pretty printing) the graded lexicographic order with the
largest term first is used.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponents = tuple[int, int, int, int]
Scalar = Union[int, Fraction]

VARIABLES = ("lambda", "L", "x", "y")
_VAR_INDEX = {name: index for index, name in enumerate(VARIABLES)}
_PRETTY_NAMES = ("λ", "L", "x", "y")
_COEFF_RE = re.compile(r"^-?\d+(/\d+)?$")


def _grlex(exponents: Exponents) -> tuple[int, Exponents]:
    return (sum(exponents), exponents)


def _check_exponents(exponents: object) -> Exponents:
    if (
        not isinstance(exponents, tuple)
        or len(exponents) != 4
        or not all(isinstance(e, int) and e >= 0 for e in exponents)
    ):
        raise ValueError(f"exponent vector must be a 4-tuple of non-negative ints, got {exponents!r}")
    return exponents


class MPoly:
    """Canonical sparse polynomial in Q[lambda, L, x, y].

    Instances are immutable; all arithmetic returns new objects, so values
    can be shared freely between threads.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        canonical: dict[Exponents, Fraction] = {}
        if terms:
            for exponents, coeff in terms.items():
                _check_exponents(exponents)
                value = Fraction(coeff)
                if value:
                    canonical[exponents] = value
        self._terms = canonical
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, terms: dict[Exponents, Fraction]) -> "MPoly":
        """Wrap the result of internal arithmetic without re-validating it.

        The keys must already be 4-tuples of non-negative ints and the
        values `Fraction`s; only zero coefficients are dropped.  Input
        from outside the package goes through `__init__`, `from_terms` or
        `from_json_obj`, which check everything.
        """
        poly = object.__new__(cls)
        poly._terms = {exponents: coeff for exponents, coeff in terms.items() if coeff}
        poly._hash = None
        return poly

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def one(cls) -> "MPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: Scalar) -> "MPoly":
        return cls({(0, 0, 0, 0): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
        exponents = [0, 0, 0, 0]
        exponents[_VAR_INDEX[name]] = 1
        return cls({tuple(exponents): Fraction(1)})

    @classmethod
    def from_terms(cls, raw_terms: Iterable[tuple[Exponents, Scalar]]) -> "MPoly":
        """Normalize a list of (exponent-vector, coefficient) pairs.

        Duplicate exponent vectors are summed and zero coefficients
        dropped, so the result is always canonical.
        """
        accumulated: dict[Exponents, Fraction] = {}
        for exponents, coeff in raw_terms:
            _check_exponents(exponents)
            accumulated[exponents] = accumulated.get(exponents, Fraction(0)) + Fraction(coeff)
        return cls(accumulated)

    # -- inspection ----------------------------------------------------

    def items(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """Terms in canonical order (graded lex, largest first)."""
        return tuple(sorted(self._terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True))

    def coefficient(self, exponents: Exponents) -> Fraction:
        return self._terms.get(_check_exponents(exponents), Fraction(0))

    def degree_in(self, name: str) -> int:
        """Largest exponent of `name` across terms; -1 for the zero polynomial."""
        index = _VAR_INDEX[name]
        if not self._terms:
            return -1
        return max(exponents[index] for exponents in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == MPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"MPoly({self.pretty()})"

    # -- ring arithmetic -----------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "MPoly | None":
        if isinstance(value, MPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MPoly.constant(value)
        return None

    def __add__(self, other: object) -> "MPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self._terms)
        for exponents, coeff in rhs._terms.items():
            merged[exponents] = merged[exponents] + coeff if exponents in merged else coeff
        return MPoly._trusted(merged)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._trusted({exponents: -coeff for exponents, coeff in self._terms.items()})

    def __sub__(self, other: object) -> "MPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "MPoly":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: object) -> "MPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        product: dict[Exponents, Fraction] = {}
        for exp_a, coeff_a in self._terms.items():
            for exp_b, coeff_b in rhs._terms.items():
                key = (exp_a[0] + exp_b[0], exp_a[1] + exp_b[1], exp_a[2] + exp_b[2], exp_a[3] + exp_b[3])
                term = coeff_a * coeff_b
                product[key] = product[key] + term if key in product else term
        return MPoly._trusted(product)

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

    # -- calculus and evaluation ----------------------------------------

    def substitute(self, bindings: Mapping[str, "MPoly | Scalar"]) -> "MPoly":
        """Simultaneously substitute the bound variables; others stay formal."""
        replacements: dict[int, MPoly] = {}
        for name, value in bindings.items():
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
            bound = self._coerce(value)
            if bound is None:
                raise TypeError(f"cannot substitute value of type {type(value).__name__}")
            replacements[_VAR_INDEX[name]] = bound
        if not replacements:
            return self
        total = MPoly.zero()
        for exponents, coeff in self._terms.items():
            residual = [0, 0, 0, 0]
            factor = MPoly.constant(coeff)
            for index, exponent in enumerate(exponents):
                if index in replacements:
                    if exponent:
                        factor = factor * replacements[index] ** exponent
                else:
                    residual[index] = exponent
            total = total + factor * MPoly({tuple(residual): Fraction(1)})
        return total

    def derivative_x(self) -> "MPoly":
        """Formal partial derivative with respect to x."""
        derived: dict[Exponents, Fraction] = {}
        for exponents, coeff in self._terms.items():
            e_x = exponents[2]
            if e_x:
                key = (exponents[0], exponents[1], e_x - 1, exponents[3])
                derived[key] = coeff * e_x
        return MPoly._trusted(derived)

    def exact_div_var(self, name: str) -> "MPoly":
        """Divide by a single variable, requiring every term to contain it."""
        index = _VAR_INDEX[name]
        quotient: dict[Exponents, Fraction] = {}
        for exponents, coeff in self._terms.items():
            if exponents[index] < 1:
                raise ValueError(f"term {exponents} has no factor of {name}; division is not exact")
            lowered = list(exponents)
            lowered[index] -= 1
            quotient[tuple(lowered)] = coeff
        return MPoly._trusted(quotient)

    def eval_exact(self, values: Mapping[str, Scalar]) -> Fraction:
        """Exact rational evaluation; all four variables must be bound."""
        missing = [name for name in VARIABLES if name not in values]
        if missing:
            raise ValueError(f"eval_exact needs a value for every variable; missing {missing}")
        point = tuple(Fraction(values[name]) for name in VARIABLES)
        total = Fraction(0)
        for exponents, coeff in self._terms.items():
            term = coeff
            for value, exponent in zip(point, exponents):
                if exponent:
                    term *= value**exponent
            total += term
        return total

    # -- rendering -------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """JSON interchange form: canonical term list with "p/q" coefficients."""
        return [
            {
                "coeff": f"{coeff.numerator}/{coeff.denominator}",
                "pow": {"lambda": e[0], "L": e[1], "x": e[2], "y": e[3]},
            }
            for e, coeff in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj: object) -> "MPoly":
        if not isinstance(obj, list):
            raise ValueError("polynomial JSON must be a list of term objects")
        pairs: list[tuple[Exponents, Fraction]] = []
        for entry in obj:
            if not isinstance(entry, dict) or set(entry) != {"coeff", "pow"}:
                raise ValueError(f"malformed polynomial term {entry!r}")
            coeff_text = entry["coeff"]
            if not isinstance(coeff_text, str) or not _COEFF_RE.match(coeff_text):
                raise ValueError(f"malformed coefficient {coeff_text!r}")
            pow_map = entry["pow"]
            if not isinstance(pow_map, dict) or set(pow_map) != set(VARIABLES):
                raise ValueError(f"malformed exponent map {pow_map!r}")
            exponents = tuple(pow_map[name] for name in VARIABLES)
            pairs.append((exponents, Fraction(coeff_text)))
        return cls.from_terms(pairs)

    def pretty(self) -> str:
        """Human-oriented rendering, e.g. "x^3 + 3x^2 + x" or "L^2x^2 - λLx + Lx"."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exponents, coeff in self.items():
            monomial = "".join(
                name if exponent == 1 else f"{name}^{exponent}"
                for name, exponent in zip(_PRETTY_NAMES, exponents)
                if exponent
            )
            magnitude = abs(coeff)
            if monomial:
                if magnitude == 1:
                    body = monomial
                elif magnitude.denominator == 1:
                    body = f"{magnitude}{monomial}"
                else:
                    body = f"({magnitude}){monomial}"
            else:
                body = str(magnitude)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


LAM = MPoly.variable("lambda")
L = MPoly.variable("L")
X = MPoly.variable("x")
Y = MPoly.variable("y")

__all__ = [
    "Exponents",
    "L",
    "LAM",
    "MPoly",
    "Scalar",
    "VARIABLES",
    "X",
    "Y",
]
