"""Exact-core tests: canonical form, ring arithmetic, substitution,
differentiation, exact evaluation, and the JSON interchange format."""

import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from degenbell.degenerate import degenerate_bell
from degenbell.poly import L, LAM, VARIABLES, MPoly, X, Y
from references import compiled_with, eval_exact

E_ZERO = (0, 0, 0, 0)
E_X = (0, 0, 1, 0)


def mono(e_lam=0, e_l=0, e_x=0, e_y=0, coeff=1):
    return MPoly({(e_lam, e_l, e_x, e_y): Fraction(coeff)})


# -- strategies -------------------------------------------------------------
#
# hypothesis is optional: a property test imports it only when it runs, so
# without it the property tests skip and every other test here still runs.


def strategies(st):
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    exponents = st.tuples(*(st.integers(0, 3) for _ in range(4)))
    y_free = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.just(0))
    polys = st.dictionaries(exponents, coeffs, max_size=6).map(MPoly)
    monomials = st.dictionaries(exponents, coeffs, max_size=1).map(MPoly)
    return SimpleNamespace(
        coeffs=coeffs,
        nonzero_coeffs=coeffs.filter(bool),
        polys=polys,
        monomials=monomials,
        y_free_polys=st.dictionaries(y_free, coeffs, max_size=6).map(MPoly),
        points=st.fixed_dictionaries(
            {name: st.fractions(min_value=-3, max_value=3, max_denominator=4) for name in VARIABLES}
        ),
        small_ints=st.integers(0, 3),
        triples=st.lists(st.tuples(st.integers(-3, 3), polys, polys), max_size=5),
    )


def given(*names, examples=()):
    """Make the decorated property a test that runs it under
    hypothesis.given, with the strategies named from `strategies` and the
    argument tuples in `examples`, and skips when hypothesis is missing."""

    def decorate(prop):
        def test():
            hypothesis = pytest.importorskip("hypothesis")
            found = strategies(hypothesis.strategies)
            run = hypothesis.given(*(getattr(found, name) for name in names))(prop)
            for args in examples:
                run = hypothesis.example(*args)(run)
            run()

        return test

    return decorate


# -- normalization -----------------------------------------------------------


def test_normalize_cancellation():
    assert X + MPoly({E_X: Fraction(-1)}) == MPoly.zero()
    assert MPoly({E_X: Fraction(0), E_ZERO: 0}) == MPoly.zero()


def test_normalize_sums_duplicates():
    p = MPoly({E_X: Fraction(1, 2)}) + MPoly({E_X: Fraction(1, 2)})
    assert p == X


def test_normalize_reduces_fractions():
    p = MPoly({(1, 1, 0, 0): Fraction(2, 4)})
    assert dict(p.items()) == {(1, 1, 0, 0): Fraction(1, 2)}
    assert len(p) == 1


def test_outside_input_is_validated():
    with pytest.raises(ValueError):
        MPoly({(1, 2): 1})
    with pytest.raises(ValueError, match=r"\(0, 0, -1, 0\)"):
        MPoly({(0, 0, -1, 0): 1})
    with pytest.raises(ValueError, match=r"\(2, -1, 0, 0\)"):  # refused even with a zero coefficient
        MPoly({(2, -1, 0, 0): 0})
    with pytest.raises(ValueError):
        MPoly({(1, 2, 3): Fraction(1)})
    with pytest.raises(ValueError):
        MPoly({(0, 0, 1.0, 0): 1})


def test_truthiness_is_nonzero():
    assert bool(MPoly.zero()) is False
    assert bool(MPoly({E_X: 0})) is False
    assert bool(X) is True
    assert bool(MPoly({E_ZERO: Fraction(-1, 3)})) is True


def test_integer_terms_build_the_same_polynomial_and_are_checked():
    terms = {(2, 0, 1, 0): 3, (0, 1, 1, 0): -1, (0, 0, 0, 0): 0, (0, 0, 0, 5): 7}
    assert MPoly.from_ints(terms) == MPoly(terms)
    assert MPoly.from_ints({}) == MPoly.zero()
    with pytest.raises(ValueError):
        MPoly.from_ints({(0, 1, -1, 0): 1})
    with pytest.raises(TypeError):
        MPoly.from_ints({(1.0, 0, 0, 0): 1})
    with pytest.raises(TypeError):
        MPoly.from_ints({(1, 2, 3): 1})
    with pytest.raises(TypeError):
        MPoly.from_ints({(1, 0, 0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError, match="32768"):
        MPoly.from_ints({(0, 2**15, 0, 0): 1})


def test_integer_terms_over_a_denominator_are_canonical():
    # The common factor of the numerators and the denominator is divided out.
    terms = {(0, 3, 3, 0): 2, (1, 0, 0, 0): -4}
    assert MPoly.from_ints(terms, 6) == MPoly({e: Fraction(c, 6) for e, c in terms.items()})
    assert MPoly.from_ints({(0, 0, 0, 0): 3}, 3) == MPoly.one()
    assert MPoly.from_ints({(0, 0, 0, 0): 0}, 5) == MPoly.zero()
    for den in (0, -2):
        with pytest.raises(ValueError, match="denominator"):
            MPoly.from_ints({(0, 0, 0, 0): 1}, den)
    with pytest.raises(TypeError):
        MPoly.from_ints({(0, 0, 0, 0): 1}, 2.0)


def test_exponents_out_of_range_raise_and_name_the_exponent():
    # An exponent, or a total degree, of 2^15 would set a guard bit of its
    # packed key: construction refuses it, and a product or a substitution
    # that would reach it raises instead of carrying into the next field.
    with pytest.raises(ValueError, match="32768"):
        MPoly({(0, 0, 2**15, 0): 1})
    with pytest.raises(ValueError, match=r"\(16384, 0, 0, 16384\)"):
        MPoly({(2**14, 0, 0, 2**14): 1})
    top = MPoly({(2**15 - 1, 0, 0, 0): 1})
    assert dict(top.items()) == {(2**15 - 1, 0, 0, 0): 1}
    with pytest.raises(OverflowError, match="32768"):
        top * LAM
    with pytest.raises(OverflowError, match="40000"):
        MPoly.sum_of_products([(1, MPoly({(0, 20000, 0, 0): 1}), MPoly({(0, 20000, 0, 0): 1}))])
    with pytest.raises(OverflowError, match="40000"):
        MPoly({(0, 0, 20000, 0): 1}).substitute({"x": X * Y})
    with pytest.raises(OverflowError):  # far past the field: the degree still tells
        MPoly({(0, 0, 30000, 0): 1}).substitute({"x": Y**3})
    with pytest.raises(OverflowError, match="32768"):
        MPoly({(2**15 - 2, 0, 0, 1): 1}).substitute({"y": X * LAM**2})
    assert (top * 0).substitute({"lambda": LAM**2}) == MPoly.zero()
    assert MPoly({(0, 0, 20000, 0): 1}).substitute({"x": 2}) == 2**20000


# -- multiplication ----------------------------------------------------------


def test_mul_difference_of_squares():
    assert (X + 1) * (X - 1) == X**2 - 1


def test_mul_absorbing_zero():
    p = 3 * LAM * L + X**2
    assert p * MPoly.zero() == MPoly.zero()


def test_mul_lambda_product():
    # (1 - lambda)(1 - 2 lambda), the 3-step falling factorial of 1
    p = (1 - LAM) * (1 - 2 * LAM)
    assert p == 1 - 3 * LAM + 2 * LAM**2


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        X**-1


# -- substitution -------------------------------------------------------------


def test_substitute_lambda_limit():
    p = L**2 * X**2 + (1 - LAM) * L * X
    assert p.substitute({"lambda": 0, "L": 1}) == X**2 + X


def test_substitute_rename():
    assert X.substitute({"x": Y}) == Y
    assert (X**2 * Y).substitute({"x": Y, "y": X}) == Y**2 * X


def test_substitute_empty_is_identity():
    p = LAM * L
    assert p.substitute({}) == p


def test_substitute_unknown_variable():
    with pytest.raises(ValueError):
        X.substitute({"z": X})


def test_a_binding_of_two_terms_raises_and_names_its_variable():
    p = 3 * L * X**3 + LAM * X + 2
    for value in (X + Y, Fraction(1, 2) * LAM - 1):
        with pytest.raises(ValueError, match="'x' has 2 terms"):
            p.substitute({"L": 1, "x": value})


# Every binding, a scalar or one term (c/d)*monomial, is folded into the
# keys and coefficients, with no kernel call.
FOLDED_BINDINGS = [
    {"lambda": 0, "L": 1},
    {"x": Y},
    {"x": X * L},
    {"x": 0, "y": -3},
    {"L": -2 * LAM * X, "lambda": 5},
    {"x": Fraction(-3, 4) * Y, "lambda": Fraction(2, 3), "L": 0},
]


@pytest.mark.parametrize("bindings", FOLDED_BINDINGS)
def test_substitution_matches_the_exact_evaluator_at_seeded_points(bindings, monkeypatch):
    rng = random.Random(26)
    polys = [degenerate_bell(6), L**2 * X**3 - Fraction(5, 7) * LAM * Y + 2]
    for _ in range(6):
        exponents = [tuple(rng.randrange(4) for _ in VARIABLES) for _ in range(8)]
        polys.append(MPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in exponents}))
    points = [{name: Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for name in VARIABLES} for _ in range(4)]
    kernel = MPoly.sum_of_products.__func__
    calls = []

    def counted(cls, terms):
        calls.append(1)
        return kernel(cls, terms)

    monkeypatch.setattr(MPoly, "sum_of_products", classmethod(counted))
    results = [p.substitute(bindings) for p in polys]
    assert not calls
    monkeypatch.undo()
    for p, result in zip(polys, results):
        _assert_canonical(result)
        for vals in points:
            shifted = dict(vals, **{name: _bound_value(value, vals) for name, value in bindings.items()})
            assert eval_exact(result, vals) == eval_exact(p, shifted)


# -- differentiation -----------------------------------------------------------


def test_derivative_power_rule():
    assert (X**3).derivative_x() == 3 * X**2


def test_derivative_bell2_closed_form():
    p = L**2 * X**2 + (1 - LAM) * L * X
    assert p.derivative_x() == 2 * L**2 * X + (1 - LAM) * L


def test_derivative_constant_in_x():
    assert (LAM**5).derivative_x() == MPoly.zero()


# -- exact evaluation ------------------------------------------------------------


def test_eval_bell_number():
    p = X**2 + X
    assert eval_exact(p, {"lambda": 0, "L": 0, "x": 1, "y": 0}) == 2


def test_eval_zero_polynomial():
    assert eval_exact(MPoly.zero(), {"lambda": 5, "L": 7, "x": 9, "y": 11}) == 0


def test_eval_at_root():
    p = 1 - 3 * LAM + 2 * LAM**2
    assert eval_exact(p, {"lambda": Fraction(1, 2), "L": 0, "x": 0, "y": 0}) == 0


def test_eval_requires_all_variables():
    with pytest.raises(ValueError):
        eval_exact(X, {"x": 1})


# -- rendering ----------------------------------------------------------------------


def test_pretty_descending_graded_order():
    assert (X**3 + 3 * X**2 + X).pretty() == "x^3 + 3x^2 + x"
    assert MPoly.zero().pretty() == "0"
    assert (Fraction(1, 2) * X).pretty() == "(1/2)x"
    assert (Fraction(-3, 4) * X**2 + Fraction(5, 2)).pretty() == "-(3/4)x^2 + 5/2"
    p = L**2 * X**2 + (1 - LAM) * L * X
    assert p.pretty() == "L^2x^2 - λLx + Lx"


def pretty_formula(poly):
    """The rendering written out term by term: graded lex order, largest
    first; a coefficient of magnitude 1 is left off a monomial, a fraction
    before a monomial is parenthesised, and the first term carries "-" only."""
    if not poly:
        return "0"
    text = ""
    terms = sorted(dict(poly.items()).items(), key=lambda term: (sum(term[0]), term[0]), reverse=True)
    for exponents, value in terms:
        monomial = "".join(
            f"{name}^{e}" if e > 1 else name for name, e in zip(("λ", "L", "x", "y"), exponents) if e
        )
        size = abs(value)
        magnitude = f"{size.numerator}" if size.denominator == 1 else f"{size.numerator}/{size.denominator}"
        if not monomial:
            body = magnitude
        elif size == 1:
            body = monomial
        elif size.denominator == 1:
            body = magnitude + monomial
        else:
            body = f"({magnitude}){monomial}"
        if not text:
            text = body if value > 0 else "-" + body
        else:
            text += (" + " if value > 0 else " - ") + body
    return text


def test_pretty_equals_the_formula():
    vectors = list(itertools.product(range(4), repeat=4))
    for coeff in (1, -1, 7, Fraction(-3, 4)):
        for exponents in vectors:
            assert mono(*exponents, coeff=coeff).pretty() == pretty_formula(mono(*exponents, coeff=coeff))
    every_vector = MPoly({e: Fraction((-1) ** i * (i % 5), 1 + i % 3) for i, e in enumerate(vectors)})
    cases = [
        every_vector,
        Fraction(3, 2) * LAM * X**2 - Fraction(1, 6) * L + Fraction(5, 3),  # denominator 6
        -(X**3) + 2 * LAM * X - 1,  # negative leading term
        MPoly({E_ZERO: -12}),
        MPoly({E_ZERO: Fraction(7, 9)}),
        MPoly.zero(),
    ]
    for poly in cases:
        assert poly.pretty() == pretty_formula(poly)
    assert [poly.pretty() for poly in cases[1:]] == ["(3/2)λx^2 - (1/6)L + 5/3", "-x^3 + 2λx - 1", "-12", "7/9", "0"]


def over_three(p):
    """`p` with its numerators and denominator tripled: the same value, not in
    canonical form, so every term is read through its gcd with the denominator."""
    q = object.__new__(MPoly)
    q._num, q._den = {key: 3 * coeff for key, coeff in p._num.items()}, 3 * p._den
    return q


def test_integer_terms_read_as_the_same_terms_over_a_denominator():
    # Over the denominator 1 the terms skip the gcd: they must be what the
    # reduction of the same polynomial over 3 gives.
    cases = [
        MPoly.zero(),
        MPoly.one(),
        -(X**3) + 2 * LAM * X - 1,
        MPoly({e: (-1) ** sum(e) * (2**70 + sum(e)) for e in itertools.product(range(3), repeat=4)}),
        L**2 * X**2 + (1 - LAM) * L * X - Fraction(7, 3) * Y,  # over 3: its numerators over 9
    ]
    for p in cases:
        assert list(over_three(p).terms()) == list(p.terms())
        assert over_three(p).pretty() == p.pretty()


def test_json_round_trip_is_byte_identical():
    # The JSON form carries every term exactly: its terms rebuild the
    # polynomial, and the text survives a parse and a dump unchanged.
    p = L**2 * X**2 + (1 - LAM) * L * X - Fraction(7, 3) * Y
    first = json.dumps(p.to_json_obj())
    terms = json.loads(first)
    assert MPoly({tuple(t["pow"][name] for name in VARIABLES): Fraction(t["coeff"]) for t in terms}) == p
    assert json.dumps(terms) == first


def test_json_coefficients_are_fraction_strings():
    obj = (2 * X).to_json_obj()
    assert obj == [{"coeff": "2/1", "pow": {"lambda": 0, "L": 0, "x": 1, "y": 0}}]


# -- ring axioms (randomized) ----------------------------------------------------------


@given("polys", "polys", "polys")
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given("polys", "polys")
def test_mul_commutative(p, q):
    assert p * q == q * p


@given("polys", "polys", "polys")
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given("y_free_polys")
def test_substitute_to_y_then_back_to_x(p):
    assert p.substitute({"x": Fraction(2, 3) * Y}).substitute({"y": Fraction(3, 2) * X}) == p


@given("polys", "polys")
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative_x()
    rhs = p.derivative_x() * q + p * q.derivative_x()
    assert lhs == rhs


@given("polys", "polys", "coeffs")
def test_derivative_linear(p, q, c):
    assert (p + c * q).derivative_x() == p.derivative_x() + c * q.derivative_x()


@given("polys", "polys", "points")
def test_eval_commutes_with_mul(p, q, vals):
    assert eval_exact(p * q, vals) == eval_exact(p, vals) * eval_exact(q, vals)


@given("polys", "monomials", "points")
def test_eval_commutes_with_substitution(p, q, vals):
    substituted = eval_exact(p.substitute({"x": q}), vals)
    shifted = dict(vals)
    shifted["x"] = eval_exact(q, vals)
    assert substituted == eval_exact(p, shifted)


@given("polys", "monomials", "monomials", "points")
def test_simultaneous_substitution_commutes_with_eval(p, q, r, vals):
    substituted = eval_exact(p.substitute({"x": q, "lambda": r, "y": Fraction(1, 3)}), vals)
    shifted = dict(vals, x=eval_exact(q, vals), y=Fraction(1, 3))
    shifted["lambda"] = eval_exact(r, vals)
    assert substituted == eval_exact(p, shifted)


def _bound_value(value, vals):
    return eval_exact(value, vals) if isinstance(value, MPoly) else Fraction(value)


# Bindings to 0, to integers and fractions, and to monomials with and
# without a denominator, mixed within each case: (c/d)^e folds as
# c^e d^(E - e) over d^E.
MIXED_BINDINGS = [
    {"x": Y, "y": X},
    {"x": Y, "y": X, "lambda": LAM * L},
    {"x": X * L, "y": Fraction(1, 2) * X * Y},
    {"lambda": 0, "L": 1},
    {"lambda": 0, "L": 1, "x": Fraction(-5, 3) * X},
    {"y": Fraction(-2, 3), "x": 7 * Y, "L": Fraction(3, 4) * X},
    {"x": 0, "L": 4 * LAM},
    {"lambda": Fraction(1, 2), "y": Fraction(-4, 3), "x": 0, "L": Fraction(-5, 7) * LAM * X**2},
]


@given("polys", "monomials", "points")
def test_mixed_substitution_commutes_with_eval(p, q, vals):
    for bindings in MIXED_BINDINGS + [dict(binding, y=q) for binding in MIXED_BINDINGS]:
        result = p.substitute(bindings)
        _assert_canonical(result)
        shifted = dict(vals, **{name: _bound_value(value, vals) for name, value in bindings.items()})
        assert eval_exact(result, vals) == eval_exact(p, shifted)


# Bit 15 of each of the five 16-bit fields of a packed key.
GUARD_BITS = sum(1 << (16 * field + 15) for field in range(5))


def _assert_canonical(p):
    # Integer numerators over one positive denominator, no zero terms and
    # no common factor, exactly what full validation would produce.  Each
    # key packs its exponents under their total degree with no guard bit
    # set, and the keys sort as the terms' graded lex order.
    assert type(p._den) is int and p._den > 0
    for (key, coeff), (exponents, _) in zip(sorted(p._num.items(), reverse=True), p.items(), strict=True):
        assert type(key) is int and key & GUARD_BITS == 0
        assert all(type(e) is int and e >= 0 for e in exponents)
        assert key == sum(e << shift for e, shift in zip((sum(exponents), *exponents), (64, 48, 32, 16, 0)))
        assert type(coeff) is int and coeff != 0
    assert math.gcd(p._den, *p._num.values()) == 1
    exponents = [e for e, _ in p.items()]
    assert exponents == sorted(exponents, key=lambda e: (sum(e), e), reverse=True)
    assert p == MPoly(dict(p.items()))


@given("polys", "polys", "coeffs")
def test_arithmetic_results_are_canonical(p, q, c):
    # Arithmetic builds its results without re-validating them, so each
    # result must already be what full validation would produce.
    results = [
        p + q,
        p + c,
        p - q,
        p - p,
        c - p,
        -p,
        p * q,
        c * p,
        2 * p,
        p * 0,
        p**0,
        p**3,
        p.derivative_x(),
    ]
    for result in results:
        _assert_canonical(result)
    assert not (p - p)


@given("polys", "polys", "coeffs")
def test_subtraction_equals_adding_the_negated_operand(p, q, c):
    # Subtraction is one kernel pass of its own, not negate-then-add.
    for difference, expected in ((p - q, p + (-1) * q), (c - p, -(p - c)), (3 - p, -(p - 3))):
        assert difference == expected
        _assert_canonical(difference)


# -- the integer representation against plain Fraction dicts --------------------


def _ref_add(a, b, sign=1):
    out = dict(a)
    for exponents, coeff in b.items():
        out[exponents] = out.get(exponents, 0) + sign * coeff
    return {exponents: coeff for exponents, coeff in out.items() if coeff}


def _ref_mul(a, b):
    out = {}
    for exp_a, coeff_a in a.items():
        for exp_b, coeff_b in b.items():
            key = tuple(i + j for i, j in zip(exp_a, exp_b))
            out[key] = out.get(key, 0) + coeff_a * coeff_b
    return {exponents: coeff for exponents, coeff in out.items() if coeff}


@given("polys", "polys", "small_ints")
def test_arithmetic_matches_fraction_reference(p, q, k):
    a, b = dict(p.items()), dict(q.items())
    assert all(type(coeff) is Fraction for coeff in a.values())
    assert dict((p + q).items()) == _ref_add(a, b)
    assert dict((p - q).items()) == _ref_add(a, b, -1)
    assert dict((p * q).items()) == _ref_mul(a, b)
    assert dict((p * (k - 1)).items()) == _ref_mul(a, {E_ZERO: Fraction(k - 1)})
    power = {E_ZERO: Fraction(1)}
    for _ in range(k):
        power = _ref_mul(power, a)
    assert dict((p**k).items()) == power


@given("polys", "polys", "nonzero_coeffs")
def test_equal_polynomials_hash_equal(p, q, c):
    routes = [
        MPoly(dict(p.items())),
        (p + q) - q,
        (p * c) * (1 / c),
        q * p - p * q + p,
        p.substitute({"y": Y}),
    ]
    for route in routes:
        assert route == p
        assert hash(route) == hash(p)


# -- the multiply-accumulate kernel -----------------------------------------------


@given(
    "triples",
    examples=[
        ([],),
        ([(0, MPoly({E_ZERO: Fraction(1, 3)}), X)],),
        ([(1, X, MPoly.one()), (1, MPoly({E_ZERO: Fraction(1, 2)}), X)],),
        ([(2, X, Y + Fraction(1, 4)), (-1, 2 * X, Y + Fraction(1, 4))],),
        ([(3, 2 * LAM, X + Y + L), (-5, X + Y + L, 2 * LAM)],),
        ([(7, X + Fraction(1, 2) * Y + LAM, L), (-2, L * X, MPoly({E_ZERO: Fraction(1, 3)}) + LAM)],),
    ],
)
def test_sum_of_products_matches_the_naive_loop(terms):
    # Mixed denominators (the common one must grow and the sum so far be
    # rescaled), cancellation to zero, the empty sum and c = 0, against a
    # reference over exponent tuples and Fractions that shares no code with
    # the kernel.  The kernel loops over the shorter factor first, so the
    # examples also put a one-term factor first and second, with c not in
    # {0, 1, -1}, and a denominator on the longer factor alone.
    naive = {}
    for c, a, b in terms:
        for exponents, coeff in _ref_mul(dict(a.items()), dict(b.items())).items():
            naive[exponents] = naive.get(exponents, 0) + c * coeff
    result = MPoly.sum_of_products(iter(terms))
    _assert_canonical(result)
    assert dict(result.items()) == {exponents: coeff for exponents, coeff in naive.items() if coeff}
    cancelled = MPoly.sum_of_products(terms + [(-c, a, b) for c, a, b in terms])
    _assert_canonical(cancelled)
    assert not cancelled


def kernel_scaling_one_orientation_only():
    """The kernel compiled from its source to apply c only when it does not
    swap its factors, which it does when the second is the shorter."""
    return compiled_with(MPoly.sum_of_products, "coeff_o *= c", "coeff_o *= c if outer is a._num else 1")


def test_kernel_check_fails_on_a_kernel_that_scales_one_orientation_only(monkeypatch):
    pytest.importorskip("hypothesis")
    monkeypatch.setattr(MPoly, "sum_of_products", kernel_scaling_one_orientation_only())
    assert MPoly.sum_of_products([(3, X, X + Y)]) == 3 * X * X + 3 * X * Y  # not swapped: right
    assert MPoly.sum_of_products([(3, X + Y, X)]) == X * X + X * Y  # swapped: c is lost
    with pytest.raises(AssertionError):
        test_sum_of_products_matches_the_naive_loop()
