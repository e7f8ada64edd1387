"""Floating-point checks: closed-form evaluation, the truncated
Dobinski-type series, the scaled two-sided series identity, and the
lambda -> 0 sweep."""

import csv
import io
import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from degenbell import cli
from degenbell.classical import bell_polynomial, stirling_rows
from degenbell.degenerate import dbell_via_stirling_pair, degenerate_bell
from degenbell.numeric import (
    NumericCheck,
    classical_dobinski_check,
    dobinski_check,
    dobinski_classical,
    dobinski_degenerate,
    eval_bel_numeric,
    grid_checks,
    _check_x,
    _falling_row,
    _falling_rows,
    _power_columns,
    _scaled_inner_row,
    _weighted_sum,
    _weights,
)
from references import compiled_with, eval_exact, scaled_bell_series_check

GRID_LAMBDAS = (0.1, 0.5, 1.0)
GRID_XS = (0.5, 1.0, 2.0)
NON_FINITE_POINTS = [(math.inf, 1.0), (math.nan, 1.0), (0.5, math.inf), (0.5, -math.inf), (0.5, math.nan)]
NON_FINITE_MESSAGE = r"^(lambda must lie in|x must be finite)"


# -- closed-form evaluation -----------------------------------------------------


def test_eval_degree_one():
    assert eval_bel_numeric(1, 0.5, 1.0) == pytest.approx(math.log(1.5) / 0.5, abs=1e-12)


def test_eval_degree_zero_is_one():
    for lam in (0.25, 0.7, 3.0, -0.5):
        assert eval_bel_numeric(0, lam, 3.2) == 1.0


def test_eval_degree_two():
    big_l = math.log(1.5) / 0.5
    expected = big_l**2 + 0.5 * big_l
    assert eval_bel_numeric(2, 0.5, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, -1.0, -1.5])
def test_eval_rejects_bad_lambda(lam):
    with pytest.raises(ValueError):
        eval_bel_numeric(2, lam, 1.0)


def test_eval_matches_exact_value_through_L():
    # Reference: substitute lambda = 1/2, x = 1 exactly, reducing to a
    # univariate polynomial in L, then bind the float L once.
    big_l = math.log1p(0.5) / 0.5
    for n in range(9):
        reduced = degenerate_bell(n).substitute({"lambda": Fraction(1, 2), "x": 1, "y": 0})
        reference = math.fsum(float(c) * big_l ** e[1] for e, c in reduced.items())
        value = eval_bel_numeric(n, 0.5, 1.0)
        assert value == pytest.approx(reference, rel=1e-12, abs=1e-12)


def _substituted_eval(poly, lam, x):
    """The evaluator as it stood before the integer sums: bind lambda and
    x exactly in the polynomial degenerate_bell(n) with `substitute`,
    round each coefficient of L^m, one Horner pass in L."""
    big_l = math.log1p(lam) / lam
    reduced = poly.substitute({"lambda": Fraction(lam), "x": Fraction(x), "y": 0})
    by_power = {exps[1]: coeff for exps, coeff in reduced.items()}
    value = 0.0
    for power in range(max(by_power, default=0), -1, -1):
        value = value * big_l + float(by_power.get(power, 0))
    return value


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except OverflowError as exc:
        return type(exc).__name__


def test_eval_matches_substituted_polynomial_bytes():
    # The whole cross grid for n <= 8, then one seeded point for each n up
    # to 40 (the reference costs about 0.3 s a point at n = 40).
    rng = random.Random(20150708)
    lambdas = [rng.uniform(-0.95, 2.0) for _ in range(3)] + [-0.9, -0.5, -0.999999, 1e-8, 100.0]
    xs = [0.0, -1.5, 1e-300, 1e10, 1e200, rng.uniform(0.1, 5.0), -3.7e-5]
    for n in range(41):
        points = [(lam, x) for lam in lambdas for x in xs] if n <= 8 else [(rng.choice(lambdas), rng.choice(xs))]
        poly = degenerate_bell(n)
        for lam, x in points:
            expected = _outcome(_substituted_eval, poly, lam, x)
            assert _outcome(eval_bel_numeric, n, lam, x) == expected, (n, lam, x)


def _per_entry_eval(n, lam, x):
    """The evaluator as it stood before it summed one stirling2 row at a
    time: the same integer N_m, summed one column m at a time."""
    big_l = math.log1p(lam) / lam
    p, q = Fraction(lam).as_integer_ratio()
    r, s = Fraction(x).as_integer_ratio()
    s1, s2 = stirling_rows(n)
    weights = [s1[n][k] * p ** (n - k) * q**k for k in range(n + 1)]
    q_n = q**n
    value = 0.0
    for m in range(n, -1, -1):
        exact = sum(weights[k] * s2[k][m] for k in range(m, n + 1))
        value = value * big_l + exact * r**m / (q_n * s**m)
    return value


def _outcome_text(fn, *args):
    try:
        return repr(fn(*args))
    except OverflowError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_eval_matches_per_entry_stirling_sums():
    # The whole cross grid up to n = 40: the same float, or the same
    # overflow message, at every point.
    rng = random.Random(20151014)
    lambdas = [rng.uniform(-0.95, 2.0) for _ in range(3)] + [-0.9, -0.5, -0.999999, 1e-8, 3.0, 100.0]
    xs = [0.0, -1.5, 1e-300, 1e10, 1e200, -3.7e-5, 2.0]
    for n in range(41):
        for lam in lambdas:
            for x in xs:
                expected = _outcome_text(_per_entry_eval, n, lam, x)
                assert _outcome_text(eval_bel_numeric, n, lam, x) == expected, (n, lam, x)


@pytest.mark.parametrize("lam, x", NON_FINITE_POINTS)
def test_eval_rejects_non_finite_input(lam, x):
    with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
        eval_bel_numeric(3, lam, x)


def test_eval_rejects_negative_degree():
    with pytest.raises(ValueError):
        eval_bel_numeric(-1, 0.5, 1.0)


# -- degenerate Dobinski series ----------------------------------------------------


def test_dobinski_degree_zero_telescopes():
    assert dobinski_degenerate(0, 0.5, 1.0, 80) == pytest.approx(1.0, abs=1e-9)


def test_dobinski_agrees_with_closed_form():
    assert dobinski_degenerate(2, 0.5, 1.0, 80) == pytest.approx(
        eval_bel_numeric(2, 0.5, 1.0), abs=1e-9
    )
    assert dobinski_degenerate(8, 0.1, 2.0, 80) == pytest.approx(
        eval_bel_numeric(8, 0.1, 2.0), abs=1e-9
    )


def test_dobinski_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dobinski_degenerate(2, 0.0, 1.0, 80)
    with pytest.raises(ValueError):
        dobinski_degenerate(2, 0.5, 1.0, 0)
    with pytest.raises(ValueError):
        dobinski_degenerate(-1, 0.5, 1.0, 80)


@pytest.mark.parametrize("lam, x", NON_FINITE_POINTS)
def test_dobinski_rejects_non_finite_input(lam, x):
    with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
        dobinski_degenerate(3, lam, x)


@pytest.mark.parametrize("lam, x, terms", [(0.5, 1e10, 80), (100.0, 1e10, 300)])
def test_dobinski_overflow_raises(lam, x, terms):
    # The weights (x L)^l / l! leave the float range: unchecked, the sum
    # is nan or fsum meets inf - inf.
    with pytest.raises(OverflowError, match="Dobinski series term"):
        dobinski_degenerate(3, lam, x, terms)


def test_dobinski_truncation_error_shrinks():
    # More terms never hurt, at every grid point.  Once the truncation
    # error sinks below the rounding floor the compared sums can differ in
    # their final ulp, so monotonicity is asserted up to that floor.
    for n in range(9):
        for lam in GRID_LAMBDAS:
            for x in GRID_XS:
                closed = eval_bel_numeric(n, lam, x)
                slack = 4 * math.ulp(max(1.0, abs(closed)))
                errors = [abs(dobinski_degenerate(n, lam, x, t) - closed) for t in (20, 40, 80)]
                assert errors[2] <= errors[1] + slack
                assert errors[1] <= errors[0] + slack


def test_dobinski_check_record():
    check = dobinski_check(3, 0.5, 1.0)
    assert check.passed
    assert check.passed == (check.abs_error <= check.tol)
    assert check.identity_name == "dobinski_degenerate"


@pytest.mark.parametrize("lam, x", NON_FINITE_POINTS)
def test_dobinski_check_rejects_non_finite_input(lam, x):
    with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
        dobinski_check(3, lam, x)


# -- classical Dobinski --------------------------------------------------------------


def test_classical_dobinski_bell_numbers():
    for n, bell in enumerate([1, 1, 2, 5, 15, 52]):
        assert dobinski_classical(n, 60) == pytest.approx(bell, abs=1e-9)


def test_classical_dobinski_check_record():
    check = classical_dobinski_check(4, 60)
    assert check.passed
    assert check.lam is None and check.x is None
    assert check.rhs == 15.0


# -- scaled two-sided series -----------------------------------------------------------


def test_scaled_series_degree_zero():
    check = scaled_bell_series_check(0, 0.5, 1.0, 80, 1e-9)
    assert check.abs_error < 1e-12
    assert check.passed


def test_scaled_series_grid_points():
    assert scaled_bell_series_check(2, 0.5, 1.0, 80, 1e-9).passed
    assert scaled_bell_series_check(6, 1.0, 0.5, 80, 1e-9).passed


def test_scaled_series_rejects_bad_lambda():
    with pytest.raises(ValueError):
        scaled_bell_series_check(2, -1.0, 1.0)


@pytest.mark.parametrize("lam, x", NON_FINITE_POINTS)
def test_scaled_series_rejects_non_finite_input(lam, x):
    with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
        scaled_bell_series_check(3, lam, x)


@pytest.mark.parametrize(
    "check, x, message",
    [
        (dobinski_degenerate, -800.0, "Dobinski series sum overflows"),
        (scaled_bell_series_check, -1e10, r"scaled series term \d+ overflows"),
        (scaled_bell_series_check, 1e10, "scaled series left side overflows"),
    ],
)
def test_series_overflow_names_what_left_float_range(check, x, message):
    # Out of range in three places: exp(-x L) times the Dobinski sum, a
    # term of the alternating scaled series, and exp(x L) on its left side.
    with pytest.raises(OverflowError, match=message):
        check(3, 0.5, x)


@pytest.mark.parametrize("n_max, lam", [(145, 2.0), (155, 0.5), (170, 0.5)])
def test_grid_names_the_inner_row_that_left_float_range(n_max, lam):
    # The products k^l lambda^(n-l) stirling1(n, l) reach inf and -inf in one
    # entry, where fsum would raise ValueError('-inf + inf in fsum'); from
    # n = 162, 80.0 ** n itself raises a bare OverflowError.
    with pytest.raises(OverflowError, match="^scaled series inner row overflows$"):
        grid_checks(n_max, [lam], [1.0], 80, 1e-9)


def falling_loop(n, lam, terms):
    """The falling row (l | lambda)_n for l = 0..terms as the per-point loop
    built it, one product per l."""
    falling = []
    for l in range(terms + 1):
        out = 1.0
        for i in range(n):
            out *= float(l) - i * lam
        falling.append(out)
    return falling


def test_rows_match_their_defining_loops():
    # The per-point loops the rows replaced, as written: the same float
    # operations in the same order, so the same bits, out to the n = 30
    # rows that `eval --n 30 --dobinski` grows.
    rng = random.Random(20150708)
    for lam in [-0.5, 0.1, 3.0] + [rng.uniform(-0.95, 2.0) for _ in range(3)]:
        grown = _falling_rows(lam, 80)
        for n in range(31):
            falling = falling_loop(n, lam, 80)
            s1 = stirling_rows(n)[0][n]
            inner = [
                math.fsum(float(k) ** l * lam ** (n - l) * s1[l] for l in range(n + 1))
                for k in range(81)
            ]
            assert list(map(repr, next(grown))) == list(map(repr, falling))
            assert list(map(repr, _scaled_inner_row(n, lam, _power_columns(n, 80)))) == list(map(repr, inner))


def check_falling_row_equals_the_grown_row(falling_row, settings):
    """`falling_row(n, lam, terms)` is row n of `_falling_rows(lam, terms)`,
    repr for repr: every bit, the sign of a zero and a NaN where it has one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lams = (
        st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True)
        | st.floats(0.0, 1e3, exclude_min=True)
        | st.sampled_from([1e-300, 1e300, 1 / 3, -0.999999])
    )

    @settings
    @hypothesis.given(st.integers(0, 250), lams, st.sampled_from([1, 2, 80, 200]))
    @hypothesis.example(30, 0.37, 80)
    @hypothesis.example(15, -0.8657113526943148, 80)
    def check(n, lam, terms):
        grown = next(islice(_falling_rows(lam, terms), n, None))
        assert list(map(repr, falling_row(n, lam, terms))) == list(map(repr, grown))

    check()


def test_one_falling_row_equals_the_grown_row():
    # `eval --dobinski` forms its one row by products in C, the grid grows
    # every row: both multiply the same factors in the same order from 1.0.
    hypothesis = pytest.importorskip("hypothesis")
    check_falling_row_equals_the_grown_row(_falling_row, hypothesis.settings(max_examples=300, deadline=None))


def test_falling_row_property_fails_on_reversed_factors():
    hypothesis = pytest.importorskip("hypothesis")
    mutant = compiled_with(_falling_row, "for i in range(n)]", "for i in reversed(range(n))]")
    settings = hypothesis.settings(max_examples=300, deadline=None, database=None, report_multiple_bugs=False)
    with pytest.raises(AssertionError):
        check_falling_row_equals_the_grown_row(mutant, settings)


def test_grid_pass_equals_the_per_point_checks():
    # The one pass over drawn lambda and x lists, with negative values and
    # signed zeros, against the public per-point functions, repr for repr.
    # The pass and the one-off rows grow the falling rows the same way, so
    # the drawn rows are also held to the loop as written.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lams = st.floats(-0.95, -0.05) | st.floats(0.05, 3.0)
    xs = st.floats(-40.0, 40.0) | st.sampled_from([0.0, -0.0])

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        st.integers(0, 12),
        st.lists(lams, min_size=1, max_size=3),
        st.lists(xs, min_size=1, max_size=3),
        st.sampled_from([1, 2, 80]),
    )
    @hypothesis.example(12, [-0.7, 0.5], [-0.0, 0.0, -3.5], 80)
    def check(n_max, lam_list, x_list, terms):
        expected = []
        for n in range(n_max + 1):
            for lam in lam_list:
                for x in x_list:
                    expected.append(dobinski_check(n, lam, x, terms, 1e-9))
                    expected.append(scaled_bell_series_check(n, lam, x, terms, 1e-9))
        got = grid_checks(n_max, lam_list, x_list, terms, 1e-9)
        assert list(map(repr, got)) == list(map(repr, expected))
        for lam in lam_list:
            for n, row in zip(range(n_max + 1), _falling_rows(lam, terms)):
                assert list(map(repr, row)) == list(map(repr, falling_loop(n, lam, terms))), (n, lam)

    check()


def weighted_sum_loop(xl, row, series):
    """The per-term loop the weight rows replaced, as written."""
    weight = 1.0
    partials = []
    for k, value in enumerate(row):
        if k:
            weight *= xl / k
        term = weight * value
        if not math.isfinite(term):
            raise OverflowError(f"{series} term {k} overflows")
        partials.append(term)
    return math.fsum(partials)


def outcome(f, *args):
    try:
        return repr(f(*args))
    except (OverflowError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_weighted_sum_matches_its_defining_loop():
    # A row of weights, and the search for a term out of range made only
    # when the sum is not finite: the same value or the same error, with
    # 0.0 and -0.0 and an fsum that overflows on finite terms.
    rows = [
        (1.0, -2.0, 3.5, 0.25),
        (-0.0, 0.0, -0.0),
        (1e308, 1e308),
        (1e308, 1e308, math.inf),
        (math.inf, -math.inf),
        (1.0, math.nan),
        (1e300,) * 40,
        (2.0, 1e308, 1e308, -math.inf),
    ]
    for xl in (0.0, -0.0, 1.0, -2.5, 300.0, 1e300, math.inf):
        for row in rows:
            weights = _weights(xl, len(row) - 1)
            assert outcome(_weighted_sum, weights, row, "S") == outcome(weighted_sum_loop, xl, row, "S"), (xl, row)



def closed_form_left_side(n, lam, x):
    """exp(x L) times the float terms of dbell_via_stirling_pair(n), as the
    scaled series' left side was evaluated from the polynomial."""
    big_l = math.log1p(lam) / lam
    point = (lam, big_l, x)
    terms = [(exps, float(coeff)) for exps, coeff in dbell_via_stirling_pair(n).items()]
    return math.exp(x * big_l) * math.fsum(
        coeff * math.prod(v**e for v, e in zip(point, exps) if e) for exps, coeff in terms
    )


def test_scaled_series_left_side_matches_the_closed_form_polynomial():
    # The left side reads the integer Stirling rows, not the polynomial: the
    # same float products, summed by fsum in another order, so the same bits.
    for n in range(13):
        for lam in (-0.5, 0.1, 1.0, 3.0):
            for x in (-50.0, 0.5, 2.0):
                lhs = scaled_bell_series_check(n, lam, x).lhs
                assert repr(lhs) == repr(closed_form_left_side(n, lam, x)), (n, lam, x)
    # x^2 is out of float range in a term of the closed form itself.
    with pytest.raises(OverflowError):
        closed_form_left_side(2, 0.5, -1e300)
    with pytest.raises(OverflowError, match="scaled series left side overflows"):
        scaled_bell_series_check(2, 0.5, -1e300)


def test_classical_dobinski_reads_the_bell_number_off_the_stirling_row():
    point = {"lambda": 0, "L": 1, "x": 1, "y": 0}
    for n in range(31):
        assert classical_dobinski_check(n).rhs == float(eval_exact(bell_polynomial(n), point))

# -- limit sweep -------------------------------------------------------------------------


def limit_sweep(n, x, lambdas, tol_scale=100.0):
    """Compare the degenerate value against the classical Bell polynomial
    for each lambda; the deviation is first order in lambda, so each point
    gets the tolerance tol_scale * |lambda|.  The package proves the
    lambda -> 0 limit exactly (the classical_limit report); this float
    sweep shows the approach to it."""
    _check_x(x)
    classical = bell_polynomial(n)
    target = math.fsum(float(coeff) * x ** exps[2] for exps, coeff in classical.items())
    return [
        NumericCheck(
            "classical_limit_sweep", n, lam, x, 0, eval_bel_numeric(n, lam, x), target, tol_scale * abs(lam)
        )
        for lam in lambdas
    ]


def test_limit_sweep_close_to_classical():
    (check,) = limit_sweep(3, 1.0, [1e-6])
    assert abs(check.lhs - 5.0) < 1e-4
    assert check.passed


def test_limit_sweep_degree_zero_exact():
    for check in limit_sweep(0, 1.0, [1e-2, 0.5, 2.0]):
        assert check.abs_error == 0.0


def test_limit_sweep_strictly_decreasing():
    checks = limit_sweep(4, 1.0, [1e-2, 1e-4, 1e-6])
    errors = [c.abs_error for c in checks]
    assert errors[0] > errors[1] > errors[2]
    assert checks[-1].rhs == 15.0


@pytest.mark.parametrize("lam, x", NON_FINITE_POINTS)
def test_limit_sweep_rejects_non_finite_input(lam, x):
    with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
        limit_sweep(3, x, [lam])


def csv_cells(check):
    """The cells of the CLI's CSV row for `check`, as a CSV reader reads them."""
    _, row = csv.reader(io.StringIO(cli._csv_text([cli._csv_row(check.to_json_obj())], cli.CSV_HEADER)))
    return row


def test_numeric_check_passed_invariant():
    check = NumericCheck("demo", 1, 0.5, 1.0, 10, 1.0, 1.5, 0.1)
    assert check.abs_error == 0.5
    assert not check.passed
    row = csv_cells(check)
    assert row[0] == "demo"
    assert len(row) == 9


def test_numeric_check_with_nan_side_fails():
    check = NumericCheck("demo", 1, 0.5, 1.0, 10, math.nan, 1.5, 0.1)
    assert math.isnan(check.abs_error)
    assert not check.passed
    assert '"abs_error": NaN,' in cli._json_text(check.to_json_obj())


def test_numeric_check_error_equal_to_tol_passes():
    check = NumericCheck("demo", 1, 0.5, 1.0, 10, 1.0, 1.5, 0.5)
    assert check.abs_error == check.tol
    assert check.passed


@pytest.mark.parametrize("lhs, rhs", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
def test_numeric_check_negative_zero_behaves_as_zero(lhs, rhs):
    check = NumericCheck("demo", 1, 0.5, 1.0, 10, lhs, rhs, 1e-300)
    assert repr(check.abs_error) == "0.0"
    assert check.passed
    assert check.to_json_obj()["abs_error"] == 0.0
    assert csv_cells(check)[7] == "0.0"
