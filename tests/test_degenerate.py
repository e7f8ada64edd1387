"""Closed-form constructor and identity-verifier tests.

Hand values below were derived from the small Stirling tables
(S1(2,1) = -1, S1(3,2) = -3, S2(3,2) = 3, ...) and cross-checked against
the series oracle, which expands the defining generating function and
imports nothing from this module or from `classical`, so it shares no
code path with the closed forms; the composita closed form's own tests
against the series powers are in `test_series.py`.
"""

from fractions import Fraction

import pytest

from degenbell import degenerate
from degenbell.classical import falling_factorials
from degenbell.degenerate import (
    VerificationReport,
    binomial_convolution,
    composition_coefficient,
    dbell_classical_bell_table,
    dbell_composita_table,
    dbell_recurrence_table,
    dbell_via_stirling_pair,
    degenerate_bell,
    degenerate_stirling2,
    limit_lambda_zero,
    sweep_identity,
    verify_addition,
    verify_derivative,
)
from degenbell.poly import L, LAM, MPoly, X
from degenbell.series import (
    degenerate_exp_minus_one,
    oracle_degenerate_bell_table,
    oracle_degenerate_stirling2_table,
    series_mul,
)

TABLES = (dbell_classical_bell_table, dbell_composita_table, dbell_recurrence_table)

BEL2 = L**2 * X**2 + (1 - LAM) * L * X
BEL3 = (1 - 3 * LAM + 2 * LAM**2) * L * X + (3 - 3 * LAM) * L**2 * X**2 + L**3 * X**3


# -- degenerate Stirling closed form ------------------------------------------


def test_degenerate_stirling_hand_values():
    assert degenerate_stirling2(2, 1) == 1 - LAM
    assert degenerate_stirling2(3, 2) == 3 - 3 * LAM
    for n in range(9):
        assert degenerate_stirling2(n, n) == MPoly.one()


def test_degenerate_stirling_rejects_m_above_n():
    with pytest.raises(ValueError):
        degenerate_stirling2(1, 2)


def test_degenerate_stirling_matches_oracle():
    rows = oracle_degenerate_stirling2_table(12)
    for n in range(13):
        for m in range(n + 1):
            assert degenerate_stirling2(n, m) == rows[n][m]


# -- constructors ---------------------------------------------------------------


def test_stirling_pair_form_small():
    assert dbell_via_stirling_pair(0) == MPoly.one()
    assert dbell_via_stirling_pair(1) == L * X
    assert dbell_via_stirling_pair(2) == BEL2


def test_canonical_form_small():
    assert degenerate_bell(0) == MPoly.one()
    assert degenerate_bell(2) == BEL2
    assert degenerate_bell(3) == BEL3


def test_classical_bell_form_small():
    assert dbell_classical_bell_table(3) == [MPoly.one(), L * X, BEL2, degenerate_bell(3)]


def test_classical_bell_table_rejects_negative_order():
    # The expansion is stated for n >= 1; its table starts from Bel_0 = 1,
    # so n_max = 0 gives that row alone and only a negative bound is refused.
    assert dbell_classical_bell_table(0) == [MPoly.one()]
    for table in TABLES:
        with pytest.raises(ValueError):
            table(-1)


def test_composita_form_small():
    assert dbell_composita_table(2) == [MPoly.one(), L * X, BEL2]


def test_composita_reads_its_falling_factorials_from_the_one_row_builder(monkeypatch):
    # One falling_factorials(j, n_max) row for each j = 1..n_max, and no
    # factor (j - (n-1) lambda) built beside them.
    calls = []

    def counted(z, n):
        calls.append((z, n))
        return falling_factorials(z, n)

    monkeypatch.setattr(degenerate, "falling_factorials", counted)
    assert dbell_composita_table(6) == [degenerate_bell(n) for n in range(7)]
    assert calls == [(j, 6) for j in range(1, 7)]


def test_composita_normalization_control():
    # The ordinary composition coefficient is the exponential value divided
    # by n!; keeping it unscaled must NOT reproduce the degree-2 polynomial.
    a2 = composition_coefficient(2, [falling_factorials(j, 2)[2] for j in (1, 2)])
    assert a2 != degenerate_bell(2)
    assert a2 * 2 == degenerate_bell(2)


def test_recurrence_form_small():
    assert dbell_recurrence_table(3) == [MPoly.one(), L * X, BEL2, degenerate_bell(3)]


def test_six_way_equality_small():
    oracle = oracle_degenerate_bell_table(oracle_degenerate_stirling2_table(8))
    classical, composita, recurrence = (table(8) for table in TABLES)
    for n in range(9):
        assert dbell_via_stirling_pair(n) == oracle[n]
        assert degenerate_bell(n) == oracle[n]
        assert composita[n] == oracle[n]
        assert recurrence[n] == oracle[n]
        if n >= 1:
            assert classical[n] == oracle[n]


def test_tables_are_prefixes_of_each_other():
    # Row n does not depend on how far the table runs.
    for table in TABLES:
        full = table(8)
        assert len(full) == 9
        for n_max in range(9):
            assert table(n_max) == full[: n_max + 1]


def test_binomial_convolution_small():
    a = [MPoly.one(), X, X**2]
    b = [MPoly.one(), LAM, LAM**2]
    assert binomial_convolution(a, b, 0) == MPoly.one()
    # (x + lambda)^2, term by term
    assert binomial_convolution(a, b, 2) == LAM**2 + 2 * X * LAM + X**2


def test_sums_of_products_build_no_partial_sums(monkeypatch):
    # Each sum goes through MPoly.sum_of_products, which adds every product
    # into one map, so no partial sum becomes a polynomial through +.
    bells = [degenerate_bell(n) for n in range(7)]
    f = degenerate_exp_minus_one(6)
    expected = (binomial_convolution(bells, bells, 6), series_mul(f, f))
    add = MPoly.__add__
    calls = []

    def counting_add(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(MPoly, "__add__", counting_add)
    assert (binomial_convolution(bells, bells, 6), series_mul(f, f)) == expected
    assert calls == []


def test_structural_shape():
    for n in range(1, 11):
        terms = dict(degenerate_bell(n).items())
        assert (0, 0, 0, 0) not in terms
        assert max(exps[2] for exps in terms) == n
        # every term pairs L and x with equal exponents
        assert all(exps[1] == exps[2] for exps in terms)


# -- limits ----------------------------------------------------------------------


def test_limit_small():
    assert limit_lambda_zero(degenerate_bell(0)) == MPoly.one()
    assert limit_lambda_zero(degenerate_bell(2)) == X**2 + X
    assert limit_lambda_zero(degenerate_stirling2(3, 2)) == MPoly.one() * 3


# -- verifiers ---------------------------------------------------------------------


BELLS = [degenerate_bell(n) for n in range(11)]


def test_addition_report_passes():
    report = verify_addition(BELLS)
    assert report.passed
    assert report.first_failure is None
    assert report.n_range == (0, 10)


def test_derivative_report_passes():
    report = verify_derivative(BELLS)
    assert report.passed
    assert report.n_range == (1, 10)


def test_sweep_reports_first_failure():
    sides = ((n, MPoly.one() * n, MPoly.one() * (n + (n == 3))) for n in range(6))
    report = sweep_identity("broken", 0, 5, sides)
    assert not report.passed
    assert report.first_failure is not None
    n, lhs, rhs = report.first_failure
    assert n == 3
    assert lhs == MPoly.one() * 3
    assert rhs == MPoly.one() * 4


def test_sweep_reads_no_triple_past_the_first_failure():
    def triples():
        yield 0, X, X
        yield 1, X, X + 1
        raise AssertionError("the sweep read past its first failure")

    report = sweep_identity("lazy", 0, 5, triples())
    assert not report.passed
    assert report.first_failure == (1, X, X + 1)


@pytest.mark.parametrize(
    "ns, lo, hi, missing",
    [
        ([0, 2, 3], 0, 3, 1),  # one n skipped
        ([0, 1, 2], 0, 5, 3),  # the triples stop short
        ([1, 2, 3], 0, 3, 0),  # the first n never read
        ([0, 1, 2, 3], 0, 2, 3),  # one n past hi
        ([0, 1, 1, 0], 0, 2, 2),  # an n read again after a later one
        ([1], 1, 0, 1),  # a triple in an empty range
    ],
)
def test_sweep_fails_where_its_ns_leave_the_range(ns, lo, hi, missing):
    # Every triple agrees, so only the n's can fail the report, at the
    # first n where they leave lo..hi, with neither side read there.
    report = sweep_identity("gappy", lo, hi, ((n, X, X) for n in ns))
    assert report.first_failure == (missing, None, None)
    failure = report.to_json_obj()["first_failure"]
    assert failure == {"n": missing, "lhs": None, "rhs": None}


def test_sweep_reads_consecutive_triples_of_one_n():
    sides = [(0, X, X), (1, X, X), (1, LAM, LAM), (2, X, X), (2, L, L)]
    assert sweep_identity("rows", 0, 2, iter(sides)).passed
    assert sweep_identity("empty", 1, 0, iter([])).passed
    assert sweep_identity("rows", 0, 2, iter(sides[:-1] + [(2, L, X)])).first_failure == (2, L, X)


def test_report_passed_is_derived_from_its_failure():
    failing = VerificationReport("bad", (0, 1), (0, MPoly.one(), MPoly.zero()))
    assert not failing.passed
    assert failing.to_json_obj()["passed"] is False
    assert VerificationReport("good", (0, 1)).passed


def test_report_json_schema():
    obj = verify_addition(BELLS[:4]).to_json_obj()
    assert obj == {"identity": "addition", "range": [0, 3], "passed": True, "first_failure": None}

    failing = sweep_identity("broken", 1, 2, ((n, X, X + 1) for n in range(1, 3)))
    fail_obj = failing.to_json_obj()
    assert fail_obj["passed"] is False
    assert fail_obj["first_failure"]["n"] == 1
    assert isinstance(fail_obj["first_failure"]["lhs"], list)
