"""The oracle sweeps can fail: a constructor perturbed by one term at a
single n makes its report FAIL with that n as the first failure.  The
float grid's shared rows give the per-point checks bit for bit, are built
once, and can fail."""

import pytest

from degenbell import numeric, suite
from degenbell.numeric import classical_dobinski_check, dobinski_check, scaled_bell_series_check
from degenbell.poly import LAM, X
from degenbell.series import oracle_degenerate_stirling2_table

PERTURBATION = LAM * X**2
ORACLE_ROWS = oracle_degenerate_stirling2_table(6)


@pytest.mark.parametrize(
    "identity, constructor",
    [
        ("stirling_pair_vs_oracle", "dbell_via_stirling_pair"),
        ("degenerate_stirling_sum_vs_oracle", "degenerate_bell"),
        ("classical_bell_expansion_vs_oracle", "dbell_via_classical_bell"),
        ("composita_vs_oracle", "dbell_via_composita"),
        ("recurrence_vs_oracle", "dbell_via_recurrence"),
    ],
)
def test_perturbed_constructor_fails_at_its_n(monkeypatch, identity, constructor):
    k = 4
    original = getattr(suite, constructor)
    monkeypatch.setattr(
        suite, constructor, lambda n: original(n) + PERTURBATION if n == k else original(n)
    )
    reports = {report.identity_name: report for report in suite.constructor_reports(ORACLE_ROWS)}
    assert len(reports) == 5
    for name, report in reports.items():
        if name == identity:
            assert not report.passed
            n, lhs, rhs = report.first_failure
            assert n == k
            assert lhs - rhs == PERTURBATION
        else:
            assert report.passed


def test_perturbed_degenerate_stirling_fails_at_its_n(monkeypatch):
    original = suite.degenerate_stirling2
    monkeypatch.setattr(
        suite,
        "degenerate_stirling2",
        lambda n, m: original(n, m) + LAM if (n, m) == (5, 2) else original(n, m),
    )
    report = suite.degenerate_stirling_report(ORACLE_ROWS)
    assert not report.passed
    n, lhs, rhs = report.first_failure
    assert n == 5
    assert lhs - rhs == LAM
    assert lhs == original(5, 2) + LAM


def test_unperturbed_oracle_sweeps_pass():
    assert all(report.passed for report in suite.constructor_reports(ORACLE_ROWS))
    assert suite.degenerate_stirling_report(ORACLE_ROWS).passed


@pytest.mark.parametrize("n_max", [0, 1, 8])
@pytest.mark.parametrize("terms", [1, 2, 80])
def test_numeric_checks_equal_per_point_checks(n_max, terms):
    # Each check with the shared rows against the public function building
    # its own rows, repr for repr, so every float must match in every bit.
    tol = 1e-9
    expected = []
    for n in range(min(n_max, suite.NUMERIC_N_CAP) + 1):
        for lam in suite.GRID_LAMBDAS:
            for x in suite.GRID_XS:
                expected.append(dobinski_check(n, lam, x, terms, tol))
                expected.append(scaled_bell_series_check(n, lam, x, terms, tol))
    expected.extend(classical_dobinski_check(n, terms, tol) for n in range(min(n_max, suite.CLASSICAL_BELL_MAX) + 1))
    assert list(map(repr, suite.numeric_checks(n_max, terms, tol))) == list(map(repr, expected))


def test_perturbed_inner_row_fails_its_three_checks(monkeypatch):
    original = suite._scaled_inner_row

    def perturbed(n, lam, terms):
        row = original(n, lam, terms)
        if (n, lam) == (4, 0.5):
            row[3] += 1.0
        return row

    monkeypatch.setattr(suite, "_scaled_inner_row", perturbed)
    failed = [(c.identity_name, c.n, c.lam) for c in suite.numeric_checks(8) if not c.passed]
    assert failed == [("scaled_bell_series", 4, 0.5)] * len(suite.GRID_XS)


def test_numeric_checks_build_each_closed_form_once(monkeypatch):
    calls = []
    original = numeric.dbell_via_stirling_pair
    monkeypatch.setattr(numeric, "dbell_via_stirling_pair", lambda n: calls.append(n) or original(n))
    suite.numeric_checks(8)
    assert calls == list(range(9))
