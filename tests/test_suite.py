"""The oracle sweeps can fail: a constructor perturbed by one term at a
single n makes its report FAIL with that n as the first failure."""

import pytest

from degenbell import suite
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
