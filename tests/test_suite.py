"""The oracle sweeps can fail: a constructor perturbed by one term in one
row of its table makes its report FAIL with that n as the first failure,
and so does the shared binomial convolution; the recurrence table fails
both reports that read it.  `exact_reports` builds each table, and the
powers of L (x + y), once, within a budget of kernel calls; its table's names
are unique and in print order, and a report past n_max is never built.  The float
grid's shared rows give the per-point checks bit for bit, are built
once, and can fail.  Threads that run both from cold caches at once get
the serial results."""

import hashlib
import sys
import threading
from collections import Counter

import pytest

from degenbell import classical, cli, degenerate, numeric, suite
from degenbell.numeric import classical_dobinski_check, dobinski_check
from degenbell.poly import L, LAM, MPoly, X, Y
from references import compiled_with, scaled_bell_series_check

PERTURBATION = LAM * X**2
CONSTRUCTOR_IDENTITIES = {
    "stirling_pair_vs_oracle",
    "degenerate_stirling_sum_vs_oracle",
    "classical_bell_expansion_vs_oracle",
    "composita_vs_oracle",
    "recurrence_vs_oracle",
}


@pytest.mark.parametrize(
    "identity, constructor",
    [
        ("stirling_pair_vs_oracle", "dbell_via_stirling_pair"),
        ("degenerate_stirling_sum_vs_oracle", "degenerate_bell"),
        ("classical_bell_expansion_vs_oracle", "dbell_classical_bell_table"),
        ("composita_vs_oracle", "dbell_composita_table"),
        ("recurrence_vs_oracle", "dbell_recurrence_table"),
    ],
)
def test_perturbed_constructor_fails_at_its_n(monkeypatch, identity, constructor):
    # Row k of one constructor's table gains a term: a table builder has
    # that row changed, a one-n form its value at k.
    k = 4
    original = getattr(suite, constructor)

    def perturbed(n):
        if constructor.endswith("_table"):
            table = original(n)
            table[k] = table[k] + PERTURBATION
            return table
        return original(n) + PERTURBATION if n == k else original(n)

    monkeypatch.setattr(suite, constructor, perturbed)
    reports = {r.identity_name: r for r in suite.exact_reports(6) if r.identity_name in CONSTRUCTOR_IDENTITIES}
    assert set(reports) == CONSTRUCTOR_IDENTITIES
    for name, report in reports.items():
        if name == identity:
            assert not report.passed
            n, lhs, rhs = report.first_failure
            assert n == k
            assert lhs - rhs == PERTURBATION
        else:
            assert report.passed


def test_perturbed_recurrence_row_fails_both_reports_that_read_it(monkeypatch):
    # The recurrence table feeds its oracle sweep and, one row on, the
    # limit report.  x^2 survives lambda -> 0, L -> 1, so row k fails the
    # oracle sweep at k and the limit of the step at k - 1.
    k = 4
    original = suite.dbell_recurrence_table

    def perturbed(n_max):
        table = original(n_max)
        table[k] = table[k] + X**2
        return table

    monkeypatch.setattr(suite, "dbell_recurrence_table", perturbed)
    failures = {r.identity_name: r.first_failure for r in suite.exact_reports(6) if not r.passed}
    assert {name: failure[0] for name, failure in failures.items()} == {
        "recurrence_vs_oracle": k,
        "recurrence_classical_limit": k - 1,
    }
    _, lhs, rhs = failures["recurrence_classical_limit"]
    assert lhs - rhs == X**2


def test_perturbed_convolution_fails_every_report_that_reads_it(monkeypatch):
    # One wrong convolution at n = k.  The reports that convolve at n fail
    # at k; the recurrence builds row k + 1 from the convolution at k, and
    # the limit report, which reads row n + 1 at n, fails through the step
    # row, whose convolution at k carries the perturbation past the limit.
    k = 4
    original = degenerate.binomial_convolution

    def perturbed(a, b, n):
        return original(a, b, n) + PERTURBATION if n == k else original(a, b, n)

    monkeypatch.setattr(degenerate, "binomial_convolution", perturbed)
    monkeypatch.setattr(suite, "binomial_convolution", perturbed)
    failures = {r.identity_name: r.first_failure[0] for r in suite.exact_reports(6) if not r.passed}
    assert failures == {
        "addition": k,
        "derivative": k,
        "classical_recurrence": k,
        "recurrence_classical_limit": k,
        "recurrence_vs_oracle": k + 1,
    }


def test_derivative_term_without_l_fails_at_its_n(monkeypatch):
    # d/dx of Bel_3 + x^2 has the term 2x, which carries no L.  The
    # convolution at n reads bells[n] only against (1 | lambda)_0 = 0, so
    # the right side, L times the convolution, is the unperturbed derivative.
    original = suite.degenerate_bell
    derivative = original(3).derivative_x()
    monkeypatch.setattr(suite, "degenerate_bell", lambda n: original(n) + X**2 if n == 3 else original(n))
    report = {r.identity_name: r for r in suite.exact_reports(6)}["derivative"]
    assert not report.passed
    assert report.first_failure == (3, derivative + 2 * X, derivative)


def test_a_short_constructor_table_fails_verify(monkeypatch, capsys):
    # The sweep pairs the table's rows with the oracle's, so a table of
    # row 0 alone leaves n = 1..8 uncompared: a failure at n = 1, not a PASS.
    monkeypatch.setattr(suite, "dbell_composita_table", lambda n_max: [MPoly.one()])
    assert cli.main(["verify", "--n-max", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL composita_vs_oracle n=0..8 (first failure at n=1)" in lines
    assert lines[-1] == "179 checks, 1 failed"


def test_a_derivative_sweep_that_skips_its_first_n_fails(monkeypatch):
    mutant = compiled_with(suite._derivative, "range(1, rows.n_max + 1)", "range(2, rows.n_max + 1)")
    table = [(name, lo, mutant if name == "derivative" else sides) for name, lo, sides in suite.EXACT_REPORTS]
    monkeypatch.setattr(suite, "EXACT_REPORTS", tuple(table))
    failures = {r.identity_name: r.first_failure for r in suite.exact_reports(8) if not r.passed}
    assert failures == {"derivative": (1, None, None)}


def test_exact_reports_build_each_table_once(monkeypatch):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    # The recurrence table is built once, through row n_max + 1 for the
    # limit report, and the powers of L (x + y) once for every Bell row at x + y.
    recurrence_sizes = []
    recurrence = suite.dbell_recurrence_table

    def sized(n_max):
        recurrence_sizes.append(n_max)
        return recurrence(n_max)

    shift = L * (X + Y)
    multiply = MPoly.__mul__

    def counted_mul(a, b):
        if a == shift or b == shift:
            calls["L (x + y) products"] += 1
        return multiply(a, b)

    monkeypatch.setattr(MPoly, "__mul__", counted_mul)

    monkeypatch.setattr(suite, "degenerate_bell", counted(suite, "degenerate_bell"))
    monkeypatch.setattr(suite, "dbell_recurrence_table", sized)
    tables = (
        "oracle_degenerate_stirling2_table",
        "dbell_classical_bell_table",
        "dbell_composita_table",
        "dbell_recurrence_table",
    )
    for name in tables:
        monkeypatch.setattr(suite, name, counted(suite, name))
    degenerate.degenerate_stirling2.cache_clear()
    assert all(report.passed for report in suite.exact_reports(8))
    assert calls == {"degenerate_bell": 9, "L (x + y) products": 8, **dict.fromkeys(tables, 1)}
    assert recurrence_sizes == [9]
    # Each closed-form S2(n,m|lambda), n <= 8, is built once for the
    # canonical rows and read again by the Stirling report.
    assert degenerate.degenerate_stirling2.cache_info().misses == 45


@pytest.mark.parametrize("n_max, budget", [(10, 466), (30, 2903)])
def test_exact_reports_stay_within_their_kernel_calls(monkeypatch, n_max, budget):
    # Each shared row built once, and one pass per table entry: 458 and 2848
    # calls, against 962 and 7269 when every report built its own rows and
    # 478 and 2908 with two passes per falling factorial.
    kernel = MPoly.sum_of_products.__func__
    calls = []

    def counted(cls, terms):
        calls.append(1)
        return kernel(cls, terms)

    monkeypatch.setattr(MPoly, "sum_of_products", classmethod(counted))
    assert all(report.passed for report in suite.exact_reports(n_max))
    assert len(calls) <= budget


# SHA-256 of `verify --n-max 6` stdout, which exits 1, with S2(5,2|λ) + λ in
# place of S2(5,2|λ): one failing report among passing reports and checks.
MUTATED_VERIFY_STDOUT = {
    "text": "ec159bc77fc271a44cf849582d370cdf1dfd38cb7caa59375609b4db049a959c",
    "json": "641365944b7029e4517299df52ceb706c2f49b59680ea301ff4fe3a3060381bb",
    "csv": "6470bb1da426b2574c7dc3d9b70641ea5af4f8300653eb28ceec1709ed94b87f",
}


@pytest.mark.parametrize("fmt", list(MUTATED_VERIFY_STDOUT))
def test_mutated_verify_stdout_is_pinned(fmt, monkeypatch, capsys):
    original = suite.degenerate_stirling2
    monkeypatch.setattr(
        suite, "degenerate_stirling2", lambda n, m: original(n, m) + LAM if (n, m) == (5, 2) else original(n, m)
    )
    assert cli.main(["verify", "--n-max", "6", "--format", fmt]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MUTATED_VERIFY_STDOUT[fmt]


def test_perturbed_degenerate_stirling_fails_at_its_n(monkeypatch):
    # Three bad entries: the sweep reports the first in (n, m) order.
    original = suite.degenerate_stirling2
    monkeypatch.setattr(
        suite,
        "degenerate_stirling2",
        lambda n, m: original(n, m) + LAM if (n, m) in {(5, 2), (5, 4), (6, 1)} else original(n, m),
    )
    (report,) = [r for r in suite.exact_reports(6) if not r.passed]
    assert report.identity_name == "degenerate_stirling_closed_vs_oracle"
    n, lhs, rhs = report.first_failure
    assert n == 5
    assert lhs - rhs == LAM
    assert lhs == original(5, 2) + LAM


def test_unperturbed_oracle_sweeps_pass():
    reports = {r.identity_name: r for r in suite.exact_reports(6)}
    assert CONSTRUCTOR_IDENTITIES | {"degenerate_stirling_closed_vs_oracle"} <= set(reports)
    assert all(report.passed for report in reports.values())


def test_report_names_are_unique_and_in_print_order():
    # The table's order is the order verify prints.
    names = [name for name, _, _ in suite.EXACT_REPORTS]
    assert names == sorted(set(names))
    assert [r.identity_name for r in suite.run_full_suite(2, terms=1).reports] == names


@pytest.mark.parametrize("n_max, left_out", [(0, {"classical_bell_expansion_vs_oracle", "derivative"}), (1, set())])
def test_a_report_past_n_max_is_never_built(monkeypatch, n_max, left_out):
    built = []

    def recorded(name, sides):
        def wrapper(rows):
            built.append(name)
            return sides(rows)

        return wrapper

    table = [(name, lo, recorded(name, sides)) for name, lo, sides in suite.EXACT_REPORTS]
    monkeypatch.setattr(suite, "EXACT_REPORTS", tuple(table))
    names = [name for name, _, _ in table]
    assert [r.identity_name for r in suite.exact_reports(n_max)] == built
    assert built == [name for name in names if name not in left_out]


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
    original = numeric._scaled_inner_row

    def perturbed(n, lam, powers):
        row = original(n, lam, powers)
        if (n, lam) == (4, 0.5):
            row[3] += 1.0
        return row

    monkeypatch.setattr(numeric, "_scaled_inner_row", perturbed)
    failed = [(c.identity_name, c.n, c.lam) for c in suite.numeric_checks(8) if not c.passed]
    assert failed == [("scaled_bell_series", 4, 0.5)] * len(suite.GRID_XS)


def test_a_grid_that_drops_its_last_n_fails_verify(monkeypatch, capsys):
    # Each (lambda, x) point of both series at n = 8 goes missing: 18 FAIL
    # lines with NaN sides where PASS lines stood, not 18 fewer lines.
    original = suite.grid_checks

    def short(n_max, *args):
        return [check for check in original(n_max, *args) if check.n < n_max]

    monkeypatch.setattr(suite, "grid_checks", short)
    assert cli.main(["verify", "--n-max", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 2 * len(suite.GRID_LAMBDAS) * len(suite.GRID_XS)
    assert all(" n=8 " in line and line.endswith("terms=80 abs_error=nan") for line in failed)
    assert lines[-1] == "179 checks, 18 failed"


def test_numeric_checks_build_each_row_once(monkeypatch):
    # One growth pass per lambda, advanced one row per n; one inner row and
    # one coefficient row per (n, lambda), shared by every x; one row of
    # weights per (lambda, x), shared by every n and both series; one set of
    # power columns.
    calls = Counter()

    def counted(name):
        original = getattr(numeric, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    def counted_rows(lam, terms):
        calls["_falling_rows"] += 1
        for row in original_rows(lam, terms):
            calls["falling row"] += 1
            yield row

    original_rows = numeric._falling_rows
    monkeypatch.setattr(numeric, "_falling_rows", counted_rows)
    built = ["_scaled_inner_row", "_bell_coefficients", "_weights", "_power_columns"]
    for name in built:
        monkeypatch.setattr(numeric, name, counted(name))
    suite.numeric_checks(8)
    assert calls == {
        "_falling_rows": 3,
        "falling row": 27,
        "_scaled_inner_row": 27,
        "_bell_coefficients": 27,
        "_weights": 9,
        "_power_columns": 1,
    }


def test_concurrent_cold_runs_equal_a_serial_run():
    # Four threads run the float grid and the exact sweeps at once from cold
    # caches while the interpreter switches threads as often as it can; each
    # result must be the serial one.
    caches = [degenerate.degenerate_stirling2, classical.stirling_rows]

    def cold():
        for cache in caches:
            cache.cache_clear()

    cold()
    expected = (suite.numeric_checks(8), suite.exact_reports(6))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            cold()
            seen, errors = [], []

            def run():
                try:
                    seen.append((suite.numeric_checks(8), suite.exact_reports(6)))
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert seen == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
