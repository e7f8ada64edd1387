"""Command-line behavior: rendering, exit codes, round-trips, determinism."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from degenbell import classical, cli, degenerate, numeric, suite
from degenbell.classical import bell_polynomial
from degenbell.degenerate import VerificationReport, dbell_via_stirling_pair, degenerate_bell, degenerate_stirling2
from degenbell.poly import LAM, MPoly
from degenbell.suite import SuiteResult
from references import compiled_with
from test_scripts import src_env


def run_cli(args, capsys):
    code = cli.main(args)
    return code, capsys.readouterr().out


def test_table_bell_text(capsys):
    code, out = run_cli(["table", "--family", "bell", "--n-max", "3", "--format", "text"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Bel_0(x) = 1"
    assert lines[-1] == "Bel_3(x) = x^3 + 3x^2 + x"


def test_table_stirling1_single_row(capsys):
    code, out = run_cli(["table", "--family", "stirling1", "--n-max", "0"], capsys)
    assert code == 0
    assert out == "n=0: 1\n"


def test_table_dstirling_json_contains_expected_terms(capsys):
    code, out = run_cli(["table", "--family", "dstirling", "--n-max", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    entry = next(e for e in payload if e["n"] == 2 and e["m"] == 1)
    assert entry["poly"] == (1 - LAM).to_json_obj()


def test_table_json_round_trip_byte_identical(capsys):
    code, out = run_cli(["table", "--family", "dbell", "--n-max", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    rebuilt = [{"n": n, "poly": degenerate_bell(n).to_json_obj()} for n in range(5)]
    assert payload == rebuilt
    assert json.dumps(rebuilt, indent=2, ensure_ascii=False) + "\n" == out


def test_table_csv_has_header(capsys):
    code, out = run_cli(["table", "--family", "stirling2", "--n-max", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "2,1,1" in lines
    assert "2,2,1" in lines


def test_table_unknown_family_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--family", "fibonacci", "--n-max", "2"])
    assert info.value.code == 2


def test_output_deterministic(capsys):
    args = ["verify", "--n-max", "2", "--format", "json"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_verify_small_passes(capsys):
    code, out = run_cli(["verify", "--n-max", "2"], capsys)
    assert code == 0
    assert "all passed" in out
    assert "FAIL" not in out


def test_verify_n_max_zero_passes(capsys):
    # The reports that start at n = 1 compare nothing here: no n=1..0 line.
    code, out = run_cli(["verify", "--n-max", "0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert not [line for line in lines if "n=1..0" in line]
    assert lines[-1] == "28 checks, all passed"


def test_verify_json_schema(capsys):
    code, out = run_cli(["verify", "--n-max", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    identities = {entry["identity"] for entry in payload}
    assert "addition" in identities
    assert "dobinski_degenerate" in identities
    reports = [e for e in payload if "range" in e]
    checks = [e for e in payload if "abs_error" in e]
    assert all(set(e) == {"identity", "range", "passed", "first_failure"} for e in reports)
    assert all(
        set(e) == {"identity", "n", "lambda", "x", "terms", "lhs", "rhs", "abs_error", "tol", "passed"}
        for e in checks
    )


def test_verify_csv_header(capsys):
    code, out = run_cli(["verify", "--n-max", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "identity,n,lambda,x,terms,lhs,rhs,abs_error,passed"


# A result's float, or None where it has none: csv must write each as the
# hand-built rows did, a float as its repr and None as an empty cell.
EDGE_FLOATS = [None, math.nan, 0.0, -0.0, math.inf, -math.inf, 1e-300, 0.37]


def test_csv_rows_project_like_the_rows_built_by_hand():
    # The reference rows follow the rule of the rows the CLI built by hand
    # before it projected `to_json_obj()`: repr of a float, "" for None.
    floats = EDGE_FLOATS[1:]
    checks = [
        numeric.NumericCheck("demo", 3, lam, x, 10, lhs, rhs, 1e-9)
        for lam, x, lhs, rhs in itertools.product(EDGE_FLOATS, EDGE_FLOATS, floats, floats)
    ]
    reports = [
        VerificationReport("synthetic", (0, 5)),
        VerificationReport("synthetic", (2, 30), (3, MPoly.one(), MPoly.zero())),
    ]

    def cell(value):
        return "" if value is None else repr(value)

    expected = [
        *([r.identity_name, f"{r.n_range[0]}..{r.n_range[1]}", "", "", "", "", "", "", r.passed] for r in reports),
        *(
            [c.identity_name, c.n, cell(c.lam), cell(c.x), c.terms, repr(c.lhs), repr(c.rhs), repr(c.abs_error), c.passed]
            for c in checks
        ),
    ]
    for item, row in zip([*reports, *checks], expected, strict=True):
        projected = cli._csv_row(item.to_json_obj())
        assert len(projected) == len(cli.CSV_HEADER)
        assert cli._csv_text([projected], cli.CSV_HEADER) == cli._csv_text([row], cli.CSV_HEADER), item


@pytest.mark.parametrize("value", EDGE_FLOATS[1:])
def test_eval_csv_value_row_matches_the_row_built_by_hand(value, monkeypatch, capsys):
    monkeypatch.setattr(cli, "eval_bel_numeric", lambda n, lam, x: value)
    for x in ("-0.0", "0.0", "1e-300", "2"):
        code, out = run_cli(["eval", "--n", "3", "--lambda", "-0.5", "--x", x, "--format", "csv"], capsys)
        assert code == 0
        row = ["bell_degenerate_value", 3, repr(-0.5), repr(float(x)), "", repr(value), "", "", ""]
        assert out == cli._csv_text([row], cli.CSV_HEADER)


# One command of each CSV shape: every table family at n_max 0 and 4, a
# passing and a failing verify (--terms 3) and eval with and without
# --dobinski.
CSV_COMMANDS = [
    *(["table", "--family", family, "--n-max", n_max] for family in cli.FAMILIES for n_max in ("0", "4")),
    ["verify", "--n-max", "4"],
    ["verify", "--n-max", "8", "--terms", "3"],
    ["eval", "--n", "5", "--lambda", "0.5", "--x", "1.5"],
    ["eval", "--n", "5", "--lambda", "0.5", "--x", "1.5", "--dobinski"],
]


def csv_rows_written(monkeypatch, capsys):
    """Every row, each header included, that `cli._csv_text` receives from
    `CSV_COMMANDS`, taken by wrapping it in process."""
    rows, write = [], cli._csv_text

    def recording(body, header):
        rows.extend([header, *body])
        return write(body, header)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_csv_text", recording)
        codes = [cli.main([*argv, "--format", "csv"]) for argv in CSV_COMMANDS]
    capsys.readouterr()
    assert codes == [0] * (len(CSV_COMMANDS) - 3) + [1, 0, 0]
    return rows


def rows_needing_quotes(rows):
    """The rows a plain join would not write as `csv.writer` does: one with a
    field holding a comma, a quote or a line break, or with fewer than two
    fields (a lone empty field is written `""`)."""
    return [row for row in rows if len(row) < 2 or any(char in str(cell) for cell in row for char in ',"\r\n')]


def test_no_csv_field_needs_quoting(monkeypatch, capsys):
    # `_csv_text` joins fields with commas, which is right only while no
    # field needs quoting; then it writes csv.writer's bytes.  No command
    # above prints a NaN or an infinity, so the rows of checks holding the
    # edge floats join them.
    rows = csv_rows_written(monkeypatch, capsys)
    rows += [
        cli._csv_row(numeric.NumericCheck("demo", 3, lam, x, 10, lhs, rhs, 1e-9).to_json_obj())
        for lam, x, lhs, rhs in itertools.product(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS[1:], EDGE_FLOATS[1:])
    ]
    cells = {str(cell) for row in rows for cell in row}
    assert {"nan", "-inf", "None", "True", "False", "0..8", "x^4 + 6x^3 + 7x^2 + x", "-λ + 1"} <= cells
    assert rows_needing_quotes(rows) == []
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    assert cli._csv_text(rows[1:], rows[0]) == buffer.getvalue()


def test_csv_field_guard_fails_on_a_comma(monkeypatch, capsys):
    # A mutant polynomial text that separates its terms by commas, and a row
    # of one field.
    render = cli.render_text
    monkeypatch.setattr(cli, "render_text", lambda terms: render(terms).replace(" + ", ", "))
    faults = rows_needing_quotes(csv_rows_written(monkeypatch, capsys))
    assert ["4", "x^4, 6x^3, 7x^2, x"] in [[str(cell) for cell in row] for row in faults]
    assert all("," in str(row[-1]) for row in faults)
    assert rows_needing_quotes([["n", "poly"], [None]]) == [[None]]


def test_verify_failure_exit_code(capsys, monkeypatch):
    broken = VerificationReport("synthetic", (0, 1), (0, MPoly.one(), MPoly.zero()))
    monkeypatch.setattr(cli, "run_full_suite", lambda *a, **k: SuiteResult((broken,), ()))
    code, out = run_cli(["verify", "--n-max", "1"], capsys)
    assert code == 1
    assert "FAIL synthetic" in out


def test_eval_value(capsys):
    code, out = run_cli(["eval", "--n", "2", "--lambda", "0.5", "--x", "1"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(1.0630729, abs=1e-6)


def test_eval_degree_zero(capsys):
    code, out = run_cli(["eval", "--n", "0", "--lambda", "0.7", "--x", "3.2"], capsys)
    assert code == 0
    assert float(out) == 1.0


def test_eval_dobinski_gap(capsys):
    code, out = run_cli(
        ["eval", "--n", "2", "--lambda", "0.5", "--x", "1", "--dobinski", "--terms", "80"], capsys
    )
    assert code == 0
    gap = float(out.splitlines()[2].split()[1])
    assert gap < 1e-9


def test_eval_rejects_lambda_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--n", "2", "--lambda", "0", "--x", "1"])
    assert info.value.code == 2


def test_eval_rejects_lambda_below_minus_one():
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--n", "2", "--lambda", "-1.5", "--x", "1"])
    assert info.value.code == 2


def test_files_written_when_output_given(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out = run_cli(
        ["table", "--family", "bell", "--n-max", "2", "--format", "json", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))[2]["n"] == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda", "inf", "--x", "1"], "--lambda must lie in (-1, 0) or (0, inf); use the classical table at 0"),
        (["--lambda", "0.5", "--x", "inf"], "--x must be finite"),
        (["--lambda", "0.5", "--x", "nan"], "--x must be finite"),
    ],
)
def test_eval_rejects_non_finite_input(flags, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--n", "3", *flags])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"degenbell: error: {message}"


EVAL = ["eval", "--n", "2", "--lambda", "0.5", "--x", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--family", "bell", "--n-max", "-1"], "--n-max must be >= 0"),
        (["verify", "--n-max", "-1"], "--n-max must be >= 0"),
        (["eval", "--n", "-1", "--lambda", "0.5", "--x", "1"], "--n must be >= 0"),
        (["verify", "--terms", "0"], "--terms must be >= 1"),
        ([*EVAL, "--terms", "0"], "--terms must be >= 1"),
        (["verify", "--tol", "0"], "--tol must be > 0"),
        ([*EVAL, "--tol", "0"], "--tol must be > 0"),
        (["eval", "--n", "2", "--lambda", "0", "--x", "1"], "--lambda must lie in (-1, 0) or (0, inf); use the classical table at 0"),
        (["eval", "--n", "2", "--lambda", "-1.5", "--x", "1"], "--lambda must lie in (-1, 0) or (0, inf); use the classical table at 0"),
        # A NaN tolerance fails every float check and an infinite one passes
        # them all without comparing anything.
        (["verify", "--n-max", "1", "--tol", "nan"], "--tol must be > 0"),
        ([*EVAL, "--dobinski", "--tol", "nan"], "--tol must be > 0"),
        (["verify", "--n-max", "1", "--tol", "inf"], "--tol must be finite"),
        ([*EVAL, "--dobinski", "--tol", "inf"], "--tol must be finite"),
        # Past MAX_TERMS every weight of the series is 0.0 or out of float range.
        (["verify", "--n-max", "1", "--terms", "10001"], "--terms must be <= 10000"),
        ([*EVAL, "--dobinski", "--terms", "10001"], "--terms must be <= 10000"),
        # Past its MAX_N a command outgrows its budget of time and memory.
        (["table", "--family", "dbell", "--n-max", "101"], "--n-max must be <= 100"),
        (["verify", "--n-max", "61"], "--n-max must be <= 60"),
        (["eval", "--n", "201", "--lambda", "0.5", "--x", "1"], "--n must be <= 200"),
        (["verify", "--n-m", "61"], "--n-max must be <= 60"),  # argparse's prefix, past `_fast_parse`
    ],
)
def test_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"degenbell: error: {message}"


def test_table_n_max_at_the_limit_is_accepted():
    # Parsed only: the largest table takes about a second.
    assert cli.MAX_N["table"] == 100
    assert cli.parse_config(["table", "--family", "dbell", "--n-max", "100"]).n_max == 100


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["verify", "--n-max", "60"], 60),
        (["eval", "--n", "200", "--lambda", "0.5", "--x", "1"], 200),
    ],
)
def test_verify_and_eval_accept_their_caps(argv, cap):
    # Parsed only, never run: each cap allows its command's slowest size.
    assert cli.MAX_N[argv[0]] == cap
    assert cli.parse_config(argv).n_max == cap


def test_terms_at_the_limit_are_accepted(capsys):
    assert cli.MAX_TERMS == 10_000
    assert cli.main([*EVAL, "--dobinski", "--terms", str(cli.MAX_TERMS)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "abs_error 0.0"


def test_eval_float_overflow_is_usage_error(capsys):
    code = cli.main(["eval", "--n", "200", "--lambda", "0.5", "--x", "1e200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("degenbell: error: the value at n=200, lambda=0.5, x=1e+200")
    assert "out of float range" in line


@pytest.mark.parametrize(
    "flags",
    [
        ["--lambda", "100", "--x", "1e10", "--terms", "300"],
        ["--lambda", "0.5", "--x", "1e10"],
    ],
)
def test_eval_dobinski_overflow_is_usage_error(flags, capsys):
    code = cli.main(["eval", "--n", "3", "--dobinski", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("degenbell: error: the value at n=3, lambda=")
    assert "out of float range (Dobinski series term" in line


def test_eval_dobinski_sum_overflow_is_usage_error(capsys):
    # Every term is finite but exp(-x L) times their sum is not (x = -800),
    # or exp(-x L) alone is not (x = -1000): a float overflow (exit 2) that
    # names the sum, not an identity failure (exit 1).
    for x in ("-800", "-1000"):
        code = cli.main(["eval", "--n", "3", "--lambda", "0.5", f"--x={x}", "--dobinski"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (
            f"degenbell: error: the value at n=3, lambda=0.5, x={x}.0 is out of float range "
            "(Dobinski series sum overflows)"
        )
    # Underflow stays a reported failure, not an error.
    code, out = run_cli(["eval", "--n", "3", "--lambda", "0.5", "--x", "1000", "--dobinski"], capsys)
    assert code == 1
    assert out.splitlines()[1] == "dobinski 0.0"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.txt"
    code = cli.main(["table", "--family", "bell", "--n-max", "2", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"degenbell: error: cannot write --output {target}: No such file or directory\n"
    assert not target.parent.exists()


def run_into_unwritable_stdout(args, sink, unbuffered):
    """(exit code, stderr) of a fresh `python -m degenbell` whose standard
    output is /dev/full or a pipe with its read end closed."""
    env = {key: value for key, value in src_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "degenbell", *args]
    if sink == "full_disk":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as stdout:
            proc = subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
        reason = "No space left on device"
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        reason = "Broken pipe"
    return (proc.returncode, proc.stderr.decode()), (2, f"degenbell: error: cannot write standard output: {reason}\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("sink", ["full_disk", "closed_pipe"])
def test_unwritable_stdout_is_usage_error(sink, unbuffered):
    # Unbuffered, the write itself fails; buffered, only a flush would, and
    # left to the interpreter's exit flush that failure exits 120.
    got, expected = run_into_unwritable_stdout(["table", "--family", "bell", "--n-max", "3"], sink, unbuffered)
    assert got == expected


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("sink", ["full_disk", "closed_pipe"])
def test_unwritable_stdout_for_help_is_usage_error(sink, unbuffered):
    # argparse's own printing swallows the OSError: exit 0 unbuffered, 120 buffered.
    for args in (["-h"], ["table", "-h"], ["eval", "--n", "3", "--help"]):
        got, expected = run_into_unwritable_stdout(args, sink, unbuffered)
        assert got == expected, args


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("family", cli.FAMILIES)
def test_tables_build_from_the_stirling_rows_alone(family, fmt, monkeypatch, capsys):
    # Each coefficient of Bel_n, S2(n,m|λ) and Bel_{n,λ} is one product of
    # classical Stirling numbers, rendered from its term stream: no table
    # makes a kernel pass, builds a polynomial or reads S2(n,m|λ).
    calls = []
    for name in ("sum_of_products", "from_ints"):
        method = getattr(MPoly, name).__func__
        counted = classmethod(lambda cls, *args, name=name, method=method: calls.append(name) or method(cls, *args))
        monkeypatch.setattr(MPoly, name, counted)
    degenerate.degenerate_stirling2.cache_clear()
    code, out = run_cli(["table", "--family", family, "--n-max", "30", "--format", fmt], capsys)
    assert code == 0 and "30" in out
    assert calls == []
    assert degenerate.degenerate_stirling2.cache_info().misses == 0


def test_eval_dobinski_evaluates_closed_form_once(monkeypatch, capsys):
    calls = []
    original = numeric.eval_bel_numeric

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(numeric, "eval_bel_numeric", counted)
    monkeypatch.setattr(cli, "eval_bel_numeric", counted)
    code, out = run_cli(["eval", "--n", "4", "--lambda", "0.5", "--x", "1", "--dobinski"], capsys)
    assert code == 0
    assert calls == [(4, 0.5, 1.0)]
    assert out.splitlines()[0] == f"value {original(4, 0.5, 1.0)!r}"


# (command, exit code, SHA-256 of stdout, stderr), each recorded from a fresh
# `python -m degenbell` process with COLUMNS=80.
FRESH_PROCESS_RUNS = [
    ("eval --n 5 --lambda 0.37 --x 2.1 --dobinski", 0,
     "f11314e49a2ba353187fbc508d9522831b1bb42b3faa170bd009afbbefd750e5", ""),
    ("eval --n 5 --lambda 0.37 --x 2.1", 0,
     "f81b1a1c2e24962e5fdb2f3b50da178d9d30a1a68c0a1fbd8c5c5ab829416219", ""),
    ("table --family dstirling --n-max 3", 0,
     "e7c1f6c630a2c97451510e8dd9e4d49b8fbecbd76ceef74dd5ef37a7c7b3a23c", ""),
    ("eval --n 5 --lambda 0.37 --x 2.1 --tol 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell [-h] {table,verify,eval} ...\ndegenbell: error: --tol must be > 0\n"),
    ("eval --help", 0,
     "67179f5eea6c26c7b516137ab955bcab5d6b53579957081aafa13997f87fe66e", ""),
    ("verify --n-max 1", 0,
     "c7decc7512e89247ed74064b4ed6078dd1c3e5021b228a09bc681b4c1274aee8", ""),
    # Command lines that only argparse parses: an abbreviation, a negative
    # value in exponent form with and without "=", a repeated flag, -h after
    # other flags, a bad choice, a missing flag and a bad int.
    ("table --fam bell --n-max 2", 0,
     "d106d5df346912823e409e56c3e0dc7228f240d57963ca2174764869ca773aef", ""),
    ("eval --n 3 --lambda=-1e-05 --x 1", 0,
     "b785c057565e2d85aaef0a8f2d55d24e34e0eab0cc2c24f3e2608f5ec5b57255", ""),
    ("eval --n 3 --lambda -1e-05 --x 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell eval [-h] --n N --lambda LAM --x X [--dobinski]\n"
     "                      [--terms TERMS] [--tol TOL] [--format {text,json,csv}]\n"
     "                      [--output OUTPUT]\n"
     "degenbell eval: error: argument --lambda: expected one argument\n"),
    ("table --family bell --n-max 2 --n-max 3", 0,
     "c7cf93ab259a51cd56947aa30dc5c4b16a0bbd0a0591b7abfb3b52a660556866", ""),
    ("table --family bell --n-max 2 -h", 0,
     "090c50141dc5c6d4799a2ffa0d6613a43d1f2a4e43aa52ed1c89021231a033d0", ""),
    ("table --family fibonacci --n-max 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell table [-h] --family\n"
     "                       {bell,stirling1,stirling2,dstirling,dbell}\n"
     "                       [--n-max N_MAX] [--format {text,json,csv}]\n"
     "                       [--output OUTPUT]\n"
     "degenbell table: error: argument --family: invalid choice: 'fibonacci' "
     "(choose from 'bell', 'stirling1', 'stirling2', 'dstirling', 'dbell')\n"),
    ("eval --n 3 --lambda 0.5", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell eval [-h] --n N --lambda LAM --x X [--dobinski]\n"
     "                      [--terms TERMS] [--tol TOL] [--format {text,json,csv}]\n"
     "                      [--output OUTPUT]\n"
     "degenbell eval: error: the following arguments are required: --x\n"),
    ("table --family bell --n-max x", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell table [-h] --family\n"
     "                       {bell,stirling1,stirling2,dstirling,dbell}\n"
     "                       [--n-max N_MAX] [--format {text,json,csv}]\n"
     "                       [--output OUTPUT]\n"
     "degenbell table: error: argument --n-max: invalid int value: 'x'\n"),
    # A --flag=-- value, which argparse takes as no value at all and stores as [].
    ("table --family bell --n-max=--", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell [-h] {table,verify,eval} ...\ndegenbell: error: argument --n-max: expected one argument\n"),
    ("table --family=-- --n-max 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell [-h] {table,verify,eval} ...\ndegenbell: error: argument --family: expected one argument\n"),
    ("table --family bell --format=--", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell [-h] {table,verify,eval} ...\ndegenbell: error: argument --format: expected one argument\n"),
    ("table --family bell --output=--", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell [-h] {table,verify,eval} ...\ndegenbell: error: argument --output: expected one argument\n"),
    ("eval --n 3 --lambda=-- --x 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell [-h] {table,verify,eval} ...\ndegenbell: error: argument --lambda: expected one argument\n"),
    ("verify --tol=--", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: degenbell [-h] {table,verify,eval} ...\ndegenbell: error: argument --tol: expected one argument\n"),
]


@pytest.mark.parametrize(
    "command",
    ["eval --n 3 --lambda=-1e-05 --x 1", "eval --n 3 --lambda -1e-05 --x 1", "table --family bell --n-max=--"],
)
def test_module_entry_point_matches_fresh_process_runs(command):
    # One command line the table parses and two only argparse parses (and refuses).
    env = {**src_env(), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "degenbell", *command.split()], capture_output=True, env=env)
    got = (command, proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode("utf-8"))
    assert got == next(run for run in FRESH_PROCESS_RUNS if run[0] == command)


def test_cli_import_loads_no_introspection_modules():
    # The records are named tuples; a dataclass would pull in inspect, ast,
    # dis and tokenize, which a cold command then imports and never uses.
    code = "import sys, degenbell.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    proc = subprocess.run([sys.executable, "-c", code, *heavy], capture_output=True, env=src_env(), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_csv_unloaded():
    # CSV is written with a join, so a cold command never imports csv.
    code = "import sys, degenbell.cli; print('csv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=src_env(), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Runs one command line, then writes a last line: whether argparse was loaded
# before degenbell, and whether it is loaded after the command.
ARGPARSE_PROBE = """
import sys
early = "argparse" in sys.modules
from degenbell.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.write(f"\\n{early} {'argparse' in sys.modules}")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "command, loads",
    [
        ("eval --n 5 --lambda 0.37 --x 2.1 --dobinski", False),
        ("table --family dstirling --n-max 3", False),
        ("verify --n-max 1", False),
        ("eval --help", True),
        ("eval --n 3 --lambda 0.5", True),
    ],
)
def test_argparse_loads_only_off_the_flag_table(command, loads):
    # A fresh process: the flag table parses every command line of the
    # first three without argparse; help and a usage error are argparse's bytes.
    env = {**src_env(), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-c", ARGPARSE_PROBE, *command.split()], capture_output=True, env=env)
    out, _, probe = proc.stdout.rpartition(b"\n")
    if probe.startswith(b"True"):
        pytest.skip("this interpreter loads argparse before degenbell")
    assert probe == f"False {loads}".encode()
    got = (command, proc.returncode, hashlib.sha256(out).hexdigest(), proc.stderr.decode("utf-8"))
    assert got == next(run for run in FRESH_PROCESS_RUNS if run[0] == command)


def test_cached_parser_carries_no_state_between_calls(monkeypatch, capsys):
    # One process, one parser: each command, after every other kind
    # (a flag set or unset, an error, --help), gives a fresh process's bytes.
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    for _ in range(2):
        for command, code, digest, err in FRESH_PROCESS_RUNS:
            try:
                got = cli.main(command.split())
            except SystemExit as exc:
                got = exc.code
            captured = capsys.readouterr()
            out_digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
            assert (got, out_digest, captured.err) == (code, digest, err), command


def test_parse_config_threads_get_their_own_namespace():
    argvs = [
        ["eval", "--n", "5", "--lambda", "0.37", "--x", "2.1", "--dobinski"],
        ["eval", "--n", "7", "--lambda", "-0.5", "--x", "1e10", "--terms", "30", "--format", "json"],
        ["table", "--family", "dbell", "--n-max", "4", "--format", "csv"],
        ["verify", "--n-max", "3", "--tol", "1e-6", "--output", "report.txt"],
        # Abbreviations: only argparse parses these, so the first build races.
        ["table", "--fam", "bell", "--n-m", "2"],
        ["eval", "--n", "3", "--lam", "-0.25", "--x=1", "--dob"],
        ["verify", "--n", "4", "--form", "csv"],
    ]
    assert [cli._fast_parse(argv) is None for argv in argvs] == [False] * 4 + [True] * 3
    expected = [vars(cli.parse_config(argv)) for argv in argvs]
    assert expected[0] == {
        "command": "eval", "n_max": 5, "lam": 0.37, "x": 2.1, "dobinski": True,
        "terms": numeric.DEFAULT_TERMS, "tol": numeric.DEFAULT_TOL, "fmt": "text", "output": None,
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cli._build_parser.cache_clear()  # the first build races too
            barrier = threading.Barrier(len(argvs))
            seen, errors = [[] for _ in argvs], []

            def parse(i):
                try:
                    barrier.wait()
                    seen[i].extend(vars(cli.parse_config(argvs[i])) for _ in range(20))
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=parse, args=(i,)) for i in range(len(argvs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert seen == [[namespace] * 20 for namespace in expected]
            assert cli._build_parser.cache_info().currsize == 1
    finally:
        sys.setswitchinterval(interval)


# SHA-256 of stdout for fixed commands, all of which exit 0.  Any change to
# these bytes is a change to the output format, not a refactoring.
PINNED_STDOUT = {
    "verify --n-max 8 --format text": "dc9276a606835bc2f7c632fbcadd443ae1bdd3b700c07d0617c1c66ac963aca6",
    "verify --n-max 8 --format json": "c65797a4cd02174e7b48bd27db549f818e080aa258ee968a63649c168dd4755c",
    "verify --n-max 8 --format csv": "1738aa29197db0b00ff3b7611bab66c36ce61167307a95a2443704a5b4bebb32",
    "verify --n-max 14 --format json": "18cb9308b12e36c665f90df888bab4d9dc351d6d742addca71adb4835f9ccc37",
    "verify --n-max 10 --format json": "7c1f6c01ed5955d28e2c69b4f173179beb705ba83570e587028df6dfaf4cab7e",
    "verify --n-max 20 --format text": "50603ebac6820c98e52e5bc00257372c421f0493b909621ec2193bfcfe86d4ad",
    "verify --n-max 8 --terms 30 --tol 1e-6 --format csv": "5036768783763315e7aa2e57d4d53556439309f38556f8002d80ddc4c69ee0b7",
    "table --family dbell --n-max 30 --format json": "aecfa5994a918b878f89d4ddad666f43c817508c3985f38aee527f00dbd5e262",
    "table --family bell --n-max 12 --format text": "c9a7ca9f90ba67e180d90601ac2bbe027c44b0db5fae90a54c2e1c373b583dac",
    "table --family bell --n-max 12 --format json": "8dc13b3284f0c5846ce2546b13c98ed4cb1b6532a7bbb64f2042bdd99cd2e68e",
    "table --family bell --n-max 12 --format csv": "c6971d2f3cbabdbecdd58b61c4372eaf45aedcf38845bf8f877e0442e20bc542",
    "table --family stirling1 --n-max 12 --format text": "3d1b84e88e34c0e0dcef11ac4a6409eab1f8ee8f6b47c1d24828cd2e2acf95c2",
    "table --family stirling1 --n-max 12 --format json": "87500b118a67cb263971afb1e3c3d060ec88aa3d8c5135e945ffeefa77ee2ff7",
    "table --family stirling1 --n-max 12 --format csv": "94db3cd5639508ca48177cb5841e308de8d41f4f28ab9068b4ba0483320a2459",
    "table --family stirling2 --n-max 12 --format text": "74ca1591977039795edb85551b6e39e50f44dde35fc2528a5cf692beb0e75705",
    "table --family stirling2 --n-max 12 --format json": "58c77f46ee0a1547cc83e7e1c9cde771b72c3c6fcfa40596834b0bc8b7d82a7b",
    "table --family stirling2 --n-max 12 --format csv": "faa4ac85bf8ceec993de199b72c6e7b09b5dc54cd969964f39349a7dede69982",
    "table --family dstirling --n-max 12 --format text": "05763df0c9b2cc4c742c7abef3602349699775e2537dc541349ebfcc220c0f75",
    "table --family dstirling --n-max 12 --format json": "be8c452f0742efaec5aa720c2dc14772e4541e5e7c09a107b5ba52c8834f7ba7",
    "table --family dstirling --n-max 12 --format csv": "e5ca5f3196aff9455d174d82c1a54c75eefc4ffba2604487bea90ab26d63f2f8",
    "table --family dbell --n-max 12 --format text": "9f96a3a0243fa379b4836d902e8fdd24d0e5ca7b4281436da18354396da217a9",
    "table --family dbell --n-max 12 --format json": "d7c6b255e310d5a3058a4f03a5cd24758e67dedb1a952bfdf9b43c7d10e9d3fc",
    "table --family dbell --n-max 12 --format csv": "a99652ae48f2741a7674152a0fb61dd4c70e279b6d8a7201356568ba6b7401b1",
    "eval --n 7 --lambda 0.5 --x 2": "1914bd2790eb09cf83a8a9e6975d943a7545c16f97eac0c4f4eb8fbc0ac2579f",
    "eval --n 5 --lambda -0.3 --x 1.5 --dobinski --format json": "497acbbc95525021d7b2353cdf1b38390b6a73cf8261e2639e7fd35bcea3efc6",
    "table --family dstirling --n-max 30 --format json": "d54d3486c2931757c58d0f2243b1d59b2608314dbaa0f551cba4fcb0073304b2",
    "table --family dbell --n-max 30 --format text": "2346e775dbe52bcb6014212f68937e849c87cc41f9a6f6ed7ebb122f56368bbd",
    "table --family dstirling --n-max 30 --format csv": "fef686fd23481010825b64c6eaa658c60af4295043b5f065e4d1dbccb441f853",
    "table --family stirling2 --n-max 30 --format json": "5b5524352a16e65510c54b4f4d2d7726b1de1231bbfe62aa9f06ceebc8fca0ca",
    "verify --n-max 12 --format json": "f33ebd32bc78475a8a0776ce515a5b7b20f73c20f804ab34789f4e2e6aa413bd",
    "verify --n-max 30 --format json": "1148ff803472075ded3bd6cd267ae7d9834995d640b15748472f60a10365712d",
    "eval --n 7 --lambda 0.5 --x 2 --format csv": "136b750aa5d26aee9fb63a7da6c7d71b0033f54b003db3a3e78df17747ef19b9",
    "eval --n 7 --lambda 0.5 --x 2 --format json": "e80b0c134f9bdc209fa71e5beb3a54f8d3d39d5ceccf5a49a81d13a40d5d13e0",
    "table --family stirling1 --n-max 30 --format text": "83e0fc3f5726a4bbf8b3106412bbb5d59024a732b429028a63e4c25b9e10a440",
    "table --family stirling1 --n-max 30 --format json": "bd8dfa3cb718a68e294d660ef158e32e9553520463dc9e385075df402be14298",
    "table --family stirling1 --n-max 30 --format csv": "4a473950d652201df02bc7d6df8e8000505f6c7c772826ef8374598174034b1d",
    "table --family stirling2 --n-max 30 --format text": "c9d8dce994184f74cdb05a9c6f52b0ad226ff7bba0f05277ba8679c423e9258f",
    "table --family stirling2 --n-max 30 --format csv": "8f631b035ef321398f2752b827dd4ca9d30d8cca59362c087245295ee14f8964",
    "table --family stirling1 --n-max 0 --format text": "38a4b76c364b3f7950b302d1be6049ccfe4c9ff582707e5eb0a15bb361ae27c4",
    "table --family stirling1 --n-max 0 --format json": "9f6b8215ce453c71874a3824bca5829ce526be47b2892e82fd033ca70c8cf6b7",
    "table --family stirling1 --n-max 0 --format csv": "845bb376704bbbde8317abf312488cae685abb09cfb95ba75b652c6a6fd59d3b",
    "table --family stirling2 --n-max 0 --format text": "38a4b76c364b3f7950b302d1be6049ccfe4c9ff582707e5eb0a15bb361ae27c4",
    "table --family stirling2 --n-max 0 --format json": "9f6b8215ce453c71874a3824bca5829ce526be47b2892e82fd033ca70c8cf6b7",
    "table --family stirling2 --n-max 0 --format csv": "845bb376704bbbde8317abf312488cae685abb09cfb95ba75b652c6a6fd59d3b",
    "eval --n 5 --lambda -0.3 --x 1.5 --dobinski --format text": "73478796168692a7ac433a24ed840498943e55eb8154052b57f369cd0773b214",
    "eval --n 5 --lambda -0.3 --x 1.5 --dobinski --format csv": "91ebb9fe9b0b9c175af9f35b94c12b0e3268f773db8ec6259bd48fdb997a71f2",
    "eval --n 30 --lambda 0.3 --x 0.5 --dobinski --format text": "8884479e7a2b63a2f729cc6dad6b69f2aec6a0131268e74ae28180980019f7fb",
    "eval --n 30 --lambda 0.3 --x 0.5 --dobinski --format json": "d878a94f26727a0c2f113a0a658d78861a93340df61d5a1b679e3ed24cb625d0",
    "table --family dbell --n-max 30 --format csv": "fd426bd17094d32dd6d51ba5519903e19f2465995f3198adcfd241545ce12ebe",
    "table --family dstirling --n-max 30 --format text": "7931eb3004dddd336e3b6cd7762b58d48a79accc3883d6d2555b8a12255d8f87",
    "table --family dbell --n-max 60 --format json": "21fd9c202d3c1d497fdc5e7facde6357e3e771bfcf6a3849c5a74b5a1fc8e684",
    # Row 0 and m = 0, where each polynomial family's terms start differently.
    "table --family bell --n-max 0 --format text": "260d7733798df13e03f6b90f4c7ce20c88a576fb9c856dbbcb3b791931dedef9",
    "table --family bell --n-max 0 --format json": "e6ba062750831e92b70aa36b3a9c6f7d910979a2aebda02de1f7189c124b6b30",
    "table --family bell --n-max 0 --format csv": "8fc1ee277f16ae94104485862595b7961b6dfd503ed8a8129d22d38849a2d2cf",
    "table --family bell --n-max 1 --format text": "a71ec4c42e97fe553823ff9e45f500f02f9ff2081f0a052d005a0f435778f01e",
    "table --family bell --n-max 1 --format json": "d42096456a3983cddb8518896b66bbd23fb48874bbba1965da36513080489b4b",
    "table --family bell --n-max 1 --format csv": "d2414477a2d0afbd742dfa454565072e4b65258908382ef51f048a3db58b3d6e",
    "table --family dbell --n-max 0 --format text": "71d796ca1cf82d68635bdb0592e3932145417e973a511a55a0d8c08fe6760141",
    "table --family dbell --n-max 0 --format json": "e6ba062750831e92b70aa36b3a9c6f7d910979a2aebda02de1f7189c124b6b30",
    "table --family dbell --n-max 0 --format csv": "8fc1ee277f16ae94104485862595b7961b6dfd503ed8a8129d22d38849a2d2cf",
    "table --family dbell --n-max 1 --format text": "f71ec134cf0164b613f5427ea70f6df8174370a118dae72bf219c87dd73c1dee",
    "table --family dbell --n-max 1 --format json": "bd7022fcdf4aa9ccb546e1990f7b9b72075628962501b1758c0f0a13cb85b387",
    "table --family dbell --n-max 1 --format csv": "c1601c186f8983ab3639f43ab622312e5350b1d8c8b6a9dd8421176c8af600e7",
    "table --family dstirling --n-max 0 --format text": "b0d1d3a197cbc291ec95a6d7dd5b6cc6f336ed2fe9edfef885961770e27e75d2",
    "table --family dstirling --n-max 0 --format json": "fae8290cccc8afef1abeed3b8efa4a985ee3d8a93f9670683ce11d9ea3f0865a",
    "table --family dstirling --n-max 0 --format csv": "35bf6c5ead501bc32d7de955c7f26561ccb8b2eebbb9228fa8513bf9655c2a98",
    "table --family dstirling --n-max 1 --format text": "dc7300c82ae89c7e49e6988ff5b5f828823d8a35250a5e351dcb55f0388eb631",
    "table --family dstirling --n-max 1 --format json": "a7228f318a14dfd773b5f7afd73dc408f4923ed25102f8b8c170f4ee52512335",
    "table --family dstirling --n-max 1 --format csv": "27f8590138caca4f4dd35d75fd31de6a008f02fd62226c07518d4abdcb89d21b",
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(command, capsys):
    code, out = run_cli(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[command]


# SHA-256 of stdout for commands that exit 1: the Dobinski sum at x = 1000
# underflows to 0.0, a false FAIL of the float check that a fix of the check
# will change on purpose; with one term per series, 57 of the float checks of
# `verify --n-max 2` fail, which pins the FAIL form of their lines and rows.
# At n = 30, lambda = -0.7, x = 3.5 the two sides differ by 4.2e24 on values
# of 4.8e39, and with three terms 168 of 179 checks of `verify --n-max 8`
# fail: both pin the float bits of large-n rows and of the FAIL lines.
PINNED_FAILING_STDOUT = {
    "eval --n 3 --lambda 0.5 --x 1000 --dobinski --format text": "4ac77fac7140c8693d89ef229116d3a0c7c7619540c714e88c708819e1f81ffa",
    "eval --n 3 --lambda 0.5 --x 1000 --dobinski --format json": "a52dad65641290c59d1e8cd07b9b1dd54e2453de7310b245244cef103dfd4bd9",
    "eval --n 3 --lambda 0.5 --x 1000 --dobinski --format csv": "8e5a09507d35c9ace9af1ad85d5a81ad72b5a34a4f673a8ba5144eec7106ad3c",
    "verify --n-max 2 --terms 1 --format text": "916b1f41e33fde257e5506a577abacd535489340b39a139e9d6a91b6fcf74f1d",
    "verify --n-max 2 --terms 1 --format csv": "b3c3e030ea6cb7737dc6563e7453c37d2c351211c44f76fa3e15f2751d0ad726",
    "eval --n 30 --lambda -0.7 --x 3.5 --dobinski --format text": "e74a2beb40c82a825da967c0851fcaabc6bcf3e0dbd1271872978dedaf0b1684",
    "eval --n 30 --lambda -0.7 --x 3.5 --dobinski --format json": "d939d97a095334fcd68a8ce184291bf7ca4583f0f7331d226c6804de240423bd",
    "verify --n-max 8 --terms 3 --format text": "da5f64e47c797e13777e49642081b5cdce48ea43222d8ca39cf5181bc5919bb6",
}


@pytest.mark.parametrize("command", list(PINNED_FAILING_STDOUT))
def test_failing_stdout_bytes_are_pinned(command, capsys):
    code, out = run_cli(command.split(), capsys)
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_FAILING_STDOUT[command]


# -- the JSON renderer ------------------------------------------------------------


def poly_terms(value):
    # json.dumps's hook for an object it has no form for: an MPoly is its
    # to_json_obj(), anything else stays a TypeError.
    if isinstance(value, MPoly):
        return value.to_json_obj()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_reference(payload):
    return json.dumps(payload, indent=2, ensure_ascii=False, default=poly_terms) + "\n"


def assert_same_text(text, expected):
    # Reports the first difference only: pytest's diff of two large tables takes minutes.
    if text != expected:
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
        window = slice(max(at - 30, 0), at + 30)
        raise AssertionError(f"texts differ at {at}: {text[window]!r} != {expected[window]!r}")


def assert_renders_like_json(render, payload):
    assert_same_text(render(payload), json_reference(payload))


def run_cli_json(args, monkeypatch, capsys):
    """Run the CLI, recording the one payload handed to `_json_text`; its
    output must be what `json.dumps` makes of that payload."""
    payloads = []
    render = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda payload: payloads.append(payload) or render(payload))
    code, out = run_cli(args, capsys)
    (payload,) = payloads
    assert_same_text(out, json_reference(payload))
    return code


# The library's constructor of each polynomial family's entries.
LIBRARY_POLYS = {"bell": bell_polynomial, "dbell": dbell_via_stirling_pair, "dstirling": degenerate_stirling2}


def table_indices(family, n_max):
    if len(cli.POLY_TABLES[family][0]) == 2:
        return [(n, m) for n in range(n_max + 1) for m in range(n + 1)]
    return [(n,) for n in range(n_max + 1)]


@pytest.mark.parametrize("n_max", [0, 1, 30])
@pytest.mark.parametrize("family", cli.FAMILIES)
def test_table_json_equals_json_dumps(family, n_max, monkeypatch, capsys):
    # A polynomial table hands `_json_text` term streams, which json.dumps
    # cannot read: its bytes are what json.dumps makes of the library's
    # polynomials at the same indices.
    args = ["table", "--family", family, "--n-max", str(n_max), "--format", "json"]
    if family not in cli.POLY_TABLES:
        assert run_cli_json(args, monkeypatch, capsys) == 0
        return
    keys = cli.POLY_TABLES[family][0]
    expected = [dict(zip(keys, index), poly=LIBRARY_POLYS[family](*index)) for index in table_indices(family, n_max)]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert_same_text(out, json_reference(expected))


def check_streams_are_canonical(streams, n_max=60):
    """Each family's term stream, at every entry with n <= n_max, is the term
    list of the polynomial built from it: canonical order, no zero term, all
    over the denominator 1."""
    for family, terms in streams.items():
        for index in table_indices(family, n_max):
            stream = list(terms(*index))
            assert stream == list(MPoly.from_ints({e: c for e, c, _ in stream}).terms()), (family, index)


TABLE_STREAMS = {family: table[2] for family, table in cli.POLY_TABLES.items()}


def test_table_streams_are_canonical_term_lists():
    check_streams_are_canonical(TABLE_STREAMS)


def two_terms_swapped(terms):
    def mutant(*index):
        stream = list(terms(*index))
        return iter(stream[1::-1] + stream[2:])

    return mutant


@pytest.mark.parametrize("mutant", ["two_terms_swapped", "zero_term_kept"])
def test_stream_property_fails_on_mutants(mutant):
    streams = dict(TABLE_STREAMS)
    if mutant == "two_terms_swapped":
        streams["dstirling"] = two_terms_swapped(streams["dstirling"])
    else:  # the term x^0 of Bel_n, whose coefficient stirling2(n, 0) is 0 for n >= 1
        streams["bell"] = compiled_with(classical.bell_terms, "if row[k]:", "if row[k] is not None:")
    with pytest.raises(AssertionError):
        check_streams_are_canonical(streams)


@pytest.mark.parametrize("n_max", range(13))
def test_verify_json_equals_json_dumps(n_max, monkeypatch, capsys):
    assert run_cli_json(["verify", "--n-max", str(n_max), "--format", "json"], monkeypatch, capsys) == 0


@pytest.mark.parametrize(
    "flags, code",
    [
        ("--n 7 --lambda 0.5 --x 2", 0),
        ("--n 5 --lambda -0.3 --x 1.5 --dobinski", 0),
        ("--n 3 --lambda 0.5 --x 1000 --dobinski", 1),  # the Dobinski sum underflows: a FAIL
    ],
)
def test_eval_json_equals_json_dumps(flags, code, monkeypatch, capsys):
    assert run_cli_json(["eval", *flags.split(), "--format", "json"], monkeypatch, capsys) == code


def test_failing_report_json_equals_json_dumps(monkeypatch, capsys):
    # The Stirling mutation of tests/test_suite.py: S2(5,2|λ) gains a λ.
    original = suite.degenerate_stirling2
    monkeypatch.setattr(
        suite, "degenerate_stirling2", lambda n, m: original(n, m) + LAM if (n, m) == (5, 2) else original(n, m)
    )
    (report,) = [report for report in suite.exact_reports(6) if not report.passed]
    failure = report.to_json_obj()["first_failure"]
    assert failure["n"] == 5 and failure["lhs"] and failure["rhs"]
    monkeypatch.setattr(cli, "run_full_suite", lambda *args: SuiteResult((report,), ()))
    assert run_cli_json(["verify", "--n-max", "6", "--format", "json"], monkeypatch, capsys) == 1


# One polynomial at depths 1 and 3, terms whose reduced denominators differ
# (over the common denominator 6), a negative coefficient, a y exponent and
# the zero polynomial.
POLY = MPoly({(0, 0, 1, 2): Fraction(1, 2), (1, 0, 0, 0): Fraction(-1, 3), (0, 0, 0, 0): 5})
POLY_PAYLOAD = {"p": POLY, "q": [[POLY, MPoly.zero()]], "n": 1}


def check_json_text_on_generated_payloads(render, settings):
    """Hypothesis: `render` writes what `json_reference` writes, over nested
    payloads whose leaves include polynomials, one of them possibly at several depths."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(max_size=6) | st.text(st.sampled_from('aλ"\\/\n\t\x00\x1f\x7f é'), max_size=6)
    coefficients = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)
    polys = st.builds(MPoly, st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), coefficients, max_size=4))
    leaves = (
        st.none()
        | st.booleans()
        | st.integers(-(2**200), 2**200)
        | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
        | text
        | polys
        | st.shared(polys, key="poly")
    )
    payloads = st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4), max_leaves=40
    )

    @settings
    @hypothesis.given(payloads)
    @hypothesis.example({"λ": [{}, [], {"": [[]]}], 'a"\\': {"λ": "\x01"}})
    @hypothesis.example(POLY_PAYLOAD)
    def check(payload):
        assert_renders_like_json(render, payload)

    check()


def test_json_text_equals_json_dumps_on_generated_payloads():
    hypothesis = pytest.importorskip("hypothesis")
    check_json_text_on_generated_payloads(cli._json_text, hypothesis.settings(max_examples=300, deadline=None))


def unreduced_terms(poly):
    """A polynomial's terms with each numerator over the common denominator, unreduced."""
    terms = list(MPoly.terms(poly))
    den = math.lcm(*(den for _, _, den in terms))
    return ((exponents, num * (den // term_den), den) for exponents, num, term_den in terms)


@pytest.mark.parametrize("mutant", ["pow_text_shared_by_depths", "unreduced_coefficients"])
def test_generated_payload_check_fails_on_mutant_renderers(mutant):
    hypothesis = pytest.importorskip("hypothesis")
    if mutant == "pow_text_shared_by_depths":  # the first depth's pow texts serve every depth
        render = compiled_with(
            cli._json_text, "tails, head = polys[depth]", "tails, head = polys[min(polys)][0], polys[depth][1]"
        )
    else:
        render = compiled_with(cli._json_text, "value.terms()", "unreduced_terms(value)")
        render.__globals__["unreduced_terms"] = unreduced_terms
    settings = hypothesis.settings(max_examples=300, deadline=None, database=None, report_multiple_bugs=False)
    with pytest.raises(AssertionError):
        check_json_text_on_generated_payloads(render, settings)


LAMBDA_PAYLOAD = [{"λ": [1, "λ", {"n": 2.5}]}, {"n": None}]


def without_newline(payload):
    return cli._json_text(payload)[:-1]


def with_indent_4(payload):  # twice the leading spaces of every line
    return re.sub(r"(?m)^ +", lambda m: m.group() * 2, cli._json_text(payload))


@pytest.mark.parametrize(
    "mutant", [without_newline, "ensure_ascii", with_indent_4], ids=["no_newline", "ensure_ascii", "indent_4"]
)
def test_json_check_fails_on_mutant_renderers(mutant, monkeypatch):
    if mutant == "ensure_ascii":
        monkeypatch.setattr(cli, "encode_basestring", json.encoder.encode_basestring_ascii)
        mutant = cli._json_text
        assert mutant(LAMBDA_PAYLOAD) == json.dumps(LAMBDA_PAYLOAD, indent=2) + "\n"
    elif mutant is with_indent_4:
        assert mutant(LAMBDA_PAYLOAD) == json.dumps(LAMBDA_PAYLOAD, indent=4, ensure_ascii=False) + "\n"
    with pytest.raises(AssertionError):
        assert_renders_like_json(mutant, LAMBDA_PAYLOAD)


@pytest.mark.parametrize("payload", [{1, 2}, [(1, 2)], {"n": Fraction(1, 2)}, {1: "int key"}])
def test_json_text_rejects_other_types(payload):
    with pytest.raises(TypeError):
        cli._json_text(payload)


# -- the flag table and argparse ------------------------------------------------


def test_workload_command_lines_never_build_the_parser(monkeypatch, capsys):
    # Every shape of command line the benchmark's workloads run, in their
    # flag order: negative lambda as repr() writes it, --dobinski, every format.
    def refuse():
        raise AssertionError("the argparse parser was built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    argvs = [
        ["table", "--family", family, "--n-max", "3", "--format", fmt] for family in cli.FAMILIES for fmt in cli.FORMATS
    ]
    argvs += [["verify", "--n-max", "2", "--format", fmt] for fmt in cli.FORMATS]
    for lam, x in [(-0.8657113526943148, 0.31308772274698443), (0.37, 2.1), (0.5, 1000.0)]:
        for fmt in cli.FORMATS:
            argv = ["eval", "--n", "6", "--lambda", repr(lam), "--x", repr(x), "--format", fmt]
            argvs += [argv, [*argv, "--dobinski"]]
    for argv in argvs:
        assert cli.main(argv) in (0, 1), argv  # 1: a reported FAIL (x = 1000 underflows), not a usage error
        capsys.readouterr()


def argparse_vars(argv):
    """`vars()` of argparse's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def command_lines(st):
    """Command lines from a grammar of exact flags, abbreviations, `=` forms,
    negative numbers in plain and exponent form, repeated flags, -h, --, empty
    strings, bad ints and bad choices.  Each of the command's required flags
    is drawn first (or left out), and values are mostly good ones, so that
    many lines are well formed."""
    odd = ["-h", "--help", "--", "", "--fam", "--f", "--n", "--n-m", "--lam", "--t", "--form", "--out", "--dob", "--bogus"]
    good = {
        int: ["0", "3", "12", "-1", "-0", " 4", "1_0", "-١"],
        float: ["0.5", "2.1", "-0.5", "-.25", "-3", "1e-05", "-1e-05", "-2.5E+3", "inf", "nan", "-0.8657113526943148"],
        str: ["out.txt", "", "x=y", "-1"],
        None: [],  # a switch takes no value
    }
    bad = ["x", "1.5", "", "fibonacci", "TEXT", "-h", "--", "--x", "-5 ", "-5.", "-1\n", "-"]

    def lines(command):
        flags = [flag for flag in cli.FLAGS if command in flag[0]] or list(cli.FLAGS)
        values = {name: list(choices or good[kind]) for _, name, _, kind, choices, *_ in flags}
        everything = [value for pool in values.values() for value in pool]

        def with_value(name, pool):  # the flag and its value, as two tokens or as name=value
            value = st.sampled_from(pool)
            return value.map(lambda v: [name, v]) | value.map(lambda v: [f"{name}={v}"])

        def good_item(name):
            return with_value(name, values[name]) if values[name] else st.just([name])

        def any_item(name):
            return st.just([name]) | with_value(name, values.get(name, everything) + bad)

        own = st.sampled_from(list(values))
        required = st.tuples(*(st.one_of(*[good_item(f[1])] * 6, any_item(f[1]), st.just([])) for f in flags if f[6]))
        extra = st.one_of(*[own.flatmap(good_item)] * 3, own.flatmap(any_item), st.sampled_from(odd).flatmap(any_item))
        parts = st.tuples(required, st.lists(extra, max_size=4))
        return parts.flatmap(lambda p: st.permutations([*p[0], *p[1]])).map(
            lambda p: [command, *(token for part in p for token in part)]
        )

    return st.sampled_from([*cli.COMMANDS, *cli.COMMANDS, "evaluate", "-h"]).flatmap(lines)


def check_fast_parse_equals_argparse(fast_parse, settings, examples=()):
    """`fast_parse` returns None, or the namespace argparse returns; never a
    namespace where argparse exits.  Returns how many lines it accepted."""
    hypothesis = pytest.importorskip("hypothesis")
    accepted = []

    @settings
    @hypothesis.given(command_lines(hypothesis.strategies))
    def check(argv):
        fast = fast_parse(argv)
        if fast is not None:
            expected = argparse_vars(argv)
            assert expected is not None, "argparse refuses what the table accepts"
            assert {k: repr(v) for k, v in vars(fast).items()} == {k: repr(v) for k, v in expected.items()}
            accepted.append(argv)

    for argv in examples:
        check = hypothesis.example(argv)(check)
    check()
    return len(accepted)


# Lines of the grammar that bear on the flag table's limits.
PARSE_EXAMPLES = [
    ["eval", "--n", "3", "--lambda=-1e-05", "--x", "1"],
    ["eval", "--n", "3", "--lambda", "-1e-05", "--x", "1"],
    ["eval", "--n=-1", "--lambda", "-.5", "--x", "-2", "--dobinski", "--dobinski", "--x", "3"],
    ["eval", "--n", "3", "--lambda", "0.5", "--x", "1", "--t", "5"],
    ["table", "--family", "bell", "--n-max", "2", "-h"],
    ["table", "--fam", "bell"],
    ["table", "--f", "bell"],
    ["verify", "--output=", "--tol", "nan", "--format=csv"],
]


def test_fast_parse_equals_argparse():
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(max_examples=500, deadline=None)
    assert check_fast_parse_equals_argparse(cli._fast_parse, settings, PARSE_EXAMPLES) > 50


def prefix_fast_parse(argv):
    """A mutant that reads a flag prefix such as --fam as the first flag it begins."""
    names = [flag[1] for flag in cli.FLAGS if argv and argv[0] in flag[0]]

    def expand(token):
        name, equals, value = token.partition("=")
        if not name.startswith("--"):
            return token
        return next((full for full in names if full.startswith(name)), name) + equals + value

    return cli._fast_parse(argv[:1] + [expand(token) for token in argv[1:]])


@pytest.mark.parametrize("mutant", ["exponent_values", "prefix_flags", "shared_required_set"])
def test_fast_parse_property_fails_on_mutants(mutant, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    fast_parse = cli._fast_parse
    if mutant == "exponent_values":  # takes -1e-05 as a value, as argparse does not
        monkeypatch.setattr(cli, "_is_negative_number", lambda token: re.fullmatch(r"-[\d.]+([eE][-+]?\d+)?", token))
    elif mutant == "prefix_flags":
        fast_parse = prefix_fast_parse
    else:  # discards each given required flag from the table's own set, so later lines need none
        fast_parse = compiled_with(cli._fast_parse, "set(required)", "required")
        tables = {command: (*table[:2], set(table[2])) for command, table in cli._COMMAND_TABLES.items()}
        fast_parse.__globals__["_COMMAND_TABLES"] = tables
    settings = hypothesis.settings(max_examples=500, deadline=None, database=None, report_multiple_bugs=False)
    with pytest.raises(AssertionError):
        check_fast_parse_equals_argparse(fast_parse, settings, PARSE_EXAMPLES)
