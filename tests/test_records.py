"""`verify`'s JSON output pinned record by record.

Each file under `tests/records` holds the records of one command, one
report or check per line in print order, each line `json.dumps` of the
record.  A SHA-256 digest of stdout only says that some byte moved; these
name the first record that moved, by (identity, n, lambda, x), and its
field.  A change that moves printed values on purpose edits those fields
here, so the files' diff lists every moved value.  To write a file afresh:

    python -m degenbell verify --n-max 8 --format json | python -c \
        "import json, sys; sys.stdout.writelines(json.dumps(r) + '\\n' for r in json.load(sys.stdin))"
"""

import json
import math
from pathlib import Path

import pytest

from degenbell import cli, suite

RECORDS = Path(__file__).parent / "records"

# command -> (its records file, its exit code)
RECORDED = {
    "verify --n-max 8 --format json": ("verify-n8.jsonl", 0),
    "verify --n-max 8 --terms 3 --format json": ("verify-n8-terms3.jsonl", 1),
}


def pinned(command):
    return RECORDS.joinpath(RECORDED[command][0]).read_text(encoding="utf-8").splitlines()


def run_records(command, capsys):
    code = cli.main(command.split())
    return code, [json.dumps(record) for record in json.loads(capsys.readouterr().out)]


def label(record):
    """(identity, range) of a report, (identity, n, lambda, x) of a check."""
    if "range" in record:
        return record["identity"], tuple(record["range"])
    return record["identity"], record["n"], record["lambda"], record["x"]


def first_difference(lines, expected):
    """None when the records' lines equal the pinned ones, else a message
    naming the first record that differs and the first field of it that does,
    each field compared as its JSON text, so 0.0 against -0.0 or 1 against
    1.0 counts."""
    for i, (line, want) in enumerate(zip(lines, expected)):
        if line != want:
            got, want = json.loads(line), json.loads(want)
            field = next(
                (k for k in {**want, **got} if json.dumps(got.get(k)) != json.dumps(want.get(k))), "key order"
            )
            return f"record {i} {label(want)}: {field} is {got.get(field)!r}, pinned {want.get(field)!r}"
    if len(lines) != len(expected):
        return f"{len(lines)} records, pinned {len(expected)}"
    return None


@pytest.mark.parametrize("command", list(RECORDED))
def test_verify_records_are_pinned(command, capsys):
    code, lines = run_records(command, capsys)
    assert code == RECORDED[command][1]
    difference = first_difference(lines, pinned(command))
    assert difference is None, difference


def test_a_float_moved_by_one_ulp_is_named(monkeypatch, capsys):
    # The grid's first check, dobinski_degenerate at n = 0, lambda = 0.1 and
    # x = 0.5, prints as record 17, after the 11 reports and the 6 classical
    # Dobinski checks; a dropped record and a missing last one are named too.
    grid_checks = suite.grid_checks

    def moved(*args):
        checks = grid_checks(*args)
        checks[0] = checks[0]._replace(rhs=math.nextafter(checks[0].rhs, math.inf))
        return checks

    monkeypatch.setattr(suite, "grid_checks", moved)
    command = "verify --n-max 8 --format json"
    code, lines = run_records(command, capsys)
    expected = pinned(command)
    assert code == 0
    difference = first_difference(lines, expected)
    assert difference.startswith("record 17 ('dobinski_degenerate', 0, 0.1, 0.5): rhs is "), difference
    assert first_difference(expected[:17] + expected[18:], expected).startswith("record 17 ")
    assert first_difference(expected[:-1], expected) == "178 records, pinned 179"
