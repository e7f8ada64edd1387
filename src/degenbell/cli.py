"""Command-line front end.

Three subcommands:

    table    emit a number family (classical or degenerate) as text, JSON
             or CSV
    verify   run the full identity suite; exit 0 only if everything passed
    eval     evaluate a degenerate Bell value at real lambda and x

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error.  Output is deterministic: same flags, same bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from json.encoder import encode_basestring

from .classical import bell_polynomial, stirling_rows
from .degenerate import dbell_via_stirling_pair, degenerate_stirling2
from .numeric import DEFAULT_TERMS, DEFAULT_TOL, dobinski_check, eval_bel_numeric
from .poly import VARIABLES, Exponents, MPoly
from .suite import run_full_suite

FAMILIES = ("bell", "stirling1", "stirling2", "dstirling", "dbell")
FORMATS = ("text", "json", "csv")
CSV_HEADER = ["identity", "n", "lambda", "x", "terms", "lhs", "rhs", "abs_error", "passed"]
# The largest --terms.  The weights (x L)^k / k! reach 0.0 by k = 2571 for every
# |x L| <= 709, and past that they or exp(-x L) leave float range, so further
# terms add exact zeros; 10 000 leaves room and bounds `verify --n-max 8` near
# 0.5 s and 25 MB, where --terms 10^6 took about a minute and 1 GB.
MAX_TERMS = 10_000


class UsageError(Exception):
    """Input that passed parsing but cannot be served (a value out of float
    range, an unwritable --output); `main` reports it and exits 2."""


COMMANDS = {
    "table": "emit a number family",
    "verify": "run the verification suite",
    "eval": "evaluate a degenerate Bell value",
}
# Every flag once: (commands, name, dest, type, choices, default, required,
# metavar), in each command's usage order; type None is a switch.
FLAGS = (
    (("table",), "--family", "family", str, FAMILIES, None, True, None),
    (("table",), "--n-max", "n_max", int, None, 8, False, None),
    (("verify",), "--n-max", "n_max", int, None, 12, False, None),
    (("eval",), "--n", "n_max", int, None, None, True, "N"),
    (("eval",), "--lambda", "lam", float, None, None, True, None),
    (("eval",), "--x", "x", float, None, None, True, None),
    (("eval",), "--dobinski", "dobinski", None, None, False, False, None),
    (("verify", "eval"), "--terms", "terms", int, None, DEFAULT_TERMS, False, None),
    (("verify", "eval"), "--tol", "tol", float, None, DEFAULT_TOL, False, None),
    (("table", "verify", "eval"), "--format", "fmt", str, FORMATS, "text", False, None),
    (("table", "verify", "eval"), "--output", "output", str, None, None, False, None),
)


def _is_negative_number(token: str) -> bool:  # argparse's ^-\d+$|^-\d*\.\d+$, the "-" tokens it takes as values
    return token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")


def _fast_parse(argv: list[str]) -> argparse.Namespace | None:
    """argparse's namespace for argv, or None unless every token after the
    command is an exact flag of it or `--flag=value` whose value argparse
    would take, convert and accept, and every required flag is given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = {flag[1]: flag for flag in FLAGS if argv[0] in flag[0]}
    values = {"command": argv[0], **{dest: default for _, _, dest, _, _, default, _, _ in flags.values()}}
    missing = {name for _, name, *_, required, _ in flags.values() if required}
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, value = token.partition("=")
        if name not in flags:
            return None
        _, _, dest, kind, choices, *_ = flags[name]
        if equals and (kind is None or value == "--"):  # a switch takes no value; argparse drops a "--" one
            return None
        if not equals and kind is not None:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _is_negative_number(value):
                return None
        try:
            value = True if kind is None else kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        missing.discard(name)
    return None if missing else argparse.Namespace(**values)


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its help written by `_emit`, so that a failed
    write to standard output is a usage error, not swallowed."""

    def print_help(self, file=None) -> None:
        _emit(self.format_help(), None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `FLAGS`, built on first use for help, errors and
    what `_fast_parse` declines; parsing leaves it unchanged."""
    parser = _Parser(
        prog="degenbell",
        description="Exact tables, identity verification and numeric evaluation "
        "for degenerate Bell polynomials and degenerate Stirling numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {command: sub.add_parser(command, help=text) for command, text in COMMANDS.items()}
    for names, name, dest, kind, choices, default, required, metavar in FLAGS:
        options = dict(type=kind, choices=choices, default=default, required=required, metavar=metavar)
        for command in names:
            commands[command].add_argument(name, dest=dest, **(options if kind else {"action": "store_true"}))
    return parser


def parse_config(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse and validate argv (default `sys.argv[1:]`).  Every command has
    `n_max`, `fmt` and `output`; `verify` and `eval` add `terms` and `tol`."""
    ns = _fast_parse(sys.argv[1:] if argv is None else argv)
    if ns is None:
        ns = _build_parser().parse_args(argv)
        for names, name, dest, *_ in FLAGS:  # argparse drops the "--" of --flag=-- and stores []
            if ns.command in names and getattr(ns, dest) == []:
                _build_parser().error(f"argument {name}: expected one argument")
    if ns.n_max < 0:
        _build_parser().error(f"{'--n' if ns.command == 'eval' else '--n-max'} must be >= 0")
    if ns.command != "table":
        if ns.terms < 1:
            _build_parser().error("--terms must be >= 1")
        if ns.terms > MAX_TERMS:
            _build_parser().error(f"--terms must be <= {MAX_TERMS}")
        if not ns.tol > 0:  # NaN too: it would fail every float check
            _build_parser().error("--tol must be > 0")
        if math.isinf(ns.tol):
            _build_parser().error("--tol must be finite")
    if ns.command == "eval":
        if not -1.0 < ns.lam < math.inf or ns.lam == 0.0:
            _build_parser().error("--lambda must lie in (-1, 0) or (0, inf); use the classical table at 0")
        if not math.isfinite(ns.x):
            _build_parser().error("--x must be finite")
    return ns


def _emit(text: str, output: str | None) -> None:
    if output is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a full disk, a closed pipe: leave nothing buffered for the exit flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError(f"cannot write standard output: {exc.strerror}") from exc
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {output}: {exc.strerror}") from exc


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(payload: object) -> str:
    """`json.dumps(payload, indent=2, ensure_ascii=False) + "\\n"`, from one walk,
    with an `MPoly` leaf written as its `to_json_obj()`.

    `indent` sends `json.dumps` to its pure-Python encoder.  Here leaves go
    through the C string encoder and `int`/`float.__repr__`, each key's text,
    with its comma and indent, is made once per depth, and so is the text
    after a term's coefficient (its "pow" object and closing brace) for each
    exponent vector of `MPoly.terms()`, filled into one template per depth.
    Dicts need str keys; a type `json` has no form for raises `TypeError`."""
    chunks: list[str] = []
    append = chunks.append
    levels: list[tuple[dict[str, str], str, str]] = []  # per depth: key texts, separator, closing indent
    polys: dict[int, tuple[dict[Exponents, str], str]] = {}  # per depth: a term's text after and before its coefficient
    pow_texts: dict[int, str] = {}  # per depth: the text after a coefficient, "%d" for each exponent

    def walk(value: object, depth: int) -> None:
        kind = type(value)
        if kind is str:
            append(encode_basestring(value))
        elif kind is int:
            append(int.__repr__(value))
        elif kind is float:
            text = float.__repr__(value)
            append(_JSON_FLOATS.get(text, text))
        elif value is None or kind is bool:
            append(_JSON_CONSTANTS[value])
        elif kind is MPoly:
            if depth not in polys:
                pad = "  " * (depth + 2)
                fields = ",".join(f"\n{pad}  {encode_basestring(name)}: %d" for name in VARIABLES)
                pow_texts[depth] = f'",\n{pad}"pow": {{{fields}\n{pad}}}\n{pad[2:]}}}'
                polys[depth] = ({}, f',\n{pad[2:]}{{\n{pad}"coeff": "')
            tails, head = polys[depth]
            start = len(chunks)
            for exponents, num, den in value.terms():
                tail = tails.get(exponents)
                if tail is None:
                    tail = tails[exponents] = pow_texts[depth] % exponents
                append(f"{head}{num}/{den}{tail}")
            if len(chunks) == start:
                append("[]")
            else:
                chunks[start] = "[" + chunks[start][1:]
                append(f"\n{'  ' * depth}]")
        elif kind is not dict and kind is not list:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        elif not value:
            append("{}" if kind is dict else "[]")
        else:
            while depth >= len(levels):
                indent = "\n" + "  " * len(levels)
                levels.append(({}, f",{indent}  ", indent))
            keys, separator, close = levels[depth]
            start = len(chunks)  # the first separator gives up its comma to the bracket
            if kind is dict:
                for key, item in value.items():
                    text = keys.get(key)
                    if text is None:
                        text = keys[key] = f"{separator}{encode_basestring(key)}: "
                    append(text)
                    item_kind = type(item)
                    if item_kind is int:  # the leaves, without a call
                        append(int.__repr__(item))
                    elif item_kind is str:
                        append(encode_basestring(item))
                    elif item_kind is float:
                        leaf = float.__repr__(item)
                        append(_JSON_FLOATS.get(leaf, leaf))
                    elif item is None or item_kind is bool:
                        append(_JSON_CONSTANTS[item])
                    else:
                        walk(item, depth + 1)
            else:
                for item in value:
                    append(separator)
                    walk(item, depth + 1)
            brackets = "{}" if kind is dict else "[]"
            chunks[start] = brackets[0] + chunks[start][1:]
            append(close + brackets[1])

    walk(payload, 0)
    append("\n")
    return "".join(chunks)


def _csv_text(rows: list[list], header: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# -- table ----------------------------------------------------------------

# family -> (index names, text label, builder) for the tables of polynomials
POLY_TABLES = {
    "bell": (("n",), "Bel_{}(x)", bell_polynomial),
    "dbell": (("n",), "Bel_{{{},λ}}(x)", dbell_via_stirling_pair),
    "dstirling": (("n", "m"), "S2({},{}|λ)", degenerate_stirling2),
}


def run_table(ns: argparse.Namespace) -> int:
    """Polynomials indexed by (n,) or (n, m), or integer rows for the
    classical Stirling triangles, rendered in the one requested format."""
    n_range = range(ns.n_max + 1)
    if ns.family in POLY_TABLES:
        keys, label, build = POLY_TABLES[ns.family]
        if len(keys) == 2:
            indices = [(n, m) for n in n_range for m in range(n + 1)]
        else:
            indices = [(n,) for n in n_range]
        entries = [(index, build(*index)) for index in indices]
        if ns.fmt == "text":
            text = "".join(f"{label.format(*index)} = {poly.pretty()}\n" for index, poly in entries)
        elif ns.fmt == "json":
            text = _json_text([dict(zip(keys, index), poly=poly) for index, poly in entries])
        else:
            text = _csv_text([[*index, poly.pretty()] for index, poly in entries], [*keys, "poly"])
    else:
        s1_rows, s2_rows = stirling_rows(ns.n_max)
        rows = s1_rows if ns.family == "stirling1" else s2_rows
        if ns.fmt == "text":
            text = "".join(f"n={n}: {' '.join(map(str, row))}\n" for n, row in enumerate(rows))
        elif ns.fmt == "json":
            text = _json_text([{"n": n, "row": list(row)} for n, row in enumerate(rows)])
        else:
            cells = [[n, k, value] for n, row in enumerate(rows) for k, value in enumerate(row)]
            text = _csv_text(cells, ["n", "k", "value"])
    _emit(text, ns.output)
    return 0


# -- verify ---------------------------------------------------------------


def _csv_row(obj: dict) -> list:
    """A result's `to_json_obj()` object projected onto `CSV_HEADER`: a
    report's n is its range, "lo..hi", a missing key reads None, which csv
    writes as an empty cell, and csv writes a float as its repr."""
    cells = {**obj, "n": "{}..{}".format(*obj["range"])} if "range" in obj else obj
    return [cells.get(key) for key in CSV_HEADER]


def run_verify(ns: argparse.Namespace) -> int:
    result = run_full_suite(ns.n_max, ns.terms, ns.tol)
    objs = [item.to_json_obj() for item in (*result.reports, *result.checks)]
    if ns.fmt == "json":
        text = _json_text(objs)
    elif ns.fmt == "csv":
        text = _csv_text([_csv_row(obj) for obj in objs], CSV_HEADER)
    else:
        lines = []
        for obj in objs:
            head = f"{'PASS' if obj['passed'] else 'FAIL'} {obj['identity']}"
            if "range" in obj:
                failure = obj["first_failure"]
                tail = "" if failure is None else f" (first failure at n={failure['n']})"
                lines.append(f"{head} n={obj['range'][0]}..{obj['range'][1]}{tail}")
            else:
                where = "" if obj["lambda"] is None else f" lambda={obj['lambda']} x={obj['x']}"
                lines.append(f"{head} n={obj['n']}{where} terms={obj['terms']} abs_error={obj['abs_error']:.3e}")
        failed = sum(not obj["passed"] for obj in objs)
        lines.append(f"{len(objs)} checks, {failed} failed" if failed else f"{len(objs)} checks, all passed")
        text = "\n".join(lines) + "\n"
    _emit(text, ns.output)
    return 0 if result.passed else 1


# -- eval -----------------------------------------------------------------


# eval's JSON names, in print order, each with the key of the result's object
# it reads; a name is printed only when the object has that key.
EVAL_JSON_KEYS = {
    "n": "n", "lambda": "lambda", "x": "x", "value": "lhs", "dobinski": "rhs",
    "terms": "terms", "abs_error": "abs_error", "passed": "passed",
}


def run_eval(ns: argparse.Namespace) -> int:
    try:
        if ns.dobinski:
            obj = dobinski_check(ns.n_max, ns.lam, ns.x, ns.terms, ns.tol).to_json_obj()
        else:
            value = eval_bel_numeric(ns.n_max, ns.lam, ns.x)
            obj = {"identity": "bell_degenerate_value", "n": ns.n_max, "lambda": ns.lam, "x": ns.x, "lhs": value}
    except OverflowError as exc:
        where = f"n={ns.n_max}, lambda={ns.lam!r}, x={ns.x!r}"
        raise UsageError(f"the value at {where} is out of float range ({exc})") from exc
    if ns.fmt == "json":
        text = _json_text({name: obj[key] for name, key in EVAL_JSON_KEYS.items() if key in obj})
    elif ns.fmt == "csv":
        text = _csv_text([_csv_row(obj)], CSV_HEADER)
    elif "rhs" in obj:
        text = f"value {obj['lhs']!r}\ndobinski {obj['rhs']!r}\nabs_error {obj['abs_error']!r}\n"
    else:
        text = f"{obj['lhs']!r}\n"
    _emit(text, ns.output)
    return 0 if obj.get("passed", True) else 1


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        ns = parse_config(argv)  # -h writes its help through `_emit`
        return {"table": run_table, "verify": run_verify, "eval": run_eval}[ns.command](ns)
    except UsageError as exc:
        print(f"degenbell: error: {exc}", file=sys.stderr)
        return 2
