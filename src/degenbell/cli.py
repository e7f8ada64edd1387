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

import functools
import math
import os
import sys
from json.encoder import encode_basestring
from types import GeneratorType, SimpleNamespace
from typing import TYPE_CHECKING

from .classical import bell_terms, stirling_rows
from .degenerate import dbell_terms, dstirling_terms
from .numeric import DEFAULT_TERMS, DEFAULT_TOL, dobinski_check, eval_bel_numeric
from .poly import VARIABLES, Exponents, MPoly, render_text
from .suite import run_full_suite

if TYPE_CHECKING:
    import argparse

FAMILIES = ("bell", "stirling1", "stirling2", "dstirling", "dbell")
FORMATS = ("text", "json", "csv")
CSV_HEADER = ["identity", "n", "lambda", "x", "terms", "lhs", "rhs", "abs_error", "passed"]
# The largest --terms.  The weights (x L)^k / k! reach 0.0 by k = 2571 for every
# |x L| <= 709, and past that they or exp(-x L) leave float range, so further
# terms add exact zeros; 10 000 leaves room and bounds `verify --n-max 8` near
# 0.5 s and 25 MB, where --terms 10^6 took about a minute and 1 GB.
MAX_TERMS = 10_000
# The largest n of each command (`--n-max`, eval's `--n`): a round n whose slowest input stays within its
# budget on a shared 2-core x86 machine where the next size measured does not (peak RSS, fresh processes).
# - table, a second and 150 MB: the tables grow as n^3 terms; at 100 the largest (dbell, dstirling)
#   takes 0.7 s and 146 MB and writes 40 MB of JSON, at 120 1.5 s and 256 MB.
# - verify, a minute and 1 GB: about n^5; with --terms 10000, 27 s and 70 MB at 60, 70 s and 104 MB at 70.
# - eval, 2 s and 100 MB: the exact coefficients of L^m carry the n-th powers of the denominators of
#   lambda and x, so lambda = x = 5e-324 (2^-1074) is slowest: 1.5 s and 25 MB at 200, 7.5 s at 300.
MAX_N = {"table": 100, "verify": 60, "eval": 200}


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
# Per command, from `FLAGS`: its flags by name, its namespace's defaults and
# the names of its required flags, which `_fast_parse` copies, never changes.
_COMMAND_TABLES = {
    command: (
        {flag[1]: flag for flag in FLAGS if command in flag[0]},
        {"command": command, **{dest: default for names, _, dest, _, _, default, *_ in FLAGS if command in names}},
        frozenset(name for names, name, *_, required, _ in FLAGS if command in names and required),
    )
    for command in COMMANDS
}


def _is_negative_number(token: str) -> bool:  # argparse's ^-\d+$|^-\d*\.\d+$, the "-" tokens it takes as values
    return token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The attributes of argparse's namespace for argv, or None unless every
    token after the command is an exact flag of it or `--flag=value` whose
    value argparse would take, convert and accept, and every required flag
    is given."""
    if not argv or argv[0] not in _COMMAND_TABLES:
        return None
    flags, defaults, required = _COMMAND_TABLES[argv[0]]
    values, missing = dict(defaults), set(required)
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
    return None if missing else SimpleNamespace(**values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `FLAGS`, built on first use for help, errors and
    what `_fast_parse` declines; parsing leaves it unchanged.  argparse is
    imported here, so a command line of the flag table never loads it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser with its help written by `_emit`, so that a failed
        write to standard output is a usage error, not swallowed."""

        def print_help(self, file=None) -> None:
            _emit(self.format_help(), None)

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


def parse_config(argv: list[str] | None = None) -> SimpleNamespace | argparse.Namespace:
    """Parse and validate argv (default `sys.argv[1:]`).  Every command has
    `n_max`, `fmt` and `output`; `verify` and `eval` add `terms` and `tol`."""
    ns = _fast_parse(sys.argv[1:] if argv is None else argv)
    if ns is None:
        ns = _build_parser().parse_args(argv)
        for names, name, dest, *_ in FLAGS:  # argparse drops the "--" of --flag=-- and stores []
            if ns.command in names and getattr(ns, dest) == []:
                _build_parser().error(f"argument {name}: expected one argument")
    if not 0 <= ns.n_max <= MAX_N[ns.command]:
        bound = ">= 0" if ns.n_max < 0 else f"<= {MAX_N[ns.command]}"
        _build_parser().error(f"{'--n' if ns.command == 'eval' else '--n-max'} must be {bound}")
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
    with an `MPoly` leaf (a failing report's side) written as its
    `to_json_obj()`, and so a generator leaf (a table's entry), which must
    yield the terms of a polynomial as `MPoly.terms()` does.

    `indent` sends `json.dumps` to its pure-Python encoder.  Here leaves go
    through the C string encoder and `int`/`float.__repr__`, each key's text,
    with its comma and indent, is made once per depth, and so is the text
    after a term's coefficient (its "pow" object and closing brace) for each
    exponent vector, filled into one template per depth.
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
        elif kind is MPoly or kind is GeneratorType:
            if depth not in polys:
                pad = "  " * (depth + 2)
                fields = ",".join(f"\n{pad}  {encode_basestring(name)}: %d" for name in VARIABLES)
                pow_texts[depth] = f'",\n{pad}"pow": {{{fields}\n{pad}}}\n{pad[2:]}}}'
                polys[depth] = ({}, f',\n{pad[2:]}{{\n{pad}"coeff": "')
            tails, head = polys[depth]
            start = len(chunks)
            for exponents, num, den in value.terms() if kind is MPoly else value:
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
    """The header and rows as CSV lines: fields joined by commas, None as an
    empty field, a float as its repr.  No field the commands write holds a
    comma, a quote or a line break, and every row has two fields or more, so
    no field needs quoting (test_cli's CSV field guard checks both)."""
    return "".join(",".join(["" if cell is None else str(cell) for cell in row]) + "\n" for row in (header, *rows))


# -- table ----------------------------------------------------------------

# family -> (index names, text label, one entry's term stream) for the tables of polynomials: the
# streams that `bell_polynomial`, `dbell_via_stirling_pair` and `degenerate_stirling2` are built from.
POLY_TABLES = {
    "bell": (("n",), "Bel_{}(x)", bell_terms),
    "dbell": (("n",), "Bel_{{{},λ}}(x)", dbell_terms),
    "dstirling": (("n", "m"), "S2({},{}|λ)", dstirling_terms),
}


def run_table(ns: SimpleNamespace | argparse.Namespace) -> int:
    """Polynomials indexed by (n,) or (n, m), or integer rows for the
    classical Stirling triangles, rendered in the one requested format."""
    n_range = range(ns.n_max + 1)
    if ns.family in POLY_TABLES:
        keys, label, terms = POLY_TABLES[ns.family]
        indices = [(n, m) for n in n_range for m in range(n + 1)] if len(keys) == 2 else [(n,) for n in n_range]
        if ns.fmt == "text":
            text = "".join(f"{label.format(*index)} = {render_text(terms(*index))}\n" for index in indices)
        elif ns.fmt == "json":
            text = _json_text([dict(zip(keys, index), poly=terms(*index)) for index in indices])
        else:
            text = _csv_text([[*index, render_text(terms(*index))] for index in indices], [*keys, "poly"])
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
    report's n is its range, "lo..hi", and a missing key reads None, which
    `_csv_text` writes as an empty field."""
    cells = {**obj, "n": "{}..{}".format(*obj["range"])} if "range" in obj else obj
    return [cells.get(key) for key in CSV_HEADER]


def run_verify(ns: SimpleNamespace | argparse.Namespace) -> int:
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


def run_eval(ns: SimpleNamespace | argparse.Namespace) -> int:
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
