"""The lambda -> 0 convergence sweep, a smoke test for the
`python -m degenbell` entry point, checks of the package's imports:
standard library only, no private names across modules, the package
modules each layer may import, and no module but `poly` touching a
polynomial's packed layout, and a trace showing that the commands enter
every function of the package but a listed few."""

import ast
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import degenbell
from degenbell import cli, suite
from degenbell.poly import LAM
from test_numeric import limit_sweep

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_limit_convergence_error_shrinks():
    # lambda = 10^-1..10^-8 at n = 4, x = 1: the error against Bel_4(1) = 15
    # shrinks at every step.
    lambdas = [10.0**-k for k in range(1, 9)]
    checks = limit_sweep(4, 1.0, lambdas)
    assert [c.lam for c in checks] == lambdas
    assert all(c.rhs == 15.0 and c.abs_error == abs(c.lhs - c.rhs) for c in checks)
    errors = [c.abs_error for c in checks]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))


def test_module_entry_point_writes_utf8(capsys):
    # An ASCII stdout would fail on the λ in every dbell label unless the
    # entry point switches stdout to UTF-8.
    args = ["table", "--family", "dbell", "--n-max", "3"]
    env = {**src_env(), "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-m", "degenbell", *args], capture_output=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert cli.main(args) == 0
    expected = capsys.readouterr().out
    assert "λ" in expected
    assert proc.stdout == expected.encode("utf-8")


def test_package_imports_only_the_standard_library_and_public_names():
    # src/ depends on nothing outside the standard library, and no module
    # reaches into another's private (underscore) names.
    allowed = {*sys.stdlib_module_names, "degenbell"}
    outside, private = [], []
    for path in sorted((ROOT / "src" / "degenbell").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                outside += [(path.name, a.name) for a in node.names if a.name.split(".")[0] not in allowed]
            elif isinstance(node, ast.ImportFrom):
                top = "degenbell" if node.level else node.module.split(".")[0]
                if top not in allowed:
                    outside.append((path.name, node.module))
                elif top == "degenbell":
                    private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert outside == []
    assert private == []


# The package modules each layer may import.  The oracle (series) stands on
# the polynomial ring alone, so it shares no code with the closed forms it
# judges; the float checks read only the integer rows of classical; the
# closed forms need the ring and the classical rows, not the oracle.
LAYER_IMPORTS = {
    "series.py": {"poly"},
    "numeric.py": {"classical"},
    "degenerate.py": {"poly", "classical"},
}


def package_imports(path: Path) -> set[str]:
    """The degenbell modules that one source file imports, by short name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = f"degenbell.{node.module or ''}".rstrip(".") if node.level else node.module
            names = [module] if module != "degenbell" else [f"degenbell.{a.name}" for a in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("degenbell.")}
    return found


def test_package_imports_stay_within_each_layer():
    src = ROOT / "src" / "degenbell"
    extra = {name: package_imports(src / name) - allowed for name, allowed in LAYER_IMPORTS.items()}
    assert extra == {name: set() for name in LAYER_IMPORTS}


def test_only_poly_touches_the_packed_layout():
    # A polynomial's keys pack its exponents in a layout private to poly:
    # every other module builds polynomials from exponent tuples with
    # MPoly.from_ints and reads them through the public methods.
    private = {"_num", "_den", "_trusted"}
    found = []
    for path in sorted((ROOT / "src" / "degenbell").glob("*.py")):
        if path.name != "poly.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


def test_every_export_is_read_inside_the_package():
    # No dead exports: each name in degenbell.__all__ is read by some module
    # of the package other than the one that re-exports it.
    read = set()
    for path in sorted((ROOT / "src" / "degenbell").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(set(degenbell.__all__) - read) == []


# The functions of the package that no command enters, each with the reason it stays.
NOT_RUN_BY_COMMANDS = {
    "MPoly.__init__": "the Fraction front of from_ints, for library callers and the tests",
    "MPoly.items": "read by the tests' audit and the benchmark tracer",
    "MPoly.__len__": "read by the tests' audit and the benchmark tracer",
    "MPoly.__hash__": "the ring's operator API",
    "MPoly.__repr__": "the ring's operator API",
    "MPoly.__neg__": "the ring's operator API",
    "MPoly.__pow__": "the ring's operator API",
}


def package_functions(code: types.CodeType, prefix: str = "") -> dict[tuple[str, int], str]:
    """The qualified name of every function compiled into `code`, keyed by
    (file, first line), which the code object of the imported function shares."""
    found = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):  # not a comprehension or lambda
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                found[const.co_filename, const.co_firstlineno] = name
            found |= package_functions(const, name + ".")
    return found


def test_commands_enter_every_function_but_the_listed_ones(tmp_path, monkeypatch):
    # One command of every shape, run in process under a profiler that records
    # each function entered; src/ holds only what some command runs, apart from
    # NOT_RUN_BY_COMMANDS.  Every cache is emptied first: a hit never enters
    # the cached function.  The last verify fails, with S2(5,2|λ) given an
    # extra λ, so a report prints its first failure's polynomials.
    src = Path(degenbell.__file__).parent
    defined = {}
    for path in sorted(src.glob("*.py")):
        defined |= package_functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    for module in [module for name, module in sys.modules.items() if name.split(".")[0] == "degenbell"]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    point = ["--n", "5", "--lambda", "0.5", "--x", "1.5"]
    commands = [["table", "--family", family, "--n-max", "4", "--format", fmt] for family in cli.FAMILIES for fmt in cli.FORMATS]
    for fmt in cli.FORMATS:
        commands += [["verify", "--n-max", "3", "--format", fmt], ["eval", *point, "--format", fmt], ["eval", *point, "--dobinski", "--format", fmt]]
    commands += [
        ["eval", "--n", "4", "--lambda", "-0.3", "--x", "-50"],
        ["eval", "--n", "2", "--lambda", "0.5", "--x", "1000", "--dobinski"],
        ["eval", "--n", "2", "--lambda", "0.5", "--x", "1e10", "--dobinski"],
        ["table", "--family", "bell", "--output", str(tmp_path)],
    ]
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    original = suite.degenerate_stirling2

    def mutated(n, m):
        return original(n, m) + LAM if (n, m) == (5, 2) else original(n, m)

    codes = []
    sys.setprofile(record)
    try:
        codes += [cli.main(argv) for argv in commands]
        for argv in (["table", "--bogus"], ["-h"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            codes.append(exit_info.value.code)
        with monkeypatch.context() as patch:
            patch.setattr(suite, "degenerate_stirling2", mutated)
            codes.append(cli.main(["verify", "--n-max", "5", "--format", "json"]))
    finally:
        sys.setprofile(None)
    assert codes == [0] * (len(commands) - 3) + [1, 2, 2, 2, 0, 1]
    never = {name for (file, line), name in defined.items() if (file, line) not in entered}
    assert sorted(never) == sorted(NOT_RUN_BY_COMMANDS)
