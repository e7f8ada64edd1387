"""Spans around calls into degenbell's layers, installed from outside.

`Tracer.install()` wraps each traced function and rebinds the wrapper
under every name that holds the original: in each degenbell module (the
modules bind imported names directly, so `suite` holds its own
`degenerate_bell`) and in the `MPoly` class (where `__radd__` is
`__add__`).  A wrapper counts calls and adds inclusive and self time to
its metric; inclusive time is taken at the outermost call only, so a
function that calls itself is not counted twice.  Spans are summed in
memory per metric and read out with `stats()`.

`poly.max_terms` and `poly.max_coeff_bits` are the largest term count
and coefficient size (bits of numerator or denominator) among the
polynomials returned by the traced constructors outside `poly`: they
change only when the objects computed change.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

MODULES = ("poly", "classical", "series", "degenerate", "numeric", "suite", "cli")

# metric -> (module, attribute path) of each function it spans.
TARGETS = {
    "poly.mul": [("poly", "MPoly.__mul__")],
    "poly.add": [("poly", "MPoly.__add__")],
    "poly.substitute": [("poly", "MPoly.substitute")],
    "poly.render": [("poly", "MPoly.pretty"), ("poly", "MPoly.to_json_obj")],
    "classical.falling_factorial": [("classical", "falling_factorial_general")],
    "classical.bell_polynomial": [("classical", "bell_polynomial")],
    "classical.stirling": [("classical", "stirling1"), ("classical", "stirling2")],
    "series.oracle_bell": [("series", "oracle_degenerate_bell")],
    "series.oracle_stirling": [("series", "oracle_degenerate_stirling2")],
    "series.mul": [("series", "series_mul")],
    "series.composita": [("series", "degenerate_exp_composita")],
    "degenerate.degenerate_bell": [("degenerate", "degenerate_bell")],
    "degenerate.degenerate_stirling2": [("degenerate", "degenerate_stirling2")],
    "degenerate.stirling_pair": [("degenerate", "dbell_via_stirling_pair")],
    "degenerate.classical_bell": [("degenerate", "dbell_via_classical_bell")],
    "degenerate.composita": [("degenerate", "dbell_via_composita")],
    "degenerate.recurrence": [("degenerate", "dbell_via_recurrence")],
    "degenerate.verify_addition": [("degenerate", "verify_addition")],
    "degenerate.verify_derivative": [("degenerate", "verify_derivative")],
    "suite.constructor_reports": [("suite", "constructor_reports")],
    "suite.degenerate_stirling_report": [("suite", "degenerate_stirling_report")],
    "suite.classical_limit_report": [("suite", "classical_limit_report")],
    "suite.classical_recurrence_report": [("suite", "classical_recurrence_report")],
    "suite.recurrence_limit_report": [("suite", "recurrence_limit_report")],
    "suite.numeric_checks": [("suite", "numeric_checks")],
    "numeric.eval_bel_numeric": [("numeric", "eval_bel_numeric")],
    "numeric.dobinski": [("numeric", "dobinski_check")],
    "numeric.scaled_bell_series": [("numeric", "scaled_bell_series_check")],
    "cli.parse": [("cli", "parse_config")],
    "cli.emit": [("cli", "_emit"), ("cli", "_json_text"), ("cli", "_csv_text")],
}
# Results of these layers feed poly.max_terms and poly.max_coeff_bits.
MEASURED_LAYERS = ("classical.", "series.oracle", "series.composita", "degenerate.")


class Tracer:
    def __init__(self) -> None:
        self.spans = {metric: [0, 0.0, 0.0] for metric in TARGETS}  # calls, inclusive, self
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._depth = dict.fromkeys(TARGETS, 0)
        self._restore: list[tuple[object, str, object]] = []

    def _observe(self, result: object) -> None:
        if type(result).__name__ != "MPoly":
            return
        self.max_terms = max(self.max_terms, len(result))
        for _, coeff in result.items():
            bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
            self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _wrap(self, metric: str, fn):
        span = self.spans[metric]
        stack, depth = self._stack, self._depth
        observe = self._observe if metric.startswith(MEASURED_LAYERS) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span[0] += 1
            depth[metric] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                span[2] += elapsed - stack.pop()
                depth[metric] -= 1
                if not depth[metric]:
                    span[1] += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"degenbell.{name}") for name in MODULES]
        namespaces = [sys.modules["degenbell"], *modules, modules[0].MPoly]
        for metric, targets in TARGETS.items():
            for module_name, path in targets:
                owner = importlib.import_module(f"degenbell.{module_name}")
                for part in path.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path.split(".")[-1], None)
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(metric, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._restore.append((namespace, attr, value))
                            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def stats(self) -> dict:
        return {
            "spans": {metric: list(values) for metric, values in self.spans.items()},
            "max_terms": self.max_terms,
            "max_coeff_bits": self.max_coeff_bits,
            "missing": self.missing,
        }


def merge(total: dict | None, part: dict) -> dict:
    """Sum the spans of two `Tracer.stats()` results; maxima stay maxima."""
    if total is None:
        return {**part, "spans": {k: list(v) for k, v in part["spans"].items()}}
    for metric, values in part["spans"].items():
        total["spans"][metric] = [a + b for a, b in zip(total["spans"][metric], values)]
    total["max_terms"] = max(total["max_terms"], part["max_terms"])
    total["max_coeff_bits"] = max(total["max_coeff_bits"], part["max_coeff_bits"])
    total["missing"] = sorted(set(total["missing"]) | set(part["missing"]))
    return total
