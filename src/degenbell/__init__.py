"""Exact and numeric machinery for degenerate Bell polynomials.

The package constructs the degenerate Bell polynomials and degenerate
Stirling numbers of the second kind by several independent closed forms,
proves the forms pairwise equal as canonical polynomials in
Q[lambda, L, x, y] (with L a formal stand-in for log(1+lambda)/lambda),
and validates the infinite-series identities numerically.
"""

from .poly import L, LAM, MPoly, X, Y
from .classical import bell_polynomial, falling_factorials, stirling_rows
from .series import (
    degenerate_exp_minus_one,
    oracle_degenerate_bell_table,
    oracle_degenerate_stirling2_table,
    series_mul,
)
from .degenerate import (
    VerificationReport,
    composition_coefficient,
    dbell_classical_bell_table,
    dbell_composita_table,
    dbell_recurrence_table,
    dbell_via_stirling_pair,
    degenerate_bell,
    degenerate_exp_composita,
    degenerate_stirling2,
    limit_lambda_zero,
)
from .numeric import (
    NumericCheck,
    classical_dobinski_check,
    dobinski_check,
    dobinski_classical,
    dobinski_degenerate,
    eval_bel_numeric,
)
from .suite import SuiteResult, run_full_suite

__all__ = [
    "L",
    "LAM",
    "MPoly",
    "NumericCheck",
    "SuiteResult",
    "VerificationReport",
    "X",
    "Y",
    "bell_polynomial",
    "classical_dobinski_check",
    "composition_coefficient",
    "dbell_classical_bell_table",
    "dbell_composita_table",
    "dbell_recurrence_table",
    "dbell_via_stirling_pair",
    "degenerate_bell",
    "degenerate_exp_composita",
    "degenerate_exp_minus_one",
    "degenerate_stirling2",
    "dobinski_check",
    "dobinski_classical",
    "dobinski_degenerate",
    "eval_bel_numeric",
    "falling_factorials",
    "limit_lambda_zero",
    "oracle_degenerate_bell_table",
    "oracle_degenerate_stirling2_table",
    "run_full_suite",
    "series_mul",
    "stirling_rows",
]
