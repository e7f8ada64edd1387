"""Exact and numeric machinery for degenerate Bell polynomials.

The package constructs the degenerate Bell polynomials and degenerate
Stirling numbers of the second kind by several independent closed forms,
proves the forms pairwise equal as canonical polynomials in
Q[lambda, L, x, y] (with L a formal stand-in for log(1+lambda)/lambda),
and validates the infinite-series identities numerically.
"""
