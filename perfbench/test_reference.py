"""Self-tests of the benchmark's reference and checks.

    python3 -m pytest perfbench -q

They import nothing from degenbell: they show that the reference agrees
with values worked by hand and that the checks reject a perturbed output.
"""

from fractions import Fraction

import mpmath
import pytest

import checks
import reference as ref


def test_bel2_matches_hand_value():
    # Bel_{2,λ}(x) = L^2x^2 - λLx + Lx
    assert ref.dbell_poly(2) == {(0, 2, 2, 0): 1, (1, 1, 1, 0): -1, (0, 1, 1, 0): 1}
    lam, x = 0.5, 1.25
    big_l = mpmath.log1p(lam) / lam
    hand = big_l**2 * x**2 - lam * big_l * x + big_l * x
    value, scale = ref.dbell_value(2, lam, x)
    assert value == pytest.approx(float(hand), rel=1e-15)
    assert scale >= abs(value)


def test_carlitz_triangle_against_hand_rows_and_classical_limit():
    # S2(3,1|λ) = (1-λ)(1-2λ), S2(3,2|λ) = 3 - 3λ
    assert ref.carlitz_row(3)[1] == (1, -3, 2)
    assert ref.carlitz_row(3)[2] == (3, -3)
    for n in range(12):
        assert [coeffs[0] for coeffs in ref.carlitz_row(n)] == list(ref.stirling2_row(n))
        assert sum(ref.stirling2_row(n)) == ref.bell_number(n)
    assert [ref.bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert ref.stirling1_row(4) == (0, -6, 11, -6, 1)


def test_pretty_parser():
    assert ref.poly_from_pretty("(1/2)λ^2L - 3x + 1") == {
        (2, 1, 0, 0): Fraction(1, 2),
        (0, 0, 1, 0): -3,
        (0, 0, 0, 0): 1,
    }
    assert ref.poly_from_pretty("-L^2x^2") == {(0, 2, 2, 0): -1}
    assert ref.poly_from_pretty("0") == {}
    with pytest.raises(ValueError):
        ref.poly_from_pretty("x^2 * x")


def test_table_check_accepts_reference_and_rejects_perturbed():
    good = "Bel_{0,λ}(x) = 1\nBel_{1,λ}(x) = Lx\nBel_{2,λ}(x) = L^2x^2 - λLx + Lx\n"
    checks.check_table("dbell", 2, "text", good, 0)
    with pytest.raises(checks.Mismatch):
        checks.check_table("dbell", 2, "text", good.replace("- λLx", "- 2λLx"), 0)
    with pytest.raises(checks.Mismatch):
        checks.check_table("dbell", 2, "text", good, 1)
    rows = "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,1\n2,2,1\n"
    checks.check_table("stirling2", 2, "csv", rows, 0)
    with pytest.raises(checks.Mismatch):
        checks.check_table("stirling2", 2, "csv", rows.replace("2,1,1", "2,1,2"), 0)


def test_eval_check_accepts_reference_and_rejects_perturbed():
    n, lam, x = 5, -0.4, 2.5
    value, _ = ref.dbell_value(n, lam, x)
    checks.check_eval(n, lam, x, False, "text", f"{value!r}\n", 0)
    perturbed = value * (1 + 1e-9)
    with pytest.raises(checks.Mismatch):
        checks.check_eval(n, lam, x, False, "text", f"{perturbed!r}\n", 0)
    text = f"value {value!r}\ndobinski {value!r}\nabs_error 0.0\n"
    checks.check_eval(n, lam, x, True, "text", text, 0)
    with pytest.raises(checks.Mismatch):
        checks.check_eval(n, lam, x, True, "text", text, 1)  # status disagrees with the error


def test_eval_check_rejects_the_underflowed_dobinski_value():
    value, _ = ref.dbell_value(3, 0.5, 1000.0)
    text = f"value {value!r}\ndobinski 0.0\nabs_error {value!r}\n"
    with pytest.raises(checks.Mismatch, match="dobinski"):
        checks.check_eval(3, 0.5, 1000.0, True, "text", text, 1)


def test_verify_check_rejects_a_failed_report():
    lines = [f"PASS {name} n={lo}..0" for name, lo in checks.VERIFY_REPORTS.items()]
    lines += [
        f"PASS {identity} n=0 lambda={lam} x={x} terms=80 abs_error=0.000e+00"
        for identity in ("dobinski_degenerate", "scaled_bell_series")
        for lam in checks.GRID_LAMBDAS
        for x in checks.GRID_XS
    ]
    lines.append("PASS dobinski_classical n=0 terms=80 abs_error=0.000e+00")
    good = "\n".join(lines + [f"{len(lines)} checks, all passed"]) + "\n"
    checks.check_verify(0, "text", good, 0)
    with pytest.raises(checks.Mismatch):
        checks.check_verify(0, "text", good.replace("PASS addition", "FAIL addition"), 0)
    with pytest.raises(checks.Mismatch):
        checks.check_verify(0, "text", good.replace("PASS derivative n=1..0\n", ""), 0)
