"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output) before asserting, so a red criterion still reports
itself.  All comparisons are exact rational equality, zero tolerance.
"""

import json
import math
from fractions import Fraction

from feident.cli import run
from feident.frobenius import bernoulli_polynomial, fe_number
from feident.poly import Polynomial
from feident.series import frobenius_oracle
from feident.stirling import coeff_closed_form, triangle_recurrence
from feident.verify import (
    audit_all,
    audit_document,
    verify_bernoulli_product,
    verify_carlitz,
    verify_carlitz_reciprocal,
    verify_corollary2,
    verify_corollary4,
    verify_corollary5,
    verify_product_multinomial,
    verify_theorem1,
    verify_theorem3,
)

U_GRID = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 7)]

EULER_VALUES = [
    Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(1, 4), Fraction(0),
    Fraction(-1, 2), Fraction(0), Fraction(17, 8), Fraction(0),
    Fraction(-31, 2), Fraction(0), Fraction(691, 4), Fraction(0),
    Fraction(-5461, 2), Fraction(0), Fraction(929569, 16), Fraction(0),
]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_triangle_equivalence():
    tri = triangle_recurrence(12)
    problems = []
    for n in range(1, 13):
        row = tri.row(n)
        if row[0] != math.factorial(n - 1) or row[-1] != 1:
            problems.append(f"boundary row {n}")
        for k in range(n):
            value = coeff_closed_form(k, n)
            if value.denominator != 1 or value != row[k]:
                problems.append(f"a_{k}({n})")
    if tri.row(3) != (2, 3, 1):
        problems.append("row 3")
    if tri.row(4) != (6, 11, 6, 1):
        problems.append("row 4")
    report("1 triangle equivalence", not problems, ", ".join(problems[:4]))


def test_criterion_2_number_oracle_agreement():
    problems = []
    for u in U_GRID:
        oracle = frobenius_oracle(u, 16)
        for n in range(17):
            if fe_number(n, u) != oracle[n]:
                problems.append(f"n={n}, u={u}")
    euler_column = [fe_number(n, Fraction(-1)) for n in range(17)]
    if euler_column != EULER_VALUES:
        problems.append("u=-1 column vs Euler numbers")
    if [fe_number(n, Fraction(2)) for n in range(5)] != [1, 1, 3, 13, 75]:
        problems.append("u=2 prefix")
    report("2 number/oracle agreement", not problems, ", ".join(problems[:4]))


def test_criterion_3_derivative_expansion_with_sign_audit():
    problems = []
    for n_order in range(1, 9):
        for u in U_GRID:
            corrected = verify_theorem1(n_order, u, 16, "corrected")
            if corrected.verdict != "pass":
                problems.append(f"corrected N={n_order}, u={u}")
            printed = verify_theorem1(n_order, u, 16, "as_printed")
            expected = "fail" if n_order % 2 == 0 else "pass"
            if printed.verdict != expected:
                problems.append(f"as_printed N={n_order}, u={u}")
    report("3 derivative expansion + sign audit", not problems, ", ".join(problems[:4]))


def test_criterion_4_higher_order_number_routes():
    problems = []
    for u in [Fraction(2), Fraction(1, 3), Fraction(-5, 7)]:
        for n in range(9):
            for order in range(1, 6):
                if verify_theorem3(n, order, u, "corrected").verdict != "pass":
                    problems.append(f"theorem3 n={n}, N={order}, u={u}")
                if verify_corollary4(n, order, u, "corrected").verdict != "pass":
                    problems.append(f"corollary4 n={n}, N={order}, u={u}")
    report("4 higher-order number routes", not problems, ", ".join(problems[:4]))


def test_criterion_5_polynomial_identities():
    problems = []
    for u in [Fraction(2), Fraction(1, 3)]:
        for n in range(9):
            for order in range(1, 5):
                if verify_corollary5(n, order, u, "corrected").verdict != "pass":
                    problems.append(f"corollary5 n={n}, N={order}, u={u}")
                if verify_product_multinomial(n, order, u).verdict != "pass":
                    problems.append(f"eq60 n={n}, N={order}, u={u}")
    report("5 polynomial identities", not problems, ", ".join(problems[:4]))


def test_criterion_6_carlitz_product():
    pairs = [
        (Fraction(2), Fraction(3)),
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(-2), Fraction(5)),
    ]
    problems = []
    for alpha, beta in pairs:
        for m in range(7):
            for n in range(7):
                if verify_carlitz(m, n, alpha, beta, "corrected").verdict != "pass":
                    problems.append(f"corrected m={m}, n={n}, a={alpha}, b={beta}")
        printed = verify_carlitz(0, 0, alpha, beta, "as_printed")
        expected_rhs = (1 - beta**2) / (1 - alpha * beta)
        if printed.verdict != "fail":
            problems.append(f"as_printed verdict a={alpha}, b={beta}")
        elif printed.mismatches[0].rhs != expected_rhs:
            problems.append(f"as_printed constant a={alpha}, b={beta}")
    report("6 carlitz product", not problems, ", ".join(problems[:4]))


def test_criterion_7_bernoulli_product():
    problems = []
    for m in range(1, 8):
        for n in range(1, 8):
            if m + n > 8:
                continue
            if verify_bernoulli_product(m, n).verdict != "pass":
                problems.append(f"m={m}, n={n}")
    square = bernoulli_polynomial(1) * bernoulli_polynomial(1)
    if square != Polynomial([Fraction(1, 4), -1, 1]):
        problems.append("m=n=1 square")
    report("7 bernoulli product", not problems, ", ".join(problems[:4]))


def test_criterion_8_audit_determinism(tmp_path):
    problems = []
    first = json.dumps(audit_document(audit_all()), indent=2)
    second = json.dumps(audit_document(audit_all()), indent=2)
    if first != second:
        problems.append("default audit not byte-identical")

    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    code1 = run(["audit", "--out", str(out1)])
    code2 = run(["audit", "--out", str(out2)])
    if out1.read_bytes() != out2.read_bytes():
        problems.append("CLI audit output not byte-identical")
    # default grid includes as-printed variants, which must fail -> exit 1
    if code1 != 1 or code2 != 1:
        problems.append(f"default audit exit {code1}/{code2}, expected 1")

    all_pass_grid = tmp_path / "grid.json"
    all_pass_grid.write_text(
        json.dumps({"bernoulli_product": {"m": [1, 2], "n": [1, 2]}}),
        encoding="utf-8",
    )
    if run(["audit", "--grid", str(all_pass_grid), "--out", str(tmp_path / "p.json")]) != 0:
        problems.append("all-pass audit should exit 0")
    report("8 audit determinism + exit contract", not problems, ", ".join(problems))


def test_criterion_9_reciprocal_parameter_audit():
    problems = []
    verdicts = {"pass": 0, "fail": 0}
    for alpha in [Fraction(2), Fraction(1, 2), Fraction(-2)]:
        for m in range(5):
            for n in range(5):
                rep = verify_carlitz_reciprocal(m, n, alpha)
                verdicts[rep.verdict] += 1
                if (rep.verdict == "pass") != (len(rep.mismatches) == 0):
                    problems.append(f"inconsistent report m={m}, n={n}, a={alpha}")
    detail = f"{verdicts['pass']} pass, {verdicts['fail']} fail recorded"
    report("9 reciprocal-parameter audit", not problems, detail)
