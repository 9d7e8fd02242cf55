import math
from fractions import Fraction

import numpy as np
import pytest

import msumma as ms
from msumma import parse_problem
from msumma.dsl import ProblemFile, tokenize

HEAT = """\
equation: L - Z^2;
m1: Gamma(1);
m2: Gamma(1);
data: rat(1/(1-z));
trunc_t: 19;
trunc_z: 41;
"""


def test_parse_heat():
    pf = parse_problem(HEAT)
    assert pf.equation.coeffs == {(1, 0): 1.0, (0, 2): -1.0}
    assert pf.trunc_t == 19 and pf.trunc_z == 41
    assert pf.kappa == 1 and pf.gevrey_s == 0
    assert pf.m1.order() == 1


def test_defaults():
    pf = parse_problem("equation: L - Z;\ndata: coeffs(1, 2, 3);\n")
    assert pf.trunc_t == 20 and pf.trunc_z == 80
    assert pf.m1 == pf.m2
    assert pf.gevrey_s == 0


def test_rat_materialization():
    prob = parse_problem(HEAT).to_problem()
    phi = prob.data[0]
    for n in range(10):
        assert abs(phi.coeff_complex(n) - 1.0) < 1e-14


def test_rat_nontrivial_numerator():
    pf = parse_problem(
        "equation: L - Z;\ndata: rat((1+z)/(1-2*z));\ntrunc_z: 10;\n")
    phi = pf.to_problem().data[0]
    # (1+z)/(1-2z) = 1 + 3z + 6z^2 + 12z^3 + ...
    assert abs(phi.coeff_complex(0) - 1.0) < 1e-14
    for n in range(1, 8):
        assert abs(phi.coeff_complex(n) - 3.0 * 2.0 ** (n - 1)) < 1e-12


def test_gamma_coeffs_data():
    pf = parse_problem(
        "equation: L - Z;\ndata: gamma_coeffs(1);\ntrunc_z: 30;\n")
    phi = pf.to_problem().data[0]
    for n in range(20):
        expect = math.factorial(n)
        assert abs(phi.coeff_complex(n) - expect) <= 1e-13 * expect


@pytest.mark.parametrize("s", ["-1/2", "-1/3"])
def test_gamma_coeffs_negative_s_rejected(s):
    # -1/2 meets a pole of Gamma at j = 2; -1/3 would lose the sign of Gamma
    pf = parse_problem(
        f"equation: L - Z;\ndata: gamma_coeffs({s});\ntrunc_z: 10;\n")
    with pytest.raises(ms.SemanticError, match=rf"gamma_coeffs\({s}\)"):
        pf.to_problem()


def test_complex_coefficients_and_moments():
    src = ("equation: (2+3i)*L^2 - Z;\n"
           "m1: Gamma(1/2) * Gamma(1);\n"
           "m2: Gamma(2) / Gamma(1/2);\n"
           "data: coeffs(1, 2i, -3/4);\n")
    pf = parse_problem(src)
    assert pf.equation.coeffs[(2, 0)] == 2 + 3j
    assert pf.m1.order() == Fraction(3, 2)
    assert pf.m2.order() == Fraction(3, 2)
    assert pf.data[0][1][1] == 2j
    assert pf.data[0][1][2] == -0.75


def test_implicit_multiplication_and_comments():
    src = ("# wave factorized\n"
           "equation: (L - Z)(L + Z);  # dAlembert\n"
           "data: coeffs(1), coeffs(0, 1);\n")
    pf = parse_problem(src)
    assert pf.equation.coeffs == {(2, 0): 1.0, (0, 2): -1.0}
    assert len(pf.data) == 2


def test_pretty_parse_roundtrip():
    pf = parse_problem(HEAT)
    again = parse_problem(pf.pretty())
    assert again == pf
    # idempotent pretty-printing
    assert again.pretty() == pf.pretty()


def test_pretty_roundtrip_complex():
    src = ("equation: (1-2i)*L^2 + 3*L*Z - Z^3;\n"
           "m1: Gamma(2);\n"
           "data: coeffs(1+1i, -2), gamma_coeffs(1/2);\n"
           "kappa: 2;\ngevrey_s: 1/3;\n")
    pf = parse_problem(src)
    assert parse_problem(pf.pretty()) == pf


def test_to_problem_row_count_mismatch():
    pf = parse_problem("equation: L^2 - Z;\ndata: coeffs(1);\n")
    with pytest.raises(ms.SemanticError):
        pf.to_problem()


def test_rat_zero_constant_denominator():
    pf = parse_problem("equation: L - Z;\ndata: rat(1/(z));\n")
    with pytest.raises(ms.SemanticError):
        pf.to_problem()


def test_tokenizer_positions():
    toks = tokenize("equation: L;\n  m1: Gamma(1);")
    assert (toks[0].line, toks[0].col) == (1, 1)
    eq = [t for t in toks if t.text == "m1"][0]
    assert (eq.line, eq.col) == (2, 3)


MALFORMED = [
    # (source, line, col)
    ("equation L - Z;\ndata: coeffs(1);\n", 1, 10),      # missing ':'
    ("equation: L - ;\ndata: coeffs(1);\n", 1, 15),      # dangling operator
    ("equation: L - Z\ndata: coeffs(1);\n", 2, 1),       # missing ';'
    ("equation: L - Q;\ndata: coeffs(1);\n", 1, 15),     # unknown symbol
    ("equation: L^-2;\ndata: coeffs(1);\n", 1, 13),      # negative exponent
    ("equation: L - Z;\nm1: Gamma 1);\ndata: coeffs(1);\n", 2, 11),
    ("equation: L - Z;\ndata: coeffs(1,);\n", 2, 16),    # trailing comma
    ("equation: L - Z;\ndata: stuff(1);\n", 2, 7),       # unknown spec
    ("equation: L - Z;\ntrunc_t: -3;\ndata: coeffs(1);\n", 2, 10),
    ("equation: L - Z;\nkappa: 1/2;\ndata: coeffs(1);\n", 2, 9),
]


@pytest.mark.parametrize("src,line,col", MALFORMED)
def test_malformed_positions(src, line, col):
    with pytest.raises(ms.ParseError) as ei:
        parse_problem(src)
    assert ei.value.line == line
    assert ei.value.col == col
    assert ei.value.expected  # every syntax error names what it wanted


def test_duplicate_key():
    src = "equation: L;\nequation: Z;\ndata: coeffs(1);\n"
    with pytest.raises(ms.ParseError) as ei:
        parse_problem(src)
    assert ei.value.line == 2 and ei.value.col == 1


def test_missing_required_statements():
    with pytest.raises(ms.ParseError):
        parse_problem("data: coeffs(1);\n")
    with pytest.raises(ms.ParseError):
        parse_problem("equation: L - Z;\n")


def test_unexpected_character():
    with pytest.raises(ms.ParseError) as ei:
        parse_problem("equation: L ~ Z;\n")
    assert ei.value.line == 1 and ei.value.col == 13
