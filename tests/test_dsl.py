import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msumma as ms
from msumma import parse_problem
from msumma.dsl import KEYS, ProblemFile, tokenize
from msumma.moments import LOG10_E, MomentFunction, lgamma_array
from msumma.scaled import from_log10_array

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


@pytest.mark.parametrize("s", ["0", "1/3", "1/2", "1", "2", "7/2"])
def test_gamma_coeffs_data_is_the_lgamma_table(s):
    # Gamma(1 + s*j) from the moment table equals its lgamma formula bit
    # for bit
    pf = parse_problem(
        f"equation: L - Z;\ndata: gamma_coeffs({s});\ntrunc_z: 300;\n"
        "kappa: 2;\n")
    phi = pf.to_problem().data[0]
    ref_m, ref_e = from_log10_array(
        lgamma_array(1.0 + float(Fraction(s)) * np.arange(301)) * LOG10_E)
    assert phi.kappa == 2
    assert phi.mant.tobytes() == ref_m.tobytes()
    assert phi.exp10.tobytes() == ref_e.tobytes()


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
    # an exponent needs digits: '1e+' is 1, e, +
    ("equation: L - Z;\ntrunc_t: 1e+;\ndata: coeffs(1);\n", 2, 11),
    # numbers beyond the float64 range
    ("equation: L - Z;\ndata: coeffs(1e400);\n", 2, 14),
    ("equation: L - Z;\ndata: gamma_coeffs(1e400);\n", 2, 20),
    ("equation: 1e400*L - Z;\ndata: coeffs(1);\n", 1, 11),
    ("equation: L - Z;\ndata: coeffs(1e-400);\n", 2, 14),  # underflow
    ("equation: L - Z²;\ndata: coeffs(1);\n", 1, 16),  # non-ASCII digit
    ("equation: L^1001 - Z;\ndata: coeffs(1);\n", 1, 13),  # exponent cap
    # in-range literals whose product, sum or power overflows
    ("equation: L - Z;\ndata: coeffs(1e308*10);\n", 2, 14),
    ("equation: L - 1e308*10*Z;\ndata: coeffs(1);\n", 1, 15),
    ("equation: L - Z;\ndata: coeffs(1e308 + 1e308);\n", 2, 14),
    ("equation: L - Z;\ndata: coeffs(1/10^400);\n", 2, 16),
    ("equation: L - Z;\ndata: rat(1/(1e308*10 - z));\n", 2, 14),
]


@pytest.mark.parametrize("src,line,col", MALFORMED)
def test_malformed_positions(src, line, col):
    with pytest.raises(ms.ParseError) as ei:
        parse_problem(src)
    assert ei.value.line == line
    assert ei.value.col == col
    assert ei.value.expected  # every syntax error names what it wanted


def test_exponents_up_to_the_cap_parse():
    pf = parse_problem(f"equation: L^{ms.dsl.MAX_EXPONENT} - Z;\n"
                       "data: coeffs(1);\n")
    assert pf.equation.coeffs == {(1000, 0): 1.0, (0, 1): -1.0}
    pf = parse_problem("equation: (L + Z)^5;\ndata: coeffs(1);\n")
    assert pf.equation.coeffs == {(5 - k, k): math.comb(5, k)
                                  for k in range(6)}


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


# -- property tests ------------------------------------------------------


@st.composite
def number_lexemes(draw):
    """(text, exact value) of a number literal: '12', '1.', '.5', '1.5',
    each with or without an exponent."""
    whole = draw(st.text("0123456789", max_size=4))
    frac = draw(st.text("0123456789", max_size=4) | st.none())
    if not whole and not frac:
        whole = "0"  # '', '.' and '.e5' are no numbers
    text = whole + ("" if frac is None else "." + frac)
    value = Fraction(int(whole or "0")) + Fraction(int(frac or "0"),
                                                   10 ** len(frac or ""))
    if draw(st.booleans()):
        exp = draw(st.integers(-20, 20))
        sign = "+" if exp >= 0 and draw(st.booleans()) else ""
        text += draw(st.sampled_from("eE")) + sign + str(exp)
        value *= Fraction(10) ** exp
    return text, value


IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
    lambda w: w != "i")


@st.composite
def lexemes(draw):
    """(text, kind, value) of one token."""
    kind = draw(st.sampled_from(["NUM", "IMAG", "IDENT", "OP"]))
    if kind == "NUM":
        text, value = draw(number_lexemes())
        return text, kind, value
    if kind == "IMAG":
        if draw(st.booleans()):
            return "i", kind, Fraction(1)
        text, value = draw(number_lexemes())
        return text + "i", kind, value
    text = draw(IDENTS if kind == "IDENT" else st.sampled_from(":;,()+-*/^"))
    return text, kind, text


SEPARATORS = st.text(" \t\r\n", min_size=1, max_size=3) | st.sampled_from(
    ["# comment\n", "#\n", " # é ² ~\n"])


def advance(line, col, text):
    """(line, col) after writing text at (line, col)."""
    if "\n" in text:
        return line + text.count("\n"), len(text) - text.rfind("\n")
    return line, col + len(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(lexemes(), SEPARATORS), max_size=12),
       SEPARATORS | st.just(""), st.sampled_from(["", "  ", "# tail é"]))
def test_written_tokens_tokenize_back(pairs, lead, tail):
    # every token is followed by a separator, so no two of them merge
    text, line, col = lead, *advance(1, 1, lead)
    want = []
    for (lexeme, kind, value), sep in pairs:
        want.append((kind, lexeme, value, line, col))
        line, col = advance(line, col, lexeme + sep)
        text += lexeme + sep
    text += tail
    want.append(("EOF", "", None, *advance(line, col, tail)))
    got = [(t.kind, t.text, t.value, t.line, t.col) for t in tokenize(text)]
    assert got == want


DSL_FRAGMENTS = st.sampled_from([
    "equation", "m1", "m2", "data", "trunc_t", "trunc_z", "kappa",
    "gevrey_s", "Gamma", "coeffs", "rat", "gamma_coeffs", "L", "Z", "z",
    "i", "e", "x", ":", ";", ",", "(", ")", "+", "-", "*", "/", "^", ".",
    "0", "1", "1.", "1.5", ".5", "2E-1", "2i", "1e+", "4e-320", "1e400",
    "1e-400", "2e-330", "#", "²", "é", "~"])


GAPS = st.sampled_from([" ", "\n", "\t"])


@st.composite
def dsl_texts(draw):
    """Statements 'key: fragments;' of random keys and fragments, with a
    separator after every fragment: each number stays as drawn, and with
    no integer above 1 no power L^k or (L+Z)^k grows large."""
    text = ""
    for _ in range(draw(st.integers(0, 4))):
        text += draw(st.sampled_from(KEYS)) + draw(st.sampled_from(":;"))
        for _ in range(draw(st.integers(0, 12))):
            text += draw(DSL_FRAGMENTS) + draw(GAPS)
        text += ";" + draw(GAPS)
    return text


@settings(max_examples=500, deadline=None)
@given(dsl_texts())
def test_parse_problem_raises_only_parse_errors(text):
    try:
        parse_problem(text)
    except ms.ParseError:
        pass


GAMMA_ORDERS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def moment_functions(draw):
    m = MomentFunction.gamma(draw(GAMMA_ORDERS))
    for s in draw(st.lists(GAMMA_ORDERS, max_size=3)):
        f = MomentFunction.gamma(s)
        m = m * f if draw(st.booleans()) else m / f
    return m


@settings(max_examples=100, deadline=None)
@given(moment_functions(), moment_functions())
@example(MomentFunction.gamma(2), MomentFunction.gamma(1))
def test_pretty_writes_the_moments_it_holds(m1, m2):
    pf = dataclasses.replace(parse_problem(HEAT), m1=m1, m2=m2)
    again = parse_problem(pf.pretty())
    assert (again.m1, again.m2) == (m1, m2)
    assert again == pf


@pytest.mark.parametrize("m", [
    MomentFunction(()), MomentFunction(((Fraction(1), -1),)),
    MomentFunction.gamma(1, a=2.0)], ids=["empty", "1/Gamma(1)", "a=2"])
def test_moment_without_a_problem_file_form(m):
    pf = dataclasses.replace(parse_problem(HEAT), m1=m)
    with pytest.raises(ValueError, match="no problem-file form"):
        pf.pretty()
