"""Problem-file DSL: tokenizer, recursive-descent parser, pretty-printer.

Lexical grammar (ASCII only; one regular expression, _TOKEN):

    number   := (digits ['.' [digits]] | '.' digits)
                [('e'|'E') ['+'|'-'] digits]
    imag     := number 'i' | 'i'
    ident    := (letter | '_') (letter | digit | '_')*
    op       := one of : ; , ( ) + - * / ^
    blanks   := space, tab and carriage return; '\n' ends a line;
                '#' starts a comment to the end of the line, of any text

An exponent needs its digits, so '1e+x' is 1, e, +, x.  A number must lie
in the float64 range: one whose float64 value is infinite, or zero
although a digit is not, is a ParseError at its own position, as is a
character outside this grammar (any non-ASCII one outside a comment).

Grammar (EBNF):

    problem  := stmt+
    stmt     := key ':' value ';'
    key      := 'equation' | 'm1' | 'm2' | 'data' | 'trunc_t' | 'trunc_z'
              | 'kappa' | 'gevrey_s'
    equation := polynomial over symbols L (lambda) and Z (zeta) with
                + - * / ^ ( ), implicit multiplication '(L-Z)(L+Z)',
                rationals 'p/q' and complex literals 'a+bi'
    moment   := 'Gamma' '(' rational ')' (('*'|'/') 'Gamma' '(' rational ')')*
    data     := spec (',' spec)* where spec is 'coeffs(c0, c1, ...)',
                'rat(p(z)/q(z))' or 'gamma_coeffs(s)'

An exponent '^k' takes an integer k from 0 to MAX_EXPONENT, and every
coefficient an expression computes must be finite: one that overflows is
a ParseError at the start of its factor, term or expression.

All syntax errors carry (line, column, expected tokens).
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .characteristic import CharPolynomial
from .errors import ParseError, SemanticError
from .moments import MomentFunction
from .series import RamifiedSeries

KEYS = ("equation", "m1", "m2", "data", "trunc_t", "trunc_z", "kappa",
        "gevrey_s")
MAX_EXPONENT = 1000
# one alternative per lexeme class; 'bad' takes any other character
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r]+|\#.*)
  | (?P<newline>\n)
  | (?P<num>(?P<digits>\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>[:;,()+\-*/^])
  | (?P<bad>.)
""", re.ASCII | re.VERBOSE)


class Token(NamedTuple):
    kind: str  # IDENT | NUM | IMAG | OP | EOF
    text: str
    value: object
    line: int
    col: int


def _number(m: re.Match, line: int, col: int) -> Token:
    """NUM or IMAG token of a number match, its exact value a Fraction.

    A nonzero number must have a finite, nonzero float64 value and no more
    digits than int() converts (sys.get_int_max_str_digits); a zero one is
    Fraction(0) at any exponent, so no huge power of ten is ever built.
    """
    text = m.group()
    lit = text.removesuffix("i")
    value = Fraction(0)
    if m.group("digits").strip("0."):
        try:
            if not 0.0 < abs(float(lit)) < math.inf:
                raise ValueError(lit)
            # int() parses an integer faster than Fraction(str); both
            # raise ValueError past int()'s digit limit
            value = Fraction(int(lit)) if lit.isdigit() else Fraction(lit)
        except ValueError:
            raise ParseError("number outside the float64 range", line, col,
                             expected="a float64 number") from None
    return Token("IMAG" if text != lit else "NUM", text, value, line, col)


def tokenize(text: str) -> list[Token]:
    """Tokens of text, ending in EOF; positions from the match offsets."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "num":
            toks.append(_number(m, line, col))
        elif kind == "ident":
            toks.append(Token("IMAG", lexeme, Fraction(1), line, col)
                        if lexeme == "i" else
                        Token("IDENT", lexeme, lexeme, line, col))
        elif kind == "op":
            toks.append(Token("OP", lexeme, lexeme, line, col))
        elif kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, col,
                             expected="token")
    toks.append(Token("EOF", "", None, line, len(text) - line_start + 1))
    return toks


@dataclass(frozen=True, eq=False)
class ProblemFile:
    equation: CharPolynomial
    m1: MomentFunction
    m2: MomentFunction
    data: tuple  # data spec ASTs, see _materialize
    trunc_t: int = 20
    trunc_z: int = 80
    kappa: int = 1
    gevrey_s: Fraction = Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProblemFile)
                and self.equation.coeffs == other.equation.coeffs
                and self.m1 == other.m1 and self.m2 == other.m2
                and len(self.data) == len(other.data)
                and all(_spec_eq(a, b)
                        for a, b in zip(self.data, other.data))
                and (self.trunc_t, self.trunc_z, self.kappa, self.gevrey_s)
                == (other.trunc_t, other.trunc_z, other.kappa, other.gevrey_s))

    def pretty(self) -> str:
        lines = [f"equation: {_format_poly(self.equation)};",
                 f"m1: {_format_moment(self.m1)};",
                 f"m2: {_format_moment(self.m2)};",
                 f"data: {', '.join(_format_spec(s) for s in self.data)};",
                 f"trunc_t: {self.trunc_t};",
                 f"trunc_z: {self.trunc_z};",
                 f"kappa: {self.kappa};",
                 f"gevrey_s: {self.gevrey_s};"]
        return "\n".join(lines) + "\n"

    def to_problem(self):
        from .solver import PdeProblem

        series = tuple(_materialize(s, self.kappa, self.trunc_z)
                       for s in self.data)
        return PdeProblem(P=self.equation, m1=self.m1, m2=self.m2,
                          data=series, gevrey_s=self.gevrey_s,
                          trunc_t=self.trunc_t)


def _spec_eq(a, b) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "rat":
        return a[1].coeffs == b[1].coeffs and a[2].coeffs == b[2].coeffs
    return a[1:] == b[1:]


def _format_moment(m: MomentFunction) -> str:
    """Gamma(s) per factor, joined by ' * ' or ' / ' by its sign."""
    if not m.factors or m.factors[0][1] < 0 or \
            (m.scale_a, m.shift_b) != (1.0, 1.0):
        raise ValueError(f"{m} has no problem-file form")
    text = "".join(f" {'*' if sign > 0 else '/'} Gamma({s})"
                   for s, sign in m.factors)
    return text[3:]  # without the first factor's ' * '


def _format_complex(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0:
        return _num(re)
    if re == 0:
        return f"{_num(im)}i"
    sign = "+" if im >= 0 else "-"
    return f"({_num(re)}{sign}{_num(abs(im))}i)"


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_poly(p: CharPolynomial, lam="L", zeta="Z") -> str:
    if not p.coeffs:
        return "0"
    out = []
    for (a, b), c in sorted(p.coeffs.items(), reverse=True):
        # print real-negative coefficients through the minus operator so
        # the output re-parses ('+ -1*Z' is not valid term syntax)
        op = " + "
        if c.imag == 0 and c.real < 0:
            op = " - "
            c = -c
        factors = []
        if c != 1 or (a == 0 and b == 0):
            factors.append(_format_complex(c))
        if a:
            factors.append(lam if a == 1 else f"{lam}^{a}")
        if b:
            factors.append(zeta if b == 1 else f"{zeta}^{b}")
        term = "*".join(factors)
        if not out:
            out.append(term if op == " + " else "-" + term)
        else:
            out.append(op + term)
    return "".join(out)


def _format_spec(spec) -> str:
    kind = spec[0]
    if kind == "coeffs":
        return "coeffs(" + ", ".join(_format_complex(c) for c in spec[1]) + ")"
    if kind == "rat":
        num, den = spec[1], spec[2]
        return f"rat(({_format_poly(num, zeta='z')})/({_format_poly(den, zeta='z')}))"
    if kind == "gamma":
        return f"gamma_coeffs({spec[1]})"
    raise ValueError(f"unknown spec {kind!r}")


def _numpy_division(d: complex) -> tuple[complex, float]:
    """(w, s) such that numpy's complex128 quotient x / d, for a nonzero
    d, is complex(y.real * s, y.imag * s) with y = x * w in Python's
    complex arithmetic.

    numpy divides by a reciprocal scale: when |d_r| >= |d_i|, r = d_i/d_r,
    s = 1/(d_r + d_i r) and x/d = ((x_r + x_i r) s, (x_i - x_r r) s);
    otherwise r = d_r/d_i, s = 1/(d_i + d_r r) and x/d = ((x_r r + x_i) s,
    (x_i r - x_r) s).  Python's x * (1 - ir), or x * (r - i), rounds to the
    same parenthesized parts, since x_i (-r) = -(x_i r) and x_r 1 = x_r
    exactly.  (CPython's complex `/` divides by the denominator instead of
    multiplying by s, which can differ in the last bit.)
    """
    dr, di = np.float64(d.real), np.float64(d.imag)
    if abs(dr) >= abs(di):
        r = di / dr
        return complex(1.0, -r), float(1.0 / (dr + di * r))
    r = dr / di
    return complex(r, -1.0), float(1.0 / (di + dr * r))


def _materialize(spec, kappa: int, trunc_z: int) -> RamifiedSeries:
    kind = spec[0]
    n = trunc_z + 1
    if kind == "coeffs":
        c = np.zeros(n, dtype=np.complex128)
        vals = spec[1][:n]
        c[:len(vals)] = vals
        return RamifiedSeries.from_complex(kappa, c)
    if kind == "rat":
        num, den = spec[1], spec[2]
        p, q = [0j] * n, [0j] * n
        for (_, b), c in num.coeffs.items():
            if b < n:
                p[b] = c
        for (_, b), c in den.coeffs.items():
            if b < n:
                q[b] = c
        if q[0] == 0:
            raise SemanticError(
                "rat() denominator vanishes at z = 0; the data series must "
                "be a power series")
        # out_j = (p_j - sum_i q_i out_{j-i}) / q_0 over the nonzero q_i,
        # in Python complex arithmetic, whose * and - round as numpy's do,
        # and with numpy's rounding of the division
        taps = [(i, q[i]) for i in range(1, n) if q[i] != 0]
        w, s = _numpy_division(q[0])
        out = []
        for j in range(n):
            acc = p[j]
            for i, qi in taps:
                if i > j:
                    break
                acc -= qi * out[j - i]
            y = acc * w
            out.append(complex(y.real * s, y.imag * s))
        return RamifiedSeries.from_complex(kappa, out)
    if kind == "gamma":
        if spec[1] < 0:
            # Gamma(1 + s*j) changes sign and meets poles for s < 0, where
            # the Gamma_s table is 1/Gamma(1 - s*j) instead
            raise SemanticError(
                f"{_format_spec(spec)}: s must be >= 0 (the coefficients are "
                "Gamma(1 + s*j))")
        # Gamma(1 + s*j) is the Gamma_s moment table at kappa = 1
        mant, exp = MomentFunction.gamma(spec[1]).scaled_table(1, n, +1)
        return RamifiedSeries(kappa, mant, exp, normalized=True)
    raise ValueError(f"unknown spec {kind!r}")


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self._no_div = False  # inside rat(), '/' separates num and den

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def accept(self, ops: str) -> Token | None:
        """The next token, consumed, if it is one of the operators ops."""
        t = self.peek()
        return self.next() if t.kind == "OP" and t.text in ops else None

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            self.fail(repr(op))
        return self.next()

    def fail(self, expected: str):
        t = self.peek()
        raise ParseError(f"got {t.text or 'end of input'!r}", t.line, t.col,
                         expected=expected)

    # -- polynomial expressions -----------------------------------------

    def _finite(self, p: CharPolynomial, start: Token) -> CharPolynomial:
        """p, or a ParseError at `start` when a coefficient overflowed."""
        if all(cmath.isfinite(c) for c in p.coeffs.values()):
            return p
        raise ParseError("coefficient outside the float64 range", start.line,
                         start.col, expected="a finite coefficient")

    def _expr(self, symbols) -> CharPolynomial:
        start = self.peek()
        t = self.accept("+-")
        acc = self._term(symbols)
        if t and t.text == "-":
            acc = acc.scale(-1)
        while t := self.accept("+-"):
            rhs = self._term(symbols)
            acc = acc + (rhs.scale(-1) if t.text == "-" else rhs)
        return self._finite(acc, start)

    def _starts_factor(self, symbols) -> bool:
        t = self.peek()
        if t.kind in ("NUM", "IMAG"):
            return True
        if t.kind == "IDENT" and t.value in symbols:
            return True
        return t.kind == "OP" and t.text == "("

    def _term(self, symbols) -> CharPolynomial:
        start = self.peek()
        acc = self._factor(symbols)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "/" and self._no_div:
                return self._finite(acc, start)
            if t.kind == "OP" and t.text in "*/":
                self.next()
                rhs = self._factor(symbols)
                if t.text == "*":
                    acc = acc * rhs
                else:
                    c = rhs.leading_constant() if rhs.lam_degree == 0 else None
                    if c is None or c == 0:
                        raise ParseError(
                            "division by a non-constant or zero expression",
                            t.line, t.col, expected="nonzero constant divisor")
                    acc = acc.scale(1.0 / c)
            elif self._starts_factor(symbols):
                acc = acc * self._factor(symbols)  # implicit multiplication
            else:
                return self._finite(acc, start)

    def _factor(self, symbols) -> CharPolynomial:
        start = self.peek()
        base = self._atom(symbols)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "^":
                self.next()
                e = self.peek()
                if (e.kind != "NUM" or e.value.denominator != 1
                        or not 0 <= e.value <= MAX_EXPONENT):
                    self.fail(f"integer exponent from 0 to {MAX_EXPONENT}")
                self.next()
                base = base ** int(e.value)
            else:
                return self._finite(base, start)

    def _atom(self, symbols) -> CharPolynomial:
        t = self.peek()
        if t.kind == "OP" and t.text == "(":
            self.next()
            inner = self._expr(symbols)
            self.expect_op(")")
            return inner
        if t.kind == "NUM":
            self.next()
            return CharPolynomial.const(complex(float(t.value)))
        if t.kind == "IMAG":
            self.next()
            return CharPolynomial.const(complex(0.0, float(t.value)))
        if t.kind == "IDENT" and t.value in symbols:
            self.next()
            return CharPolynomial(symbols[t.value])
        self.fail("'(' , number, or symbol " + " or ".join(sorted(symbols)))

    # -- scalars ---------------------------------------------------------

    def parse_rational(self) -> Fraction:
        t = self.accept("+-")
        sign = -1 if t and t.text == "-" else 1
        t = self.peek()
        if t.kind != "NUM":
            self.fail("rational")
        self.next()
        val = t.value
        if self.accept("/"):
            d = self.peek()
            if d.kind != "NUM":
                self.fail("rational denominator")
            self.next()
            if d.value == 0:
                raise ParseError("zero denominator", d.line, d.col,
                                 expected="nonzero integer")
            val = val / d.value
        return sign * val

    def parse_int(self, minimum: int) -> int:
        t = self.peek()
        if t.kind != "NUM" or t.value.denominator != 1 or t.value < minimum:
            self.fail(f"integer >= {minimum}")
        self.next()
        return int(t.value)

    def parse_moment(self) -> MomentFunction:
        out = self._gamma_factor()
        while t := self.accept("*/"):
            f = self._gamma_factor()
            out = out * f if t.text == "*" else out / f
        return out

    def _gamma_factor(self) -> MomentFunction:
        t = self.peek()
        if t.kind != "IDENT" or t.value != "Gamma":
            self.fail("'Gamma'")
        self.next()
        self.expect_op("(")
        s = self.parse_rational()
        self.expect_op(")")
        return MomentFunction.gamma(s)

    def parse_data_spec(self):
        t = self.peek()
        if t.kind != "IDENT" or t.value not in ("coeffs", "rat",
                                                "gamma_coeffs"):
            self.fail("'coeffs', 'rat' or 'gamma_coeffs'")
        self.next()
        self.expect_op("(")
        if t.value == "coeffs":
            vals = []
            if not (self.peek().kind == "OP" and self.peek().text == ")"):
                vals.append(self._scalar())
                while self.accept(","):
                    vals.append(self._scalar())
            spec = ("coeffs", tuple(vals))
        elif t.value == "rat":
            self._no_div = True
            try:
                num = self._expr({"z": {(0, 1): 1.0}})
                den = (self._term({"z": {(0, 1): 1.0}}) if self.accept("/")
                       else CharPolynomial.const(1.0))
            finally:
                self._no_div = False
            spec = ("rat", num, den)
        else:
            spec = ("gamma", self.parse_rational())
        self.expect_op(")")
        return spec

    def _scalar(self) -> complex:
        p = self._expr({})
        if not p.coeffs:
            return 0j
        c = p.leading_constant()
        if c is None:
            t = self.peek()
            raise ParseError("expected a constant", t.line, t.col,
                             expected="number")
        return c


_EQ_SYMBOLS = {"L": {(1, 0): 1.0}, "Z": {(0, 1): 1.0}}


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; raises ParseError with (line, col, expected)."""
    p = _Parser(text)
    seen = {}
    while p.peek().kind != "EOF":
        t = p.peek()
        if t.kind != "IDENT" or t.value not in KEYS:
            p.fail("one of " + ", ".join(KEYS))
        key = t.value
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", t.line, t.col,
                             expected="a key used once")
        p.next()
        p.expect_op(":")
        if key == "equation":
            seen[key] = p._expr(_EQ_SYMBOLS)
        elif key in ("m1", "m2"):
            seen[key] = p.parse_moment()
        elif key == "data":
            specs = [p.parse_data_spec()]
            while p.accept(","):
                specs.append(p.parse_data_spec())
            seen[key] = tuple(specs)
        elif key in ("trunc_t", "trunc_z"):
            seen[key] = p.parse_int(0)
        elif key == "kappa":
            seen[key] = p.parse_int(1)
        elif key == "gevrey_s":
            seen[key] = p.parse_rational()
        p.expect_op(";")
    for key in ("equation", "data"):
        if key not in seen:
            t = p.peek()
            raise ParseError(f"missing {key!r} statement", t.line, t.col,
                             expected=f"{key}: ...;")
    return ProblemFile(
        equation=seen["equation"],
        m1=seen.get("m1", MomentFunction.gamma(1)),
        m2=seen.get("m2", MomentFunction.gamma(1)),
        data=seen["data"],
        trunc_t=seen.get("trunc_t", 20),
        trunc_z=seen.get("trunc_z", 80),
        kappa=seen.get("kappa", 1),
        gevrey_s=seen.get("gevrey_s", Fraction(0)))
