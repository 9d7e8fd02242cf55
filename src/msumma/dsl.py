"""Problem-file DSL: tokenizer, recursive-descent parser, pretty-printer.

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

All syntax errors carry (line, column, expected tokens).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characteristic import CharPolynomial
from .errors import ParseError, SemanticError
from .moments import MomentFunction
from .series import RamifiedSeries

KEYS = ("equation", "m1", "m2", "data", "trunc_t", "trunc_z", "kappa",
        "gevrey_s")
_OPS = set(":;,()+-*/^")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUM | IMAG | OP | EOF
    text: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < n and \
                        (text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_exp = True
                    j += 1
                    if text[j] in "+-":
                        j += 1
                else:
                    break
            lit = text[i:j]
            if seen_dot or seen_exp:
                val = Fraction(lit)
            else:
                val = Fraction(int(lit))
            kind = "NUM"
            if j < n and text[j] == "i":
                kind = "IMAG"
                j += 1
            toks.append(Token(kind, text[i:j], val, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "i":
                toks.append(Token("IMAG", word, Fraction(1), line, start_col))
            else:
                toks.append(Token("IDENT", word, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            toks.append(Token("OP", ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col,
                         expected="token")
    toks.append(Token("EOF", "", None, line, col))
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
    moment_srcs: tuple = ("Gamma(1)", "Gamma(1)")

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
                 f"m1: {self.moment_srcs[0]};",
                 f"m2: {self.moment_srcs[1]};",
                 f"data: {', '.join(_format_spec(s) for s in self.data)};",
                 f"trunc_t: {self.trunc_t};",
                 f"trunc_z: {self.trunc_z};",
                 f"kappa: {self.kappa};",
                 f"gevrey_s: {_format_frac(self.gevrey_s)};"]
        return "\n".join(lines) + "\n"

    def to_problem(self):
        from .solver import PdeProblem

        n = self.equation.lam_degree
        if len(self.data) != n:
            raise SemanticError(
                f"equation has lambda-degree {n} but {len(self.data)} data "
                f"specs were given; add or remove rows to match")
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


def _format_frac(f: Fraction) -> str:
    return str(f)


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
        return f"gamma_coeffs({_format_frac(spec[1])})"
    raise ValueError(f"unknown spec {kind!r}")


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
        p = np.zeros(n, dtype=np.complex128)
        q = np.zeros(n, dtype=np.complex128)
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
        # out_j = (p_j - sum_i q_i out_{j-i}) / q_0 over the nonzero q_i
        taps = [i for i in range(1, n) if q[i] != 0]
        out = np.zeros(n, dtype=np.complex128)
        for j in range(n):
            acc = p[j]
            for i in taps:
                if i > j:
                    break
                acc -= q[i] * out[j - i]
            out[j] = acc / q[0]
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

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            raise ParseError(f"got {t.text or 'end of input'!r}", t.line,
                             t.col, expected=repr(op))
        return self.next()

    def fail(self, expected: str):
        t = self.peek()
        raise ParseError(f"got {t.text or 'end of input'!r}", t.line, t.col,
                         expected=expected)

    # -- polynomial expressions -----------------------------------------

    def parse_poly(self, symbols: dict) -> CharPolynomial:
        return self._expr(symbols)

    def _expr(self, symbols) -> CharPolynomial:
        t = self.peek()
        neg = False
        if t.kind == "OP" and t.text in "+-":
            self.next()
            neg = t.text == "-"
        acc = self._term(symbols)
        if neg:
            acc = acc.scale(-1)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "+-":
                self.next()
                rhs = self._term(symbols)
                acc = acc + (rhs.scale(-1) if t.text == "-" else rhs)
            else:
                return acc

    def _starts_factor(self, symbols) -> bool:
        t = self.peek()
        if t.kind in ("NUM", "IMAG"):
            return True
        if t.kind == "IDENT" and t.value in symbols:
            return True
        return t.kind == "OP" and t.text == "("

    def _term(self, symbols) -> CharPolynomial:
        acc = self._factor(symbols)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "/" and self._no_div:
                return acc
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
                return acc

    def _factor(self, symbols) -> CharPolynomial:
        base = self._atom(symbols)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "^":
                self.next()
                e = self.peek()
                if e.kind != "NUM" or e.value.denominator != 1 or e.value < 0:
                    self.fail("nonnegative integer exponent")
                self.next()
                base = base ** int(e.value)
            else:
                return base

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
        sign = 1
        t = self.peek()
        if t.kind == "OP" and t.text in "+-":
            self.next()
            sign = -1 if t.text == "-" else 1
        t = self.peek()
        if t.kind != "NUM":
            self.fail("rational")
        self.next()
        val = t.value
        t = self.peek()
        if t.kind == "OP" and t.text == "/":
            self.next()
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

    def parse_moment(self) -> tuple[MomentFunction, str]:
        parts = []
        m = self._gamma_factor()
        parts.append(("*", m))
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "*/":
                self.next()
                parts.append((t.text, self._gamma_factor()))
            else:
                break
        out = parts[0][1]
        src = _moment_src(parts)
        for op, f in parts[1:]:
            out = out * f if op == "*" else out / f
        return out, src

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
        if t.kind != "IDENT":
            self.fail("'coeffs', 'rat' or 'gamma_coeffs'")
        if t.value == "coeffs":
            self.next()
            self.expect_op("(")
            vals = []
            if not (self.peek().kind == "OP" and self.peek().text == ")"):
                vals.append(self._scalar())
                while self.peek().kind == "OP" and self.peek().text == ",":
                    self.next()
                    vals.append(self._scalar())
            self.expect_op(")")
            return ("coeffs", tuple(vals))
        if t.value == "rat":
            self.next()
            self.expect_op("(")
            self._no_div = True
            try:
                num = self._expr({"z": {(0, 1): 1.0}})
                t2 = self.peek()
                if t2.kind == "OP" and t2.text == "/":
                    self.next()
                    den = self._term({"z": {(0, 1): 1.0}})
                else:
                    den = CharPolynomial.const(1.0)
            finally:
                self._no_div = False
            self.expect_op(")")
            return ("rat", num, den)
        if t.value == "gamma_coeffs":
            self.next()
            self.expect_op("(")
            s = self.parse_rational()
            self.expect_op(")")
            return ("gamma", s)
        self.fail("'coeffs', 'rat' or 'gamma_coeffs'")

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


def _moment_src(parts) -> str:
    out = []
    for op, m in parts:
        s = m.factors[0][0]
        txt = f"Gamma({s})"
        out.append(txt if not out else f" {op} {txt}")
    return "".join(out)


_EQ_SYMBOLS = {"L": {(1, 0): 1.0}, "Z": {(0, 1): 1.0}}


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; raises ParseError with (line, col, expected)."""
    p = _Parser(text)
    seen = {}
    moment_srcs = {"m1": "Gamma(1)", "m2": "Gamma(1)"}
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
            seen[key] = p.parse_poly(_EQ_SYMBOLS)
        elif key in ("m1", "m2"):
            seen[key], moment_srcs[key] = p.parse_moment()
        elif key == "data":
            specs = [p.parse_data_spec()]
            while p.peek().kind == "OP" and p.peek().text == ",":
                p.next()
                specs.append(p.parse_data_spec())
            seen[key] = tuple(specs)
        elif key in ("trunc_t", "trunc_z"):
            seen[key] = p.parse_int(0)
        elif key == "kappa":
            seen[key] = p.parse_int(1)
        elif key == "gevrey_s":
            seen[key] = p.parse_rational()
        p.expect_op(";")
    if "equation" not in seen:
        t = p.peek()
        raise ParseError("missing 'equation' statement", t.line, t.col,
                         expected="equation: ...;")
    if "data" not in seen:
        t = p.peek()
        raise ParseError("missing 'data' statement", t.line, t.col,
                         expected="data: ...;")
    return ProblemFile(
        equation=seen["equation"],
        m1=seen.get("m1", MomentFunction.gamma(1)),
        m2=seen.get("m2", MomentFunction.gamma(1)),
        data=seen["data"],
        trunc_t=seen.get("trunc_t", 20),
        trunc_z=seen.get("trunc_z", 80),
        kappa=seen.get("kappa", 1),
        gevrey_s=seen.get("gevrey_s", Fraction(0)),
        moment_srcs=(moment_srcs["m1"], moment_srcs["m2"]))
