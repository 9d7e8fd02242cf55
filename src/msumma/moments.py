"""Moment functions of real order and their kernel pairs.

A moment function here is a finite product of factors Gamma_s(u)^(+-1)
with rational s, where

    Gamma_s(u) = Gamma(1 + s*u)     for s >= 0
    Gamma_s(u) = 1 / Gamma(1 - s*u) for s < 0,

optionally generalised (single-factor case) to a * Gamma(b + u/k).  The
order of the product is the exact rational sum of the signed s values.
Evaluation runs in log-space so values like Gamma(1+2u) at u = 300 never
overflow; callers get either the natural log or a ScaledComplex, and the
scaled tables m(j/kappa)^(+-1) come from MomentFunction.scaled_table,
which builds each once per process.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import MomentPoleError, UnsupportedKernelError, UnsupportedRangeError
from .scaled import ScaledComplex, from_log10_array

LOG10_E = math.log10(math.e)
# Scaled moment tables by (moment function, kappa, sign), each the longest
# built so far and read-only; past this many the oldest is dropped.
_TABLE_CAP = 64
_tables: dict = {}


def _as_fraction(s) -> Fraction:
    return s if isinstance(s, Fraction) else Fraction(s)


def lgamma_array(x) -> np.ndarray:
    """math.lgamma entry by entry (libm, bit-identical to the scalar calls)."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


def gamma_s(s, u: float, log: bool = False) -> float:
    """Gamma_s(u); with log=True the natural log is returned instead."""
    s = float(s)
    if s >= 0.0:
        x = 1.0 + s * u
        if x <= 0.0 and x == math.floor(x):
            raise MomentPoleError(f"Gamma_s pole: 1+s*u = {x} for s={s}, u={u}")
        lg = math.lgamma(x)
    else:
        x = 1.0 - s * u
        if x <= 0.0 and x == math.floor(x):
            # 1/Gamma at a pole is an exact zero
            return float("-inf") if log else 0.0
        lg = -math.lgamma(x)
    return lg if log else math.exp(lg)


@dataclass(frozen=True)
class MomentFunction:
    """Product of Gamma_s^(+-1) factors, optionally a*Gamma(b + s*u)."""

    factors: tuple = field(default_factory=tuple)  # ((Fraction s, int sign), ...)
    scale_a: float = 1.0
    shift_b: float = 1.0

    def __post_init__(self):
        facs = tuple((_as_fraction(s), int(sign)) for s, sign in self.factors)
        object.__setattr__(self, "factors", facs)
        if (self.scale_a != 1.0 or self.shift_b != 1.0) and len(facs) != 1:
            raise UnsupportedKernelError(
                "generalised (a, b) parameters require a single Gamma_s factor")
        if self.scale_a <= 0 or self.shift_b < 1.0:
            raise ValueError("require a > 0 and b >= 1")

    @staticmethod
    def gamma(s, *, a: float = 1.0, b: float = 1.0) -> "MomentFunction":
        return MomentFunction(((Fraction(_as_fraction(s)), +1),), a, b)

    @staticmethod
    def one() -> "MomentFunction":
        """The constant moment function m == 1 (Gamma_0)."""
        return MomentFunction(((Fraction(0), +1),))

    def order(self) -> Fraction:
        return sum((s * sign for s, sign in self.factors), Fraction(0))

    def __mul__(self, other: "MomentFunction") -> "MomentFunction":
        if self.scale_a != 1.0 or self.shift_b != 1.0 or \
                other.scale_a != 1.0 or other.shift_b != 1.0:
            raise UnsupportedKernelError("cannot compose generalised moment functions")
        return MomentFunction(self.factors + other.factors)

    def __truediv__(self, other: "MomentFunction") -> "MomentFunction":
        if self.scale_a != 1.0 or self.shift_b != 1.0 or \
                other.scale_a != 1.0 or other.shift_b != 1.0:
            raise UnsupportedKernelError("cannot compose generalised moment functions")
        inv = tuple((s, -sign) for s, sign in other.factors)
        return MomentFunction(self.factors + inv)

    def log_eval(self, u: float) -> float:
        """Natural log of m(u); raises MomentPoleError at gamma poles."""
        return float(self.log_eval_array(np.array([u], dtype=np.float64))[0])

    def log_eval_array(self, u) -> np.ndarray:
        """log m(u) entry by entry over an array of u >= 0.

        The same floating-point operations as a scalar evaluation, so each
        entry equals log_eval at that u bit for bit.
        """
        u = np.asarray(u, dtype=np.float64)
        if np.any(u < 0):
            raise ValueError("moment functions are evaluated for u >= 0")
        total = np.zeros(u.shape)
        for s, sign in self.factors:
            sf = float(s)
            x = self.shift_b + sf * u if sf >= 0 else self.shift_b - sf * u
            pole = (x <= 0.0) & (x == np.floor(x))
            if np.any(pole):
                i = np.flatnonzero(pole.ravel())[0]
                xi, ui = float(x.ravel()[i]), float(u.ravel()[i])
                if sf >= 0:
                    raise MomentPoleError(
                        f"pole of Gamma at {xi} (factor s={s}, u={ui})")
                raise MomentPoleError(f"zero of 1/Gamma at {xi} makes log "
                                      f"diverge (s={s}, u={ui})")
            term = lgamma_array(x)
            total += sign * (term if sf >= 0 else -term)
        return total + math.log(self.scale_a)

    def eval_scaled(self, u: float) -> ScaledComplex:
        return ScaledComplex.from_log10(self.log_eval(u) * LOG10_E)

    def scaled_table(self, kappa: int, count: int, sign: int
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Scaled array (mant, exp10) of m(j/kappa)^sign, j = 0..count-1.

        Read-only views into a process-wide table kept per (m, kappa,
        sign).  A request longer than the kept table rebuilds it at the
        new length; every step is elementwise, so each entry is the same
        whatever length its table was built at.  A MomentPoleError or
        ValueError propagates and nothing is kept.
        """
        key = (self, kappa, sign)
        table = _tables.get(key)
        if table is None or len(table[0]) < count:
            table = from_log10_array(
                sign * self.log_eval_array(np.arange(count) / kappa)
                * LOG10_E)
            for arr in table:
                arr.setflags(write=False)
            _tables.pop(key, None)
            if len(_tables) >= _TABLE_CAP:
                del _tables[next(iter(_tables))]
            _tables[key] = table
        return table[0][:count], table[1][:count]

    def __call__(self, u: float) -> float:
        """Plain-float value; overflows raise OverflowError (use eval_scaled)."""
        return math.exp(self.log_eval(u))

    def ratio_scaled(self, u_num: float, u_den: float) -> ScaledComplex:
        """m(u_num)/m(u_den) as a ScaledComplex (single log-space subtraction)."""
        return ScaledComplex.from_log10(
            (self.log_eval(u_num) - self.log_eval(u_den)) * LOG10_E)


GAMMA_1 = MomentFunction.gamma(1)
GAMMA_0 = MomentFunction.one()


def mittag_leffler(alpha: float, z: complex, beta: float = 1.0) -> complex:
    """E_{alpha,beta}(z) = sum z^n / Gamma(beta + alpha*n), alpha in (0, 2].

    Compensated (Kahan) series below |z| = 40**alpha; beyond that the
    exponential asymptotics are used inside the sector |arg z| <= alpha*pi/2
    and an UnsupportedRangeError is raised elsewhere (never a silent wrong
    value).
    """
    if not 0.0 < alpha <= 2.0:
        raise UnsupportedRangeError(f"alpha={alpha} outside (0, 2]")
    z = complex(z)
    if alpha == 1.0 and beta == 1.0:
        return cmath.exp(z)
    r_switch = 40.0 ** alpha
    if abs(z) <= r_switch:
        total = 0j
        comp = 0j
        zn = 1.0 + 0j
        n = 0
        while True:
            t = zn * math.exp(-math.lgamma(beta + alpha * n))
            y = t - comp
            s = total + y
            comp = (s - total) - y
            total = s
            n += 1
            zn *= z
            if n > 10 and abs(t) < 1e-18 * max(1.0, abs(total)):
                break
            if n > 200000:  # pragma: no cover
                break
        return total
    if abs(cmath.phase(z)) <= alpha * math.pi / 2 + 1e-12:
        w = z ** (1.0 / alpha)
        lead = (1.0 / alpha) * w ** (1.0 - beta) * cmath.exp(w)
        corr = 0j
        for k in range(1, 11):
            x = beta - alpha * k
            if x <= 0.0 and x == math.floor(x):
                continue  # 1/Gamma vanishes
            corr += z ** (-k) * math.exp(-math.lgamma(x)) * _gamma_sign(x)
        return lead - corr
    raise UnsupportedRangeError(
        f"|z|={abs(z):.3g} exceeds validated radius {r_switch:.3g} outside "
        f"the sector |arg z| <= alpha*pi/2")


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for non-pole real x."""
    if x > 0:
        return 1.0
    return 1.0 if int(math.floor(x)) % 2 == 0 else -1.0


@dataclass(frozen=True)
class KernelPair:
    """Kernel functions (e_m, E_m) attached to a moment function of order 1/k."""

    k: float
    p: int
    em: Callable[[complex], complex]
    Em: Callable[[complex], complex]
    moment: MomentFunction

    def flatness_sector(self) -> float:
        """Half-opening pi/(2k) of the sector where e_m is exponentially flat."""
        return math.pi / (2.0 * self.k)


def kernel_pair_for(m: MomentFunction) -> KernelPair:
    """Closed-form kernel pair for a single-factor a*Gamma(b + u/k) moment.

    For kernel order k <= 1/2 the minimal root-lift p with p*k > 1/2 is
    recorded; the closed form of e_m is unchanged by the lift (the lifted
    kernel satisfies e_m(z) = e_mtilde(z^(1/p))/p with the same expression),
    so only p and the validity sector differ.
    """
    if len(m.factors) != 1 or m.factors[0][1] != +1 or m.factors[0][0] <= 0:
        raise UnsupportedKernelError(
            "kernel pairs exist only for single-factor Gamma_s moments with "
            "s > 0; rewrite composite moment functions in Gamma_s form")
    s = m.factors[0][0]
    k = 1.0 / float(s)  # order s = 1/k
    a, b = m.scale_a, m.shift_b
    p = 1
    while p * k <= 0.5:
        p += 1

    def em(x: complex) -> complex:
        x = complex(x)
        if x == 0:
            return 0j
        return a * k * x ** (b * k) * cmath.exp(-(x ** k))

    def Em(z: complex) -> complex:
        return mittag_leffler(float(s), z, beta=b) / a

    return KernelPair(k=k, p=p, em=em, Em=Em, moment=m)
