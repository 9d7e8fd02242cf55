"""Coefficient-level moment Borel transforms and moment derivatives.

All operators act exactly on the scaled coefficients:

* Borel transform:          c_j -> c_j / m(j/kappa)
* inverse Borel transform:  c_j -> c_j * m(j/kappa)
* moment derivative:        c_j -> c_{j+kappa} * m(j/kappa + 1) / m(j/kappa)
* monomial pseudo-operator  lam * zeta^q (q*kappa integral):
                            c_j -> lam * c_{j+q*kappa} * m(j/kappa + q) / m(j/kappa)

The derivative uses the explicit ratio form rather than conjugation by
Borel transforms; the conjugation identity is exercised by tests instead.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _kernels as K
from .errors import GridError, TruncationError
from .moments import LOG10_E, MomentFunction
from .scaled import ScaledComplex, from_log10_array
from .series import RamifiedSeries


def _ratio_series(m: MomentFunction, u: np.ndarray, shift: float):
    """Scaled array of m(u + shift) / m(u), one log-space subtraction each."""
    return from_log10_array(
        (m.log_eval_array(u + shift) - m.log_eval_array(u)) * LOG10_E)


def borel(m: MomentFunction, a: RamifiedSeries) -> RamifiedSeries:
    fm, fe = m.scaled_table(a.kappa, len(a), -1)
    rm, re = K.mul(a.mant, a.exp10, fm, fe)
    return RamifiedSeries(a.kappa, rm, re, normalized=True)


def inverse_borel(m: MomentFunction, a: RamifiedSeries) -> RamifiedSeries:
    fm, fe = m.scaled_table(a.kappa, len(a), +1)
    rm, re = K.mul(a.mant, a.exp10, fm, fe)
    return RamifiedSeries(a.kappa, rm, re, normalized=True)


def moment_derivative(m: MomentFunction, power: int, a: RamifiedSeries
                      ) -> RamifiedSeries:
    """power-fold m-moment derivative; truncation drops by kappa per step."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    out = a
    for _ in range(power):
        if out.trunc < out.kappa:
            raise TruncationError(
                f"truncation {out.trunc} exhausted by derivative step "
                f"(needs at least kappa={out.kappa} more coefficients)")
        n = len(out) - out.kappa
        ratio_m, ratio_e = _ratio_series(m, np.arange(n) / out.kappa, 1.0)
        rm, re = K.mul(out.mant[out.kappa:], out.exp10[out.kappa:],
                       ratio_m, ratio_e)
        out = RamifiedSeries(out.kappa, rm, re, normalized=True)
    return out


def monomial_pseudo(lam: complex, q, m: MomentFunction, a: RamifiedSeries,
                    power: int = 1) -> RamifiedSeries:
    """(lam * zeta^q)(d_{m,z}) applied `power` times, via the eigenvalue rule.

    The iterated ratio telescopes, so the power is applied in closed form:
    result_j = lam^p * a_{j+p*q*kappa} * m(j/kappa + p*q)/m(j/kappa).
    """
    q = Fraction(q)
    if q < 0:
        raise GridError("negative pole orders are not on the coefficient grid")
    shift_f = q * a.kappa * power
    if shift_f.denominator != 1:
        raise GridError(
            f"q={q} does not land on the 1/{a.kappa} grid (q*kappa not integral)")
    shift = int(shift_f)
    if shift > a.trunc:
        raise TruncationError(
            f"shift {shift} exceeds truncation {a.trunc}")
    n = len(a) - shift
    lam_p = ScaledComplex.from_complex(1.0)
    lam_sc = ScaledComplex.from_complex(lam)
    for _ in range(power):
        lam_p = lam_p * lam_sc
    fm, fe = _ratio_series(m, np.arange(n) / a.kappa, float(q) * power)
    fm, fe = K.scale(fm, fe, lam_p.mantissa, lam_p.exp10)
    rm, re = K.mul(a.mant[shift:], a.exp10[shift:], fm, fe)
    return RamifiedSeries(a.kappa, rm, re, normalized=True)


def apply_char_polynomial(coeffs, m1: MomentFunction, m2: MomentFunction,
                          u) -> "BiSeries":
    """Apply sum p_ab d_{m1,t}^a d_{m2,z}^b to a BiSeries (residual checks).

    `coeffs` maps (a, b) -> complex.  Output truncations shrink by the
    largest exponents present.
    """
    from .series import BiSeries

    max_a = max(a for a, _ in coeffs)
    max_b = max(b for _, b in coeffs)
    nt = u.trunc_t + 1 - max_a * u.kappa_t
    nz = u.trunc_z + 1 - max_b * u.kappa_z
    if nt <= 0 or nz <= 0:
        raise TruncationError("series too short for the requested operator")
    acc_m = np.zeros((nt, nz), dtype=np.complex128)
    acc_e = np.zeros((nt, nz), dtype=np.int64)
    for (pa, pb), c in coeffs.items():
        if c == 0:
            continue
        # d_{m1,t}^a contributes m1(j/kt + a)/m1(j/kt) on row j
        fm, fe = _ratio_series(m1, np.arange(nt) / u.kappa_t, pa)
        fm, fe = K.scale(fm, fe, complex(c), 0)
        for j in range(nt):
            row = u.extract_row(j + pa * u.kappa_t)
            row = moment_derivative(m2, pb, row) if pb else row
            row = row.truncate_to(nz - 1)
            tm, te = K.scale(row.mant, row.exp10, complex(fm[j]), int(fe[j]))
            acc_m[j], acc_e[j] = K.add(acc_m[j], acc_e[j], tm, te)
    return BiSeries(u.kappa_t, u.kappa_z, acc_m, acc_e, normalized=True)


def max_relative_deviation(a: RamifiedSeries, b: RamifiedSeries) -> float:
    """max_j |a_j - b_j| / max_j max(|a_j|, |b_j|) over the common range."""
    n = min(len(a), len(b))
    num = -math.inf
    den = -math.inf
    for j in range(n):
        d = (a[j] - b[j]).log10_abs()
        s = max(a[j].log10_abs(), b[j].log10_abs())
        num = max(num, d)
        den = max(den, s)
    if den == -math.inf:
        return 0.0
    if num == -math.inf:
        return 0.0
    return 10.0 ** (num - den)


def check_commutation(m: MomentFunction, m_prime: MomentFunction,
                      a: RamifiedSeries) -> float:
    """Deviation of B_{m'} d_m a from d_{mm'} B_{m'} a (0 when exact)."""
    lhs = borel(m_prime, moment_derivative(m, 1, a))
    rhs = moment_derivative(m * m_prime, 1, borel(m_prime, a))
    return max_relative_deviation(lhs, rhs)
