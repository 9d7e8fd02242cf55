"""Coefficient-level moment Borel transforms and moment derivatives.

All operators act exactly on the scaled coefficients:

* Borel transform:          c_j -> c_j / m(j/kappa)
* inverse Borel transform:  c_j -> c_j * m(j/kappa)
* moment derivative:        c_j -> c_{j+kappa} * m(j/kappa + 1) / m(j/kappa)
* monomial pseudo-operator  lam * zeta^q (q*kappa integral):
                            c_j -> lam * c_{j+q*kappa} * m(j/kappa + q) / m(j/kappa)

The derivative uses the explicit ratio form rather than conjugation by
Borel transforms; the conjugation identity is exercised by tests instead.
Every quotient m(u + s)/m(u) is one `K.mul` of two entries of the kept
moment tables (`moment_quotient`).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _kernels as K
from .errors import GridError, TruncationError
from .moments import MomentFunction
from .series import BiSeries, RamifiedSeries


def moment_quotient(m: MomentFunction, kappa: int, num, den):
    """Scaled array of m(num/kappa) / m(den/kappa) for index arrays
    num, den >= 0 that broadcast together: one `K.mul` of entries of the
    kept tables m^+1 and m^-1 (`MomentFunction.scaled_table`)."""
    size = int(max(np.max(num, initial=0), np.max(den, initial=0))) + 1
    nm, ne = m.scaled_table(kappa, size, +1)
    dm, de = m.scaled_table(kappa, size, -1)
    qm, qe = K.mul(nm[num], ne[num], dm[den], de[den])
    same = num == den  # exactly one, not the product of two roundings
    return np.where(same, 1.0 + 0j, qm), np.where(same, 0, qe)


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
    """power-fold m-moment derivative: c_j -> c_{j+power*kappa} *
    m(j/kappa + power) / m(j/kappa), the telescoped quotient of the steps;
    truncation drops by kappa per step."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    shift = power * a.kappa
    if a.trunc < shift:
        raise TruncationError(
            f"truncation {a.trunc} exhausted by {power} derivative steps "
            f"(each needs kappa={a.kappa} more coefficients)")
    j = np.arange(len(a) - shift)
    rm, re = K.mul(a.mant[shift:], a.exp10[shift:],
                   *moment_quotient(m, a.kappa, j + shift, j))
    return RamifiedSeries(a.kappa, rm, re, normalized=True)


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
    lm, le = K.powers(complex(lam), 0, power + 1)
    j = np.arange(len(a) - shift)
    fm, fe = K.scale(*moment_quotient(m, a.kappa, j + shift, j),
                     lm[-1], le[-1])
    rm, re = K.mul(a.mant[shift:], a.exp10[shift:], fm, fe)
    return RamifiedSeries(a.kappa, rm, re, normalized=True)


def apply_char_polynomial(coeffs, m1: MomentFunction, m2: MomentFunction,
                          u: BiSeries) -> BiSeries:
    """Apply sum p_ab d_{m1,t}^a d_{m2,z}^b to a BiSeries (residual checks).

    `coeffs` maps (a, b) -> complex.  Output truncations shrink by the
    largest exponents present.  The term (a, b) takes the block of u
    shifted a*kappa_t rows and b*kappa_z columns, times the quotients
    m1(j/kappa_t + a)/m1(j/kappa_t) of row j and m2(n/kappa_z + b)/
    m2(n/kappa_z) of column n.
    """
    kt, kz = u.kappa_t, u.kappa_z
    nt = u.trunc_t + 1 - max(a for a, _ in coeffs) * kt
    nz = u.trunc_z + 1 - max(b for _, b in coeffs) * kz
    if nt <= 0 or nz <= 0:
        raise TruncationError("series too short for the requested operator")
    acc_m = np.zeros((nt, nz), dtype=np.complex128)
    acc_e = np.zeros((nt, nz), dtype=np.int64)
    j, n = np.arange(nt)[:, None], np.arange(nz)
    for (pa, pb), c in coeffs.items():
        sj, sn = pa * kt, pb * kz
        rm, re = K.scale(*moment_quotient(m1, kt, j + sj, j), complex(c), 0)
        cm, ce = moment_quotient(m2, kz, n + sn, n)
        tm, te = K.mul(u.mant[sj:sj + nt, sn:sn + nz] * cm,
                       u.exp10[sj:sj + nt, sn:sn + nz] + ce, rm, re)
        acc_m, acc_e = K.add(acc_m, acc_e, tm, te)
    return BiSeries(kt, kz, acc_m, acc_e, normalized=True)


def max_relative_deviation(a: RamifiedSeries, b: RamifiedSeries) -> float:
    """max_j |a_j - b_j| / max_j max(|a_j|, |b_j|) over the common range."""
    n = min(len(a), len(b))
    if n == 0:
        return 0.0
    dm, de = K.add(a.mant[:n], a.exp10[:n], -b.mant[:n], b.exp10[:n])
    num = RamifiedSeries(a.kappa, dm, de, normalized=True).log10_abs().max()
    den = max(a.log10_abs()[:n].max(), b.log10_abs()[:n].max())
    if den == -math.inf or num == -math.inf:
        return 0.0
    return 10.0 ** (num - den)


def check_commutation(m: MomentFunction, m_prime: MomentFunction,
                      a: RamifiedSeries) -> float:
    """Deviation of B_{m'} d_m a from d_{mm'} B_{m'} a (0 when exact)."""
    lhs = borel(m_prime, moment_derivative(m, 1, a))
    rhs = moment_derivative(m * m_prime, 1, borel(m_prime, a))
    return max_relative_deviation(lhs, rhs)
