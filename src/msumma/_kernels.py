"""Scaled-coefficient kernels and the one normalization rule.

A scaled number is a pair (mant, exp10) with value mant * 10**exp10.  Series
coefficients like (2j)! overflow double near j ~ 85, so all coefficient
arithmetic runs on this representation.  Normalized, |mant| lies in [1, 10)
or mant is zero with exp10 == 0; a non-finite mant keeps its exponent.

`norm1` and `add1` are that rule for one complex number; `ScaledComplex` and
the Horner loop `eval_scaled` call them.  The array kernels `normalize`,
`add`, `mul`, `scale` and `axpy_shift` apply the same rule to numpy arrays.
Both rescale with the same table of libm powers of ten (numpy's vectorized
power is an ulp off libm on some exponents), and `normalize` hands the
entries next to a power of ten, but not an exact one on an axis, to
`norm1`, so an array entry and a scalar come out bit for bit alike.

Every array these kernels return is normalized.  The one exception is the
private `_aligned_sum`, the first step of `add`: the solver's recurrence
builds its rows with it and keeps them unnormalized while their mantissas
stay in range (see `solver.solve_constant_leading`).
"""
from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# cells per block of a grid loop (32 rows of a 201-column grid): bounds the
# temporaries of solver._denormalize and series._lines
BLOCK_CELLS = 32 * 201
# exponent alignment beyond this underflows double anyway
_MAX_SHIFT = 400
_MIN_EXP = np.int64(-(10**9))

# _POW10[k + _MAX_SHIFT] == 10.0 ** k for k in [-_MAX_SHIFT, 308]
_POW10 = [10.0 ** k for k in range(-_MAX_SHIFT, 309)]
_POW10_ARRAY = np.array(_POW10)


def block_rows(ncols: int) -> int:
    """Rows of an ncols-column grid (ncols >= 1) per block of BLOCK_CELLS
    cells, at least one."""
    return max(1, BLOCK_CELLS // ncols)


def norm1(m: complex, e: int) -> tuple[complex, int]:
    """Normalize one scaled number (see the module docstring)."""
    a = abs(m)
    if a == 0.0:
        return m, 0
    if not math.isfinite(a):
        return m, e
    d = math.floor(math.log10(a))
    if abs(d) > 300:
        # one power of ten would overflow for subnormal or huge mantissas
        h = d // 2
        m = (m * _POW10[_MAX_SHIFT - h]) * _POW10[_MAX_SHIFT + h - d]
    else:
        m = m * _POW10[_MAX_SHIFT - d]
    e = e + d
    # one rounding-correction pass
    a = abs(m)
    if a >= 10.0:
        m = complex(m.real / 10.0, m.imag / 10.0)
        e += 1
    elif a < 1.0:
        m *= 10.0
        e -= 1
    return m, e


def add1(m1: complex, e1: int, m2: complex, e2: int) -> tuple[complex, int]:
    """Sum of two scaled numbers, normalized."""
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    d = e2 - e1
    m = m1 + (m2 * _POW10[_MAX_SHIFT + d] if d > -_MAX_SHIFT else 0.0)
    return norm1(m, e1)


def normalize(mant, exp10):
    """Normalize a scaled array entry by entry; the rule of `norm1`."""
    mant = np.asarray(mant, dtype=np.complex128)
    exp10 = np.asarray(exp10, dtype=np.int64)
    m = mant.copy()
    e = exp10.copy()
    a = np.abs(m)
    nz = (a > 0) & np.isfinite(a)
    if np.any(nz):
        anz = a[nz]
        d = np.floor(np.log10(anz)).astype(np.int64)
        # an exact power of ten with one zero component, such as a data row
        # of ones: its abs is exact and numpy's log10 gives it libm's decade
        exact = np.zeros(m.shape, dtype=bool)
        exact[nz] = (anz == _POW10_ARRAY[_MAX_SHIFT + d]) & (
            (mant.real[nz] == 0.0) | (mant.imag[nz] == 0.0))
        big = np.abs(d) > 300
        mnz = m[nz]
        h = d[big] // 2
        mnz[big] = (mnz[big] * _POW10_ARRAY[_MAX_SHIFT - h]) \
            * _POW10_ARRAY[_MAX_SHIFT + h - d[big]]
        mnz[~big] *= _POW10_ARRAY[_MAX_SHIFT - d[~big]]
        m[nz] = mnz
        e[nz] += d
        a2 = np.abs(m)
        hi = nz & (a2 >= 10.0)
        # componentwise, as in norm1: numpy's complex division would
        # multiply by a rounded 0.1
        m.real[hi] /= 10.0
        m.imag[hi] /= 10.0
        e[hi] += 1
        lo = nz & (a2 < 1.0)
        m[lo] *= 10.0
        e[lo] -= 1
        # np.abs and np.log10 can be an ulp off the libm hypot and log10 of
        # norm1.  That changes the decade or the correction only for a value
        # next to a power of ten, whose rescaled magnitude a2 then lies within
        # 1e-12 relative of 1 or 10; entries in a wider band take norm1,
        # except the exact powers of ten above.
        edge = (np.abs((a2 - 1.0) * (a2 - 10.0)) < 1e-9) & ~exact
        for i in np.flatnonzero(edge).tolist():
            m.flat[i], e.flat[i] = norm1(complex(mant.flat[i]),
                                         int(exp10.flat[i]))
    e[~nz & np.isfinite(a)] = 0
    return m, e


def _aligned_sum(m1, e1, m2, e2):
    """Elementwise sum at the larger exponent of each pair, not normalized.

    The operand with the smaller exponent is scaled down by a table power
    of ten; a zero operand does not set the exponent.
    """
    m1 = np.asarray(m1, dtype=np.complex128)
    m2 = np.asarray(m2, dtype=np.complex128)
    e1 = np.asarray(e1, dtype=np.int64)
    e2 = np.asarray(e2, dtype=np.int64)
    e1f = np.where(m1 == 0, _MIN_EXP, e1)
    e2f = np.where(m2 == 0, _MIN_EXP, e2)
    E = np.maximum(e1f, e2f)
    E = np.where(E == _MIN_EXP, 0, E)
    p1 = _POW10_ARRAY[_MAX_SHIFT + np.clip(e1f - E, -_MAX_SHIFT, 0)]
    p2 = _POW10_ARRAY[_MAX_SHIFT + np.clip(e2f - E, -_MAX_SHIFT, 0)]
    return m1 * p1 + m2 * p2, E


def add(m1, e1, m2, e2):
    """Elementwise sum of two scaled arrays, normalized."""
    return normalize(*_aligned_sum(m1, e1, m2, e2))


def mul(m1, e1, m2, e2):
    m1 = np.asarray(m1, dtype=np.complex128)
    m2 = np.asarray(m2, dtype=np.complex128)
    e = np.asarray(e1, dtype=np.int64) + np.asarray(e2, dtype=np.int64)
    return normalize(m1 * m2, e)


def scale(m, e, sm, se):
    """Multiply a scaled array elementwise by the scaled scalar (sm, se)."""
    m = np.asarray(m, dtype=np.complex128)
    e = np.asarray(e, dtype=np.int64)
    if sm == 0:
        return np.zeros_like(m), np.zeros_like(e)
    return normalize(m * sm, e + np.int64(se))


def axpy_shift(acc_m, acc_e, src_m, src_e, sm, se, shift):
    """acc[i] += (sm,se) * src[i+shift] for the overlapping index range.

    One normalize per call: the product src * sm goes into `add` as it is,
    and `add` aligns the exponents and normalizes the sum.
    """
    acc_m = np.array(acc_m, dtype=np.complex128, copy=True)
    acc_e = np.array(acc_e, dtype=np.int64, copy=True)
    n = min(len(acc_m), len(src_m) - shift)
    if n <= 0 or sm == 0:
        return acc_m, acc_e
    rm, re = add(acc_m[:n], acc_e[:n], src_m[shift:shift + n] * sm,
                 src_e[shift:shift + n] + np.int64(se))
    acc_m[:n] = rm
    acc_e[:n] = re
    return acc_m, acc_e


def eval_scaled(mant, exp10, wm, we):
    """Horner evaluation sum_j c_j w^j; w given scaled, result scaled."""
    n = len(mant)
    if n == 0:
        return 0j, 0
    ms = np.asarray(mant, dtype=np.complex128).tolist()
    es = np.asarray(exp10, dtype=np.int64).tolist()
    wm, we = complex(wm), int(we)
    am, ae = ms[-1], es[-1]
    for j in range(n - 2, -1, -1):
        am, ae = norm1(am * wm, ae + we)
        am, ae = add1(am, ae, ms[j], es[j])
    return am, ae
