"""Scaled-coefficient kernels and the one normalization rule.

A scaled number is a pair (mant, exp10) with value mant * 10**exp10.  Series
coefficients like (2j)! overflow double near j ~ 85, so all coefficient
arithmetic runs on this representation.  Normalized, 1 <= |mant| and
|mant| <= 10 up to one rounding (a modulus within one rounding of a power of
ten can come out as 10.0), or mant is zero with exp10 == 0; a non-finite
mant keeps its exponent.

`normalize` is that rule, on numpy arrays; `add`, `mul`, `scale`,
`axpy_shift` and the series sum `eval_scaled` end in it, and `ScaledComplex`
runs each of its operations on these kernels with one-entry arrays.
`powers` gives the powers of one scaled number and `to_complex` the plain
complex values of a scaled array.
Rescales multiply by a table of libm powers of ten (numpy's vectorized power
is an ulp off libm on some exponents).

Every array these kernels return is normalized.  The one exception is the
private `_aligned_sum`, the first step of `add`: the solver's recurrence
builds its rows with it and keeps them unnormalized while their mantissas
stay in range (see `solver.solve_constant_leading`).
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# cells per block of a grid loop (32 rows of a 201-column grid): bounds the
# temporaries of solver._denormalize and series._lines
BLOCK_CELLS = 32 * 201
# exponent alignment beyond this underflows double anyway
_MAX_SHIFT = 400
_MIN_EXP = np.int64(-(10**9))

# _POW10[k + _MAX_SHIFT] == 10.0 ** k (libm) for k in [-_MAX_SHIFT, 308]
_POW10 = np.array([10.0 ** k for k in range(-_MAX_SHIFT, 309)])


def block_rows(ncols: int) -> int:
    """Rows of an ncols-column grid (ncols >= 1) per block of BLOCK_CELLS
    cells, at least one."""
    return max(1, BLOCK_CELLS // ncols)


def normalize(mant, exp10):
    """Normalize a scaled array entry by entry (see the module docstring).

    The decade is floor(log10|m|), rescaled by table powers (two of them
    past 10^+-300, where one would overflow).  np.abs and np.log10 can set
    the decade one off next to a power of ten, so one correction pass
    follows: a modulus >= 10 is divided by ten, componentwise (numpy's
    complex division would multiply by a rounded 0.1), and then a modulus
    < 1, measured after that division, is multiplied by ten.
    """
    m = np.array(mant, dtype=np.complex128)
    e = np.array(exp10, dtype=np.int64)
    a = np.abs(m)
    e[a == 0] = 0
    nz = (a > 0) & (a < np.inf)
    d = np.floor(np.log10(a, out=np.zeros_like(a), where=nz)).astype(np.int64)
    big = np.abs(d) > 300
    if big.any():
        h = d[big] // 2
        m[big] *= _POW10[_MAX_SHIFT - h]
        e[big] += h
        d[big] -= h
    np.multiply(m, _POW10[_MAX_SHIFT - d], out=m, where=nz)
    a = np.abs(m)
    hi = nz & (a >= 10.0)
    lo = nz & (a < 1.0)
    if hi.any():
        m.real[hi] /= 10.0
        m.imag[hi] /= 10.0
        lo[hi] = np.abs(m[hi]) < 1.0
    m[lo] *= 10.0
    e += d + hi - lo
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
    p1 = _POW10[_MAX_SHIFT + np.clip(e1f - E, -_MAX_SHIFT, 0)]
    p2 = _POW10[_MAX_SHIFT + np.clip(e2f - E, -_MAX_SHIFT, 0)]
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


def powers(wm, we, n):
    """w^0 .. w^(n-1) of the scaled scalar w = (wm, we), by doubling.

    With q = w^k normalized, w^k .. w^(2k-1) are w^0 .. w^(k-1) times q,
    so w^j is a product of one normalized q per set bit of j.  The
    entries are left unnormalized: their mantissas stay below
    10^(bits of n), far inside the double range.
    """
    pm, pe = np.ones(1, dtype=np.complex128), np.zeros(1, dtype=np.int64)
    qm, qe = normalize([wm], [we])
    while len(pm) < n:
        pm = np.concatenate((pm, pm * qm))
        pe = np.concatenate((pe, pe + qe))
        qm, qe = normalize(qm * qm, qe + qe)
    return pm[:n], pe[:n]


def to_complex(mant, exp10):
    """Plain complex values mant * 10**exp10 of a scaled array.

    The product with the table power is the one a scalar mant * 10.0 **
    exp10 rounds to for exp10 in [-_MAX_SHIFT, 308]; a zero mantissa gives
    0j.  Below that range the values are zero; above it each nonzero
    component is inf with its sign (a NaN stays NaN).  Overflow is an
    expected result here, so it raises no floating-point warning.
    """
    m = np.asarray(mant, dtype=np.complex128)
    e = np.asarray(exp10, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = m * _POW10[_MAX_SHIFT + np.clip(e, -_MAX_SHIFT, 308)]
        big = e > 308
        if big.any():
            for part, src in ((out.real, m.real), (out.imag, m.imag)):
                x = src[big]
                part[big] = np.where(x == 0, x, x * np.inf)
    out[m == 0] = 0
    return out


def eval_scaled(mant, exp10, wm, we):
    """Series values sum_j c_j w^j, one per row of (mant, exp10) (a 1-D
    pair is one row); w given scaled.  Returns 1-D scaled arrays, one
    entry per row.

    The powers of w come from `powers`.  The terms c_j w^j of a row are
    aligned at the largest exponent among them, summed and normalized once.
    """
    mant = np.asarray(mant, dtype=np.complex128)
    exp10 = np.asarray(exp10, dtype=np.int64)
    pm, pe = powers(wm, we, mant.shape[-1])
    tm, te = mant * pm, exp10 + pe
    # a zero term sets no alignment; a row of zeros sums to zero
    top = np.max(te, axis=-1, where=tm != 0, initial=_MIN_EXP, keepdims=True)
    s = np.sum(tm * _POW10[_MAX_SHIFT + np.clip(te - top, -_MAX_SHIFT, 0)],
               axis=-1)
    return normalize(s.reshape(-1), top.reshape(-1))
