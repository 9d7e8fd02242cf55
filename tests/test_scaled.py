import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from msumma import ScaledComplex
from msumma import _kernels as K

finite = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False)


def close(a: ScaledComplex, z: complex, tol=1e-12):
    ref = ScaledComplex.from_complex(z)
    if not z:
        return abs(a.to_complex()) <= tol
    d = (a - ref).log10_abs() - ref.log10_abs()
    return d <= math.log10(tol) + 1


def test_roundtrip():
    for z in (1.0, -2.5 + 3j, 1e-200j, 7e150):
        assert ScaledComplex.from_complex(z).to_complex() == z


def test_huge_range_product():
    a = ScaledComplex.from_log10(5000.0)
    b = ScaledComplex.from_log10(-4990.0)
    p = a * b
    assert abs(p.to_complex() - 1e10) < 1e-3


def test_zero_identity():
    z = ScaledComplex.zero()
    a = ScaledComplex.from_complex(3 - 4j)
    assert not z
    assert (a + z).to_complex() == a.to_complex()
    assert (a * z).to_complex() == 0


def test_log10_abs():
    a = ScaledComplex.from_complex(3 + 4j)
    assert abs(a.log10_abs() - math.log10(5)) < 1e-14
    assert ScaledComplex.zero().log10_abs() == -math.inf


def test_phase_and_conjugate():
    a = ScaledComplex.from_complex(1 + 1j)
    assert abs(a.phase() - math.pi / 4) < 1e-14
    assert abs(a.conjugate().to_complex() - (1 - 1j)) < 1e-15


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_field_ops_match_complex(x, y):
    a, b = ScaledComplex.from_complex(x), ScaledComplex.from_complex(y)
    assert close(a + b, x + y)
    assert close(a - b, x - y)
    assert close(a * b, x * y)
    assert close(a / b, x / y)


@given(finite)
@settings(max_examples=100, deadline=None)
def test_scaling_invariance(x):
    # exponent bookkeeping must not depend on the entry magnitude
    a = ScaledComplex.from_complex(x)
    big = ScaledComplex.from_log10(300.0)
    out = (a * big) / big
    assert close(out, x)


def test_from_log10_phase():
    a = ScaledComplex.from_log10(10.0, phase=math.pi / 2)
    z = a.to_complex()
    assert abs(abs(z) - 1e10) / 1e10 < 1e-12
    assert abs(np.angle(z) - math.pi / 2) < 1e-12


def _bits(m):
    """Raw bits of complex values, so signed zeros and NaNs compare exactly."""
    return np.asarray(m, dtype=np.complex128).reshape(-1).view(np.uint64)


def test_array_and_scalar_rules_agree():
    rng = np.random.default_rng(4)
    per = 8

    # normalize vs norm1 at every decade shift: subnormal entries below
    # 1e-308, zeros below 1e-323, infinities above 1e308.  Besides random
    # magnitudes, each shift has some within a few ulps of a power of ten,
    # where the decade and the rounding correction are decided.
    shifts = np.repeat(np.arange(-330, 330), 5 * per)
    mag = rng.uniform(1, 10, shifts.size)
    edge = np.arange(shifts.size) % (5 * per) >= per
    mag[edge] = rng.choice([9.999999999999996, 9.999999999999998, 1.0,
                            1.0000000000000002, 1.0000000000000004],
                           edge.sum())
    r = mag * np.exp(1j * rng.uniform(0, 2 * np.pi, shifts.size))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x = r * np.array([10.0 ** (d // 2) * 10.0 ** (d - d // 2)
                          for d in shifts.tolist()])
    x = np.concatenate([x, [complex(math.inf, 1.0), complex(1.0, -math.inf),
                            complex(math.nan, 0.0), complex(-2.0, math.nan)]])
    e0 = rng.integers(-50, 50, x.size)
    m, e = K.normalize(x, e0)
    ref = [K.norm1(complex(v), int(k)) for v, k in zip(x.tolist(), e0.tolist())]
    assert np.array_equal(_bits(m), _bits([v for v, _ in ref]))
    assert e.tolist() == [k for _, k in ref]
    # the shared non-finite rule: inf and NaN keep mantissa and exponent
    bad = ~np.isfinite(x)
    assert bad.sum() >= 4
    assert np.array_equal(_bits(m[bad]), _bits(x[bad]))
    assert np.array_equal(e[bad], e0[bad])

    # add vs add1 at every alignment shift, either operand the larger one
    shifts = np.repeat(np.arange(-400, 1), per)
    zeros = np.zeros(shifts.size, dtype=np.int64)
    m1, _ = K.normalize(rng.normal(size=shifts.size)
                        + 1j * rng.normal(size=shifts.size), zeros)
    m2, _ = K.normalize(rng.normal(size=shifts.size)
                        + 1j * rng.normal(size=shifts.size), zeros)
    # a purely imaginary m1 leaves the aligned real part of m2 unrounded
    m1[1::2] = 1j * np.abs(m1[1::2])
    m2[::per] = 0  # a zero operand takes the other one unchanged
    e1 = rng.integers(-50, 50, shifts.size)
    for a_m, a_e, b_m, b_e in ((m1, e1, m2, e1 + shifts),
                               (m2, e1 + shifts, m1, e1)):
        m, e = K.add(a_m, a_e, b_m, b_e)
        ref = [K.add1(*args) for args in zip(a_m.tolist(), a_e.tolist(),
                                             b_m.tolist(), b_e.tolist())]
        assert np.array_equal(_bits(m), _bits([v for v, _ in ref]))
        assert e.tolist() == [k for _, k in ref]

    # eval_scaled vs a ScaledComplex Horner loop, Gamma-like growth
    n = 400
    cm, ce = K.normalize(rng.normal(size=n) + 1j * rng.normal(size=n),
                         np.array([int(math.lgamma(1 + 2 * j) / math.log(10))
                                   for j in range(n)]))
    w = ScaledComplex.from_complex(0.3 - 0.7j) * ScaledComplex.from_log10(-600)
    got = K.eval_scaled(cm, ce, w.mantissa, w.exp10)
    acc = ScaledComplex(complex(cm[-1]), int(ce[-1]))
    for j in range(n - 2, -1, -1):
        acc = acc * w + ScaledComplex(complex(cm[j]), int(ce[j]))
    assert np.array_equal(_bits(got[0]), _bits(acc.mantissa))
    assert got[1] == acc.exp10


def test_exact_powers_of_ten_skip_norm1(monkeypatch):
    # +-10^k and +-i 10^k at every decade k in [-330, 310): subnormal below
    # 1e-308, zero below 1e-323, inf at 1e309; the other component is 0.0
    # or -0.0.  normalize matches norm1 bit for bit on Python's 10.0 ** k,
    # the powers the rule rescales with, and hands none of the normal ones
    # to norm1 (a subnormal power is rounded, and one near the band still
    # takes it); the decimal literals 1ek, a few of them an ulp off
    # 10.0 ** k, match as well.
    norm1 = K.norm1
    calls = []

    def counted(m, e):
        calls.append(m)
        return norm1(m, e)

    powers = [10.0 ** k if k < 309 else math.inf for k in range(-330, 310)]
    literals = [float(f"1e{k}") for k in range(-330, 310)]
    rng = np.random.default_rng(6)
    for values in (powers, literals):
        x = np.array([v for p in values for s in (p, -p) for z in (0.0, -0.0)
                      for v in (complex(s, z), complex(z, s))])
        e0 = rng.integers(-50, 50, x.size)
        ref = [norm1(complex(v), int(k)) for v, k in zip(x.tolist(),
                                                         e0.tolist())]
        monkeypatch.setattr(K, "norm1", counted)
        m, e = K.normalize(x, e0)
        monkeypatch.setattr(K, "norm1", norm1)
        assert np.array_equal(_bits(m), _bits([v for v, _ in ref]))
        assert e.tolist() == [k for _, k in ref]
        if values is powers:
            assert all(abs(v) < sys.float_info.min for v in calls)


def test_axpy_shift_one_normalize_matches_scale_then_add(monkeypatch):
    rng = np.random.default_rng(5)
    n = 4000
    shift = 3

    def draw(size):
        m = rng.normal(size=size) + 1j * rng.normal(size=size)
        m[rng.random(size) < 0.1] = 0
        return K.normalize(m, rng.integers(-20, 20, size))

    acc_m, acc_e = draw(n + 7)  # entries past the overlap stay untouched
    src_m, src_e = draw(n + shift)
    calls = [0]
    normalize = K.normalize

    def counted(*args):
        calls[0] += 1
        return normalize(*args)

    for sm, se in ((1.7 - 0.4j, 3), (-9.9, -12), (1.0, 0)):
        monkeypatch.setattr(K, "normalize", counted)
        calls[0] = 0
        m, e = K.axpy_shift(acc_m, acc_e, src_m, src_e, sm, se, shift)
        assert calls[0] == 1
        monkeypatch.setattr(K, "normalize", normalize)
        tm, te = K.scale(src_m[shift:], src_e[shift:], sm, se)
        rm, re = K.add(acc_m[:n], acc_e[:n], tm, te)
        assert np.array_equal(_bits(m[n:]), _bits(acc_m[n:]))
        # compare on the scale of the larger term: a sum is accurate to a
        # few ulp of |acc| + |term|, not of a cancelled result
        ref = np.maximum(np.where(acc_m[:n] == 0, te, acc_e[:n]),
                         np.where(tm == 0, acc_e[:n], te))
        got = m[:n] * 10.0 ** (e[:n] - ref).astype(float)
        old = rm * 10.0 ** (re - ref).astype(float)
        size = (np.abs(acc_m[:n]) * 10.0 ** (acc_e[:n] - ref).astype(float)
                + np.abs(tm) * 10.0 ** (te - ref).astype(float))
        assert np.all(np.abs(got - old) <= 4 * np.finfo(float).eps * size)

    m, e = K.axpy_shift(acc_m, acc_e, src_m, src_e, 0j, 5, shift)
    assert np.array_equal(_bits(m), _bits(acc_m))
    assert np.array_equal(e, acc_e)
