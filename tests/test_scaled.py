import cmath
import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
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


EPS = np.finfo(float).eps


def _mp(m, e):
    """Exact value m * 10**e of a scaled number, in mpmath."""
    return mpmath.mpc(complex(m)) * mpmath.mpf(10) ** int(e)


def _rel_err(m, e, ref, size):
    """|m * 10**e - ref| / size, computed in 50-digit mpmath."""
    with mpmath.workdps(50):
        return float(abs(_mp(m, e) - ref) / size)


def _one(kernel, *scalars):
    """kernel on one-entry arrays: its one (mantissa, exp10) pair."""
    m, e = kernel(*([x] for x in scalars))
    return m[0], e[0]


def _in_range(m):
    """The normalized-mantissa invariant: 1 <= |m| <= 10 up to a rounding."""
    a = np.abs(m)
    return bool(np.all((a >= 1.0) & (a <= 10.0 * (1 + EPS))))


# (mantissa, exp10) pairs with |mantissa| in [1, 10), as the kernels get
# them; components may still be tiny, even subnormal
mantissas = st.complex_numbers(min_magnitude=1.0, max_magnitude=9.999,
                               allow_nan=False, allow_infinity=False)
exponents = st.integers(-10**5, 10**5)
shifts = st.integers(-450, 450)


@given(st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                          allow_infinity=False), exponents)
@settings(max_examples=300, deadline=None)
def test_normalize_matches_mpmath(x, e0):
    m, e = _one(K.normalize, x, e0)
    if x == 0:
        assert np.array_equal(_bits(m), _bits(x)) and e == 0
        return
    assert _in_range(m)
    with mpmath.workdps(50):
        ref = _mp(x, e0)
        assert _rel_err(m, e, ref, abs(ref)) <= 4 * EPS


@given(mantissas, mantissas, exponents, shifts)
@settings(max_examples=300, deadline=None)
def test_add_matches_mpmath(m1, m2, e1, shift):
    e2 = e1 + shift
    m, e = _one(K.add, m1, e1, m2, e2)
    assert m == 0 or _in_range(m)
    with mpmath.workdps(50):
        a, b = _mp(m1, e1), _mp(m2, e2)
        assert _rel_err(m, e, a + b, abs(a) + abs(b)) <= 4 * EPS


@given(mantissas, mantissas, exponents, exponents)
@settings(max_examples=300, deadline=None)
def test_mul_matches_mpmath(m1, m2, e1, e2):
    m, e = _one(K.mul, m1, e1, m2, e2)
    assert _in_range(m)
    with mpmath.workdps(50):
        ab = _mp(m1, e1) * _mp(m2, e2)
        assert _rel_err(m, e, ab, abs(ab)) <= 4 * EPS


def _check_eval_scaled(cm, ce, wm, we):
    (m,), (e,) = K.eval_scaled(cm, ce, wm, we)
    with mpmath.workdps(50):
        w = _mp(wm, we)
        terms = [_mp(c, k) * w ** j for j, (c, k) in enumerate(zip(cm, ce))]
        size = sum(abs(t) for t in terms)
        if size == 0:
            assert m == 0
            return
        assert _rel_err(m, e, sum(terms), size) <= 1e-13


@given(st.lists(st.tuples(st.one_of(st.just(0j), mantissas),
                          st.integers(-300, 300)), min_size=1, max_size=40),
       st.one_of(st.just(0j), mantissas), st.integers(-400, 400))
@example([(0j, 0), (5.0 + 0j, -350)], 2.0 + 0j, -100)  # zero term at 10^0
@settings(max_examples=100, deadline=None)
def test_eval_scaled_matches_mpmath(coeffs, wm, we):
    _check_eval_scaled([c for c, _ in coeffs], [k for _, k in coeffs],
                       wm, we)


def test_eval_scaled_gamma_growth():
    # 400 terms with Gamma(1 + 2j)-like growth at |w| ~ 1e-600
    rng = np.random.default_rng(4)
    n = 400
    cm, ce = K.normalize(rng.normal(size=n) + 1j * rng.normal(size=n),
                         np.array([int(math.lgamma(1 + 2 * j) / math.log(10))
                                   for j in range(n)]))
    w = ScaledComplex.from_complex(0.3 - 0.7j) * ScaledComplex.from_log10(-600)
    _check_eval_scaled(cm.tolist(), ce.tolist(), w.mantissa, w.exp10)


def test_normalize_next_to_powers_of_ten():
    # +-4 ulps around 10^k, k in [-300, 300), at random phases: the decade
    # and the correction pass are decided there.  Every mantissa keeps
    # 1 <= |m| <= 10 up to a rounding, and every value within 4 eps.  Of
    # the last entries, the first once came out with |m| < 1 and, as a
    # scalar, with |m| = 10.0; the other two, an ulp under modulus 1, are
    # rescaled to 10.0, divided back under 1 and so take both corrections.
    rng = np.random.default_rng(7)
    p = np.repeat([10.0 ** k for k in range(-300, 300)], 9)
    r = p + np.tile(np.arange(-4, 5), 600) * np.spacing(p)
    x = np.append(r * np.exp(1j * rng.uniform(0, 2 * np.pi, r.size)),
                  [0.0009868755360228376 - 0.00016148274334936463j,
                   -0.9856211187748236 - 0.16897044186799398j,
                   0.5621375537939306 - 0.8270437537486005j])
    e0 = rng.integers(-50, 50, x.size)
    m, e = K.normalize(x, e0)
    assert _in_range(m)
    with mpmath.workdps(50):
        for v, k, mv, ev in zip(x.tolist(), e0.tolist(), m.tolist(),
                                e.tolist()):
            ref = _mp(v, k)
            assert _rel_err(mv, ev, ref, abs(ref)) <= 4 * EPS

    # a zero keeps its mantissa, signed zero included, with exponent 0;
    # inf and NaN keep mantissa and exponent
    x = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                  complex(math.inf, 1.0), complex(1.0, -math.inf),
                  complex(math.nan, 0.0), complex(-2.0, math.nan)])
    e0 = np.arange(1, x.size + 1)
    m, e = K.normalize(x, e0)
    assert np.array_equal(_bits(m), _bits(x))
    assert e.tolist() == [0, 0, 0, 4, 5, 6, 7]


def test_scaled_complex_ops_are_kernel_calls():
    rng = np.random.default_rng(8)

    def same(got, pair):
        m, e = pair
        assert _bits(got.mantissa).tolist() == _bits(m).tolist()
        assert got.exp10 == int(e)

    def draw():
        m, e = _one(K.normalize, complex(*rng.normal(size=2)),
                    rng.integers(-9, 9))
        return ScaledComplex(complex(m), int(e))

    for _ in range(200):
        a, b = draw(), draw()
        z = complex(*rng.normal(size=2)) * 10.0 ** rng.integers(-5, 5)
        lg, ph = rng.uniform(-400, 400), rng.uniform(-4, 4)
        same(ScaledComplex.from_complex(z), _one(K.normalize, z, 0))
        same(ScaledComplex.from_log10(lg, ph),
             _one(K.normalize,
                  10.0 ** (lg - math.floor(lg)) * cmath.exp(1j * ph),
                  math.floor(lg)))
        same(a + b, _one(K.add, a.mantissa, a.exp10, b.mantissa, b.exp10))
        same(a - b, _one(K.add, a.mantissa, a.exp10, -b.mantissa, b.exp10))
        same(a * b, _one(K.mul, a.mantissa, a.exp10, b.mantissa, b.exp10))
        same(a * z, _one(K.mul, a.mantissa, a.exp10, z, 0))
        same(z * a, _one(K.mul, a.mantissa, a.exp10, z, 0))
        same(a / b, _one(K.normalize, a.mantissa / b.mantissa,
                          a.exp10 - b.exp10))
        same(a / z, _one(K.normalize, a.mantissa / z, a.exp10))


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


@given(st.one_of(st.just(0j), mantissas), exponents, st.integers(1, 130))
@settings(max_examples=200, deadline=None)
def test_powers_match_mpmath(wm, we, n):
    # w^j is a product of one squared power of w per set bit of j; each
    # squaring doubles the error of its factor, so w^j carries j + 2
    # roundings at most
    pm, pe = K.powers(wm, we, n)
    assert len(pm) == len(pe) == n
    with mpmath.workdps(50):
        w = _mp(wm, we)
        for j in range(n):
            ref = w ** j
            if ref == 0:
                assert pm[j] == 0
            else:
                assert _rel_err(pm[j], pe[j], ref, abs(ref)) <= (j + 2) * EPS


def _scalar_to_complex(m, e):
    """The scalar rule that K.to_complex replaced."""
    if m == 0:
        return 0j
    if e > 307:
        return cmath.rect(math.inf, cmath.phase(m))
    if e < -320:
        return 0j
    return m * 10.0 ** e


def test_to_complex_is_the_scalar_rule_in_range():
    rng = np.random.default_rng(8)
    m = rng.normal(size=40) + 1j * rng.normal(size=40)
    m = np.r_[K.normalize(m, np.zeros(40, dtype=np.int64))[0],
              complex(-0.0, -5.0), complex(-0.0, 5.0), complex(3.0, -0.0),
              complex(-0.0, -0.0), complex(1.0, 5e-324), 9.999999999999998]
    for e in range(-320, 308):
        got = K.to_complex(m, np.full(len(m), e))
        want = [_scalar_to_complex(x, e) for x in m]
        assert np.array_equal(_bits(got), _bits(want)), e


def test_to_complex_at_the_edges_of_the_double_range():
    def one(m, e):
        return K.to_complex([m], [e])[0]

    # 10^308: finite where the value is
    assert one(1.5 - 1.5j, 308) == 1.5e308 - 1.5e308j
    assert one(9.0 + 1j, 308) == complex(math.inf, 1e308)
    # past it: inf with each component's sign, zero components kept
    for e in (309, 10**6):
        assert np.array_equal(_bits(one(-3.0, e)), _bits(complex(-math.inf, 0.0)))
        assert np.array_equal(_bits(one(complex(-0.0, -5.0), e)),
                              _bits(complex(-0.0, -math.inf)))
        assert one(2.0 - 1e-300j, e) == complex(math.inf, -math.inf)
    # below 10^-400: zero; above it the product with the libm power, which
    # the scalar rule gave as 0j below 10^-320
    for e in (-400, -401, -10**6):
        assert one(3.0 + 4j, e) == 0
    assert one(9.0, -321) == 9.0 * 10.0 ** -321 != 0
    # a zero mantissa is +0j at any exponent
    for e in (-10**6, 0, 10**6):
        assert np.array_equal(_bits(one(complex(-0.0, -0.0), e)), _bits(0j))
    # NaN stays NaN
    for e in (0, 308, 309):
        z = one(complex(math.nan, 1.0), e)
        assert math.isnan(z.real)
