import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

import msumma as ms
from msumma import MomentFunction, kernel_pair_for, mittag_leffler, moments
from msumma.moments import LOG10_E
from msumma.operators import moment_quotient
from msumma.scaled import ScaledComplex, from_log10_array


def test_gamma_1_values():
    m = ms.GAMMA_1
    for j in range(10):
        assert abs(m(j) - math.factorial(j)) / math.factorial(j) < 1e-14


def test_gamma_half_values():
    m = MomentFunction.gamma(Fraction(1, 2))
    for u in (0.0, 1.0, 2.0, 7.5):
        assert abs(m(u) - math.gamma(1 + 0.5 * u)) < 1e-12 * m(u)


def test_negative_order_is_reciprocal():
    m = MomentFunction.gamma(-1)
    for u in (0.0, 0.5, 2.3):
        assert abs(m(u) - 1.0 / math.gamma(1 + u)) < 1e-14


def test_order_is_exact_rational():
    m = MomentFunction.gamma(Fraction(1, 2)) * MomentFunction.gamma(2)
    assert m.order() == Fraction(5, 2)
    d = m / MomentFunction.gamma(1)
    assert d.order() == Fraction(3, 2)


def test_product_and_quotient_eval():
    m = MomentFunction.gamma(1) * MomentFunction.gamma(Fraction(1, 2))
    for u in (0.0, 1.0, 3.0):
        expect = math.gamma(1 + u) * math.gamma(1 + 0.5 * u)
        assert abs(m(u) - expect) < 1e-12 * expect
    q = MomentFunction.gamma(1) / MomentFunction.gamma(1)
    assert q.order() == 0
    assert abs(q(4.0) - 1.0) < 1e-14


def test_log_eval_no_overflow():
    m = MomentFunction.gamma(2)
    v = m.eval_scaled(300.0)
    assert v.is_finite()
    assert abs(v.log10_abs() - math.lgamma(601) * math.log10(math.e)) < 1e-8


def test_table_quotient_cancellation():
    # Gamma(1) at 101 over Gamma(1) at 100, from the kept tables
    qm, qe = moment_quotient(MomentFunction.gamma(1), 1, np.array([101]),
                             np.array([100]))
    assert abs(ScaledComplex(qm[0], int(qe[0])).to_complex() - 101.0) < 1e-10


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        ms.GAMMA_1.log_eval(-1.0)


def test_generalized_single_factor_constraints():
    MomentFunction.gamma(1, a=2.0, b=1.5)
    with pytest.raises(ms.UnsupportedKernelError):
        MomentFunction.gamma(1, a=2.0) * MomentFunction.gamma(1)
    with pytest.raises(ValueError):
        MomentFunction.gamma(1, b=0.5)


def test_mittag_leffler_exp():
    for z in (0.3, -2.0, 1 + 1j):
        assert abs(mittag_leffler(1.0, z) - cmath.exp(z)) < 1e-13 * max(
            1.0, abs(cmath.exp(z)))


def test_mittag_leffler_cosh():
    # E_2(z) = cosh(sqrt(z))
    for z in (0.5, 4.0, 2 - 1j):
        ref = cmath.cosh(cmath.sqrt(z))
        assert abs(mittag_leffler(2.0, z) - ref) < 1e-12 * max(1.0, abs(ref))


def test_mittag_leffler_half():
    # E_{1/2}(z) = exp(z^2) erfc(-z) for real z
    for z in (0.2, 1.5, -0.7):
        ref = math.exp(z * z) * erfc(-z)
        assert abs(mittag_leffler(0.5, z) - ref) < 1e-10 * max(1.0, abs(ref))


def test_mittag_leffler_asymptotic_regime():
    # large argument inside the sector switches to the exponential form
    z = 2000.0
    ref = cmath.cosh(cmath.sqrt(z))
    assert abs(mittag_leffler(2.0, z) - ref) < 1e-8 * abs(ref)
    with pytest.raises(ms.UnsupportedRangeError):
        mittag_leffler(0.5, -1e9)


def test_mittag_leffler_alpha_range():
    with pytest.raises(ms.UnsupportedRangeError):
        mittag_leffler(2.5, 1.0)


def test_kernel_pair_mellin_identity():
    # m(u) = int_0^inf x^(u-1) e_m(x) dx for the kernel attached to m
    for s in (1, Fraction(1, 2), 2):
        m = MomentFunction.gamma(s)
        kp = kernel_pair_for(m)
        for u in (0.0, 1.0, 2.5):
            val, _ = quad(lambda x: x ** (u - 1) * kp.em(x).real, 0, np.inf,
                          limit=400)
            assert abs(val - m(u)) < 1e-8 * max(1.0, m(u))


def test_kernel_em_on_arrays_and_at_zero():
    x = np.array([0.0, 0.3 + 0.2j, 2.0, 1j, 5.0 - 3j])
    for m in (MomentFunction.gamma(1), MomentFunction.gamma(Fraction(1, 2)),
              MomentFunction.gamma(2), MomentFunction(((1, 1),), 2.0, 1.5)):
        kp = kernel_pair_for(m)
        vals = kp.em(x)
        assert vals[0] == 0 and kp.em(0j) == 0
        np.testing.assert_allclose(vals[1:], [kp.em(complex(v)) for v in x[1:]],
                                   rtol=1e-14, atol=0)


def test_kernel_root_lift():
    # order 2 moment (k = 1/2) needs the minimal lift p with p*k > 1/2
    kp = kernel_pair_for(MomentFunction.gamma(2))
    assert kp.k == 0.5
    assert kp.p == 2
    assert kernel_pair_for(ms.GAMMA_1).p == 1
    assert kernel_pair_for(MomentFunction.gamma(3)).p == 2


def test_kernel_flatness_sector():
    kp = kernel_pair_for(ms.GAMMA_1)
    assert abs(kp.flatness_sector() - math.pi / 2) < 1e-15


def test_kernel_entire_partner_matches_series():
    kp = kernel_pair_for(ms.GAMMA_1)
    z = 0.7 - 0.2j
    ref = sum(z ** n / math.factorial(n) for n in range(60))
    assert abs(kp.Em(z) - ref) < 1e-13


def test_kernel_pair_rejects_composites():
    with pytest.raises(ms.UnsupportedKernelError):
        kernel_pair_for(ms.GAMMA_1 * ms.GAMMA_1)
    with pytest.raises(ms.UnsupportedKernelError):
        kernel_pair_for(ms.GAMMA_0)


# -- array moment tables ----------------------------------------------------

TABLE_MOMENTS = (
    ms.GAMMA_1,
    MomentFunction.gamma(Fraction(1, 2)),
    MomentFunction.gamma(-1),
    MomentFunction.gamma(2) * MomentFunction.gamma(Fraction(-1, 3)),
    MomentFunction.gamma(1) / MomentFunction.gamma(Fraction(2, 3)),
    MomentFunction.gamma(Fraction(1, 3), a=2.5, b=1.75),
)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


def test_log_eval_array_matches_log_eval():
    u = np.concatenate([np.arange(121) / 3, [0.5, 7.25, 250.0, 1e4]])
    for m in TABLE_MOMENTS:
        table = m.log_eval_array(u)
        scalar = np.array([m.log_eval(float(x)) for x in u])
        assert table.shape == u.shape
        assert _same_bits(table, scalar)
    grid = np.arange(12.0).reshape(3, 4)
    assert m.log_eval_array(grid).shape == (3, 4)
    with pytest.raises(ValueError):
        ms.GAMMA_1.log_eval_array(np.array([0.0, 1.0, -0.5]))


def test_from_log10_array_matches_from_log10():
    rng = np.random.default_rng(11)
    logs = np.concatenate([
        rng.uniform(-5000.0, 5000.0, 4000),
        rng.uniform(-3.0, 3.0, 2000),
        # integers and neighbours, where floor and the mantissa's
        # decade correction decide the exponent
        np.arange(-320.0, 320.0),
        [-1e-20, 1e-20, 0.0, -0.0, np.nextafter(1.0, 0.0), 4999.999999999,
         -4999.999999999, 308.3, -323.7],
    ])
    mant, exp10 = from_log10_array(logs)
    ref = [ScaledComplex.from_log10(x) for x in logs.tolist()]
    assert _same_bits(mant, np.array([r.mantissa for r in ref]))
    assert np.array_equal(exp10, [r.exp10 for r in ref])
    with pytest.raises(ValueError):
        from_log10_array(np.array([1.0, np.inf]))


def _mp_log_gamma_s(s, u, a=1, b=1):
    """log of a * Gamma_s(u) generalised to b, at 50 significant digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s.numerator) / s.denominator
        x = mpmath.mpf(b) + abs(s) * mpmath.mpf(u)
        lg = mpmath.loggamma(x)
        return (lg if s >= 0 else -lg) + mpmath.log(a)


@pytest.mark.parametrize("s, a, b, u", [
    # large u: 1 + 2u close to 2e4
    (Fraction(2), 1, 1, np.linspace(9000.0, 9999.5, 7)),
    (Fraction(1), 1, 1, np.array([0.0, 0.5, 1.0, 1.5, 3.0, 170.0, 1e4])),
    # Gamma_s with negative s is 1/Gamma(1 - s u)
    (Fraction(-1), 1, 1, np.array([0.0, 0.25, 1.0, 2.5, 60.0, 1e4])),
    (Fraction(-3, 2), 1, 1, np.array([0.0, 0.5, 1.0, 7.0, 333.3])),
    # a * Gamma(b + u/k)
    (Fraction(1, 2), 2.5, 1.75, np.array([0.0, 0.5, 3.0, 41.0, 2e4])),
    (Fraction(1, 3), 0.125, 1.0, np.array([0.0, 1.5, 3.0, 9.0, 900.0])),
])
def test_log_eval_array_mpmath_oracle(s, a, b, u):
    m = MomentFunction.gamma(s, a=a, b=b)
    got = m.log_eval_array(u)
    for x, g in zip(u.tolist(), got.tolist()):
        ref = float(_mp_log_gamma_s(s, x, a, b))
        assert abs(g - ref) <= 1e-13 * max(1.0, abs(ref)), (x, g, ref)


def _with_shift(m, b):
    # MomentFunction rejects b < 1, which keeps every Gamma argument >= 1
    # for u >= 0; lowering b afterwards puts poles on the grid
    object.__setattr__(m, "shift_b", b)
    return m


@pytest.mark.parametrize("s", [1, -1])
def test_log_eval_array_poles_raise_like_scalar(s):
    m = _with_shift(MomentFunction.gamma(s), -3.0)
    # s = 1: Gamma(-3 + u) has a pole at u = 1; s = -1: 1/Gamma(-3 + u)
    # vanishes there, so its log diverges
    with pytest.raises(ms.MomentPoleError) as scalar:
        m.log_eval(1.0)
    with pytest.raises(ms.MomentPoleError) as table:
        m.log_eval_array(np.array([0.5, 1.0, 2.0]))
    assert str(table.value) == str(scalar.value)
    # non-integer arguments stay finite
    assert np.all(np.isfinite(m.log_eval_array(np.array([0.5, 1.5]))))


# -- scaled moment tables -----------------------------------------------------

SCALED_TABLE_MOMENTS = (
    ms.GAMMA_1,
    MomentFunction.gamma(Fraction(1, 2)),
    MomentFunction.gamma(2) / MomentFunction.gamma(1),
    MomentFunction.gamma(Fraction(1, 3), a=2.5, b=1.75),
)


def _uncached_table(m, kappa, count, sign):
    return from_log10_array(
        sign * m.log_eval_array(np.arange(count) / kappa) * LOG10_E)


@pytest.mark.parametrize("m", SCALED_TABLE_MOMENTS)
@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("counts", [(40, 301), (301, 40)])
def test_scaled_table_matches_uncached_build(fresh_tables, m, kappa, sign,
                                             counts):
    # short then long rebuilds the kept table; long then short slices it
    for count in counts + counts:
        mant, exp10 = m.scaled_table(kappa, count, sign)
        ref_m, ref_e = _uncached_table(m, kappa, count, sign)
        assert _same_bits(mant, ref_m)
        assert np.array_equal(exp10, ref_e) and exp10.dtype == ref_e.dtype
    assert len(fresh_tables[(m, kappa, sign)][0]) == max(counts)


def test_scaled_table_is_built_once_and_read_only(fresh_tables, monkeypatch):
    builds = []
    build = moments.from_log10_array
    monkeypatch.setattr(moments, "from_log10_array",
                        lambda x: builds.append(len(x)) or build(x))
    m = MomentFunction.gamma(Fraction(1, 2))
    for count in (201, 21, 201, 421, 100):
        mant, exp10 = m.scaled_table(1, count, -1)
        assert len(mant) == len(exp10) == count
        assert not mant.flags.writeable and not exp10.flags.writeable
        with pytest.raises(ValueError):
            mant[0] = 1.0
        with pytest.raises(ValueError):
            exp10[0] = 1
    assert builds == [201, 421]
    # an equal moment function and the other sign are keys of their own
    MomentFunction.gamma(Fraction(1, 2)).scaled_table(1, 100, -1)
    m.scaled_table(1, 100, +1)
    assert builds == [201, 421, 100]


def test_scaled_table_keeps_at_most_the_cap(fresh_tables):
    ms_ = [MomentFunction.gamma(Fraction(1, j))
           for j in range(1, moments._TABLE_CAP + 6)]
    for m in ms_:
        m.scaled_table(1, 5, +1)
    assert len(fresh_tables) == moments._TABLE_CAP
    # the oldest went first
    assert (ms_[0], 1, 1) not in fresh_tables
    assert (ms_[-1], 1, 1) in fresh_tables


def test_scaled_table_failures_are_raised_and_never_kept(fresh_tables):
    # Gamma(-1/2 + u) has a pole at u = 1/2: at kappa = 2 the table meets
    # it from count 2 on
    m = _with_shift(MomentFunction.gamma(1), -0.5)
    for _ in range(2):
        with pytest.raises(ms.MomentPoleError):
            m.scaled_table(2, 5, +1)
    # an infinite scale a makes every log infinite
    inf = MomentFunction.gamma(1, a=math.inf)
    for _ in range(2):
        with pytest.raises(ValueError):
            inf.scaled_table(1, 5, -1)
    assert not fresh_tables
    # the entry before the pole is fine, and is kept
    assert m.scaled_table(2, 1, +1)[0].size == 1
    assert len(fresh_tables) == 1
    with pytest.raises(ms.MomentPoleError):
        m.scaled_table(2, 5, +1)
    assert len(fresh_tables[(m, 2, 1)][0]) == 1
