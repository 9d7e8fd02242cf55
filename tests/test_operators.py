import math
from fractions import Fraction

import numpy as np
import pytest

import msumma as ms
from msumma import (GAMMA_0, GAMMA_1, MomentFunction, RamifiedSeries, borel,
                    inverse_borel, moment_derivative, monomial_pseudo)
from msumma.operators import check_commutation, max_relative_deviation

from conftest import random_series

ORDERS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
          Fraction(1), Fraction(2)]


def moment(s):
    return MomentFunction.gamma(s) if s >= 0 else MomentFunction(((s, +1),))


def test_borel_divides_by_moment():
    a = RamifiedSeries.from_complex(1, [1.0, 1.0, 1.0, 1.0])
    b = borel(GAMMA_1, a)
    for j in range(4):
        assert abs(b.coeff_complex(j) - 1.0 / math.factorial(j)) < 1e-15


def test_roundtrip_exact():
    # coefficient-wise scaling must invert exactly in the scaled arithmetic
    rng = np.random.default_rng(1)
    for s in ORDERS:
        m = moment(s)
        a = random_series(rng, n=200)
        back = inverse_borel(m, borel(m, a))
        assert max_relative_deviation(a, back) < 1e-15


def test_roundtrip_ramified():
    rng = np.random.default_rng(2)
    a = random_series(rng, kappa=3, n=90)
    m = MomentFunction.gamma(Fraction(1, 2))
    assert max_relative_deviation(a, inverse_borel(m, borel(m, a))) < 1e-15


def test_product_law():
    # B_{m m'} = B_m B_{m'} exactly, any order of application
    rng = np.random.default_rng(3)
    m1 = MomentFunction.gamma(1)
    m2 = MomentFunction.gamma(Fraction(1, 2))
    a = random_series(rng, n=150)
    lhs = borel(m1 * m2, a)
    rhs = borel(m1, borel(m2, a))
    assert max_relative_deviation(lhs, rhs) < 1e-15
    rhs2 = borel(m2, borel(m1, a))
    assert max_relative_deviation(lhs, rhs2) < 1e-15


def test_moment_derivative_is_shift_rule():
    a = RamifiedSeries.from_complex(1, [1.0, 1.0, 1.0, 1.0, 1.0])
    d = moment_derivative(GAMMA_1, 1, a)
    # for m = Gamma_1 the rule is c_{j+1} * (j+1): the ordinary derivative
    # of sum x^j / 1 in normalized form
    for j in range(4):
        assert abs(d.coeff_complex(j) - (j + 1)) < 1e-14


def test_moment_derivative_truncation_error():
    a = RamifiedSeries.from_complex(2, [1.0])
    with pytest.raises(ms.TruncationError):
        moment_derivative(GAMMA_1, 1, a)


def test_commutation_all_pairs():
    rng = np.random.default_rng(4)
    worst = 0.0
    for s in ORDERS:
        for sp in ORDERS:
            a = random_series(rng, n=40)
            worst = max(worst, check_commutation(moment(s), moment(sp), a))
    assert worst <= 1e-12


def test_monomial_pseudo_grid_check():
    a = RamifiedSeries.from_complex(1, np.ones(10))
    with pytest.raises(ms.GridError):
        monomial_pseudo(1.0, Fraction(1, 2), GAMMA_1, a)
    with pytest.raises(ms.GridError):
        monomial_pseudo(1.0, -1, GAMMA_1, a)


def test_monomial_pseudo_power_telescopes():
    # applying the operator p times equals the closed-form power rule
    rng = np.random.default_rng(6)
    a = random_series(rng, kappa=2, n=40)
    m = MomentFunction.gamma(Fraction(1, 2))
    lam = 0.7 - 0.3j
    one_by_one = a
    for _ in range(3):
        one_by_one = monomial_pseudo(lam, Fraction(3, 2), m, one_by_one)
    closed = monomial_pseudo(lam, Fraction(3, 2), m, a, power=3)
    assert max_relative_deviation(one_by_one, closed) < 1e-13


def test_monomial_pseudo_q_zero_is_scalar():
    a = RamifiedSeries.from_complex(1, [2.0, 3.0])
    out = monomial_pseudo(5.0, 0, GAMMA_1, a)
    assert abs(out.coeff_complex(0) - 10.0) < 1e-14
    assert abs(out.coeff_complex(1) - 15.0) < 1e-14


def test_identity_moment_is_noop():
    rng = np.random.default_rng(8)
    a = random_series(rng, n=30)
    assert max_relative_deviation(a, borel(GAMMA_0, a)) == 0.0


def test_apply_char_polynomial_matches_the_cellwise_rule():
    # term (a, b) of the result at (j, n) is p_ab u[j + a kt, n + b kz]
    # m1(j/kt + a)/m1(j/kt) m2(n/kz + b)/m2(n/kz), here in plain floats
    rng = np.random.default_rng(9)
    kt, kz = 1, 2
    grid = rng.normal(size=(12, 15)) + 1j * rng.normal(size=(12, 15))
    u = ms.BiSeries.from_complex(kt, kz, grid)
    m1, m2 = GAMMA_1, MomentFunction.gamma(Fraction(1, 2))
    coeffs = {(1, 0): 1.0, (0, 1): -2.0 + 1j, (2, 3): 0.5}
    out = ms.operators.apply_char_polynomial(coeffs, m1, m2, u)
    nt, nz = 12 - 2 * kt, 15 - 3 * kz
    assert out.mant.shape == (nt, nz)
    for j in range(nt):
        for n in range(nz):
            want = sum(c * grid[j + a * kt, n + b * kz]
                       * m1(j / kt + a) / m1(j / kt)
                       * m2(n / kz + b) / m2(n / kz)
                       for (a, b), c in coeffs.items())
            got = out.coeff(j, n).to_complex()
            assert abs(got - want) <= 1e-13 * abs(want)
