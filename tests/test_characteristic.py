import math
from fractions import Fraction

import numpy as np
import pytest

import msumma as ms
from msumma import (CharPolynomial, newton_polygon_roots, summability_levels)
from msumma.characteristic import problem_kappa, reconstruct_from_roots

L = CharPolynomial.lam()
Z = CharPolynomial.zeta()


def test_single_root():
    roots = newton_polygon_roots(L - Z**2)
    assert len(roots) == 1
    r = roots[0]
    assert r.q == 2
    assert abs(r.leading - 1.0) < 1e-14
    assert r.multiplicity == 1


def test_two_roots_same_q():
    roots = newton_polygon_roots((L - Z) * (L + Z))
    assert [r.q for r in roots] == [1, 1]
    leads = sorted(r.leading.real for r in roots)
    assert abs(leads[0] + 1) < 1e-12 and abs(leads[1] - 1) < 1e-12


def test_mixed_orders():
    roots = newton_polygon_roots((L - Z**3) * (L + Z))
    assert [(r.q, r.multiplicity) for r in roots] == [(3, 1), (1, 1)]
    # sorted q-descending
    assert abs(roots[0].leading - 1.0) < 1e-10
    assert abs(roots[1].leading + 1.0) < 1e-10


def test_double_root_not_split():
    roots = newton_polygon_roots((L - Z**2) ** 2)
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    # polishing restores the exact location despite the eigensolver split
    assert abs(roots[0].leading - 1.0) < 1e-12


def test_triple_root():
    roots = newton_polygon_roots((L - Z) ** 3)
    assert len(roots) == 1
    assert roots[0].multiplicity == 3
    assert abs(roots[0].leading - 1.0) < 1e-10


def test_fractional_exponent():
    # lambda^2 - zeta: two branches of q = 1/2
    P = L**2 - Z
    roots = newton_polygon_roots(P)
    assert all(r.q == Fraction(1, 2) for r in roots)
    assert all(r.nu == 2 for r in roots)
    assert problem_kappa(roots) == 2


def test_degenerate_inputs():
    with pytest.raises(ms.SemanticError):
        newton_polygon_roots(CharPolynomial({}))
    cancelled = CharPolynomial({(1, 1): 1.0}) - CharPolynomial({(1, 1): 1.0})
    with pytest.raises(ms.SemanticError):
        newton_polygon_roots(cancelled)


def test_levels_formula():
    roots = newton_polygon_roots(L - Z**2)
    # K = (q (s2+s) - s1)^(-1)
    levels = summability_levels(roots, 1, 1, 0)
    assert levels == [(Fraction(2), Fraction(1))]
    levels = summability_levels(roots, Fraction(1, 2), 1, 0)
    assert levels == [(Fraction(2), Fraction(2, 3))]


def test_levels_filter_convergent_branches():
    roots = newton_polygon_roots((L - Z**3) * (L + Z))
    # with s1=2, s2=1, s=0 only q=3 exceeds the threshold s1/(s2+s)=2
    levels = summability_levels(roots, 2, 1, 0)
    assert levels == [(Fraction(3), Fraction(1))]


def test_levels_ordering_descending_K():
    roots = newton_polygon_roots((L - Z**3) * (L + Z))
    levels = summability_levels(roots, Fraction(1, 2), 1, 0)
    ks = [k for _, k in levels]
    assert ks == sorted(ks, reverse=True)
    assert len(levels) == 2


def test_levels_guards():
    roots = newton_polygon_roots(L - Z)
    with pytest.raises(ms.SemanticError):
        summability_levels(roots, 1, -1, 0)
    with pytest.raises(ms.SemanticError):
        summability_levels(roots, 0, 1, 0)


def test_reconstruction_roundtrip():
    P = (L - Z.scale(2.0)) * (L + (Z**2).scale(0.5 + 0.5j))
    roots = newton_polygon_roots(P)
    rec = reconstruct_from_roots(roots, 1.0, problem_kappa(roots))
    given = {(a, b): c for (a, b), c in P.coeffs.items()}
    for key, c in given.items():
        assert abs(rec.get(key, 0) - c) < 1e-10


def test_polynomial_arithmetic():
    P = (L - Z) * (L + Z)
    assert P.coeffs.get((2, 0)) == 1.0
    assert P.coeffs.get((0, 2)) == -1.0
    assert (1, 1) not in P.coeffs
    assert P.lam_degree == 2
    assert P(2.0, 1.0) == 3.0
    assert P.leading_constant() == 1.0
    Q = L**2 - (Z**2) * CharPolynomial.const(1.0)
    assert (P - Q).coeffs == {}


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13])
def test_power_by_squaring_matches_repeated_products(k):
    base = L.scale(0.5 - 0.25j) + Z.scale(1.5) + CharPolynomial.const(1j)
    want = CharPolynomial.const(1.0)
    for _ in range(k):
        want = want * base
    got = base ** k
    assert set(got.coeffs) == set(want.coeffs)
    for key, c in want.coeffs.items():
        assert abs(got.coeffs[key] - c) <= 1e-13 * abs(c)
