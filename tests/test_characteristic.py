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


# -- bitwise references: the array Newton steps against the np.poly1d ones ----

from msumma import characteristic  # noqa: E402


def polish_root_reference(poly, z0, mult, steps=3):
    """The np.poly1d _polish_root that the coefficient arrays replaced."""
    p = np.poly1d(poly)
    for _ in range(mult - 1):
        p = p.deriv()
    dp = p.deriv()
    z = complex(z0)
    for _ in range(steps):
        d = dp(z)
        if d == 0:
            break
        z = z - p(z) / d
    return z


def newton_polygon_reference(P):
    """newton_polygon_roots with Fraction edge tests and np.poly1d Newton."""
    P.validate()
    deg = {}
    for (a, b), c in P.coeffs.items():
        if c != 0:
            deg[a] = max(deg.get(a, -1), b)
    hull = characteristic._upper_hull([(a, d) for a, d in deg.items()])
    roots = []
    for (a1, d1), (a2, d2) in zip(hull, hull[1:]):
        q = Fraction(d1 - d2, a2 - a1)
        edge = [a for a in range(a1, a2 + 1) if a in deg
                and Fraction(deg[a]) == Fraction(d1) - q * (a - a1)]
        maxa = max(edge)
        poly = np.zeros(maxa - a1 + 1, dtype=np.complex128)
        for a in edge:
            poly[maxa - a] = P.coeffs[(a, deg[a])]
        raw = [z for z in np.roots(poly) if abs(z) > 0]
        tol = max(characteristic.MERGE_TOL,
                  4.0 * float(np.finfo(float).eps) ** (1.0 / (len(poly) - 1)))
        for val, mult in characteristic._cluster_roots(raw, tol):
            val = polish_root_reference(poly, val, mult)
            roots.append(ms.CharRoot(q=q, leading=complex(val),
                                     multiplicity=mult, nu=q.denominator))
    roots.sort(key=lambda r: (-r.q, np.angle(r.leading)))
    return roots


def root_bits(roots):
    return [(r.q, r.multiplicity, r.nu, r.leading.real.hex(),
             r.leading.imag.hex()) for r in roots]


def random_char_polynomial(seed):
    """Two to four sparse terms, or a product of powers with repeated roots."""
    rng = np.random.default_rng(seed)

    def coeff():
        return complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2, 2)

    if seed % 2:
        n = int(rng.integers(2, 5))
        terms = {(int(rng.integers(0, 5)), int(rng.integers(0, 6))): coeff()
                 for _ in range(n)}
        terms[(int(rng.integers(1, 5)), 0)] = coeff()  # a nonzero P_0
        return CharPolynomial(terms)
    P = CharPolynomial.const(coeff())
    for _ in range(int(rng.integers(1, 3))):
        c, q = coeff(), int(rng.integers(1, 4))
        P = P * (L - (Z ** q).scale(c)) ** int(rng.integers(1, 4))
    return P


@pytest.mark.parametrize("seed", range(80))
def test_newton_polygon_matches_the_poly1d_reference(seed):
    P = random_char_polynomial(seed)
    assert root_bits(newton_polygon_roots(P)) == root_bits(
        newton_polygon_reference(P))


@pytest.mark.parametrize("seed", range(40))
def test_polish_root_matches_the_poly1d_reference(seed):
    rng = np.random.default_rng(100 + seed)
    roots = rng.normal(size=3) + 1j * rng.normal(size=3)
    mult = int(rng.integers(1, 4))
    # a root of multiplicity mult, among others, and a start near it
    poly = np.poly(np.concatenate((np.repeat(roots[0], mult), roots[1:])))
    for z0 in (roots[0] * (1 + 1e-6 * rng.normal()), roots[0], 0j):
        got = characteristic._polish_root(poly, z0, mult)
        ref = polish_root_reference(poly, z0, mult)
        assert complex(got).real.hex() == complex(ref).real.hex()
        assert complex(got).imag.hex() == complex(ref).imag.hex()
