import cmath
import heapq
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from msumma import RamifiedSeries
from msumma.pade import diagonal_pade
from msumma.quadrature import (_NODES, _WG_FULL, _WK, QuadResult,
                               integrate_segment)


def one_panel_at_a_time(f, a, b, tol=1e-12, max_panels=400):
    """Reference adaptive loop that evaluates f on one panel per call."""
    def panel(pa, pb):
        mid = 0.5 * (pa + pb)
        half = 0.5 * (pb - pa)
        y = np.asarray(f(mid + half * _NODES), dtype=np.complex128)
        kronrod = half * np.sum(_WK * y)
        gauss = half * np.sum(_WG_FULL * y)
        return kronrod, abs(kronrod - gauss)

    a, b = complex(a), complex(b)
    val, err = panel(a, b)
    heap = [(-err, 0, a, b, val)]
    total_val, total_err = val, err
    count = serial = 1
    while total_err > tol * max(1.0, abs(total_val)) and count < max_panels:
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        v1, e1 = panel(pa, mid)
        v2, e2 = panel(mid, pb)
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, serial, pa, mid, v1))
        heapq.heappush(heap, (-e2, serial + 1, mid, pb, v2))
        serial += 2
        count += 1
    return QuadResult(value=complex(total_val), error=float(total_err),
                      panels=count)


def pade_sum_integrand():
    # Laplace integrand of a Pade sum of 1/sqrt(1 - 4x) along a ray
    c = [math.comb(2 * j, j) for j in range(40)]
    ap = diagonal_pade(RamifiedSeries.from_complex(1, c), 20)
    return lambda x: ap(x) * np.exp(-x / 0.05) / 0.05


BISECTED = [
    (np.exp, 0.0, 400.0, 1e-12),
    (lambda x: 1.0 / (1e-4 + x**2), -1.0, 1.0, 1e-10),
    (pade_sum_integrand(), 0.0, 2.0 * cmath.exp(0.3j), 1e-12),
]


@pytest.mark.parametrize("f, a, b, tol", BISECTED)
def test_bisection_matches_one_panel_at_a_time(f, a, b, tol):
    res = integrate_segment(f, a, b, tol)
    ref = one_panel_at_a_time(f, a, b, tol)
    assert res.panels > 1
    assert (res.value, res.error, res.panels) == (ref.value, ref.error,
                                                  ref.panels)


@pytest.mark.parametrize("f, a, b, tol", BISECTED)
def test_one_call_per_bisection(f, a, b, tol):
    sizes = []

    def counted(x):
        sizes.append(len(x))
        return f(x)

    res = integrate_segment(counted, a, b, tol)
    n = len(_NODES)
    assert len(sizes) == 1 + (res.panels - 1)
    assert sizes == [n] + [2 * n] * (res.panels - 1)


def test_exponential_on_real_segment():
    res = integrate_segment(np.exp, 0.0, 1.0)
    assert abs(res.value - (math.e - 1.0)) < 1e-13
    assert abs(res.value - (math.e - 1.0)) <= max(res.error, 1e-14)


def test_polynomial_is_near_exact():
    # degree 13 is inside the exactness range of the base rule
    res = integrate_segment(lambda x: 14.0 * x**13, 0.0, 1.0)
    assert abs(res.value - 1.0) < 1e-13


def test_oscillatory_integrand():
    res = integrate_segment(np.sin, 0.0, 20.0 * math.pi)
    assert abs(res.value) < 1e-10


def test_complex_segment_direction():
    # int_0^{i} e^x dx = e^i - 1
    res = integrate_segment(np.exp, 0.0, 1j)
    assert abs(res.value - (cmath.exp(1j) - 1.0)) < 1e-13


def test_adaptive_refinement_on_peak():
    res = integrate_segment(lambda x: 1.0 / (1e-4 + x**2), -1.0, 1.0,
                            tol=1e-10)
    exact = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
    assert abs(res.value - exact) < 1e-8 * exact
    assert res.panels > 1


# -- the G30/K61 constants, recomputed --------------------------------------


def gauss_kronrod_mp(n, dps):
    """The (2n+1)-point Kronrod extension of n-point Gauss-Legendre in
    mpmath: [(node, Kronrod weight, Gauss weight or 0)] ascending.

    The new nodes are the zeros of the monic Stieltjes polynomial E_{n+1},
    orthogonal to P_n(x) x^k on [-1, 1] for k <= n, one between each two
    neighbouring Gauss nodes or a Gauss node and +-1.  With
    c_n = int P_n x^n dx = 2^{n+1} n!^2 / (2n+1)!, the interpolatory
    weights are w_G + c_n / (P_n' E_{n+1}) at a Gauss node and
    c_n / (P_n E_{n+1}') at a Stieltjes zero.
    """
    P0, P = [Fraction(1)], [Fraction(0), Fraction(1)]  # exact, power = index
    for k in range(1, n):
        nxt = [Fraction(0)] + [Fraction(2 * k + 1, k + 1) * c for c in P]
        for i, c in enumerate(P0):
            nxt[i] -= Fraction(k, k + 1) * c
        P0, P = P, nxt

    def pmom(m):  # int_{-1}^{1} P_n(x) x^m dx
        return sum(c * Fraction(2, i + m + 1) for i, c in enumerate(P)
                   if c and (i + m) % 2 == 0)

    # E has the parity of n + 1, so only odd k constrain it, and the
    # integral vanishes below degree n: k = 1, 3, ... fix the coefficients
    # of degree n - 1, n - 3, ... one at a time
    E = [Fraction(0)] * (n + 2)
    E[n + 1] = Fraction(1)
    for k in range(1, n + 1, 2):
        E[n - k] = -sum(E[j] * pmom(j + k)
                        for j in range(n - k + 2, n + 2, 2)) / pmom(n)

    with mp.workdps(dps + 20):  # the monomial basis cancels digits
        Pm = [mp.mpf(c.numerator) / c.denominator for c in P]
        Em = [mp.mpf(c.numerator) / c.denominator for c in E]

        def ev(c, x):  # (c(x), c'(x)) by Horner
            v = d = mp.mpf(0)
            for a in reversed(c):
                d = d * x + v
                v = v * x + a
            return v, d

        def newton(c, x):
            for _ in range(100):
                v, d = ev(c, x)
                x -= v / d
                if abs(v / d) < mp.mpf(10) ** -dps:
                    return x
            raise ArithmeticError("Newton did not converge")

        gauss = [newton(Pm, mp.cos(mp.pi * (i + 0.75) / (n + 0.5)))
                 for i in range(n)][::-1]
        edges = [mp.mpf(-1)] + gauss + [mp.mpf(1)]
        new = []
        for lo, hi in zip(edges, edges[1:]):
            neg = ev(Em, lo)[0] < 0
            for _ in range(12):
                mid = (lo + hi) / 2
                if (ev(Em, mid)[0] < 0) == neg:
                    lo = mid
                else:
                    hi = mid
            new.append(newton(Em, (lo + hi) / 2))
        cn = (mp.mpf(2) ** (n + 1) * mp.factorial(n) ** 2
              / mp.factorial(2 * n + 1))
        rule = []
        for x in gauss:
            dp = ev(Pm, x)[1]
            wg = 2 / ((1 - x * x) * dp * dp)
            rule.append((x, wg + cn / (dp * ev(Em, x)[0]), wg))
        for x in new:
            rule.append((x, cn / (ev(Pm, x)[0] * ev(Em, x)[1]), mp.mpf(0)))
        return sorted(rule)


def test_derivation_reproduces_quadpack_k15():
    # QUADPACK dqk15's published xgk(1), wgk(1), wg(1) and wgk(8)
    rule = gauss_kronrod_mp(7, 40)
    assert len(rule) == 15
    with mp.workdps(40):
        for got, want in (
                (rule[-1][0], "0.991455371120812639206854697526329"),
                (rule[-1][1], "0.022935322010529224963732008058970"),
                (rule[-2][2], "0.129484966168869693270611432679082"),
                (rule[7][1], "0.209482141084727828012999174891714")):
            assert abs(got - mp.mpf(want)) < 1e-32, (got, want)


def test_constants_match_the_derived_rule():
    rule = gauss_kronrod_mp(30, 50)
    assert len(rule) == len(_NODES) == 61
    with mp.workdps(50):
        for got, col in ((_NODES, 0), (_WK, 1), (_WG_FULL, 2)):
            for g, r in zip(got.tolist(), rule):
                assert abs(g - r[col]) <= 1e-15 * abs(r[col]), (col, g, r)
    # the Gauss nodes are the odd positions, and the middle node is 0.0
    assert np.count_nonzero(_WG_FULL) == 30
    assert _NODES[30] == 0.0


@pytest.mark.parametrize("weights, degree", [(_WK, 91), (_WG_FULL, 59)],
                         ids=["K61", "G30"])
def test_rule_is_exact_for_polynomials(weights, degree):
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(weights * _NODES ** k) - exact) < 1e-14, k
