import cmath
import heapq
import math

import numpy as np
import pytest

from msumma.pade import diagonal_pade
from msumma.quadrature import (_NODES, _WG_FULL, _WK, QuadResult,
                               integrate_segment)


def one_panel_at_a_time(f, a, b, tol=1e-12, max_panels=400):
    """Reference adaptive loop that evaluates f on one 15-node panel per call."""
    def panel(pa, pb):
        mid = 0.5 * (pa + pb)
        half = 0.5 * (pb - pa)
        y = np.asarray(f(mid + half * _NODES), dtype=np.complex128)
        k15 = half * np.sum(_WK * y)
        g7 = half * np.sum(_WG_FULL * y)
        return k15, abs(k15 - g7)

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
    ap = diagonal_pade(c, 20)
    return lambda x: ap(x) * np.exp(-x / 0.05) / 0.05


BISECTED = [
    (np.exp, 0.0, 30.0, 1e-12),
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
    assert len(sizes) == 1 + (res.panels - 1)
    assert sizes == [15] + [30] * (res.panels - 1)


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
