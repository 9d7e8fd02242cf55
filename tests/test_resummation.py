import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc, exp1

import msumma as ms
from msumma import (CharPolynomial, GAMMA_1, MomentFunction, PdeProblem,
                    RamifiedSeries, borel, kernel_pair_for,
                    kernel_solution_quadrature, laplace_resum,
                    solve_constant_leading)
from msumma import pade, resummation
from msumma.analysis import ANGULAR_TOL, singular_triples

K1 = kernel_pair_for(GAMMA_1)


def euler_borel(n=40):
    # Borel transform of sum (-1)^j j! t^j is sum (-t)^j = 1/(1+t)
    return RamifiedSeries.from_complex(1, (-1.0) ** np.arange(n))


def test_euler_series_oracle():
    # sum_0^inf (-1)^j j! t^j = e^{1/t} E_1(1/t) / t for t > 0
    for t in (0.05, 0.1, 0.2):
        res = laplace_resum(euler_borel(), K1, 0.0, t)
        exact = math.exp(1.0 / t) * exp1(1.0 / t) / t
        assert abs(res.value - exact) < 1e-8 * abs(exact)
        assert res.quadrature_error < 1e-8


def test_euler_series_complex_point():
    t = 0.1 * cmath.exp(0.3j)
    res = laplace_resum(euler_borel(), K1, 0.0, t)
    # analytic continuation of the real-axis oracle
    exact = cmath.exp(1.0 / t) * exp1(complex(1.0 / t)) / t
    assert abs(res.value - exact) < 1e-7 * abs(exact)


def test_sector_violation():
    with pytest.raises(ms.SectorError):
        laplace_resum(euler_borel(), K1, 0.0, 0.1j * cmath.exp(0.2j))


def test_blocked_ray():
    # Borel function 1/(1-x): pole sits on the d = 0 ray
    a = RamifiedSeries.from_complex(1, np.ones(40))
    with pytest.raises(ms.RayBlockedError):
        laplace_resum(a, K1, 0.0, 0.1)
    # rotating away from the pole succeeds
    res = laplace_resum(a, K1, math.pi / 2, 0.1j)
    assert np.isfinite(res.value)


def test_resummation_blocks_what_the_verdict_does_not_call_summable():
    # one blocked-ray rule: the pole 1.3 e^{0.7i} of the Borel function
    # blocks d within ANGULAR_TOL plus its cone r/|xi|, for the verdict
    # and for the resummation alike, up to the edge of that band
    b = 1.3 * cmath.exp(0.7j)
    a = RamifiedSeries.from_complex(
        1, [math.factorial(j) / b**j for j in range(40)])
    bor = borel(GAMMA_1, a)
    (sd, _, cone), = singular_triples(ms.borel_singularities(bor), 1, 1.0, 1)
    edge = ANGULAR_TOL + cone
    for gap in (0.0, ANGULAR_TOL + cone / 2, edge - 1e-13, -edge + 1e-13,
                edge + 1e-9, 0.1):
        d = sd + gap
        rep = ms.summability_verdict(a, [d], levels=[(1, 1)])
        summable = rep.verdicts[0][0].verdict == "summable"
        assert summable == (abs(gap) > edge)
        try:
            laplace_resum(bor, K1, d, 0.05 * cmath.exp(1j * d))
            blocked = False
        except ms.RayBlockedError:
            blocked = True
        assert blocked != summable


def test_ramified_series_rejected():
    a = RamifiedSeries.from_complex(2, np.ones(20))
    with pytest.raises(ms.GridError):
        laplace_resum(a, K1, 0.0, 0.1)


def test_geometric_resum_is_exact_sum():
    # convergent case: resummation must agree with the plain sum
    # sum (t/2)^j = 1/(1 - t/2); Borel series sum (x/2)^j / j!
    a = RamifiedSeries.from_complex(
        1, [0.5**j / math.factorial(j) for j in range(30)])
    t = 0.3
    res = laplace_resum(a, K1, 0.0, t)
    assert abs(res.value - 1.0 / (1.0 - t / 2.0)) < 1e-10


def heat_borel(trunc_t=60):
    # Borel transform of the heat model's u(t, 0): sum C(2j, j) x^j
    prob = PdeProblem(P=CharPolynomial.lam() - CharPolynomial.zeta() ** 2,
                      m1=GAMMA_1, m2=GAMMA_1,
                      data=(RamifiedSeries.from_complex(
                          1, np.ones(2 * trunc_t + 3)),),
                      trunc_t=trunc_t)
    return borel(GAMMA_1, solve_constant_leading(prob).extract_col(0))


RESUM_TS = [0.03j, 0.045j, 0.06j, 0.075j, 0.09j]


def test_resummation_points_share_one_pole_search(monkeypatch):
    roots, solves = [], []
    np_roots, solve = np.roots, pade._solve_pade

    def counting_roots(p):
        roots.append(len(p))
        return np_roots(p)

    def counting_solve(c, L, M):
        solves.append((L, M))
        return solve(c, L, M)

    monkeypatch.setattr(np, "roots", counting_roots)
    monkeypatch.setattr(pade, "_solve_pade", counting_solve)
    bor = heat_borel()
    pade.stable_poles(heat_borel())
    once = len(roots), len(solves)
    assert once[0] >= 2 and once[1] >= 2
    roots.clear(), solves.clear()
    for t in RESUM_TS:
        laplace_resum(bor, K1, math.pi / 2, t)
    assert len(roots) <= once[0] and len(solves) <= once[1]


def test_shared_pole_search_is_bit_identical():
    bor = heat_borel()

    def fresh():
        return RamifiedSeries(bor.kappa, bor.mant.copy(), bor.exp10.copy(),
                              normalized=True)

    for t in RESUM_TS:
        got = laplace_resum(bor, K1, math.pi / 2, t)
        ref = laplace_resum(fresh(), K1, math.pi / 2, t)
        for field in ("value", "quadrature_error", "pade_radius_used"):
            x, y = getattr(got, field), getattr(ref, field)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field
    got, ref = pade.stable_poles(bor), pade.stable_poles(fresh())
    assert np.array(got).tobytes() == np.array(ref).tobytes()
    assert abs(got[0][0] - 0.25) < 1e-3


def test_stable_poles_clusters_once_per_series(monkeypatch):
    clusterings = []
    cluster = pade._cluster

    def counting(pole_sets, *args, **kwargs):
        clusterings.append(len(pole_sets))
        return cluster(pole_sets, *args, **kwargs)

    monkeypatch.setattr(pade, "_cluster", counting)
    bor = heat_borel()
    sing = ms.borel_singularities(bor)
    for t in RESUM_TS:
        laplace_resum(bor, K1, math.pi / 2, t)
    assert clusterings == [3]
    poles = pade.stable_poles(bor)
    assert [(p.location, p.radius) for p in sing.points] == poles
    # each call returns a new list
    before = list(poles)
    poles[0] = (0j, 0.0)
    poles.append((1j, 1.0))
    assert pade.stable_poles(bor) == before
    assert len(clusterings) == 1


def test_panels_count_both_segments(monkeypatch):
    panels = []
    segment = resummation.integrate_segment

    def spy(*args, **kwargs):
        res = segment(*args, **kwargs)
        panels.append(res.panels)
        return res

    monkeypatch.setattr(resummation, "integrate_segment", spy)
    bor = heat_borel()
    for t in RESUM_TS:
        panels.clear()
        res = laplace_resum(bor, K1, math.pi / 2, t)
        assert len(panels) == 2 and min(panels) >= 1
        assert res.panels == sum(panels)
    # a point where one segment bisects
    panels.clear()
    res = laplace_resum(euler_borel(), K1, 0.0, 1.0)
    assert res.panels == sum(panels) > 2


def heat_resum_closed_form(t):
    """(1/t) int_0^{inf e^{i pi/2}} (1 - 4x)^{-1/2} e^{-x/t} dx for t on
    the positive imaginary axis: with s = 1/t and r = sqrt(-s), it is
    -s sqrt(pi) / (2r) e^{-s/4} erfc(r/2)."""
    s = 1.0 / t
    r = cmath.sqrt(-s)
    return (-s * math.sqrt(math.pi) / (2.0 * r) * cmath.exp(-s / 4.0)
            * erfc(r / 2.0))


def test_heat_resum_takes_one_panel_per_segment(monkeypatch):
    # the Pade Borel sum is analytic near both segments, so one K61 panel
    # each suffices, except at 0.09j: the segment from 0.09i to 3.6i is
    # long next to its distance 0.25 from the branch point, and bisects once
    panels = []
    segment = resummation.integrate_segment

    def spy(*args, **kwargs):
        res = segment(*args, **kwargs)
        panels.append(res.panels)
        return res

    monkeypatch.setattr(resummation, "integrate_segment", spy)
    bor = heat_borel(60)
    per_point = []
    for t in RESUM_TS:
        panels.clear()
        res = laplace_resum(bor, K1, math.pi / 2, t)
        per_point.append(list(panels))
        exact = heat_resum_closed_form(t)
        # the Pade limit at trunc_t 60: 3e-16 at 0.03j, 5.5e-12 at 0.09j
        assert abs(res.value - exact) < 1e-11 * abs(exact), t
    assert per_point == [[1, 1]] * 4 + [[1, 2]]


def exp_z3_coeffs(n):
    """The first n Taylor coefficients of e^{z^3}."""
    c = np.zeros(n)
    c[::3] = [1.0 / math.factorial(k) for k in range(len(c[::3]))]
    return c


def test_non_finite_sum_is_refused():
    # heat with e^{z^3} data at trunc_t 30: the [14/15] Borel sum has a
    # zero of its denominator on the ray d = 0 that no stable pole
    # announces; the integral is nan, so no ResummationResult is returned
    prob = PdeProblem(P=CharPolynomial.lam() - CharPolynomial.zeta() ** 2,
                      m1=GAMMA_1, m2=GAMMA_1,
                      data=(RamifiedSeries.from_complex(1, exp_z3_coeffs(63)),),
                      trunc_t=30)
    bor = borel(GAMMA_1, solve_constant_leading(prob).extract_col(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.ResummationError, match="not finite"):
            laplace_resum(bor, K1, 0.0, 0.2)
    assert issubclass(ms.ResummationError, ms.MsummaError)


def test_series_past_double_range_is_refused():
    # log10|c_j| = -400 j has no Pade Borel sum: its rescaling radius
    # 10^400 is past double range
    bor = RamifiedSeries(1, np.ones(40, dtype=np.complex128),
                         -400 * np.arange(40), normalized=True)
    with pytest.raises(ms.ResummationError, match="past double range"):
        laplace_resum(bor, K1, math.pi / 2, 0.05j)


# -- contour-integral solution oracle ---------------------------------------

def test_kernel_quadrature_transport():
    # (d_t - zeta) v = 0 with phi = 1/(1-z): v(t,z) = 1/(1-z-t)
    phi = RamifiedSeries.from_complex(1, np.ones(60))
    val = kernel_solution_quadrature(1.0, 1, GAMMA_1, GAMMA_1, phi,
                                     0.05, 0.05)
    assert abs(val - 1.0 / 0.9) < 1e-6


def test_kernel_quadrature_scaled_root():
    # lam = 2: v(t,z) = 1/(1 - z - 2t)
    phi = RamifiedSeries.from_complex(1, np.ones(60))
    val = kernel_solution_quadrature(2.0, 1, GAMMA_1, GAMMA_1, phi,
                                     0.03, 0.05)
    assert abs(val - 1.0 / (1.0 - 0.05 - 0.06)) < 1e-6


def test_kernel_quadrature_higher_order():
    # (d_{Gamma_2,t} - zeta^2) v = 0 needs s1 = 2 s2
    phi = RamifiedSeries.from_complex(1, np.ones(60))
    m1 = MomentFunction.gamma(2)
    t, z = 0.02, 0.05
    # row recurrence v_j = phi^(2j) / Gamma(1+2j) with phi = 1/(1-z) sums
    # to the closed form (1-z) / ((1-z)^2 - t)
    exact = (1.0 - z) / ((1.0 - z) ** 2 - t)
    val = kernel_solution_quadrature(1.0, 2, m1, GAMMA_1, phi, t, z)
    assert abs(val - exact) < 1e-6 * abs(exact)


def test_kernel_quadrature_guards():
    phi = RamifiedSeries.from_complex(1, np.ones(40))
    with pytest.raises(ms.GridError):
        kernel_solution_quadrature(1.0, 0, GAMMA_1, GAMMA_1, phi, 0.01, 0.01)
    with pytest.raises(ms.UnsupportedRangeError):
        kernel_solution_quadrature(1.0, 2, GAMMA_1, GAMMA_1, phi, 0.01, 0.01)
    with pytest.raises(ms.SectorError):
        kernel_solution_quadrature(1.0, 1, GAMMA_1, GAMMA_1, phi, 0.9, 0.9)
    with pytest.raises(ms.GridError):
        kernel_solution_quadrature(
            1.0, 1, GAMMA_1, GAMMA_1,
            RamifiedSeries.from_complex(2, np.ones(40)), 0.01, 0.01)
