"""Moment Borel-Laplace resummation and kernel-integral cross-checks.

laplace_resum realizes the sum of a divergent series as the Laplace-type
integral of its Borel transform against the kernel e_m along a chosen
direction; the Borel function itself is the diagonal Pade representative
of the truncated Borel series.  kernel_solution_quadrature evaluates the
closed contour representation of simple-equation solutions as an
independent oracle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analysis import (SingularPoint, SingularitySet, _angular_gap, blocking,
                       singular_triples)
from .errors import (GridError, RayBlockedError, ResummationError,
                     SectorError, UnsupportedRangeError)
from .moments import KernelPair, MomentFunction, kernel_pair_for
from .pade import diagonal_pade, ratio_radius, stable_poles
from .quadrature import integrate_segment
from .series import RamifiedSeries

SECTOR_MARGIN = 0.02  # rad shaved off the flatness sector pi/(2k)
QUAD_TOL = 1e-12  # integrate_segment tolerance of each Laplace segment
DECAY_EXPONENT = 40.0  # kernel decay e^{-40} terminates the Laplace path
CONTOUR_SAMPLES = 96  # trapezoid nodes on the circle |w| = eps
CONTOUR_TOL = 1e-10  # integrate_segment tolerance of each inner ray


@dataclass(frozen=True)
class ResummationResult:
    value: complex
    direction: float
    t: complex
    quadrature_error: float
    pade_radius_used: float
    panels: int  # adaptive panels over both Laplace segments


def laplace_resum(borel_series: RamifiedSeries, kernel: KernelPair, d: float,
                  t: complex) -> ResummationResult:
    """value = int_0^{inf e^{id}} V(x) e_m(x/t) dx/x with V the Pade sum.

    Preconditions: t finite and nonzero, arg t inside the flatness sector
    of direction d (|arg t - d| < pi/(2k) - margin), else SectorError
    before any other work, and no detected Borel singularity on the ray
    within the angular tolerance.  Raises ResummationError when the
    value or its quadrature error is not finite, as when the ray meets a
    zero of the Pade denominator that no stable pole announced, and when
    the series has no Pade representative (diagonal_pade's ValueError).

    The Borel series' stable poles come from its memo after the first
    stable_poles call, and so do their blocked-ray triples after the first
    point (_pole_triples).  The path is split at |t| into two adaptive G30/K61
    segments; each evaluates V (PadeApproximant's two-level Horner) once
    on its 61 nodes and once more, on 122 nodes, per bisection.  V is
    analytic near the path, so a segment mostly takes one panel.  panels
    counts the panels of both segments.
    """
    if borel_series.kappa != 1:
        raise GridError("laplace_resum expects an unramified Borel series")
    t = complex(t)
    if t == 0 or not cmath.isfinite(t):
        raise SectorError(f"t = {t} is not a finite nonzero point; the "
                          "Laplace integral needs one")
    k = kernel.k
    half = kernel.flatness_sector() - SECTOR_MARGIN
    arg_t = cmath.phase(t)
    gap = _angular_gap(arg_t, d)
    if gap >= half:
        raise SectorError(
            f"arg t = {arg_t:.4f} outside the sector |arg t - d| < "
            f"{half:.4f} around direction d = {d:.4f}")

    try:
        poles = stable_poles(borel_series) if len(borel_series) >= 8 else []
        rep = diagonal_pade(borel_series, len(borel_series) // 2)
    except ValueError as exc:
        raise ResummationError(f"no Pade Borel sum: {exc}") from exc
    hit = blocking(d, _pole_triples(borel_series, poles))
    if hit is not None:
        raise RayBlockedError(
            f"direction {d:.4f} blocked by Borel singularity at {hit[1]:.6g} "
            f"(confidence cone {hit[2]:.2g} rad)")

    cosf = math.cos(k * gap)
    r_max = abs(t) * (DECAY_EXPONENT / cosf) ** (1.0 / k)

    def f(x):
        return rep(x) * (kernel.em(x / t) / x)

    # split at |t| so the adaptive pass resolves the kernel turnover
    ray = cmath.exp(1j * d)
    mid = min(abs(t), r_max / 2.0) * ray
    end = r_max * ray
    res1 = integrate_segment(f, 0.0, mid, QUAD_TOL)
    res2 = integrate_segment(f, mid, end, QUAD_TOL)
    value, error = res1.value + res2.value, res1.error + res2.error
    if not (cmath.isfinite(value) and math.isfinite(error)):
        raise ResummationError(
            f"Laplace integral along direction {d:.4f} at t = {t} is not "
            f"finite (value {value}, quadrature error {error}) with the "
            f"[{rep.order[0]}/{rep.order[1]}] Pade Borel sum")
    return ResummationResult(
        value=value,
        direction=d, t=t,
        quadrature_error=max(error, 1e-300),
        pade_radius_used=abs(poles[0][0]) if poles
        else ratio_radius(borel_series),
        panels=res1.panels + res2.panels)


def _pole_triples(borel_series: RamifiedSeries, poles) -> tuple:
    """singular_triples of the stable poles at level 1, built once per series.

    They are kept in the series' Pade memo under "triples", next to the
    clusters they come from, so every resummation point on one Borel
    series tests its ray against the same tuple.
    """
    memo = borel_series._pade_memo
    if "triples" not in memo:
        memo["triples"] = tuple(singular_triples(
            SingularitySet(tuple(SingularPoint(*p) for p in poles),
                           "pade_poles", borel_series.trunc), 1, 1.0, 1))
    return memo["triples"]


def kernel_solution_quadrature(lam: complex, q: int, m1: MomentFunction,
                               m2: MomentFunction, phi: RamifiedSeries,
                               t: complex, z: complex) -> complex:
    """Contour-integral value of the solution of (d_{m1,t} - lam zeta^q) v = 0.

    v(t,z) = m1(0)/(2 pi i) * oint_{|w|=eps} phi(w)
             int_0^{inf e^{i theta}} E_{m1}(t lam zeta^q) E_{m2}(zeta z)
             e_{m2}(zeta w) / (zeta w) dzeta dw,
    with theta = -arg w re-picked per outer node so the kernel decays on
    the inner ray, and eps 3/4 of the data's ratio radius (of 1 when that
    is infinite).  Restricted to kappa = 1, beta = 1, integer q >= 1 and
    moment orders with s1 = q s2 (the representation's validity regime).
    """
    if phi.kappa != 1:
        raise GridError("kernel_solution_quadrature requires kappa = 1")
    if int(q) != q or q < 1:
        raise GridError("q must be a positive integer here")
    q = int(q)
    if m1.order() != q * m2.order():
        raise UnsupportedRangeError(
            f"need moment orders s1 = q*s2; got s1={m1.order()}, "
            f"s2={m2.order()}, q={q}")
    pair1 = kernel_pair_for(m1)
    pair2 = kernel_pair_for(m2)
    k2 = pair2.k

    radius = ratio_radius(phi)
    eps = 0.75 * radius if math.isfinite(radius) else 0.75
    t, z = complex(t), complex(z)
    if abs(z) >= 0.5 * eps or abs(t) >= 0.5 * eps ** q:
        raise SectorError(
            f"(t, z) = ({t}, {z}) outside the validity polydisc for contour "
            f"radius eps = {eps:.3g}; shrink |t|, |z| or supply data with a "
            f"larger convergence disc")

    rho_max = (1.5 * DECAY_EXPONENT) ** (1.0 / k2) / eps

    def inner(w: complex) -> complex:
        theta = -cmath.phase(w)
        e_th = cmath.exp(1j * theta)

        def g(x):
            vals = np.empty(len(x), dtype=np.complex128)
            for i, zeta in enumerate(x):
                if zeta == 0:
                    zeta = 1e-300 * e_th
                y = zeta * w
                vals[i] = (pair1.Em(t * lam * zeta ** q)
                           * pair2.Em(zeta * z) * pair2.em(y) / y)
            return vals

        end = rho_max * e_th
        res = integrate_segment(g, 0.0, end, CONTOUR_TOL)
        return res.value

    th = 2.0 * math.pi * np.arange(CONTOUR_SAMPLES) / CONTOUR_SAMPLES
    total = 0j
    for ang in th:
        w = eps * cmath.exp(1j * ang)
        dw = 1j * w
        total += phi.eval(w) * inner(w) * dw
    total *= 2.0 * math.pi / CONTOUR_SAMPLES
    m10 = math.exp(m1.log_eval(0.0))
    return m10 * total / (2j * math.pi)
