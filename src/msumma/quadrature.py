"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

scipy's QUADPACK wrappers are real-valued and hide the error estimate per
panel, so a small engine is kept here: complex integrands along straight
segments in the complex plane, a-posteriori error from the Gauss/Kronrod
difference, greedy bisection of the worst panel.  The rule is QUADPACK's
highest pair, G30/K61 (dqk61): the integrands here, Pade Borel sums times
a Laplace kernel, are analytic near each segment, where the error of an
n-point rule falls geometrically in n, so one 61-node panel usually meets
the tolerance that takes the 15-node pair several bisections.  A call
evaluates the integrand on 61 nodes, then on 122 per bisection.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# QUADPACK dqk61 constants: the nonnegative Kronrod nodes, descending (the
# 30-point Gauss nodes are _XGK[1::2]), their K61 weights, and the G30
# weights of those Gauss nodes.  Computed with mpmath at 60 digits as the
# Kronrod extension of Gauss-Legendre, rounded to double.
_XGK = np.array([
    0.9994844100504906, 0.9968934840746495, 0.9916309968704046,
    0.9836681232797472, 0.9731163225011262, 0.9600218649683075,
    0.94437444474856, 0.9262000474292743, 0.9055733076999078,
    0.8825605357920527, 0.8572052335460612, 0.8295657623827684,
    0.799727835821839, 0.7677774321048262, 0.7337900624532268,
    0.6978504947933158, 0.6600610641266269, 0.6205261829892429,
    0.5793452358263617, 0.5366241481420199, 0.49248046786177857,
    0.44703376953808915, 0.4004012548303944, 0.3527047255308781,
    0.30407320227362505, 0.25463692616788985, 0.20452511668230988,
    0.15386991360858354, 0.10280693796673702, 0.0514718425553177, 0.0,
])
_WGK = np.array([
    0.0013890136986770077, 0.003890461127099884, 0.0066307039159312926,
    0.009273279659517764, 0.011823015253496341, 0.014369729507045804,
    0.01692088918905327, 0.019414141193942382, 0.021828035821609193,
    0.0241911620780806, 0.0265099548823331, 0.02875404876504129,
    0.030907257562387762, 0.03298144705748372, 0.034979338028060025,
    0.03688236465182123, 0.038678945624727595, 0.040374538951535956,
    0.041969810215164244, 0.04345253970135607, 0.04481480013316266,
    0.04605923827100699, 0.04718554656929915, 0.04818586175708713,
    0.04905543455502978, 0.04979568342707421, 0.05040592140278235,
    0.05088179589874961, 0.051221547849258774, 0.05142612853745902,
    0.05149472942945157,
])
_WG = np.array([
    0.007968192496166605, 0.01846646831109096, 0.02878470788332337,
    0.03879919256962705, 0.04840267283059405, 0.057493156217619065,
    0.06597422988218049, 0.0737559747377052, 0.08075589522942021,
    0.08689978720108298, 0.09212252223778612, 0.09636873717464425,
    0.09959342058679527, 0.1017623897484055, 0.10285265289355884,
])

# the 61 nodes ascending; the Gauss nodes sit at the odd positions
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_WG_FULL = np.zeros(len(_NODES))
_WG_FULL[1::2] = np.concatenate([_WG, _WG[::-1]])


def _nodes(a: complex, b: complex):
    """Half-length and the 61 Kronrod nodes of the segment a..b."""
    half = 0.5 * (b - a)
    return half, 0.5 * (a + b) + half * _NODES


def _rule(half: complex, y: np.ndarray):
    """(K61 value, |K61 - G30|) from the integrand values at the 61 nodes.

    The Gauss rule reuses the Kronrod rule's values at its 30 nodes, so
    the error estimate costs no further evaluation.
    """
    k61 = half * np.sum(_WK * y)
    g30 = half * np.sum(_WG_FULL * y)
    return k61, abs(k61 - g30)


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    panels: int


def integrate_segment(f, a: complex, b: complex, tol: float = 1e-12,
                      max_panels: int = 400) -> QuadResult:
    """Adaptive integral of f along the straight segment from a to b.

    f must accept a numpy array of complex points and return one value
    per point.  It is called once on the 61 nodes of the whole segment,
    then once per bisection, on the 122 nodes of both halves.  The
    reported error is the summed Gauss/Kronrod deviation, an a-posteriori
    estimate only.
    """
    a, b = complex(a), complex(b)
    half, x = _nodes(a, b)
    val, err = _rule(half, np.asarray(f(x), dtype=np.complex128))
    heap = [(-err, 0, a, b, val)]
    total_val, total_err = val, err
    count = 1
    serial = 1
    while total_err > tol * max(1.0, abs(total_val)) and count < max_panels:
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        h1, x1 = _nodes(pa, mid)
        h2, x2 = _nodes(mid, pb)
        y = np.asarray(f(np.concatenate((x1, x2))), dtype=np.complex128)
        v1, e1 = _rule(h1, y[:len(_NODES)])
        v2, e2 = _rule(h2, y[len(_NODES):])
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, serial, pa, mid, v1))
        heapq.heappush(heap, (-e2, serial + 1, mid, pb, v2))
        serial += 2
        count += 1
    return QuadResult(value=complex(total_val), error=float(total_err),
                      panels=count)
