"""Characteristic-root data from the Newton polygon of P(lambda, zeta).

Only leading-term data is extracted: for each root branch the pole order
q = mu/nu, the leading coefficient, and the multiplicity.  Summability
levels consume nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import SemanticError

MERGE_TOL = 1e-8  # relative tolerance for coincident edge-polynomial roots


class CharPolynomial:
    """Polynomial in (lambda, zeta) as a sparse map (a, b) -> coefficient."""

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for key, c in (coeffs or {}).items():
            if c != 0:
                a, b = key
                self.coeffs[(int(a), int(b))] = complex(c)

    @staticmethod
    def lam() -> "CharPolynomial":
        return CharPolynomial({(1, 0): 1.0})

    @staticmethod
    def zeta() -> "CharPolynomial":
        return CharPolynomial({(0, 1): 1.0})

    @staticmethod
    def const(c) -> "CharPolynomial":
        return CharPolynomial({(0, 0): c})

    @property
    def lam_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(a for a, _ in self.coeffs)

    def leading_poly(self):
        """P_0: coefficients of lambda^n as a map b -> c."""
        n = self.lam_degree
        return {b: c for (a, b), c in self.coeffs.items() if a == n}

    def leading_constant(self):
        """P_0 when it is a nonzero constant, else None."""
        p0 = self.leading_poly()
        if set(p0) == {0}:
            return p0[0]
        return None

    def validate(self):
        if not self.coeffs:
            raise SemanticError("characteristic polynomial is identically zero")
        if not self.leading_poly():
            raise SemanticError("leading lambda coefficient P_0 vanishes")

    def __add__(self, other: "CharPolynomial") -> "CharPolynomial":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return CharPolynomial(out)

    def __sub__(self, other: "CharPolynomial") -> "CharPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "CharPolynomial":
        return CharPolynomial({k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other: "CharPolynomial") -> "CharPolynomial":
        out = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return CharPolynomial(out)

    def __pow__(self, k: int) -> "CharPolynomial":
        """self**k by repeated squaring: about 2 log2(k) products."""
        out, base = CharPolynomial.const(1.0), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, CharPolynomial) and self.coeffs == other.coeffs

    def __call__(self, lam: complex, zeta: complex) -> complex:
        return sum(c * lam**a * zeta**b for (a, b), c in self.coeffs.items())

    def __repr__(self) -> str:  # pragma: no cover
        terms = [f"{c:g}*L^{a}*Z^{b}" for (a, b), c in sorted(self.coeffs.items())]
        return " + ".join(terms) or "0"


@dataclass(frozen=True)
class CharRoot:
    """One branch lambda(zeta) ~ leading * zeta^q of the characteristic roots."""

    q: Fraction
    leading: complex
    multiplicity: int
    nu: int

    @property
    def mu(self) -> int:
        return self.q.numerator


def _upper_hull(points):
    """Upper convex hull of (a, d) points, left to right."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it is on or below segment hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _cluster_roots(roots, tol=MERGE_TOL):
    """Merge numerically coincident roots; returns (value, multiplicity)."""
    out = []
    for r in sorted(roots, key=lambda z: (abs(z), np.angle(z))):
        for i, (v, mult) in enumerate(out):
            if abs(r - v) <= tol * max(1.0, abs(v)):
                out[i] = ((v * mult + r) / (mult + 1), mult + 1)
                break
        else:
            out.append((r, 1))
    return out


def _polyval(c: np.ndarray, x: np.ndarray):
    """np.polyval(c, x) without its wrapper: the same multiply-add steps.

    x is an array (here 0-d), so each product is numpy's array multiply,
    which some CPUs fuse and so round differently from Python's complex
    product.
    """
    y = np.zeros_like(x)
    for v in c:
        y = y * x + v
    return y


def _derivative(c: np.ndarray) -> np.ndarray:
    """np.polyder(c): c highest degree first, its leading entry nonzero.

    The leading entry of the result is that entry times the degree, so it
    stays nonzero and np.poly1d would trim nothing.
    """
    return c[:-1] * np.arange(len(c) - 1, 0, -1)


def _polish_root(poly: np.ndarray, z0: complex, mult: int,
                 steps: int = 3) -> complex:
    """Newton-refine a root of multiplicity mult.

    Companion-matrix roots of an exact m-fold root carry O(eps^(1/m))
    error; Newton on the (m-1)-th derivative, where the root is simple,
    restores full precision.  poly is highest degree first with a nonzero
    leading entry.  The values are np.polyval's on 0-d arrays and the step
    divides in numpy's complex division, not Python's, as the np.poly1d
    form of this refinement did.
    """
    p = poly
    for _ in range(mult - 1):
        p = _derivative(p)
    dp = _derivative(p)
    z = complex(z0)
    for _ in range(steps):
        x = np.asarray(z)
        d = _polyval(dp, x)
        if d == 0:
            break
        z = z - _polyval(p, x) / d
    return z


def newton_polygon_roots(P: CharPolynomial) -> list[CharRoot]:
    """Leading-term root data lambda ~ c zeta^q from the degree diagram.

    For every upper-hull edge of {(a, deg_zeta P_a)} with slope -q, the
    edge polynomial sum_{a on edge} coeff(a, d_a) c^a supplies the leading
    terms; its root multiplicities (merged under MERGE_TOL) become the
    branch multiplicities.  Sorted by q descending.  A point (a, d) lies
    on the edge from (a1, d1) to (a2, d2) when (d - d1)(a2 - a1) =
    (d2 - d1)(a - a1), in integers.
    """
    P.validate()
    deg = {}
    for (a, b), c in P.coeffs.items():
        if c != 0:
            deg[a] = max(deg.get(a, -1), b)
    hull = _upper_hull(list(deg.items()))
    roots: list[CharRoot] = []
    for (a1, d1), (a2, d2) in zip(hull, hull[1:]):
        q = Fraction(d1 - d2, a2 - a1)
        # edge polynomial in c over the a-values lying on this edge,
        # highest degree first as np.roots wants it; its first entry (a2)
        # and its last (a1) are nonzero
        poly = np.zeros(a2 - a1 + 1, dtype=np.complex128)
        for a in range(a1, a2 + 1):
            if a in deg and (deg[a] - d1) * (a2 - a1) == (d2 - d1) * (a - a1):
                poly[a2 - a] = P.coeffs[(a, deg[a])]
        raw = [z for z in np.roots(poly) if abs(z) > 0]
        # an exact m-fold root splits by ~eps^(1/m) under the companion
        # eigensolver, so widen the merge tolerance with the edge degree
        edge_deg = len(poly) - 1
        tol = max(MERGE_TOL,
                  4.0 * float(np.finfo(float).eps) ** (1.0 / edge_deg))
        for val, mult in _cluster_roots(raw, tol):
            val = _polish_root(poly, val, mult)
            roots.append(CharRoot(q=q, leading=complex(val), multiplicity=mult,
                                  nu=q.denominator))
    roots.sort(key=lambda r: (-r.q, np.angle(r.leading)))
    return roots


def problem_kappa(roots) -> int:
    """Common ramification grid: lcm of all branch denominators."""
    k = 1
    for r in roots:
        k = lcm(k, r.nu)
    return k


def summability_levels(roots, s1, s2, s):
    """Distinct levels (q_alpha, K_alpha) with q_alpha > s1/(s2+s).

    K_alpha = (q_alpha (s2+s) - s1)^{-1}, exact rational arithmetic,
    returned with K descending.  Empty means every piece converges.
    """
    s1, s2, s = Fraction(s1), Fraction(s2), Fraction(s)
    if s + s2 <= 0:
        raise SemanticError("need s + s2 > 0 for the summability levels")
    if s1 <= 0:
        raise SemanticError("need s1 > 0 for the summability levels")
    threshold = s1 / (s2 + s)
    qs = sorted({r.q for r in roots if r.q > threshold})
    out = [(q, 1 / (q * (s2 + s) - s1)) for q in qs]
    out.sort(key=lambda t: -t[1])
    return out


def reconstruct_from_roots(roots, p0: complex, kappa: int) -> dict:
    """Expand p0 * prod (lambda - c zeta^q)^mult on the 1/kappa zeta-grid.

    Returns a map (a, b_kappa) -> coeff where the zeta exponent is
    b_kappa / kappa; used to test whether the Newton-polygon leading terms
    are exact roots (monomial-factorizable P).
    """
    acc = CharPolynomial.const(p0)
    for r in roots:
        shift = r.q * kappa
        if shift.denominator != 1:
            raise SemanticError(
                f"root exponent {r.q} not on the 1/{kappa} grid")
        factor = CharPolynomial({(1, 0): 1.0, (0, int(shift)): -r.leading})
        for _ in range(r.multiplicity):
            acc = acc * factor
    return acc.coeffs
