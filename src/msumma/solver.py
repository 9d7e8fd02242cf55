"""Formal-solution solvers for P(d_{m1,t}, d_{m2,z}) u = 0.

Two independent solvers are provided on purpose:

* solve_constant_leading: the exact shift recurrence in doubly
  moment-normalized coordinates; works for any P whose leading lambda
  coefficient P_0 is a nonzero constant.
* decompose + solve_simple: factorization into simple first-order-in-
  lambda pieces (d_{m1,t} - lam zeta^q)^beta, each solved in closed form;
  works when the Newton-polygon leading terms are exact monomial roots.

Their overlap is the main cross-validation surface of the package.

Normalized coordinates: u = sum c_{jn} t^j z^(n/kappa) / (m1(j) m2(n/kappa)).
In these coordinates d_{m1,t} is the row shift c_{jn} -> c_{j+1,n} and
d_{m2,z} is the column shift c_{jn} -> c_{j,n+kappa}, both exact, so the
recurrence below has no floating-point moment evaluations inside the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels as K
from .characteristic import (CharPolynomial, CharRoot, newton_polygon_roots,
                             reconstruct_from_roots)
from .errors import (DecompositionError, GridError, SemanticError,
                     TruncationError)
from .moments import LOG10_E, MomentFunction
from .operators import monomial_pseudo
from .scaled import ScaledComplex
from .series import BiSeries, RamifiedSeries

RECONSTRUCT_TOL = 1e-9  # relative; monomial-exactness of the factorization
# Recurrence rows stay unnormalized while every nonzero |mantissa| lies in
# this range.  From inside it, one more row (each term's |s mantissa| < 10),
# the alignment of terms up to 10^400 apart and _denormalize's two table
# factors all stay far from overflow and from subnormal mantissas.
_ROW_MANT_MIN, _ROW_MANT_MAX = 1e-50, 1e50


@dataclass(frozen=True)
class PdeProblem:
    """P(d_{m1,t}, d_{m2,z}) u = 0 with Cauchy data d^j_{m1,t} u(0,z) = phi_j."""

    P: CharPolynomial
    m1: MomentFunction
    m2: MomentFunction
    data: tuple = field(default_factory=tuple)  # RamifiedSeries phi_0..phi_{n-1}
    gevrey_s: Fraction = Fraction(0)
    trunc_t: int = 20

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        object.__setattr__(self, "gevrey_s", Fraction(self.gevrey_s))
        self.P.validate()
        n = self.P.lam_degree
        if len(self.data) != n:
            raise SemanticError(
                f"equation has lambda-degree {n} but {len(self.data)} data "
                f"series were given; provide exactly {n} Cauchy rows")
        kappas = {d.kappa for d in self.data}
        if len(kappas) > 1:
            raise SemanticError(f"data series disagree on kappa: {kappas}")

    @property
    def kappa(self) -> int:
        return self.data[0].kappa

    @property
    def trunc_z(self) -> int:
        return min(d.trunc for d in self.data)


def _normalized_data_row(phi: RamifiedSeries, m1: MomentFunction,
                         m2: MomentFunction) -> RamifiedSeries:
    """c_{jn} = phi_n * m1(0) * m2(n/kappa) for a Cauchy row.

    m1(0) is folded into the m2 table, so the row is normalized once.
    """
    fm, fe = m2.scaled_table(phi.kappa, len(phi), +1)
    m10 = m1.eval_scaled(0.0)
    rm, re = K.mul(phi.mant, phi.exp10, fm * m10.mantissa,
                   fe + np.int64(m10.exp10))
    return RamifiedSeries(phi.kappa, rm, re, normalized=True)


def _denormalize(cm: np.ndarray, ce: np.ndarray, kappa: int,
                 m1: MomentFunction, m2: MomentFunction) -> BiSeries:
    """u_{jn} = c_{jn} / (m1(j) m2(n/kappa)) for the scaled grid (cm, ce).

    The grid need not be normalized: every output cell is normalized once,
    by the `K.mul` of its block.  The divisor is separable: one scaled table
    1/m1(j) and one 1/m2(n/kappa), each a slice of the table that
    `MomentFunction.scaled_table` keeps for its (m, kappa, sign).
    Blocks of `K.block_rows` rows, about K.BLOCK_CELLS cells each (one
    block for a 201 x 21 grid), are then multiplied by both tables in one
    `K.mul` call on raveled arrays, so no grid-sized temporary is built and
    no work is done per cell in Python.
    """
    nt, nz = cm.shape
    f1m, f1e = m1.scaled_table(1, nt, -1)
    f2m, f2e = m2.scaled_table(kappa, nz, -1)
    mant = np.empty_like(cm)
    exp = np.empty_like(ce)
    step = K.block_rows(nz)
    for j0 in range(0, nt, step):
        rows = slice(j0, j0 + step)
        nb = min(step, nt - j0)
        bm, be = K.mul((cm[rows] * f1m[rows, None]).ravel(),
                       (ce[rows] + f1e[rows, None]).ravel(),
                       np.tile(f2m, nb), np.tile(f2e, nb))
        mant[rows] = bm.reshape(nb, nz)
        exp[rows] = be.reshape(nb, nz)
    return BiSeries(1, kappa, mant, exp, normalized=True)


def _row_bounds(m: np.ndarray) -> tuple[float, float]:
    """(smallest nonzero |m|, largest |m|): inf and 0.0 for a zero row.

    A NaN entry makes the upper bound NaN.
    """
    a = np.abs(m)
    return float(a.min(where=a > 0.0, initial=np.inf)), float(a.max())


def _leaves_range(m: np.ndarray) -> bool:
    """True when a nonzero |m| lies outside [_ROW_MANT_MIN, _ROW_MANT_MAX]."""
    lo, hi = _row_bounds(m)
    return hi > _ROW_MANT_MAX or lo < _ROW_MANT_MIN


def required_z_truncation(P: CharPolynomial, kappa: int, trunc_t: int) -> int:
    """Minimal data z-truncation for the recurrence to reach trunc_t rows."""
    n_lam = P.lam_degree
    max_b = max(b for _, b in P.coeffs)
    blocks = max(0, -(-(trunc_t + 1 - n_lam) // n_lam))  # ceil division
    return blocks * max_b * kappa


def solve_constant_leading(prob: PdeProblem) -> BiSeries:
    """Exact shift recurrence; requires constant leading coefficient P_0.

    Row j + n_lam is solved from rows j..j+n_lam-1; every block of n_lam
    t-steps consumes max_b * kappa z-orders of the data, so the output is
    the rectangle trunc_z - required_z_truncation wide.

    A row is the raw sum of its terms: each term is a source row times the
    scaled scalar s, mantissas multiplied and exponents added, and further
    terms join by the exponent alignment of `K.add` without its normalize.
    The row is written in place and normalized only when a nonzero
    mantissa leaves [_ROW_MANT_MIN, _ROW_MANT_MAX].  The unnormalized grid
    goes to `_denormalize`, which normalizes every output cell once.

    Whether a row of a single-term recurrence leaves the range is decided
    from bounds on the nonzero |mantissa| of each row, carried as Python
    floats: a row's are its source row's times |s|, the upper one times
    (1 + 1e-14) and the lower one times (1 - 1e-14).  The margins cover
    the rounding of the complex product and of the bounds themselves.
    Only a row whose bounds do not place it inside the range (a NaN bound
    never does) is scanned by `_leaves_range`, and a scanned row takes its
    bounds from its actual mantissas, after any normalize.  So the scans
    skipped are exactly those that would have found the row inside, and
    the grid is the one a scan of every row gives.  A recurrence with
    |s| = 1, such as heat's, scans and normalizes no row at all.  The rows
    of a multi-term recurrence can cancel, so they have no lower bound and
    every one is scanned.
    """
    P, m1, m2 = prob.P, prob.m1, prob.m2
    p0 = P.leading_constant()
    if p0 is None:
        raise SemanticError(
            "leading lambda coefficient P_0(zeta) is not constant; the shift "
            "recurrence needs the normalized (factorized) operator")
    kappa = prob.kappa
    n_lam = P.lam_degree
    max_b = max(b for _, b in P.coeffs)
    nt = prob.trunc_t
    nz_in = prob.trunc_z

    cm = np.zeros((nt + 1, nz_in + 1), dtype=np.complex128)
    ce = np.zeros((nt + 1, nz_in + 1), dtype=np.int64)
    valid = [0] * (nt + 1)  # per-row valid length
    lo = [math.nan] * (nt + 1)  # bounds on each row's nonzero |mantissa|
    hi = [math.nan] * (nt + 1)
    for j in range(min(n_lam, nt + 1)):
        row = _normalized_data_row(prob.data[j], m1, m2)
        cm[j, :len(row)] = row.mant
        ce[j, :len(row)] = row.exp10
        valid[j] = nz_in + 1
        lo[j], hi[j] = _row_bounds(row.mant)

    inv_p0 = ScaledComplex.from_complex(-1.0 / p0)
    # each term (a, b) reads row j+a shifted by b*kappa columns, times s
    lower = [(a, b * kappa, inv_p0 * p_ab)
             for (a, b), p_ab in P.coeffs.items() if a < n_lam]
    # a multi-term row can cancel and is always scanned: bounds are carried
    # for a single-term recurrence only
    single = len(lower) == 1
    s_abs = abs(lower[0][2].mantissa)
    for j2 in range(n_lam, nt + 1):
        j = j2 - n_lam
        width = min(valid[j + a] - shift for a, shift, _ in lower)
        if width <= 0:
            raise TruncationError(
                f"z-truncation exhausted at t-row {j2}; the recurrence needs "
                f"data trunc_z >= {required_z_truncation(P, kappa, nt)} "
                f"(got {nz_in})")
        out_m, out_e = cm[j2, :width], ce[j2, :width]
        (a, shift, s), *rest = lower
        np.multiply(cm[j + a, shift:shift + width], s.mantissa, out=out_m)
        np.add(ce[j + a, shift:shift + width], s.exp10, out=out_e)
        for a, shift, s in rest:
            out_m[:], out_e[:] = K._aligned_sum(
                out_m, out_e, cm[j + a, shift:shift + width] * s.mantissa,
                ce[j + a, shift:shift + width] + s.exp10)
        valid[j2] = width
        if single:
            lo[j2] = s_abs * lo[j + a] * (1.0 - 1e-14)
            hi[j2] = s_abs * hi[j + a] * (1.0 + 1e-14)
            if lo[j2] >= _ROW_MANT_MIN and hi[j2] <= _ROW_MANT_MAX:
                continue
        if _leaves_range(out_m):
            out_m[:], out_e[:] = K.normalize(out_m, out_e)
        if single:
            lo[j2], hi[j2] = _row_bounds(out_m)

    nz_out = min(valid) - 1
    return _denormalize(cm[:, :nz_out + 1], ce[:, :nz_out + 1], kappa, m1, m2)


def solve_simple(lam: complex, q, beta: int, m1: MomentFunction,
                 m2: MomentFunction, phi: RamifiedSeries,
                 trunc_t: int) -> BiSeries:
    """Closed-form solution of (d_{m1,t} - lam zeta^q symbol)^beta u = 0.

    Coefficient of t^j is m1(0) * C(j, beta-1) * (lam zeta^q)(d_{m2,z})^j
    applied to phi, divided by m1(j).  Rows 0..beta-2 vanish and the row
    beta-1 initial derivative equals (lam zeta^q)(d)^(beta-1) phi; for
    beta = 1 the Cauchy datum is phi itself.
    """
    if beta < 1:
        raise ValueError("beta must be a positive integer")
    q = Fraction(q)
    kappa = phi.kappa
    p_f = q * kappa
    if p_f.denominator != 1:
        raise GridError(
            f"q={q} needs ramification kappa divisible by {q.denominator} "
            f"(got kappa={kappa})")
    p = int(p_f)
    nz_out = phi.trunc - trunc_t * p
    if nz_out < 0:
        raise TruncationError(
            f"phi truncation {phi.trunc} too short: row {trunc_t} shifts by "
            f"{trunc_t * p} z-orders")
    rows = []
    for j in range(trunc_t + 1):
        cb = math.comb(j, beta - 1)
        if cb == 0:
            rows.append(RamifiedSeries.zero(kappa, nz_out))
            continue
        row = monomial_pseudo(lam, q, m2, phi, power=j)
        f = m1.ratio_scaled(0.0, float(j)) * cb
        rows.append(row.truncate_to(nz_out).scale(f))
    return BiSeries.from_rows(1, rows)


def _check_monomial_exact(P: CharPolynomial, roots, kappa: int):
    p0 = P.leading_constant()
    if p0 is None:
        raise SemanticError(
            "leading lambda coefficient P_0(zeta) is not constant; only "
            "normalized (P_0 removed) operators are decomposed")
    for r in roots:
        if (r.q * kappa).denominator != 1:
            raise DecompositionError(
                f"root exponent q={r.q} is off the 1/{kappa} grid; ramify the "
                f"data to kappa divisible by {r.q.denominator} first")
        if r.q < 0:
            raise DecompositionError(
                f"negative root exponent q={r.q} is outside the supported "
                f"class")
    rec = reconstruct_from_roots(roots, p0, kappa)
    given = {(a, b * kappa): c for (a, b), c in P.coeffs.items()}
    scale = max(abs(c) for c in given.values())
    for key in set(rec) | set(given):
        if abs(rec.get(key, 0) - given.get(key, 0)) > RECONSTRUCT_TOL * scale:
            raise DecompositionError(
                "Newton-polygon leading terms are not exact roots of P; the "
                "equation is not monomial-factorizable "
                "(use solve_constant_leading instead)")


@dataclass(frozen=True)
class SimplePiece:
    """One (d_{m1,t} - lam zeta^q)^beta factor solution inside a decomposition."""

    root: CharRoot
    beta: int
    psi: RamifiedSeries  # its Cauchy-type datum
    solution: BiSeries


def decompose(prob: PdeProblem) -> list[SimplePiece]:
    """Split the problem into simple pieces whose sum matches the Cauchy data.

    The data mixers psi_{alpha,beta} solve the matching system
    sum_{alpha,beta} C(a, beta-1) lam_alpha^a S^(a q_alpha kappa)
    psi_{alpha,beta} = phi_a in moment-normalized coordinates, where S is
    the column shift.  On a finite window each shift power has a kernel,
    so the system is consistent but underdetermined; it is solved as one
    dense minimum-norm least-squares problem.  Unknowns are pre-divided by
    m2(n/kappa) and each equation by its largest moment weight, so every
    matrix entry is O(1) and no factorial cancellation occurs.
    """
    roots = newton_polygon_roots(prob.P)
    kappa = prob.kappa
    _check_monomial_exact(prob.P, roots, kappa)
    n = prob.P.lam_degree
    cols = [(r, beta) for r in roots for beta in range(1, r.multiplicity + 1)]
    if len(cols) != n:
        raise DecompositionError(
            f"root multiplicities sum to {len(cols)}, expected {n}")

    nw = len(prob.data[0])
    lw = prob.m2.log_eval_array(np.arange(nw) / kappa)
    a_rows = []
    b_vals = []
    for a in range(n):
        terms = []
        for u, (r, beta) in enumerate(cols):
            cb = math.comb(a, beta - 1)
            if cb:
                terms.append((u, a * int(r.q * kappa), cb * r.leading ** a))
        h = max(s for _, s, _ in terms)
        # equations reading past the window constrain unseen tail entries
        # of the mixers and are dropped
        for j in range(nw - h):
            row = np.zeros(n * nw, dtype=np.complex128)
            for u, s, c in terms:
                row[u * nw + j + s] = c * math.exp(lw[j + s] - lw[j + h])
            a_rows.append(row)
            w = ScaledComplex.from_log10((lw[j] - lw[j + h]) * LOG10_E)
            b_vals.append((prob.data[a][j] * w).to_complex())
    mat = np.array(a_rows)
    b = np.array(b_vals)
    # column equilibration: low-shift pieces otherwise carry tiny moment
    # ratios and their mixer entries come out weakly determined
    cn = np.linalg.norm(mat, axis=0)
    cn[cn == 0] = 1.0
    mat_e = mat / cn
    x, _, _, _ = np.linalg.lstsq(mat_e, b, rcond=None)
    dx, _, _, _ = np.linalg.lstsq(mat_e, b - mat_e @ x, rcond=None)
    x = (x + dx) / cn
    resid = np.abs(mat @ x - b).max()
    if not resid <= 1e-8 * max(1.0, np.abs(b).max()):
        raise DecompositionError(
            f"data-mixing system left residual {resid:.3e}; the matching "
            f"equations are inconsistent on this window")

    pieces = []
    for u, (r, beta) in enumerate(cols):
        psi = RamifiedSeries.from_complex(kappa, x[u * nw:(u + 1) * nw])
        sol = solve_simple(r.leading, r.q, beta, prob.m1, prob.m2, psi,
                           prob.trunc_t)
        pieces.append(SimplePiece(root=r, beta=beta, psi=psi, solution=sol))
    return pieces


def sum_pieces(pieces) -> BiSeries:
    """Sum the decomposition back into one BiSeries (min-rule truncations)."""
    nt = min(p.solution.trunc_t for p in pieces)
    nz = min(p.solution.trunc_z for p in pieces)
    acc = pieces[0].solution.truncate_to(nt, nz)
    for p in pieces[1:]:
        b = p.solution.truncate_to(nt, nz)
        rm, re = K.add(acc.mant.ravel(), acc.exp10.ravel(),
                       b.mant.ravel(), b.exp10.ravel())
        acc = BiSeries(acc.kappa_t, acc.kappa_z,
                       rm.reshape(acc.mant.shape), re.reshape(acc.mant.shape),
                       normalized=True)
    return acc
