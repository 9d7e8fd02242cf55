"""Formal-solution solvers for P(d_{m1,t}, d_{m2,z}) u = 0.

Two independent solvers are provided on purpose:

* solve_constant_leading: the exact shift recurrence in doubly
  moment-normalized coordinates; works for any P whose leading lambda
  coefficient P_0 is a nonzero constant.
* decompose + solve_simple: factorization into simple first-order-in-
  lambda pieces (d_{m1,t} - lam zeta^q)^beta, each solved in closed form,
  their data from one index sweep in the paper's gauge and one refinement
  sweep; works when the Newton-polygon leading terms are exact monomial
  roots.

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
from .moments import MomentFunction
from .operators import moment_quotient
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
                 m1: MomentFunction, m2: MomentFunction,
                 data: tuple) -> BiSeries:
    """u_{jn} = c_{jn} / (m1(j) m2(n/kappa)) for the scaled grid (cm, ce),
    whose rows j < len(data) are written from the data instead.

    Datum phi_j = d^j_{m1,t} u(0, z) makes row j of u phi_j m1(0)/m1(j),
    cut to the grid width: phi_j's own mantissas and exponents when that
    ratio, read off the table 1/m1(j), is exactly one (for Gamma(1) at
    j = 0, 1), so no round trip through c costs a data row an ulp.

    The other rows need not be normalized: every one of their cells is
    normalized once, by the `K.mul` of its block.  The divisor is
    separable: one scaled table 1/m1(j) and one 1/m2(n/kappa), each a
    slice of the table that `MomentFunction.scaled_table` keeps for its
    (m, kappa, sign).
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
    first = min(len(data), nt)
    for j in range(first):
        mant[j], exp[j] = data[j].mant[:nz], data[j].exp10[:nz]
        if (f1m[j], f1e[j]) != (f1m[0], f1e[0]):
            mant[j], exp[j] = K.scale(mant[j], exp[j], f1m[j] / f1m[0],
                                      f1e[j] - f1e[0])
    step = K.block_rows(nz)
    for j0 in range(first, nt, step):
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


def _row_offsets(P: CharPolynomial, kappa: int, trunc_t: int) -> list[int]:
    """c_j for j = 0..trunc_t: the z-orders of data that t-row j consumes.

    Row j + n_lam is built from row j + a shifted by b*kappa columns for
    each lower term (a, b), a < n_lam, of P.  So c_j = 0 for the n_lam data
    rows and c_{j+n_lam} = max over the lower terms of c_{j+a} + b*kappa;
    row j is trunc_z + 1 - c_j wide.  With no lower term (P = P_0 L^n_lam)
    every row after the data is zero and reads no data: c_j = 0.
    """
    n_lam = P.lam_degree
    # row i reads row i - back, shift z-orders on, for each lower term
    lower = [(n_lam - a, b * kappa) for a, b in P.coeffs if a < n_lam]
    if not lower:
        return [0] * (trunc_t + 1)
    (back0, shift0), *rest = lower
    c = [0] * min(n_lam, trunc_t + 1)
    for i in range(n_lam, trunc_t + 1):
        ci = c[i - back0] + shift0
        for back, shift in rest:
            other = c[i - back] + shift
            if other > ci:
                ci = other
        c.append(ci)
    return c


def required_z_truncation(P: CharPolynomial, kappa: int, trunc_t: int) -> int:
    """Minimal data z-truncation for the recurrence to reach trunc_t rows:
    the largest row offset c_j of _row_offsets."""
    return max(_row_offsets(P, kappa, trunc_t))


def solve_constant_leading(prob: PdeProblem) -> BiSeries:
    """Exact shift recurrence; requires constant leading coefficient P_0.

    Row j + n_lam is solved from rows j..j+n_lam-1.  Row j consumes c_j
    z-orders of the data, with c_j = 0 on the data rows and
    c_{j+n_lam} = max over the lower terms (a, b) of c_{j+a} + b*kappa
    (_row_offsets, integers computed before the loop).  The data need
    trunc_z >= max_j c_j = required_z_truncation, and the output is the
    rectangle trunc_z - max_j c_j + 1 wide.

    A row is the raw sum of its terms: each term is a source row times the
    scaled scalar s, mantissas multiplied and exponents added, and further
    terms join by the exponent alignment of `K.add` without its normalize.
    The row is written in place and normalized only when a nonzero
    mantissa leaves [_ROW_MANT_MIN, _ROW_MANT_MAX].  The unnormalized grid
    goes to `_denormalize`, which normalizes every computed cell once.
    The data rows of u are written from the data by `_denormalize`, so
    they are the data bit for bit whenever m1(j) = m1(0).

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
    nt = prob.trunc_t
    nz_in = prob.trunc_z
    offsets = _row_offsets(P, kappa, nt)
    need = max(offsets)
    if need > nz_in:
        row = next(j for j, c in enumerate(offsets) if c > nz_in)
        raise TruncationError(
            f"z-truncation exhausted at t-row {row}; the recurrence needs "
            f"data trunc_z >= {need} (got {nz_in})")

    cm = np.zeros((nt + 1, nz_in + 1), dtype=np.complex128)
    ce = np.zeros((nt + 1, nz_in + 1), dtype=np.int64)
    lo = [math.nan] * (nt + 1)  # bounds on each row's nonzero |mantissa|
    hi = [math.nan] * (nt + 1)
    for j in range(min(n_lam, nt + 1)):
        # a datum longer than the shortest one is cut to trunc_z
        row = _normalized_data_row(prob.data[j].truncate_to(nz_in), m1, m2)
        cm[j] = row.mant
        ce[j] = row.exp10
        lo[j], hi[j] = _row_bounds(row.mant)

    inv_p0 = ScaledComplex.from_complex(-1.0 / p0)
    # each term (a, b) reads row j+a shifted by b*kappa columns, times the
    # scaled scalar s = -p_ab / p0, kept as its mantissa and exponent
    lower = []
    for (a, b), p_ab in P.coeffs.items():
        if a < n_lam:
            s = inv_p0 * p_ab
            lower.append((a, b * kappa, s.mantissa, s.exp10))
    if not lower:  # P = P_0 L^n_lam: the rows after the data stay zero
        return _denormalize(cm, ce, kappa, m1, m2, prob.data)
    (a0, shift0, m0, e0), *rest = lower
    # a multi-term row can cancel and is always scanned: bounds are carried
    # for a single-term recurrence only
    single = not rest
    s_abs = abs(m0)
    for j2 in range(n_lam, nt + 1):
        j = j2 - n_lam
        width = nz_in + 1 - offsets[j2]
        out_m, out_e = cm[j2, :width], ce[j2, :width]
        np.multiply(cm[j + a0, shift0:shift0 + width], m0, out=out_m)
        np.add(ce[j + a0, shift0:shift0 + width], e0, out=out_e)
        for a, shift, sm, se in rest:
            out_m[:], out_e[:] = K._aligned_sum(
                out_m, out_e, cm[j + a, shift:shift + width] * sm,
                ce[j + a, shift:shift + width] + se)
        if single:
            lo[j2] = s_abs * lo[j + a0] * (1.0 - 1e-14)
            hi[j2] = s_abs * hi[j + a0] * (1.0 + 1e-14)
            if lo[j2] >= _ROW_MANT_MIN and hi[j2] <= _ROW_MANT_MAX:
                continue
        if _leaves_range(out_m):
            out_m[:], out_e[:] = K.normalize(out_m, out_e)
        if single:
            lo[j2], hi[j2] = _row_bounds(out_m)

    nz_out = nz_in - need
    return _denormalize(cm[:, :nz_out + 1], ce[:, :nz_out + 1], kappa, m1, m2,
                        prob.data)


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
    lm, le = K.powers(complex(lam), 0, trunc_t + 1)
    j = np.arange(trunc_t + 1)
    cb = [math.comb(i, beta - 1) for i in range(trunc_t + 1)]
    # row j: C(j, beta-1) lam^j m1(0)/m1(j) times phi[n + j p] m2-quotient
    fm, fe = K.mul(*moment_quotient(m1, 1, 0 * j, j), lm * cb, le)
    cols = np.arange(nz_out + 1) + p * j[:, None]
    qm, qe = moment_quotient(m2, kappa, cols, cols[0])
    mant, exp = K.mul(phi.mant[cols] * qm, phi.exp10[cols] + qe,
                      fm[:, None], fe[:, None])
    return BiSeries(1, kappa, mant, exp, normalized=True)


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

    The piece data psi_u solve sum_u C(a, beta_u-1) lam_u^a y_u[j + a p_u]
    = f_a[j], a < n, with p_u = q_u kappa, y_u[k] = m2(k/kappa) psi_u[k],
    f_a[j] = m2(j/kappa) phi_a[j]: psi = V(d)^-1 phi, V^-1 expanded at
    zeta = oo.  Rows a go to the levels p in ascending order, as many to a
    level as it has pieces: p(a).  The piece shift C is 0 on the lowest
    level, and each next level adds (A-1)(p_next - p_prev), A its first
    row; row a is shifted by R_a = a p(a) - C(a).  Step m of one index
    sweep solves y_u[m + C_u] from the rows a at j = m - R_a, all other
    terms known; its matrix is block triangular with confluent Vandermonde
    rows of one level on the diagonal, and steps closer than the least lag
    of a known term are one batch (all steps with one level).  The gauge:
    a row with j < 0 has right side 0 and y_u[k] = 0 for k < C_u, so pieces
    are max C_u coefficients shorter than the data.  Row (a, j) is weighted
    by 1/m2((j + a p(a))/kappa), its datum in scaled arithmetic, for the
    unknowns psi.  A sweep on the residual refines the pieces, after which
    the residual must be at most 1e-8 max(1, max |weighted data|).
    """
    roots = newton_polygon_roots(prob.P)
    kappa = prob.kappa
    _check_monomial_exact(prob.P, roots, kappa)
    n = prob.P.lam_degree
    cols = [(r, beta) for r in roots for beta in range(1, r.multiplicity + 1)]
    if len(cols) != n:
        raise DecompositionError(
            f"root multiplicities sum to {len(cols)}, expected {n}")

    p = np.array([int(r.q * kappa) for r, _ in cols])
    a = np.arange(n)
    pa = np.sort(p)  # p(a)
    ca = np.concatenate(([0], np.cumsum((a[1:] - 1) * np.diff(pa))))  # C(a)
    cu, ra = ca[np.searchsorted(pa, p)], a * pa - ca  # C_u, R_a
    pad, nw = int(ra.max()), prob.trunc_z + 1
    m = np.arange(max(nw - int(cu.max()), 0))
    # equation (a, m - R_a), weighted by 1/m2(den/kappa), reads psi_u at
    # idx = m - R_a + a p_u, lag idx - (m + C_u) <= 0 steps back
    idx = m - ra[:, None, None] + (a[:, None] * p)[:, :, None]
    den = (m + ca[:, None])[:, None, :]
    qm, qe = moment_quotient(prob.m2, kappa, np.maximum(idx, 0), den)
    w = np.array([[math.comb(i, beta - 1) * r.leading ** i for r, beta in cols]
                  for i in a])[:, :, None] * K.to_complex(qm, qe)
    lag = a[:, None] * p - ra[:, None] - cu
    mats = np.where(lag[:, :, None] == 0, w, 0).transpose(2, 0, 1)
    batch = int(-lag.max(where=lag < 0, initial=-max(len(m), 1)))
    b = np.zeros((n, len(m)), dtype=np.complex128)
    for i, phi in enumerate(prob.data):
        k = m[:len(m) - ra[i]]
        bm, be = K.mul(phi.mant[k], phi.exp10[k], *moment_quotient(
            prob.m2, kappa, k, k + i * pa[i]))
        b[i, ra[i]:] = K.to_complex(bm, be)  # inf past 1e308: checked below
    gauge, rows, piece = m < ra[:, None], a[:, None], a[None, :, None]

    def lhs(x, s=slice(None)):
        """Left sides at the steps s, for x[u, pad + k] = psi_u[k]."""
        return (w[:, :, s] * x[piece, pad + idx[:, :, s]]).sum(axis=1)

    def sweep(r):
        x = np.zeros((n, pad + nw), dtype=np.complex128)
        for m0 in range(0, len(m), batch):
            s = slice(m0, m0 + batch)  # its unknowns are still 0 in x
            sol = np.linalg.solve(mats[s], (r[:, s] - lhs(x, s)).T[..., None])
            x[rows, pad + cu[:, None] + m[s]] = sol[..., 0].T
        return x

    x = sweep(b)
    x += sweep(np.where(gauge, 0, b - lhs(x)))
    resid = np.abs(np.where(gauge, 0, b - lhs(x))).max(initial=0.0)
    if not resid <= 1e-8 * max(1.0, np.abs(b).max(initial=0.0)):
        raise DecompositionError(
            f"data-mixing system left residual {resid:.3e}; the matching "
            f"equations are inconsistent or their data pass 1e308")

    psis = [RamifiedSeries.from_complex(kappa, xu[pad:pad + len(m)])
            for xu in x]
    return [SimplePiece(r, beta, psi, solve_simple(
        r.leading, r.q, beta, prob.m1, prob.m2, psi, prob.trunc_t))
        for (r, beta), psi in zip(cols, psis)]


def sum_pieces(pieces) -> BiSeries:
    """Sum the decomposition back into one BiSeries (min-rule truncations)."""
    nt = min(p.solution.trunc_t for p in pieces)
    nz = min(p.solution.trunc_z for p in pieces)
    acc = pieces[0].solution.truncate_to(nt, nz)
    for p in pieces[1:]:
        b = p.solution.truncate_to(nt, nz)
        acc = BiSeries(acc.kappa_t, acc.kappa_z,
                       *K.add(acc.mant, acc.exp10, b.mant, b.exp10),
                       normalized=True)
    return acc
