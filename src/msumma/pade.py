"""Diagonal Pade approximants with coefficient rescaling and pole tracking.

The Borel-plane function is only known through truncated Taylor
coefficients; near-diagonal Pade is the numeric surrogate for its analytic
continuation.  Coefficients are rescaled by the geometric slope of their
magnitudes before solving the linear system, so series with radius far
from 1 stay well conditioned; poles are mapped back afterwards.  A series
that is rational to rounding is represented at its verified numerical
type [lam/rho].  Its rank is read from growing leading sub-blocks of the
denominator block, and the smallest that certifies the type ends the
search; a series that is not rational is ranked on its full block.
Every entry point takes a RamifiedSeries, which keeps its approximants,
its numerical type and its stable poles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import RamifiedSeries

STABILITY_TOL = 1e-2  # relative pole agreement across consecutive orders
RANK_TOL = 1e-14  # numerical-rank threshold of Gonnet, Guttel & Trefethen


def geometric_slope(log10_abs: np.ndarray) -> float:
    """Median decimal log-slope of the coefficient magnitudes."""
    finite = np.isfinite(log10_abs)
    idx = np.nonzero(finite)[0]
    if len(idx) < 2:
        return 0.0
    d = np.sort(np.diff(log10_abs[idx]) / np.diff(idx))
    # np.median's value bit for bit, without the numpy.ma import that its
    # first call costs: the middle element, or the two middle ones' mean
    h = len(d) // 2
    return float(d[h] if len(d) % 2 else (d[h - 1] + d[h]) / 2.0)


def _horner_table(*polys: np.ndarray) -> np.ndarray:
    """(B, nb, p) coefficient-block table of p polynomials for _horner.

    Each polynomial is a coefficient array, highest degree first.  With k
    the longest coefficient count, B = isqrt(k) and nb = ceil(k/B), entry
    [s, j, i] holds polynomial i's coefficient of degree j*B + B-1-s, zero
    where that degree is k or more (or above that polynomial's degree).
    Row s is the s-th Horner step of every block at once.
    """
    k = max(len(c) for c in polys)
    B = math.isqrt(k)
    nb = -(-k // B)
    rows = np.zeros((nb * B, len(polys)), dtype=np.complex128)
    for i, c in enumerate(polys):
        rows[:len(c), i] = c[::-1]  # degree 0 first
    blocks = np.ascontiguousarray(rows.reshape(nb, B, len(polys))[:, ::-1]
                                  .transpose(1, 0, 2))
    blocks.setflags(write=False)
    return blocks


def _horner(blocks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every polynomial of the _horner_table `blocks` at the points y.

    One Horner pass in y evaluates every block of every polynomial at
    once, in B - 1 steps; a second Horner pass in y^B combines the blocks.
    Returns shape (p,) + y.shape, complex128.
    """
    steps = blocks.reshape(blocks.shape + (1,) * np.ndim(y))
    acc = np.empty(blocks.shape[1:] + np.shape(y), dtype=np.complex128)
    acc[...] = steps[0]
    for row in steps[1:]:
        acc *= y
        acc += row
    yb = y ** len(blocks)
    out = acc[-1]
    for block in acc[-2::-1]:
        out *= yb
        out += block
    return out


@dataclass(frozen=True)
class PadeApproximant:
    """[L/M] approximant of sum c_j x^j with an internal rescaling x = r*y."""

    num: np.poly1d
    den: np.poly1d
    r: float
    order: tuple

    def __call__(self, x):
        """num(y) / den(y) at y = x / r, by the two-level Horner evaluator.

        Both polynomials are evaluated together by _horner on the block
        table _horner_blocks: about 2 sqrt(k) array steps for k
        coefficients instead of k, and as accurate as plain Horner: within
        1e-14 relative of 50-digit mpmath on heat's [99/100] Borel sum
        (tests/test_pade.py).  The result has the type and shape of
        np.polyval's.  At a zero of the denominator the value is inf or
        nan, with no warning; laplace_resum refuses a sum that is not
        finite.
        """
        out = _horner(self._horner_blocks,
                      np.asarray(x, dtype=np.complex128) / self.r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return out[0] / out[1]

    @cached_property
    def _horner_blocks(self) -> np.ndarray:
        """_horner's block table of the numerator and the denominator."""
        return _horner_table(self.num.coeffs, self.den.coeffs)

    @cached_property
    def _roots_residues(self) -> tuple[np.ndarray, np.ndarray]:
        """Denominator roots in the rescaled variable and |residue| at each.

        Computed once per approximant and read-only; the pole methods
        return new arrays built from it.  A denominator with imaginary
        parts all exactly zero is rooted in real arithmetic, about twice
        as fast; its roots are cast back to complex128 either way.  The
        residues num(y) / den'(y) come from __call__'s two-level Horner
        evaluator.
        """
        q = self.den.coeffs
        if not q.imag.any():
            q = q.real
        y = np.roots(q).astype(np.complex128)
        res = np.empty(0)
        if len(y):
            table = _horner_table(self.num.coeffs,
                                  np.polyder(self.den.coeffs))
            vals = _horner(table, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                res = np.abs(vals[0] / vals[1])
            res = np.where(np.isfinite(res), res, np.inf)
        y.setflags(write=False)
        res.setflags(write=False)
        return y, res

    def poles(self) -> np.ndarray:
        p = self._roots_residues[0] * self.r
        return p[np.argsort(np.abs(p))]

    def significant_poles(self, rel_tol: float = 1e-8) -> np.ndarray:
        """Poles whose residue is non-negligible.

        Spurious pole-zero doublets from (near-)degenerate coefficient
        systems carry residues many orders below the genuine ones; they are
        dropped relative to the largest residue present.
        """
        y, res = self._roots_residues
        if len(y) == 0:
            return y.copy()
        top = res.max()
        if not np.isfinite(top) or top == 0.0:
            keep = np.ones(len(y), dtype=bool)
        else:
            keep = res > rel_tol * top
        p = y[keep] * self.r
        return p[np.argsort(np.abs(p))]


def _radius(slope: float) -> float:
    """10^(-slope), the radius of |c_j| ~ 10^(slope*j); inf past double range."""
    try:
        return 10.0 ** (-slope)
    except OverflowError:
        return math.inf


def _scaled_coeffs(a: RamifiedSeries) -> tuple[np.ndarray, float]:
    """Flatten |c_j| ~ 10^(s*j) to d_j = c_j * r^j with r = 10^(-s).

    Raises ValueError when r is past double range: coefficients that fall
    faster than 10^-308 per index have no Pade representative here.
    """
    slope = geometric_slope(a.log10_abs())
    r = _radius(slope)
    if r == math.inf:
        raise ValueError(f"coefficients fall by 10^{slope:.4g} per index; "
                         "the Pade rescaling radius is past double range")
    out = np.zeros(len(a), dtype=np.complex128)
    j = np.flatnonzero(a.mant)
    m = a.mant[j]
    # libm hypot, log10 and pow, as abs(complex), ScaledComplex.log10_abs
    # and Python's float power: numpy's complex abs and its vectorized
    # log10 and power are an ulp off on some entries
    am = np.hypot(m.real, m.imag)
    x = (np.fromiter(map(math.log10, am.tolist()), np.float64, len(j))
         + a.exp10[j] - slope * j)
    mag = np.fromiter((10.0 ** v for v in x.tolist()), np.float64, len(j))
    t = mag * m
    # the steps of Python's complex / float, a division by (am, 0.0):
    # a plain t / am gives the other sign on some zero parts
    out.real[j] = (t.real + t.imag * 0.0) / am
    out.imag[j] = (t.imag - t.real * 0.0) / am
    return out, r


def _denominator_block(c: np.ndarray, L: int, M: int) -> np.ndarray:
    """The M x (M+1) Toeplitz block c_{L+1+i-k} of [L/M], c_j = 0 for j < 0.

    Row i is the equation of x^(L+1+i), column k the factor of q_k.  It is
    a read-only strided view of c behind M zeros: row i is c_{L+1+i-M} to
    c_{L+1+i}, reversed.
    """
    padded = np.concatenate((np.zeros(M, dtype=c.dtype), c[:L + M + 1]))
    return sliding_window_view(padded, M + 1)[L + 1:, ::-1]


def _solve_pade(c: np.ndarray, L: int, M: int) -> tuple[np.poly1d, np.poly1d]:
    """[L/M] numerator and denominator of sum c_j x^j, normalized q(0) = 1.

    Only the denominator block is solved: sum_{k=1..M} q_k c_{L+i-k} =
    -c_{L+i} for i = 1..M, one M-square Toeplitz system.  The numerator is
    then the truncated convolution p_i = sum_{k<=min(i,M)} q_k c_{i-k},
    i = 0..L.  Raises np.linalg.LinAlgError when the block is exactly
    singular.

    That is the linearized (L+M+1)-square system of scipy.interpolate.pade
    (Baker & Graves-Morris, Pade Approximants, 1996) with its numerator
    unknowns eliminated.  In that system their columns are identity columns
    with zeros below, so partial-pivot LU pivots on them with zero
    multipliers and leaves the lower-right M-square block as it was: the
    full system is exactly singular when this block is.

    The solve stays in complex128 even for real coefficients.  Which
    solution LAPACK returns for a numerically singular system, or whether
    it raises, depends on its rounding: on a Borel series of ones near 1
    at M = 20, the real solver gives a leading denominator coefficient of
    6e-18 and a pole near -1.7e17, where the complex one gives 2.1.
    """
    block = _denominator_block(c, L, M)
    q = np.concatenate(([1.0], np.linalg.solve(block[:, 1:], -block[:, 0])))
    p = np.convolve(q, c[:L + 1])[:L + 1]
    return np.poly1d(p[::-1]), np.poly1d(q[::-1])


def _numerical_rank(c: np.ndarray, L: int, M: int) -> int:
    """Numerical rank of the M x (M+1) denominator block c_{L+1+i-k}.

    Singular values count when above RANK_TOL * ||c_0..c_{L+M}||_2, the
    tolerance of Gonnet, Guttel & Trefethen (SIAM Rev. 55(1), 2013), and
    above the SVD's own rounding floor (M+1) * eps * sigma_max, the default
    of numpy.linalg.matrix_rank.  The floor matters for large M: sigma_max
    grows like M |c| but ||c||_2 only like sqrt(2M) |c|, and at M = 210
    the rounding noise of a rank-1 block already clears the GGT tolerance.
    _numerical_type takes it on growing leading blocks of a series'
    requested block, before diagonal_pade's first solve.
    """
    if not c.imag.any():
        c = c.real  # a real block takes the real SVD, about twice as fast
    sv = np.linalg.svd(_denominator_block(c, L, M), compute_uv=False)
    tol = max(RANK_TOL * np.linalg.norm(c[:L + M + 1]),
              (M + 1) * np.finfo(float).eps * sv[0])
    return int(np.count_nonzero(sv > tol))


@dataclass(frozen=True)
class _NumericalType:
    """A numerical rank for the [L/M] block and, if verified, the series' type.

    rational is the [min(L, rank-1)/rank] approximant when it reproduces
    all N coefficients (see _numerical_type), else None.  rank is that of
    the leading block that certified it, or else of the full [L/M] block.
    """

    L: int
    M: int
    rank: int
    rational: PadeApproximant | None

    def covers(self, L: int, M: int) -> bool:
        """Whether the [L/M] block is a sub-block of the ranked one.

        Its rank is then at most self.rank: row and column offsets a, b in
        [0, self.M - M] with a - b = L - self.L place it inside.
        """
        return M <= self.M and abs(L - self.L) <= self.M - M


def _verified_type(c: np.ndarray, r: float, L: int,
                   rho: int) -> PadeApproximant | None:
    """[lam/rho], lam = min(L, rho - 1), if it reproduces all N coefficients.

    Accepted when its linearized residual over all N coefficients,
    ||(q * c)_{0..N-1} - p||_2, is at most RANK_TOL * ||c||_2: the series
    is then rational of that type to rounding (1/(1-x) at N = 421 leaves
    about 2e-15 against 2e-13), and a series that is merely close to one,
    such as a branch point's, fails by orders of magnitude (heat's Borel
    series leave about 1e-8).
    """
    lam = min(L, rho - 1)
    try:
        num, den = _solve_pade(c, lam, rho)
    except np.linalg.LinAlgError:
        return None
    res = np.convolve(den.coeffs[::-1], c)[:len(c)]
    res[:len(num.coeffs)] -= num.coeffs[::-1]
    if np.linalg.norm(res) > RANK_TOL * np.linalg.norm(c):
        return None
    return PadeApproximant(num=num, den=den, r=r, order=(lam, rho))


def _numerical_type(c: np.ndarray, r: float, L: int, M: int) -> _NumericalType:
    """Rank growing leading blocks of [L/M] until one certifies the type.

    The leading k x (k+1) sub-block of the [L/M] denominator block is the
    [L/k] block.  It is ranked for k = 8, 32, 128, ..., capped at M, by the
    rule of _numerical_rank.  At each k with 1 <= rho_k < k, [lam/rho_k],
    lam = min(L, rho_k - 1), is tried against all N coefficients
    (_verified_type), and the first type that passes is the series'.  A
    series rational to rounding is certified by its smallest block: 421
    ones by one 8 x 9 SVD instead of a 210 x 211 one.  Otherwise the last
    step ranks the full [L/M] block, and the outcome is that block's rank
    and its verified type, if any.  The result keeps the requested (L, M),
    so covers() still speaks of the full block.
    """
    k = min(8, M)
    while True:
        rho = _numerical_rank(c, L, k)
        rational = _verified_type(c, r, L, rho) if 1 <= rho < k else None
        if rational is not None or k == M:
            return _NumericalType(L, M, rho, rational)
        k = min(4 * k, M)


def _kept(ap: PadeApproximant) -> PadeApproximant:
    """ap with read-only coefficients, to be shared by later requests."""
    ap.num.coeffs.setflags(write=False)
    ap.den.coeffs.setflags(write=False)
    return ap


def diagonal_pade(a: RamifiedSeries, M: int,
                  L: int | None = None) -> PadeApproximant:
    """Near-diagonal [L/M] Pade (default L = M - 1) of a coefficient series.

    The rescaled coefficients d_j = c_j * r^j are O(1); the returned object
    evaluates and reports poles in the original variable.

    Before any solve, _numerical_type ranks growing leading sub-blocks of
    the [L/M] denominator block.  When one of rank rho with 1 <= rho < k
    gives a [lam/rho], lam = min(L, rho - 1), that reproduces all N
    coefficients to RANK_TOL, the series is numerically rational of that
    type and [lam/rho] is returned.  Otherwise the full block's rank rho
    decides: its [lam/rho] is returned if verified, else [L/M] is solved;
    the first exactly singular solve jumps to [min(L, rho-1)/rho] if
    rho < M, and the order then steps down by one only while the system
    stays singular.

    The series keeps its approximants by requested (M, L), its numerical
    type under the key "type" and its rescaled coefficients (d, r) under
    "scaled", so it is rescaled once.  Every later request with M >= rho
    and L >= lam on a verified series returns the same approximant with no
    SVD or solve; a later request whose block is a sub-block of the ranked
    one reuses rho.  So the pipeline's requests (stable_poles' and
    laplace_resum's, at decreasing diagonal M) rank each series once: a
    rational series by the small block that certifies its type, any
    other by its full block after the smaller leading ones (8 x 9 and
    32 x 33 for heat's M = 100).  Failures are never kept.
    """
    if L is None:
        L = M - 1
    need = L + M + 1
    if len(a) < need:
        raise ValueError(f"need {need} coefficients for [{L}/{M}], got {len(a)}")
    key = (M, L)
    if a._pade_memo is None:
        a._pade_memo = {}
    memo = a._pade_memo
    if key in memo:
        return memo[key]
    kind = memo.get("type")
    if kind is not None and kind.rational is not None:
        lam, rho = kind.rational.order
        if M >= rho and L >= lam:
            memo[key] = kind.rational
            return kind.rational
    if "scaled" not in memo:
        d, r = _scaled_coeffs(a)
        d.setflags(write=False)
        memo["scaled"] = d, r
    d, r = memo["scaled"]
    if kind is None or not kind.covers(L, M):
        kind = _numerical_type(d, r, L, M)
        memo["type"] = kind
        if kind.rational is not None:
            memo[key] = _kept(kind.rational)
            return kind.rational
    rho = kind.rank  # used at the first singular solve only
    while True:
        try:
            num, den = _solve_pade(d, L, M)
            break
        except np.linalg.LinAlgError:
            if 1 <= rho < M:
                M, L = rho, min(L, rho - 1)
            else:
                M -= 1
                L = min(L, max(M - 1, 0))
                if M < 1:
                    raise
            rho = 0
    ap = PadeApproximant(num=num, den=den, r=r, order=(L, M))
    memo[key] = _kept(ap)  # shared by every later request
    return ap


def _cluster(pole_sets, tol=STABILITY_TOL):
    """Poles of pole_sets[0] recurring in every other set within tol."""
    out = []
    for p in pole_sets[0]:
        group = [p]
        for other in pole_sets[1:]:
            if len(other) == 0:
                group = None
                break
            d = np.abs(other - p)
            i = int(np.argmin(d))
            if d[i] <= tol * max(1e-300, abs(p)):
                group.append(other[i])
            else:
                group = None
                break
        if group is not None:
            center = np.mean(group)
            radius = max(max(abs(g - center) for g in group),
                         tol * abs(center) * 0.1)
            out.append((complex(center), float(radius)))
    out.sort(key=lambda t: abs(t[0]))
    return out


def stable_poles(a: RamifiedSeries):
    """Poles persisting across the Pade orders requested for N, N-1, N-2.

    The requests are [M-1/M] with M = n//2 for n in {N, N-1, N-2}, N the
    series' coefficient count.  They are not three different orders: at
    odd N, N//2 equals (N-1)//2, and at even N, (N-1)//2 equals (N-2)//2,
    so only two distinct approximants are compared.  The repeated request
    is answered from the series' memo at no cost, and the three requests
    rank the series once between them (see diagonal_pade).  A numerically
    rational series of verified type [lam/rho], rho < M, answers all three
    with that one approximant: its poles are compared with themselves,
    which is exact for such a series, not evidence across orders.  A pole
    counts as stable when each order reproduces it within STABILITY_TOL
    relative.  Returns a new list of (location, confidence_radius) sorted
    by modulus.

    The clusters are kept in the series' memo, so borel_singularities and
    every laplace_resum point on one Borel series share one clustering.
    """
    n = len(a)
    if n < 8:
        raise ValueError("need at least 8 coefficients for pole tracking")
    if a._pade_memo and "stable_poles" in a._pade_memo:
        return list(a._pade_memo["stable_poles"])
    sets = []
    for nk in (n, n - 1, n - 2):
        m = nk // 2
        ap = diagonal_pade(a, m)
        sets.append(ap.significant_poles())
    clusters = _cluster(sets)
    a._pade_memo["stable_poles"] = tuple(clusters)  # diagonal_pade made it
    return clusters


def ratio_radius(a: RamifiedSeries) -> float:
    """Nearest-singularity modulus from the coefficient ratio test (crude).

    inf when the coefficients fall faster than 10^-308 per index.
    """
    return _radius(geometric_slope(a.log10_abs()))
