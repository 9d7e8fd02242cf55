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
from itertools import repeat

import numpy as np

from .series import RamifiedSeries, geometric_slope  # noqa: F401 (re-export)

STABILITY_TOL = 1e-2  # relative pole agreement across consecutive orders
RANK_TOL = 1e-14  # numerical-rank threshold of Gonnet, Guttel & Trefethen
RESIDUE_TOL = 1e-8  # relative residue below which a pole is spurious
_EPS = float(np.finfo(float).eps)


def _trimmed(c: np.ndarray) -> np.ndarray:
    """c, degree 0 first, without its top zero coefficients; [0] if all are.

    The rule by which np.poly1d drops the leading zeros of its coefficients.
    _horner_table's block size and the companion matrix of _roots both
    follow the trimmed length, so every coefficient array of an
    approximant is trimmed by it.
    """
    if c[-1] != 0:
        return c
    nz = np.flatnonzero(c)
    return c[:nz[-1] + 1] if len(nz) else np.zeros(1, c.dtype)


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of the 1-D array x, bit for bit, without its wrapper.

    The same ravel and the same dot products: a strided real view is
    copied first, as norm copies it, because BLAS sums a strided dot in
    another order.
    """
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


def _roots(h: np.ndarray) -> np.ndarray:
    """np.roots of h, highest degree first, with h[0] and h[-1] nonzero.

    np.roots strips leading and trailing zeros and then takes the
    eigenvalues of the companion matrix; with none to strip, this is that
    matrix and that eigvals call, bit for bit, without the rest of its
    glue.  A denominator qualifies: it is trimmed, and q(0) = 1.
    """
    n = len(h) - 1
    if n < 1:
        return np.zeros(0)
    companion = np.eye(n, k=-1, dtype=h.dtype)
    companion[0] = -h[1:] / h[0]
    return np.linalg.eigvals(companion)


def _horner_table(*polys: np.ndarray) -> np.ndarray:
    """(B, nb, p) coefficient-block table of p polynomials for _horner.

    Each polynomial is a coefficient array, degree 0 first.  With k the
    longest coefficient count, B = isqrt(k) and nb = ceil(k/B), entry
    [s, j, i] holds polynomial i's coefficient of degree j*B + B-1-s, zero
    where that degree is k or more (or above that polynomial's degree).
    Row s is the s-th Horner step of every block at once.
    """
    k = max(len(c) for c in polys)
    B = math.isqrt(k)
    nb = -(-k // B)
    rows = np.zeros((nb * B, len(polys)), dtype=np.complex128)
    for i, c in enumerate(polys):
        rows[:len(c), i] = c
    blocks = np.ascontiguousarray(rows.reshape(nb, B, len(polys))[:, ::-1]
                                  .transpose(1, 0, 2))
    blocks.setflags(write=False)
    return blocks


def _horner(blocks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every polynomial of the _horner_table `blocks` at the array y.

    One Horner pass in y evaluates every block of every polynomial at
    once, in B - 1 steps; a second Horner pass in y^B combines the blocks.
    Returns shape (p,) + y.shape, complex128.
    """
    steps = blocks.reshape(blocks.shape + (1,) * y.ndim)
    acc = np.empty(blocks.shape[1:] + y.shape, dtype=np.complex128)
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
    """[L/M] approximant p(y)/q(y) of sum c_j x^j at y = x/r.

    p and q are read-only coefficient arrays, degree 0 first, with q_0 = 1,
    each without top zero coefficients (_trimmed); num and den give them
    as np.poly1d.
    """

    p: np.ndarray
    q: np.ndarray
    r: float
    order: tuple

    def __post_init__(self):
        self.p.setflags(write=False)
        self.q.setflags(write=False)

    @property
    def num(self) -> np.poly1d:
        return np.poly1d(self.p[::-1])

    @property
    def den(self) -> np.poly1d:
        return np.poly1d(self.q[::-1])

    def __call__(self, x):
        """p(y) / q(y) at y = x / r, by the two-level Horner evaluator.

        Both polynomials are evaluated together by _horner on the block
        table _horner_blocks: about 2 sqrt(k) array steps for k
        coefficients instead of k, and as accurate as plain Horner: within
        1e-14 relative of 50-digit mpmath on heat's [99/100] Borel sum
        (tests/test_pade.py).  The result has the type and shape of
        np.polyval's.  Where a Horner pass overflows or the denominator
        vanishes, the value is inf or nan, with no warning; laplace_resum
        refuses a sum that is not finite.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _horner(self._horner_blocks,
                          np.asarray(x, dtype=np.complex128) / self.r)
            return out[0] / out[1]

    @cached_property
    def _horner_blocks(self) -> np.ndarray:
        """_horner's block table of the numerator and the denominator."""
        return _horner_table(self.p, self.q)

    @cached_property
    def _roots_residues(self) -> tuple[np.ndarray, np.ndarray]:
        """Denominator roots in the rescaled variable and |residue| at each.

        Computed once per approximant and read-only; the pole methods
        return new arrays built from it.  A denominator with imaginary
        parts all exactly zero is rooted in real arithmetic, about twice
        as fast; its roots are cast back to complex128 either way.  The
        residues p(y) / q'(y) come from __call__'s two-level Horner
        evaluator.
        """
        q = self.q if self.q.imag.any() else self.q.real
        y = _roots(q[::-1]).astype(np.complex128)
        res = np.empty(0)
        if len(y):
            dq = self.q[1:] * np.arange(1, len(self.q))  # np.polyder's q'
            vals = _horner(_horner_table(self.p, dq), y)
            with np.errstate(divide="ignore", invalid="ignore"):
                res = np.abs(vals[0] / vals[1])
            res = np.where(np.isfinite(res), res, np.inf)
        y.setflags(write=False)
        res.setflags(write=False)
        return y, res

    def poles(self) -> np.ndarray:
        p = self._roots_residues[0] * self.r
        return p[np.argsort(np.abs(p))]

    def significant_poles(self) -> np.ndarray:
        """Poles whose residue is non-negligible, as a new array.

        Spurious pole-zero doublets from (near-)degenerate coefficient
        systems carry residues many orders below the genuine ones; they are
        dropped below RESIDUE_TOL times the largest residue present.
        """
        return self._significant.copy()

    @cached_property
    def _significant(self) -> np.ndarray:
        """significant_poles, computed once per approximant and read-only."""
        y, res = self._roots_residues
        if len(y):
            top = res.max()
            if np.isfinite(top) and top != 0.0:
                y = y[res > RESIDUE_TOL * top]
        p = y * self.r
        p = p[np.argsort(np.abs(p))]
        p.setflags(write=False)
        return p


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
    slope = a.geometric_slope()
    r = _radius(slope)
    if r == math.inf:
        raise ValueError(f"coefficients fall by 10^{slope:.4g} per index; "
                         "the Pade rescaling radius is past double range")
    out = np.zeros(len(a), dtype=np.complex128)
    j = np.flatnonzero(a.mant)
    m = a.mant[j]
    # libm hypot, log10 and pow, as abs(complex), ScaledComplex.log10_abs
    # and Python's float power (math.pow is the same libm call): numpy's
    # complex abs and its vectorized log10 and power are an ulp off on
    # some entries
    am = np.hypot(m.real, m.imag)
    x = (np.fromiter(map(math.log10, am.tolist()), np.float64, len(j))
         + a.exp10[j] - slope * j)
    mag = np.fromiter(map(math.pow, repeat(10.0), x.tolist()), np.float64,
                      len(j))
    t = mag * m
    # the steps of Python's complex / float, a division by (am, 0.0):
    # a plain t / am gives the other sign on some zero parts
    out.real[j] = (t.real + t.imag * 0.0) / am
    out.imag[j] = (t.imag - t.real * 0.0) / am
    return out, r


def _denominator_block(c: np.ndarray, L: int, M: int) -> np.ndarray:
    """The M x (M+1) Toeplitz block c_{L+1+i-k} of [L/M], c_j = 0 for j < 0.

    Row i is the equation of x^(L+1+i), column k the factor of q_k.  It is
    one index gather of c; negative indices, which occur only when
    L + 1 < M, are zeroed.
    """
    j = np.arange(L + 1, L + M + 1)[:, None] - np.arange(M + 1)
    block = c[j]
    if L + 1 < M:
        block[j < 0] = 0
    return block


def _solve_pade(c: np.ndarray, L: int,
                M: int) -> tuple[np.ndarray, np.ndarray]:
    """[L/M] numerator p and denominator q of sum c_j x^j, normalized q_0 = 1.

    Both are coefficient arrays, degree 0 first, trimmed by _trimmed.
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
    return _trimmed(p), _trimmed(q)


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
    tol = max(RANK_TOL * _norm(c[:L + M + 1]), (M + 1) * _EPS * sv[0])
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
        p, q = _solve_pade(c, lam, rho)
    except np.linalg.LinAlgError:
        return None
    if _residual(c, p, q) > RANK_TOL * _norm(c):
        return None
    return PadeApproximant(p=p, q=q, r=r, order=(lam, rho))


def _residual(c: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """||(q * c)_{0..N-1} - p||_2, the linearized residual of p/q on c."""
    res = np.convolve(q, c)[:len(c)]
    res[:len(p)] -= p
    return _norm(res)


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
            memo[key] = kind.rational
            return kind.rational
    rho = kind.rank  # used at the first singular solve only
    while True:
        try:
            p, q = _solve_pade(d, L, M)
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
    ap = PadeApproximant(p=p, q=q, r=r, order=(L, M))
    memo[key] = ap  # shared by every later request
    return ap


def _cluster(pole_sets, tol=STABILITY_TOL):
    """Poles of pole_sets[0] recurring in every other set within tol.

    Each pole p of the first set is matched with the nearest pole of each
    other set, the first of equal distances; p and its matches form a
    group when every match lies within tol * max(1e-300, |p|).  A group's
    center is np.mean of its members and its radius the largest
    |member - center|, at least tol * |center| * 0.1.  Returns a new list
    of (center, radius) sorted by |center|; empty when any set is.

    Every pole of the first set is matched in one array pass per other
    set.  The distances are the vector np.abs of the differences; the
    moduli of the thresholds, the radii and the centers are the scalar
    abs(), which np.hypot gives bit for bit, while the vector np.abs of a
    contiguous array is an ulp off it on some entries.  Each max keeps
    Python's rule: a later value replaces the first only when greater.
    """
    first = pole_sets[0]
    if len(first) == 0 or any(len(other) == 0 for other in pole_sets[1:]):
        return []
    bound = tol * np.fmax(np.hypot(first.real, first.imag), 1e-300)
    group = np.empty((len(first), len(pole_sets)), dtype=np.complex128)
    group[:, 0] = first
    keep = np.ones(len(first), dtype=bool)
    for k, other in enumerate(pole_sets[1:], 1):
        d = np.abs(other - first[:, None])
        keep &= d.min(axis=1) <= bound
        group[:, k] = other[d.argmin(axis=1)]
    group = group[keep]
    center = np.add.reduce(group, axis=1) / len(pole_sets)  # np.mean's
    out = [(c, max(max(abs(m - c) for m in members), tol * abs(c) * 0.1))
           for c, members in zip(center.tolist(), group.tolist())]
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
    relative (_cluster).  Returns a new list of (location,
    confidence_radius) sorted by modulus.

    The clusters are kept in the series' memo, so borel_singularities and
    every laplace_resum point on one Borel series share one clustering;
    laplace_resum keeps their blocked-ray triples there too.  Each
    approximant's significant poles are computed once and shared by the
    requests it answers.
    """
    n = len(a)
    if n < 8:
        raise ValueError("need at least 8 coefficients for pole tracking")
    if a._pade_memo and "stable_poles" in a._pade_memo:
        return list(a._pade_memo["stable_poles"])
    sets = [diagonal_pade(a, nk // 2)._significant for nk in (n, n - 1, n - 2)]
    clusters = _cluster(sets)
    a._pade_memo["stable_poles"] = tuple(clusters)  # diagonal_pade made it
    return clusters


def ratio_radius(a: RamifiedSeries) -> float:
    """Nearest-singularity modulus from the coefficient ratio test (crude).

    inf when the coefficients fall faster than 10^-308 per index.
    """
    return _radius(a.geometric_slope())
