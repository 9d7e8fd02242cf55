"""Truncated ramified formal power series in one and two variables.

Coefficients are stored in decimal-scaled form (mantissa array + exponent
array, see msumma.scaled); all arithmetic goes through the array kernels of
msumma._kernels.

A RamifiedSeries with ramification kappa and truncation N represents
sum_{j=0..N} c_j x^(j/kappa).  Binary operations follow the min-rule for
truncations: coefficients beyond the shorter operand are unknown, never
fabricated by zero padding.

`dumps` writes one line per coefficient with repr text for each float.  A
component in the scaled core's mantissa range [1, 10) is formatted by an
exact vectorized path: its shortest round-trip digits follow from Dekker
products x * 10^f for f = 14, 15 and 16 and a test against ulp(x)/2.
Every other value, and any decision within 1e-9 of its boundary, goes
through repr.  Each distinct value is formatted once into a NUL-padded
byte row: +0.0 cells are found by their bits and kept out of the sort, and
a field of one bit pattern is one repr call.  Lines are assembled as one
byte matrix per block of about _kernels.BLOCK_CELLS cells, whose padding
is dropped before decoding.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import _kernels as K
from .errors import KappaMismatchError
from .scaled import ScaledComplex


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# Rounding and round-trip decisions of the exact path closer than this to
# their boundary (in units of the last digit) go to repr; the residuals it
# compares are exact to about 1e-15.
_MARGIN = 1e-9
_EXPONENT = 0x7FF << 52  # exponent bits of a float64


def _split(a):
    """Veltkamp split a = hi + lo, each half with at most 26 bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _scaled_round(a, ah, al, f):
    """Nearest integers D to a * 10^f (for 1 <= a < 10, f <= 16) and the
    residuals a * 10^f - D.

    Dekker's TwoProduct gives a * 10^f = hi + lo exactly (10^f is a
    double); hi - rint(hi) is exact, so the residual carries one rounding
    of a number below 9.
    """
    p = 10.0 ** f
    ph, pl = _split(p)
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    h0 = np.rint(hi)
    r = (hi - h0) + lo
    k = np.rint(r)
    return h0.astype(np.int64) + k.astype(np.int64), r - k


@functools.cache
def _quads() -> np.ndarray:
    """S4 table: the 4 ASCII digits of k at k, and at 10^4 + k the same
    with their trailing zeros as NUL (all four for k = 0)."""
    k = np.arange(10_000)[:, None]
    full = (k // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
    bare = full * (k % 10 ** np.arange(4, 0, -1) != 0)
    table = np.concatenate((full, bare)).view("S4").ravel()
    table.setflags(write=False)
    return table


def _exact_digits(x):
    """Digits of repr(x) for the entries the exact path can decide.

    Returns (digits, ok).  Where ok, x is finite, 1 <= |x| < 10, and
    repr(|x|) is the lead digit of `digits` (an int in [10^16, 10^17)), a
    point and its other 16 digits less trailing zeros (but at least one).
    A decimal of D digits round-trips when it lies within ulp(x)/2 of x,
    so the nearest one round-trips if any does, and repr has the fewest
    digits D <= 17 whose nearest decimal round-trips.  For D <= 15 that
    decimal is the only one (ulp(x) * 10^14 < 1); for 16 and 17 it is the
    nearest, which repr takes.  The powers of two in range, whose ulp
    below is half the ulp above, are integers and so exact at D = 15.
    Decisions within _MARGIN of a tie or of the half-ulp bound are not ok.
    """
    a = np.abs(x)
    ok = (a >= 1.0) & (a < 10.0)
    a = np.fmin(np.fmax(a, 1.0), 10.0)  # finite arithmetic off `ok`
    half_ulp = ((a.view(np.int64) & _EXPONENT) - (53 << 52)).view(np.float64)
    ah, al = _split(a)
    digits, fits = 0, False
    for f in (16, 15, 14):  # fewer digits replace more where they fit
        d, r = _scaled_round(a, ah, al, f)
        r = np.abs(r)
        bound = half_ulp * 10.0 ** f
        ok &= np.minimum(np.abs(r - 0.5), np.abs(r - bound)) > _MARGIN
        passes = r < bound
        digits = digits + passes * (d * 10 ** (16 - f) - digits)
        fits = fits | passes
    return digits, ok & fits


def _float_table(x: np.ndarray, sep: str):
    """(table, index) of the text of the nonempty float64 array x.

    `table` has one NUL-padded bytes row per distinct bit pattern (so -0.0
    and 0.0 stay apart), holding repr(value) + sep; index[...] is the row
    of x[...].  Row 0 is +0.0, whose bits are 0: the zero cells, every
    other row of a wave grid, take it without the sort, and only the
    other cells go through np.unique, at rows 1 and up.  Rows the exact
    path decides are written from its digits as sign (or NUL), lead
    digit, '.', 16 digits whose trailing zeros are NUL (a group of four is
    read bare when every later group is 0) and sep; every other value goes
    through repr.  A field whose cells share one bit pattern, as a real
    grid's imaginary parts do, is the one row repr(value) + sep, without
    the sort or the digit pass.
    """
    bits = x.view(np.int64)
    if bits.min() == bits.max():
        row = np.array([repr(float(x.flat[0])) + sep], dtype="S")
        return row, np.zeros(x.shape, dtype=np.intp)
    nonzero = bits != 0
    uniq, inv = np.unique(bits[nonzero], return_inverse=True)
    index = np.zeros(x.shape, dtype=np.intp)
    index[nonzero] = inv + 1
    vals = np.concatenate(([0.0], uniq.view(np.float64)))
    digits, ok = _exact_digits(vals)
    slow = np.array([repr(v) + sep for v in vals[~ok].tolist()], dtype="S")
    fast = ok.any()
    width = max(20 if fast else 0, slow.itemsize)
    table = np.zeros((len(vals), width), dtype=np.uint8)
    if fast:
        lead = digits // 10**16
        high = digits // 10**8 - lead * 10**8
        low = digits % 10**8
        table[:, 0] = (vals < 0) * ord("-")
        table[:, 1] = lead + ord("0")
        table[:, 2] = ord(".")
        quads = table[:, 3:19].view("S4")
        later_zero = True
        for i, q in ((3, low % 10**4), (2, low // 10**4),
                     (1, high % 10**4), (0, high // 10**4)):
            quads[:, i] = _quads()[q + 10**4 * later_zero]
            later_zero = later_zero & (q == 0)
        table[later_zero, 3] = ord("0")  # repr keeps one: 3.0
        table[:, 19] = ord(sep)
    table[~ok] = slow.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return table.view(f"S{width}").ravel(), index


def _int_table(a: np.ndarray, sep: str):
    """(table, index) of the text of int array a: one NUL-padded bytes
    row str(value) + sep per distinct value, and the row of each entry.
    When a's range holds no more values than a has entries, the table
    covers the whole range and no sort is needed."""
    lo, hi = int(a.min()), int(a.max())
    if hi - lo < a.size:
        vals, inv = range(lo, hi + 1), a - lo
    else:
        vals, inv = np.unique(a, return_inverse=True)
        vals, inv = vals.tolist(), inv.reshape(a.shape)
    return np.array([f"{v}{sep}" for v in vals], dtype="S"), inv


def _lines(mant, exp10, coords) -> str:
    """Lines 'coords... re im exp10' for the cells of a 2-D grid, in
    row-major order; each of `coords` broadcasts to the grid's shape.

    Each field of a line is a (table, index) pair from _float_table or
    _int_table.  `K.block_rows` grid rows at a time, about K.BLOCK_CELLS
    cells, the lines are gathered as one record array of table rows, a
    NUL-padded (rows, cols, width) byte matrix; one bytes.translate drops
    the padding and the rest is decoded as ASCII.
    """
    if mant.size == 0:
        return ""
    fields = [*(_int_table(c, " ") for c in coords),
              _float_table(mant.real, " "), _float_table(mant.imag, " "),
              _int_table(exp10, "\n")]
    line = np.dtype([(f"f{i}", t.dtype) for i, (t, _) in enumerate(fields)])
    nrows, ncols = mant.shape
    out = []
    step = K.block_rows(ncols)
    for j0 in range(0, nrows, step):
        rows = slice(j0, j0 + step)
        block = np.empty((min(step, nrows - j0), ncols), dtype=line)
        for name, (table, index) in zip(line.names, fields):
            # an index with one row (column numbers) serves every block
            block[name] = table[index[rows] if len(index) > 1 else index]
        out.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(out)


def _parse_literal(text: str, nhead: int, nfields: int):
    """Header ints and field columns of a series or grid literal.

    The first non-blank line is the header of nhead ints; every later
    non-blank line holds nfields fields.  One split tokenizes the text,
    and the token counts are checked against the line count.  Returns the
    header as a list and the body as nfields lists of strings, one per
    field.  Raises ValueError on any other shape.
    """
    lines = text.splitlines()
    head = next((ln.split() for ln in lines if ln.strip()), [])
    nlines = len(lines) - lines.count("") - sum(map(str.isspace, lines))
    tokens = text.split()
    if len(head) != nhead or len(tokens) != nhead + nfields * (nlines - 1):
        raise ValueError(f"expected a header of {nhead} fields and lines of "
                         f"{nfields} fields")
    header = [int(v) for v in head]
    body = tokens[nhead:]
    return header, [body[i::nfields] for i in range(nfields)]


def _parse_index(col, n: int) -> np.ndarray:
    """The int column col as an array of indices in [0, n]."""
    idx = np.fromiter(map(int, col), np.int64, len(col))
    if len(idx) and (idx.min() < 0 or idx.max() > n):
        raise ValueError(f"coefficient index outside [0, {n}]")
    return idx


def _parse_cells(cols, shape, where):
    """Mantissa and exponent arrays of `shape` with the cells of the
    re, im and exp10 columns `cols` stored at the index tuple `where`."""
    mant = np.zeros(shape, dtype=np.complex128)
    exp = np.zeros(shape, dtype=np.int64)
    k = len(cols[0])
    # stored by component, bits as parsed: re + 1j*im would make
    # 1j*inf a nan and lose the sign of a zero
    mant.real[where] = np.fromiter(map(float, cols[0]), np.float64, k)
    mant.imag[where] = np.fromiter(map(float, cols[1]), np.float64, k)
    exp[where] = np.fromiter(map(int, cols[2]), np.int64, k)
    return mant, exp


def geometric_slope(log10_abs: np.ndarray) -> float:
    """Median decimal log-slope of the coefficient magnitudes."""
    finite = np.isfinite(log10_abs)
    idx = np.nonzero(finite)[0]
    if len(idx) < 2:
        return 0.0
    v = log10_abs[idx]
    d = np.sort((v[1:] - v[:-1]) / (idx[1:] - idx[:-1]))  # np.diff's steps
    # np.median's value bit for bit, without the numpy.ma import that its
    # first call costs: the middle element, or the two middle ones' mean
    h = len(d) // 2
    return float(d[h] if len(d) % 2 else (d[h - 1] + d[h]) / 2.0)


def _root(x: complex, kappa: int, branch: int) -> ScaledComplex:
    """x^(1/kappa), principal branch rotated by 2*pi*branch/kappa."""
    x = complex(x)
    if x == 0:
        return ScaledComplex.zero()
    w = cmath.exp(cmath.log(x) / kappa)
    w *= cmath.exp(2j * math.pi * (branch % kappa) / kappa)
    return ScaledComplex.from_complex(w)


class RamifiedSeries:
    """Truncated series sum c_j x^(j/kappa), scaled complex coefficients."""

    # _pade_memo: belongs to pade, which alone reads and fills it (its
    # approximants, numerical type, rescaled coefficients and stable
    # poles); it lives and dies with the (read-only) series.
    # _log10 and _slope: the read-only array of log10_abs and its
    # geometric_slope, each computed on first use and shared by the Gevrey
    # fit, the ratio radius and the Pade rescaling; a failed Pade request
    # leaves them and never touches _pade_memo through them.
    __slots__ = ("kappa", "mant", "exp10", "_pade_memo", "_log10", "_slope")

    def __init__(self, kappa: int, mant, exp10, normalized: bool = False):
        if kappa < 1:
            raise ValueError("kappa must be a positive integer")
        mant = np.asarray(mant, dtype=np.complex128)
        exp10 = np.asarray(exp10, dtype=np.int64)
        if mant.shape != exp10.shape or mant.ndim != 1:
            raise ValueError("mantissa/exponent arrays must be equal-length 1-D")
        if not normalized:
            mant, exp10 = K.normalize(mant, exp10)
        mant.setflags(write=False)
        exp10.setflags(write=False)
        self.kappa = int(kappa)
        self.mant = mant
        self.exp10 = exp10
        self._pade_memo = None
        self._log10 = None
        self._slope = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_complex(kappa: int, coeffs) -> "RamifiedSeries":
        if not isinstance(coeffs, np.ndarray):
            coeffs = list(coeffs)
        c = np.asarray(coeffs, dtype=np.complex128)
        return RamifiedSeries(kappa, c, np.zeros(len(c), dtype=np.int64))

    @staticmethod
    def from_scaled(kappa: int, coeffs) -> "RamifiedSeries":
        coeffs = list(coeffs)
        mant = np.array([c.mantissa for c in coeffs], dtype=np.complex128)
        exp = np.array([c.exp10 for c in coeffs], dtype=np.int64)
        return RamifiedSeries(kappa, mant, exp, normalized=True)

    @staticmethod
    def zero(kappa: int, trunc: int) -> "RamifiedSeries":
        return RamifiedSeries(kappa,
                              np.zeros(trunc + 1, dtype=np.complex128),
                              np.zeros(trunc + 1, dtype=np.int64),
                              normalized=True)

    # -- basics ---------------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.mant) - 1

    def __len__(self) -> int:
        return len(self.mant)

    def __getitem__(self, j: int) -> ScaledComplex:
        return ScaledComplex(complex(self.mant[j]), int(self.exp10[j]))

    def coeff_complex(self, j: int) -> complex:
        return self[j].to_complex()

    def coeffs_complex(self) -> np.ndarray:
        """Dense complex coefficients; overflows saturate to inf."""
        return K.to_complex(self.mant, self.exp10)

    def log10_abs(self) -> np.ndarray:
        """Decimal log-magnitudes of the coefficients (-inf for zeros).

        Computed once per series; every call returns the same read-only
        array.
        """
        if self._log10 is None:
            out = np.full(len(self), -np.inf)
            nz = self.mant != 0
            out[nz] = np.log10(np.abs(self.mant[nz])) + self.exp10[nz]
            out.setflags(write=False)
            self._log10 = out
        return self._log10

    def geometric_slope(self) -> float:
        """geometric_slope of log10_abs, computed once per series."""
        if self._slope is None:
            self._slope = geometric_slope(self.log10_abs())
        return self._slope

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.mant)))

    def truncate_to(self, trunc: int) -> "RamifiedSeries":
        if trunc >= self.trunc:
            return self
        return RamifiedSeries(self.kappa, self.mant[:trunc + 1],
                              self.exp10[:trunc + 1], normalized=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RamifiedSeries)
                and self.kappa == other.kappa
                and np.array_equal(self.mant, other.mant)
                and np.array_equal(self.exp10, other.exp10))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RamifiedSeries(kappa={self.kappa}, trunc={self.trunc})"

    # -- arithmetic -----------------------------------------------------

    def _check_kappa(self, other: "RamifiedSeries"):
        if self.kappa != other.kappa:
            raise KappaMismatchError(
                f"kappa mismatch: {self.kappa} != {other.kappa}")

    def __add__(self, other: "RamifiedSeries") -> "RamifiedSeries":
        self._check_kappa(other)
        n = min(len(self), len(other))
        m, e = K.add(self.mant[:n], self.exp10[:n],
                     other.mant[:n], other.exp10[:n])
        return RamifiedSeries(self.kappa, m, e, normalized=True)

    def __neg__(self) -> "RamifiedSeries":
        return RamifiedSeries(self.kappa, -self.mant, self.exp10, normalized=True)

    def __sub__(self, other: "RamifiedSeries") -> "RamifiedSeries":
        return self + (-other)

    def scale(self, c) -> "RamifiedSeries":
        s = c if isinstance(c, ScaledComplex) else ScaledComplex.from_complex(c)
        m, e = K.scale(self.mant, self.exp10, s.mantissa, s.exp10)
        return RamifiedSeries(self.kappa, m, e, normalized=True)

    def __mul__(self, other):
        if not isinstance(other, RamifiedSeries):
            return self.scale(other)
        self._check_kappa(other)
        n = min(len(self), len(other))
        acc_m = np.zeros(n, dtype=np.complex128)
        acc_e = np.zeros(n, dtype=np.int64)
        for i in range(n):
            ai = self[i]
            if not ai:
                continue
            lo = n - i
            rm, re = K.axpy_shift(acc_m[i:], acc_e[i:],
                                  other.mant[:lo], other.exp10[:lo],
                                  ai.mantissa, ai.exp10, 0)
            acc_m[i:] = rm
            acc_e[i:] = re
        return RamifiedSeries(self.kappa, acc_m, acc_e, normalized=True)

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------

    def eval_scaled(self, x: complex, branch: int = 0) -> ScaledComplex:
        if complex(x) == 0:
            return self[0] if len(self) else ScaledComplex.zero()
        w = _root(x, self.kappa, branch)
        m, e = K.eval_scaled(self.mant, self.exp10, w.mantissa, w.exp10)
        return ScaledComplex(complex(m[0]), int(e[0]))

    def eval(self, x: complex, branch: int = 0) -> complex:
        return self.eval_scaled(x, branch).to_complex()

    def __call__(self, x: complex, branch: int = 0) -> complex:
        return self.eval(x, branch)

    # -- persistence ----------------------------------------------------

    def dumps(self) -> str:
        """Series literal format: header 'kappa N', lines 'j re im exp10'."""
        return f"{self.kappa} {self.trunc}\n" + _lines(
            self.mant[None, :], self.exp10[None, :],
            (np.arange(len(self))[None, :],))

    @staticmethod
    def loads(text: str) -> "RamifiedSeries":
        """Read the `dumps` format; ValueError on malformed text."""
        (kappa, n), cols = _parse_literal(text, 2, 4)
        mant, exp = _parse_cells(cols[1:], n + 1, _parse_index(cols[0], n))
        # mantissas were written normalized; renormalizing could flip
        # entries whose modulus sits within an ulp of the decade boundary
        return RamifiedSeries(kappa, mant, exp, normalized=True)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def load(path) -> "RamifiedSeries":
        with open(path, encoding="utf-8") as fh:
            return RamifiedSeries.loads(fh.read())


class BiSeries:
    """Truncated series sum c_{jn} t^(j/kappa_t) z^(n/kappa_z), dense grid."""

    __slots__ = ("kappa_t", "kappa_z", "mant", "exp10")

    def __init__(self, kappa_t: int, kappa_z: int, mant, exp10,
                 normalized: bool = False):
        mant = np.asarray(mant, dtype=np.complex128)
        exp10 = np.asarray(exp10, dtype=np.int64)
        if mant.shape != exp10.shape or mant.ndim != 2:
            raise ValueError("need matching 2-D mantissa/exponent matrices")
        if not normalized:
            m, e = K.normalize(mant.ravel(), exp10.ravel())
            mant, exp10 = m.reshape(mant.shape), e.reshape(exp10.shape)
        mant.setflags(write=False)
        exp10.setflags(write=False)
        self.kappa_t = int(kappa_t)
        self.kappa_z = int(kappa_z)
        self.mant = mant
        self.exp10 = exp10

    @property
    def trunc_t(self) -> int:
        return self.mant.shape[0] - 1

    @property
    def trunc_z(self) -> int:
        return self.mant.shape[1] - 1

    @staticmethod
    def from_complex(kappa_t: int, kappa_z: int, coeffs) -> "BiSeries":
        c = np.asarray(coeffs, dtype=np.complex128)
        return BiSeries(kappa_t, kappa_z, c, np.zeros(c.shape, dtype=np.int64))

    def extract_row(self, j: int) -> RamifiedSeries:
        return RamifiedSeries(self.kappa_z, self.mant[j], self.exp10[j],
                              normalized=True)

    def extract_col(self, n: int) -> RamifiedSeries:
        return RamifiedSeries(self.kappa_t, self.mant[:, n], self.exp10[:, n],
                              normalized=True)

    def coeff(self, j: int, n: int) -> ScaledComplex:
        return ScaledComplex(complex(self.mant[j, n]), int(self.exp10[j, n]))

    def eval(self, t: complex, z: complex, branch_t: int = 0,
             branch_z: int = 0) -> complex:
        """Each row summed at z^(1/kappa_z), then the row values at
        t^(1/kappa_t)."""
        wz = _root(z, self.kappa_z, branch_z)
        wt = _root(t, self.kappa_t, branch_t)
        rm, re = K.eval_scaled(self.mant, self.exp10, wz.mantissa, wz.exp10)
        return complex(K.to_complex(*K.eval_scaled(rm, re, wt.mantissa,
                                                   wt.exp10))[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiSeries)
                and self.kappa_t == other.kappa_t
                and self.kappa_z == other.kappa_z
                and np.array_equal(self.mant, other.mant)
                and np.array_equal(self.exp10, other.exp10))

    def truncate_to(self, trunc_t: int, trunc_z: int) -> "BiSeries":
        return BiSeries(self.kappa_t, self.kappa_z,
                        self.mant[:trunc_t + 1, :trunc_z + 1],
                        self.exp10[:trunc_t + 1, :trunc_z + 1],
                        normalized=True)

    def dumps(self) -> str:
        """Grid literal format: header 'kappa_t kappa_z trunc_t trunc_z',
        lines 'j n re im exp10' in row-major order."""
        rows, cols = self.mant.shape
        return (f"{self.kappa_t} {self.kappa_z} {self.trunc_t} "
                f"{self.trunc_z}\n" + _lines(
                    self.mant, self.exp10,
                    (np.arange(rows)[:, None], np.arange(cols)[None, :])))

    @staticmethod
    def loads(text: str) -> "BiSeries":
        """Read the `dumps` format; ValueError on malformed text."""
        (kt, kz, nt, nz), cols = _parse_literal(text, 4, 5)
        where = (_parse_index(cols[0], nt), _parse_index(cols[1], nz))
        mant, exp = _parse_cells(cols[2:], (nt + 1, nz + 1), where)
        return BiSeries(kt, kz, mant, exp, normalized=True)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def load(path) -> "BiSeries":
        with open(path, encoding="utf-8") as fh:
            return BiSeries.loads(fh.read())
