"""Truncated ramified formal power series in one and two variables.

Coefficients are stored in decimal-scaled form (mantissa array + exponent
array, see msumma.scaled); all arithmetic goes through the array kernels of
msumma._kernels.

A RamifiedSeries with ramification kappa and truncation N represents
sum_{j=0..N} c_j x^(j/kappa).  Binary operations follow the min-rule for
truncations: coefficients beyond the shorter operand are unknown, never
fabricated by zero padding.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import KappaMismatchError
from .scaled import ScaledComplex


class DivergentPartialSumWarning(UserWarning):
    """Partial sums appear to diverge at the requested radius."""


def _reprs(a: np.ndarray) -> np.ndarray:
    """Object array of repr(x) for every entry x of a float64/int64 array.

    repr runs once per distinct bit pattern (so -0.0 and 0.0 stay apart);
    grids repeat many values, e.g. an all-zero imaginary part.
    """
    keys = a.view(np.int64) if a.dtype == np.float64 else a
    uniq, inv = np.unique(keys.ravel(), return_inverse=True)
    strs = np.array(list(map(repr, uniq.view(a.dtype).tolist())), dtype=object)
    return strs[inv].reshape(a.shape)


def _line_parts(mids) -> list:
    """Reusable parts of one text line per entry of `mids`:
    [lead, mid, re, " ", im, " ", exp10, "\n"]; the caller fills the lead,
    re, im and exp10 slots (0, 2, 4, 6) by slice assignment."""
    parts = [" "] * (8 * len(mids))
    parts[1::8] = mids
    parts[7::8] = ["\n"] * len(mids)
    return parts


class RamifiedSeries:
    """Truncated series sum c_j x^(j/kappa), scaled complex coefficients."""

    # _pade_memo: Pade approximants of this series by (M, L) and its
    # numerical type under "type", filled by pade.diagonal_pade, and its
    # stable pole clusters under ("stable_poles", N), filled by
    # pade.stable_poles; it lives and dies with the (read-only) series.
    __slots__ = ("kappa", "mant", "exp10", "_pade_memo")

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

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_complex(kappa: int, coeffs) -> "RamifiedSeries":
        c = np.asarray(list(coeffs), dtype=np.complex128)
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
        return np.array([self.coeff_complex(j) for j in range(len(self))])

    def log10_abs(self) -> np.ndarray:
        """Decimal log-magnitudes of the coefficients (-inf for zeros)."""
        out = np.full(len(self), -np.inf)
        nz = self.mant != 0
        out[nz] = np.log10(np.abs(self.mant[nz])) + self.exp10[nz]
        return out

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

    # -- evaluation and norms -------------------------------------------

    def _root(self, x: complex, branch: int) -> ScaledComplex:
        """x^(1/kappa), principal branch rotated by 2*pi*branch/kappa."""
        x = complex(x)
        if x == 0:
            return ScaledComplex.zero()
        w = cmath.exp(cmath.log(x) / self.kappa)
        w *= cmath.exp(2j * math.pi * (branch % self.kappa) / self.kappa)
        return ScaledComplex.from_complex(w)

    def eval_scaled(self, x: complex, branch: int = 0) -> ScaledComplex:
        if complex(x) == 0:
            return self[0] if len(self) else ScaledComplex.zero()
        w = self._root(x, branch)
        m, e = K.eval_scaled(self.mant, self.exp10, w.mantissa, w.exp10)
        return ScaledComplex(m, e)

    def eval(self, x: complex, branch: int = 0) -> complex:
        return self.eval_scaled(x, branch).to_complex()

    def __call__(self, x: complex, branch: int = 0) -> complex:
        return self.eval(x, branch)

    def tail_ratio(self, r: float) -> float:
        """Crude growth ratio of consecutive terms at radius r (last quarter)."""
        logs = self.log10_abs() + np.arange(len(self)) * math.log10(r) / self.kappa
        logs = logs[np.isfinite(logs)]
        if len(logs) < 4:
            return 0.0
        tail = logs[-max(4, len(logs) // 4):]
        d = np.diff(tail)
        return float(10.0 ** np.median(d))

    def sup_norm_on_circle(self, r: float, samples: int = 64) -> float:
        """max |series(x)| over equispaced x on |x| = r (all kappa branches)."""
        if self.tail_ratio(r) > 1.0:
            warnings.warn(
                f"partial sums look divergent at r={r}",
                DivergentPartialSumWarning, stacklevel=2)
        best = -math.inf
        for br in range(self.kappa):
            for mth in range(samples):
                x = r * cmath.exp(2j * math.pi * mth / samples)
                v = self.eval_scaled(x, branch=br).log10_abs()
                best = max(best, v)
        return 10.0 ** best if math.isfinite(best) else 0.0

    # -- persistence ----------------------------------------------------

    def dumps(self) -> str:
        """Series literal format: header 'kappa N', lines 'j re im exp10'."""
        n = len(self)
        parts = _line_parts([" "] * n)
        parts[0::8] = map(str, range(n))
        parts[2::8] = _reprs(self.mant.real).tolist()
        parts[4::8] = _reprs(self.mant.imag).tolist()
        parts[6::8] = _reprs(self.exp10).tolist()
        return f"{self.kappa} {self.trunc}\n" + "".join(parts)

    @staticmethod
    def loads(text: str) -> "RamifiedSeries":
        rows = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
        kappa, n = int(rows[0][0]), int(rows[0][1])
        mant = np.zeros(n + 1, dtype=np.complex128)
        exp = np.zeros(n + 1, dtype=np.int64)
        for row in rows[1:]:
            j = int(row[0])
            mant[j] = complex(float(row[1]), float(row[2]))
            exp[j] = int(row[3])
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

    @staticmethod
    def from_rows(kappa_t: int, rows) -> "BiSeries":
        """Row j is the z-series coefficient of t^(j/kappa_t)."""
        rows = list(rows)
        kz = rows[0].kappa
        n = min(len(r) for r in rows)
        if any(r.kappa != kz for r in rows):
            raise KappaMismatchError("rows disagree on kappa")
        mant = np.stack([r.mant[:n] for r in rows])
        exp = np.stack([r.exp10[:n] for r in rows])
        return BiSeries(kappa_t, kz, mant, exp, normalized=True)

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
        t = complex(t)
        if t == 0:
            return self.extract_row(0).eval(z, branch_z)
        w = cmath.exp(cmath.log(t) / self.kappa_t)
        w *= cmath.exp(2j * math.pi * (branch_t % self.kappa_t) / self.kappa_t)
        tp = ScaledComplex.from_complex(1.0)
        wsc = ScaledComplex.from_complex(w)
        total = ScaledComplex.zero()
        for j in range(self.mant.shape[0]):
            row = self.extract_row(j).eval_scaled(z, branch_z)
            if row:
                total = total + row * tp
            tp = tp * wsc
        return total.to_complex()

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
        re, im, e = (_reprs(self.mant.real), _reprs(self.mant.imag),
                     _reprs(self.exp10))
        rows, cols = self.mant.shape
        parts = _line_parts([f" {n} " for n in range(cols)])
        # one row at a time: a whole-grid list of strings would raise
        # peak memory
        text = [f"{self.kappa_t} {self.kappa_z} {self.trunc_t} {self.trunc_z}\n"]
        for j in range(rows):
            parts[0::8] = [str(j)] * cols
            parts[2::8] = re[j].tolist()
            parts[4::8] = im[j].tolist()
            parts[6::8] = e[j].tolist()
            text.append("".join(parts))
        return "".join(text)

    @staticmethod
    def loads(text: str) -> "BiSeries":
        rows = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
        kt, kz, nt, nz = (int(v) for v in rows[0])
        mant = np.zeros((nt + 1, nz + 1), dtype=np.complex128)
        exp = np.zeros((nt + 1, nz + 1), dtype=np.int64)
        for row in rows[1:]:
            j, n = int(row[0]), int(row[1])
            mant[j, n] = complex(float(row[2]), float(row[3]))
            exp[j, n] = int(row[4])
        return BiSeries(kt, kz, mant, exp, normalized=True)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def load(path) -> "BiSeries":
        with open(path, encoding="utf-8") as fh:
            return BiSeries.loads(fh.read())


@dataclass(frozen=True)
class GevreyNorm:
    """Sup of |B_{Gamma_s} phi| on |z| = r (the G_{s,1/kappa}(r) norm)."""

    radius: float
    value: float
    diverging: bool = False


def gevrey_norm(phi: RamifiedSeries, s, r: float, samples: int = 64) -> GevreyNorm:
    from .moments import MomentFunction
    from .operators import borel

    b = borel(MomentFunction.gamma(s), phi)
    diverging = b.tail_ratio(r) > 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergentPartialSumWarning)
        val = b.sup_norm_on_circle(r, samples)
    return GevreyNorm(radius=r, value=val, diverging=diverging)
