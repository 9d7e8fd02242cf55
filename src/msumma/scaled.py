"""Decimal-scaled complex scalars.

A ScaledComplex stores value = mantissa * 10**exp10 with |mantissa| in
[1, 10] (10 only by one rounding; see `_kernels`) or exactly 0.  Solution
coefficients grow like Gamma(1+sigma*j) and leave double range near j ~ 85
for sigma = 2; this representation keeps truncation orders of several
hundred feasible without arbitrary precision.
Every operation runs on the array kernels of `_kernels` with one-entry
arrays, so a scalar and an array entry share the one normalization rule.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K


def _scaled(kernel, *scalars) -> "ScaledComplex":
    """kernel(*scalars), run on one-entry arrays, as a ScaledComplex."""
    m, e = kernel(*([x] for x in scalars))
    return ScaledComplex(complex(m[0]), int(e[0]))


def _pair(x) -> tuple:
    """(mantissa, exp10) of a ScaledComplex or of a plain number."""
    if isinstance(x, ScaledComplex):
        return x.mantissa, x.exp10
    return complex(x), 0


def from_log10_array(log10_mag):
    """Scaled array (mant, exp10) of 10**L for an array of decimal logs L.

    Entry by entry this equals ScaledComplex.from_log10(L) bit for bit.  The
    mantissa uses Python's float power (libm pow) per entry on purpose:
    numpy's vectorized power differs from it by an ulp on some inputs.
    """
    log10_mag = np.asarray(log10_mag, dtype=np.float64)
    if not np.all(np.isfinite(log10_mag)):
        raise ValueError("decimal log-magnitudes must be finite")
    e = np.floor(log10_mag)
    m = np.fromiter((10.0 ** x for x in (log10_mag - e).ravel().tolist()),
                    np.complex128, log10_mag.size).reshape(log10_mag.shape)
    return K.normalize(m, e.astype(np.int64))


@dataclass(frozen=True)
class ScaledComplex:
    mantissa: complex
    exp10: int

    @staticmethod
    def from_complex(z: complex) -> "ScaledComplex":
        return _scaled(K.normalize, complex(z), 0)

    @staticmethod
    def from_log10(log10_mag: float, phase: float = 0.0) -> "ScaledComplex":
        """Build from a decimal log-magnitude and a phase angle."""
        e = int(math.floor(log10_mag))
        m = 10.0 ** (log10_mag - e) * cmath.exp(1j * phase)
        return _scaled(K.normalize, m, e)

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(0j, 0)

    def __bool__(self) -> bool:
        return self.mantissa != 0

    def __add__(self, other: "ScaledComplex") -> "ScaledComplex":
        return _scaled(K.add, self.mantissa, self.exp10,
                       other.mantissa, other.exp10)

    def __neg__(self) -> "ScaledComplex":
        return ScaledComplex(-self.mantissa, self.exp10 if self.mantissa != 0 else 0)

    def __sub__(self, other: "ScaledComplex") -> "ScaledComplex":
        return self + (-other)

    def __mul__(self, other):
        return _scaled(K.mul, self.mantissa, self.exp10, *_pair(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        m, e = _pair(other)
        return _scaled(K.normalize, self.mantissa / m, self.exp10 - e)

    def conjugate(self) -> "ScaledComplex":
        return ScaledComplex(self.mantissa.conjugate(), self.exp10)

    def abs(self) -> "ScaledComplex":
        return ScaledComplex(abs(self.mantissa), self.exp10)

    def log10_abs(self) -> float:
        """Decimal log of the magnitude; -inf for zero."""
        if self.mantissa == 0:
            return float("-inf")
        return math.log10(abs(self.mantissa)) + self.exp10

    def phase(self) -> float:
        return cmath.phase(self.mantissa)

    def to_complex(self) -> complex:
        """Convert to a plain complex; overflows to inf past ~1e308
        (`_kernels.to_complex`)."""
        return complex(K.to_complex([self.mantissa], [self.exp10])[0])

    def is_finite(self) -> bool:
        return math.isfinite(abs(self.mantissa))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScaledComplex({self.mantissa!r}e{self.exp10:+d})"
