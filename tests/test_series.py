import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msumma as ms
from msumma import BiSeries, RamifiedSeries
from msumma.series import _exact_digits, _float_table
from msumma.solver import required_z_truncation

from conftest import random_series

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    min_size=1, max_size=30)


def test_construction_and_indexing():
    a = RamifiedSeries.from_complex(2, [1.0, 2.0, 3.0])
    assert a.kappa == 2
    assert a.trunc == 2
    assert len(a) == 3
    assert a[1].to_complex() == 2.0
    assert a.coeff_complex(2) == 3.0


def test_eval_polynomial():
    a = RamifiedSeries.from_complex(1, [1.0, 2.0, 3.0])
    x = 0.5
    assert abs(a(x) - (1 + 2 * x + 3 * x * x)) < 1e-14


def test_eval_ramified_branches():
    # sum z^(j/2): branch 1 flips the sign of the square root
    a = RamifiedSeries.from_complex(2, [0.0, 1.0])
    z = 4.0
    assert abs(a(z, branch=0) - 2.0) < 1e-12
    assert abs(a(z, branch=1) + 2.0) < 1e-12


def test_arithmetic():
    a = RamifiedSeries.from_complex(1, [1.0, 2.0])
    b = RamifiedSeries.from_complex(1, [3.0, -1.0])
    s = a + b
    assert s.coeff_complex(0) == 4.0
    assert (a - b).coeff_complex(1) == 3.0
    assert a.scale(2.0).coeff_complex(1) == 4.0
    assert (-a).coeff_complex(0) == -1.0


def test_kappa_mismatch():
    a = RamifiedSeries.from_complex(1, [1.0])
    b = RamifiedSeries.from_complex(2, [1.0])
    with pytest.raises(ms.KappaMismatchError):
        _ = a + b


def test_min_rule_truncation():
    a = RamifiedSeries.from_complex(1, [1.0, 1.0, 1.0, 1.0])
    b = RamifiedSeries.from_complex(1, [1.0, 1.0])
    assert (a + b).trunc == 1


def test_huge_coefficients_roundtrip():
    # Gamma(1+2j) blows past double range near j = 86
    m = ms.MomentFunction.gamma(2)
    vals = [m.eval_scaled(float(j)) for j in range(150)]
    a = RamifiedSeries.from_scaled(1, vals)
    assert a.is_finite()
    assert abs(a[140].log10_abs() -
               m.log_eval(140.0) * math.log10(math.e)) < 1e-9


def test_log10_abs_is_computed_once_and_read_only(rng):
    mant = rng.normal(size=60) + 1j * rng.normal(size=60)
    mant[[0, 5, 17]] = 0
    a = RamifiedSeries(1, mant, rng.integers(-400, 400, 60))
    logs = a.log10_abs()
    want = np.full(60, -np.inf)
    nz = a.mant != 0
    want[nz] = np.log10(np.abs(a.mant[nz])) + a.exp10[nz]
    assert logs.tobytes() == want.tobytes()
    assert not logs.flags.writeable
    with pytest.raises(ValueError):
        logs[0] = 0.0
    assert a.log10_abs() is logs
    # the slope shared by the ratio radius and the Pade rescaling is the
    # one of this array, and neither fills the series' Pade memo
    assert a.geometric_slope() == ms.pade.geometric_slope(logs)
    ms.pade.ratio_radius(a)
    ms.estimate_gevrey(a)
    assert a._pade_memo is None
    assert a.log10_abs() is logs


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_dumps_loads_roundtrip(coeffs):
    a = RamifiedSeries.from_complex(1, coeffs)
    b = RamifiedSeries.loads(a.dumps())
    assert a == b


def test_serialized_form_is_plain_text():
    a = RamifiedSeries.from_complex(1, np.array([1.0, -2.0]))
    text = a.dumps()
    assert "np." not in text
    assert text.splitlines()[0] == "1 1"


def test_series_save_load_roundtrip(tmp_path, rng):
    # exponents past the double range
    a = (RamifiedSeries.from_complex(3, rng.normal(size=9) + 1j)
         * ms.ScaledComplex.from_log10(700.0))
    path = tmp_path / "a.series"
    a.save(path)
    assert RamifiedSeries.load(path) == a


def test_biseries_roundtrip(tmp_path, rng):
    u = BiSeries.from_complex(1, 2, rng.normal(size=(4, 7)))
    path = tmp_path / "u.biseries"
    u.save(path)
    v = BiSeries.load(path)
    assert u == v
    assert "np." not in u.dumps()


def test_biseries_rows_cols():
    u = BiSeries.from_complex(1, 1, [[1.0, 2.0], [3.0, 4.0]])
    assert u.extract_row(1).coeff_complex(0) == 3.0
    assert u.extract_col(1).coeff_complex(1) == 4.0
    assert u.coeff(0, 1).to_complex() == 2.0


def test_biseries_eval():
    u = BiSeries.from_complex(1, 1, [[1.0, 2.0], [3.0, 4.0]])
    t, z = 0.1, 0.2
    expect = 1 + 2 * z + 3 * t + 4 * t * z
    assert abs(u.eval(t, z) - expect) < 1e-14


def test_series_product():
    a = RamifiedSeries.from_complex(1, [1.0, 1.0, 1.0])
    b = RamifiedSeries.from_complex(1, [1.0, -1.0])
    p = a * b
    # (1+x+x^2)(1-x) = 1 - x^3, truncated at min length
    assert abs(p.coeff_complex(0) - 1.0) < 1e-15
    assert abs(p.coeff_complex(1)) < 1e-15


# -- text format, pinned against the per-cell formatter ----------------------

DATA = Path(__file__).parent / "data"


def percell_dumps(s):
    """Reference formatter: one f-string and two float reprs per cell."""
    if isinstance(s, RamifiedSeries):
        lines = [f"{s.kappa} {s.trunc}"]
        lines += [f"{j} {re!r} {im!r} {e}" for j, (re, im, e) in enumerate(
            zip(s.mant.real.tolist(), s.mant.imag.tolist(),
                s.exp10.tolist()))]
        return "\n".join(lines) + "\n"
    lines = [f"{s.kappa_t} {s.kappa_z} {s.trunc_t} {s.trunc_z}"]
    for j, row in enumerate(s.mant):
        lines += [f"{j} {n} {re!r} {im!r} {e}" for n, (re, im, e) in
                  enumerate(zip(row.real.tolist(), row.imag.tolist(),
                                s.exp10[j].tolist()))]
    return "\n".join(lines) + "\n"


def solved(name, trunc_t, width=201):
    """tests/data/<name>.mpde solved at trunc_t with `width` output columns."""
    text = (DATA / f"{name}.mpde").read_text(encoding="utf-8")
    pf = ms.parse_problem(text)
    need = required_z_truncation(pf.equation, pf.kappa, trunc_t)
    text = re.sub(r"(?m)^trunc_t:.*$", f"trunc_t: {trunc_t};", text)
    text = re.sub(r"(?m)^trunc_z:.*$", f"trunc_z: {need + width - 1};", text)
    return ms.solve_constant_leading(ms.parse_problem(text).to_problem())


def nan_with(sign, payload):
    bits = (sign << 63) | (0x7FF << 52) | payload
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


SPECIALS = np.array([0.0, -0.0, nan_with(0, 1 << 51), nan_with(1, 1 << 51),
                     nan_with(0, 1), nan_with(1, 12345), np.inf, -np.inf,
                     5e-324, -5e-324, 2.2250738585072014e-308,
                     -1.1125369292536007e-308, 1.0, -9.999999999999998])


def grid(re_part, im_part, exp10, kappa_t=1, kappa_z=2):
    """BiSeries with the given component bits (no complex arithmetic)."""
    mant = np.empty(re_part.shape, dtype=np.complex128)
    mant.real = re_part
    mant.imag = im_part
    return BiSeries(kappa_t, kappa_z, mant, exp10, normalized=True)


def special_grid(rows=50, cols=60, seed=3):
    rng = np.random.default_rng(seed)
    re_part = rng.normal(size=(rows, cols))
    im_part = rng.normal(size=(rows, cols))
    re_part.flat[::3] = np.resize(SPECIALS, re_part.flat[::3].shape)
    im_part.flat[::4] = np.resize(SPECIALS[::-1], im_part.flat[::4].shape)
    exp10 = rng.integers(-10, 10, size=(rows, cols))
    exp10.flat[::5] = np.resize([10**15 - 1, -10**15 + 1, 10**15, -10**15,
                                 2**62, -2**62, 0], exp10.flat[::5].shape)
    return grid(re_part, im_part, exp10)


def signed_zero_grid():
    z = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])
    return grid(z, z[:, ::-1].copy(), np.zeros(z.shape, dtype=np.int64))


# a mantissa with |m| = 10.0, which normalize may return for a modulus within
# one rounding of a power of ten (see _kernels)
TEN_MODULUS = 9.868755360228377 - 1.6148274334936463j


def mixed_grid(rows=40, cols=50, seed=5):
    """Complex mantissas of modulus in [1, 10) at random angles, with real
    short and integer values mixed in: components in [1, 10) (those of
    TEN_MODULUS among them) take the writer's exact path, components in
    (-1, 1) and zeros go through repr."""
    rng = np.random.default_rng(seed)
    mant = rng.uniform(1, 10, (rows, cols)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (rows, cols)))
    mant.flat[::7] = np.round(mant.flat[::7].real, rng.integers(0, 15))
    mant.flat[::11] = rng.choice([1.0, -2.0, 4.0, 8.0, 3.0, -7.0, 0.5],
                                 mant.flat[::11].shape)
    mant[0, 0], mant[0, 1] = TEN_MODULUS, -TEN_MODULUS
    return grid(mant.real.copy(), mant.imag.copy(),
                rng.integers(-300, 300, size=(rows, cols)))


def format_cases():
    rng = np.random.default_rng(11)
    sp = special_grid()
    distinct = grid(rng.normal(size=(30, 40)), rng.normal(size=(30, 40)),
                    rng.integers(-300, 300, size=(30, 40)))
    repeated = grid(rng.choice([1.0, -0.0, 2.5], size=(40, 30)),
                    np.zeros((40, 30)),
                    rng.choice([0, 7], size=(40, 30)))
    mixed = mixed_grid()
    wave, heat = solved("wave", 200), solved("heat", 200)
    return {
        "specials": sp,
        "signed_zeros": signed_zero_grid(),
        "one_cell": grid(np.array([[-0.0]]), np.array([[np.nan]]),
                         np.array([[-10**15]])),
        "empty_series": RamifiedSeries(3, np.zeros(0, dtype=np.complex128),
                                       np.zeros(0, dtype=np.int64),
                                       normalized=True),
        "truncate_to": sp.truncate_to(20, 33),
        "extract_col": sp.extract_col(7),
        "extract_row": sp.extract_row(5),
        "all_distinct": distinct,
        "repeated": repeated,
        "mixed": mixed,
        "mixed_row": mixed.extract_row(3),
        "wave@200": wave,
        "heat@200": heat,
        "wave_col": wave.extract_col(0),
        "heat_view": heat.truncate_to(150, 120),
    }


def test_dumps_matches_percell_formatter():
    for name, s in format_cases().items():
        assert s.dumps() == percell_dumps(s), name


def _bits_equal(a, b):
    """Same mantissa bits and exponents; NaN components compare by isnan."""
    for x, y in ((a.mant.real, b.mant.real), (a.mant.imag, b.mant.imag)):
        nan = np.isnan(x)
        assert np.array_equal(nan, np.isnan(y))
        assert np.array_equal(x.view(np.int64)[~nan], y.view(np.int64)[~nan])
    assert np.array_equal(a.exp10, b.exp10)


def test_dumps_loads_is_bitwise():
    heat, sp = solved("heat", 60, width=41), special_grid()
    for s in (heat, signed_zero_grid(), sp, heat.extract_col(3),
              sp.extract_row(2)):
        back = type(s).loads(s.dumps())
        assert back.mant.shape == s.mant.shape
        _bits_equal(s, back)


def test_dumps_loads_round_trips_a_wide_grid():
    wave = solved("wave", 200)
    assert wave.mant.shape == (201, 201)
    back = BiSeries.loads(wave.dumps())
    _bits_equal(wave, back)
    assert back.dumps() == wave.dumps()


def test_loads_reads_lines_in_any_order_and_skips_blank_lines():
    s = RamifiedSeries.from_complex(2, [1.0, -2.5j, 0.0, 3.0 + 4.0j])
    head, *lines = s.dumps().splitlines()
    text = "\n\n".join([head, *lines[::-1]]) + "\n   \n"
    _bits_equal(s, RamifiedSeries.loads(text))


@pytest.mark.parametrize("text", [
    "", "\n  \n", "1\n0 1.0 0.0 0\n", "1 1 7\n0 1.0 0.0 0\n",
    "1 1\n0 1.0 0.0\n", "1 1\n0 1.0 0.0 0 0\n", "1 1\n0 1.0 0.0\n1 2.0\n",
    "1 1\n2 1.0 0.0 0\n", "1 1\n-1 1.0 0.0 0\n", "1 1\n0 x 0.0 0\n",
    "1 1\n0 1.0 0.0 0.5\n", "a 1\n0 1.0 0.0 0\n",
])
def test_series_loads_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        RamifiedSeries.loads(text)


@pytest.mark.parametrize("text", [
    "", "1 1 1\n", "1 1 1 1 1\n0 0 1.0 0.0 0\n",
    "1 1 1 1\n0 0 1.0 0.0\n", "1 1 1 1\n0 2 1.0 0.0 0\n",
    "1 1 1 1\n2 0 1.0 0.0 0\n", "1 1 1 1\n0 0 1.0 nope 0\n",
])
def test_grid_loads_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        BiSeries.loads(text)


# -- the writer's float rows, pinned against repr ----------------------------


def assert_reprs(x):
    """The writer's float rows for x equal repr entry by entry; returns how
    many distinct values its exact path formatted."""
    x = np.asarray(x, dtype=np.float64)
    table, index = _float_table(x, " ")
    rows = [row.replace(b"\0", b"").decode("ascii")[:-1]
            for row in table.tolist()]
    assert [rows[k] for k in index.ravel()] == [repr(v) for v in x.tolist()]
    _, exact = _exact_digits(np.unique(x.view(np.int64)).view(np.float64))
    return int(exact.sum())


@given(st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=1.0, max_value=10.0,
                                    exclude_max=True)), min_size=1))
@settings(max_examples=200, deadline=None)
def test_float_rows_match_repr_hypothesis(signed):
    assert_reprs([-v if neg else v for neg, v in signed])


def test_float_rows_match_repr_on_random_bits():
    rng = np.random.default_rng(14)
    n = 200_000
    bits = rng.integers(np.float64(1.0).view(np.int64),
                        np.float64(10.0).view(np.int64), n)
    x = bits.view(np.float64) * rng.choice([-1.0, 1.0], n)
    # all but the near-ties take the exact path
    assert assert_reprs(x) >= len(np.unique(x)) - 10


def test_float_rows_match_repr_on_boundaries():
    rng = np.random.default_rng(15)
    x = rng.uniform(1, 10, 3000)
    nearest = [np.array([float(f"{v:.{d}f}") for v in x.tolist()])
               for d in (14, 15, 16)]  # 15, 16 and 17 digits
    family = [v for z in nearest
              for v in (z, np.nextafter(z, 0.0), np.nextafter(z, 20.0))]
    short = np.array([float(f"{v:.{d - 1}f}") for v in x.tolist()
                      for d in range(1, 16)])
    digits = {len(repr(v).replace(".", "").rstrip("0"))
              for v in short.tolist()}
    assert digits == set(range(1, 16))
    pinned = np.array([1.0, 2.0, 4.0, 8.0, 1.0000000000000002,
                       9.999999999999998, 3.0, 9.0, 2.5])
    values = np.concatenate(family + [short, pinned])
    assert assert_reprs(np.concatenate((values, -values))) > 0.99 * 2 * len(
        np.unique(values))


@pytest.mark.parametrize("fill", [[0.0], [-0.0], [0.0, -0.0], [np.nan]],
                         ids=["zero", "negative zero", "mixed zeros", "nan"])
def test_constant_fields_skip_the_sort(fill, monkeypatch):
    # the imaginary field of a 4x5 grid; a field with one bit pattern takes
    # a one-row table and no np.unique call, mixed +-0.0 keeps two rows
    im = np.resize(np.array(fill), (4, 5))
    re_part = np.arange(20.0).reshape(4, 5) + 1.5
    s = grid(re_part, im, np.zeros((4, 5), dtype=np.int64))
    expected = percell_dumps(s)
    calls = []
    unique = np.unique

    def counting(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    table, index = _float_table(s.mant.imag, " ")
    assert len(table) == len(fill) and index.shape == (4, 5)
    assert len(calls) == (len(fill) > 1)
    assert_reprs(s.mant.imag.ravel())
    calls.clear()
    assert s.dumps() == expected
    assert len(calls) == 1 + (len(fill) > 1)  # the real field sorts
