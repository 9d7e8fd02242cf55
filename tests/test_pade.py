import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import msumma as ms
from msumma import RamifiedSeries
from msumma import pade
from msumma.pade import (_scaled_coeffs, _solve_pade, diagonal_pade,
                         geometric_slope, ratio_radius, stable_poles)


def series(c):
    """The coefficients c as an unramified RamifiedSeries."""
    return RamifiedSeries.from_complex(1, c)


def test_geometric_pole_located():
    # 1/(1 - 4x): single pole at 0.25
    a = series([4.0**j for j in range(40)])
    poles = stable_poles(a)
    assert poles
    loc, rad = poles[0]
    assert abs(loc - 0.25) < 1e-3


def two_pole_coeffs(n):
    # 1/((1-x)(1+2x)) = sum c_j x^j
    return np.array([(1.0 - (-2.0) ** (j + 1)) / 3.0 for j in range(n)])


def test_two_pole_function():
    poles = stable_poles(series(two_pole_coeffs(40)))
    locs = sorted((p for p, _ in poles), key=abs)
    assert abs(locs[0] + 0.5) < 1e-6
    assert abs(locs[1] - 1.0) < 1e-6


def test_sqrt_branch_point_modulus():
    # 1/sqrt(1 - 4x): branch point at 0.25 shows up as the nearest pole of
    # a pole string along the cut
    c = series([math.comb(2 * j, j) for j in range(40)])
    poles = stable_poles(c)
    assert poles
    assert abs(poles[0][0] - 0.25) < 1e-3
    # cut direction: the string continues on the positive real axis
    if len(poles) > 1:
        assert poles[1][0].real > 0.25
        assert abs(poles[1][0].imag) < 0.05


def test_rescaling_extreme_radius():
    # radius 1e-8: raw Pade would be hopeless without coefficient rescaling
    r = 1e-8
    a = series([(1.0 / r) ** j for j in range(30)])
    poles = stable_poles(a)
    assert poles
    assert abs(poles[0][0] - r) < 1e-3 * r


def test_rotation_equivariance():
    # rotating the series variable rotates every pole the same way
    c = np.array([3.0**j for j in range(36)], dtype=complex)
    phase = np.exp(1j * 0.7)
    rotated = c * phase ** np.arange(36)
    p0 = stable_poles(series(c))[0][0]
    p1 = stable_poles(series(rotated))[0][0]
    assert abs(p1 - p0 / phase) < 1e-6 * abs(p0)


def test_rotated_series_keeps_the_complex_path():
    # complex coefficients: the denominator is rooted in complex arithmetic
    # exactly as np.roots does it, and the stable pole is the one this
    # series has always given, e^{-0.7i}/3 to 4e-16
    c = np.array([3.0**j for j in range(36)], dtype=complex)
    rotated = series(c * np.exp(1j * 0.7) ** np.arange(36))
    ap = diagonal_pade(rotated, 18)
    assert ap.den.coeffs.imag.any()
    ref = np.roots(ap.den.coeffs) * ap.r
    assert np.array_equal(ap.poles(), ref[np.argsort(np.abs(ref))])
    p1 = stable_poles(rotated)[0][0]
    known = 0.25494739576149617 - 0.2147392290792305j
    assert abs(p1 - known) <= 1e-12 * abs(known)


def bits(v):
    return np.asarray(v).tobytes()


def mpmath_pade_value(ap, y):
    """num(y) / den(y) of ap at the complex128 point y, in 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        num = [mpmath.mpc(complex(v)) for v in ap.num.coeffs]
        den = [mpmath.mpc(complex(v)) for v in ap.den.coeffs]
        y = mpmath.mpc(complex(y))
        return complex(mpmath.polyval(num, y) / mpmath.polyval(den, y))


def assert_matches_mpmath(ap, x):
    y = np.asarray(x, dtype=np.complex128) / ap.r
    ref = np.polyval(ap.num.coeffs, y) / np.polyval(ap.den.coeffs, y)
    out = ap(x)
    assert type(out) is type(ref)
    assert np.shape(out) == np.shape(ref)
    exact = np.array([mpmath_pade_value(ap, v) for v in np.ravel(y)])
    err = np.abs(np.ravel(out) - exact)
    assert np.all(err <= 1e-14 * np.abs(exact)), np.max(err / np.abs(exact))


@pytest.mark.parametrize("L, M", [(4, 7), (6, 6), (8, 3), (99, 100)])
def test_call_matches_mpmath(L, M):
    # the two-level Horner evaluator keeps np.polyval's result type and
    # shape, and is within 1e-14 relative of a 50-digit evaluation
    if M == 100:
        # heat's Borel sum on laplace_resum's ray d = pi/2 at t = 0.09i
        ap = diagonal_pade(heat_borel_series(200), M)
        points = [1j * np.linspace(0.0, 3.6, 31)[1:]]
    else:
        c = two_pole_coeffs(L + M + 1) * np.exp(0.3j) ** np.arange(L + M + 1)
        c = c + np.array([1.0 / math.factorial(j) for j in range(L + M + 1)])
        ap = diagonal_pade(series(c), M, L)
        points = [0.3 - 0.2j, np.array(0.4),
                  np.linspace(-0.6, 0.6, 12).reshape(3, 4) * (1 + 0.5j),
                  np.zeros(0)]
    assert ap.order == (L, M)
    for x in points:
        assert_matches_mpmath(ap, x)


def test_residues_match_mpmath():
    # |num(y) / den'(y)| at each root, from the two-level Horner evaluator,
    # against 50 digits on heat's [99/100] Borel sum: within 1e-10
    # relative, or, where num or den' has a Horner condition number
    # sum |c_i| |y|^i / |p(y)| above about 1e5 (roots near the branch
    # point, y ~ 1), within 4 eps times the condition number, the accuracy
    # np.polyval has there too
    import mpmath

    ap = diagonal_pade(heat_borel_series(200), 100)
    assert ap.order == (99, 100)
    y, res = ap._roots_residues
    keep = res > 1e-8 * res.max()
    assert 0 < keep.sum() < len(y)
    eps = np.finfo(float).eps
    polys = (ap.num.coeffs, np.polyder(ap.den.coeffs))
    with mpmath.workdps(50):
        polys = [[mpmath.mpc(complex(v)) for v in p] for p in polys]
        for yk, rk in zip(y[keep].tolist(), res[keep].tolist()):
            yk = mpmath.mpc(yk)
            vals = [mpmath.polyval(p, yk) for p in polys]
            cond = sum(mpmath.polyval([abs(c) for c in p], abs(yk)) / abs(v)
                       for p, v in zip(polys, vals))
            exact = abs(vals[0] / vals[1])
            tol = max(1e-10, 4 * eps * cond)
            assert abs(rk - exact) <= tol * exact, (yk, rk, exact, cond)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 40, 41])
def test_geometric_slope_is_np_median(n):
    rng = np.random.default_rng(n)
    logs = np.cumsum(rng.normal(size=n + 1))
    logs[rng.integers(0, n + 1, size=n // 8)] = -np.inf  # zero coefficients
    idx = np.nonzero(np.isfinite(logs))[0]
    d = np.diff(logs[idx]) / np.diff(idx)
    want = float(np.median(d))
    assert bits(pade.geometric_slope(logs)) == bits(want)
    # ties: equal neighbours and an even count of equal middle values
    flat = np.repeat(logs[: (n + 2) // 2], 2)
    idx = np.nonzero(np.isfinite(flat))[0]
    want = float(np.median(np.diff(flat[idx]) / np.diff(idx)))
    assert bits(pade.geometric_slope(flat)) == bits(want)


def test_heat_op_does_not_import_numpy_ma():
    # np.median's first call imports numpy.ma; one heat pipeline op at
    # trunc_t 60 (solve, Gevrey fit, verdicts, dumps, singularities and
    # resummation) must not
    src = str(Path(ms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    heat = Path(__file__).parent / "data" / "heat.mpde"
    code = f"""
import math, re, sys
from pathlib import Path
import msumma as ms
text = Path({str(heat)!r}).read_text()
text = re.sub(r"(?m)^trunc_t:.*$", "trunc_t: 60;", text)
text = re.sub(r"(?m)^trunc_z:.*$", "trunc_z: 130;", text)
prob = ms.dsl.parse_problem(text).to_problem()
u = ms.solve_constant_leading(prob)
diag = u.extract_col(0)
ms.estimate_gevrey(diag)
report = ms.summability_verdict(prob, (0.0, math.pi / 2))
u.dumps(), report.to_json()
bor = ms.borel(ms.GAMMA_1, diag)
ms.borel_singularities(bor)
for t in (0.03j, 0.06j, 0.09j):
    ms.laplace_resum(bor, ms.kernel_pair_for(ms.GAMMA_1), math.pi / 2, t)
print([m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]])
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("coeffs, pole", [
    ([4.0**j for j in range(40)], 0.25),
    (np.ones(40), 1.0),
])
def test_real_series_gives_real_poles(coeffs, pole):
    # real coefficients are rooted in real arithmetic; the M-square
    # denominator solve stays complex (a real one changes which near-singular
    # blocks LAPACK reports) and matches a complex128 solve bit for bit
    a = series(coeffs)
    ap = diagonal_pade(a, 20)
    for p in (ap.poles(), ap.significant_poles()):
        assert p.dtype == np.complex128
        assert not p.imag.any()
    assert abs(ap.poles()[0] - pole) < 1e-12
    d, _ = _scaled_coeffs(a)
    assert d.dtype == np.complex128
    num, den = _solve_pade(d, *ap.order)
    assert ap.num.coeffs.dtype == ap.den.coeffs.dtype == np.complex128
    assert bits(ap.num.coeffs) == bits(num.coeffs)
    assert bits(ap.den.coeffs) == bits(den.coeffs)


def sqrt_series(n, rng):
    """Seeded coefficients of (1 - x)^(-1/2), each perturbed by 1%."""
    c = np.array([math.comb(2 * j, j) / 4.0**j for j in range(n)])
    return c * (1.0 + 0.01 * rng.standard_normal(n))


@pytest.mark.parametrize("M", [10, 30, 60])
def test_solve_matches_mpmath_pade(M):
    import mpmath
    L = M - 1
    c = sqrt_series(L + M + 1, np.random.default_rng(M))
    with mpmath.workdps(80):
        p, q = mpmath.pade([mpmath.mpf(v) for v in c.tolist()], L, M)
    p = np.array([complex(v) for v in p])
    q = np.array([complex(v) for v in q])
    num, den = _solve_pade(c.astype(np.complex128), L, M)
    assert num.order == L and den.order == M
    for got, ref in ((num.coeffs[::-1], p), (den.coeffs[::-1], q)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def full_system_pade(c, L, M):
    """[L/M] from the (L+M+1)-square linearized system, numerator unknowns kept.

    The form scipy.interpolate.pade builds: an identity block for the
    numerator coefficients, then the negated, shifted coefficients
    c_{k-1-j} for the denominator ones.
    """
    n = L + M + 1
    c = c[:n]
    system = np.zeros((n, n), dtype=c.dtype)
    system[:L + 1, :L + 1] = np.eye(L + 1)
    lag = np.arange(n)[:, None] - 1 - np.arange(M)[None, :]
    system[:, L + 1:] = np.where(lag >= 0, -c[np.maximum(lag, 0)], 0.0)
    pq = np.linalg.solve(system, c)
    q = np.concatenate(([1.0], pq[L + 1:]))
    return np.poly1d(pq[:L + 1][::-1]), np.poly1d(q[::-1])


def one_plus_x_over_one_plus_x2(n):
    """Coefficients 1, 1, -1, -1, ... of (1 + x) / (1 + x^2), a [1/2] rational."""
    return np.array([(1.0, 1.0, -1.0, -1.0)[j % 4] for j in range(n)])


@pytest.mark.parametrize("c", [
    np.zeros(30), np.ones(30), 4.0 ** np.arange(30),
    one_plus_x_over_one_plus_x2(30),
], ids=["zero", "ones", "4^j", "[1/2]"])
def test_singular_where_full_system_is(c):
    # the identity columns pivot with zero multipliers, so the full system
    # is exactly singular when its denominator block is
    c = c.astype(np.complex128)
    for M in range(3, 10):
        for L in (M - 1, M):
            for solve in (_solve_pade, full_system_pade):
                with pytest.raises(np.linalg.LinAlgError):
                    solve(c, L, M)


def test_rational_input_is_recovered_at_its_order():
    c = one_plus_x_over_one_plus_x2(4).astype(np.complex128)
    num, den = _solve_pade(c, 1, 2)
    assert np.array_equal(num.coeffs, [1.0, 1.0])
    assert np.array_equal(den.coeffs, [1.0, 0.0, 1.0])


@pytest.mark.parametrize("c, L, M", [
    (sqrt_series(121, np.random.default_rng(1)), 59, 61),
    (np.array([1.0 / math.factorial(j) for j in range(13)]), 6, 6),
    (two_pole_coeffs(40) * np.exp(0.3j) ** np.arange(40)
     + np.array([1.0 / math.factorial(j) for j in range(40)]), 21, 18),
])
def test_values_match_full_system(c, L, M):
    # on the rescaled coefficients diagonal_pade solves, in its variable y
    c, _ = _scaled_coeffs(series(c))
    x = 0.7 * np.linspace(0.0, 1.0, 8)[:, None] * np.exp(
        1j * np.linspace(0.0, 2 * np.pi, 24))[None, :]
    num, den = _solve_pade(c, L, M)
    rnum, rden = full_system_pade(c, L, M)
    ref = rnum(x) / rden(x)
    assert np.abs(num(x) / den(x) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_solve_is_the_m_square_block(monkeypatch):
    shapes = []
    solve = np.linalg.solve

    def spy(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    for L, M in ((9, 10), (12, 5), (0, 7)):
        _solve_pade(sqrt_series(L + M + 1, np.random.default_rng(0))
                    .astype(np.complex128), L, M)
        assert shapes[-1] == (M, M)
    assert len(shapes) == 3


def scaled_coeffs_loop(a):
    """Per-coefficient reference of _scaled_coeffs on a RamifiedSeries."""
    slope = geometric_slope(a.log10_abs())
    out = np.zeros(len(a), dtype=np.complex128)
    for j in range(len(a)):
        c = a[j]
        if c:
            mag = 10.0 ** (c.log10_abs() - slope * j)
            out[j] = mag * c.mantissa / abs(c.mantissa)
    return out, 10.0 ** (-slope)


def pade_ladder_series():
    """The series heat and divergent_data hand to Pade at trunc_t 60..200.

    For each: the Borel transform of u(t, 0) at the problem's level, and
    each Cauchy row as the verdict reads it (Borel transformed at
    gevrey_s when the data diverge); 20 output columns, as in pipebench.
    """
    from msumma.characteristic import newton_polygon_roots, summability_levels
    from msumma.moments import MomentFunction
    from msumma.operators import borel
    from msumma.solver import required_z_truncation

    out = []
    for name in ("heat", "divergent_data"):
        pf = ms.dsl.parse_problem(
            (Path(__file__).parent / "data" / f"{name}.mpde").read_text())
        for trunc_t in (60, 120, 200):
            need = required_z_truncation(pf.equation, pf.kappa, trunc_t)
            prob = dataclasses.replace(pf, trunc_t=trunc_t,
                                       trunc_z=need + 20).to_problem()
            roots = newton_polygon_roots(prob.P)
            (_, K), = summability_levels(roots, prob.m1.order(),
                                         prob.m2.order(), prob.gevrey_s)
            diag = ms.solve_constant_leading(prob).extract_col(0)
            out.append(borel(MomentFunction.gamma(1 / K), diag))
            for phi in prob.data:
                s = prob.gevrey_s
                out.append(borel(MomentFunction.gamma(s), phi) if s else phi)
    return out


def test_scaled_coeffs_matches_per_coefficient_loop():
    # bit for bit, signed zeros included: negation gives the real series
    # imaginary parts of -0.0; one series also has zero coefficients
    series = pade_ladder_series()
    series += [-a for a in series]
    series.append(RamifiedSeries.from_complex(
        1, two_pole_coeffs(30) * np.exp(0.4j) ** np.arange(30)
        * (np.arange(30) % 3 != 1)))
    for a in series:
        d, r = _scaled_coeffs(a)
        d_ref, r_ref = scaled_coeffs_loop(a)
        assert bits(d) == bits(d_ref)
        assert r == r_ref


def test_ratio_radius():
    a = series([2.0**j for j in range(30)])
    assert abs(ratio_radius(a) - 0.5) < 1e-12
    assert ratio_radius(series(np.ones(3))) == 1.0
    assert abs(ratio_radius(series([10.0**-j for j in range(20)]))
               - 10.0) < 1e-9


def test_diagonal_pade_evaluation():
    c = series([1.0 / math.factorial(j) for j in range(12)])
    ap = diagonal_pade(c, 4, 4)
    for x in (0.3, -0.5):
        assert abs(ap(x) - math.exp(x)) < 1e-9
    # [4/4] truncation error of exp at 1 is ~1e-7; only check that scale
    assert abs(ap(1.0) - math.e) < 1e-6


def test_diagonal_pade_needs_enough_coefficients():
    with pytest.raises(ValueError):
        diagonal_pade(series([1.0, 2.0]), 4)
    with pytest.raises(ValueError):
        stable_poles(series(np.ones(5)))


def test_exactly_rational_input_degrades_order():
    # geometric coefficients make the high-order system exactly singular;
    # the solver must fall back to a smaller order, not crash
    a = series(np.ones(40))
    poles = stable_poles(a)
    assert poles
    assert abs(poles[0][0] - 1.0) < 1e-6


def test_geometric_slope_median():
    logs = np.arange(20) * 0.5
    assert abs(geometric_slope(logs) - 0.5) < 1e-14
    assert geometric_slope(np.array([1.0])) == 0.0


@pytest.mark.parametrize("coeffs, M", [
    ([1.0 / math.factorial(j) for j in range(12)], 6),
    (two_pole_coeffs(4) * np.exp(0.7j) ** np.arange(4), 2),
])
def test_pade_matches_scipy_oracle(coeffs, M):
    from scipy.interpolate import pade as scipy_pade
    a = series(coeffs)
    d, _ = _scaled_coeffs(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ap = diagonal_pade(a, M)
        num, den = scipy_pade(d[:2 * M], M, M - 1)
    assert ap.order == (M - 1, M)
    scale = np.abs(d).max()
    assert np.abs(ap.num.coeffs - num.coeffs).max() <= 1e-12 * scale
    assert np.abs(ap.den.coeffs - den.coeffs).max() <= 1e-12 * scale


def test_rank_jump_replaces_step_down(monkeypatch):
    # 1/(1-z) at [209/210]: one singular solve, one SVD, one solve at [0/1]
    counts = {"solve": 0, "svd": 0}
    solve, svd = np.linalg.solve, np.linalg.svd

    def counting_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    ap = diagonal_pade(series(np.ones(421)), 210)
    assert ap.order == (0, 1)
    assert 1 <= counts["solve"] <= 2
    assert counts["svd"] == 1
    assert abs(ap.poles()[0] - 1.0) < 1e-12


def test_numerically_rational_input_lands_on_its_degree():
    # 1/(1-4x): [19/20] is exactly singular, but rounding keeps lower
    # orders off exact singularity, so stepping down one order at a time
    # stops at a spurious [7/8]; the rank jump goes straight to degree 1
    ap = diagonal_pade(series([4.0**j for j in range(40)]), 20)
    assert ap.order == (0, 1)
    poles = ap.poles()
    assert len(poles) == 1
    assert abs(poles[0] - 0.25) < 1e-12


def test_import_loads_no_scipy():
    src = str(Path(ms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, msumma; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# -- approximants and poles kept on the series object -------------------------

def count_solves(monkeypatch):
    calls = []
    solve = pade._solve_pade

    def counting(c, L, M):
        calls.append((L, M))
        return solve(c, L, M)

    monkeypatch.setattr(pade, "_solve_pade", counting)
    return calls


def fresh_copy(a):
    return RamifiedSeries(a.kappa, a.mant.copy(), a.exp10.copy(),
                          normalized=True)


def test_returned_poles_are_copies():
    a = RamifiedSeries.from_complex(1, two_pole_coeffs(40))
    ap = diagonal_pade(a, 20)
    sig, allp = ap.significant_poles(), ap.poles()
    sig_before, all_before = sig.copy(), allp.copy()
    sig[:] = 0.0
    allp[:] = 0.0
    assert np.array_equal(ap.significant_poles(), sig_before)
    assert np.array_equal(ap.poles(), all_before)
    assert np.array_equal(diagonal_pade(a, 20).significant_poles(),
                          sig_before)
    with pytest.raises(ValueError):
        ap.den.coeffs[0] = 0.0

    poles = stable_poles(a)
    before = list(poles)
    poles[0] = (0j, 0.0)
    poles.append((1j, 1.0))
    assert stable_poles(a) == before


def test_memo_is_per_series_object(monkeypatch):
    calls = count_solves(monkeypatch)
    a = RamifiedSeries.from_complex(1, two_pole_coeffs(40))
    ap = diagonal_pade(a, 20)
    assert diagonal_pade(a, 20) is ap
    assert diagonal_pade(a, 20, 19) is ap  # L defaults to M - 1
    assert len(calls) == 1
    b = fresh_copy(a)
    assert b == a
    bp = diagonal_pade(b, 20)
    assert bp is not ap
    assert len(calls) == 2
    assert np.array_equal(bp.significant_poles(), ap.significant_poles())


def test_failures_are_not_kept(monkeypatch):
    calls = count_solves(monkeypatch)
    a = RamifiedSeries.zero(1, 20)  # every order of the system is singular
    with pytest.raises(np.linalg.LinAlgError):
        diagonal_pade(a, 5)
    first = list(calls)
    with pytest.raises(np.linalg.LinAlgError):
        diagonal_pade(a, 5)
    assert first and calls == first + first
    short = RamifiedSeries.from_complex(1, np.ones(6))
    for _ in range(2):
        with pytest.raises(ValueError):
            diagonal_pade(short, 4)
    assert not short._pade_memo


# -- numerical type: one SVD, a verified [lam/rho] ----------------------------

def count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def noisy_geometric(base, n, seed):
    """base^j (1 + 1e-15 N(0, 1)): 1/(1 - base x) with rounding-level noise."""
    rng = np.random.default_rng(seed)
    return base ** np.arange(n) * (1.0 + 1e-15 * rng.standard_normal(n))


@pytest.mark.parametrize("base, n", [(1.0, 421), (4.0, 40), (4.0, 421)])
def test_noisy_rational_input_lands_on_its_type(base, n, monkeypatch):
    # the noise keeps every block off exact singularity, so no solve ever
    # fails; the verified type is [0/1] all the same
    degrees = []
    np_roots = np.roots

    def spy(p):
        degrees.append(len(p) - 1)
        return np_roots(p)

    monkeypatch.setattr(np, "roots", spy)
    for seed in range(3):
        c = series(noisy_geometric(base, n, seed))
        ap = diagonal_pade(c, n // 2)
        assert ap.order == (0, 1)
        assert abs(ap.poles()[0] - 1.0 / base) < 1e-12
        (loc, _), = stable_poles(c)
        assert abs(loc - 1.0 / base) < 1e-12
    assert degrees and max(degrees) == 1


def heat_borel_series(trunc_t):
    """Level-1 Borel transform of heat's u(t, 0) with data 1/(1-z)."""
    from msumma.operators import borel
    from msumma.solver import required_z_truncation

    L, Z = ms.CharPolynomial.lam(), ms.CharPolynomial.zeta()
    P = L - Z ** 2
    nz = required_z_truncation(P, 1, trunc_t) + 1
    prob = ms.PdeProblem(P=P, m1=ms.GAMMA_1, m2=ms.GAMMA_1,
                         data=(RamifiedSeries.from_complex(1, np.ones(nz)),),
                         trunc_t=trunc_t)
    return borel(ms.GAMMA_1,
                 ms.solve_constant_leading(prob).extract_col(0))


@pytest.mark.parametrize("make, ranked", [
    (lambda: RamifiedSeries.from_complex(1, np.ones(141)), [(8, 9)]),
    (lambda: RamifiedSeries.from_complex(1, noisy_geometric(4.0, 81, 0)),
     [(8, 9)]),
    (lambda: heat_borel_series(60), [(8, 9), (30, 31)]),
    (lambda: RamifiedSeries.from_complex(1, ring_pole_coeffs(12, 121, 0)),
     [(8, 9), (32, 33)]),
], ids=["ones", "noisy 4^j", "heat", "12 poles"])
def test_one_svd_per_series(make, ranked, monkeypatch):
    # a rational series is ranked only on the leading block that certifies
    # its type; any other takes one full-size SVD, after smaller leading
    # ones; later requests take no further SVD
    a = make()
    svds = count_svds(monkeypatch)
    poles = stable_poles(a)
    assert poles
    assert svds == ranked
    m = len(a) // 2
    assert svds.count((m, m + 1)) == (a._pade_memo["type"].rational is None)
    diagonal_pade(a, m)  # laplace_resum's request
    stable_poles(a)
    assert svds == ranked


def test_verified_type_answers_every_larger_request(monkeypatch):
    a = RamifiedSeries.from_complex(1, two_pole_coeffs(60))
    ap = diagonal_pade(a, 25)
    assert ap.order == (1, 2)
    svds, solves = count_svds(monkeypatch), count_solves(monkeypatch)
    for M, L in ((29, 28), (20, 30), (2, 1), (3, 1)):
        assert diagonal_pade(a, M, L) is ap
    assert not svds and not solves
    # below the type the solve loop answers; a block inside the ranked one
    # reuses its rank, another one is ranked on its own
    assert diagonal_pade(a, 1).order == (0, 1)
    assert not svds and len(solves) == 1
    assert diagonal_pade(a, 2, 0).order == (0, 2)
    assert svds == [(2, 3)] and len(solves) == 2


def test_larger_block_is_ranked_again(monkeypatch):
    # the rank of a block says nothing about a block that is not inside it
    svds = count_svds(monkeypatch)
    a = fresh_copy(heat_borel_series(60))
    diagonal_pade(a, 10)
    diagonal_pade(a, 8)
    assert svds == [(8, 9), (10, 11)]
    diagonal_pade(a, 30)
    diagonal_pade(a, 29)
    diagonal_pade(a, 12)
    # heat's leading 8 x 9 block certifies no type, so each full block
    # follows it
    assert svds == [(8, 9), (10, 11), (8, 9), (30, 31)]


def full_block_type(c, r, L, M):
    """The numerical type from the full [L/M] block alone.

    One SVD of the whole block gives rho; [min(L, rho-1)/rho] is then
    verified over all N coefficients, as _numerical_type does at its last
    step.
    """
    rho = pade._numerical_rank(c, L, M)
    rational = pade._verified_type(c, r, L, rho) if 1 <= rho < M else None
    return pade._NumericalType(L, M, rho, rational)


def pole_sum_coeffs(n_poles, n, seed):
    """sum_i w_i p_i^(-j): n_poles seeded poles with 1 <= |p| <= 3."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.0, 3.0, n_poles) * np.exp(2j * np.pi
                                                * rng.uniform(size=n_poles))
    w = rng.standard_normal(n_poles) + 1j * rng.standard_normal(n_poles)
    return (w[None, :] * p[None, :] ** -np.arange(n)[:, None]).sum(axis=1)


def ring_pole_coeffs(n_poles, n, seed):
    """sum_i w_i p_i^(-j): one seeded pole on the unit circle in each of
    n_poles equal sectors, weights in [1, 2)."""
    rng = np.random.default_rng(seed)
    p = np.exp(2j * np.pi * (np.arange(n_poles) + 0.5 * rng.uniform(
        size=n_poles)) / n_poles)
    w = 1.0 + rng.uniform(size=n_poles)
    return (w[None, :] * p[None, :] ** -np.arange(n)[:, None]).sum(axis=1)


def type_families():
    """Series on which the growing leading blocks must decide as the full
    block does: rational ones, rational ones with a polynomial part, and
    branch points."""
    fams = {"ones 421": np.ones(421),
            "C(2j,j)": np.array([float(math.comb(2 * j, j))
                                 for j in range(40)])}
    for seed in range(3):
        fams[f"noisy ones 421 seed {seed}"] = noisy_geometric(1.0, 421, seed)
    for k in range(1, 13):
        fams[f"{k} poles"] = pole_sum_coeffs(k, 121, k)
    for k in (9, 12, 20):
        fams[f"ring of {k} poles"] = ring_pole_coeffs(k, 121, 0)
    for n in (40, 121):
        for d in range(6):
            c = np.ones(n)
            c[d] += 1.0
            fams[f"1/(1-x) + x^{d} N={n}"] = c
    fams = {name: series(c) for name, c in fams.items()}
    for t in (60, 120, 200):
        fams[f"heat {t}"] = heat_borel_series(t)
    return fams


@pytest.mark.parametrize("name", list(type_families()))
def test_numerical_type_matches_the_full_block(name):
    d, r = _scaled_coeffs(type_families()[name])
    n = len(d)
    for M in (n // 2, (n - 1) // 2, (n - 2) // 2):
        got, want = pade._numerical_type(d, r, M - 1, M), full_block_type(
            d, r, M - 1, M)
        assert (got.L, got.M, got.rank) == (want.L, want.M, want.rank)
        assert (got.rational is None) == (want.rational is None)
        if want.rational is not None:
            assert got.rational.order == want.rational.order
            assert got.rational.r == want.rational.r
            assert bits(got.rational.num.coeffs) == bits(
                want.rational.num.coeffs)
            assert bits(got.rational.den.coeffs) == bits(
                want.rational.den.coeffs)


def step_down_pade(c, L, M):
    """[L/M] by the solve/step-down loop alone, with no type check.

    The rank jump is taken at the first exactly singular solve, from an SVD
    of the block that failed, and the order then steps down by one.
    """
    rho = None
    while True:
        try:
            return _solve_pade(c, L, M), (L, M)
        except np.linalg.LinAlgError:
            if rho is None:
                rho = pade._numerical_rank(c, L, M)
                if 1 <= rho < M:
                    M, L = rho, min(L, rho - 1)
                    continue
            M -= 1
            L = min(L, max(M - 1, 0))
            if M < 1:
                raise


@pytest.mark.parametrize("make", [
    lambda: series([float(math.comb(2 * j, j)) for j in range(40)]),
    lambda: heat_borel_series(60),
], ids=["C(2j,j)", "heat"])
def test_rejected_type_keeps_the_step_down_approximant(make):
    # branch points: the denominator block is numerically rank deficient,
    # but no [lam/rho] reproduces the series, so the loop answers as before
    a = make()
    d, r = _scaled_coeffs(a)
    n = len(d)
    for M in (n // 2, (n - 1) // 2, (n - 2) // 2):
        assert pade._numerical_rank(d, M - 1, M) < M
        ap = diagonal_pade(a, M)
        (num, den), order = step_down_pade(d, M - 1, M)
        assert ap.order == order and ap.r == r
        assert bits(ap.num.coeffs) == bits(num.coeffs)
        assert bits(ap.den.coeffs) == bits(den.coeffs)
    assert a._pade_memo["type"].rational is None
