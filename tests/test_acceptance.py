"""End-to-end acceptance battery.

Each criterion prints one PASS/FAIL line (visible with pytest -s or when
run as a script) and enforces its tolerance with assertions.
"""
import json
import math
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import exp1

import msumma as ms
from msumma import (CharPolynomial, GAMMA_1, MomentFunction, PdeProblem,
                    RamifiedSeries, borel, inverse_borel, kernel_pair_for,
                    solve_constant_leading, solve_simple)
from msumma.analysis import borel_singularities, estimate_gevrey, \
    summability_verdict
from msumma.operators import check_commutation, max_relative_deviation
from msumma.resummation import kernel_solution_quadrature, laplace_resum
from msumma.scaled import ScaledComplex

from conftest import cross_solver_deviation, random_series

L = CharPolynomial.lam()
Z = CharPolynomial.zeta()
LGE = math.log10(math.e)

ORDERS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
          Fraction(1), Fraction(2)]


def _moment(s):
    return MomentFunction.gamma(s) if s >= 0 else MomentFunction(((s, +1),))


def _gamma_data(s: float, n: int) -> RamifiedSeries:
    vals = [ScaledComplex.from_log10(math.lgamma(1.0 + s * j) * LGE)
            for j in range(n)]
    return RamifiedSeries.from_scaled(1, vals)


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _heat_diag(trunc_t: int) -> RamifiedSeries:
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=(RamifiedSeries.from_complex(
                          1, np.ones(2 * trunc_t + 3)),),
                      trunc_t=trunc_t)
    return solve_constant_leading(prob).extract_col(0)


def test_criterion_01_commutation():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        s = ORDERS[rng.integers(len(ORDERS))]
        sp = ORDERS[rng.integers(len(ORDERS))]
        a = random_series(rng, n=40)
        worst = max(worst, check_commutation(_moment(s), _moment(sp), a))
    dt = time.time() - t0
    _report(1, worst <= 1e-12 and dt < 5.0,
            f"operator commutation, 100 trials N=40: worst {worst:.2e} "
            f"(<=1e-12), {dt:.2f}s (<5s)")


def test_criterion_02_roundtrip_product():
    rng = np.random.default_rng(2)
    worst = 0.0
    for s in ORDERS:
        m = _moment(s)
        a = random_series(rng, n=200)
        worst = max(worst,
                    max_relative_deviation(a, inverse_borel(m, borel(m, a))))
    m1, m2 = MomentFunction.gamma(1), MomentFunction.gamma(Fraction(1, 2))
    a = random_series(rng, n=200)
    worst = max(worst, max_relative_deviation(borel(m1 * m2, a),
                                              borel(m1, borel(m2, a))))
    _report(2, worst < 1e-15,
            f"transform roundtrip and product law, N=200: "
            f"worst {worst:.2e} (<1e-15)")


def test_criterion_03_gevrey_of_solutions():
    t0 = time.time()
    worst = 0.0
    for q in (1, 2, 3):
        for s in (0.0, 0.5):
            nt = 60
            prob = PdeProblem(
                P=L - Z**q, m1=GAMMA_1, m2=GAMMA_1,
                data=(_gamma_data(s, q * nt + 21),), trunc_t=nt,
                gevrey_s=Fraction(1, 2) if s else Fraction(0))
            diag = solve_constant_leading(prob).extract_col(0)
            got = estimate_gevrey(diag).order_hat
            worst = max(worst, abs(got - (q * (1 + s) - 1)))
    dt = time.time() - t0
    _report(3, worst < 0.05 and dt < 30.0,
            f"solution Gevrey order q(1+s)-1, q in 1..3, s in {{0, 1/2}}: "
            f"worst gap {worst:.4f} (<0.05), {dt:.1f}s (<30s)")


def test_criterion_04_moment_weighted_orders():
    worst = 0.0
    q, s = 2, Fraction(1, 2)
    for s1, s2 in ((Fraction(1), Fraction(1)),
                   (Fraction(1, 2), Fraction(1)),
                   (Fraction(1), Fraction(1, 2))):
        nt = 60
        phi = _gamma_data(float(s), q * nt + 21)
        u = solve_simple(1.0, q, 1, MomentFunction.gamma(s1),
                         MomentFunction.gamma(s2), phi, nt)
        got = estimate_gevrey(u.extract_col(0)).order_hat
        expect = float(q * (s2 + s) - s1)
        worst = max(worst, abs(got - expect))
    _report(4, worst < 0.05,
            f"moment-weighted order q(s2+s)-s1 over three (s1,s2) pairs: "
            f"worst gap {worst:.4f} (<0.05)")


def test_criterion_05_heat_pipeline():
    t0 = time.time()
    diag = _heat_diag(40)
    coeff_gap = 0.0
    bor = borel(GAMMA_1, diag)
    for j in range(20):
        expect = math.comb(2 * j, j)
        coeff_gap = max(coeff_gap,
                        abs(bor.coeff_complex(j) - expect) / expect)
    sing = borel_singularities(bor)
    pole_err = abs(sing.points[0].location - 0.25)
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=(RamifiedSeries.from_complex(1, np.ones(83)),),
                      trunc_t=40)
    report = summability_verdict(prob, [0.0, math.pi / 2, math.pi])
    vs = [v.verdict for v in report.verdicts[0]]
    growth = report.verdicts[0][1].evidence.get("growth_order", math.inf)
    dt = time.time() - t0
    ok = (coeff_gap < 1e-12 and pole_err < 1e-3
          and vs == ["singular", "summable", "summable"]
          and abs(growth - 2.0) < 0.1 and dt < 10.0)
    _report(5, ok,
            f"heat model: Borel coefficients C(2j,j) gap {coeff_gap:.2e}, "
            f"pole at 0.25 err {pole_err:.2e} (<1e-3), verdicts {vs}, "
            f"growth {growth:.4f} (2+-0.1), {dt:.1f}s (<10s)")


def test_criterion_06_cross_solver():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        n_pieces = int(rng.integers(1, 3))
        P = CharPolynomial.const(1.0)
        n = 0
        for _ in range(n_pieces):
            q = int(rng.integers(1, 4))
            beta = int(rng.integers(1, 3)) if n_pieces == 1 else 1
            lam = complex(rng.normal(), rng.normal()) or 1.0
            P = P * (L - (Z**q).scale(lam)) ** beta
            n += beta
        data = tuple(random_series(rng, n=70) for _ in range(n))
        prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1, data=data, trunc_t=20)
        worst = max(worst, cross_solver_deviation(prob))
    _report(6, worst < 1e-12,
            f"independent solvers on 20 random problems (n<=3, q<=3, "
            f"N_t=20): worst gap {worst:.2e} (<1e-12)")


def test_criterion_08_resummation():
    t0 = time.time()
    kernel = kernel_pair_for(GAMMA_1)
    # independent oracle: Euler-type series along the clean ray
    euler = RamifiedSeries.from_complex(1, (-1.0) ** np.arange(40))
    worst_euler = 0.0
    for tv in (0.05, 0.1, 0.2):
        exact = math.exp(1.0 / tv) * exp1(1.0 / tv) / tv
        got = laplace_resum(euler, kernel, 0.0, tv).value
        worst_euler = max(worst_euler, abs(got - exact) / abs(exact))

    # heat diagonal: resummed value differs from the best partial sum by
    # an exponentially small amount, |gap| <= A exp(-c/|t|) with c > 0
    diag = _heat_diag(40)
    bor = borel(GAMMA_1, diag)
    cs = diag.coeffs_complex()
    mags, gaps = [], []
    for mag in (0.030, 0.040, 0.055, 0.070, 0.090):
        t = mag * 1j
        val = laplace_resum(bor, kernel, math.pi / 2, t).value
        partials = np.cumsum(cs * t ** np.arange(len(cs)))
        gap = np.abs(partials - val).min()
        mags.append(mag)
        gaps.append(max(gap, 1e-300))
    A = np.stack([np.ones(len(mags)), 1.0 / np.array(mags)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, np.log(np.array(gaps)), rcond=None)
    c_fit = -coef[1]
    dt = time.time() - t0
    ok = worst_euler < 1e-8 and c_fit > 0.0 and dt < 20.0
    _report(8, ok,
            f"Borel-Laplace resummation: oracle gap {worst_euler:.2e} "
            f"(<1e-8), optimal-truncation decay rate c={c_fit:.3f} (>0), "
            f"{dt:.1f}s (<20s)")


def test_criterion_09_kernel_quadrature():
    phi = RamifiedSeries.from_complex(1, np.ones(60))
    val = kernel_solution_quadrature(1.0, 1, GAMMA_1, GAMMA_1, phi,
                                     0.05, 0.05)
    exact = 1.0 / (1.0 - 0.05 - 0.05)
    gap = abs(val - exact)
    _report(9, gap < 1e-6,
            f"contour-kernel solution value vs 1/(1-z-t) at (0.05, 0.05): "
            f"gap {gap:.2e} (<1e-6)")


MALFORMED = [
    ("equation L - Z;\ndata: coeffs(1);\n", 1, 10),
    ("equation: L - ;\ndata: coeffs(1);\n", 1, 15),
    ("equation: L - Z\ndata: coeffs(1);\n", 2, 1),
    ("equation: L - Q;\ndata: coeffs(1);\n", 1, 15),
    ("equation: L^-2;\ndata: coeffs(1);\n", 1, 13),
    ("equation: L - Z;\nm1: Gamma 1);\ndata: coeffs(1);\n", 2, 11),
    ("equation: L - Z;\ndata: coeffs(1,);\n", 2, 16),
    ("equation: L - Z;\ndata: stuff(1);\n", 2, 7),
    ("equation: L - Z;\ntrunc_t: -3;\ndata: coeffs(1);\n", 2, 10),
    ("equation: L - Z;\nkappa: 1/2;\ndata: coeffs(1);\n", 2, 9),
]


def test_criterion_10_cli():
    from msumma.cli import main

    heat = Path(__file__).parent / "data" / "heat.mpde"
    with tempfile.TemporaryDirectory() as td:
        a, b = Path(td) / "a", Path(td) / "b"
        assert main(["report", str(heat), "--out", str(a)]) == 0
        assert main(["report", str(heat), "--out", str(b)]) == 0
        stable = all(
            (a / f).read_bytes() == (b / f).read_bytes()
            for f in ("report.json", "coefficients.csv", "pade_poles.csv",
                      "verdicts.csv"))
        rep = json.loads((a / "report.json").read_text())
        schema_ok = (rep["schema"] == "msumma_report.v1"
                     and set(rep) >= {"input_sha256", "gevrey",
                                      "singularities", "summability"}
                     and rep["summability"]["schema"].startswith(
                         "summability_report"))
        positions_ok = True
        for i, (src, line, col) in enumerate(MALFORMED):
            bad = Path(td) / f"bad{i}.mpde"
            bad.write_text(src)
            code = main(["solve", str(bad)])
            try:
                ms.parse_problem(src)
                positions_ok = False
            except ms.ParseError as exc:
                if code != 2 or exc.line != line or exc.col != col:
                    positions_ok = False
    ok = stable and schema_ok and positions_ok
    _report(10, ok,
            f"CLI: byte-stable reports {stable}, schema valid {schema_ok}, "
            f"10 malformed inputs at exact positions {positions_ok}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-s", "-q"]))
