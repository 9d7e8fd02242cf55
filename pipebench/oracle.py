"""Independent oracles for every op and the gate that checks op outputs.

Reference values come from closed forms evaluated with exact integers and
from mpmath quadrature of the Borel transforms' closed forms; nothing here
calls msumma.  The harness computes them before any timed region starts.
Tolerances are the ones tier-1 already uses for the same claims.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# tests/test_solver.py::test_heat_full_grid
GRID_RTOL = 1e-12
# tests/test_acceptance.py criterion 5 and tests/test_pade.py
POLE_TOL = 1e-3
# tests/test_cli.py::test_singular_payload, at the templates' native trunc_t
CLI_POLE_TOL = 5e-3
# tests/test_resummation.py::test_euler_series_oracle
RESUM_RTOL = 1e-8
# tests/test_cli.py::test_gevrey_output and acceptance criterion 3
GEVREY_TOL = 0.05

GEVREY_ORDER = {"heat": 1.0, "divergent_data": 1.0, "wave": 0.0}
BOREL_POLE = {"heat": 0.25, "divergent_data": 1.0}
CLI_REPORT_DIRECTIONS = (0.0, math.pi / 2, math.pi)  # msumma report default


def exact_coefficient(name: str, j: int, n: int) -> int:
    """Coefficient of t^j z^n of the template problem's exact solution."""
    f = math.factorial
    if name == "heat":
        # u = sum (n+2j)!/(j! n!) t^j z^n for u_t = u_zz, u(0,z) = 1/(1-z)
        return f(n + 2 * j) // (f(j) * f(n))
    if name == "divergent_data":
        # u_t = u_z with u(0,z) = sum n! z^n
        return f(j + n) ** 2 // (f(j) * f(n))
    if name == "wave":
        # d'Alembert: [1/(1-z-t) + 1/(1-z+t)]/2 + z t
        return (math.comb(j + n, j) if j % 2 == 0 else 0) + (j == n == 1)
    raise ValueError(f"no closed form for {name!r}")


def _scaled(value: int) -> tuple[float, int]:
    """Correctly rounded (mantissa, exp10) of a non-negative integer."""
    if value == 0:
        return 0.0, 0
    e = len(str(value)) - 1
    return float(Fraction(value, 10 ** e)), e


def grid_oracle(name: str, rows: int, cols: int):
    mant = np.zeros((rows, cols))
    exp10 = np.zeros((rows, cols), dtype=np.int64)
    for j in range(rows):
        for n in range(cols):
            mant[j, n], exp10[j, n] = _scaled(exact_coefficient(name, j, n))
    return mant, exp10


def expected_verdicts(name: str, directions) -> list:
    """Singular on the direction 0 of the data's Borel pole, else summable.

    wave has no divergent level, so it yields no verdict at all.
    """
    if name == "wave":
        return []
    return ["singular" if d == 0.0 else "summable" for d in directions]


def resum_reference(name: str, t: complex, d: float) -> complex:
    """Borel-Laplace integral of the closed-form Borel transform.

    For the Gamma(1) kernel e(y) = y exp(-y) the resummed value is
    (1/t) int_0^{inf e^{id}} V(x) exp(-x/t) dx, with V = (1-4x)^(-1/2)
    for heat (Borel coefficients C(2j, j)) and V = 1/(1-x) for
    divergent_data (Borel coefficients 1).
    """
    import mpmath as mp

    with mp.workdps(30):
        if name == "heat":
            V = lambda x: (1 - 4 * x) ** mp.mpf(-0.5)  # noqa: E731
        elif name == "divergent_data":
            V = lambda x: 1 / (1 - x)  # noqa: E731
        else:
            raise ValueError(f"no Borel closed form for {name!r}")
        e = mp.expj(d)
        tt = mp.mpc(t)
        val = mp.quad(lambda r: V(r * e) * mp.exp(-r * e / tt) * e / tt,
                      [0, abs(t), mp.inf])
        return complex(val)


# -- the gate -----------------------------------------------------------------

def check_grid(mant, exp10, ref_mant, ref_exp) -> list:
    mant, exp10 = np.asarray(mant), np.asarray(exp10)
    if mant.shape != ref_mant.shape:
        return [f"grid shape {mant.shape} != closed form {ref_mant.shape}"]
    misses = []
    zero = ref_mant == 0
    if np.any(mant[zero] != 0):
        misses.append(f"{int(np.count_nonzero(mant[zero]))} nonzero grid "
                      "cells where the closed form vanishes")
    nz = ~zero
    shift = np.clip(exp10[nz] - ref_exp[nz], -400, 400).astype(np.float64)
    rel = np.abs(mant[nz] * 10.0 ** shift - ref_mant[nz]) / ref_mant[nz]
    worst = float(rel.max()) if rel.size else 0.0
    if not worst <= GRID_RTOL:
        misses.append(f"grid relative error {worst:.3e} > {GRID_RTOL:g}")
    return misses


def check_gevrey(name: str, order_hat: float) -> list:
    want = GEVREY_ORDER[name]
    if not abs(order_hat - want) <= GEVREY_TOL:
        return [f"Gevrey order {order_hat:.4f}, closed form {want:g} "
                f"(tol {GEVREY_TOL:g})"]
    return []


def check_pole(name: str, location, tol: float) -> list:
    want = BOREL_POLE[name]
    if location is None:
        return [f"no stable Borel pole; closed form has one at {want:g}"]
    if not abs(location - want) <= tol:
        return [f"Borel pole at {location:.6g}, closed form {want:g} "
                f"(tol {tol:g})"]
    return []


def check_verdicts(got: list, want: list) -> list:
    if got != want:
        return [f"verdicts {got} != expected {want}"]
    return []


def report_verdicts(report_json: str) -> list:
    """Flat verdict list of a summability_report JSON document."""
    return [v["verdict"] for per in json.loads(report_json)["verdicts"]
            for v in per]


def check_resum(got, want) -> list:
    misses = []
    for g, w in zip(got, want):
        rel = abs(g - w) / abs(w)
        if not rel <= RESUM_RTOL:
            misses.append(f"laplace_resum {g!r} vs quadrature {w!r}: "
                          f"relative gap {rel:.3e} > {RESUM_RTOL:g}")
    if len(got) != len(want):
        misses.append(f"{len(got)} resummed values, expected {len(want)}")
    return misses


def check_pipeline_op(name: str, out: dict, expect: dict) -> list:
    """All checks of one in-process pipeline op; returns the misses."""
    misses = check_grid(out["mant"], out["exp10"], *expect["grid"])
    rows, cols = expect["grid"][0].shape
    dumped = out["dumps"]
    head, n_lines = dumped[:dumped.find("\n")], dumped.count("\n")
    if head != f"1 1 {rows - 1} {cols - 1}" or n_lines != rows * cols + 1:
        misses.append(f"dumps wrote header {head!r} and {n_lines} lines "
                      f"for a {rows}x{cols} grid")
    misses += check_gevrey(name, out["gevrey"])
    misses += check_verdicts(report_verdicts(out["report_json"]),
                             expect["verdicts"])
    if expect.get("resum") is not None:
        misses += check_pole(name, out["pole"], POLE_TOL)
        misses += check_resum(out["resum"], expect["resum"])
    return misses


def read_biseries(text: str):
    """Parse msumma's BiSeries text format without using msumma."""
    lines = text.strip().splitlines()
    _, _, nt, nz = (int(v) for v in lines[0].split())
    mant = np.zeros((nt + 1, nz + 1), dtype=np.complex128)
    exp10 = np.zeros((nt + 1, nz + 1), dtype=np.int64)
    for ln in lines[1:]:
        j, n, re_, im, e = ln.split()
        mant[int(j), int(n)] = complex(float(re_), float(im))
        exp10[int(j), int(n)] = int(e)
    return mant, exp10


def check_cli_op(command: str, name: str, exit_code: int, files: dict,
                 expect: dict) -> list:
    """Checks of one CLI op: exit code and the written result file.

    `files` maps file names in the --out directory to their text.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if command == "solve":
        text = files.get("solution.biseries")
        if text is None:
            return ["solution.biseries not written"]
        mant, exp10 = read_biseries(text)
        ref_mant, ref_exp = expect["grid"]
        rows, cols = mant.shape
        if rows != ref_mant.shape[0] or not 1 <= cols <= ref_mant.shape[1]:
            return [f"solution grid {mant.shape}, expected "
                    f"{ref_mant.shape[0]} rows"]
        return check_grid(mant, exp10, ref_mant[:, :cols], ref_exp[:, :cols])
    text = files.get("report.json")
    if text is None:
        return ["report.json not written"]
    rep = json.loads(text)
    misses = []
    if rep.get("schema") != "msumma_report.v1":
        misses.append(f"report schema {rep.get('schema')!r}")
    misses += check_gevrey(name, rep["gevrey"]["order_hat"])
    pts = rep["singularities"]["points"]
    loc = complex(*pts[0]["location"]) if pts else None
    misses += check_pole(name, loc, CLI_POLE_TOL)
    got = [v["verdict"] for per in rep["summability"]["verdicts"] for v in per]
    misses += check_verdicts(got, expected_verdicts(name,
                                                    CLI_REPORT_DIRECTIONS))
    return misses


def failed_frac(records) -> float:
    """Share of attempted ops that raised, exited wrongly or missed."""
    if not records:
        return 0.0
    return sum(1 for r in records if r["misses"]) / len(records)
