"""Timing of the scaled-arithmetic kernels and the moment tables.

Runs each primitive of msumma._kernels on fixed seeded inputs and prints
one time per kernel.  Then come the moment tables of the operator layer,
`MomentFunction.log_eval_array` over n arguments,
`scaled.from_log10_array` over n decimal logs and
`MomentFunction.scaled_table` of n entries, once built (its kept table
is dropped before each call) and once cached (a slice of the kept
table), and the text serializer
`BiSeries.dumps` on a square grid of min(201, isqrt(n)) rows of the
normalized inputs, whose complex cells have many components below 1 that
go through repr, and, independent of n, on a seeded real 201x201 grid of
normalized mantissas, which takes the writer's exact path as a solution
grid does.  Then come the Pade layer's costs, independent of n, each
call on a fresh RamifiedSeries built before the timed region, so that no
approximant or numerical type memoized on a series answers it:
`diagonal_pade` plus `significant_poles` at M = 110 on a seeded real
series with a branch point at 1; `diagonal_pade` of 421 ones at M = 210,
whose denominator block has rank 1, the path of the heat verdict's data
row 1/(1-z); the same on 421 seeded ones perturbed by 1e-15 relative,
numerically rational with no exactly singular block, the path of the
divergent_data Borel series; the M = 110 approximant's two-level Horner
evaluation on the 122 nodes of one bisection of a ray;
`integrate_segment` of its Laplace integrand along that ray and, as a
case that bisects, of the peak 1/(1e-4 + x^2) on [-1, 1] at tol 1e-10;
and `laplace_resum` of heat's Borel series at trunc_t 60 on the ray
pi/2 at the five points t = 0.03i .. 0.09i, whose Pade sum and stable
poles are memoized on the series after the warm-up.  Last, also
independent of n, comes `solve_constant_leading` on (L - 3Z)(L + 7Z) with
data 1/(1-z) at trunc_t 200 and 21 output columns: its recurrence
multiplies by s = -4 and 21, so its rows grow out of the mantissa range
and are renormalized, and as a two-term recurrence it scans every row.
The same on heat's L - Z^2 takes the bound-certified path: its one term
has |s| = 1, so no row is scanned.  Both solve rows are timed warm: their
warm-up builds the moment tables, so the timed calls only slice them.
Last come `BiSeries.dumps` of that
201x21 heat grid and `BiSeries.loads` of the real 201x201 grid's text.

Usage: python3 benchmarks/bench_kernels.py [--n 200000] [--reps 20]
"""
import argparse
import cmath
import math
import time

import numpy as np

PADE_M = 110
REAL_GRID_SIDE = 201
RANK_JUMP_M = 210
SOLVE_TRUNC_T = 200
RESUM_TRUNC_T = 60
RESUM_TS = (0.03j, 0.045j, 0.06j, 0.075j, 0.09j)


def make_inputs(n, rng):
    m1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    e1 = rng.integers(-50, 50, size=n)
    m2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    e2 = rng.integers(-50, 50, size=n)
    return m1, e1, m2, e2


def grid_side(n):
    """Rows (and columns) of the BiSeries.dumps grid: at most 201x201."""
    return min(201, math.isqrt(n))


def pade_series(rng):
    """Seeded real coefficients of (1 - x)^(-1/2), perturbed by 1%."""
    j = np.arange(2 * PADE_M + 1)
    lg = np.array([math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1)
                   for k in j]) - j * math.log(4.0)
    return np.exp(lg) * (1.0 + 0.01 * rng.standard_normal(len(j)))


def recurrence_problem(heat=False):
    """(L - 3Z)(L + 7Z), or heat's L - Z^2, with data 1/(1-z) in every
    row and 21 output columns."""
    from msumma import GAMMA_1, CharPolynomial, PdeProblem, RamifiedSeries
    from msumma.solver import required_z_truncation

    L, Z = CharPolynomial.lam(), CharPolynomial.zeta()
    P = L - Z**2 if heat else (L - Z.scale(3.0)) * (L + Z.scale(7.0))
    nz = required_z_truncation(P, 1, SOLVE_TRUNC_T) + 21
    data = tuple(RamifiedSeries.from_complex(1, np.ones(nz))
                 for _ in range(P.lam_degree))
    return PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1, data=data,
                      trunc_t=SOLVE_TRUNC_T)


def heat_borel():
    """Borel transform of heat's u(t, 0) with data 1/(1-z) at trunc_t 60."""
    from msumma import GAMMA_1, CharPolynomial, PdeProblem, RamifiedSeries
    from msumma.operators import borel
    from msumma.solver import required_z_truncation, solve_constant_leading

    L, Z = CharPolynomial.lam(), CharPolynomial.zeta()
    nz = required_z_truncation(L - Z**2, 1, RESUM_TRUNC_T) + 1
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=(RamifiedSeries.from_complex(1, np.ones(nz)),),
                      trunc_t=RESUM_TRUNC_T)
    return borel(GAMMA_1, solve_constant_leading(prob).extract_col(0))


def bench(fn, reps):
    fn()  # warm up
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def bench_fresh(fn, make, reps):
    """bench of fn(x), each call, warm-up included, on its own x = make().

    Every x is built before the timed region, so a Pade memo kept on one
    series never answers a timed call.
    """
    xs = [make() for _ in range(reps + 1)]
    fn(xs[0])  # warm up
    t0 = time.perf_counter()
    for x in xs[1:]:
        fn(x)
    return (time.perf_counter() - t0) / reps


def run(n, reps):
    from msumma import GAMMA_1, BiSeries, RamifiedSeries
    from msumma import _kernels as K
    from msumma import moments
    from msumma.moments import MomentFunction, kernel_pair_for
    from msumma.pade import diagonal_pade
    from msumma.quadrature import _nodes, integrate_segment
    from msumma.resummation import laplace_resum
    from msumma.scaled import from_log10_array
    from msumma.solver import solve_constant_leading

    rng = np.random.default_rng(0)
    m1, e1, m2, e2 = make_inputs(n, rng)
    nm1, ne1 = K.normalize(m1, e1)
    nm2, ne2 = K.normalize(m2, e2)
    small_m, small_e = nm1[:400].copy(), ne1[:400].copy()

    results = {}
    results["normalize"] = bench(lambda: K.normalize(m1, e1), reps)
    results["add"] = bench(lambda: K.add(nm1, ne1, nm2, ne2), reps)
    results["mul"] = bench(lambda: K.mul(nm1, ne1, nm2, ne2), reps)
    results["scale"] = bench(lambda: K.scale(nm1, ne1, 1.5 + 0.5j, 3), reps)
    results["axpy_shift"] = bench(
        lambda: K.axpy_shift(nm1, ne1, nm2, ne2, 2.0 + 1.0j, -2, 1), reps)
    results["eval_scaled"] = bench(
        lambda: K.eval_scaled(small_m, small_e, 0.3 + 0.1j, 0), reps)
    m = MomentFunction.gamma(2) / MomentFunction.gamma(1)
    u = np.arange(n) / 3
    logs = rng.uniform(-5000.0, 5000.0, size=n)
    results["log_eval_array"] = bench(lambda: m.log_eval_array(u), reps)
    results["from_log10_array"] = bench(lambda: from_log10_array(logs), reps)

    def build_table():
        moments._tables.pop((m, 3, -1), None)
        return m.scaled_table(3, n, -1)

    results["moment table build"] = bench(build_table, reps)
    results["moment table cached"] = bench(lambda: m.scaled_table(3, n, -1),
                                           reps)
    side = grid_side(n)
    grid = BiSeries(1, 1, nm1[:side * side].reshape(side, side),
                    ne1[:side * side].reshape(side, side), normalized=True)
    results["BiSeries.dumps"] = bench(grid.dumps, reps)
    # own generator: the inputs of the rows below stay as they were
    real = np.random.default_rng(1)
    shape = (REAL_GRID_SIDE, REAL_GRID_SIDE)
    rm, re_ = K.normalize(real.normal(size=shape).ravel() + 0j,
                          real.integers(-50, 50, size=shape).ravel())
    real_grid = BiSeries(1, 1, rm.reshape(shape), re_.reshape(shape),
                         normalized=True)
    results[f"BiSeries.dumps real {REAL_GRID_SIDE}x{REAL_GRID_SIDE}"] = bench(
        real_grid.dumps, reps)

    def series(c):
        return lambda: RamifiedSeries.from_complex(1, c)

    coeffs = pade_series(rng)
    results[f"pade M={PADE_M}"] = bench_fresh(
        lambda a: diagonal_pade(a, PADE_M).significant_poles(),
        series(coeffs), reps)
    ones = np.ones(2 * RANK_JUMP_M + 1)
    results[f"pade rank jump M={RANK_JUMP_M}"] = bench_fresh(
        lambda a: diagonal_pade(a, RANK_JUMP_M), series(ones), reps)
    noisy = ones * (1.0 + 1e-15 * rng.standard_normal(len(ones)))
    results[f"pade numerically rational M={RANK_JUMP_M}"] = bench_fresh(
        lambda a: diagonal_pade(a, RANK_JUMP_M), series(noisy), reps)
    ap = diagonal_pade(RamifiedSeries.from_complex(1, coeffs), PADE_M)
    end = 1.5 * cmath.exp(0.5j)
    nodes = np.concatenate((_nodes(0.0, 0.5 * end)[1],
                            _nodes(0.5 * end, end)[1]))
    results[f"pade eval M={PADE_M}"] = bench(lambda: ap(nodes), reps)
    t = 0.05
    results["integrate_segment"] = bench(
        lambda: integrate_segment(lambda x: ap(x) * np.exp(-x / t) / t,
                                  0.0, end), reps)
    results["integrate_segment peak"] = bench(
        lambda: integrate_segment(lambda x: 1.0 / (1e-4 + x**2), -1.0, 1.0,
                                  1e-10), reps)
    bor, kernel = heat_borel(), kernel_pair_for(GAMMA_1)
    results[f"laplace_resum heat trunc_t {RESUM_TRUNC_T} x{len(RESUM_TS)}"] = (
        bench(lambda: [laplace_resum(bor, kernel, math.pi / 2, t)
                       for t in RESUM_TS], reps))
    prob = recurrence_problem()
    results["solve_constant_leading"] = bench(
        lambda: solve_constant_leading(prob), reps)
    heat = recurrence_problem(heat=True)
    results[f"solve L-Z^2 trunc_t {SOLVE_TRUNC_T}"] = bench(
        lambda: solve_constant_leading(heat), reps)
    heat_grid = solve_constant_leading(heat)
    rows, cols = heat_grid.mant.shape
    results[f"BiSeries.dumps {rows}x{cols}"] = bench(heat_grid.dumps, reps)
    text = real_grid.dumps()
    results[f"BiSeries.loads {REAL_GRID_SIDE}x{REAL_GRID_SIDE}"] = bench(
        lambda: BiSeries.loads(text), reps)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--reps", type=int, default=20)
    args = ap.parse_args()

    results = run(args.n, args.reps)
    side = grid_side(args.n)
    print(f"array length {args.n} (eval_scaled: 400 terms, "
          f"BiSeries.dumps: {side}x{side} grid and a real "
          f"{REAL_GRID_SIDE}x{REAL_GRID_SIDE} one, Pade: {2 * PADE_M + 1} and "
          f"{2 * RANK_JUMP_M + 1} coefficients, solve: trunc_t "
          f"{SOLVE_TRUNC_T}), {args.reps} reps\n")
    w = max(len(key) for key in results)
    print(f"{'kernel':<{w}} {'ms':>10}")
    for key, t in results.items():
        print(f"{key:<{w}} {t * 1e3:>10.3f}")


if __name__ == "__main__":
    main()
