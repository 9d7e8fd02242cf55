import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import msumma as ms
from msumma import _kernels as K
from msumma import moments
from msumma import (CharPolynomial, GAMMA_1, MomentFunction, PdeProblem,
                    RamifiedSeries, decompose, solve_constant_leading,
                    solve_simple, sum_pieces)
from msumma.scaled import ScaledComplex
from msumma.solver import required_z_truncation

from conftest import biseries_to_array, cross_solver_deviation

L = CharPolynomial.lam()
Z = CharPolynomial.zeta()


def geometric_data(n_rows, nz, kappa=1):
    return tuple(RamifiedSeries.from_complex(kappa, np.ones(nz))
                 for _ in range(n_rows))


def test_heat_diagonal_coefficients():
    # P = L - Z^2, phi = 1/(1-z): u(t,0) has coefficients (2j)!/j!
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(1, 41), trunc_t=19)
    u = solve_constant_leading(prob)
    diag = u.extract_col(0)
    for j in range(12):
        expect = math.factorial(2 * j) / math.factorial(j)
        got = abs(diag.coeff_complex(j))
        assert abs(got - expect) <= 1e-13 * expect


def test_heat_full_grid():
    # coefficient of t^j z^n is (2j+n)! / (j! n!)
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(1, 30), trunc_t=8)
    u = solve_constant_leading(prob)
    for j in range(6):
        for n in range(8):
            expect = (math.factorial(2 * j + n)
                      / math.factorial(j) / math.factorial(n))
            got = u.coeff(j, n).to_complex().real
            assert abs(got - expect) <= 1e-12 * expect


def test_data_rows_are_reproduced():
    rng = np.random.default_rng(0)
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=25))
                 for _ in range(2))
    prob = PdeProblem(P=(L - Z) * (L + Z), m1=GAMMA_1, m2=GAMMA_1,
                      data=data, trunc_t=6)
    u = solve_constant_leading(prob)
    for j in range(2):
        row = u.extract_row(j)
        for n in range(len(row)):
            assert abs(row.coeff_complex(n)
                       - data[j].coeff_complex(n)) < 1e-13


def test_residual_of_solution_vanishes():
    rng = np.random.default_rng(1)
    P = (L - Z) * (L + Z.scale(2.0))
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=30))
                 for _ in range(2))
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=MomentFunction.gamma(1),
                      data=data, trunc_t=8)
    u = solve_constant_leading(prob)
    res = ms.operators.apply_char_polynomial(P.coeffs, prob.m1, prob.m2, u)
    arr = biseries_to_array(res)
    scale = np.abs(biseries_to_array(u)).max()
    assert np.abs(arr).max() <= 1e-12 * scale


def test_wrong_data_count():
    with pytest.raises(ms.SemanticError):
        PdeProblem(P=(L - Z) * (L + Z), m1=GAMMA_1, m2=GAMMA_1,
                   data=geometric_data(1, 10), trunc_t=4)


def test_nonconstant_leading_rejected():
    P = CharPolynomial({(1, 1): 1.0, (0, 0): 1.0})  # zeta * lambda + 1
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(1, 10), trunc_t=4)
    with pytest.raises(ms.SemanticError):
        solve_constant_leading(prob)


def test_truncation_exhaustion():
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(1, 5), trunc_t=10)
    with pytest.raises(ms.TruncationError):
        solve_constant_leading(prob)
    need = required_z_truncation(L - Z**2, 1, 10)
    assert need == 20


def test_solve_simple_closed_form():
    # (d_t - lam zeta) u = 0 with phi = 1/(1-z):
    # row j = lam^j (d/dz-type op)^j phi / j! in moment-normalized form
    phi = RamifiedSeries.from_complex(1, np.ones(30))
    lam = 2.0
    u = solve_simple(lam, 1, 1, GAMMA_1, GAMMA_1, phi, 6)
    # with m1 = m2 = Gamma_1 the coefficient of t^j z^n is
    # lam^j C(j+n, j) ... for geometric data: (j+n)!/(j! n!) * lam^j
    for j in range(5):
        for n in range(6):
            expect = lam**j * math.comb(j + n, j)
            got = u.coeff(j, n).to_complex().real
            assert abs(got - expect) <= 1e-12 * expect


def test_solve_simple_multiplicity_rows_vanish():
    phi = RamifiedSeries.from_complex(1, np.ones(30))
    u = solve_simple(1.0, 1, 3, GAMMA_1, GAMMA_1, phi, 8)
    for j in range(2):
        row = biseries_to_array(u)[j]
        assert np.abs(row).max() == 0.0


def test_decompose_piece_data_sums_to_input():
    rng = np.random.default_rng(2)
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=24))
                 for _ in range(2))
    prob = PdeProblem(P=(L - Z) * (L + Z), m1=GAMMA_1, m2=GAMMA_1,
                      data=data, trunc_t=5)
    pieces = decompose(prob)
    s = pieces[0].psi + pieces[1].psi
    for n in range(len(s)):
        assert abs(s.coeff_complex(n) - data[0].coeff_complex(n)) < 1e-12


def test_cross_solver_dalembert(rng):
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=30))
                 for _ in range(2))
    prob = PdeProblem(P=(L - Z) * (L + Z), m1=GAMMA_1, m2=GAMMA_1,
                      data=data, trunc_t=6)
    assert cross_solver_deviation(prob) < 1e-12


def test_cross_solver_double_root(rng):
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=30))
                 for _ in range(2))
    prob = PdeProblem(P=(L - Z**2) ** 2, m1=GAMMA_1, m2=GAMMA_1,
                      data=data, trunc_t=5)
    assert cross_solver_deviation(prob) < 1e-12


def test_cross_solver_mixed_orders(rng):
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=30))
                 for _ in range(2))
    prob = PdeProblem(P=(L - Z**3) * (L + Z), m1=GAMMA_1, m2=GAMMA_1,
                      data=data, trunc_t=5)
    assert cross_solver_deviation(prob) < 1e-12


def test_cross_solver_gamma_half_moments(rng):
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=30))
                 for _ in range(2))
    prob = PdeProblem(P=(L - Z**2) * (L + Z),
                      m1=MomentFunction.gamma(Fraction(1, 2)),
                      m2=MomentFunction.gamma(1),
                      data=data, trunc_t=5)
    assert cross_solver_deviation(prob) < 1e-12


def test_decompose_rejects_nonfactorizable():
    # lambda^2 - zeta^2 - 1 has non-monomial roots
    P = CharPolynomial({(2, 0): 1.0, (0, 2): -1.0, (0, 0): -1.0})
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(2, 20), trunc_t=4)
    with pytest.raises(ms.DecompositionError):
        decompose(prob)


def test_sum_pieces_min_rule():
    rng = np.random.default_rng(3)
    data = tuple(RamifiedSeries.from_complex(1, rng.normal(size=30))
                 for _ in range(2))
    prob = PdeProblem(P=(L - Z**3) * (L + Z), m1=GAMMA_1, m2=GAMMA_1,
                      data=data, trunc_t=5)
    pieces = decompose(prob)
    s = sum_pieces(pieces)
    assert s.trunc_t == min(p.solution.trunc_t for p in pieces)
    assert s.trunc_z == min(p.solution.trunc_z for p in pieces)


def _count_calls(monkeypatch, owner, name, wrap=lambda f: f):
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))
    return calls


def test_solve_moment_work_does_not_grow_with_grid(monkeypatch):
    # moment factors come from one scaled table per axis: the scalar
    # log-moment and log-to-scaled paths are not used per grid cell, and
    # tables are neither requested nor built per row
    log_eval = _count_calls(monkeypatch, MomentFunction, "log_eval")
    from_log10 = _count_calls(monkeypatch, ScaledComplex, "from_log10",
                              staticmethod)
    requests = _count_calls(monkeypatch, MomentFunction, "scaled_table")
    builds = _count_calls(monkeypatch, moments, "from_log10_array")
    P = (L - Z) * (L + Z)
    counts = []
    for trunc_t, width in ((50, 101), (100, 201)):
        need = required_z_truncation(P, 1, trunc_t)
        prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1,
                          data=geometric_data(2, need + width),
                          trunc_t=trunc_t)
        monkeypatch.setattr(moments, "_tables", {})
        log_eval[0] = from_log10[0] = requests[0] = builds[0] = 0
        u = solve_constant_leading(prob)
        assert u.mant.shape == (trunc_t + 1, width)
        counts.append((log_eval[0], from_log10[0], requests[0], builds[0]))
    assert counts[0] == counts[1]
    assert max(counts[1][:2]) <= 2
    assert counts[1][3] <= counts[1][2] <= 4


def test_solve_builds_no_table_twice(fresh_tables):
    # a second solve of the same problem slices the kept tables
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(1, 81), trunc_t=30)
    u1 = solve_constant_leading(prob)
    kept = dict(fresh_tables)
    assert set(kept) == {(GAMMA_1, 1, 1), (GAMMA_1, 1, -1)}
    u2 = solve_constant_leading(prob)
    assert all(fresh_tables[k] is v for k, v in kept.items())
    assert len(fresh_tables) == len(kept)
    assert np.array_equal(u1.mant, u2.mant)
    assert np.array_equal(u1.exp10, u2.exp10)


def test_solve_normalizes_once_per_recurrence_term(monkeypatch):
    # (L - Z)(L + 2Z) has two lower terms: each extra row costs at most one
    # normalize per term, plus at most one per block of denormalized rows
    normalize = _count_calls(monkeypatch, K, "normalize")
    P = (L - Z) * (L + Z.scale(2.0))
    counts = []
    for trunc_t in (50, 100):
        need = required_z_truncation(P, 1, trunc_t)
        prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1,
                          data=geometric_data(2, need + 21), trunc_t=trunc_t)
        monkeypatch.setattr(moments, "_tables", {})  # same table builds
        normalize[0] = 0
        solve_constant_leading(prob)
        counts.append(normalize[0])
    assert counts[1] - counts[0] <= 2 * 50 + 4


def test_heat_normalizes_only_its_denormalized_blocks(monkeypatch):
    # heat's recurrence multiplies by s = 1, so its rows never leave the
    # mantissa range: a deeper solve adds only _denormalize's K.mul blocks,
    # each of at most K.BLOCK_CELLS cells
    normalize = _count_calls(monkeypatch, K, "normalize")
    counts = {}
    for trunc_t in (50, 200):
        need = required_z_truncation(L - Z**2, 1, trunc_t)
        prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                          data=geometric_data(1, need + 21), trunc_t=trunc_t)
        monkeypatch.setattr(moments, "_tables", {})  # same table builds
        normalize[0] = 0
        solve_constant_leading(prob)
        counts[trunc_t] = normalize[0]
    blocks = {t: -(-(t + 1) // K.block_rows(21)) for t in counts}
    assert blocks == {50: 1, 200: 1}
    assert counts[200] - counts[50] == blocks[200] - blocks[50]


def test_grid_blocks_are_sized_by_cells():
    assert K.block_rows(21) > 200  # a 201 x 21 grid is one block
    assert K.block_rows(201) == 32
    assert K.block_rows(K.BLOCK_CELLS + 1) == 1


def scan_every_row_solve(prob):
    """solve_constant_leading's recurrence with no carried bounds.

    Each row is built as a new array from its terms, and a scan of its
    mantissas decides on every row whether it is normalized.
    """
    P, m1, m2, kappa = prob.P, prob.m1, prob.m2, prob.kappa
    n_lam, nt, nz_in = P.lam_degree, prob.trunc_t, prob.trunc_z
    cm = np.zeros((nt + 1, nz_in + 1), dtype=np.complex128)
    ce = np.zeros((nt + 1, nz_in + 1), dtype=np.int64)
    valid = np.zeros(nt + 1, dtype=np.int64)
    for j in range(n_lam):
        row = ms.solver._normalized_data_row(prob.data[j], m1, m2)
        cm[j, :len(row)] = row.mant
        ce[j, :len(row)] = row.exp10
        valid[j] = nz_in + 1
    inv_p0 = ScaledComplex.from_complex(-1.0 / P.leading_constant())
    lower = [(a, b * kappa, inv_p0 * p_ab)
             for (a, b), p_ab in P.coeffs.items() if a < n_lam]
    for j2 in range(n_lam, nt + 1):
        j = j2 - n_lam
        width = min(valid[j + a] - shift for a, shift, _ in lower)
        (a, shift, s), *rest = lower
        acc_m = cm[j + a, shift:shift + width] * s.mantissa
        acc_e = ce[j + a, shift:shift + width] + s.exp10
        for a, shift, s in rest:
            acc_m, acc_e = K._aligned_sum(
                acc_m, acc_e, cm[j + a, shift:shift + width] * s.mantissa,
                ce[j + a, shift:shift + width] + s.exp10)
        mag = np.abs(acc_m)
        if (mag.max() > ms.solver._ROW_MANT_MAX
                or mag.min(where=mag > 0.0, initial=np.inf)
                < ms.solver._ROW_MANT_MIN):
            acc_m, acc_e = K.normalize(acc_m, acc_e)
        cm[j2, :width] = acc_m
        ce[j2, :width] = acc_e
        valid[j2] = width
    nz = int(valid.min())
    return ms.solver._denormalize(cm[:, :nz], ce[:, :nz], kappa, m1, m2)


GAMMA_2 = MomentFunction.gamma(2)


def data_file_problem(name, m2, trunc_t, width=21):
    """tests/data/<name>.mpde at trunc_t with moment m2 and `width` columns."""
    from pathlib import Path

    text = (Path(__file__).parent / "data" / f"{name}.mpde").read_text(
        encoding="utf-8")
    prob = ms.parse_problem(text).to_problem()
    need = required_z_truncation(prob.P, prob.kappa, trunc_t) + width
    text = re.sub(r"(?m)^trunc_t:.*$", f"trunc_t: {trunc_t};", text)
    text = re.sub(r"(?m)^trunc_z:.*$", f"trunc_z: {need - 1};", text)
    return dataclasses.replace(ms.parse_problem(text).to_problem(), m2=m2)


def equation_problem(P, m2, trunc_t=200, width=21, nan_at=None):
    """P with data 1/(1-z) in every row, `width` output columns; nan_at
    puts a NaN into the first row's datum at that index."""
    nz = required_z_truncation(P, 1, trunc_t) + width
    data = list(geometric_data(P.lam_degree, nz))
    if nan_at is not None:
        c = np.ones(nz, dtype=np.complex128)
        c[nan_at] = np.nan
        data[0] = RamifiedSeries.from_complex(1, c)
    return PdeProblem(P=P, m1=GAMMA_1, m2=m2, data=tuple(data),
                      trunc_t=trunc_t)


BOUND_CASES = {
    "heat": lambda m2: data_file_problem("heat", m2, 200),
    "wave": lambda m2: data_file_problem("wave", m2, 200, width=201),
    "divergent_data": lambda m2: data_file_problem("divergent_data", m2, 200),
    "(L-3Z)(L+7Z)": lambda m2: equation_problem(
        (L - Z.scale(3.0)) * (L + Z.scale(7.0)), m2),
    "L-1e7Z": lambda m2: equation_problem(L - Z.scale(1e7), m2),
    "L-(2+3i)Z^2": lambda m2: equation_problem(L - (Z**2).scale(2 + 3j), m2),
    "L-1e-9Z": lambda m2: equation_problem(L - Z.scale(1e-9), m2),
    "(L-Z)(L+2Z)(L-(1+i)Z)": lambda m2: equation_problem(
        (L - Z) * (L + Z.scale(2.0)) * (L - Z.scale(1 + 1j)), m2, trunc_t=120),
    "L-3Z with a NaN datum": lambda m2: equation_problem(
        L - Z.scale(3.0), m2, nan_at=150),
}


@pytest.mark.parametrize("m2", [GAMMA_1, GAMMA_2],
                         ids=["Gamma(1)", "Gamma(2)"])
@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_carried_bounds_give_the_scanned_grid(name, m2):
    # rows whose bounds certify them inside the range skip the scan; the
    # grid is bit for bit the one a scan of every row gives
    prob = BOUND_CASES[name](m2)
    u, ref = solve_constant_leading(prob), scan_every_row_solve(prob)
    assert u.mant.shape == ref.mant.shape
    assert u.mant.tobytes() == ref.mant.tobytes()
    assert np.array_equal(u.exp10, ref.exp10)


def test_heat_scans_no_row(monkeypatch):
    scans = _count_calls(monkeypatch, ms.solver, "_leaves_range")
    solve_constant_leading(data_file_problem("heat", GAMMA_1, 200))
    assert scans[0] == 0


def test_single_term_rows_are_scanned_only_near_the_range_edge(monkeypatch):
    # |s| = 3.6 takes about 90 rows from a normalized row out of the range;
    # a scanned row's bounds come from its mantissas, so the rows after a
    # normalize skip the scan again
    scans = _count_calls(monkeypatch, ms.solver, "_leaves_range")
    solve_constant_leading(equation_problem(L - (Z**2).scale(2 + 3j),
                                            GAMMA_1))
    assert 1 <= scans[0] <= 4


def test_large_unit_mantissa_keeps_its_normalizes(monkeypatch):
    # s = 1e7 has mantissa 1: no row is scanned, and the normalize count is
    # that of a scan of every row
    prob = equation_problem(L - Z.scale(1e7), GAMMA_1)
    normalize = _count_calls(monkeypatch, K, "normalize")
    monkeypatch.setattr(moments, "_tables", {})  # same table builds
    scan_every_row_solve(prob)
    want, normalize[0] = normalize[0], 0
    scans = _count_calls(monkeypatch, ms.solver, "_leaves_range")
    monkeypatch.setattr(moments, "_tables", {})
    solve_constant_leading(prob)
    assert normalize[0] == want
    assert scans[0] == 0


def worst_error(u, exact):
    """Largest |u_jn - exact(j, n)| / max(|exact(j, n)|, 1) over the grid.

    Each cell is read as the exact rational mant * 10**exp10.
    """
    worst = 0.0
    for j in range(u.mant.shape[0]):
        for n in range(u.mant.shape[1]):
            want = exact(j, n)
            m = complex(u.mant[j, n])
            p10 = Fraction(10) ** int(u.exp10[j, n])
            err = (abs(Fraction(m.real) * p10 - want)
                   + abs(Fraction(m.imag)) * p10) / max(abs(want), 1)
            worst = max(worst, float(err))
    return worst


def test_heat_grid_matches_exact_integers_at_depth():
    # coefficient of t^j z^n is (2j+n)!/(j! n!), far past double range
    trunc_t, width = 200, 21
    need = required_z_truncation(L - Z**2, 1, trunc_t)
    prob = PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(1, need + width), trunc_t=trunc_t)
    u = solve_constant_leading(prob)
    assert u.mant.shape == (trunc_t + 1, width)
    assert worst_error(u, lambda j, n: math.factorial(2 * j + n)
                       // (math.factorial(j) * math.factorial(n))) <= 1e-12


def exact_normalized_rows(P, trunc_t, nz):
    """Integer rows c_jn of the recurrence for data 1/(1-z) in every row.

    With Gamma(1) moments a data row is c_jn = n!, and for P with integer
    coefficients and P_0 = 1 each further row is an integer combination of
    earlier ones; u_jn = c_jn / (j! n!).
    """
    n_lam = P.lam_degree
    lower = [(a, b, -int(p.real)) for (a, b), p in P.coeffs.items()
             if a < n_lam]
    c = [[math.factorial(n) for n in range(nz)] for _ in range(n_lam)]
    for j in range(trunc_t + 1 - n_lam):
        w = min(len(c[j + a]) - b for a, b, _ in lower)
        c.append([sum(p * c[j + a][n + b] for a, b, p in lower)
                  for n in range(w)])
    return c


@pytest.mark.parametrize("P, rescued", [
    # s = -4 and 21: mantissas grow until the row is renormalized
    ((L - Z.scale(3.0)) * (L + Z.scale(7.0)), True),
    # s = 2 and -1: cancelling terms, mantissas stay in range
    ((L - Z) ** 2, False),
], ids=["L-3Z_L+7Z", "L-Z_squared"])
def test_recurrence_matches_exact_integer_recurrence(monkeypatch, P, rescued):
    leaves = []
    leaves_range = ms.solver._leaves_range

    def recorded(m):
        leaves.append(leaves_range(m))
        return leaves[-1]

    monkeypatch.setattr(ms.solver, "_leaves_range", recorded)
    trunc_t, width = 200, 21
    nz = required_z_truncation(P, 1, trunc_t) + width
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(2, nz), trunc_t=trunc_t)
    u = solve_constant_leading(prob)
    assert u.mant.shape == (trunc_t + 1, width)
    assert any(leaves) == rescued
    c = exact_normalized_rows(P, trunc_t, nz)
    assert worst_error(u, lambda j, n: Fraction(
        c[j][n], math.factorial(j) * math.factorial(n))) <= 1e-12
