import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msumma as ms
from msumma import _kernels as K
from msumma import moments
from msumma import (CharPolynomial, GAMMA_1, MomentFunction, PdeProblem,
                    RamifiedSeries, decompose, solve_constant_leading,
                    solve_simple, sum_pieces)
from msumma.scaled import ScaledComplex
from msumma.solver import required_z_truncation

from conftest import biseries_to_array, cross_solver_deviation, random_series

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


def block_rule(P, kappa, trunc_t):
    """The earlier rule: every block of n_lam rows consumes max_b * kappa
    z-orders, with max_b the largest zeta degree of P."""
    n_lam = P.lam_degree
    max_b = max(b for _, b in P.coeffs)
    return max(0, -(-(trunc_t + 1 - n_lam) // n_lam)) * max_b * kappa


@pytest.mark.parametrize("name", ["heat", "divergent_data", "wave"])
def test_truncation_rule_keeps_the_data_files_sizes(name):
    # the benchmark harness sizes its problems by required_z_truncation
    from pathlib import Path

    pf = ms.parse_problem((Path(__file__).parent / "data" / f"{name}.mpde")
                          .read_text(encoding="utf-8"))
    for trunc_t in range(201):
        assert (required_z_truncation(pf.equation, pf.kappa, trunc_t)
                == block_rule(pf.equation, pf.kappa, trunc_t))


@pytest.mark.parametrize("P, kappa", [
    (L - Z**2, 1),
    ((L - Z) * (L + Z), 1),
    ((L - Z**2) * (L - Z**3), 1),
    ((L - Z) * (L - Z**2), 1),
    ((L - Z) * (L + Z.scale(2.0)), 2),
], ids=["heat", "wave", "(L-Z^2)(L-Z^3)", "(L-Z)(L-Z^2)", "kappa=2"])
def test_required_truncation_is_the_smallest_that_solves(P, kappa):
    for trunc_t in range(13):
        need = required_z_truncation(P, kappa, trunc_t)
        data = tuple(RamifiedSeries.from_complex(kappa, np.ones(need + 1))
                     for _ in range(P.lam_degree))
        u = solve_constant_leading(PdeProblem(
            P=P, m1=GAMMA_1, m2=GAMMA_1, data=data, trunc_t=trunc_t))
        assert u.mant.shape == (trunc_t + 1, 1)
        if need == 0:
            continue
        short = tuple(d.truncate_to(need - 1) for d in data)
        with pytest.raises(ms.TruncationError,
                           match=f"trunc_z >= {need} \\(got {need - 1}\\)"):
            solve_constant_leading(PdeProblem(
                P=P, m1=GAMMA_1, m2=GAMMA_1, data=short, trunc_t=trunc_t))


def test_truncation_rule_counts_each_terms_rows():
    # (L - Z^2)(L - Z^3) = L^2 - (Z^2 + Z^3) L + Z^5: the term L Z^3
    # consumes 3 orders per row, more than Z^5's 5 per 2 rows
    P = (L - Z**2) * (L - Z**3)
    assert [required_z_truncation(P, 1, t) for t in range(6)] == \
        [0, 0, 5, 8, 11, 14]
    assert block_rule(P, 1, 5) == 10


def test_equation_without_lower_term_keeps_its_data():
    # L u = 0 has u(t, z) = phi(z): row 0 is the data, every later row is
    # exactly zero and reads no data, so the rows need no z-orders
    assert required_z_truncation(L, 1, 5) == 0
    c = 1.0 / np.arange(1, 12)
    phi = RamifiedSeries.from_complex(1, c)
    u = solve_constant_leading(PdeProblem(P=L, m1=GAMMA_1, m2=GAMMA_1,
                                          data=(phi,), trunc_t=5))
    grid = biseries_to_array(u)
    assert grid.shape == (6, 11)
    # exactly the datum as stored (its scaled 1/9 and 1/11 are an ulp off)
    np.testing.assert_array_equal(
        grid[0], [phi.coeff_complex(n) for n in range(11)])
    assert np.all(u.mant[1:] == 0)


def test_data_of_unequal_lengths_are_cut_to_the_shortest(rng):
    long, short = (RamifiedSeries.from_complex(1, rng.normal(size=n))
                   for n in (14, 11))
    P = (L - Z) * (L + Z)
    u = solve_constant_leading(PdeProblem(
        P=P, m1=GAMMA_1, m2=GAMMA_1, data=(long, short), trunc_t=4))
    ref = solve_constant_leading(PdeProblem(
        P=P, m1=GAMMA_1, m2=GAMMA_1, data=(long.truncate_to(10), short),
        trunc_t=4))
    assert u.mant.shape == (5, 11 - required_z_truncation(P, 1, 4))
    assert u == ref


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


ONE = CharPolynomial.const(1.0)


@pytest.mark.parametrize("P, kappa", [
    ((L - Z) * (L - Z**2) * (L - Z**3), 1),
    ((L - Z) ** 2 * (L - Z**2), 1),
    ((L - ONE.scale(2.0)) * (L - Z), 1),
    ((L - ONE.scale(2.0)) * (L - Z), 2),
    (L**2 - Z, 2),
], ids=["three levels", "double root below the top", "q=0 kappa=1",
        "q=0 kappa=2", "L^2-Z kappa=2"])
def test_cross_solver_root_configurations(P, kappa, rng):
    # nonzero piece shifts C (three levels, two pieces below the top), a
    # q = 0 level and a level on the 1/2 grid
    data = tuple(random_series(rng, kappa=kappa, n=70)
                 for _ in range(P.lam_degree))
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1, data=data, trunc_t=6)
    assert cross_solver_deviation(prob) < 1e-12


@pytest.mark.parametrize("P", [(L - Z**2) * (L + Z**2),
                               (L - Z**2) * (L - Z**3),
                               (L - Z) ** 2 * (L - Z**2)],
                         ids=["one level", "two levels", "C > 0"])
def test_decompose_pieces_do_not_depend_on_the_window(P, rng):
    # step m of the sweep reads the data up to index m only: a longer
    # window leaves the common prefix of every piece bit for bit
    data = tuple(random_series(rng, n=120) for _ in range(P.lam_degree))

    def pieces(nw):
        return decompose(PdeProblem(
            P=P, m1=GAMMA_1, m2=GAMMA_1, trunc_t=6,
            data=tuple(d.truncate_to(nw - 1) for d in data)))

    for short, long in zip(pieces(60), pieces(120)):
        k = len(short.psi)
        assert k >= 59
        assert short.psi.mant.tobytes() == long.psi.mant[:k].tobytes()
        assert np.array_equal(short.psi.exp10, long.psi.exp10[:k])


def test_decompose_plus_minus_example_is_exact():
    # data built forward from psi+ = 1/(1-z) and psi- = (1 + z)/2 on
    # (L - Z^2)(L + Z^2); in the gauge (d^-1 adds no constant) the shared
    # kernel, indices 0 and 1, is split evenly: psi+ - 1/4 - z/4 and
    # psi- + 1/4 + z/4, up to the rounding of the moment tables (about
    # 1e-14 relative at z^40)
    nw = 40
    plus, minus = np.ones(nw + 2), np.zeros(nw + 2)
    minus[:2] = 0.5
    k = np.arange(nw)
    d2 = lambda c: c[k + 2] * (k + 1) * (k + 2)  # Gamma(1) d^2 on z^k
    phi = ((plus + minus)[:nw], d2(plus) - d2(minus))
    prob = PdeProblem(P=(L - Z**2) * (L + Z**2), m1=GAMMA_1, m2=GAMMA_1,
                      data=tuple(RamifiedSeries.from_complex(1, c)
                                 for c in phi), trunc_t=5)
    want = {1.0: np.r_[0.75, 0.75, np.ones(nw - 2)],
            -1.0: np.r_[0.75, 0.75, np.zeros(nw - 2)]}
    pieces = decompose(prob)
    assert len(pieces) == 2
    for piece in pieces:
        got = piece.psi.coeffs_complex()
        assert len(got) == nw
        assert np.abs(got - want[piece.root.leading.real]).max() <= 1e-13


def test_decompose_one_level_gauge_rows(rng):
    # one level p = 2 with three roots: row a has the shift R_a = 2a, and
    # its rows j < 0 are the gauge sum_u lam_u^a psi_u[k] = 0 for k < 2a
    P = (L - Z**2) * (L + Z**2) * (L - (Z**2).scale(1j))
    data = tuple(random_series(rng, n=60) for _ in range(3))
    pieces = decompose(PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1, data=data,
                                  trunc_t=6))
    lam = np.array([pc.root.leading for pc in pieces])
    psi = np.array([pc.psi.coeffs_complex() for pc in pieces])
    scale = np.abs(psi).max()
    for a in (1, 2):
        gauge = (lam[:, None] ** a * psi[:, :2 * a]).sum(axis=0)
        assert np.abs(gauge).max() <= 1e-15 * scale
    # row 0 at j = k is the datum itself
    np.testing.assert_allclose(psi.sum(axis=0), data[0].coeffs_complex(),
                               rtol=0, atol=1e-15 * scale)


# leading coefficients of a level's roots: distinct, so each level's
# confluent Vandermonde rows are well conditioned
LEADS = (1.0, -1.0, 2j, -0.5 + 0.5j)


@st.composite
def root_configurations(draw):
    """P = prod (L - lam Z^q)^beta, q in 0..3, beta <= 2, degree <= 4."""
    P, n, used = CharPolynomial.const(1.0), 0, set()
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(0, 3))
        lam = draw(st.sampled_from(LEADS))
        beta = draw(st.integers(1, 2))
        if (q, lam) in used or n + beta > 4:
            continue
        used.add((q, lam))
        n += beta
        P = P * (L - (Z**q).scale(lam)) ** beta
    return P


def piece_sum_deviation(prob):
    """Gap between the two solvers relative to the summed piece magnitudes
    sum_u |u_u|, the error scale of a floating-point sum of the pieces.

    A +-lam pair cancels in the sum: on L^2 - Z^6 the odd rows are
    psi+ - psi- = d^-3 phi_1, far below the pieces, so a gap measured
    against the grid maximum reads their rounding as 1e-11.
    """
    u1 = ms.solve_constant_leading(prob)
    pieces = decompose(prob)
    u2 = sum_pieces(pieces)
    nt = min(u1.trunc_t, u2.trunc_t)
    nz = min(u1.trunc_z, u2.trunc_z)
    a = biseries_to_array(u1.truncate_to(nt, nz))
    b = biseries_to_array(u2.truncate_to(nt, nz))
    mag = sum(np.abs(biseries_to_array(pc.solution.truncate_to(nt, nz)))
              for pc in pieces)
    return float(np.abs(a - b).max() / max(1.0, mag.max()))


@given(root_configurations(), st.integers(0, 2**32 - 1))
@example(L**2 - Z**6, 0)
@settings(max_examples=25, deadline=None)
def test_cross_solver_random_root_configurations(P, seed):
    rng = np.random.default_rng(seed)
    data = tuple(random_series(rng, n=70) for _ in range(P.lam_degree))
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1, data=data, trunc_t=5)
    assert piece_sum_deviation(prob) < 1e-12


def test_decompose_plus_minus_pair_at_level_three(rng):
    # (L - Z^3)(L + Z^3): psi+- = (phi_0 +- d^-3 phi_1) / 2, d^-1 adding
    # no constant
    data = tuple(random_series(rng, n=70) for _ in range(2))
    prob = PdeProblem(P=L**2 - Z**6, m1=GAMMA_1, m2=GAMMA_1, data=data,
                      trunc_t=5)
    phi0, phi1 = (d.coeffs_complex() for d in data)
    k = np.arange(3, 70)
    inv3 = np.r_[0, 0, 0, phi1[:-3] / (k * (k - 1) * (k - 2))]
    for piece in decompose(prob):
        want = (phi0 + piece.root.leading * inv3) / 2
        got = piece.psi.coeffs_complex()
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_decompose_rejects_nonfactorizable():
    # lambda^2 - zeta^2 - 1 has non-monomial roots
    P = CharPolynomial({(2, 0): 1.0, (0, 2): -1.0, (0, 0): -1.0})
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1,
                      data=geometric_data(2, 20), trunc_t=4)
    with pytest.raises(ms.DecompositionError):
        decompose(prob)


def test_decompose_refuses_data_past_the_double_range():
    # gamma_coeffs(1) passes 1e308 near z^170 and the pieces are complex128:
    # the residual check refuses them, and no step warns on the way
    prob = data_file_problem("divergent_data", GAMMA_1, 10, width=171)
    assert prob.trunc_z == 180
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ms.DecompositionError, match="residual nan"):
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
    return ms.solver._denormalize(cm[:, :nz], ce[:, :nz], kappa, m1, m2,
                                  prob.data)


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


@pytest.mark.parametrize("name", ["heat", "wave", "divergent_data"])
def test_data_rows_are_the_data(name):
    # row j < n_lam of u is d^j_{m1,t} u(0, z) = phi_j times m1(0)/m1(j),
    # which is one for Gamma(1) at j = 0, 1: the datum's own bits
    prob = data_file_problem(name, GAMMA_1, 200)
    u = solve_constant_leading(prob)
    width = u.mant.shape[1]
    assert len(prob.data) == prob.P.lam_degree
    for j, phi in enumerate(prob.data):
        assert u.mant[j].tobytes() == phi.mant[:width].tobytes()
        assert np.array_equal(u.exp10[j], phi.exp10[:width])


def test_data_row_carries_the_moment_ratio():
    # with m1 = Gamma(2), m1(1) = Gamma(3) = 2: row 1 of the wave solution
    # is its datum z halved
    prob = dataclasses.replace(data_file_problem("wave", GAMMA_1, 20),
                               m1=GAMMA_2)
    row = biseries_to_array(solve_constant_leading(prob))[1]
    want = np.zeros(len(row))
    want[1] = 0.5
    np.testing.assert_allclose(row, want, rtol=1e-15, atol=0)


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
