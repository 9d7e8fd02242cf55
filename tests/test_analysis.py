import json
import math
from fractions import Fraction

import numpy as np
import pytest

import msumma as ms
from msumma import (CharPolynomial, GAMMA_1, PdeProblem, RamifiedSeries,
                    borel_singularities, estimate_gevrey, summability_verdict)
from msumma.analysis import (direction_verdict, fitted_growth_order,
                             multidirection_admissible, SingularitySet,
                             singular_triples)

L = CharPolynomial.lam()
Z = CharPolynomial.zeta()


def factorial_series(sigma, n=60, scale=1.0):
    import msumma.scaled as sc
    lge = math.log10(math.e)
    vals = [sc.ScaledComplex.from_log10(
        (math.lgamma(1.0 + sigma * j) + j * math.log(scale)) * lge)
        for j in range(n)]
    return RamifiedSeries.from_scaled(1, vals)


def heat_problem(trunc_t=19, nz=41):
    data = (RamifiedSeries.from_complex(1, np.ones(nz)),)
    return PdeProblem(P=L - Z**2, m1=GAMMA_1, m2=GAMMA_1, data=data,
                      trunc_t=trunc_t)


# -- Gevrey order estimation ------------------------------------------------

@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.0])
def test_gevrey_order_recovered(sigma):
    est = estimate_gevrey(factorial_series(sigma))
    assert abs(est.order_hat - sigma) < 0.05


def test_gevrey_geometric_is_order_zero():
    a = RamifiedSeries.from_complex(1, [3.0**j for j in range(50)])
    est = estimate_gevrey(factorial_series(0.0, scale=3.0))
    assert abs(est.order_hat) < 0.05
    assert abs(estimate_gevrey(a).order_hat) < 0.05


def test_gevrey_with_zero_coefficients():
    # zeros are thinned out of the regression window
    c = [float(math.factorial(j)) if j % 2 == 0 else 0.0 for j in range(40)]
    est = estimate_gevrey(RamifiedSeries.from_complex(1, c))
    assert abs(est.order_hat - 1.0) < 0.1


def test_gevrey_window_too_small():
    with pytest.raises(ms.SemanticError):
        estimate_gevrey(RamifiedSeries.from_complex(1, [1.0, 2.0, 3.0]))


def test_gevrey_window_matches_the_finite_coefficients():
    c = [float(math.factorial(j)) if j % 3 else 0.0 for j in range(40)]
    a = RamifiedSeries.from_complex(1, c)
    logs = a.log10_abs() / math.log10(math.e)
    idx, L, window = ms.analysis._log_window(a)
    assert window == (2, 39)
    want = [j for j in range(2, 40) if math.isfinite(logs[j])]
    assert idx.tolist() == want
    assert L.tobytes() == logs[want].tobytes()


def lstsq_gevrey(a):
    """estimate_gevrey by two np.linalg.lstsq solves and one inverse, each
    built from the series' own window on every call."""
    idx, L, win = ms.analysis._log_window(a)
    jj = idx.astype(float)
    X = np.stack([jj * np.log(jj), jj, np.log(jj), np.ones_like(jj)], axis=1)
    coef = np.linalg.lstsq(X, L, rcond=None)[0]
    resid = L - X @ coef
    s2 = float(resid @ resid) / max(1, len(idx) - 4)
    stderr_reg = math.sqrt(max(s2 * np.linalg.inv(X.T @ X)[0, 0], 0.0))
    sigma_reg = float(coef[0])
    step = idx[1:] == idx[:-1] + 1
    sigma_ratio = sigma_reg
    if np.count_nonzero(step) >= 4:
        js = idx[:-1][step].astype(float)
        sj = np.diff(L)[step] / np.log(js)
        A = np.stack([np.ones_like(js), 1.0 / np.log(js)], axis=1)
        sigma_ratio = float(np.linalg.lstsq(A, sj, rcond=None)[0][0])
    return sigma_reg, max(stderr_reg, abs(sigma_ratio - sigma_reg) / 2.0), win


def seeded_gevrey_series(seed, n, sigma, kind):
    """|c_j| = Gamma(1 + |sigma| j)^sign(sigma) 2^j with seeded noise of
    0.05 in log10; "complex" adds seeded phases, "zeros" clears every odd
    index, as in wave's u(t, 0)."""
    rng = np.random.default_rng(seed)
    j = np.arange(n)
    lg = (np.sign(sigma) * np.array([math.lgamma(1 + abs(sigma) * k)
                                     for k in j]) * math.log10(math.e)
          + j * math.log10(2.0) + 0.05 * rng.standard_normal(n))
    mant, exp = ms.scaled.from_log10_array(lg)
    if kind == "complex":
        mant = mant * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
    if kind == "zeros":
        mant = np.where(j % 2 == 0, mant, 0)
    return RamifiedSeries(1, mant, exp, normalized=True)


@pytest.mark.parametrize("kind", ["real", "complex", "zeros"])
@pytest.mark.parametrize("sigma", [1.0, 2.0, 0.5, -1.0],
                         ids=["gevrey1", "gevrey2", "gevrey1/2",
                              "factorial-decay"])
@pytest.mark.parametrize("n", [10, 17, 41, 121, 201, 421])
def test_gevrey_operators_match_lstsq(n, sigma, kind):
    a = seeded_gevrey_series(n, n, sigma, kind)
    if kind == "zeros" and n < 17:  # fewer than 8 nonzero from j = 2
        with pytest.raises(ms.SemanticError):
            estimate_gevrey(a)
        return
    order, stderr, window = lstsq_gevrey(a)
    est = estimate_gevrey(a)
    assert est.window == window
    assert abs(est.order_hat - order) <= 1e-12 * abs(order)
    assert abs(est.stderr - stderr) <= 1e-12 * stderr


def test_gevrey_operators_are_kept_per_window(monkeypatch):
    ops = {}
    monkeypatch.setattr(ms.analysis, "_gevrey_ops", ops)
    estimate_gevrey(seeded_gevrey_series(0, 41, 1.0, "real"))
    (X, rows, _), = kept = list(ops.values())
    assert not X.flags.writeable and not rows.flags.writeable
    # a fresh series on the same window reuses its operators
    estimate_gevrey(seeded_gevrey_series(1, 41, 1.0, "real"))
    assert len(ops) == 1 and next(iter(ops.values())) is kept[0]

    # equal length, other zero patterns: operators of their own
    def with_zeros(at):
        a = seeded_gevrey_series(0, 41, 1.0, "real")
        mant = a.mant.copy()
        mant[at] = 0
        return RamifiedSeries(1, mant, a.exp10, normalized=True)

    estimate_gevrey(with_zeros([7, 9]))
    estimate_gevrey(with_zeros([7, 11]))
    assert len(ops) == 3
    (X1, rows1, _), (X2, rows2, _) = list(ops.values())[1:]
    assert X1.shape == X2.shape
    assert not np.array_equal(X1, X2)
    assert not np.array_equal(rows1, rows2)


def test_gevrey_operator_dict_stays_under_its_cap(monkeypatch):
    ops = {}
    monkeypatch.setattr(ms.analysis, "_gevrey_ops", ops)
    cap = ms.analysis._GEVREY_OPS_CAP
    lengths = range(12, 12 + cap + 5)  # one window, 2..n-1, per length n
    for n in lengths:
        estimate_gevrey(seeded_gevrey_series(n, n, 1.0, "real"))
        assert len(ops) <= cap
    # the oldest windows went first
    assert [X.shape[0] + 2 for X, _, _ in ops.values()] == \
        list(lengths[-cap:])


def test_heat_diagonal_is_gevrey_one():
    prob = heat_problem()
    from msumma import solve_constant_leading
    diag = solve_constant_leading(prob).extract_col(0)
    est = estimate_gevrey(diag)
    assert abs(est.order_hat - 1.0) < 0.05


# -- Borel-plane singularity detection --------------------------------------

def test_singularity_of_geometric_borel():
    a = RamifiedSeries.from_complex(1, [2.0**j for j in range(40)])
    s = borel_singularities(a)
    assert not s.inconclusive
    assert abs(s.points[0].location - 0.5) < 1e-3
    assert abs(s.ratio_modulus - 0.5) < 0.05


def test_entire_type_has_no_singularity():
    a = RamifiedSeries.from_complex(
        1, [1.0 / math.factorial(j) for j in range(40)])
    s = borel_singularities(a)
    assert s.points == ()
    assert not s.inconclusive


def test_short_series_is_inconclusive():
    s = borel_singularities(RamifiedSeries.from_complex(1, 2.0 ** np.arange(6)))
    assert s.inconclusive
    assert s.points == ()


def test_complex_pole_location():
    p = 0.4 * np.exp(1j * 1.1)
    a = RamifiedSeries.from_complex(1, (1.0 / p) ** np.arange(40))
    s = borel_singularities(a)
    assert abs(s.points[0].location - p) < 1e-3


# -- growth order and direction machinery -----------------------------------

def test_fitted_growth_order_exponential():
    # radius-1/2 series: level-1 Borel continuation grows with order 1
    a = RamifiedSeries.from_complex(1, [2.0**j for j in range(40)])
    rho = fitted_growth_order(a, 1.0)
    assert abs(rho - 1.0) < 0.1


def triple_directions(points, q, lam, kappa):
    """The directions of singular_triples on a set of the given points."""
    sing = SingularitySet(points=points, method="pade_poles", trunc=40)
    return [d for d, _, _ in singular_triples(sing, q, lam, kappa)]


def test_singular_directions_square_root_level():
    pts = (ms.analysis.SingularPoint(0.25 + 0j, 1e-3),)
    dirs = triple_directions(pts, Fraction(2), 1.0, 1)
    assert any(abs(d) < 1e-9 or abs(d - 2 * math.pi) < 1e-9 for d in dirs)


def test_mod_2pi_stays_below_two_pi():
    # fmod(-1e-17, 2 pi) + 2 pi rounds to 2 pi, outside [0, 2 pi)
    assert ms.analysis._mod_2pi(-1e-17) == 0.0
    assert ms.analysis._mod_2pi(-1.0) == 2 * math.pi - 1.0
    pts = (ms.analysis.SingularPoint(1.0 - 1e-16j, 1e-3),)
    assert triple_directions(pts, Fraction(1), 1.0, 1) == [0.0]


def test_singular_directions_rotated_root():
    # arg lam shifts every singular direction by -arg lam
    pts = (ms.analysis.SingularPoint(0.5 + 0j, 1e-3),)
    lam = np.exp(0.8j)
    dirs = triple_directions(pts, Fraction(1), lam, 1)
    assert min(abs(d - (2 * math.pi - 0.8)) for d in dirs) < 1e-9


def test_direction_verdict_cases():
    clean = SingularitySet(points=(), method="pade_poles", trunc=40)
    v = direction_verdict(0.0, [(0.0, 0.25 + 0j, 0.0)], 2.0, 2.0, clean)
    assert v.verdict == "singular" and v.witness == 0.25 + 0j
    v = direction_verdict(0.05, [(0.0, 0.25 + 0j, 0.03)], 2.0, 2.0, clean)
    assert v.verdict == "inconclusive"
    v = direction_verdict(1.5, [(0.0, 0.25 + 0j, 0.0)], 2.0, 2.0, clean)
    assert v.verdict == "summable"
    v = direction_verdict(1.5, [(0.0, 0.25 + 0j, 0.0)], 9.0, 2.0, clean)
    assert v.verdict == "inconclusive"


def test_multidirection_bound():
    levels = [(Fraction(3), Fraction(2)), (Fraction(1), Fraction(1))]
    # bound = pi (1 - 1/2) / 2 = pi/4
    assert multidirection_admissible(levels, [0.0, 0.5]) == [True]
    assert multidirection_admissible(levels, [0.0, 1.0]) == [False]
    assert multidirection_admissible(levels, [0.0]) == []


# -- full verdict pipeline ---------------------------------------------------

def test_heat_verdicts():
    report = summability_verdict(heat_problem(), [0.0, math.pi / 2, math.pi])
    assert report.levels == ((Fraction(2), Fraction(1)),)
    per = report.verdicts[0]
    assert per[0].verdict == "singular"
    # witness is the data-plane singularity of phi = 1/(1-z)
    assert abs(per[0].witness - 1.0) < 1e-3
    assert per[1].verdict == "summable"
    assert per[2].verdict == "summable"
    assert abs(per[1].evidence["growth_order"] - 2.0) < 0.1
    assert report.overall() == "singular"


def test_report_serialization():
    report = summability_verdict(heat_problem(), [0.0, math.pi])
    d = json.loads(report.to_json())
    assert d["schema"].startswith("summability_report")
    assert d["levels"] == [["2", "1"]]
    assert d["verdicts"][0][0]["verdict"] == "singular"
    assert isinstance(d["tolerances"]["angular_tol_rad"], float)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "level_q,level_K,direction,verdict,witness"
    assert len(lines) == 3


def test_verdict_from_plain_series():
    # a bare Gevrey-1 series can be analysed without an equation
    a = factorial_series(1.0, n=40)
    report = summability_verdict(a, [math.pi / 2],
                                 levels=[(Fraction(1), Fraction(1))])
    assert report.verdicts[0][0].verdict in ("summable", "inconclusive")


def two_pole_coefficients(n=60):
    """c_j = j! ((-0.5)^-j + e^{-0.3ij}): Borel poles at -0.5 and e^{0.3i}."""
    return [math.factorial(j) * ((-0.5) ** -j + np.exp(-0.3j * j))
            for j in range(n)]


def two_pole_problem():
    """L - Z with Gamma(1) moments and the two-pole data at gevrey_s 1:
    u(t, 0) = phi(t), so its level is 1 and its Borel poles are phi's."""
    phi = RamifiedSeries.from_complex(1, two_pole_coefficients())
    return PdeProblem(P=L - Z, m1=GAMMA_1, m2=GAMMA_1, data=(phi,),
                      gevrey_s=1, trunc_t=phi.trunc)


def test_series_verdict_pairs_each_direction_with_its_pole():
    # Borel poles at -0.5 and e^{0.3i}: the directions come sorted by
    # angle (0.3, pi), the poles by modulus (-0.5 first); each verdict
    # must name the pole on its own ray, and the cone of that pole, on
    # the bare series and on the problem whose data row it is
    from msumma.analysis import ANGULAR_TOL

    near = ANGULAR_TOL + 5e-4  # inside the 1e-3 cones, outside the tolerance
    dirs = [0.3, math.pi, 0.3 + near, math.pi - near]
    a = RamifiedSeries.from_complex(1, two_pole_coefficients())
    for report in (summability_verdict(a, dirs, levels=[(1, 1)]),
                   summability_verdict(two_pole_problem(), dirs)):
        points = report.singularities[0].points
        assert len(points) == 2
        assert report.singular_directions[0] == pytest.approx(
            (0.3, math.pi))
        poles = {"ray": points[1], "neg": points[0]}
        assert abs(poles["ray"].location - np.exp(0.3j)) < 1e-6
        assert abs(poles["neg"].location + 0.5) < 1e-6
        expect = ["ray", "neg", "ray", "neg"]
        verdicts = report.verdicts[0]
        assert [v.verdict for v in verdicts] == ["singular"] * 2 + [
            "inconclusive"] * 2
        for v, which in zip(verdicts, expect):
            assert v.witness == poles[which].location
        for v, which in zip(verdicts[2:], expect[2:]):
            p = poles[which]
            assert v.evidence["confidence_cone"] == \
                p.radius / abs(p.location)


def test_problem_and_series_verdicts_agree():
    # the problem's verdicts and those of its u(t, 0) at the same levels
    from msumma import solve_constant_leading
    from msumma.analysis import ANGULAR_TOL

    prob = two_pole_problem()
    near = ANGULAR_TOL + 5e-4
    dirs = [0.0, 0.3, math.pi, 0.3 + near, math.pi - near, 2.0, 4.5]
    by_problem = summability_verdict(prob, dirs)
    diag = solve_constant_leading(prob).extract_col(0)
    by_series = summability_verdict(diag, dirs, levels=by_problem.levels)
    assert by_problem.levels == by_series.levels == ((1, 1),)
    assert [v.verdict for v in by_problem.verdicts[0]] == \
        [v.verdict for v in by_series.verdicts[0]]
    assert len(by_problem.singular_directions[0]) == 2
    assert by_problem.singular_directions[0] == pytest.approx(
        by_series.singular_directions[0], rel=0, abs=1e-9)
    for vp, vs in zip(by_problem.verdicts[0], by_series.verdicts[0]):
        assert (vp.witness is None) == (vs.witness is None)
        if vp.witness is not None:
            assert abs(vp.witness - vs.witness) < 1e-6


def test_all_clean_directions_summable():
    report = summability_verdict(heat_problem(), [math.pi / 2])
    assert report.overall() == "summable"


@pytest.mark.parametrize("rows", [2, 1])
def test_two_level_verdict_finds_each_rows_singularities_once(rows,
                                                              monkeypatch):
    # (L - Z^2)(L - Z^3) has two levels; each nonzero data row's
    # singularities are found once and read at both
    from msumma import analysis
    from msumma.solver import required_z_truncation

    P = (L - Z**2) * (L - Z**3)
    nz = required_z_truncation(P, 1, 16) + 1
    one = RamifiedSeries.from_complex(1, np.ones(nz))
    zero = RamifiedSeries.from_complex(1, np.zeros(nz))
    prob = PdeProblem(P=P, m1=GAMMA_1, m2=GAMMA_1,
                      data=(one, one if rows == 2 else zero), trunc_t=16)
    calls = []
    find = analysis.borel_singularities

    def counting(a, *args, **kwargs):
        calls.append(a)
        return find(a, *args, **kwargs)

    monkeypatch.setattr(analysis, "borel_singularities", counting)
    report = summability_verdict(prob, [0.0, math.pi])
    assert len(report.levels) == 2
    assert len(calls) == rows
    assert all(s.points for s in report.singularities)
