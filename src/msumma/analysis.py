"""Gevrey-order estimation, Borel-plane singularities, direction verdicts.

Everything here is numerical evidence, not proof: the estimators report
windows and standard errors, the singularity detector reports confidence
radii, and "inconclusive" is a first-class verdict whenever the numerics
do not support a definite claim.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characteristic import newton_polygon_roots, summability_levels
from .errors import SemanticError
from .moments import MomentFunction
from .operators import borel
from .pade import STABILITY_TOL, ratio_radius, stable_poles
from .series import RamifiedSeries

ANGULAR_TOL = math.radians(2.0)
SCHEMA_ID = "summability_report.v1"


# ---------------------------------------------------------------------------
# Gevrey order

@dataclass(frozen=True)
class GevreyEstimate:
    order_hat: float
    stderr: float
    window: tuple
    method: str


# Least-squares operators of estimate_gevrey, one per index window, keyed
# by the window's index bytes; the oldest is dropped past the cap.
_GEVREY_OPS_CAP = 32
_gevrey_ops: dict[bytes, tuple] = {}


def _log_window(a: RamifiedSeries):
    """Nonzero indices j >= 2, their natural logs and the window (2, trunc)."""
    logs = a.log10_abs() / math.log10(math.e)  # natural logs
    idx = 2 + np.flatnonzero(np.isfinite(logs[2:]))
    if len(idx) == 0:
        raise SemanticError("all coefficients from j = 2 vanish")
    if len(idx) < 8:
        raise SemanticError(
            f"need at least 8 nonzero coefficients from j = 2, got {len(idx)}")
    return idx, logs[idx], (2, a.trunc)


def _window_operators(idx: np.ndarray) -> tuple:
    """(X, rows, inv00) of estimate_gevrey's fits on the index window idx.

    X is the design matrix (j log j, j, log j, 1).  rows @ L gives the
    regression coefficients (rows 0-3, the pseudo-inverse of X) and the
    ratio-method intercept (row 4: the first row of the pseudo-inverse of
    (1, 1/log j) applied to the differences (L_{j+1} - L_j)/log j on the
    consecutive indices of the window; absent with fewer than 4 of them).
    inv00 is (X^T X)^-1 [0, 0].  Built once per window, read-only.
    """
    key = idx.tobytes()
    ops = _gevrey_ops.get(key)
    if ops is not None:
        return ops
    jj = idx.astype(float)
    X = np.stack([jj * np.log(jj), jj, np.log(jj), np.ones_like(jj)], axis=1)
    rows = np.linalg.pinv(X)
    step = np.flatnonzero(idx[1:] == idx[:-1] + 1)
    if len(step) >= 4:
        ljs = np.log(jj[step])
        A = np.stack([np.ones_like(ljs), 1.0 / ljs], axis=1)
        w = np.linalg.pinv(A)[0] / ljs
        ratio = np.zeros(len(idx))
        ratio[step + 1] += w
        ratio[step] -= w
        rows = np.vstack([rows, ratio])
    inv00 = float(np.linalg.inv(X.T @ X)[0, 0])
    X.setflags(write=False)
    rows.setflags(write=False)
    if len(_gevrey_ops) >= _GEVREY_OPS_CAP:
        del _gevrey_ops[next(iter(_gevrey_ops))]
    ops = _gevrey_ops[key] = (X, rows, inv00)
    return ops


def estimate_gevrey(a: RamifiedSeries) -> GevreyEstimate:
    """Gevrey order sigma of |c_j| ~ C^j Gamma(1 + sigma j).

    Regression of log|c_j| on (j log j, j, log j, 1) gives the estimate;
    the ratio method sigma_j = (L_{j+1}-L_j)/log j, extrapolated linearly
    in 1/log j, is the consistency check folded into the stderr.  Zero
    coefficients are thinned out of the window automatically.

    Both fits are applications of least-squares operators that depend on
    the index window only: they are built once per window
    (_window_operators) and agree with np.linalg.lstsq on the same
    systems to rounding.
    """
    idx, L, win = _log_window(a)
    X, rows, inv00 = _window_operators(idx)
    fit = rows @ L
    coef = fit[:4]
    sigma_reg = float(coef[0])
    dof = max(1, len(idx) - 4)
    resid = L - X @ coef
    s2 = float(resid @ resid) / dof
    stderr_reg = math.sqrt(max(s2 * inv00, 0.0))
    sigma_ratio = float(fit[4]) if len(fit) > 4 else sigma_reg
    stderr = max(stderr_reg, abs(sigma_ratio - sigma_reg) / 2.0)
    return GevreyEstimate(order_hat=sigma_reg, stderr=stderr, window=win,
                          method="regression")


# ---------------------------------------------------------------------------
# Borel-plane singularities

@dataclass(frozen=True)
class SingularPoint:
    location: complex
    radius: float


@dataclass(frozen=True)
class SingularitySet:
    points: tuple
    method: str
    trunc: int
    inconclusive: bool = False
    note: str = ""
    ratio_modulus: float = math.inf

    def to_dict(self) -> dict:
        return {"method": self.method, "trunc": self.trunc,
                "inconclusive": self.inconclusive, "note": self.note,
                "ratio_modulus": _jsonable(self.ratio_modulus),
                "points": [{"location": _jsonable(p.location),
                            "radius": p.radius} for p in self.points]}


def borel_singularities(a: RamifiedSeries) -> SingularitySet:
    """Singularities of the analytic continuation of a finite-radius series.

    Diagonal Pade pole clusters that stable_poles finds stable are
    reported: its three requests at N, N-1 and N-2 coefficients compare
    only two distinct approximants, and a numerically rational series
    (its [lam/rho] reproduces all N coefficients to RANK_TOL) answers
    all three at that verified type, so its poles are the exact ones to
    rounding.  Each series is ranked once, a rational one by the leading
    sub-block of its denominator block that certifies its type, and
    clustered once; both are kept with its approximants and shared with
    laplace_resum.  The ratio-test radius is reported alongside as
    ratio_modulus.
    With no stable pole the result is flagged inconclusive unless the
    coefficients decay (entire-type growth), which is a no-singularity
    finding.
    """
    method = "pade_poles"
    rr = ratio_radius(a)
    try:
        entire = estimate_gevrey(a).order_hat < -0.25
    except SemanticError:
        entire = False
    if entire or not math.isfinite(rr):
        return SingularitySet((), method, a.trunc, inconclusive=False,
                              ratio_modulus=rr,
                              note="coefficients decay; entire-type growth, "
                                   "no singularity detected")
    try:
        clusters = stable_poles(a)
    except ValueError:  # np.linalg.LinAlgError included
        clusters = []
    if clusters:
        pts = tuple(SingularPoint(location=c, radius=r) for c, r in clusters)
        return SingularitySet(pts, method, a.trunc, ratio_modulus=rr)
    return SingularitySet((), method, a.trunc, inconclusive=True,
                          ratio_modulus=rr,
                          note="finite ratio radius but no stable Pade pole")


# ---------------------------------------------------------------------------
# Directions and verdicts

def _mod_2pi(d: float) -> float:
    """d reduced into [0, 2 pi)."""
    out = math.fmod(d, 2.0 * math.pi)
    if out < 0:
        out += 2.0 * math.pi
        if out == 2.0 * math.pi:  # a tiny negative d rounds up to 2 pi
            out = 0.0
    return out


def singular_triples(sing: SingularitySet, q: Fraction, lam: complex,
                     kappa: int) -> list[tuple]:
    """(direction, witness, cone) for each point xi of sing and branch k.

    The direction is d = q(arg xi + 2 pi k) - arg lam reduced mod 2 pi,
    for the k = 0..q*kappa-1 branch rotations; the witness is xi and the
    cone its radius / |xi|.  Not deduplicated.
    """
    qf = float(q)
    n_branches = max(1, int(math.ceil(qf * kappa)))
    arg_lam = np.angle(lam)
    out = []
    for pt in sing.points:
        base = math.atan2(pt.location.imag, pt.location.real)
        cone = pt.radius / max(abs(pt.location), 1e-300)
        for k in range(n_branches):
            d = _mod_2pi(qf * (base + 2.0 * math.pi * k) - arg_lam)
            out.append((d, pt.location, cone))
    return out


def fitted_growth_order(a: RamifiedSeries, expected_rho: float) -> float:
    """Exponential-growth order of the continuation of a finite-radius series.

    The level-1/rho Borel transform of a radius-R series has entire order
    rho; measuring that order through the Gevrey estimator (order -1/rho)
    at the expected level returns the achieved rho.
    """
    w = borel(MomentFunction.gamma(Fraction(1) / Fraction(expected_rho)), a)
    est = estimate_gevrey(w)
    if est.order_hat >= -1e-3:
        return math.inf
    return -1.0 / est.order_hat


@dataclass(frozen=True)
class DirectionVerdict:
    direction: float
    verdict: str  # summable | singular | inconclusive
    witness: complex | None = None
    evidence: dict = field(default_factory=dict)


def _angular_gap(d1: float, d2: float) -> float:
    g = abs(_mod_2pi(d1) - _mod_2pi(d2))
    return min(g, 2.0 * math.pi - g)


def blocking(d: float, triples):
    """The first (direction, witness, cone) triple whose direction lies
    within ANGULAR_TOL plus its cone of d, else None.

    The gap is _angular_gap(d, direction), with d reduced once for all
    triples.
    """
    dm = _mod_2pi(d)
    for t in triples:
        g = abs(dm - _mod_2pi(t[0]))
        if min(g, 2.0 * math.pi - g) <= ANGULAR_TOL + t[2]:
            return t
    return None


def direction_verdict(d: float, triples, growth_order: float, qK: float,
                      singular_set: SingularitySet) -> DirectionVerdict:
    """Verdict at d from the (direction, witness, cone) triples of a level.

    The blocking triple makes d singular when its direction lies within
    ANGULAR_TOL of d, else inconclusive; with none, an inconclusive set
    or a growth order beyond 1.25 qK leaves d inconclusive, else it is
    summable.
    """
    hit = blocking(d, triples)
    if hit is not None:
        sd, witness, cone = hit
        ev = {"singular_direction": sd, "angular_gap": _angular_gap(d, sd)}
        if ev["angular_gap"] <= ANGULAR_TOL:
            return DirectionVerdict(d, "singular", witness, ev)
        return DirectionVerdict(d, "inconclusive", witness,
                                {**ev, "confidence_cone": cone})
    if singular_set.inconclusive:
        return DirectionVerdict(d, "inconclusive", None,
                                {"note": singular_set.note})
    ev = {"growth_order": growth_order, "expected_qK": qK}
    if math.isfinite(growth_order) and growth_order > qK * 1.25:
        return DirectionVerdict(d, "inconclusive", None,
                                {**ev, "note": "growth order exceeds budget"})
    return DirectionVerdict(d, "summable", None, ev)


def multidirection_admissible(levels, directions):
    """|d_j - d_{j-1}| <= pi (1/K_j - 1/K_{j-1}) / 2 for K descending."""
    flags = []
    for (q1, K1), (q2, K2), d1, d2 in zip(levels, levels[1:], directions,
                                          directions[1:]):
        bound = math.pi * (1.0 / float(K2) - 1.0 / float(K1)) / 2.0
        flags.append(_angular_gap(d1, d2) <= bound + 1e-12)
    return flags


@dataclass(frozen=True)
class SummabilityReport:
    levels: tuple          # ((q, K) Fractions, K descending)
    singular_directions: tuple  # per level: sorted direction angles
    verdicts: tuple        # DirectionVerdict per (level, queried direction)
    multidirection: dict | None
    tolerances: dict
    singularities: tuple   # per level SingularitySet

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "levels": [[str(q), str(K)] for q, K in self.levels],
            "singular_directions": [list(ds) for ds in self.singular_directions],
            "verdicts": [
                [{"direction": v.direction, "verdict": v.verdict,
                  "witness": _jsonable(v.witness),
                  "evidence": _jsonable(v.evidence)} for v in per_level]
                for per_level in self.verdicts],
            "multidirection": _jsonable(self.multidirection),
            "tolerances": _jsonable(self.tolerances),
            "singularities": [s.to_dict() for s in self.singularities],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["level_q", "level_K", "direction", "verdict", "witness"])
        for (q, K), per_level in zip(self.levels, self.verdicts):
            for v in per_level:
                wit = "" if v.witness is None else repr(v.witness)
                w.writerow([str(q), str(K), f"{v.direction:.12g}",
                            v.verdict, wit])
        return buf.getvalue()

    def overall(self) -> str:
        vs = [v.verdict for per in self.verdicts for v in per]
        if "singular" in vs:
            return "singular"
        if vs and all(v == "summable" for v in vs):
            return "summable"
        return "inconclusive"


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def summability_verdict(source, directions, levels=None) -> SummabilityReport:
    """Direction verdicts for a PdeProblem or a bare formal t-series.

    Both run one Borel-plane analysis per level (_verdict_level) on
    (Borel series, SingularitySet) pairs and the level's roots (q, lam):
    each singular point xi and branch k gives the direction
    d = q(arg xi + 2 pi k) - arg lam, with xi as its witness and xi's own
    confidence cone.
    - A PdeProblem takes its levels from the Newton polygon, and its
      pairs from the nonzero data rows, Borel transformed at gevrey_s
      with their singularities found once for all levels; the roots are
      those of the level.
    - A bare RamifiedSeries (levels then required) takes one pair, its
      level-K Borel transform, and the root (1, 1).
    """
    from .solver import PdeProblem

    directions = [float(d) for d in directions]
    if isinstance(source, PdeProblem):
        return _verdict_problem(source, directions)
    if levels is None:
        raise SemanticError("explicit levels are required for a bare series")
    return _verdict_series(source, directions, levels)


def _verdict_level(pairs, roots, kappa: int, qK: float, directions):
    """(singular directions, verdicts, SingularitySet) of one level.

    pairs are (Borel series, SingularitySet), roots (q, lam).  The
    triples of every pair, root, point and branch are kept unless within
    1e-9 of one kept before, then sorted by direction.  The growth order
    is the least finite fitted_growth_order of the pairs (a series too
    short for the fit reads inf); the level's set is the first
    conclusive pair's, else the first.
    """
    triples = []
    for _, sing in pairs:
        for q, lam in roots:
            for t in singular_triples(sing, q, lam, kappa):
                if all(_angular_gap(t[0], o[0]) > 1e-9 for o in triples):
                    triples.append(t)
    triples.sort(key=lambda t: t[0])
    growth = math.inf
    for bor, _ in pairs:
        try:
            growth = min(growth, fitted_growth_order(bor, qK))
        except SemanticError:
            pass
    sets = [sing for _, sing in pairs] or [SingularitySet(
        (), "pade_poles", 0, inconclusive=True, note="no nonzero data rows")]
    level_set = next((s for s in sets if not s.inconclusive), sets[0])
    verdicts = tuple(direction_verdict(d, triples, growth, qK, level_set)
                     for d in directions)
    return tuple(t[0] for t in triples), verdicts, level_set


def _verdict_series(a: RamifiedSeries, directions, levels) -> SummabilityReport:
    levels = tuple((Fraction(q), Fraction(K)) for q, K in levels)
    per_level = []
    for q, K in levels:
        bor = borel(MomentFunction.gamma(1 / K), a)
        per_level.append(_verdict_level(
            [(bor, borel_singularities(bor))], [(Fraction(1), 1.0)],
            a.kappa, float(q * K), directions))
    return _assemble(levels, per_level, directions)


def _verdict_problem(prob, directions) -> SummabilityReport:
    roots = newton_polygon_roots(prob.P)
    s1, s2 = prob.m1.order(), prob.m2.order()
    levels = tuple(summability_levels(roots, s1, s2, prob.gevrey_s))
    s = Fraction(prob.gevrey_s)
    bs = MomentFunction.gamma(s) if s != 0 else None
    # each nonzero data row, Borel transformed at gevrey_s, with its
    # singularities, found once for all levels; a problem with no level
    # (every piece convergent) reads none
    pairs = []
    for phi in prob.data if levels else ():
        if np.all(phi.mant == 0):
            continue
        phi_b = borel(bs, phi) if bs is not None else phi
        pairs.append((phi_b, borel_singularities(phi_b)))
    per_level = [_verdict_level(pairs, [(r.q, r.leading) for r in roots
                                        if r.q == q],
                                prob.kappa, float(q * K), directions)
                 for q, K in levels]
    return _assemble(levels, per_level, directions)


def _assemble(levels, per_level, directions) -> SummabilityReport:
    multi = None
    if len(levels) >= 2 and len(directions) == len(levels):
        flags = multidirection_admissible(levels, directions)
        bounds = [math.pi * (1.0 / float(K2) - 1.0 / float(K1)) / 2.0
                  for (_, K1), (_, K2) in zip(levels, levels[1:])]
        multi = {"directions": directions, "admissible": flags,
                 "bounds": bounds}
    dirs, verdicts, sets = zip(*per_level) if per_level else ((), (), ())
    return SummabilityReport(
        levels=tuple(levels),
        singular_directions=tuple(dirs),
        verdicts=tuple(verdicts),
        multidirection=multi,
        tolerances={"angular_tol_rad": ANGULAR_TOL,
                    "pade_stability": STABILITY_TOL},
        singularities=tuple(sets))
