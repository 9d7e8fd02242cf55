"""Command-line workflow: solve / gevrey / singular / verdict / resum / report.

Exit codes: 0 success, 2 parse error, 3 semantic error, 4 only
inconclusive numeric verdicts, 5 internal error.  Reports are byte-stable
for a fixed input; the timestamp lives in the separate run record, never
in a report file.
"""
from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (borel_singularities, estimate_gevrey,
                       summability_verdict)
from .characteristic import newton_polygon_roots, summability_levels
from .dsl import parse_problem
from .errors import (DecompositionError, GridError, KappaMismatchError,
                     MsummaError, ParseError, RayBlockedError,
                     ResummationError, SectorError, SemanticError,
                     TruncationError, UnsupportedKernelError,
                     UnsupportedRangeError)
from .moments import MomentFunction, kernel_pair_for
from .operators import borel
from .pade import stable_poles
from .resummation import laplace_resum
from .solver import solve_constant_leading

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5

_SEMANTIC_ERRORS = (SemanticError, KappaMismatchError, GridError,
                    TruncationError, DecompositionError, SectorError,
                    RayBlockedError, ResummationError,
                    UnsupportedKernelError, UnsupportedRangeError)


def _load(path: str):
    text = Path(path).read_text(encoding="utf-8")
    pf = parse_problem(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return pf, digest


def _first_level(pf):
    roots = newton_polygon_roots(pf.equation)
    levels = summability_levels(roots, pf.m1.order(), pf.m2.order(),
                                pf.gevrey_s)
    if not levels:
        raise SemanticError(
            "no divergent level: every solution piece converges, nothing to "
            "resum or test for summability")
    return levels


def _diag_series(pf):
    """t-series u(t, 0) of the recurrence solution."""
    prob = pf.to_problem()
    u = solve_constant_leading(prob)
    return prob, u, u.extract_col(0)


def _write(out_dir, name: str, text: str):
    if out_dir is None:
        sys.stdout.write(text)
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")


def _run_record(out_dir, digest: str, report_json: str):
    if out_dir is None:
        return
    rec = {
        "input_sha256": digest,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "report_sha256": hashlib.sha256(report_json.encode()).hexdigest(),
    }
    _write(out_dir, "run_record.json", json.dumps(rec, indent=2) + "\n")


def cmd_solve(pf, digest, args) -> int:
    _, u, _ = _diag_series(pf)
    text = u.dumps()
    _write(args.out, "solution.biseries", text)
    _run_record(args.out, digest, text)
    return EXIT_OK


def cmd_gevrey(pf, digest, args) -> int:
    prob, u, diag = _diag_series(pf)
    rows = []
    est = estimate_gevrey(diag)
    rows.append(("u(t,0)", est))
    for j, phi in enumerate(prob.data):
        try:
            rows.append((f"phi_{j}", estimate_gevrey(phi)))
        except _SEMANTIC_ERRORS:
            continue
    lines = [f"{'series':<10} {'order':>9} {'stderr':>9} window"]
    for name, e in rows:
        lines.append(f"{name:<10} {e.order_hat:>9.4f} {e.stderr:>9.4f} "
                     f"{e.window[0]}..{e.window[1]}")
    text = "\n".join(lines) + "\n"
    _write(args.out, "gevrey.txt", text)
    if args.out is not None:
        sys.stdout.write(text)
    _run_record(args.out, digest, text)
    return EXIT_OK


def _singular_payload(pf, diag):
    (q, K) = _first_level(pf)[0]
    bor = borel(MomentFunction.gamma(1 / K), diag)
    s = borel_singularities(bor)
    return bor, s, {"schema": "singularity_set.v1",
                    "level": [str(q), str(K)], **s.to_dict()}


def cmd_singular(pf, digest, args) -> int:
    _, _, diag = _diag_series(pf)
    _, s, payload = _singular_payload(pf, diag)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(args.out, "singularities.json", text)
    _run_record(args.out, digest, text)
    if s.inconclusive and not s.points:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _parse_directions(spec: str, flag: str = "--directions"):
    """Comma-separated finite angles; anything else is a SemanticError."""
    try:
        dirs = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise SemanticError(f"bad {flag} list {spec!r}: {exc}") from exc
    if not all(math.isfinite(d) for d in dirs):
        raise SemanticError(f"bad {flag} list {spec!r}: non-finite angle")
    return dirs


def cmd_verdict(pf, digest, args) -> int:
    if not args.directions:
        raise SemanticError("verdict needs --directions d1,d2,...")
    dirs = _parse_directions(args.directions)
    prob = pf.to_problem()
    report = summability_verdict(prob, dirs)
    text = report.to_csv() if args.csv else report.to_json()
    name = "summability_report.csv" if args.csv else "summability_report.json"
    _write(args.out, name, text)
    if args.out is not None:
        for (q, K), per in zip(report.levels, report.verdicts):
            for v in per:
                sys.stdout.write(
                    f"level K={K} direction {v.direction:g}: {v.verdict}\n")
    _run_record(args.out, digest, text)
    verdicts = [v.verdict for per in report.verdicts for v in per]
    if verdicts and all(v == "inconclusive" for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_resum(pf, digest, args) -> int:
    if args.t is None:
        raise SemanticError("resum needs --t <complex>")
    try:
        t = complex(args.t)
    except ValueError as exc:
        raise SemanticError(f"bad --t value {args.t!r}") from exc
    if t == 0 or not cmath.isfinite(t):
        raise SemanticError(f"bad --t value {args.t!r}: not a finite nonzero "
                            "point")
    dirs = [0.0] if args.d is None else _parse_directions(args.d, "--d")
    if len(dirs) != 1:
        raise SemanticError(f"--d takes one direction, got {args.d!r}")
    d = dirs[0]
    _, _, diag = _diag_series(pf)
    (q, K) = _first_level(pf)[0]
    bor = borel(MomentFunction.gamma(1 / K), diag)
    kernel = kernel_pair_for(MomentFunction.gamma(1 / K))
    res = laplace_resum(bor, kernel, d, t)
    text = (f"t = {t}\ndirection = {d:g}\nvalue = {res.value!r}\n"
            f"quadrature_error = {res.quadrature_error:.3e}\n"
            f"pade_radius = {res.pade_radius_used:.6g}\n")
    _write(args.out, "resummation.txt", text)
    if args.out is not None:
        sys.stdout.write(text)
    _run_record(args.out, digest, text)
    return EXIT_OK


def cmd_report(pf, digest, args) -> int:
    prob, u, diag = _diag_series(pf)
    dirs = (_parse_directions(args.directions) if args.directions
            else [0.0, math.pi / 2, math.pi])
    report = summability_verdict(prob, dirs)
    est = estimate_gevrey(diag)
    bor, sing, sing_payload = _singular_payload(pf, diag)

    bundle = {
        "schema": "msumma_report.v1",
        "input_sha256": digest,
        "gevrey": {"order_hat": est.order_hat, "stderr": est.stderr,
                   "window": list(est.window), "method": est.method},
        "singularities": sing_payload,
        "summability": report.to_dict(),
    }
    text = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    _write(args.out, "report.json", text)

    # CSV plot data: coefficient log-magnitudes and Pade poles
    logs = diag.log10_abs()
    lines = ["j,log10_abs_coeff"]
    for j, v in enumerate(logs):
        lines.append(f"{j},{'' if not np.isfinite(v) else repr(float(v))}")
    _write(args.out, "coefficients.csv", "\n".join(lines) + "\n")
    pole_lines = ["re,im,radius"]
    try:
        for loc, rad in stable_poles(bor):
            pole_lines.append(f"{loc.real!r},{loc.imag!r},{rad!r}")
    except ValueError:
        pass
    _write(args.out, "pade_poles.csv", "\n".join(pole_lines) + "\n")
    _write(args.out, "verdicts.csv", report.to_csv())
    _run_record(args.out, digest, text)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "gevrey": cmd_gevrey,
    "singular": cmd_singular,
    "verdict": cmd_verdict,
    "resum": cmd_resum,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msumma",
        description="Moment Borel summability analysis of formal PDE solutions")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("problem", help="problem DSL file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--directions", default=None,
                    help="comma-separated direction angles in radians")
    ap.add_argument("--t", default=None, help="evaluation point, e.g. 0.05j")
    ap.add_argument("--d", default=None, help="resummation direction")
    ap.add_argument("--trunc", type=int, default=None,
                    help="override trunc_t from the problem file")
    ap.add_argument("--csv", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pf, digest = _load(args.problem)
        if args.trunc is not None:
            from dataclasses import replace
            pf = replace(pf, trunc_t=args.trunc)
        return _COMMANDS[args.command](pf, digest, args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except _SEMANTIC_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SEMANTIC
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SEMANTIC
    except (MsummaError, Exception) as exc:  # noqa: BLE001
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
