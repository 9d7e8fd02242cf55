"""Command-line workflow: solve / gevrey / singular / verdict / resum / report.

Each command returns (files, echo, record text, exit code) and `_emit`
alone writes them, so a command that raises writes nothing.  Exit codes:
0 success, 2 ParseError, 3 any other MsummaError or an OSError, 4 only
inconclusive numeric verdicts, 5 anything else (internal error).  Reports
are byte-stable for a fixed input; the timestamp lives in the separate run
record, never in a report file.
"""
from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (borel_singularities, estimate_gevrey,
                       summability_verdict)
from .characteristic import newton_polygon_roots, summability_levels
from .dsl import parse_problem
from .errors import MsummaError, ParseError, SemanticError
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


def _diag_series(pf):
    """The problem and the t-series u(t, 0) of its recurrence solution."""
    prob = pf.to_problem()
    return prob, solve_constant_leading(prob).extract_col(0)


def _first_level(prob, diag, levels=None):
    """First level (q, K) of prob's Newton polygon, or of levels when given,
    Gamma(1/K) and the Borel transform of diag at that moment."""
    if levels is None:
        levels = summability_levels(newton_polygon_roots(prob.P),
                                    prob.m1.order(), prob.m2.order(),
                                    prob.gevrey_s)
    if not levels:
        raise SemanticError(
            "no divergent level: every solution piece converges, nothing to "
            "resum or test for summability")
    m = MomentFunction.gamma(1 / levels[0][1])
    return levels[0], m, borel(m, diag)


def _singular_payload(prob, diag, levels=None):
    """First-level Borel transform, its singularities and their
    singularity_set.v1 dict."""
    (q, K), _, bor = _first_level(prob, diag, levels)
    s = borel_singularities(bor)
    return bor, s, {"schema": "singularity_set.v1",
                    "level": [str(q), str(K)], **s.to_dict()}


def _emit(out_dir, digest: str, files: dict, echo: str, record_text: str,
          code: int) -> int:
    """Write files (name -> text) and the run record of record_text to
    out_dir, then echo to stdout; with no out_dir, write the files one
    after another to stdout.  Returns code."""
    if out_dir is None:
        sys.stdout.write("".join(files.values()))
        return code
    rec = {
        "input_sha256": digest,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "report_sha256": hashlib.sha256(record_text.encode()).hexdigest(),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {**files, "run_record.json":
                       json.dumps(rec, indent=2) + "\n"}.items():
        (out / name).write_text(text, encoding="utf-8")
    sys.stdout.write(echo)
    return code


def cmd_solve(pf, digest, args):
    text = solve_constant_leading(pf.to_problem()).dumps()
    return {"solution.biseries": text}, "", text, EXIT_OK


def cmd_gevrey(pf, digest, args):
    prob, diag = _diag_series(pf)
    rows = [("u(t,0)", estimate_gevrey(diag))]
    for j, phi in enumerate(prob.data):
        try:
            rows.append((f"phi_{j}", estimate_gevrey(phi)))
        except SemanticError:
            continue
    lines = [f"{'series':<10} {'order':>9} {'stderr':>9} window"]
    for name, e in rows:
        lines.append(f"{name:<10} {e.order_hat:>9.4f} {e.stderr:>9.4f} "
                     f"{e.window[0]}..{e.window[1]}")
    text = "\n".join(lines) + "\n"
    return {"gevrey.txt": text}, text, text, EXIT_OK


def cmd_singular(pf, digest, args):
    prob, diag = _diag_series(pf)
    _, s, payload = _singular_payload(prob, diag)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    code = EXIT_INCONCLUSIVE if s.inconclusive and not s.points else EXIT_OK
    return {"singularities.json": text}, "", text, code


def _parse_directions(spec: str, flag: str = "--directions"):
    """Comma-separated finite angles; anything else is a SemanticError."""
    try:
        dirs = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise SemanticError(f"bad {flag} list {spec!r}: {exc}") from exc
    if not all(math.isfinite(d) for d in dirs):
        raise SemanticError(f"bad {flag} list {spec!r}: non-finite angle")
    return dirs


def cmd_verdict(pf, digest, args):
    if not args.directions:
        raise SemanticError("verdict needs --directions d1,d2,...")
    dirs = _parse_directions(args.directions)
    report = summability_verdict(pf.to_problem(), dirs)
    text = report.to_csv() if args.csv else report.to_json()
    name = "summability_report.csv" if args.csv else "summability_report.json"
    echo = "".join(f"level K={K} direction {v.direction:g}: {v.verdict}\n"
                   for (_, K), per in zip(report.levels, report.verdicts)
                   for v in per)
    verdicts = {v.verdict for per in report.verdicts for v in per}
    code = EXIT_INCONCLUSIVE if verdicts == {"inconclusive"} else EXIT_OK
    return {name: text}, echo, text, code


def cmd_resum(pf, digest, args):
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
    prob, diag = _diag_series(pf)
    _, m, bor = _first_level(prob, diag)
    res = laplace_resum(bor, kernel_pair_for(m), d, t)
    text = (f"t = {t}\ndirection = {d:g}\nvalue = {res.value!r}\n"
            f"quadrature_error = {res.quadrature_error:.3e}\n"
            f"pade_radius = {res.pade_radius_used:.6g}\n")
    return {"resummation.txt": text}, text, text, EXIT_OK


def cmd_report(pf, digest, args):
    dirs = (_parse_directions(args.directions) if args.directions
            else [0.0, math.pi / 2, math.pi])
    prob, diag = _diag_series(pf)
    report = summability_verdict(prob, dirs)
    est = estimate_gevrey(diag)
    bor, _, sing_payload = _singular_payload(prob, diag, report.levels)
    bundle = {
        "schema": "msumma_report.v1",
        "input_sha256": digest,
        "gevrey": {"order_hat": est.order_hat, "stderr": est.stderr,
                   "window": list(est.window), "method": est.method},
        "singularities": sing_payload,
        "summability": report.to_dict(),
    }
    text = json.dumps(bundle, indent=2, sort_keys=True) + "\n"

    # CSV plot data: coefficient log-magnitudes and Pade poles
    lines = ["j,log10_abs_coeff"]
    for j, v in enumerate(diag.log10_abs()):
        lines.append(f"{j},{'' if not np.isfinite(v) else repr(float(v))}")
    pole_lines = ["re,im,radius"]
    try:
        for loc, rad in stable_poles(bor):
            pole_lines.append(f"{loc.real!r},{loc.imag!r},{rad!r}")
    except ValueError:
        pass
    files = {"report.json": text,
             "coefficients.csv": "\n".join(lines) + "\n",
             "pade_poles.csv": "\n".join(pole_lines) + "\n",
             "verdicts.csv": report.to_csv()}
    return files, "", text, EXIT_OK


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
        text = Path(args.problem).read_text(encoding="utf-8")
        pf = parse_problem(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if args.trunc is not None:
            pf = replace(pf, trunc_t=args.trunc)
        return _emit(args.out, digest,
                     *_COMMANDS[args.command](pf, digest, args))
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (MsummaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SEMANTIC
    except Exception as exc:  # noqa: BLE001
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
