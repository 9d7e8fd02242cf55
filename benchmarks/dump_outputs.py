"""Write every pipeline output of the benchmark ladder to a directory.

The ladder is the three tests/data problems at trunc_t 20, 60, 120 and
200.  Each problem's trunc_z is raised to what the recurrence needs plus
20 output columns, and the problem text goes to
OUT/<name>/t<trunc_t>/problem.mpde.  Next to it go:

- `mant.npy`, `exp10.npy`: the solution grid's mantissas and exponents;
- `dumps.txt`: the grid's text serialization;
- `gevrey.txt`: the Gevrey estimate of u(t, 0);
- `report.json`, `verdicts.csv`: summability_verdict of the problem at
  DIRECTIONS;
- `singularities.json`: the Borel-plane singularities of u(t, 0) at the
  first level;
- `resum.txt`: the Laplace resummation of u(t, 0) on the ray pi/2 at
  RESUM_POINTS, then at BLOCKED_POINT on the ray 0, which heat's Borel
  pole blocks, so its RayBlockedError text (witness and cone) is kept;
- `cli_<run>.txt`: the exit code, stdout and stderr of each CLI run of
  CLI_RUNS on problem.mpde (`solve`, `gevrey`, `singular`, `verdict`,
  `resum` at RESUM_POINTS[0] on the ray RESUM_DIRECTION, `resum_blocked`
  at BLOCKED_POINT on the ray 0, and `report`; all at DIRECTIONS) with no
  --out, so its files go to stdout;
- `cli_<run>_out.txt`, `cli_<run>_out/`: the same run with --out
  cli_<run>_out: its exit code, stdout and stderr, and the files it
  writes there, run_record.json without its timestamp.

A stage that raises writes its error in place of its output, so a run
never stops half way.  Two checkouts give the same outputs exactly when
`diff -r` of their directories is empty.

Usage: PYTHONPATH=src python3 benchmarks/dump_outputs.py OUT
           [--trunc-t 20,60,120,200]
"""
import argparse
import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
PROBLEMS = ("heat", "divergent_data", "wave")
LADDER = (20, 60, 120, 200)
MARGIN = 20
DIRECTIONS = (0.0, 0.3, math.pi / 2, math.pi, 4.0)
RESUM_DIRECTION = math.pi / 2
RESUM_POINTS = (0.03j, 0.045j, 0.06j, 0.075j, 0.09j)
BLOCKED_POINT = 0.03  # on the ray 0, where heat's Borel pole 1/4 lies
# (file name, [command, flags]) of each CLI run; the problem path and
# --directions DIRECTIONS follow the command
CLI_RUNS = (
    ("solve", ["solve"]), ("gevrey", ["gevrey"]), ("singular", ["singular"]),
    ("verdict", ["verdict"]),
    ("resum", ["resum", "--t", repr(RESUM_POINTS[0]),
               "--d", repr(RESUM_DIRECTION)]),
    ("resum_blocked", ["resum", "--t", repr(BLOCKED_POINT), "--d", "0.0"]),
    ("report", ["report"]),
)


def problem_text(name, trunc_t):
    """The tests/data template with its trunc_t and trunc_z replaced."""
    from msumma import parse_problem
    from msumma.solver import required_z_truncation

    text = (DATA / f"{name}.mpde").read_text(encoding="utf-8")
    pf = parse_problem(text)
    nz = required_z_truncation(pf.equation, pf.kappa, trunc_t) + MARGIN
    text = re.sub(r"(?m)^trunc_t:.*$", f"trunc_t: {trunc_t};", text)
    return re.sub(r"(?m)^trunc_z:.*$", f"trunc_z: {nz};", text)


def _cx(z):
    return [repr(z.real), repr(z.imag)]


def _error(exc):
    return f"error: {type(exc).__name__}: {exc}\n"


def dump_pipeline(text, out):
    """Library outputs of one problem text into the directory out."""
    from msumma import (MomentFunction, borel, borel_singularities,
                        estimate_gevrey, kernel_pair_for, laplace_resum,
                        parse_problem, solve_constant_leading,
                        summability_verdict)

    prob = parse_problem(text).to_problem()
    u = solve_constant_leading(prob)
    np.save(out / "mant.npy", u.mant)
    np.save(out / "exp10.npy", u.exp10)
    (out / "dumps.txt").write_text(u.dumps())
    diag = u.extract_col(0)
    try:
        est = estimate_gevrey(diag)
        gevrey = f"{est.order_hat!r} {est.stderr!r} {est.window}\n"
    except Exception as exc:  # noqa: BLE001
        gevrey = _error(exc)
    (out / "gevrey.txt").write_text(gevrey)
    report = summability_verdict(prob, DIRECTIONS)
    (out / "report.json").write_text(report.to_json())
    (out / "verdicts.csv").write_text(report.to_csv())
    if not report.levels:
        for name in ("singularities.json", "resum.txt"):
            (out / name).write_text("no level\n")
        return
    _, K = report.levels[0]
    m = MomentFunction.gamma(1 / K)
    bor = borel(m, diag)
    s = borel_singularities(bor)
    sing = {"method": s.method, "trunc": s.trunc,
            "inconclusive": s.inconclusive, "note": s.note,
            "ratio_modulus": repr(s.ratio_modulus),
            "points": [{"location": _cx(p.location), "radius": repr(p.radius)}
                       for p in s.points]}
    (out / "singularities.json").write_text(
        json.dumps(sing, indent=2, sort_keys=True) + "\n")
    lines = []
    rays = [(RESUM_DIRECTION, t) for t in RESUM_POINTS] + [(0.0, BLOCKED_POINT)]
    for d, t in rays:
        try:
            r = laplace_resum(bor, kernel_pair_for(m), d, t)
            lines.append(f"{t!r} {r.value!r} {r.quadrature_error!r} "
                         f"{r.pade_radius_used!r}\n")
        except Exception as exc:  # noqa: BLE001
            lines.append(f"{t!r} {_error(exc)}")
    (out / "resum.txt").write_text("".join(lines))


def dump_cli(path, out):
    """Each CLI run on path, once to stdout and once with --out."""
    from msumma.cli import main

    dirs = ",".join(repr(d) for d in DIRECTIONS)
    for run, (command, *flags) in CLI_RUNS:
        argv = [command, str(path), "--directions", dirs, *flags]
        written = out / f"cli_{run}_out"
        for name, extra in ((f"cli_{run}", []),
                            (written.name, ["--out", str(written)])):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv + extra)
            (out / f"{name}.txt").write_text(
                f"exit {code}\n--- stdout\n{stdout.getvalue()}"
                f"--- stderr\n{stderr.getvalue()}")
        record = written / "run_record.json"
        if record.exists():
            rec = json.loads(record.read_text())
            rec.pop("timestamp")
            record.write_text(json.dumps(rec, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out", help="output directory")
    ap.add_argument("--trunc-t", default=",".join(map(str, LADDER)),
                    help="comma-separated trunc_t rungs")
    args = ap.parse_args()
    rungs = [int(x) for x in args.trunc_t.split(",")]
    for name in PROBLEMS:
        for trunc_t in rungs:
            out = Path(args.out) / name / f"t{trunc_t}"
            out.mkdir(parents=True, exist_ok=True)
            text = problem_text(name, trunc_t)
            (out / "problem.mpde").write_text(text)
            dump_pipeline(text, out)
            dump_cli(out / "problem.mpde", out)
            print(f"{name} trunc_t {trunc_t}: {out}")


if __name__ == "__main__":
    main()
