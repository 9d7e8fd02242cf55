"""Layered benchmark of the msumma pipeline, run from the repository root.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --all [--seed N] [--seconds S] [--out FILE]

One run measures one workload: untraced (``--trace 0``) it reports the
end-to-end metrics, with times corrected for the host's speed (speed.py),
traced (``--trace 1``) the per-layer metrics taken from spans recorded
around each layer's public functions.  ``--all`` runs every
workload both ways and prints everything, including the tracing overhead.
The last line of a single run's output is one JSON object with the keys
correct, attempted, failed and metrics.  pipebench/README.md explains the
workloads, metrics and the oracles that gate every op.
"""
from __future__ import annotations

import os

# Fixed before numpy loads here, and inherited by every process started.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import DATA, ROOT  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "pipebench"
# set-ups per run: half before the timed loop, half after it, so a burst of
# load from elsewhere on the machine hits few of them
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
# An untraced run lasts at least this many cycles, so the tail percentile
# (10 samples above it) lies inside the slowest op's own times: with 10
# cycles of 3 ops it would be the fastest but one of the second slowest op.
MIN_CYCLES = 13
IMPORT_MODULES = ("msumma", "scipy.interpolate", "scipy.special", "numpy")
CHILD_TIMEOUT_S = 170.0
clock = time.perf_counter

# (name, unit); failed_frac is printed but left out of the JSON metrics:
# it is 0 on a healthy commit, and the result line carries attempted and
# failed counts anyway.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("failed_frac", "ratio"), ("peak_rss_mb", "MB"))
JSON_END_TO_END = tuple(m for m in END_TO_END if m[0] != "failed_frac")

KERNELS = ("normalize", "add", "mul", "scale", "axpy_shift", "eval_scaled")
LAYERS = ("dsl", "solver", "moments", "scaled", "kernels", "series",
          "operators", "analysis", "pade", "resummation", "quadrature",
          "harness")
# (name, unit, better); per-op means over the traced ops unless noted
PER_LAYER = (
    (("op_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower"))
    + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + (("pade.diagonal_pade.calls", "count", "lower"),
       ("pade.order_requested", "count", "lower"),
       ("pade.order_achieved", "count", "lower"),
       ("pade.stepdowns", "count", "lower"),
       ("pade.order_yield", "ratio", "higher"),
       ("pade.stable_poles.calls", "count", "lower"),
       ("pade.collapsed_triples", "count", "lower"),
       ("analysis.summability_verdict.self_s", "s", "lower"),
       ("analysis.borel_singularities.self_s", "s", "lower"),
       ("analysis.estimate_gevrey.self_s", "s", "lower"),
       ("solver.solve_constant_leading.calls", "count", "lower"),
       ("solver.solve_constant_leading.self_s", "s", "lower"),
       ("solver.cells_out", "count", "higher"),
       ("moments.log_eval.calls", "count", "lower"),
       ("moments.eval_scaled.calls", "count", "lower"),
       ("scaled.ops", "count", "lower"))
    + tuple((f"kernels.{fn}.{what}", unit, "lower") for fn in KERNELS
            for what, unit in (("calls", "count"), ("elems", "count"),
                               ("bytes", "B"), ("self_s", "s")))
    + (("series.dumps.self_s", "s", "lower"),
       ("series.dumps_bytes", "B", "lower"),
       ("series.eval.calls", "count", "lower"),
       ("operators.borel.calls", "count", "lower"),
       ("operators.borel.self_s", "s", "lower"),
       ("resummation.laplace_resum.self_s", "s", "lower"),
       ("quadrature.integrate_segment.calls", "count", "lower"),
       ("quadrature.panels", "count", "lower"),
       ("dsl.parse_problem.self_s", "s", "lower"),
       ("dsl.to_problem.self_s", "s", "lower"),
       ("cli.import_s", "s", "lower"),
       ("cli.main_s", "s", "lower"),
       ("cli.report.solve_calls", "count", "lower"))
    + tuple((f"import.{m}_s", "s", "lower") for m in IMPORT_MODULES)
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(SCRATCH)
    return env


def check_checkout():
    needed = [SRC / "msumma" / "__init__.py"] + [
        DATA / f"{n}.mpde" for n in ("heat", "divergent_data", "wave")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise HarnessError("not an msumma checkout: missing "
                           + ", ".join(missing))


# -- processes ----------------------------------------------------------------

def run_process(argv, stderr_path=None):
    """Run one child to completion; (wall s, exit code, peak RSS kB)."""
    err = open(stderr_path, "w") if stderr_path else subprocess.DEVNULL
    try:
        t0 = clock()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = clock() - t0
        # reaped by wait4 (for its rusage); tell Popen so it does not wait
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    return wall, proc.returncode, usage.ru_maxrss


def run_worker(plan_path: Path):
    """Start worker.py on a plan and wait for it.

    Returns its set-up time and the speed probe taken just before.
    """
    probe_s = speed.probe_median()
    t0 = clock()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(plan_path)], env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = clock() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise HarnessError(f"workload process exited with code {code} "
                           f"(first line {line.strip()!r})")
    return setup, probe_s


# -- statistics ---------------------------------------------------------------

def tail(sorted_values):
    """Highest percentile with at least 10 samples above it.

    Returns (value, percentile, samples); with 10 samples or fewer there is
    no such percentile and the maximum is reported as percentile 100.
    """
    n = len(sorted_values)
    i = n - 11 if n >= 11 else n - 1
    return sorted_values[i], 100.0 * (i + 1) / n, n


def op_time(record):
    """An op's latency, corrected for the host's speed (speed.py)."""
    return speed.corrected(record["latency_s"], record["probe_s"])


def end_to_end(records, loop_s, setups, peak_rss_kb):
    """The end-to-end metrics; times are speed-corrected (speed.py)."""
    lat = sorted(op_time(r) for r in records)
    value, pct, n = tail(lat)
    setup_times = [speed.corrected(s, p) for s, p in setups]
    metrics = {"setup_s": statistics.median(setup_times),
               "ops_per_s": len(lat) / sum(lat),
               "latency_p50_s": statistics.median(lat),
               "latency_tail_s": value,
               "failed_frac": oracle.failed_frac(records),
               "peak_rss_mb": peak_rss_kb / 1024.0}
    raw = sorted(r["latency_s"] for r in records)
    notes = {"latency_tail_percentile": pct, "latency_samples": n,
             "setup_samples": len(setups), "setups_s": setup_times,
             "uncorrected": {
                 "setup_s": statistics.median(s for s, _ in setups),
                 "ops_per_s": len(raw) / loop_s,
                 "latency_p50_s": statistics.median(raw),
                 "latency_tail_s": tail(raw)[0],
                 "probe_p50_s": statistics.median(
                     r["probe_s"] for r in records)}}
    return metrics, notes


def tracing_overhead(records) -> float:
    """Median over op kinds of traced / untraced op time, minus 1."""
    ref, traced = {}, {}
    for r in records:
        if r["traced"]:
            traced.setdefault(r["problem"], []).append(op_time(r))
        else:
            ref.setdefault(r["problem"], []).append(op_time(r))
    ratios = [statistics.median(traced[p]) / statistics.median(ref[p])
              for p in ref if p in traced]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def per_layer(layer_ops, cli_ops, overhead, import_s) -> dict:
    """Per-op means of the traced ops; the cli.* metrics come from the
    traced CLI ops, `import.*` from -X importtime."""
    n = max(1, len(layer_ops))

    def mean(key):
        return sum(op.get(key, 0.0) for op in layer_ops) / n

    out = {name: mean(name) for name, _, _ in PER_LAYER}
    req = sum(op.get("pade.order_requested", 0.0) for op in layer_ops)
    got = sum(op.get("pade.order_achieved", 0.0) for op in layer_ops)
    out["pade.order_yield"] = got / req if req else 1.0
    out["trace.overhead_frac"] = overhead
    for key in ("cli.import_s", "cli.main_s"):
        out[key] = sum(op[key] for op in cli_ops) / max(1, len(cli_ops))
    reports = [op for op in cli_ops if op["problem"].startswith("report ")]
    out["cli.report.solve_calls"] = (
        sum(op.get("solver.solve_constant_leading.calls", 0.0)
            for op in reports) / len(reports) if reports else 0.0)
    for m in IMPORT_MODULES:
        out[f"import.{m}_s"] = import_s.get(m, 0.0)
    return out


def purpose_check(workload, layers) -> tuple[str, bool]:
    """Does the traced run confirm why the workload was chosen?"""
    op = layers["op_s"]
    if workload == "pade-ladder":
        share = (layers["pade.self_s"] + layers["analysis.self_s"]) / op
        return (f"pade + analysis self time is {share:.0%} of op time "
                f"(want >= 50%)", share >= 0.5)
    if workload == "wide-grid":
        share = (layers["solver.self_s"] + layers["scaled.self_s"]
                 + layers["series.self_s"]) / op
        calls = layers["pade.diagonal_pade.calls"]
        return (f"solver + scaled + series self time is {share:.0%} of op "
                f"time (want > 50%), {calls:g} diagonal_pade calls per op "
                f"(want 0)", share > 0.5 and calls == 0)
    share = layers["cli.import_s"] / op
    return (f"cli.import_s is {share:.0%} of op time (want > 50%)",
            share > 0.5)


# -- environment --------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git program
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the measured library sources (a checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "msumma").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed, versions, overhead) -> dict:
    return {**versions, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "git_commit": git_commit(),
            "source_sha256": source_sha256(), "seed": seed,
            "tracing_overhead": overhead}


def probe_versions() -> dict:
    code = ("import json, sys, numpy, scipy, msumma; print(json.dumps("
            "{'backend': msumma.BACKEND, 'python': sys.version.split()[0], "
            "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"cannot import msumma: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


# -- in-process workloads -----------------------------------------------------

def write_expectations(run_dir, ops, draws, resumming):
    import numpy as np

    grids, expect, resum = {}, {}, {}
    for p in (p for op in ops for p in op):
        m, e = oracle.grid_oracle(p.name, p.trunc_t + 1, p.margin + 1)
        grids[p.key + ".mant"], grids[p.key + ".exp10"] = m, e
        if resumming and p.name not in resum:
            resum[p.name] = [[v.real, v.imag] for v in (
                oracle.resum_reference(p.name, t, workloads.RESUM_DIRECTION)
                for t in draws.resum_points)]
        expect[p.key] = {
            "verdicts": oracle.expected_verdicts(p.name, draws.directions),
            "resum": resum.get(p.name) if resumming else None}
    grid_path = run_dir / "grids.npz"
    np.savez(grid_path, **grids)
    expect_path = run_dir / "expect.json"
    expect_path.write_text(json.dumps(expect), encoding="utf-8")
    return expect_path, grid_path


def spans_file(workload, seed) -> Path:
    """Where a traced run leaves its spans, one JSON object per line."""
    path = SCRATCH / f"spans-{workload}-seed{seed}.jsonl"
    path.unlink(missing_ok=True)
    return path


def count_lines(path) -> int:
    if not path.exists():
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def run_inprocess(workload, seed, seconds, trace, ops=None) -> dict:
    ops = tuple(ops or workloads.LADDERS[workload])
    resumming = workloads.RESUMMING[workload]
    draws = workloads.draw(seed)
    spans_path = spans_file(workload, seed) if trace else None
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        expect_path, grid_path = write_expectations(run_dir, ops, draws,
                                                    resumming)
        plan = {"workload": workload, "seed": seed, "seconds": seconds,
                "min_cycles": 1 if trace else MIN_CYCLES,
                "trace": bool(trace),
                "resumming": resumming,
                "ops": [[[p.name, p.trunc_t, p.margin] for p in op]
                        for op in ops],
                "expect_path": str(expect_path), "grid_path": str(grid_path),
                "result_path": str(run_dir / "result.json"),
                "spans_path": str(spans_path) if trace else None}
        probe_path = run_dir / "probe.json"
        probe_path.write_text(json.dumps({**plan, "probe": True}))
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps({**plan, "probe": False}))
        setups = [run_worker(plan_path if i == SETUP_SAMPLES // 2
                             else probe_path) for i in range(SETUP_SAMPLES)]
        result = json.loads((run_dir / "result.json").read_text())
        records = result["records"]
        cli_records, cli_ops = (cli_sample(len(records), spans_path, run_dir)
                                if trace else ([], []))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return finish(workload, seed, trace, records, result["loop_s"],
                  result["traced_loop_s"], setups, result["peak_rss_kb"],
                  result["layer_ops"], result["env"], cli_ops=cli_ops,
                  extra_records=cli_records,
                  import_s=import_times() if trace else None,
                  spans_path=spans_path)


# -- cli-cold -----------------------------------------------------------------

def native_truncation(name):
    text = workloads.template(name)
    return tuple(int(re.search(rf"(?m)^{key}:\s*(\d+)", text).group(1))
                 for key in ("trunc_t", "trunc_z"))


def import_times() -> dict:
    """Cumulative -X importtime seconds per module, median of a few runs."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import msumma"], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name in samples and name not in seen and \
                        parts[1].strip().isdigit():
                    seen[name] = int(parts[1]) * 1e-6
        for m, v in seen.items():
            samples[m].append(v)
    return {m: statistics.median(v) for m, v in samples.items() if v}


def cli_op(op, op_id, spans_path, run_dir, expect):
    """One CLI child, traced when `spans_path` is given."""
    out_dir = Path(tempfile.mkdtemp(dir=run_dir))
    metrics_path = out_dir.with_suffix(".trace.json")
    stderr_path = out_dir.with_suffix(".stderr")
    traced = spans_path is not None
    head = ([sys.executable, str(HERE / "clitrace.py"), str(metrics_path),
             str(spans_path), str(op_id)]
            if traced else [sys.executable, "-m", "msumma.cli"])
    before = speed.probe()
    wall, code, rss_kb = run_process(
        head + [op.command, str(DATA / f"{op.name}.mpde"),
                "--out", str(out_dir)], stderr_path)
    after = speed.probe()
    c0 = clock()
    files = {p.name: p.read_text() for p in out_dir.iterdir()
             if p.name in ("report.json", "solution.biseries")}
    misses = oracle.check_cli_op(op.command, op.name, code, files,
                                 expect.get(op.key, {}))
    if misses:
        misses += stderr_path.read_text().splitlines()[-3:]
    layers = None
    if traced and metrics_path.exists():
        layers = {**json.loads(metrics_path.read_text()), "op_s": wall}
    shutil.rmtree(out_dir)
    return wall, (before + after) / 2, misses, rss_kb, layers, clock() - c0


def cli_expectations(ops) -> dict:
    expect = {}
    for op in ops:
        if op.command == "solve":
            tt, tz = native_truncation(op.name)
            expect[op.key] = {"grid": oracle.grid_oracle(op.name, tt + 1,
                                                         tz + 1)}
    return expect


def cli_sample(first_op, spans_path, run_dir):
    """One traced CLI child per CLI op, which a traced in-process run adds
    for the cli.* metrics; returns (records, layer ops)."""
    expect = cli_expectations(workloads.CLI_CYCLE)
    records, layer_ops = [], []
    for op in workloads.CLI_CYCLE:
        op_id = first_op + len(records)
        wall, _, misses, _, layers, _ = cli_op(op, op_id, spans_path,
                                               run_dir, expect)
        if layers is None:
            misses = misses + ["traced CLI wrote no metrics"]
        else:
            layer_ops.append({"problem": op.key, **layers})
        records.append({"op": op_id, "problem": op.key, "traced": True,
                        "latency_s": wall, "misses": misses})
    return records, layer_ops


def run_cli(seed, seconds, trace, ops=workloads.CLI_CYCLE) -> dict:
    draws = workloads.draw(seed)
    spans_path = spans_file("cli-cold", seed) if trace else None
    run_dir = Path(tempfile.mkdtemp(prefix="cli-cold-", dir=SCRATCH))
    try:
        expect = cli_expectations(ops)
        versions = probe_versions()
        setups = []

        def setup_probes(count):
            for _ in range(count):
                probe_s = speed.probe_median()
                wall, code, _ = run_process([sys.executable, "-c",
                                             "import msumma"])
                if code != 0:
                    raise HarnessError(f"import msumma exited with code "
                                       f"{code}")
                setups.append((wall, probe_s))

        setup_probes(SETUP_SAMPLES // 2)

        records, layer_ops = [], []
        peak_rss_kb = 0
        check_s = 0.0
        start = clock()

        def cycle(traced):
            nonlocal check_s, peak_rss_kb
            for i in draws.cycle_order(len(ops)):
                wall, probe_s, misses, rss_kb, layers, spent = cli_op(
                    ops[i], len(records), spans_path if traced else None,
                    run_dir, expect)
                check_s += spent
                if not traced:
                    peak_rss_kb = max(peak_rss_kb, rss_kb)
                elif layers is None:
                    misses = misses + ["traced CLI wrote no metrics"]
                else:
                    layer_ops.append({"problem": ops[i].key, **layers})
                records.append({"op": len(records), "problem": ops[i].key,
                                "traced": traced, "latency_s": wall,
                                "probe_s": probe_s,
                                "misses": misses})

        def loop_s():
            return clock() - start - check_s

        traced_s = 0.0
        cycles = 0
        while True:
            cycles += 1
            cycle(False)
            if trace:
                before = loop_s()
                cycle(True)
                traced_s += loop_s() - before
            if loop_s() >= seconds and (trace or cycles >= MIN_CYCLES):
                break
        elapsed = loop_s()
        setup_probes(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        imports = import_times() if trace else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return finish("cli-cold", seed, trace, records, elapsed, traced_s, setups,
                  peak_rss_kb, layer_ops, versions, cli_ops=layer_ops,
                  import_s=imports, spans_path=spans_path)


# -- results ------------------------------------------------------------------

def finish(workload, seed, trace, records, loop_s, traced_loop_s, setups,
           peak_rss_kb, layer_ops, versions, cli_ops=(), extra_records=(),
           import_s=None, spans_path=None):
    """The run's result; `extra_records` are checked ops outside the timed
    loop, which count in attempted and failed only."""
    timed = [r for r in records if r["traced"] == bool(trace)]
    checked = records + list(extra_records)
    e2e, notes = end_to_end(timed, traced_loop_s if trace else loop_s,
                            setups, peak_rss_kb)
    overhead = tracing_overhead(records) if trace else None
    result = {"workload": workload, "seed": seed, "trace": bool(trace),
              "end_to_end": e2e, "notes": notes,
              "environment": environment(seed, versions, overhead),
              "attempted": len(checked),
              "failed": sum(1 for r in checked if r["misses"]),
              "failures": [r for r in checked if r["misses"]],
              "ops": checked}
    if trace:
        result["per_layer"] = per_layer(layer_ops, cli_ops, overhead,
                                        import_s)
        result["purpose"] = purpose_check(workload, result["per_layer"])
        result["notes"]["spans_recorded"] = count_lines(spans_path)
        result["notes"]["spans_file"] = str(spans_path.relative_to(ROOT))
        result["notes"]["traced_ops"] = len(layer_ops)
    return result


def run_workload(workload, seed, seconds, trace) -> dict:
    if workload == "cli-cold":
        return run_cli(seed, seconds, trace)
    return run_inprocess(workload, seed, seconds, trace)


def units():
    return {name: unit for name, unit in END_TO_END} | {
        name: unit for name, unit, _ in PER_LAYER}


def print_result(result, file=sys.stdout):
    u = units()
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, seed {result['seed']})",
          file=file)
    e2e, notes = result["end_to_end"], result["notes"]
    for name, _ in END_TO_END:
        extra = ""
        if name == "latency_tail_s":
            extra = (f"  (p{notes['latency_tail_percentile']:.1f} of "
                     f"{notes['latency_samples']} ops)")
        elif name == "setup_s":
            extra = f"  (median of {notes['setup_samples']} set-ups)"
        elif name == "failed_frac":
            extra = f"  ({result['failed']} of {result['attempted']} ops)"
        print(f"  {name:<24} {e2e[name]:>14.6g} {u[name]}{extra}", file=file)
    print("  uncorrected for host speed: " + ", ".join(
        f"{k} {v:.6g}" for k, v in notes["uncorrected"].items()), file=file)
    for f in result["failures"]:
        print(f"  FAILED op {f['op']} {f['problem']}: "
              + "; ".join(f["misses"]), file=file)
    if result["trace"]:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<40} {result['per_layer'][name]:>14.6g} {unit}",
                  file=file)
        text, ok = result["purpose"]
        print(f"  purpose {'confirmed' if ok else 'NOT confirmed'}: {text}",
              file=file)
    print("  environment: " + json.dumps(result["environment"]), file=file)


def contract_line(result) -> str:
    if result["trace"]:
        names = [(n, unit) for n, unit, _ in PER_LAYER]
        values = result["per_layer"]
    else:
        names, values = JSON_END_TO_END, result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": unit}
                    for n, unit in names}})


def run_all(seed, seconds, out_path):
    results = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            r = run_workload(workload, seed, seconds, trace)
            print_result(r)
            results.append(r)
    print("== tracing overhead (traced / untraced latency_p50_s - 1)")
    for plain, traced in zip(results[::2], results[1::2]):
        gap = (traced["end_to_end"]["latency_p50_s"]
               / plain["end_to_end"]["latency_p50_s"] - 1.0)
        print(f"  {plain['workload']:<12} {gap:>8.1%}  (per-op-kind estimate "
              f"{traced['per_layer']['trace.overhead_frac']:.1%})")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out_path}")
    return 0 if all(r["failed"] == 0 for r in results) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    default=SCRATCH / "BENCH_pipeline.json",
                    help="result file of --all")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        check_checkout()
        SCRATCH.mkdir(parents=True, exist_ok=True)
        if args.all:
            return run_all(args.seed, args.seconds, args.out)
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except HarnessError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
