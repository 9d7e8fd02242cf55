"""Workload process of the in-process workloads (pade-ladder, wide-grid).

Usage: python3 pipebench/worker.py PLAN.json

run.py writes the plan, starts this process and counts its set-up time
until the ``READY`` line: interpreter start, ``import msumma``, building
the problem texts and one untimed warm-up op on the smallest rung.  A
probe plan stops there.  Otherwise the process then loads the oracle
values the harness computed and runs whole cycles of ops, one at a time,
until the timed loop has run for the plan's seconds and at least its
min_cycles cycles; a traced plan
alternates untraced and traced cycles.  Each op is bracketed by speed
probes (speed.py), outside its latency.  Checking an op's
output against the oracle happens outside both the op's latency and the
loop time.  The result goes to the plan's result file as JSON.
"""
from __future__ import annotations

import json
import resource
import sys
import time

import speed
import workloads

clock = time.perf_counter


def build_texts(problems, dsl, solver):
    texts = []
    for p in problems:
        tpl = workloads.template(p.name)
        pf = dsl.parse_problem(tpl)
        need = solver.required_z_truncation(pf.equation, pf.kappa, p.trunc_t)
        texts.append(workloads.with_truncation(tpl, p.trunc_t,
                                               need + p.margin))
    return texts


def run_op(text, draws, resumming, ms):
    """One pipeline op; every call goes through a module attribute so the
    tracer's wrappers see it."""
    pf = ms.dsl.parse_problem(text)
    prob = pf.to_problem()
    u = ms.solver.solve_constant_leading(prob)
    diag = u.extract_col(0)
    gevrey = ms.analysis.estimate_gevrey(diag)
    report = ms.analysis.summability_verdict(prob, draws.directions)
    pole = resum = None
    if resumming:
        _, K = report.levels[0]
        m = ms.moments.MomentFunction.gamma(1 / K)
        bor = ms.operators.borel(m, diag)
        sing = ms.analysis.borel_singularities(bor)
        pole = sing.points[0].location if sing.points else None
        kernel = ms.moments.kernel_pair_for(m)
        resum = [ms.resummation.laplace_resum(
            bor, kernel, workloads.RESUM_DIRECTION, t).value
            for t in draws.resum_points]
    return {"mant": u.mant, "exp10": u.exp10, "dumps": u.dumps(),
            "report_json": report.to_json(), "gevrey": gevrey.order_hat,
            "pole": pole, "resum": resum}


def load_expectations(plan):
    import numpy as np

    with open(plan["expect_path"], encoding="utf-8") as fh:
        expect = json.load(fh)
    grids = np.load(plan["grid_path"])
    for key, e in expect.items():
        e["grid"] = (grids[key + ".mant"], grids[key + ".exp10"])
        if e["resum"] is not None:
            e["resum"] = [complex(*v) for v in e["resum"]]
    return expect


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import msumma
    from msumma import dsl, solver

    ops = [tuple(workloads.Problem(*p) for p in op) for op in plan["ops"]]
    resumming = plan["resumming"]
    draws = workloads.draw(plan["seed"])
    texts = [build_texts(op, dsl, solver) for op in ops]
    smallest = min(range(len(ops)), key=lambda i: ops[i][0].trunc_t)
    for text in texts[smallest]:
        run_op(text, draws, resumming, msumma)
    print("READY", flush=True)
    if plan["probe"]:
        return 0

    import oracle

    expect = load_expectations(plan)
    records, layer_ops = [], []
    tracer = None
    check_s = 0.0

    def cycle(traced):
        nonlocal check_s
        for i in draws.cycle_order(len(ops)):
            key = workloads.op_key(ops[i])
            op_id = len(records)
            before = speed.probe()
            token = tracer.begin_op(op_id) if traced else None
            t0 = clock()
            try:
                outs = [run_op(text, draws, resumming, msumma)
                        for text in texts[i]]
                error = None
            except Exception as exc:  # an op that raises is a failed op
                outs, error = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            if traced:
                layer_ops.append({"problem": key, **tracer.end_op(token)})
            after = speed.probe()
            c0 = clock()
            misses = [error] if error else [
                f"{p.key}: {miss}" for p, out in zip(ops[i], outs)
                for miss in oracle.check_pipeline_op(p.name, out,
                                                     expect[p.key])]
            outs = None
            check_s += clock() - c0
            records.append({"op": op_id, "problem": key, "traced": traced,
                            "latency_s": latency,
                            "probe_s": (before + after) / 2,
                            "misses": misses})

    start = clock()

    def loop_s():
        return clock() - start - check_s

    # a traced run alternates untraced and traced cycles, so the tracing
    # overhead compares ops run under the same machine conditions
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
    traced_s = 0.0
    cycles = 0
    while True:
        cycles += 1
        cycle(False)
        if tracer is not None:
            undo = spans.install(tracer)
            before = loop_s()
            cycle(True)
            traced_s += loop_s() - before
            spans.uninstall(undo)
        if loop_s() >= plan["seconds"] and cycles >= plan["min_cycles"]:
            break
    elapsed = loop_s()
    if tracer is not None:
        tracer.write_spans(plan["spans_path"])

    import numpy
    import scipy

    result = {
        "records": records,
        "loop_s": elapsed,
        "traced_loop_s": traced_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layer_ops": layer_ops,
        "env": {"backend": msumma.BACKEND, "python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
