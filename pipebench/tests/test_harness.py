"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest pipebench/tests -q

Each workload runs once at its smallest rung, untraced and traced, and
the oracle gate is shown one corrupted result per kind of check.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # cli-cold runs with --all only (pipebench/README.md says why)
    assert [w["name"] for w in spec["workloads"]] == ["pade-ladder",
                                                      "wide-grid"]
    assert set(workloads.WORKLOADS) == {"pade-ladder", "wide-grid",
                                        "cli-cold"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.JSON_END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_draws_follow_the_seed():
    a, b = workloads.draw(7), workloads.draw(7)
    assert a.directions == b.directions and a.resum_points == b.resum_points
    assert a.cycle_order(6) == b.cycle_order(6)
    assert a.directions[:2] == (0.0, math.pi)
    assert all(0.03 <= abs(t) <= 0.09 and t.real == 0 for t in a.resum_points)
    assert workloads.draw(8).resum_points != a.resum_points


def test_tail_percentile_keeps_ten_samples_above():
    value, pct, n = run.tail(list(range(30)))
    assert (value, n) == (19, 30) and abs(pct - 200 / 3) < 1e-12


def test_times_are_corrected_to_the_reference_speed():
    # the second op ran while the host was twice as slow as the reference
    ref = speed.PROBE_REF_S
    records = [{"latency_s": 1.0, "probe_s": ref, "misses": []},
               {"latency_s": 2.0, "probe_s": 2 * ref, "misses": []}]
    metrics, notes = run.end_to_end(records, 3.0, [(0.5, 2 * ref)], 1024)
    assert metrics["latency_p50_s"] == 1.0 and metrics["ops_per_s"] == 1.0
    assert metrics["setup_s"] == 0.25
    assert notes["uncorrected"]["latency_p50_s"] == 1.5
    assert notes["uncorrected"]["ops_per_s"] == 2 / 3


def _smallest(workload):
    ladder = workloads.LADDERS[workload]
    return [min(ladder, key=lambda op: op[0].trunc_t)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_at_smallest_rung(workload, trace):
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    if workload == "cli-cold":
        result = run.run_cli(3, 0.01, trace, ops=(workloads.CLI_CYCLE[0],))
    else:
        result = run.run_inprocess(workload, 3, 0.01, trace,
                                   ops=_smallest(workload))
    assert result["failed"] == 0, result["failures"]
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    names = ([n for n, _, _ in run.PER_LAYER] if trace
             else [n for n, _ in run.JSON_END_TO_END])
    assert list(line["metrics"]) == names
    assert result["environment"]["blas_threads"] == run.BLAS_THREADS
    if trace:
        assert result["per_layer"]["op_s"] > 0
        assert result["notes"]["traced_ops"] >= 1
    else:
        assert all(line["metrics"][n]["value"] > 0 for n in names)


# -- the oracle gate ----------------------------------------------------------

@pytest.fixture(scope="module")
def heat_op():
    """A genuine pade-ladder op on heat at trunc_t 60, with its oracle."""
    import msumma
    from msumma import dsl, solver

    problem = _smallest("pade-ladder")[0][0]
    draws = workloads.draw(0)
    text, = worker.build_texts([problem], dsl, solver)
    out = worker.run_op(text, draws, True, msumma)
    expect = {
        "grid": oracle.grid_oracle("heat", problem.trunc_t + 1,
                                   problem.margin + 1),
        "verdicts": oracle.expected_verdicts("heat", draws.directions),
        "resum": [oracle.resum_reference("heat", t, workloads.RESUM_DIRECTION)
                  for t in draws.resum_points]}
    return out, expect


@pytest.fixture(scope="module")
def heat_report(tmp_path_factory):
    from msumma.cli import main

    out = tmp_path_factory.mktemp("report")
    code = main(["report", str(workloads.DATA / "heat.mpde"),
                 "--out", str(out)])
    return code, {"report.json": (out / "report.json").read_text()}


def _perturbed_coefficient(out):
    mant = np.array(out["mant"])
    mant[7, 3] *= 1 + 1e-9
    return {**out, "mant": mant}


def _swapped_verdict(out):
    text = out["report_json"].replace('"singular"', '"@"')
    text = text.replace('"summable"', '"singular"', 1).replace('"@"',
                                                               '"summable"')
    return {**out, "report_json": text}


def _shifted_resum(out):
    values = list(out["resum"])
    values[2] *= 1 + 1e-6
    return {**out, "resum": values}


def test_oracle_gate_catches_each_corruption(heat_op, heat_report):
    out, expect = heat_op
    code, files = heat_report
    good = [oracle.check_pipeline_op("heat", out, expect),
            oracle.check_cli_op("report", "heat", code, files, {})]
    assert good == [[], []]

    bad = {
        "coefficient": oracle.check_pipeline_op(
            "heat", _perturbed_coefficient(out), expect),
        "verdict": oracle.check_pipeline_op(
            "heat", _swapped_verdict(out), expect),
        "resum": oracle.check_pipeline_op(
            "heat", _shifted_resum(out), expect),
        "exit code": oracle.check_cli_op("report", "heat", 3, files, {}),
    }
    for kind, misses in bad.items():
        assert len(misses) == 1, (kind, misses)
    assert "grid" in bad["coefficient"][0]
    assert "verdicts" in bad["verdict"][0]
    assert "laplace_resum" in bad["resum"][0]
    assert "exit code" in bad["exit code"][0]

    records = [{"misses": m} for m in good + list(bad.values())]
    assert oracle.failed_frac(records) == len(bad) / len(records)
