import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from msumma.cli import main
from msumma.errors import MsummaError, ParseError

DATA = Path(__file__).parent / "data"
HEAT = str(DATA / "heat.mpde")
WAVE = str(DATA / "wave.mpde")
DIVERGENT = str(DATA / "divergent_data.mpde")


def run(args, **kw):
    return main([str(a) for a in args], **kw)


# -- happy paths -------------------------------------------------------------

def test_solve_writes_solution(tmp_path):
    assert run(["solve", HEAT, "--out", tmp_path]) == 0
    sol = (tmp_path / "solution.biseries").read_text()
    header = sol.splitlines()[0].split()
    assert header[:2] == ["1", "1"]  # kappa_t kappa_z
    rec = json.loads((tmp_path / "run_record.json").read_text())
    assert set(rec) == {"input_sha256", "version", "timestamp",
                        "report_sha256"}
    assert len(rec["input_sha256"]) == 64


def test_gevrey_output(tmp_path, capsys):
    assert run(["gevrey", HEAT, "--out", tmp_path]) == 0
    text = (tmp_path / "gevrey.txt").read_text()
    row = [ln for ln in text.splitlines() if ln.startswith("u(t,0)")][0]
    assert abs(float(row.split()[1]) - 1.0) < 0.05


def test_singular_payload(tmp_path):
    assert run(["singular", HEAT, "--out", tmp_path]) == 0
    d = json.loads((tmp_path / "singularities.json").read_text())
    assert d["schema"] == "singularity_set.v1"
    assert not d["inconclusive"]
    loc = d["points"][0]["location"]
    # 20 t-coefficients only; the N = 40 run pins this to 1e-3
    assert abs(complex(loc[0], loc[1]) - 0.25) < 5e-3


def test_verdict_json_and_csv(tmp_path):
    dirs = f"0,{math.pi / 2},{math.pi}"
    assert run(["verdict", HEAT, "--directions", dirs,
                "--out", tmp_path]) == 0
    d = json.loads((tmp_path / "summability_report.json").read_text())
    vs = [v["verdict"] for v in d["verdicts"][0]]
    assert vs == ["singular", "summable", "summable"]
    assert run(["verdict", HEAT, "--directions", dirs, "--csv",
                "--out", tmp_path]) == 0
    csv_text = (tmp_path / "summability_report.csv").read_text()
    assert csv_text.splitlines()[0] == "level_q,level_K,direction,verdict,witness"


def test_resum_runs(tmp_path):
    assert run(["resum", HEAT, "--t", "0.05j", "--d", str(math.pi / 2),
                "--out", tmp_path]) == 0
    text = (tmp_path / "resummation.txt").read_text()
    val = complex(text.splitlines()[2].split("= ")[1])
    # small |t| on a summable ray: close to the Borel sum of the diagonal
    assert abs(val) < 2.0 and val != 0


def test_report_bundle(tmp_path):
    assert run(["report", HEAT, "--out", tmp_path]) == 0
    d = json.loads((tmp_path / "report.json").read_text())
    assert d["schema"] == "msumma_report.v1"
    assert abs(d["gevrey"]["order_hat"] - 1.0) < 0.05
    assert d["singularities"]["points"]
    for name in ("coefficients.csv", "pade_poles.csv", "verdicts.csv",
                 "run_record.json"):
        assert (tmp_path / name).exists()


def test_stdout_when_no_out_dir(capsys):
    assert run(["gevrey", HEAT]) == 0
    assert "u(t,0)" in capsys.readouterr().out


def test_trunc_override(tmp_path):
    assert run(["solve", HEAT, "--trunc", "5", "--out", tmp_path]) == 0
    header = (tmp_path / "solution.biseries").read_text().splitlines()[0]
    assert header.split()[2] == "5"


# -- exit codes --------------------------------------------------------------

def test_solve_equation_without_lower_term(tmp_path):
    prob = tmp_path / "L.mpde"
    prob.write_text("equation: L;\nm1: Gamma(1);\nm2: Gamma(1);\n"
                    "data: rat(1/(1-z));\ntrunc_t: 5;\ntrunc_z: 10;\n")
    assert run(["solve", prob, "--out", tmp_path]) == 0
    rows = (tmp_path / "solution.biseries").read_text().splitlines()[1:]
    assert len(rows) == 6 * 11


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mpde"
    bad.write_text("equation L - Z;\ndata: coeffs(1);\n")
    assert run(["solve", bad]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 1" in err


@pytest.mark.parametrize("text,where", [
    ("equation: L - Z;\ndata: coeffs(1e400);\n", "line 2, col 14"),
    ("equation: L - Z²;\ndata: coeffs(1);\n", "line 1, col 16"),
    ("equation: L - Z;\ndata: coeffs(1e308*10);\n", "line 2, col 14"),
], ids=["1e400", "non-ASCII digit", "overflowing product"])
def test_malformed_literal_exit_2(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.mpde"
    bad.write_text(text, encoding="utf-8")
    assert run(["solve", bad]) == 2
    assert f"parse error: {where}:" in capsys.readouterr().err


def test_semantic_error_exit_3(capsys):
    # wave problem has no divergent level, nothing to resum
    assert run(["singular", WAVE]) == 3
    assert "error" in capsys.readouterr().err


def test_row_count_mismatch_exit_3(tmp_path, capsys):
    bad = tmp_path / "rows.mpde"
    bad.write_text("equation: L^2 - Z;\ndata: coeffs(1);\n")
    assert run(["solve", bad]) == 3
    assert "2 Cauchy rows" in capsys.readouterr().err


def test_negative_gamma_coeffs_exit_3(tmp_path, capsys):
    bad = tmp_path / "neg.mpde"
    bad.write_text("equation: L - Z;\ndata: gamma_coeffs(-1/2);\n"
                   "trunc_z: 10;\n")
    assert run(["solve", bad, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: gamma_coeffs(-1/2)")


def test_missing_flag_exit_3():
    assert run(["resum", HEAT]) == 3
    assert run(["verdict", HEAT]) == 3
    assert run(["resum", HEAT, "--t", "bogus"]) == 3


def test_bad_resum_direction_exit_3(tmp_path, capsys):
    # --d goes through the --directions parser: one finite angle
    for d in ("abc", "nan", "inf", "0.1,0.2", ""):
        assert run(["resum", HEAT, "--t", "0.05j", "--d", d,
                    "--out", tmp_path]) == 3
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "resummation.txt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_resum_point_exit_3(tmp_path, capsys):
    # a t that is not finite, or zero, is refused before any work, as a
    # non-finite --d is: exit 3, nothing written
    for t in ("nan", "infj", "nanj", "inf", "0", "0j", "-0"):
        assert run(["resum", HEAT, "--t", t, "--d", "1.5708",
                    "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad --t value") and "finite" in err
    assert not (tmp_path / "resummation.txt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_resum_point_refused_without_warning(tmp_path, capsys):
    # finite but far past the Pade sum's range: the Laplace integral is not
    # finite, which is refused with exit 3 and no RuntimeWarning on the way
    assert run(["resum", HEAT, "--t", "1e200j", "--d", "1.5708",
                "--out", tmp_path]) == 3
    assert "is not finite" in capsys.readouterr().err
    assert not (tmp_path / "resummation.txt").exists()


def test_non_finite_directions_exit_3(tmp_path, capsys):
    for dirs in ("nan,1", "1,inf", "2,-inf"):
        assert run(["verdict", HEAT, "--directions", dirs,
                    "--out", tmp_path]) == 3
        assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "summability_report.json").exists()


def test_report_refuses_bad_directions_before_solving(tmp_path, capsys,
                                                     monkeypatch):
    # as verdict and resum do: a bad --directions list exits 3 before the
    # recurrence runs, and nothing is written
    import msumma.cli as cli

    calls = []
    monkeypatch.setattr(cli, "solve_constant_leading", calls.append)
    assert run(["report", HEAT, "--directions", "a,b",
                "--out", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.startswith("error: bad --directions")
    assert not (tmp_path / "out").exists()
    assert calls == []


def test_blocked_ray_exit_3(capsys):
    assert run(["resum", HEAT, "--t", "0.05", "--d", "0"]) == 3
    assert "blocked" in capsys.readouterr().err


def test_non_finite_resum_exit_3(tmp_path, capsys):
    # heat with e^{z^3} data at trunc_t 30: laplace_resum refuses a nan sum
    c = [0.0] * 63
    c[::3] = [1.0 / math.factorial(k) for k in range(21)]
    prob = tmp_path / "heat_exp3.mpde"
    prob.write_text("equation: L - Z^2;\nm1: Gamma(1);\nm2: Gamma(1);\n"
                    f"data: coeffs({', '.join(map(repr, c))});\n"
                    "trunc_t: 30;\ntrunc_z: 62;\n")
    assert run(["resum", prob, "--t", "0.2", "--d", "0",
                "--out", tmp_path]) == 3
    assert capsys.readouterr().err.startswith("error: Laplace integral")
    assert not (tmp_path / "resummation.txt").exists()


def test_missing_file_exit_3():
    assert run(["solve", "/nonexistent/x.mpde"]) == 3


def test_inconclusive_exit_4(tmp_path):
    short = tmp_path / "short.mpde"
    short.write_text("equation: L - Z^2;\n"
                     "data: coeffs(1, 1, 1, 1, 1, 1);\n"
                     "trunc_t: 2;\ntrunc_z: 6;\n")
    assert run(["singular", short]) == 4
    assert run(["verdict", short, "--directions", "0.1"]) == 4


def _error_classes(cls=MsummaError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", [*(c for c in _error_classes()
                                     if c is not ParseError), RuntimeError],
                         ids=lambda c: c.__name__)
def test_exit_code_follows_error_class(tmp_path, capsys, monkeypatch, error):
    # every MsummaError but a ParseError is exit 3, whichever stage raises
    # it; any other exception is an internal error, exit 5; either way
    # nothing is written
    import msumma.cli as cli

    def failing(prob):
        raise error("boom")

    monkeypatch.setattr(cli, "solve_constant_leading", failing)
    code, line = ((3, "error: boom\n") if issubclass(error, MsummaError)
                  else (5, "internal error: RuntimeError: boom\n"))
    assert run(["solve", HEAT, "--out", tmp_path / "out"]) == code
    assert capsys.readouterr().err == line
    assert not (tmp_path / "out").exists()


def test_failed_report_writes_nothing(tmp_path, capsys, monkeypatch):
    # the pole CSV is the report's last output: a failure there leaves no
    # report.json (nor any other file) behind
    import msumma.cli as cli

    def failing(bor):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "stable_poles", failing)
    assert run(["report", HEAT, "--out", tmp_path]) == 5
    assert "internal error: RuntimeError" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve"], ["gevrey"], ["singular"], ["verdict", "--directions", "0,1"],
    ["resum", "--t", "0.05j", "--d", "1.5708"], ["report"]],
    ids=lambda a: a[0])
def test_newton_polygon_once_per_command(tmp_path, monkeypatch, argv):
    import msumma.analysis
    import msumma.cli
    import msumma.solver

    calls = []
    roots = msumma.cli.newton_polygon_roots

    def counting(P):
        calls.append(P)
        return roots(P)

    for mod in (msumma.analysis, msumma.cli, msumma.solver):
        monkeypatch.setattr(mod, "newton_polygon_roots", counting)
    assert run([argv[0], HEAT, *argv[1:], "--out", tmp_path]) == 0
    assert len(calls) <= 1


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        run(["frobnicate", HEAT])


# -- determinism -------------------------------------------------------------

STABLE_FILES = ("report.json", "coefficients.csv", "pade_poles.csv",
                "verdicts.csv")


def test_reports_are_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["report", HEAT, "--out", a]) == 0
    assert run(["report", HEAT, "--out", b]) == 0
    for name in STABLE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ra = json.loads((a / "run_record.json").read_text())
    rb = json.loads((b / "run_record.json").read_text())
    # only the timestamp may differ between identical runs
    ra.pop("timestamp"), rb.pop("timestamp")
    assert ra == rb


def test_report_solves_once(tmp_path, monkeypatch):
    import msumma.cli as cli

    calls = []
    solve = cli.solve_constant_leading

    def counting(prob):
        calls.append(prob)
        return solve(prob)

    monkeypatch.setattr(cli, "solve_constant_leading", counting)
    assert run(["report", HEAT, "--out", tmp_path]) == 0
    assert len(calls) == 1
    # the bundled singularity set is the one `singular` writes
    assert run(["singular", HEAT, "--out", tmp_path / "s"]) == 0
    bundle = json.loads((tmp_path / "report.json").read_text())
    sing = json.loads((tmp_path / "s" / "singularities.json").read_text())
    assert bundle["singularities"] == sing


def test_solve_serializes_once(tmp_path, monkeypatch):
    from msumma import BiSeries

    calls = []
    dumps = BiSeries.dumps

    def counting(self):
        calls.append(self)
        return dumps(self)

    monkeypatch.setattr(BiSeries, "dumps", counting)
    assert run(["solve", WAVE, "--out", tmp_path]) == 0
    assert len(calls) == 1
    text = (tmp_path / "solution.biseries").read_text()
    rec = json.loads((tmp_path / "run_record.json").read_text())
    assert rec["report_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "msumma.cli", "gevrey", HEAT],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "u(t,0)" in proc.stdout


def test_divergent_data_pipeline(tmp_path):
    # transport with Gevrey-1 datum: level comes from the data regularity
    assert run(["singular", DIVERGENT, "--out", tmp_path]) == 0
    d = json.loads((tmp_path / "singularities.json").read_text())
    assert not d["inconclusive"]
