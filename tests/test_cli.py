import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plbvp
from plbvp.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


@pytest.fixture
def ex41_file(tmp_path, capsys):
    path = tmp_path / "ex41.problem"
    code, _, _ = _run(capsys, "dump", "ex41", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def ex43_file(tmp_path, capsys):
    path = tmp_path / "ex43.problem"
    code, _, _ = _run(capsys, "dump", "ex43", "--out", str(path))
    assert code == 0
    return path


def test_solve_writes_csv(tmp_path, capsys, ex41_file):
    out_csv = tmp_path / "sol.csv"
    code, out, _ = _run(capsys, "solve", str(ex41_file), "--out", str(out_csv))
    assert code == 0
    report = _report(out)
    assert report["verdict"] == "converged"
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,u"
    data = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    assert data.shape == (257, 2)
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0


def test_solve_to_stdout_is_csv(capsys, ex41_file):
    code, out, _ = _run(capsys, "solve", str(ex41_file))
    assert code == 0
    assert out.splitlines()[0] == "t,u"


def test_check_theorem_33(capsys, ex41_file):
    code, out, _ = _run(capsys, "check", "--theorem", "3.3", "--nu", "1",
                        str(ex41_file))
    assert code == 0
    report = _report(out)
    assert report["verdict"] == "hypotheses_hold"
    rhs = float(report["rhs"])
    assert abs(rhs - 0.3735) < 1e-3
    assert abs(rhs - 0.372) < 0.01


def test_check_failing_exits_one(capsys, ex43_file):
    # f(t, 0) is bounded away from zero here, so a tiny nu cannot dominate
    code, out, _ = _run(capsys, "check", "--theorem", "3.3", "--nu", "0.01",
                        str(ex43_file))
    assert code == 1
    assert _report(out)["verdict"] == "hypotheses_fail"


def test_check_missing_theorem_flags(capsys, ex41_file):
    code, _, err = _run(capsys, "check", "--theorem", "3.3", str(ex41_file))
    assert code == 2
    assert "--nu" in err


def test_check_crosstheorem_flags(capsys, ex43_file):
    code, out, _ = _run(capsys, "check", "--theorem", "3.1",
                        "--rho1", str(1.0 / 120.0), "--rho2", "1",
                        str(ex43_file))
    assert code == 0
    report = _report(out)
    assert report["verdict"] == "hypotheses_hold"
    assert abs(float(report["lambda1"]) - 0.94952884869938359) < 1e-9


def test_reproduce_ex41(capsys):
    code, out, _ = _run(capsys, "reproduce", "ex41")
    assert code == 0
    report = _report(out)
    assert abs(float(report["f_max"]) - 0.34657359027997264) < 1e-9
    assert report["verdict"] == "hypotheses_hold"


def test_reproduce_ex42(capsys):
    code, out, _ = _run(capsys, "reproduce", "ex42")
    assert code == 0
    report = _report(out)
    assert abs(float(report["l_bound"]) - 3.90744) < 1e-4
    assert report["verdict"] == "hypotheses_hold"


def test_reproduce_ex43(capsys):
    code, out, _ = _run(capsys, "reproduce", "ex43")
    assert code == 0
    report = _report(out)
    assert abs(float(report["lambda1"]) - 0.94952) < 1e-4
    assert abs(float(report["lambda1"]) - float(report["lambda1_reference"])) < 1e-9
    assert abs(float(report["m1_pow"]) - 0.87855) < 1e-4
    assert report["verdict"] == "hypotheses_hold"


def test_verify_round_trip(tmp_path, capsys, ex43_file):
    out_csv = tmp_path / "sol43.csv"
    code, _, _ = _run(capsys, "solve", str(ex43_file), "--out", str(out_csv))
    assert code == 0
    code, out, _ = _run(capsys, "verify", str(ex43_file),
                        "--solution", str(out_csv))
    assert code == 0
    report = _report(out)
    assert float(report["integral_form_residual"]) <= 1e-5
    assert float(report["cone_slack"]) >= -1e-10
    assert 1.0 / 120.0 < float(report["sup_norm"]) < 1.0
    assert report["verdict"] == "reported"


def test_deterministic_reports(capsys, ex41_file):
    _, out1, _ = _run(capsys, "check", "--theorem", "3.3", "--nu", "1",
                      str(ex41_file))
    _, out2, _ = _run(capsys, "check", "--theorem", "3.3", "--nu", "1",
                      str(ex41_file))
    assert out1 == out2


def test_dump_round_trip_byte_identical(tmp_path, capsys):
    _, out1, _ = _run(capsys, "dump", "ex42")
    path = tmp_path / "ex42.problem"
    path.write_text(out1, encoding="utf-8")
    _, out2, _ = _run(capsys, "dump", str(path))
    assert out1 == out2


@pytest.mark.parametrize("case", ["ex41", "ex42", "ex43"])
def test_dump_matches_bundled_problem_file(capsys, case):
    code, out, _ = _run(capsys, "dump", case)
    assert code == 0
    assert out == (PROBLEMS / f"{case}.problem").read_text(encoding="utf-8")


def test_missing_file_exits_two(capsys):
    code, _, err = _run(capsys, "solve", "no-such-file.problem")
    assert code == 2
    assert "error" in err


def test_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.problem"
    path.write_text("[problem]\nalpha = nope\n", encoding="utf-8")
    code, _, err = _run(capsys, "solve", str(path))
    assert code == 2
    assert "bad.problem:2" in err


def test_overflowing_coefficient_exits_two(tmp_path):
    path = tmp_path / "overflow.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.5\na = "1"\n'
                    'f = "u + 10^400"\n', encoding="utf-8")
    src = str(Path(plbvp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "plbvp.cli", "solve", str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "non-finite value" in proc.stderr and "Traceback" not in proc.stderr


def test_nan_tolerance_exits_two(capsys, ex43_file):
    code, _, err = _run(capsys, "solve", str(ex43_file), "--tol", "nan")
    assert code == 2
    assert "tol must be positive" in err


@pytest.mark.parametrize("argv", [
    ["--theorem", "3.1", "--rho1", "0.1", "--rho2", "1"],
    ["--theorem", "3.4", "--mu", "0.005", "--sigma", "1.5", "--k", "0.01"],
])
def test_vanishing_coefficient_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "azero.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 3\na = "0"\n'
                    'f = "1 + u"\n', encoding="utf-8")
    code, _, err = _run(capsys, "check", *argv, str(path))
    assert code == 2
    assert "a(t) vanishes identically" in err


@pytest.mark.parametrize("argv", [
    ["--theorem", "3.1", "--rho1", "0.1", "--rho2", "1"],
    ["--theorem", "3.2", "--rho1", "0.5", "--rho2", "1"],
])
def test_underflowing_lambda1_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "atiny.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.5\na = "1e-300"\n'
                    'f = "1"\n', encoding="utf-8")
    code, _, err = _run(capsys, "check", *argv, str(path))
    assert code == 2
    assert "phi_q(int_0^1 a) underflows to 0" in err
    assert "Lambda_1 is undefined" in err


@pytest.mark.parametrize("argv", [
    ["--theorem", "3.3", "--nu", "10"],
    ["--theorem", "3.1", "--rho1", "0.1", "--rho2", "1"],
])
def test_coarse_rule_near_alpha_two_gives_a_verdict(tmp_path, capsys, argv):
    # two Gauss points on 64 panels integrate the envelope Phi, nearly
    # singular at s = 1 for alpha = 2.1, only to about 1e-7
    path = tmp_path / "coarse.problem"
    path.write_text('[problem]\nalpha = 2.1\neta = 0.5\np = 1.5\na = "1"\n'
                    'f = "0.5*t*ln(u+1)"\n\n[discretization]\npanels = 64\n'
                    'points_per_panel = 2\n', encoding="utf-8")
    code, out, _ = _run(capsys, "check", *argv, str(path))
    assert code in (0, 1)
    assert _report(out)["verdict"] in ("hypotheses_hold", "hypotheses_fail")


def test_unknown_flag_exits_two(capsys, ex41_file):
    code, _, _ = _run(capsys, "solve", "--frobnicate", str(ex41_file))
    assert code == 2


def test_solver_overrides(tmp_path, capsys, ex43_file):
    out_csv = tmp_path / "coarse.csv"
    code, out, _ = _run(capsys, "solve", str(ex43_file), "--panels", "64",
                        "--tol", "1e-8", "--out", str(out_csv))
    assert code == 0
    assert len(out_csv.read_text().strip().splitlines()) == 66  # header + 65 nodes


def test_zero_panels_rejected(capsys, ex43_file):
    code, _, err = _run(capsys, "solve", str(ex43_file), "--panels", "0")
    assert code == 2
    assert "panels must be >= 4" in err


def test_verify_rejects_bad_csv(tmp_path, capsys, ex41_file):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,0\n", encoding="utf-8")
    code, _, err = _run(capsys, "verify", str(ex41_file), "--solution", str(path))
    assert code == 2


def test_cli_import_needs_no_scipy():
    src = str(Path(plbvp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, plbvp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
