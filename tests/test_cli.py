import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import plbvp
from plbvp import cli
from plbvp.cases import CASES
from plbvp.cli import entry, main

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


@pytest.mark.parametrize("case", ["ex41", "ex42", "ex43"])
def test_reproduce_is_check_of_the_dumped_case(tmp_path, capsys, case):
    # reproduce prints what check, run with the case's flags on the file
    # dump writes, prints, but for its header and ex43's two reference lines
    path = tmp_path / f"{case}.problem"
    assert _run(capsys, "dump", case, "--out", str(path))[0] == 0
    argv = []
    for name, value in CASES[case].flags.items():
        argv += ["--" + name.replace("_", "-"), value if isinstance(value, str) else repr(value)]
    code, out, err = _run(capsys, "check", *argv, str(path))
    rep_code, rep_out, rep_err = _run(capsys, "reproduce", case)
    header = {"command", "case", "problem", "lambda1_reference", "m1_pow"}

    def body(text):
        return [line for line in text.splitlines() if line.partition(" = ")[0] not in header]

    assert (rep_code, rep_err) == (code, err)
    assert body(rep_out) == body(out)
    assert len(rep_out.splitlines()) - len(body(rep_out)) == (4 if case == "ex43" else 2)


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


@pytest.mark.parametrize("f", ["+".join(["u"] * 3000), "abs(" + "-" * 3000 + "u)",
                               "(" * 1000 + "u" + ")" * 1000],
                         ids=["sum", "minus", "parentheses"])
def test_deeply_nested_coefficient_exits_two(tmp_path, capsys, f):
    path = tmp_path / "deep.problem"
    path.write_text(f'[problem]\nalpha = 2.5\neta = 0.5\np = 1.5\na = "1"\nf = "{f}"\n',
                    encoding="utf-8")
    for argv in (["check", "--theorem", "3.3", "--nu", "1"], ["solve"], ["dump"]):
        code, out, err = _run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert "deep.problem:6: bad expression for f(t, u): expression nested deeper" in err


def test_nan_tolerance_exits_two(capsys, ex43_file):
    code, _, err = _run(capsys, "solve", str(ex43_file), "--tol", "nan")
    assert code == 2
    assert "tol must be positive" in err


def test_infinite_tolerance_exits_two(tmp_path, capsys, ex43_file):
    # an infinite tolerance would accept the first iterate as converged
    code, out, err = _run(capsys, "solve", str(ex43_file), "--tol", "inf",
                          "--out", str(tmp_path / "u.csv"))
    assert code == 2 and out == ""
    assert err == "plbvp: error: tol must be positive and finite\n"
    text = ex43_file.read_text(encoding="utf-8")
    solver_line = text.splitlines().index("[solver]") + 1
    path = tmp_path / "inf.problem"
    path.write_text(text.replace("tol = 1e-10", "tol = inf"), encoding="utf-8")
    code, out, err = _run(capsys, "solve", str(path), "--out", str(tmp_path / "u.csv"))
    assert code == 2 and out == ""
    assert err == (f"plbvp: error: {path}:{solver_line}: "
                   "tol must be positive and finite\n")
    assert not (tmp_path / "u.csv").exists()


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


@pytest.mark.parametrize("rho", ["1e-300", "1e-200"])
def test_underflowing_lambda2_integral_is_named(capsys, rho):
    # a = 2.5 t^1.5 is positive on [0, rho]; its integral, 1e-750 or 1e-500,
    # is not a float
    code, out, err = _run(capsys, "check", "--theorem", "3.1", "--rho1", "0.008333",
                          "--rho2", "1", "--rho", rho, str(PROBLEMS / "ex43.problem"))
    assert code == 2 and out == ""
    assert f"int_0^rho a underflows to 0 (rho = {rho})" in err
    assert "vanishes" not in err


@pytest.mark.parametrize("a", ["1e-155", "1e-156"])
def test_lambda1_too_small_to_invert_exits_two(tmp_path, capsys, a):
    # phi_q(int_0^1 a) = a^2 is subnormal, so 1 / it overflows to inf
    path = tmp_path / "asubnormal.problem"
    path.write_text(f'[problem]\nalpha = 2.5\neta = 0.5\np = 1.5\na = "{a}"\n'
                    'f = "1"\n', encoding="utf-8")
    code, _, err = _run(capsys, "check", "--theorem", "3.1", "--rho1", "0.1",
                        "--rho2", "1", str(path))
    assert code == 2
    assert "too small to invert" in err and "Lambda_1 is undefined" in err


@pytest.mark.parametrize("p, a, argv, quantities", [
    # k_bound underflows to 0
    ("3", "1e200", ["--theorem", "3.4", "--mu", "1e-300", "--sigma", "1", "--k", "1"],
     {"k_bound": "0", "contraction_l": "inf"}),
    # mu^(q-2) overflows, so k_bound is 0
    ("100", "1", ["--theorem", "3.4", "--mu", "1e-320", "--sigma", "0.5", "--k", "1"],
     {"k_bound": "0", "contraction_l": "inf"}),
], ids=["k_bound_underflows", "mu_power_overflows"])
def test_contraction_large_p_on_extreme_inputs_is_a_report(tmp_path, capsys, p, a, argv,
                                                           quantities):
    path = tmp_path / "extreme.problem"
    path.write_text(f'[problem]\nalpha = 2.5\neta = 0.5\np = {p}\na = "{a}"\n'
                    'f = "1"\n', encoding="utf-8")
    code, out, err = _run(capsys, "check", *argv, str(path))
    assert code == 1 and err == ""
    report = _report(out)
    assert {key: report[key] for key in quantities} == quantities
    assert report["verdict"] == "hypotheses_fail"


def test_contraction_small_p_with_overflowing_power_is_a_report(tmp_path, capsys):
    # M = int a k = 1e-10 and q = 101: M^(2-q) overflows, so the bound on L
    # is infinite
    path = tmp_path / "extreme.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.01\na = "1"\n'
                    'f = "1"\n', encoding="utf-8")
    code, out, err = _run(capsys, "check", "--theorem", "3.5", "--k-env", "1e-10",
                          "--L", "1", str(path))
    assert code == 1 and err == ""
    report = _report(out)
    assert report["l_bound"] == "inf" and report["contraction_l1"] == "0"
    assert report["check.3.holds"] == "true"
    assert report["verdict"] == "hypotheses_fail"  # f <= k fails


def test_overflowing_solve_is_a_nonconvergence(tmp_path, capsys):
    # the iterate overflows phi_q (q = 21): exit 1 with a report, no
    # warning and no LAPACK message
    path = tmp_path / "diverging.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.05\na = "3"\n'
                    'f = "1 + u"\n', encoding="utf-8")
    code, out, err = _run(capsys, "solve", str(path), "--out", str(tmp_path / "u.csv"))
    assert code == 1 and err == ""
    report = _report(out)
    assert report["residual"] == "inf"
    assert report["verdict"] == "not_converged"


def test_exponential_solve_that_overflows_f_is_a_nonconvergence(tmp_path, capsys):
    # the iterate makes f = e^u itself overflow: exit 1 with a report, not an
    # input error
    path = tmp_path / "exponential.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.05\na = "3"\n'
                    'f = "exp(u)"\n', encoding="utf-8")
    code, out, err = _run(capsys, "solve", str(path), "--out", str(tmp_path / "u.csv"))
    assert code == 1 and err == ""
    report = _report(out)
    assert report["residual"] == "inf"
    assert report["verdict"] == "not_converged"


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_solve_whose_running_integral_overflows_is_a_nonconvergence(tmp_path, capsys, p):
    # f = 1e308 is finite, but int_0^s a f is not: the solve reports, and
    # verify of its solution names the running integral
    path = tmp_path / "big.problem"
    path.write_text(f'[problem]\nalpha = 2.5\neta = 0.5\np = {p}\na = "1"\n'
                    'f = "1e308"\n', encoding="utf-8")
    csv = str(tmp_path / "u.csv")
    code, out, err = _run(capsys, "solve", str(path), "--out", csv)
    assert code == 1 and err == ""
    report = _report(out)
    assert report["residual"] == "inf"
    assert report["verdict"] == "not_converged"
    code, out, err = _run(capsys, "verify", str(path), "--solution", csv)
    assert code == 2 and out == ""
    assert err == "plbvp: error: the running integral int_0^s a f(tau, u) dtau overflows\n"


def test_verify_names_an_overflowing_phi_q(tmp_path, capsys):
    # int_0^s a f = 1e200 s is finite, but phi_q of it (q = 3) is not: the
    # solve reports, and verify names phi_q without a warning
    path = tmp_path / "big.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.5\na = "1"\n'
                    'f = "1e200"\n', encoding="utf-8")
    csv = str(tmp_path / "u.csv")
    code, out, err = _run(capsys, "solve", str(path), "--out", csv)
    assert code == 1 and err == ""
    assert _report(out)["residual"] == "inf"
    code, out, err = _run(capsys, "verify", str(path), "--solution", csv)
    assert code == 2 and out == ""
    assert err == ("plbvp: error: phi_q of the running integral "
                   "int_0^s a f(tau, u) dtau overflows\n")


def test_verify_of_values_near_the_float_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "flat.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.5\na = "1"\nf = "1"\n'
                    '[discretization]\npanels = 32\n', encoding="utf-8")
    nodes = plbvp.Partition.graded(32, 2.0).nodes
    csv = tmp_path / "u.csv"
    csv.write_text("t,u\n" + "".join(f"{t:.17g},{1.7e308 if i % 2 == 0 else 0.0!r}\n"
                                     for i, t in enumerate(nodes)), encoding="utf-8")
    code, out, err = _run(capsys, "verify", str(path), "--solution", str(csv))
    assert code == 2 and out == ""
    assert err == ("plbvp: error: the boundary stencils or the interpolant of u "
                   "overflow: |u| reaches 1.7e+308\n")


def test_contraction_small_p_with_overflowing_ak_integral_is_a_report(tmp_path, capsys):
    # a k = 1e310 overflows, so M = inf, M^(2-q) = 0 (q = 3) and the bound
    # on L is 0
    path = tmp_path / "bigA.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.5\na = "1e300"\n'
                    'f = "1"\n', encoding="utf-8")
    code, out, err = _run(capsys, "check", "--theorem", "3.5", "--k-env", "1e10",
                          "--L", "1", str(path))
    assert code == 1 and err == ""
    report = _report(out)
    assert (report["ak_integral"], report["l_bound"], report["contraction_l1"]) == (
        "inf", "0", "inf")
    assert report["check.3.holds"] == "false"
    assert report["verdict"] == "hypotheses_fail"


def test_leray_schauder_near_p_one_is_a_number(tmp_path, capsys):
    # q = 1e6 + 1: phi_q(L) = 2^q overflows and phi_q(int a) = 0.5^q
    # underflows, so the bound is phi_q(L int a) = phi_q(1) = 1 times int Phi
    path = tmp_path / "near_one.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.000001\na = "t"\n'
                    'f = "1 + u"\n', encoding="utf-8")
    code, out, err = _run(capsys, "check", "--theorem", "3.3", "--nu", "1", str(path))
    assert code == 1 and err == ""
    report = _report(out)
    assert report["rhs"] == report["envelope_integral"]
    assert report["verdict"] == "hypotheses_fail"


# Extreme but valid inputs: alpha near 2, eta near 0 and 1, p near 1 and
# large, with a coefficient vanishing at t = 0 and a superlinear f.
SWEEP_ALPHA = ("2.000000001", "2.5", "3")
SWEEP_ETA = ("1e-9", "0.5", "0.999999999")
SWEEP_P = ("1.000001", "1.5", "50")
SWEEP_COEFFICIENTS = (("t", "1 + u"), ("1", "u^2 + exp(-t)"))


def _sweep_calls(tmp_path):
    """(argv, allowed exit codes) of every call of the sweep."""
    calls = []
    for n, (alpha, eta, p, (a, f)) in enumerate(
            (alpha, eta, p, af) for alpha in SWEEP_ALPHA for eta in SWEEP_ETA
            for p in SWEEP_P for af in SWEEP_COEFFICIENTS):
        path = tmp_path / f"sweep{n}.problem"
        path.write_text(f'[problem]\nalpha = {alpha}\neta = {eta}\np = {p}\na = "{a}"\n'
                        f'f = "{f}"\n\n[discretization]\npanels = 64\n', encoding="utf-8")
        csv = str(tmp_path / f"sweep{n}.csv")
        contraction = (["--theorem", "3.4", "--mu", "0.1", "--sigma", "1", "--k", "1"]
                       if float(p) > 2.0 else ["--theorem", "3.5", "--k-env", "1", "--L", "1"])
        calls += [(["solve", str(path), "--out", csv], (0, 1, 2)),
                  (["verify", str(path), "--solution", csv], (0, 1, 2)),
                  (["check", "--theorem", "3.1", "--rho1", "0.1", "--rho2", "1", str(path)],
                   (0, 1, 2)),
                  (["check", "--theorem", "3.3", "--nu", "1", str(path)], (0, 1, 2)),
                  (["check", *contraction, str(path)], (0, 1, 2))]
    path = tmp_path / "exponential.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.05\na = "3"\n'
                    'f = "exp(u)"\n', encoding="utf-8")
    calls.append((["solve", str(path), "--out", str(tmp_path / "exponential.csv")], (1,)))
    path = tmp_path / "near_one.problem"
    path.write_text('[problem]\nalpha = 2.5\neta = 0.5\np = 1.000001\na = "t"\n'
                    'f = "1 + u"\n', encoding="utf-8")
    calls.append((["check", "--theorem", "3.3", "--nu", "1", str(path)], (0, 1, 2)))
    return calls


def test_extreme_inputs_sweep(tmp_path, capfd):
    # every call gives a report or one diagnostic line: no traceback, no
    # Python warning and nothing else on stderr (capfd also sees what LAPACK
    # prints)
    failures = []
    for argv, codes in _sweep_calls(tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capfd.readouterr().err
        lines = err.splitlines()
        if caught or code not in codes or not (
                err == "" or (len(lines) == 1 and lines[0].startswith("plbvp: error:"))):
            failures.append((argv[:3], code, err, [str(w.message) for w in caught]))
    assert failures == []


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


@pytest.mark.parametrize("argv, message", [
    (["--rho2", "1", "--M1", "nan"], "M1 must be finite, got nan"),
    (["--rho2", "1", "--M2", "inf"], "M2 must be finite, got inf"),
], ids=["M1_nan", "M2_inf"])
def test_check_nonfinite_m_exits_two(capsys, argv, message):
    code, out, err = _run(capsys, "check", "--theorem", "3.1", "--rho1", "0.008333", *argv,
                          str(PROBLEMS / "ex43.problem"))
    assert code == 2 and out == ""
    assert err == f"plbvp: error: {message}\n"


@pytest.mark.parametrize("argv, cap_key", [
    (["3.1", "--rho1", "0.008333", "--rho2", "10", "--M1", "1e308"], "phi_p_M1_rho2"),
    (["3.2", "--rho1", "0.5", "--rho2", "1e300", "--M2", "1e10"], "phi_p_M2_rho2"),
], ids=["M1_rho2", "M2_rho2"])
def test_check_overflowing_cap_is_a_report(capsys, argv, cap_key):
    code, out, err = _run(capsys, "check", "--theorem", *argv, str(PROBLEMS / "ex43.problem"))
    assert code == 1 and err == ""
    report = _report(out)
    assert report[cap_key] == "inf"
    assert report["verdict"] == "hypotheses_fail"


@pytest.mark.parametrize("cell, shown", [("", "nan"), ("nan", "nan"), ("inf", "inf"),
                                         ("-inf", "-inf")],
                         ids=["blank", "nan", "inf", "minus_inf"])
def test_verify_names_the_first_nonfinite_value(tmp_path, capsys, ex43_file, cell, shown):
    csv = tmp_path / "u.csv"
    code, _, _ = _run(capsys, "solve", str(ex43_file), "--panels", "16", "--out", str(csv))
    assert code == 0
    rows = csv.read_text(encoding="utf-8").splitlines()
    for k in (3, 5):
        rows[k] = rows[k].partition(",")[0] + "," + cell
    csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "verify", str(ex43_file), "--solution", str(csv))
    assert code == 2 and out == ""
    assert err == f"plbvp: error: grid function values must be finite: values[2] = {shown}\n"


def test_verify_rejects_bad_csv(tmp_path, capsys, ex41_file):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,0\n", encoding="utf-8")
    code, _, err = _run(capsys, "verify", str(ex41_file), "--solution", str(path))
    assert code == 2


@pytest.mark.parametrize("case", ["ex42", "ex43"])
def test_verify_rejects_nan_nodes(tmp_path, capsys, case):
    problem = tmp_path / f"{case}.problem"
    _run(capsys, "dump", case, "--out", str(problem))
    csv = tmp_path / "u.csv"
    code, _, _ = _run(capsys, "solve", str(problem), "--panels", "8", "--out", str(csv))
    assert code == 0
    rows = csv.read_text(encoding="utf-8").splitlines()
    rows[3] = "nan," + rows[3].partition(",")[2]
    csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "verify", str(problem), "--solution", str(csv))
    assert code == 2 and out == ""
    assert "partition nodes must be strictly increasing: nodes[1:3] = [" in err
    assert err.rstrip().endswith(", nan]")


def test_console_script_entry_dumps_bundled_file(monkeypatch, capsys):
    # entry() is what the installed plbvp console script runs
    monkeypatch.setattr(sys, "argv", ["plbvp", "dump", "ex41"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out == (PROBLEMS / "ex41.problem").read_text(encoding="utf-8")


def _fresh(code: str):
    """The last line code prints in a fresh interpreter, run from the
    repository root, as a Python literal."""
    src = str(Path(plbvp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, cwd=PROBLEMS.parent).stdout
    return ast.literal_eval(out.splitlines()[-1])


def _modules_after(code: str) -> list:
    """The plbvp, scipy and numpy.polynomial modules a fresh interpreter has
    imported after running code."""
    return _fresh(code + "\nimport sys\nprint(sorted(m for m in sys.modules if "
                  "m.split('.')[0] in ('plbvp', 'scipy') or m.startswith('numpy.polynomial')))")


def test_cli_import_needs_no_scipy(tmp_path):
    # each subcommand imports only the modules it runs
    csv = str(tmp_path / "u.csv")
    calls = {
        "solve": ["solve", "problems/ex43.problem", "--out", csv],
        "verify": ["verify", "problems/ex43.problem", "--solution", csv],
        "check": ["check", "--theorem", "3.5", "--k-env", "exp(-t)", "--L", "2",
                  "problems/ex42.problem"],
        "reproduce": ["reproduce", "ex43"],
        "dump": ["dump", "ex43"],
    }
    runs = {"import": "import plbvp.cli"}
    for name, argv in calls.items():
        runs[name] = ("import contextlib, io\nfrom plbvp.cli import main\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      f"    assert main({argv!r}) == 0")
    base = {"plbvp", "plbvp.cli", "plbvp.exprlang", "plbvp.greens", "plbvp.plaplacian",
            "plbvp.problemfile", "plbvp.quadrature", "plbvp.solver"}
    want = {"import": base, "solve": base, "verify": base | {"plbvp.verify"},
            "check": base | {"plbvp.specialfn", "plbvp.theorems"},
            "reproduce": base | {"plbvp.cases", "plbvp.specialfn", "plbvp.theorems"},
            "dump": base | {"plbvp.cases"}}
    for name, code in runs.items():
        assert set(_modules_after(code)) == want[name], name


def test_bare_package_import_imports_no_submodule():
    assert _modules_after("import plbvp") == ["plbvp"]


def test_bundled_case_is_built_when_first_asked_for():
    code = ("import contextlib, io\nfrom plbvp.cases import CASES\nfrom plbvp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['reproduce', 'ex43']), main(['dump', 'ex43'])\n"
            "print(list(CASES._built))")
    assert _fresh(code) == ["ex43"]
    assert CASES["ex43"] is CASES["ex43"] and CASES.get("ex44") is None


def test_reproduce_choices_are_the_case_ids(capsys):
    assert cli._CASE_IDS == tuple(sorted(CASES))
    code, out, _ = _run(capsys, "reproduce", "--help")
    assert code == 0 and "{ex41,ex42,ex43}" in out
