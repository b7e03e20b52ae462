"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them inline).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from plbvp.cases import CASES
from plbvp.cli import main as cli_main
from plbvp.exprlang import parse
from plbvp.greens import KernelParams, g_kernel, h_kernel, k_kernel, phi_envelope
from plbvp.quadrature import GridFunction, Partition, integrate
from plbvp.solver import Discretization, Problem, kernel_route, picard_solve
from plbvp.specialfn import beta, gamma
from plbvp.theorems import check_contraction_large_p, lambda1, lambda2
from plbvp.verify import verification_report


@contextlib.contextmanager
def criterion(number: int, name: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {name}")
        raise
    elapsed = time.perf_counter() - start
    stamp = f" ({elapsed:.2f}s)" if limit_seconds else ""
    print(f"ACCEPTANCE {number}: PASS - {name}{stamp}")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s >= {limit_seconds}s"


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    report = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value
    return code, report, out


def test_criterion_1_example_41_reproduction(tmp_path, capsys):
    with criterion(1, "Example 4.1: theorem 3.3 check at nu = 1", 5.0):
        path = tmp_path / "ex41.problem"
        assert _run_cli(capsys, "dump", "ex41", "--out", str(path))[0] == 0
        code, report, _ = _run_cli(capsys, "check", "--theorem", "3.3",
                                   "--nu", "1", str(path))
        assert code == 0
        assert abs(float(report["f_max"]) - 0.5 * math.log(2.0)) <= 1e-6
        rhs = float(report["rhs"])
        assert abs(rhs - 0.372) <= 0.01
        assert abs(rhs - 0.37348362145043844614) <= 1e-6
        assert report["verdict"] == "hypotheses_hold"


def test_criterion_2_example_42_reproduction(tmp_path, capsys):
    with criterion(2, "Example 4.2: theorem 3.5 check with k = exp(-t), L = 2", 5.0):
        path = tmp_path / "ex42.problem"
        assert _run_cli(capsys, "dump", "ex42", "--out", str(path))[0] == 0
        code, report, _ = _run_cli(capsys, "check", "--theorem", "3.5",
                                   "--k-env", "exp(-t)", "--L", "2", str(path))
        assert code == 0
        assert abs(float(report["l_bound"]) - 3.90744) <= 1e-4
        assert report["verdict"] == "hypotheses_hold"


def test_criterion_3_example_43_reproduction(tmp_path, capsys):
    with criterion(3, "Example 4.3: reproduce, solve, verify", 30.0):
        code, report, _ = _run_cli(capsys, "reproduce", "ex43")
        assert code == 0
        lam1 = float(report["lambda1"])
        assert abs(lam1 - 0.94952) <= 1e-4
        assert abs(lam1 - 15.0 * gamma(0.5) / 28.0) <= 1e-9
        assert abs(float(report["m1_pow"]) - 0.87855) <= 1e-4
        assert float(report["rho"]) == 0.5
        assert abs(float(report["rho1"]) - 1.0 / 120.0) <= 1e-15
        assert float(report["rho2"]) == 1.0
        assert report["verdict"] == "hypotheses_hold"

        path = tmp_path / "ex43.problem"
        csv = tmp_path / "ex43.csv"
        assert _run_cli(capsys, "dump", "ex43", "--out", str(path))[0] == 0
        code, solve_report, _ = _run_cli(capsys, "solve", str(path),
                                         "--out", str(csv))
        assert code == 0
        assert solve_report["verdict"] == "converged"
        code, verify_report_, _ = _run_cli(capsys, "verify", str(path),
                                           "--solution", str(csv))
        assert code == 0
        norm = float(verify_report_["sup_norm"])
        assert 1.0 / 120.0 < norm < 1.0


def test_criterion_4_kernel_property_suite():
    with criterion(4, "kernel bounds on 200x200 grids, 20 random (alpha, eta)", 10.0):
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 1.0, 200)
        tg, sg = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(20):
            kp = KernelParams(2.0 + rng.uniform(0.01, 1.0), rng.uniform(0.02, 0.98))
            a = kp.alpha
            gv = g_kernel(kp, tg, sg)
            hv = h_kernel(kp, tg, sg)
            kv = k_kernel(kp, tg, sg)
            g_diag = (1.0 - sg) ** (a - 1.0) / math.gamma(a)
            h_diag = (1.0 - sg) ** (a - 2.0) / math.gamma(a - 1.0)
            assert np.min(gv) >= -1e-15 and np.min(hv) >= -1e-15       # 2.4 (i)
            assert np.all(gv <= g_diag + 1e-12)                        # 2.4 (ii)
            assert np.all(gv >= (1.0 - tg ** (a - 1.0)) * g_diag - 1e-12)
            assert np.all(hv <= h_diag + 1e-12)                        # 2.4 (iii)
            assert np.all(hv >= (1.0 - tg ** (a - 2.0)) * h_diag - 1e-12)
            env = phi_envelope(kp, sg)
            lower = (1.0 - kp.eta ** (a - 2.0)) * (1.0 - tg ** (a - 1.0)) * env
            assert np.all(kv <= env + 1e-12)                           # 2.5 (ii)
            assert np.all(kv >= lower - 1e-12)
            diag = np.linspace(0.0, 1.0, 200)
            identity_gap = np.abs(
                (1.0 - diag) ** (a - 1.0) / math.gamma(a)
                + (1.0 - diag) ** (a - 2.0) / math.gamma(a - 1.0)
                - phi_envelope(kp, diag))
            assert np.max(identity_gap) <= 1e-12


def test_criterion_5_lambda_ordering():
    with criterion(5, "Lambda_1 < Lambda_2 on 50 random instances", 30.0):
        rng = np.random.default_rng(77)
        for _ in range(50):
            c0 = rng.uniform(0.05, 2.0)
            c1 = rng.uniform(0.0, 2.0)
            c2 = rng.uniform(0.0, 2.0)
            pb = Problem(
                alpha=2.0 + rng.uniform(0.02, 1.0),
                eta=rng.uniform(0.05, 0.95),
                p=rng.uniform(1.2, 4.0),
                a=parse(f"{c0}+{c1}*t+{c2}*t^2", variables=("t",)),
                f=parse("1"),
                discretization=Discretization(panels=128),
            )
            rho = rng.uniform(0.05, 0.95)
            l1 = lambda1(pb)
            l2 = lambda2(pb, rho)
            assert 0.0 < l1 < l2


def test_criterion_6_quadrature_oracles():
    with criterion(6, "envelope integral and beta-bound vs independent quadrature"):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(6)
        for _ in range(20):
            alpha = 2.0 + rng.uniform(0.005, 1.0)
            kp = KernelParams(alpha, 0.5)
            value = integrate(lambda s: phi_envelope(kp, s), 0.0, 1.0)
            closed = (alpha + 1.0) / gamma(alpha + 1.0)
            assert abs(value - closed) <= 1e-9
        # direct quadrature reconstruction of the theorem-3.4 k-bound
        for _ in range(5):
            p = rng.uniform(2.2, 5.0)
            q = p / (p - 1.0)
            alpha = 2.0 + rng.uniform(0.05, 1.0)
            c = -rng.uniform(0.1, 0.6)       # singular moment exponent
            sigma = c / (q - 2.0)
            mu = rng.uniform(0.3, 1.0)
            pb = Problem(alpha=alpha, eta=0.5, p=p,
                         a=parse("1", variables=("t",)), f=parse("1"))
            rep = check_contraction_large_p(pb, mu=mu, sigma=sigma, k=1e-6)
            with mp.workdps(30):
                moment = (
                    mp.quad(lambda s: (1 - s) ** (alpha - 1) * s**c, [0, 1],
                            maxdegree=10) / mp.gamma(alpha)
                    + mp.quad(lambda s: (1 - s) ** (alpha - 2) * s**c, [0, 1],
                              maxdegree=10) / mp.gamma(alpha - 1)
                )
                reconstructed = float(1.0 / ((q - 1.0) * mu ** (q - 2.0) * moment))
            assert abs(rep.quantities["k_bound"] - reconstructed) \
                <= 1e-9 * max(1.0, reconstructed)


def test_criterion_7_solver_self_consistency():
    with criterion(7, "Example 4.1 Picard run certified by the verify module"):
        pb = CASES["ex41"].problem
        report = picard_solve(pb, tol=1e-10)
        assert report.converged
        vr = verification_report(pb, report.solution, CASES["ex41"].rho)
        assert vr.integral_form_residual <= 1e-5
        assert max(vr.bc_residuals) <= 1e-4
        assert vr.cone_slack >= -1e-10
        from dataclasses import replace
        fine = replace(pb, discretization=pb.discretization.refined())
        report2 = picard_solve(fine, tol=1e-10)
        assert report2.converged
        diff = np.max(np.abs(report2.solution(pb.partition().nodes)
                             - report.solution.values))
        assert diff <= 1e-5


def test_criterion_8_route_equivalence(kernel_reference):
    with criterion(8, "kernel route vs direct kernel quadrature on 10 random h"):
        rng = np.random.default_rng(88)
        part = Partition.graded(128, 2.0)
        for _ in range(10):
            kp = KernelParams(2.0 + rng.uniform(0.02, 1.0), rng.uniform(0.05, 0.95))
            q = rng.uniform(1.2, 4.0)
            h = GridFunction(part, rng.uniform(0.0, 2.0, part.nodes.size))
            u = kernel_route(kp, q, h)
            nodes, reference = kernel_reference(kp, q, h)
            assert np.max(np.abs(u.values[nodes] - reference)) <= 1e-8


def test_criterion_9_special_function_identities():
    with criterion(9, "gamma/beta identity suites at 1e-10 relative"):
        rng = np.random.default_rng(9)
        xs = rng.uniform(1e-3, 20.0, 500)
        for x in xs:
            assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-10 * gamma(x + 1.0)
        for n in range(0, 16):
            assert abs(gamma(n + 1.0) - math.factorial(n)) <= 1e-10 * math.factorial(n)
        ps = rng.uniform(1e-2, 10.0, 500)
        qs = rng.uniform(1e-2, 10.0, 500)
        for p, q in zip(ps, qs):
            b = beta(p, q)
            assert abs(b - beta(q, p)) <= 1e-10 * b
            assert abs(b - beta(p, q + 1.0) - beta(p + 1.0, q)) <= 1e-10 * b
            assert abs(beta(p + 1.0, q) - b * p / (p + q)) <= 1e-10 * b
        assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-10 * math.sqrt(math.pi)
