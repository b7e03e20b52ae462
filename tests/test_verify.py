import numpy as np
import pytest
from dataclasses import replace

from plbvp import problemfile
from plbvp.cases import CASES
from plbvp.exprlang import parse
from plbvp.greens import KernelParams, cone_gamma
from plbvp.quadrature import GridFunction, Partition, QuadratureError
from plbvp.solver import (Discretization, KernelAssembly, Problem, apply_operator, kernel_route,
                          picard_solve)
from plbvp.verify import (
    VerificationReport,
    boundary_residuals,
    fd_weights,
    integral_form_residual,
    verification_report,
)


def _problem(a="1", f="1", alpha=2.5, eta=0.5, p=1.5, panels=256):
    return Problem(alpha=alpha, eta=eta, p=p, a=parse(a, variables=("t",)),
                   f=parse(f), discretization=Discretization(panels=panels))


def test_fd_weights_standard_stencils():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    w1 = fd_weights(0.0, xs, 1)
    assert np.allclose(w1, [-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0])
    w2 = fd_weights(0.0, xs, 2)
    assert np.allclose(w2, [2.0, -5.0, 4.0, -1.0])
    # exact on cubics at arbitrary nodes
    xs = np.array([0.0, 0.13, 0.4, 0.95])
    coef = np.array([0.7, -1.2, 0.5, 2.0])
    vals = coef[0] + coef[1] * xs + coef[2] * xs**2 + coef[3] * xs**3
    assert fd_weights(0.2, xs, 1) @ vals == pytest.approx(
        coef[1] + 2 * coef[2] * 0.2 + 3 * coef[3] * 0.04, rel=1e-10)


def _fd_weights_on_arrays(x0, xs, m):
    """Reference: Fornberg's recurrence on a numpy table and numpy scalars."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[i, s] = c1 * (s * c[i - 1, s - 1] - c5 * c[i - 1, s]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for s in range(mn, 0, -1):
                c[j, s] = (c4 * c[j, s] - s * c[j, s - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def test_fd_weights_match_the_recurrence_on_arrays_bit_for_bit():
    # the weights, their strides and their dot products with nodal values,
    # on the stencils boundary_residuals takes and on random ones
    rng = np.random.default_rng(7)
    nodes = Partition.graded(128, 2.0).nodes
    stencils = [(nodes[0], nodes[:4], 1), (nodes[0], nodes[:4], 2), (nodes[-1], nodes[-4:], 1),
                (0.3, nodes[60:64], 1)]
    for _ in range(200):
        n = int(rng.integers(2, 7))
        xs = np.sort(rng.uniform(size=n))
        stencils.append((float(rng.uniform()), xs, int(rng.integers(0, n))))
    for x0, xs, m in stencils:
        got, want = fd_weights(x0, xs, m), _fd_weights_on_arrays(x0, xs, m)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
        vals = rng.uniform(size=len(xs))
        assert (got @ vals).tobytes() == (want @ vals).tobytes()


def test_zero_solution_zero_residuals():
    pb = _problem(f="0")
    u = GridFunction.constant(pb.partition(), 0.0)
    assert integral_form_residual(pb, u) == 0.0
    assert boundary_residuals(pb, u) == (0.0, 0.0, 0.0)


def test_constant_solution_boundary_residuals():
    pb = _problem()
    c = 0.8
    u = GridFunction.constant(pb.partition(), c)
    r = boundary_residuals(pb, u)
    # second-derivative stencil weights scale like 1/h^2, so exact zeros
    # surface as ~1e-11 rounding noise
    assert r[0] == pytest.approx(0.0, abs=1e-10)
    assert r[1] == pytest.approx(0.0, abs=1e-9)
    assert r[2] == pytest.approx(c, abs=1e-10)


def test_cubic_solution_boundary_residuals():
    # u = 1 - t^3: u'(0) = u''(0) = 0 and the three-point residual is
    # |(1 - 1) + (-3) - (-3 eta^2)| = 3 (1 - eta^2); stencils are exact here
    pb = _problem(eta=0.5)
    part = pb.partition()
    u = GridFunction(part, 1.0 - part.nodes**3)
    r = boundary_residuals(pb, u)
    assert r[0] == pytest.approx(0.0, abs=1e-9)
    assert r[1] == pytest.approx(0.0, abs=1e-7)
    assert r[2] == pytest.approx(3.0 * (1.0 - 0.25), rel=1e-9)


def test_boundary_residuals_reject_coarse_grid():
    pb = _problem()
    part = Partition.graded(8)
    u = GridFunction.constant(part, 0.0)
    with pytest.raises(ValueError):
        boundary_residuals(pb, u)


def test_perturbation_detected():
    # the converged ex41 solution is u == 0; bumping one interior node by
    # 0.1 must push the integral-form residual past the detector floor
    pb = CASES["ex41"].problem
    part = pb.partition()
    vals = np.zeros(part.nodes.size)
    vals[part.nodes.size // 2] += 0.1
    residual = integral_form_residual(pb, GridFunction(part, vals))
    assert residual >= 0.05


def test_converged_ex41_certified():
    pb = CASES["ex41"].problem
    report = picard_solve(pb, tol=1e-10)
    assert report.converged
    vr = verification_report(pb, report.solution, CASES["ex41"].rho)
    assert vr.integral_form_residual <= 1e-5
    assert max(vr.bc_residuals) <= 1e-4
    assert vr.cone_slack >= -1e-10
    assert vr.positivity_min >= 0.0


def test_converged_ex43_certified():
    case = CASES["ex43"]
    report = picard_solve(case.problem, tol=1e-10)
    vr = verification_report(case.problem, report.solution, case.rho)
    assert vr.integral_form_residual <= 1e-5
    assert vr.cone_slack >= -1e-10
    assert case.flags["rho1"] < vr.sup_norm < case.flags["rho2"]
    assert vr.positivity_min > 0.0


def test_residual_decays_with_resolution():
    # on its own grid a converged solution meets the identity to rounding,
    # since the verifier shares the solver's quadrature; on a common finer
    # grid the residual shows the discretization error, which decays
    case = CASES["ex43"]
    fine = replace(case.problem, discretization=Discretization(panels=512))
    residuals = []
    for panels in (64, 128, 256):
        pb = replace(case.problem, discretization=Discretization(panels=panels))
        sol = picard_solve(pb, tol=1e-12)
        u = GridFunction(fine.partition(), sol.solution(fine.partition().nodes))
        residuals.append(integral_form_residual(fine, u))
    assert residuals[2] < residuals[0]


def test_cone_check_cases():
    pb = _problem()
    part = pb.partition()
    gam = cone_gamma(pb.kernel_params, 0.5)
    c = 0.6
    slack = verification_report(pb, GridFunction.constant(part, c), 0.5).cone_slack
    assert slack == pytest.approx(c * (1.0 - gam), rel=1e-10)
    # u(t) = t is not a solution shape: min on [0, rho] is 0, sup is 1
    slack = verification_report(pb, GridFunction(part, part.nodes.copy()), 0.5).cone_slack
    assert slack == pytest.approx(-gam, rel=1e-10)
    assert slack < 0.0


# points of each dense grid of the reference report below
_DENSE_SAMPLES = 2048


def _sorted_dense_report(pb, u, rho):
    """Reference: the report from u evaluated twice, on the sorted union of
    each interval's dense grid and the nodes in it."""
    def dense(hi):
        nodes = u.partition.nodes
        xs = np.linspace(0.0, hi, _DENSE_SAMPLES + 1)
        return u(np.unique(np.concatenate([xs, nodes[(nodes >= 0.0) & (nodes <= hi)]])))

    whole = dense(1.0)
    gam = cone_gamma(pb.kernel_params, rho)
    return VerificationReport(
        integral_form_residual=integral_form_residual(pb, u),
        bc_residuals=boundary_residuals(pb, u),
        positivity_min=float(np.min(whole)),
        cone_slack=float(np.min(dense(rho)) - gam * np.max(np.abs(whole))),
        sup_norm=float(np.max(np.abs(whole))),
    )


def test_report_matches_sorted_dense_points_bit_for_bit(manufactured):
    pb, solution = _solved(manufactured)
    part = solution.partition
    nodes = part.nodes
    rng = np.random.default_rng(5)
    functions = [solution, GridFunction.constant(part, 0.6), GridFunction(part, nodes.copy()),
                 GridFunction(part, rng.uniform(0.0, 2.0, nodes.size)),
                 # data that is not monotone: a |sin| wave, alternating values
                 # and a random walk clipped at 0
                 GridFunction(part, np.abs(np.sin(23.0 * nodes + 0.4))),
                 GridFunction(part, np.where(np.arange(nodes.size) % 2 == 0, 0.3, 1.7)),
                 GridFunction(part, np.clip(0.2 + np.cumsum(rng.normal(0.0, 0.1, nodes.size)),
                                            0.0, None))]
    between = 0.5 * (nodes[9] + nodes[10])
    for u in functions:
        for rho in (0.5, float(nodes[9]), between, 1e-9):
            got, want = verification_report(pb, u, rho), _sorted_dense_report(pb, u, rho)
            assert repr(got) == repr(want)
            assert [type(x) for x in got.bc_residuals] == [type(x) for x in want.bc_residuals]


def test_min_below_the_first_node_is_the_interpolant_at_rho():
    # on a nearly flat first cell the cubic, as rounded, is not monotone to
    # the last bit: a dense point just below rho reads one ulp under u(rho).
    # The report takes the minimum where the monotone cubic has it, at rho.
    pb = _problem(panels=64)
    part = Partition.graded(565, 2.3558571271610553)
    u = GridFunction(part, 1.1796530566548498 - 0.17211936805501415
                     * part.nodes ** 4.501918206587616)
    rho = 0.000672307471454589
    at_rho = u(rho)
    dense = float(np.min(u(np.linspace(0.0, rho, _DENSE_SAMPLES + 1))))
    assert dense == np.nextafter(at_rho, 0.0)
    report = verification_report(pb, u, rho)
    assert report.cone_slack == at_rho - cone_gamma(pb.kernel_params, rho) * report.sup_norm


def test_report_evaluates_the_interpolant_once(manufactured, monkeypatch):
    pb, u = _solved(manufactured)
    calls = []
    evaluate = GridFunction.__call__

    def counting(self, x):
        calls.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(GridFunction, "__call__", counting)
    verification_report(pb, u, 0.5)
    # at the nodes and at rho
    assert calls == [u.partition.nodes.size + 1]


def test_report_errors_keep_their_order():
    pb = _problem()
    coarse = Partition.graded(8)
    negative = GridFunction(coarse, np.full(coarse.nodes.size, -1.0))
    with pytest.raises(ValueError, match="u must be nonnegative"):
        verification_report(pb, negative, 2.0)
    with pytest.raises(ValueError, match="grid too coarse"):
        verification_report(pb, GridFunction.constant(coarse, 0.5), 2.0)
    with pytest.raises(ValueError, match="rho must lie in"):
        verification_report(pb, GridFunction.constant(pb.partition(), 0.5), 2.0)


def test_route_equivalence_random_densities(kernel_reference):
    rng = np.random.default_rng(23)
    part = Partition.graded(128, 2.0)
    worst = 0.0
    for _ in range(4):
        kp = KernelParams(2.0 + rng.uniform(0.05, 1.0), rng.uniform(0.1, 0.9))
        q = rng.uniform(1.2, 4.0)
        h = GridFunction(part, rng.uniform(0.0, 2.0, part.nodes.size))
        u = kernel_route(kp, q, h)
        nodes, reference = kernel_reference(kp, q, h)
        worst = max(worst, float(np.max(np.abs(u.values[nodes] - reference))))
    assert worst <= 1e-8


def test_integral_form_requires_nonnegative():
    pb = _problem()
    part = pb.partition()
    with pytest.raises(ValueError):
        integral_form_residual(pb, GridFunction(part, np.full(part.nodes.size, -1.0)))


def _solved(manufactured, panels=64):
    text, _ = manufactured(2.05, 0.3, 1.5, 1.0, 1.5, 1.0)
    pb = problemfile.loads_problem(text(panels)).problem
    return pb, picard_solve(pb).solution


def test_report_after_a_solve_reuses_its_last_application(manufactured, monkeypatch):
    pb, u = _solved(manufactured)
    calls = []
    integrals = KernelAssembly._integrals

    def counting(self, g):
        calls.append(1)
        return integrals(self, g)

    monkeypatch.setattr(KernelAssembly, "_integrals", counting)
    report = verification_report(pb, u, 0.5)
    assert calls == []
    # bit for bit the report of a new problem instance, which applies the
    # operator afresh, field types included
    fresh = verification_report(replace(pb), u, 0.5)
    assert len(calls) == 1
    assert repr(report) == repr(fresh)
    assert [type(x) for x in report.bc_residuals] == [type(x) for x in fresh.bc_residuals]
    assert type(report.bc_residuals[2]) is np.float64


def test_integral_form_residual_sees_one_changed_value(manufactured):
    pb, u = _solved(manufactured)
    base = integral_form_residual(pb, u)
    for k in (0, 17, u.values.size - 1):
        values = u.values.copy()
        values[k] *= 1.0 + 1e-6
        changed = integral_form_residual(pb, GridFunction(u.partition, values))
        assert changed != base
        # and the solution itself is not confused with the changed values
        assert integral_form_residual(pb, u) == base


def test_overflowing_phi_q_of_the_running_integral_is_named():
    # F = int_0^s 1e200 is finite, but phi_q(F) = F^2 (q = 3) is not
    pb = _problem(f="1e200", p=1.5)
    zero = GridFunction.constant(pb.partition(), 0.0)
    message = "phi_q of the running integral int_0"
    with pytest.raises(QuadratureError, match=message):
        apply_operator(pb, zero)
    with pytest.raises(QuadratureError, match=message):
        verification_report(pb, zero, 0.5)


def test_values_whose_stencils_overflow_are_rejected():
    # the integral form of these values is finite (1.7e308), but a boundary
    # stencil or a slope of u's interpolant is not
    part = Partition.graded(32, 2.0)
    values = np.where(np.arange(part.nodes.size) % 2 == 0, 1.7e308, 0.0)
    u = GridFunction(part, values)
    pb = _problem(panels=32)
    assert integral_form_residual(pb, u) == 1.7e308
    with pytest.raises(ValueError, match=r"overflow: \|u\| reaches 1\.7e\+308$"):
        verification_report(pb, u, 0.5)


def test_boundary_residuals_of_values_whose_stencils_overflow_raise():
    # called directly, as verification_report calls it, without a warning
    part = Partition.graded(32, 2.0)
    values = np.where(np.arange(part.nodes.size) % 2 == 0, 1.7e308, 0.0)
    with pytest.raises(ValueError, match=r"overflow: \|u\| reaches 1\.7e\+308$"):
        boundary_residuals(_problem(panels=32), GridFunction(part, values))
